//! The host's witness: a fixed piece of work of the harness's own, run
//! every few milliseconds beside the engine, whose duration says how fast
//! the host was just then.
//!
//! Why. The sandbox is two virtual CPUs of a shared machine. Whatever
//! shares the physical core switches on and off, for tens of
//! milliseconds or for a quarter of an hour, and while it is on,
//! code-heavy work takes up to 1.8 times as long: `read.none` on
//! `stmt_hot` reads 62 µs in one run and 105 µs in the next, from the
//! same build. No order statistic over a window recovers the quiet
//! figure from a window that holds no quiet second. But the witness is
//! slowed by the same neighbour at the same moment, so each timing metric
//! is reported **at reference speed**: the measurements of a run are
//! regressed on the witness's slowdown at the time they were taken, and
//! the value at slowdown 1 is the metric ([`at_reference`]). How much a
//! workload feels the neighbour is fitted from the run itself — a
//! statement on `stmt_hot` feels more of it than the witness does (slope
//! 1.0 to 1.3), a read that misses to a file on `stmt_cold` a third, an
//! in-place commit on `txn_ripple` (mostly copying page images into the
//! log) 0.3 to 0.4 — so no sensitivity is assumed.
//!
//! The witness is engine-free (ordered-map ranges, small copies, a
//! formatted and re-parsed key: the instruction mix of a query
//! executor), so an engine change cannot move it; parent and change are
//! built by one toolchain, so neither can the compiler.

use crate::measure::quantile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one burst takes on the reference host — this sandbox with
/// nothing beside it — in microseconds. Only a unit: metrics are
/// reported at the speed at which a burst takes this long.
pub const REF_BURST_US: f64 = 195.0;
/// Engine time between two bursts. A burst is about 1/20 of it.
const PACE: Duration = Duration::from_millis(5);
/// Lookups per burst.
const LOOKUPS: usize = 150;
/// Keys in the witness's map (about 7 MB with the nodes).
const KEYS: u64 = 50_000;

/// The witness kernel, its pacing and what it saw.
pub struct Witness {
    tree: BTreeMap<u64, [u8; 96]>,
    x: u64,
    /// When the last burst ended.
    last: Instant,
    /// Time spent in bursts since [`Witness::restart`]: not the
    /// engine's, so the caller takes it off its clock.
    pub spent: Duration,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Default for Witness {
    fn default() -> Self {
        Witness::new()
    }
}

impl Witness {
    /// Build the kernel's map. The same in every run.
    pub fn new() -> Witness {
        let tree = (0..KEYS)
            .map(|i| {
                let mut v = [0u8; 96];
                v[..8].copy_from_slice(&i.to_le_bytes());
                (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), v)
            })
            .collect();
        Witness {
            tree,
            x: 0x9E37_79B9_7F4A_7C15,
            last: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Start the clock again; the next burst is due one pace from now.
    pub fn restart(&mut self) {
        self.last = Instant::now();
        self.spent = Duration::ZERO;
    }

    /// One burst, if one is due at `now` (a time the caller has read
    /// anyway). Returns its log slowdown.
    pub fn tick(&mut self, now: Instant) -> Option<f64> {
        (now.saturating_duration_since(self.last) >= PACE).then(|| self.burst())
    }

    /// When the last burst ended.
    pub fn last(&self) -> Instant {
        self.last
    }

    /// One burst, now. Returns its log slowdown.
    pub fn burst(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(32);
        let mut total = 0usize;
        for _ in 0..LOOKUPS {
            rows.clear();
            let k = xorshift(&mut self.x);
            for (_, v) in self.tree.range(k..).take(20) {
                rows.push(v.to_vec());
            }
            let text = format!("{:05}x{:012}", k % 5000, k >> 40);
            total += text.len() + rows.len();
            if let Ok(n) = text[..5].parse::<usize>() {
                total += n;
            }
        }
        black_box(total);
        let t1 = Instant::now();
        let took = t1 - t0;
        self.last = t1;
        self.spent += took;
        (took.as_secs_f64() * 1e6 / REF_BURST_US).ln()
    }
}

/// Pairs closer than this in log slowdown say nothing about the slope.
const MIN_DX: f64 = 0.05;
/// Pairs a slope needs; with fewer the host did not change speed enough
/// to say anything, and the slope is taken as 0.
const MIN_PAIRS: usize = 20;
/// The slope is held to this range: a measurement cannot speed up when
/// the host slows, and nothing here has been seen to slow by more than
/// the square of what the witness does.
const MAX_SLOPE: f64 = 2.0;

/// How much a quantity feels the host's speed: the slope `b` of
/// `y = a + b x` over `points`, `x` the log slowdown of the witness
/// around a measurement and `y` the log of the measurement (a time, so
/// that a slower host makes it larger). Theil–Sen — the median of the
/// slopes of all pairs, each weighted by how far apart its two `x` are —
/// which a burst the hypervisor interrupted cannot move; held to
/// `[0, 2]`.
pub fn sensitivity(points: &[(f64, f64)]) -> f64 {
    // Every pair up to ~250k of them; beyond, every k-th.
    let n = points.len();
    let step = (n * n / 2 / 250_000).max(1);
    let mut slopes: Vec<(f64, f64)> = Vec::new();
    let mut c = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            c += 1;
            if !c.is_multiple_of(step) {
                continue;
            }
            let dx = points[i].0 - points[j].0;
            if dx.abs() >= MIN_DX {
                slopes.push(((points[i].1 - points[j].1) / dx, dx.abs()));
            }
        }
    }
    if slopes.len() < MIN_PAIRS {
        return 0.0;
    }
    slopes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = slopes.iter().map(|s| s.1).sum::<f64>() / 2.0;
    let mut below = 0.0;
    for &(slope, weight) in &slopes {
        below += weight;
        if below >= half {
            return slope.clamp(0.0, MAX_SLOPE);
        }
    }
    0.0
}

/// The value at reference speed of a quantity measured many times, and
/// its [`sensitivity`] `b`: `exp` of the median of `y - b x`. `(0, 0)`
/// when there are no points.
pub fn at_reference(points: &[(f64, f64)]) -> (f64, f64) {
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let b = sensitivity(points);
    let mut rest: Vec<f64> = points.iter().map(|&(x, y)| y - b * x).collect();
    (quantile(&mut rest, 0.5).exp(), b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_the_value_at_rest_from_a_run_that_never_rested() {
        // y = ln 60 + 1.2 x, x in 0.2..0.6, one wild point.
        let mut pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = 0.2 + 0.004 * f64::from(i);
                (x, 60f64.ln() + 1.2 * x)
            })
            .collect();
        pts.push((3.0, 1.0));
        let (v, b) = at_reference(&pts);
        assert!((v - 60.0).abs() < 0.5, "{v}");
        assert!((b - 1.2).abs() < 0.02, "{b}");
    }

    #[test]
    fn a_steady_host_gives_the_plain_median() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| (0.01, f64::from(10 + i % 3).ln()))
            .collect();
        let (v, b) = at_reference(&pts);
        assert_eq!(b, 0.0);
        assert!((v - 11.0).abs() < 1e-9);
    }
}
