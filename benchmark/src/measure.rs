//! Measurement plumbing: latency samples, percentiles, per-kind page
//! counters, the reading of a window at reference speed, the CPU
//! calibration loop, peak memory.

use crate::ops::Kind;
use crate::witness::at_reference;
use fieldrep_obs::IoCounts;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Latencies in nanoseconds, kept whole so that any percentile can be
/// taken afterwards.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u32>);

impl Samples {
    /// Record one latency.
    pub fn push(&mut self, nanos: u64) {
        self.0.push(nanos.min(u64::from(u32::MAX)) as u32);
    }

    /// How many.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Append another set.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile in microseconds (see [`quantile`]). 0 when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut us: Vec<f64> = self.0.iter().map(|&ns| f64::from(ns) / 1000.0).collect();
        quantile(&mut us, q)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }
}

/// Per-kind tallies of one client: operations, failures, latencies and
/// the page events the operations caused on the client's own thread.
#[derive(Default, Clone)]
pub struct Tally {
    /// Operations attempted, by kind.
    pub ops: [u64; 7],
    /// Operations that errored or returned what the oracle rejects.
    pub failed: [u64; 7],
    /// Latency of every attempted operation, by kind.
    pub latency: [Samples; 7],
    /// The [`SLICE`] of the phase each of those operations finished in.
    pub slice: [Vec<u16>; 7],
    /// Page events, by kind.
    pub io: [IoCounts; 7],
    /// Every burst of the host's witness in the phase: the slice it
    /// ran in and its log slowdown (see [`crate::witness`]).
    pub bursts: Vec<(u16, f32)>,
}

/// Length of one time slice of a phase, on the client's own clock (wall
/// time less the witness's bursts). The witness runs about ten times in
/// one; the neighbour that slows the host comes and goes in tens of
/// milliseconds, so a longer slice would average speeds together.
pub const SLICE: Duration = Duration::from_millis(50);
/// Samples of a kind that make one point of its regression: slices are
/// joined, in order, until they hold this many (one slice is enough for
/// a read on `stmt_hot`; an update on `stmt_cold` needs five).
const POINT_MIN_SAMPLES: usize = 12;
/// Points a regression needs; with fewer (smoke runs) the metric is the
/// plain median.
const MIN_POINTS: usize = 8;

fn slice_of(since_start: Duration) -> u16 {
    (since_start.as_nanos() / SLICE.as_nanos()).min(u128::from(u16::MAX)) as u16
}

impl Tally {
    /// Record one operation that finished `since_start` into the phase.
    pub fn record(
        &mut self,
        kind: Kind,
        nanos: u64,
        since_start: Duration,
        io: IoCounts,
        ok: bool,
    ) {
        let k = kind.idx();
        self.ops[k] += 1;
        self.failed[k] += u64::from(!ok);
        self.latency[k].push(nanos);
        self.slice[k].push(slice_of(since_start));
        self.io[k] += io;
    }

    /// Record one burst of the witness, `since_start` into the phase.
    pub fn witnessed(&mut self, since_start: Duration, ln_slowdown: f64) {
        self.bursts
            .push((slice_of(since_start), ln_slowdown as f32));
    }

    /// Fold another client's tallies in.
    pub fn merge(&mut self, other: &Tally) {
        for k in 0..7 {
            self.ops[k] += other.ops[k];
            self.failed[k] += other.failed[k];
            self.latency[k].extend(&other.latency[k]);
            self.slice[k].extend_from_slice(&other.slice[k]);
            self.io[k] += other.io[k];
        }
        self.bursts.extend_from_slice(&other.bursts);
    }

    /// Slices the phase filled completely (the last one is cut short by
    /// the phase's end).
    fn full_slices(&self) -> usize {
        self.slice
            .iter()
            .flatten()
            .map(|&s| usize::from(s))
            .max()
            .unwrap_or(0)
    }

    /// Per full slice: the sum and the number of the witness's log
    /// slowdowns.
    fn witness_by_slice(&self, full: usize) -> Vec<(f64, u32)> {
        let mut by_slice = vec![(0.0f64, 0u32); full];
        for &(s, ln) in &self.bursts {
            if let Some(slot) = by_slice.get_mut(usize::from(s)) {
                slot.0 += f64::from(ln);
                slot.1 += 1;
            }
        }
        by_slice
    }

    /// The regression points of one quantity: full slices are joined, in
    /// order, until they hold `POINT_MIN_SAMPLES` samples and a burst;
    /// the point is (mean log slowdown, log of `measure(first, end)` over
    /// the joined slices).
    fn points(&self, count: &[usize], measure: impl Fn(usize, usize) -> f64) -> Vec<(f64, f64)> {
        let witness = self.witness_by_slice(count.len());
        let mut points = Vec::new();
        let (mut first, mut samples, mut x, mut bursts) = (0, 0, 0.0, 0u32);
        for (s, &n) in count.iter().enumerate() {
            samples += n;
            x += witness[s].0;
            bursts += witness[s].1;
            if samples >= POINT_MIN_SAMPLES && bursts > 0 {
                let y = measure(first, s + 1);
                if y > 0.0 {
                    points.push((x / f64::from(bursts), y.ln()));
                }
                (first, samples, x, bursts) = (s + 1, 0, 0.0, 0);
            }
        }
        points
    }

    /// The median latency of `kind` **at reference speed**, in
    /// microseconds, and the fitted sensitivity to the host's speed:
    /// the medians of short stretches of the phase, regressed on what
    /// the witness saw in the same stretch and read off at slowdown 1
    /// ([`at_reference`]). With too few stretches (smoke runs) it is the
    /// plain median and sensitivity 0.
    pub fn p50_at_reference_us(&self, kind: Kind) -> (f64, f64) {
        let k = kind.idx();
        let full = self.full_slices();
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); full];
        for (&nanos, &s) in self.latency[k].0.iter().zip(&self.slice[k]) {
            if let Some(slot) = by_slice.get_mut(usize::from(s)) {
                slot.push(f64::from(nanos) / 1000.0);
            }
        }
        let count: Vec<usize> = by_slice.iter().map(Vec::len).collect();
        let points = self.points(&count, |first, end| {
            quantile(&mut by_slice[first..end].concat(), 0.5)
        });
        if points.len() < MIN_POINTS {
            return (self.latency[k].p50_us(), 0.0);
        }
        at_reference(&points)
    }

    /// Operations per second at reference speed and the fitted
    /// sensitivity: the time per operation of short stretches, treated
    /// like a latency. `None` with too few stretches.
    pub fn rate_at_reference(&self) -> Option<(f64, f64)> {
        let mut count = vec![0usize; self.full_slices()];
        for &s in self.slice.iter().flatten() {
            if let Some(n) = count.get_mut(usize::from(s)) {
                *n += 1;
            }
        }
        let points = self.points(&count, |first, end| {
            let ops: usize = count[first..end].iter().sum();
            (end - first) as f64 * SLICE.as_secs_f64() / ops as f64
        });
        if points.len() < MIN_POINTS {
            return None;
        }
        let (s_per_op, sensitivity) = at_reference(&points);
        Some((1.0 / s_per_op, sensitivity))
    }

    /// The `q`-quantile of the slowdowns the witness saw over the phase
    /// (1 = the reference host at rest); 0 when it never ran.
    pub fn host_slowdown(&self, q: f64) -> f64 {
        let mut ln: Vec<f64> = self.bursts.iter().map(|&(_, ln)| f64::from(ln)).collect();
        if ln.is_empty() {
            0.0
        } else {
            quantile(&mut ln, q).exp()
        }
    }

    /// The counts only (what the counted prefix keeps).
    pub fn counts(&self) -> Counts {
        Counts {
            ops: self.ops,
            io: self.io,
        }
    }

    /// Operations attempted over all kinds.
    pub fn attempted(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Failures over all kinds.
    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Latencies of the kinds `pick` selects, pooled.
    pub fn pooled(&self, pick: impl Fn(Kind) -> bool) -> Samples {
        let mut out = Samples::default();
        for k in Kind::ALL {
            if pick(k) {
                out.extend(&self.latency[k.idx()]);
            }
        }
        out
    }
}

/// The count part of a [`Tally`]: what repeats exactly.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    /// Operations by kind.
    pub ops: [u64; 7],
    /// Page events by kind.
    pub io: [IoCounts; 7],
}

impl Counts {
    /// Fold another client's counts in.
    pub fn merge(&mut self, other: &Counts) {
        for k in 0..7 {
            self.ops[k] += other.ops[k];
            self.io[k] += other.io[k];
        }
    }

    /// Operations and page events of the kinds `pick` selects.
    pub fn sum(&self, pick: impl Fn(Kind) -> bool) -> (u64, IoCounts) {
        let mut ops = 0;
        let mut io = IoCounts::default();
        for k in Kind::ALL {
            if pick(k) {
                ops += self.ops[k.idx()];
                io += self.io[k.idx()];
            }
        }
        (ops, io)
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fixed amount of CPU work, timed: the fastest of five rounds, since
/// a round the hypervisor interrupted says nothing about the processor.
/// Run before and after a window: the two differ when the processor
/// itself ran at another speed, and the window is then too noisy to
/// judge.
pub fn calibrate() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..4_000_000u64 {
                x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
            }
            black_box(x);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not say.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `xs` (which it sorts), interpolated between the
/// two nearest ranks so that a latency is not a multiple of the clock's
/// resolution. 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(xs.len() - 1);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}
