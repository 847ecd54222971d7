//! Process-wide metrics registry: named counters, gauges, and
//! fixed-bucket histograms behind cheap atomics.
//!
//! Handles are `Arc`s into the global [`registry`]; after the first
//! lookup the hot path is a single atomic RMW with no locking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::names::{self, Name};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// Bucket `i` counts samples `<= bounds[i]`; one extra overflow bucket
/// catches the rest. Quantiles are estimated as the upper bound of the
/// bucket containing the target rank (the recorded maximum for the
/// overflow bucket), which is exact whenever samples sit on bucket
/// boundaries and conservative otherwise.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// bounds.len() + 1 buckets; the last is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0 < q <= 1.0`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Rank of the target sample, 1-based, at least 1.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max()
                });
            }
        }
        Some(self.max())
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The metrics registry: name → instrument. Every name is a registered
/// [`Name`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<Name, Arc<Counter>>>,
    gauges: RwLock<HashMap<Name, Arc<Gauge>>>,
    histograms: RwLock<HashMap<Name, Arc<Histogram>>>,
}

impl Registry {
    /// Get or create the counter named `name`.
    pub fn counter(&self, name: Name) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(&name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: Name) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(&name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name).or_default())
    }

    /// Get or create the histogram named `name` with the given bucket
    /// upper bounds. If it already exists, the existing instrument (and
    /// its original bounds) wins.
    pub fn histogram(&self, name: Name, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(&name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .read()
            .iter()
            .map(|(k, h)| HistogramSnapshot {
                name: k.to_string(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                max: h.max(),
                p50: h.p50(),
                p95: h.p95(),
                p99: h.p99(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let derived = derive_metrics(&counters);
        Snapshot {
            counters,
            gauges,
            histograms,
            derived,
        }
    }
}

/// Ratios computed from raw counters at snapshot time, so exports are
/// readable without manual arithmetic. Currently:
/// `storage.pool.hit_rate` = hits / (hits + misses).
fn derive_metrics(counters: &[(String, u64)]) -> Vec<(String, f64)> {
    let get = |name: Name| {
        counters
            .iter()
            .find(|(n, _)| *n == *name)
            .map(|(_, v)| *v as f64)
    };
    let mut derived = Vec::new();
    if let (Some(hits), Some(misses)) = (
        get(names::STORAGE_POOL_HITS),
        get(names::STORAGE_POOL_MISSES),
    ) {
        if hits + misses > 0.0 {
            derived.push((
                names::STORAGE_POOL_HIT_RATE.to_string(),
                hits / (hits + misses),
            ));
        }
    }
    derived
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean of samples.
    pub mean: f64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: Option<u64>,
    /// 95th-percentile estimate.
    pub p95: Option<u64>,
    /// 99th-percentile estimate.
    pub p99: Option<u64>,
    /// Configured bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (last is overflow).
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// `(name, value)` for every derived ratio (see [`Registry::snapshot`]),
    /// e.g. `storage.pool.hit_rate`.
    pub derived: Vec<(String, f64)>,
}

impl Snapshot {
    /// Counter `name`'s value (0 when it is not registered yet), so two
    /// snapshots diff into a window's delta.
    pub fn counter(&self, name: Name) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
            .map_or(0, |i| self.counters[i].1)
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::default();
        let c = r.counter(names::TXN_BEGIN);
        c.inc();
        c.add(4);
        assert_eq!(
            r.counter(names::TXN_BEGIN).get(),
            5,
            "same name, same counter"
        );
        let g = r.gauge(names::TXN_ACTIVE);
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge(names::TXN_ACTIVE).get(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(&[1, 10, 100]);
        // On-boundary values land in the bucket they bound (<=).
        h.record(1);
        h.record(10);
        h.record(100);
        // Off-boundary values land in the next bucket up.
        h.record(2);
        h.record(11);
        // Overflow.
        h.record(101);
        h.record(5_000);
        assert_eq!(h.bucket_counts(), vec![1, 2, 2, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 5_000);
        assert_eq!(h.sum(), 1 + 10 + 100 + 2 + 11 + 101 + 5_000);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new(&[1, 2, 4, 8, 16]);
        for v in [1, 1, 2, 2, 2, 4, 4, 8, 8, 30] {
            h.record(v);
        }
        // Ranks (1-based) over 10 samples sorted: 1 1 2 2 2 4 4 8 8 30.
        assert_eq!(h.p50(), Some(2));
        assert_eq!(h.quantile(0.7), Some(4));
        assert_eq!(h.p95(), Some(30), "p95 rank 10 falls in overflow → max");
        assert_eq!(h.p99(), Some(30));
        assert_eq!(h.quantile(1.0), Some(30));
        // Tiny q clamps to the first sample.
        assert_eq!(h.quantile(0.001), Some(1));
        assert!((h.mean() - 6.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(&[1, 2]);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_all_agree() {
        // On a bucket boundary every quantile is exact.
        let h = Histogram::new(&[1, 2, 4, 8, 16]);
        h.record(8);
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(8), "q={q}");
        }
        assert_eq!(h.mean(), 8.0);
        assert_eq!(h.max(), 8);
        // A single overflow sample reports the recorded max everywhere.
        let h = Histogram::new(&[1, 2]);
        h.record(100);
        assert_eq!(h.p50(), Some(100));
        assert_eq!(h.p99(), Some(100));
        assert_eq!(h.bucket_counts(), vec![0, 0, 1]);
    }

    #[test]
    fn counter_deltas_never_go_negative_across_resets() {
        // Registry counters are monotonic: lower layers may reset their
        // own profiles (e.g. `reset_profile()` on the storage side), but
        // mirrored counters only ever grow, so deltas between two
        // snapshots stay non-negative by construction.
        let r = Registry::default();
        let c = r.counter(names::TXN_COMMIT);
        c.add(10);
        let before = r.snapshot();
        // A storage-style "reset" has no registry analog; the counter
        // keeps its value and keeps growing.
        c.add(2);
        let after = r.snapshot();
        let get = |s: &Snapshot| s.counter(names::TXN_COMMIT);
        assert!(get(&after) >= get(&before), "counters are monotonic");
        assert_eq!(get(&after) - get(&before), 2);
        assert_eq!(after.counter(names::TXN_ABORT), 0, "never created");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::default();
        r.counter(names::TXN_COMMIT).add(2);
        r.counter(names::TXN_ABORT).inc();
        r.gauge(names::TXN_ACTIVE).set(-4);
        r.histogram(names::TXN_LOCKSET, &[1, 2, 4]).record(3);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("txn.abort".into(), 1), ("txn.commit".into(), 2)]
        );
        assert_eq!(snap.gauges, vec![("txn.active".into(), -4)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.histograms[0].buckets, vec![0, 0, 1, 0]);
        assert!(snap.derived.is_empty(), "no pool counters, no ratio");
    }

    #[test]
    fn pool_hit_rate_is_derived_at_snapshot_time() {
        let r = Registry::default();
        r.counter(names::STORAGE_POOL_HITS).add(3);
        r.counter(names::STORAGE_POOL_MISSES).add(1);
        let snap = r.snapshot();
        assert_eq!(snap.derived.len(), 1);
        assert_eq!(snap.derived[0].0, "storage.pool.hit_rate");
        assert!((snap.derived[0].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_skipped_when_pool_untouched() {
        let r = Registry::default();
        r.counter(names::STORAGE_POOL_HITS);
        r.counter(names::STORAGE_POOL_MISSES);
        assert!(r.snapshot().derived.is_empty(), "0/0 must not divide");
    }
}
