//! Per-path observed workload statistics.
//!
//! The cost model (§6) is parameterised by an *assumed* workload: update
//! probability `P_up`, fan-out `f`, and per-operation page counts. This
//! module maintains the *observed* counterparts, keyed by replication
//! path expression: every replicated read and every propagation ripple
//! records itself here, so `EXPLAIN ANALYZE` and `show stats` can put
//! the live workload next to the model's assumptions.
//!
//! The registry is per-[`Database`](crate::Database) (no global state —
//! parallel tests never pollute each other) but mirrors aggregate totals
//! into the process-wide [`fieldrep_obs::metrics`] registry under the
//! `core.workload.*` names, so `sys.metrics` and the JSONL metrics
//! export show workload movement alongside the storage counters.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fieldrep_obs::metrics::{registry, Counter, Gauge};
use fieldrep_obs::names as obs_names;
use parking_lot::RwLock;

/// Smoothing factor for the per-path EWMAs: each new sample contributes
/// 20%, history 80% — enough memory to ride out one odd ripple, fresh
/// enough to track a workload shift within a handful of operations.
pub const EWMA_ALPHA: f64 = 0.2;

/// Observed statistics for one replication path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathWorkload {
    /// Replicated-value reads served through this path.
    pub reads: u64,
    /// Update ripples propagated through this path.
    pub updates: u64,
    /// EWMA of the propagation fan-out (sources refreshed per ripple).
    pub fanout_ewma: f64,
    /// EWMA of pages touched per replicated read.
    pub read_pages_ewma: f64,
    /// EWMA of pages touched per update ripple.
    pub update_pages_ewma: f64,
}

impl PathWorkload {
    /// Total accesses (reads + updates) observed on this path.
    pub fn accesses(&self) -> u64 {
        self.reads + self.updates
    }

    /// Observed update probability: updates / (reads + updates).
    /// `0.0` before any access has been recorded.
    pub fn p_up(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.updates as f64 / total as f64
        }
    }
}

/// Fold `sample` into `ewma`, seeding on the first observation.
fn ewma_fold(ewma: f64, seeded: bool, sample: f64) -> f64 {
    if seeded {
        EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * ewma
    } else {
        sample
    }
}

/// Aggregate `core.workload.*` mirrors in the global metrics registry.
struct Mirror {
    reads: Arc<Counter>,
    updates: Arc<Counter>,
    paths: Arc<Gauge>,
    p_up_permille: Arc<Gauge>,
    fanout_x100: Arc<Gauge>,
    read_pages_x100: Arc<Gauge>,
    update_pages_x100: Arc<Gauge>,
}

fn mirror() -> &'static Mirror {
    static MIRROR: OnceLock<Mirror> = OnceLock::new();
    MIRROR.get_or_init(|| {
        let r = registry();
        Mirror {
            reads: r.counter(obs_names::CORE_WORKLOAD_READS),
            updates: r.counter(obs_names::CORE_WORKLOAD_UPDATES),
            paths: r.gauge(obs_names::CORE_WORKLOAD_PATHS),
            p_up_permille: r.gauge(obs_names::CORE_WORKLOAD_P_UP_PERMILLE),
            fanout_x100: r.gauge(obs_names::CORE_WORKLOAD_FANOUT_X100),
            read_pages_x100: r.gauge(obs_names::CORE_WORKLOAD_READ_PAGES_X100),
            update_pages_x100: r.gauge(obs_names::CORE_WORKLOAD_UPDATE_PAGES_X100),
        }
    })
}

/// Shards in the per-path registry. Paths hash to a shard; recording
/// sites only contend when two threads hit paths in the same shard.
const WORKLOAD_SHARDS: usize = 16;

/// Add `delta` to an `f64` stored as bits in an atomic (CAS loop).
fn atomic_f64_add(a: &AtomicU64, delta: f64) {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + delta).to_bits();
        match a.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_get(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

/// Live per-path workload registry; one per [`Database`](crate::Database).
///
/// The path map is split into [`WORKLOAD_SHARDS`] hash-selected shards,
/// each behind its own read-write lock, and the aggregate totals the
/// `core.workload.*` gauges mirror are maintained **incrementally** in
/// atomics: a recording site locks exactly one shard, folds its sample
/// into that path's EWMAs, and publishes the aggregate delta without
/// touching (or even reading) any other path. The previous design — one
/// pool-wide lock plus a full-map walk per sample to recompute the
/// gauges — serialized every recording site; under the multi-threaded
/// bench that made telemetry the bottleneck rather than the engine.
pub struct WorkloadStats {
    shards: [RwLock<HashMap<String, PathWorkload>>; WORKLOAD_SHARDS],
    /// Distinct paths across all shards.
    path_count: AtomicU64,
    /// Σ reads across paths.
    reads: AtomicU64,
    /// Σ updates across paths.
    updates: AtomicU64,
    /// f64 bits: Σ fanout_ewma · updates across paths.
    fanout_w: AtomicU64,
    /// f64 bits: Σ read_pages_ewma · reads across paths.
    read_pages_w: AtomicU64,
    /// f64 bits: Σ update_pages_ewma · updates across paths.
    update_pages_w: AtomicU64,
}

impl Default for WorkloadStats {
    fn default() -> Self {
        WorkloadStats {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            path_count: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            fanout_w: AtomicU64::new(f64::to_bits(0.0)),
            read_pages_w: AtomicU64::new(f64::to_bits(0.0)),
            update_pages_w: AtomicU64::new(f64::to_bits(0.0)),
        }
    }
}

impl WorkloadStats {
    /// Fresh, empty registry.
    pub fn new() -> WorkloadStats {
        WorkloadStats::default()
    }

    fn shard(&self, path: &str) -> &RwLock<HashMap<String, PathWorkload>> {
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        &self.shards[(h.finish() as usize) % WORKLOAD_SHARDS]
    }

    /// Record `n` replicated reads through `path` that touched `pages`
    /// pages in total (the per-read EWMA sample is `pages / n`).
    pub fn record_read(&self, path: &str, n: u64, pages: u64) {
        if n == 0 {
            return;
        }
        let per_read = pages as f64 / n as f64;
        let delta = {
            let mut map = self.shard(path).write();
            let is_new = !map.contains_key(path);
            // The key is copied only the first time a path is seen.
            let w = match map.get_mut(path) {
                Some(w) => w,
                None => map.entry(path.to_string()).or_default(),
            };
            let old_w = w.read_pages_ewma * w.reads as f64;
            let seeded = w.reads > 0;
            w.read_pages_ewma = ewma_fold(w.read_pages_ewma, seeded, per_read);
            w.reads += n;
            if is_new {
                self.path_count.fetch_add(1, Ordering::Relaxed);
            }
            w.read_pages_ewma * w.reads as f64 - old_w
        };
        self.reads.fetch_add(n, Ordering::Relaxed);
        atomic_f64_add(&self.read_pages_w, delta);
        self.refresh_gauges();
        mirror().reads.add(n);
    }

    /// Record one update ripple through `path` that refreshed `fanout`
    /// sources and touched `pages` pages.
    pub fn record_update(&self, path: &str, fanout: u64, pages: u64) {
        let (fanout_delta, pages_delta) = {
            let mut map = self.shard(path).write();
            let is_new = !map.contains_key(path);
            // As in `record_read`: the key is copied on first sight only.
            let w = match map.get_mut(path) {
                Some(w) => w,
                None => map.entry(path.to_string()).or_default(),
            };
            let old_fanout_w = w.fanout_ewma * w.updates as f64;
            let old_pages_w = w.update_pages_ewma * w.updates as f64;
            let seeded = w.updates > 0;
            w.fanout_ewma = ewma_fold(w.fanout_ewma, seeded, fanout as f64);
            w.update_pages_ewma = ewma_fold(w.update_pages_ewma, seeded, pages as f64);
            w.updates += 1;
            if is_new {
                self.path_count.fetch_add(1, Ordering::Relaxed);
            }
            (
                w.fanout_ewma * w.updates as f64 - old_fanout_w,
                w.update_pages_ewma * w.updates as f64 - old_pages_w,
            )
        };
        self.updates.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.fanout_w, fanout_delta);
        atomic_f64_add(&self.update_pages_w, pages_delta);
        self.refresh_gauges();
        mirror().updates.inc();
    }

    /// Observed workload for one path, if any access has been recorded.
    pub fn get(&self, path: &str) -> Option<PathWorkload> {
        self.shard(path).read().get(path).cloned()
    }

    /// All observed paths with their workloads, sorted by path expression.
    pub fn all(&self) -> Vec<(String, PathWorkload)> {
        let mut v: Vec<(String, PathWorkload)> = Vec::new();
        for shard in &self.shards {
            v.extend(shard.read().iter().map(|(k, w)| (k.clone(), w.clone())));
        }
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Push aggregate values into the global `core.workload.*` gauges,
    /// from the incrementally maintained atomics — O(1), no shard locks.
    ///
    /// Ratios are fixed-point: `P_up` in permille, EWMAs ×100 — gauges
    /// are integers, and three significant digits is plenty for a
    /// dashboard line.
    fn refresh_gauges(&self) {
        let m = mirror();
        m.paths.set(self.path_count.load(Ordering::Relaxed) as i64);
        let reads = self.reads.load(Ordering::Relaxed);
        let updates = self.updates.load(Ordering::Relaxed);
        let total = reads + updates;
        if total > 0 {
            m.p_up_permille
                .set((1000.0 * updates as f64 / total as f64).round() as i64);
        }
        if updates > 0 {
            m.fanout_x100
                .set((100.0 * atomic_f64_get(&self.fanout_w) / updates as f64).round() as i64);
            m.update_pages_x100.set(
                (100.0 * atomic_f64_get(&self.update_pages_w) / updates as f64).round() as i64,
            );
        }
        if reads > 0 {
            m.read_pages_x100
                .set((100.0 * atomic_f64_get(&self.read_pages_w) / reads as f64).round() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_up_tracks_the_driven_mix() {
        let ws = WorkloadStats::new();
        for _ in 0..30 {
            ws.record_read("Emp.dept.name", 1, 2);
        }
        for _ in 0..10 {
            ws.record_update("Emp.dept.name", 4, 6);
        }
        let w = ws.get("Emp.dept.name").expect("path recorded");
        assert_eq!(w.reads, 30);
        assert_eq!(w.updates, 10);
        let p = w.p_up();
        assert!((p - 0.25).abs() < 1e-9, "p_up = {p}");
        assert_eq!(w.accesses(), 40);
    }

    #[test]
    fn ewmas_seed_on_first_sample_then_smooth() {
        let ws = WorkloadStats::new();
        ws.record_update("P", 10, 20);
        let w = ws.get("P").expect("recorded");
        assert_eq!(w.fanout_ewma, 10.0, "first sample seeds the EWMA");
        assert_eq!(w.update_pages_ewma, 20.0);
        ws.record_update("P", 20, 40);
        let w = ws.get("P").expect("recorded");
        assert!((w.fanout_ewma - 12.0).abs() < 1e-9, "0.2*20 + 0.8*10");
        assert!((w.update_pages_ewma - 24.0).abs() < 1e-9);
    }

    #[test]
    fn reads_average_pages_over_batch_size() {
        let ws = WorkloadStats::new();
        ws.record_read("P", 4, 8); // 2 pages per read
        let w = ws.get("P").expect("recorded");
        assert_eq!(w.reads, 4);
        assert_eq!(w.read_pages_ewma, 2.0);
        ws.record_read("P", 0, 99); // ignored
        assert_eq!(ws.get("P").expect("recorded").reads, 4);
    }

    /// The sharded registry must absorb concurrent recording on many
    /// paths without losing samples: exact counts per path, exact
    /// aggregate totals.
    #[test]
    fn concurrent_recording_loses_nothing() {
        let ws = std::sync::Arc::new(WorkloadStats::new());
        let paths: Vec<String> = (0..24).map(|i| format!("Set{i}.ref.field")).collect();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ws = std::sync::Arc::clone(&ws);
                let paths = paths.clone();
                std::thread::spawn(move || {
                    for round in 0..100 {
                        let p = &paths[(t * 5 + round) % paths.len()];
                        if round % 4 == 0 {
                            ws.record_update(p, 3, 5);
                        } else {
                            ws.record_read(p, 1, 2);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let all = ws.all();
        let reads: u64 = all.iter().map(|(_, w)| w.reads).sum();
        let updates: u64 = all.iter().map(|(_, w)| w.updates).sum();
        assert_eq!(updates, 8 * 25);
        assert_eq!(reads, 8 * 75);
        assert_eq!(all.len(), 24, "every path surfaced exactly once");
    }

    #[test]
    fn unknown_paths_and_sorting() {
        let ws = WorkloadStats::new();
        assert!(ws.get("nope").is_none());
        ws.record_read("B.x", 1, 1);
        ws.record_read("A.y", 1, 1);
        let all = ws.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "A.y");
        assert_eq!(all[1].0, "B.x");
    }
}
