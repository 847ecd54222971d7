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
//! parallel tests never pollute each other): one map behind one lock,
//! which a record holds for one lookup and one EWMA fold. Only two
//! totals reach the process-wide [`fieldrep_obs::metrics`] registry, the
//! `core.workload.reads` and `core.workload.updates` counters, since
//! counts add up across databases where per-database ratios would not.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use fieldrep_obs::metrics::{registry, Counter};
use fieldrep_obs::names::{CORE_WORKLOAD_READS, CORE_WORKLOAD_UPDATES};
use parking_lot::Mutex;

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

/// The `core.workload.{reads,updates}` counters, looked up once.
fn counters() -> &'static [Arc<Counter>; 2] {
    static COUNTERS: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    let names = [CORE_WORKLOAD_READS, CORE_WORKLOAD_UPDATES];
    COUNTERS.get_or_init(|| names.map(|n| registry().counter(n)))
}

/// Live per-path workload registry; one per [`Database`](crate::Database).
///
/// A `BTreeMap` behind one mutex: a record holds it for one lookup and
/// one EWMA fold, and [`all`](Self::all) comes out sorted without a sort.
#[derive(Default)]
pub struct WorkloadStats {
    paths: Mutex<BTreeMap<String, PathWorkload>>,
}

impl WorkloadStats {
    /// Fresh, empty registry.
    pub fn new() -> WorkloadStats {
        WorkloadStats::default()
    }

    /// Run `f` on `path`'s entry under the lock, copying the key only
    /// the first time the path is seen.
    fn with_path(&self, path: &str, f: impl FnOnce(&mut PathWorkload)) {
        let mut map = self.paths.lock();
        match map.get_mut(path) {
            Some(w) => f(w),
            None => f(map.entry(path.to_string()).or_default()),
        }
    }

    /// Record `n` replicated reads through `path` that touched `pages`
    /// pages in total (the per-read EWMA sample is `pages / n`).
    pub fn record_read(&self, path: &str, n: u64, pages: u64) {
        if n == 0 {
            return;
        }
        let per_read = pages as f64 / n as f64;
        self.with_path(path, |w| {
            w.read_pages_ewma = ewma_fold(w.read_pages_ewma, w.reads > 0, per_read);
            w.reads += n;
        });
        counters()[0].add(n);
    }

    /// Record one update ripple through `path` that refreshed `fanout`
    /// sources and touched `pages` pages.
    pub fn record_update(&self, path: &str, fanout: u64, pages: u64) {
        self.with_path(path, |w| {
            let seeded = w.updates > 0;
            w.fanout_ewma = ewma_fold(w.fanout_ewma, seeded, fanout as f64);
            w.update_pages_ewma = ewma_fold(w.update_pages_ewma, seeded, pages as f64);
            w.updates += 1;
        });
        counters()[1].inc();
    }

    /// Observed workload for one path, if any access has been recorded.
    pub fn get(&self, path: &str) -> Option<PathWorkload> {
        self.paths.lock().get(path).cloned()
    }

    /// All observed paths with their workloads, sorted by path expression.
    pub fn all(&self) -> Vec<(String, PathWorkload)> {
        let map = self.paths.lock();
        map.iter().map(|(k, w)| (k.clone(), w.clone())).collect()
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

    /// The registry must absorb concurrent recording on many paths
    /// without losing samples: exact counts per path, exact aggregate
    /// totals.
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
