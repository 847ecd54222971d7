//! Trace-driven workload execution: the §6 query mix run *literally*.
//!
//! The paper evaluates `C_total = (1−P_up)·C_read + P_up·C_update` by
//! combining per-query costs analytically. This module instead draws a
//! random interleaved trace of read and update queries with update
//! probability `P_up`, executes it against the engine, and reports the
//! measured average I/O per query — the same quantity, observed rather
//! than derived.

use crate::{measure_read_query, measure_update_query, read_rows, update_rows, Workload};
use fieldrep_query::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of executing a trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceResult {
    /// Queries executed.
    pub queries: usize,
    /// Read queries among them.
    pub reads: usize,
    /// Update queries among them.
    pub updates: usize,
    /// Total page I/O.
    pub total_io: u64,
}

impl TraceResult {
    /// Measured average I/O per query — the empirical `C_total`.
    pub fn c_total(&self) -> f64 {
        self.total_io as f64 / self.queries as f64
    }
}

/// Execute `n_queries` against the workload, each independently chosen to
/// be an update with probability `p_update`, at rotating key offsets.
/// Every query runs against a cold buffer pool (the paper's accounting).
pub fn run_trace(
    w: &mut Workload,
    p_update: f64,
    n_queries: usize,
    seed: u64,
) -> Result<TraceResult> {
    assert!((0.0..=1.0).contains(&p_update));
    let mut rng = StdRng::seed_from_u64(seed);
    let max_read_lo = (w.spec.r_count() as i64 - read_rows(w)).max(1);
    let max_update_lo = (w.spec.s_count as i64 - update_rows(w)).max(1);

    let mut result = TraceResult {
        queries: n_queries,
        reads: 0,
        updates: 0,
        total_io: 0,
    };
    for _ in 0..n_queries {
        if rng.gen_bool(p_update) {
            let lo = rng.gen_range(0..max_update_lo);
            result.total_io += measure_update_query(w, lo)?.total_io();
            result.updates += 1;
        } else {
            let lo = rng.gen_range(0..max_read_lo);
            result.total_io += measure_read_query(w, lo)?.total_io();
            result.reads += 1;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_workload, WorkloadSpec};
    use fieldrep_catalog::Strategy;
    use fieldrep_costmodel::IndexSetting;

    #[test]
    fn trace_mixes_reads_and_updates() {
        let spec =
            WorkloadSpec::paper(2, IndexSetting::Unclustered, Some(Strategy::InPlace)).scaled(400);
        let mut w = build_workload(spec).unwrap();
        let r = run_trace(&mut w, 0.5, 20, 42).unwrap();
        assert_eq!(r.queries, 20);
        assert_eq!(r.reads + r.updates, 20);
        assert!(r.reads > 0 && r.updates > 0);
        assert!(r.c_total() > 0.0);
    }

    #[test]
    fn pure_read_and_pure_update_traces() {
        let spec = WorkloadSpec::paper(2, IndexSetting::Unclustered, None).scaled(400);
        let mut w = build_workload(spec).unwrap();
        let reads = run_trace(&mut w, 0.0, 5, 1).unwrap();
        assert_eq!(reads.updates, 0);
        let updates = run_trace(&mut w, 1.0, 5, 1).unwrap();
        assert_eq!(updates.reads, 0);
    }

    #[test]
    fn trace_c_total_interpolates_between_endpoints() {
        let spec =
            WorkloadSpec::paper(4, IndexSetting::Unclustered, Some(Strategy::Separate)).scaled(500);
        let mut w = build_workload(spec).unwrap();
        let r0 = run_trace(&mut w, 0.0, 8, 7).unwrap().c_total();
        let r1 = run_trace(&mut w, 1.0, 8, 7).unwrap().c_total();
        let mid = run_trace(&mut w, 0.5, 16, 7).unwrap().c_total();
        let (lo, hi) = (r0.min(r1), r0.max(r1));
        assert!(
            mid >= lo * 0.8 && mid <= hi * 1.2,
            "mixed trace ({mid:.1}) should fall between pure traces ({lo:.1}, {hi:.1})"
        );
    }
}
