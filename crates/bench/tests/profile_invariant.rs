//! End-to-end invariant: the per-operator I/O attribution produced by
//! the executor's [`Profile`] must sum *exactly* to the raw buffer-pool
//! counters over the same window, for read and update queries alike,
//! under every replication strategy — and so must the diff of two
//! snapshots of the registry's process-wide `storage.*` mirrors.
//!
//! This is the property that makes `repro trace --profile` trustworthy:
//! no page read or write escapes attribution, and none is counted
//! twice.
//!
//! The registry is process-wide, so every test here takes [`serial`]:
//! no other query may move the mirrors inside a measured window.

use fieldrep_bench::{
    build_workload, io_counts_of, profile_read_query, profile_update_query, read_query,
    update_query, ProfiledRun, WorkloadSpec,
};
use fieldrep_catalog::Strategy;
use fieldrep_costmodel::IndexSetting;
use fieldrep_obs::{names, registry, IoCounts};
use std::sync::{Mutex, MutexGuard, PoisonError};

const STRATEGIES: [Option<Strategy>; 3] = [None, Some(Strategy::InPlace), Some(Strategy::Separate)];

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn check_invariant(run: &ProfiledRun) {
    let raw = io_counts_of(&run.raw);
    assert_eq!(
        run.profile.ops_io_sum(),
        raw,
        "{}: sum of per-operator I/O != raw pool counters",
        run.label
    );
    assert_eq!(
        run.profile.total_io, raw,
        "{}: profile total != raw pool counters",
        run.label
    );
    assert!(
        !raw.is_zero(),
        "{}: a cold-pool query must do some I/O",
        run.label
    );
}

#[test]
fn read_query_operator_io_sums_to_raw_totals() {
    let _serial = serial();
    for strat in STRATEGIES {
        let mut w =
            build_workload(WorkloadSpec::paper(10, IndexSetting::Unclustered, strat).scaled(500))
                .expect("build workload");
        let run = profile_read_query(&mut w, 3).expect("profiled read");
        assert!(run.rows > 0, "read returned rows");
        check_invariant(&run);
        // The profile must attribute I/O to real operators, not just
        // lump everything into the residual.
        assert!(
            run.profile
                .ops
                .iter()
                .any(|op| { op.name.starts_with("access:") && !op.io.is_zero() }),
            "access operator should carry I/O"
        );
    }
}

#[test]
fn update_query_operator_io_sums_to_raw_totals() {
    let _serial = serial();
    for strat in STRATEGIES {
        let mut w =
            build_workload(WorkloadSpec::paper(10, IndexSetting::Unclustered, strat).scaled(500))
                .expect("build workload");
        let run = profile_update_query(&mut w, 3).expect("profiled update");
        assert!(run.rows > 0, "update touched objects");
        check_invariant(&run);
        if strat.is_some() {
            // Replication maintenance is carved out of "apply" into its
            // own operator; it must be present and must carry the
            // propagation fan-out I/O.
            let prop = run
                .profile
                .ops
                .iter()
                .find(|op| op.name == "core.propagate")
                .expect("update profile has a core.propagate operator");
            assert!(!prop.io.is_zero(), "propagation performs I/O");
        }
    }
}

#[test]
fn profiled_runs_capture_span_trees() {
    let _serial = serial();
    let mut w = build_workload(
        WorkloadSpec::paper(10, IndexSetting::Unclustered, Some(Strategy::InPlace)).scaled(500),
    )
    .expect("build workload");
    let read = profile_read_query(&mut w, 0).expect("profiled read");
    let root = read
        .spans
        .iter()
        .find(|s| s.name == "query.read")
        .expect("read run records a query.read root span");
    assert!(
        root.find("btree.range").is_some(),
        "access nests btree span"
    );
    assert_eq!(root.io, io_counts_of(&read.raw), "root span sees all I/O");

    let update = profile_update_query(&mut w, 0).expect("profiled update");
    let root = update
        .spans
        .iter()
        .find(|s| s.name == "query.update")
        .expect("update run records a query.update root span");
    assert!(
        root.find("core.propagate").is_some(),
        "update span tree includes propagation"
    );
}

#[test]
fn registry_storage_deltas_equal_raw_pool_totals() {
    let _serial = serial();
    let mut spec =
        WorkloadSpec::paper(2, IndexSetting::Unclustered, Some(Strategy::InPlace)).scaled(300);
    spec.read_sel = 0.02;
    spec.update_sel = 0.02;
    let mut w = build_workload(spec).expect("build workload");

    // The measured window is exactly [before, after]: the build has
    // settled and the pool's own counters start from zero.
    w.db.flush_all().unwrap();
    w.db.reset_profile();
    let before = registry().snapshot();

    let res = read_query(&w, 0).run(&mut w.db).expect("read query");
    assert!(!res.rows.is_empty(), "window must contain real work");
    let ur = update_query(&w, 0).run(&mut w.db).expect("update query");
    assert!(ur.updated > 0, "window must contain update ripples");
    w.db.flush_all().unwrap();

    let want = io_counts_of(&w.db.io_profile());
    let after = registry().snapshot();
    let delta = |name: names::Name| after.counter(name) - before.counter(name);
    let got = IoCounts {
        disk_reads: delta(names::STORAGE_DISK_READS),
        disk_writes: delta(names::STORAGE_DISK_WRITES),
        disk_allocs: delta(names::STORAGE_DISK_ALLOCS),
        pool_hits: delta(names::STORAGE_POOL_HITS),
        pool_misses: delta(names::STORAGE_POOL_MISSES),
        evictions: delta(names::STORAGE_POOL_EVICTIONS),
    };
    assert!(!want.is_zero(), "the window must have measured some I/O");
    assert_eq!(
        got, want,
        "registry storage.* deltas must equal the raw pool counters exactly"
    );

    if let Some(f) = res.output_file {
        w.db.sm().drop_file(f).ok();
    }
}
