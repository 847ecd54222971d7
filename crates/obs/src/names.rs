//! Central registry of every observability name in the workspace.
//!
//! Every metric, gauge, histogram, span, profile-operator, and I/O
//! component name used anywhere in the engine is declared here, once,
//! as a `pub const`. Call sites reference the constants instead of
//! repeating string literals, so the EXPLAIN-ANALYZE join (which matches
//! cost-model predictions to measured operators *by name*) and the
//! `costmodel.drift.*` gauge family can never silently miss because of a
//! typo in one layer.
//!
//! The contract is machine-checked: `fieldrep-lint` rule **L2** parses
//! this file, flags any string literal passed to an obs API elsewhere in
//! the workspace that is not registered here, and cross-checks
//! `fieldrep_costmodel::conformance::DRIFT_METRICS` against the
//! `costmodel.drift.*` entries below. Removing a constant that a call
//! site still uses fails compilation; adding a new name at a call site
//! without registering it fails `scripts/check.sh`.

// --- storage: disk counters -----------------------------------------------

/// Pages read from disk (counter).
pub const STORAGE_DISK_READS: &str = "storage.disk.reads";
/// Pages written to disk (counter).
pub const STORAGE_DISK_WRITES: &str = "storage.disk.writes";
/// Pages allocated on disk (counter).
pub const STORAGE_DISK_ALLOCS: &str = "storage.disk.allocs";
/// Pages per grouped disk read (histogram).
pub const STORAGE_DISK_BATCH_LEN: &str = "storage.disk.batch_len";

// --- storage: buffer pool -------------------------------------------------

/// Buffer-pool hits (counter).
pub const STORAGE_POOL_HITS: &str = "storage.pool.hits";
/// Buffer-pool misses (counter).
pub const STORAGE_POOL_MISSES: &str = "storage.pool.misses";
/// Buffer-pool frame evictions with write-back (counter).
pub const STORAGE_POOL_EVICTIONS: &str = "storage.pool.evictions";
/// hits / (hits + misses), derived at snapshot time.
pub const STORAGE_POOL_HIT_RATE: &str = "storage.pool.hit_rate";

// --- storage: write-ahead log and checksums ---------------------------------

/// WAL records appended (counter).
pub const WAL_APPENDS: &str = "wal.appends";
/// WAL fsync barriers issued (counter).
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Bytes appended to the WAL (counter).
pub const WAL_BYTES: &str = "wal.bytes";
/// Commits that found their LSN already durable thanks to another
/// transaction's fsync — the group-commit win (counter).
pub const WAL_GROUP_COMMIT_COALESCED: &str = "wal.group_commit.coalesced";
/// Page images replayed by crash recovery (counter).
pub const WAL_REPLAYED_PAGES: &str = "wal.replayed_pages";
/// Crash-recovery passes run at open (counter).
pub const WAL_RECOVERIES: &str = "wal.recoveries";
/// Pages whose CRC32 failed verification on read (counter).
pub const STORAGE_CHECKSUM_FAILURES: &str = "storage.checksum.failures";

// --- btree ----------------------------------------------------------------

/// Leaf/internal node splits (counter).
pub const BTREE_SPLITS: &str = "btree.splits";
/// Span: single-key insert.
pub const BTREE_INSERT: &str = "btree.insert";
/// Span: single-key lookup.
pub const BTREE_LOOKUP: &str = "btree.lookup";
/// Span: range scan.
pub const BTREE_RANGE: &str = "btree.range";
/// Span: bulk load.
pub const BTREE_BULK_LOAD: &str = "btree.bulk_load";

// --- core: replica propagation --------------------------------------------

/// Span, I/O component, and profile operator: one propagation round.
pub const CORE_PROPAGATE: &str = "core.propagate";
/// In-place propagations (counter) and the per-strategy span.
pub const CORE_PROPAGATE_INPLACE: &str = "core.propagate.inplace";
/// Separate propagations (counter) and the per-strategy span.
pub const CORE_PROPAGATE_SEPARATE: &str = "core.propagate.separate";
/// Deferred propagations queued (counter).
pub const CORE_PROPAGATE_DEFERRED: &str = "core.propagate.deferred";
/// Span: intermediate-hop maintenance.
pub const CORE_PROPAGATE_INTERMEDIATE: &str = "core.propagate.intermediate";
/// Terminal-update fan-out (histogram).
pub const CORE_PROPAGATE_FANOUT: &str = "core.propagate.fanout";
/// Distinct pages touched per fan-out (histogram).
pub const CORE_PROPAGATE_PAGES_PER_FANOUT: &str = "core.propagate.pages_per_fanout";

// --- obs: flight recorder and slow-query log self-metrics ------------------

/// Events recorded into the flight-recorder ring (counter).
pub const OBS_RECORDER_EVENTS: &str = "obs.recorder.events";
/// Ring-buffer events overwritten before being dumped (counter).
pub const OBS_RECORDER_DROPPED: &str = "obs.recorder.dropped";
/// Flight-recorder JSONL dumps produced (counter).
pub const OBS_RECORDER_DUMPS: &str = "obs.recorder.dumps";
/// Engine errors recorded through the recorder's error hook (counter).
pub const OBS_RECORDER_ERRORS: &str = "obs.recorder.errors";
/// Flight-recorder dumps suppressed by the per-sink rate limit (counter).
pub const OBS_RECORDER_DUMPS_SUPPRESSED: &str = "obs.recorder.dumps_suppressed";
/// Statements recorded into the slow-query ring (counter).
pub const OBS_SLOWLOG_RECORDED: &str = "obs.slowlog.recorded";
/// Slow-query entries evicted from the bounded ring (counter).
pub const OBS_SLOWLOG_EVICTED: &str = "obs.slowlog.evicted";

// --- sys: virtual introspection tables --------------------------------------
//
// The `sys` catalog exposes the obs stack as queryable relations
// (`retrieve ... from sys.<table>`). Table names are registered here so
// lint rule L2 can flag a `sys.*` literal that drifts from the catalog.

/// Virtual table: registry counters/gauges/derived/histogram quantiles.
pub const SYS_METRICS: &str = "sys.metrics";
/// Virtual table: per-path workload statistics.
pub const SYS_WORKLOAD: &str = "sys.workload";
/// Virtual table: flight-recorder ring contents.
pub const SYS_RECORDER: &str = "sys.recorder";
/// Virtual table: buffer-pool state (one row).
pub const SYS_POOL: &str = "sys.pool";
/// Virtual table: cost-model drift gauges.
pub const SYS_DRIFT: &str = "sys.drift";
/// Virtual table: the slow-query ring.
pub const SYS_SLOW_QUERIES: &str = "sys.slow_queries";
/// Virtual table: transaction-manager state (active txns, commits,
/// conflicts, lock waits).
pub const SYS_TXN: &str = "sys.txn";
/// Virtual table: WAL state (LSNs, appends, fsyncs, group-commit
/// coalescing, recovery results).
pub const SYS_WAL: &str = "sys.wal";

// --- core: per-path workload statistics ------------------------------------

/// Path-read accesses observed by the workload registry (counter).
pub const CORE_WORKLOAD_READS: &str = "core.workload.reads";
/// Path-update propagations observed by the workload registry (counter).
pub const CORE_WORKLOAD_UPDATES: &str = "core.workload.updates";
/// Distinct replication paths with observed traffic (gauge).
pub const CORE_WORKLOAD_PATHS: &str = "core.workload.paths";
/// Observed update probability across paths, in permille (gauge).
pub const CORE_WORKLOAD_P_UP_PERMILLE: &str = "core.workload.p_up_permille";
/// Observed propagation fan-out EWMA across paths, ×100 (gauge).
pub const CORE_WORKLOAD_FANOUT_X100: &str = "core.workload.fanout_x100";
/// Observed page touches per path read, EWMA ×100 (gauge).
pub const CORE_WORKLOAD_READ_PAGES_X100: &str = "core.workload.read_pages_x100";
/// Observed page touches per path update, EWMA ×100 (gauge).
pub const CORE_WORKLOAD_UPDATE_PAGES_X100: &str = "core.workload.update_pages_x100";

// --- core: transactions -----------------------------------------------------

/// Transactions begun (counter).
pub const TXN_BEGIN: &str = "txn.begin";
/// Transactions committed (counter).
pub const TXN_COMMIT: &str = "txn.commit";
/// Transactions aborted (counter).
pub const TXN_ABORT: &str = "txn.abort";
/// Write commits whose lock closure changed while being acquired and had
/// to be re-acquired (counter).
pub const TXN_CONFLICT: &str = "txn.conflict";
/// OID-lock acquisitions that found the lock held and had to wait
/// (counter).
pub const TXN_LOCK_WAIT: &str = "txn.lock_wait";
/// Snapshot reads re-run because a writer raced them (counter).
pub const TXN_SNAPSHOT_RETRY: &str = "txn.snapshot_retry";
/// Currently active transactions (gauge).
pub const TXN_ACTIVE: &str = "txn.active";
/// OIDs write-locked per transactional update (histogram).
pub const TXN_LOCKSET: &str = "txn.lockset";

// --- query: spans and profile operators -----------------------------------

/// Span: whole read query.
pub const QUERY_READ: &str = "query.read";
/// Span: whole update query.
pub const QUERY_UPDATE: &str = "query.update";
/// Span: projection phase.
pub const QUERY_PROJECT: &str = "query.project";
/// Profile operator: planning.
pub const OP_PLAN: &str = "plan";
/// Profile operator: deferred-propagation sync before reads.
pub const OP_SYNC: &str = "sync";
/// Profile operator: source-object fetch.
pub const OP_FETCH: &str = "fetch";
/// Profile operator: spooling the output file T.
pub const OP_SPOOL: &str = "spool";
/// Profile operator: applying update assignments.
pub const OP_APPLY: &str = "apply";
/// Profile operator: access-path prediction key (measured operators are
/// `access:<detail>`, matched by prefix).
pub const OP_ACCESS: &str = "access";
/// Profile operator: residual segment closed by `Profile::finish`.
pub const OP_OTHER: &str = "other";

// --- costmodel: conformance -----------------------------------------------

/// EXPLAIN ANALYZE invocations that recorded drift (counter).
pub const COSTMODEL_CONFORMANCE_QUERIES: &str = "costmodel.conformance.queries";
/// Prefix of the per-operator drift gauge family; suffixes come from
/// `fieldrep_costmodel::conformance::DRIFT_METRICS`.
pub const COSTMODEL_DRIFT_PREFIX: &str = "costmodel.drift.";
/// Whole-query absolute drift (gauge).
pub const COSTMODEL_DRIFT_TOTAL: &str = "costmodel.drift.total";
/// Drift gauge: planner bookkeeping.
pub const COSTMODEL_DRIFT_PLAN: &str = "costmodel.drift.plan";
/// Drift gauge: access path.
pub const COSTMODEL_DRIFT_ACCESS: &str = "costmodel.drift.access";
/// Drift gauge: deferred-propagation sync.
pub const COSTMODEL_DRIFT_SYNC: &str = "costmodel.drift.sync";
/// Drift gauge: source-object fetch.
pub const COSTMODEL_DRIFT_FETCH: &str = "costmodel.drift.fetch";
/// Drift gauge: base-field projection.
pub const COSTMODEL_DRIFT_PROJ_BASE_FIELD: &str = "costmodel.drift.proj.base-field";
/// Drift gauge: in-place replica projection.
pub const COSTMODEL_DRIFT_PROJ_INPLACE_REPLICA: &str = "costmodel.drift.proj.inplace-replica";
/// Drift gauge: separate replica projection.
pub const COSTMODEL_DRIFT_PROJ_SEPARATE_REPLICA: &str = "costmodel.drift.proj.separate-replica";
/// Drift gauge: functional-join projection.
pub const COSTMODEL_DRIFT_PROJ_FUNCTIONAL_JOIN: &str = "costmodel.drift.proj.functional-join";
/// Drift gauge: collapsed-path projection.
pub const COSTMODEL_DRIFT_PROJ_COLLAPSE: &str = "costmodel.drift.proj.collapse";
/// Drift gauge: output spool.
pub const COSTMODEL_DRIFT_SPOOL: &str = "costmodel.drift.spool";
/// Drift gauge: update apply loop.
pub const COSTMODEL_DRIFT_APPLY: &str = "costmodel.drift.apply";
/// Drift gauge: replica propagation.
pub const COSTMODEL_DRIFT_PROPAGATE: &str = "costmodel.drift.propagate";

/// The drift gauge name for a conformance metric suffix, e.g.
/// `drift_gauge("fetch")` → `"costmodel.drift.fetch"`. Call sites build
/// dynamic gauge names through this helper so the prefix stays tied to
/// the registered family.
pub fn drift_gauge(suffix: &str) -> String {
    format!("{COSTMODEL_DRIFT_PREFIX}{suffix}")
}

/// Every registered name, for exhaustiveness checks and the lint's
/// self-tests.
pub const ALL: &[&str] = &[
    STORAGE_DISK_READS,
    STORAGE_DISK_WRITES,
    STORAGE_DISK_ALLOCS,
    STORAGE_DISK_BATCH_LEN,
    STORAGE_POOL_HITS,
    STORAGE_POOL_MISSES,
    STORAGE_POOL_EVICTIONS,
    STORAGE_POOL_HIT_RATE,
    WAL_APPENDS,
    WAL_FSYNCS,
    WAL_BYTES,
    WAL_GROUP_COMMIT_COALESCED,
    WAL_REPLAYED_PAGES,
    WAL_RECOVERIES,
    STORAGE_CHECKSUM_FAILURES,
    BTREE_SPLITS,
    BTREE_INSERT,
    BTREE_LOOKUP,
    BTREE_RANGE,
    BTREE_BULK_LOAD,
    CORE_PROPAGATE,
    CORE_PROPAGATE_INPLACE,
    CORE_PROPAGATE_SEPARATE,
    CORE_PROPAGATE_DEFERRED,
    CORE_PROPAGATE_INTERMEDIATE,
    CORE_PROPAGATE_FANOUT,
    CORE_PROPAGATE_PAGES_PER_FANOUT,
    OBS_RECORDER_EVENTS,
    OBS_RECORDER_DROPPED,
    OBS_RECORDER_DUMPS,
    OBS_RECORDER_DUMPS_SUPPRESSED,
    OBS_RECORDER_ERRORS,
    OBS_SLOWLOG_RECORDED,
    OBS_SLOWLOG_EVICTED,
    SYS_METRICS,
    SYS_WORKLOAD,
    SYS_RECORDER,
    SYS_POOL,
    SYS_DRIFT,
    SYS_SLOW_QUERIES,
    SYS_TXN,
    SYS_WAL,
    TXN_BEGIN,
    TXN_COMMIT,
    TXN_ABORT,
    TXN_CONFLICT,
    TXN_LOCK_WAIT,
    TXN_SNAPSHOT_RETRY,
    TXN_ACTIVE,
    TXN_LOCKSET,
    CORE_WORKLOAD_READS,
    CORE_WORKLOAD_UPDATES,
    CORE_WORKLOAD_PATHS,
    CORE_WORKLOAD_P_UP_PERMILLE,
    CORE_WORKLOAD_FANOUT_X100,
    CORE_WORKLOAD_READ_PAGES_X100,
    CORE_WORKLOAD_UPDATE_PAGES_X100,
    QUERY_READ,
    QUERY_UPDATE,
    QUERY_PROJECT,
    OP_PLAN,
    OP_SYNC,
    OP_FETCH,
    OP_SPOOL,
    OP_APPLY,
    OP_ACCESS,
    OP_OTHER,
    COSTMODEL_CONFORMANCE_QUERIES,
    COSTMODEL_DRIFT_TOTAL,
    COSTMODEL_DRIFT_PLAN,
    COSTMODEL_DRIFT_ACCESS,
    COSTMODEL_DRIFT_SYNC,
    COSTMODEL_DRIFT_FETCH,
    COSTMODEL_DRIFT_PROJ_BASE_FIELD,
    COSTMODEL_DRIFT_PROJ_INPLACE_REPLICA,
    COSTMODEL_DRIFT_PROJ_SEPARATE_REPLICA,
    COSTMODEL_DRIFT_PROJ_FUNCTIONAL_JOIN,
    COSTMODEL_DRIFT_PROJ_COLLAPSE,
    COSTMODEL_DRIFT_SPOOL,
    COSTMODEL_DRIFT_APPLY,
    COSTMODEL_DRIFT_PROPAGATE,
];

/// Is `name` registered? Exact entries match directly; names under the
/// drift prefix match when their suffix's gauge is registered.
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let set: HashSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate entry in names::ALL");
    }

    #[test]
    fn drift_gauges_use_the_registered_prefix() {
        assert_eq!(drift_gauge("fetch"), COSTMODEL_DRIFT_FETCH);
        assert_eq!(drift_gauge("proj.collapse"), COSTMODEL_DRIFT_PROJ_COLLAPSE);
        for n in ALL {
            if let Some(suffix) = n.strip_prefix(COSTMODEL_DRIFT_PREFIX) {
                assert_eq!(drift_gauge(suffix), *n);
            }
        }
    }

    #[test]
    fn sys_tables_are_registered() {
        for t in [
            SYS_METRICS,
            SYS_WORKLOAD,
            SYS_RECORDER,
            SYS_POOL,
            SYS_DRIFT,
            SYS_SLOW_QUERIES,
            SYS_TXN,
            SYS_WAL,
        ] {
            assert!(is_registered(t), "{t} missing from ALL");
            assert!(t.starts_with("sys."), "{t} must live under sys.");
        }
        assert!(!is_registered("sys.bogus"));
    }

    #[test]
    fn is_registered_matches_the_table() {
        assert!(is_registered("storage.pool.hits"));
        assert!(is_registered("costmodel.drift.proj.base-field"));
        assert!(!is_registered("storage.pool.hit"));
        assert!(!is_registered(""));
    }
}
