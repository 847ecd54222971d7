//! Central registry of every observability name in the workspace.
//!
//! Every metric, gauge, histogram, span, I/O component, `sys` table and
//! cost-model drift gauge name used anywhere in the engine is declared
//! here, once, as a [`Name`] constant, and only this module can make a
//! `Name`. The obs APIs that take a name take a `Name`, so a name that is
//! not registered here — a typo in one layer that would silently break
//! the EXPLAIN-ANALYZE join or leave a gauge nobody reads — does not
//! compile. Runtime labels (`Profile::mark`, `Span::child`: access paths
//! and projections are named at run time) stay strings.
//!
//! A cost-model prediction records its drift under the gauge [`drift`]
//! maps its metric to; the query layer's tests check that the metrics
//! `fieldrep_costmodel::conformance::DRIFT_METRICS` lists and the
//! `costmodel.drift.*` gauges here are the same set.

use std::fmt;

/// A registered observability name: one of the constants of this module.
///
/// ```
/// use fieldrep_obs::{names, registry};
/// registry().counter(names::TXN_BEGIN).inc();
/// ```
///
/// ```compile_fail,E0308
/// use fieldrep_obs::registry;
/// registry().counter("txn.begn").inc(); // a literal is not a name
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Name(&'static str);

impl Name {
    /// The name as text.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.0.to_string()
    }
}

// --- storage: disk counters -----------------------------------------------

/// Pages read from disk (counter).
pub const STORAGE_DISK_READS: Name = Name("storage.disk.reads");
/// Pages written to disk (counter).
pub const STORAGE_DISK_WRITES: Name = Name("storage.disk.writes");
/// Pages allocated on disk (counter).
pub const STORAGE_DISK_ALLOCS: Name = Name("storage.disk.allocs");
/// Pages per grouped disk read (histogram).
pub const STORAGE_DISK_BATCH_LEN: Name = Name("storage.disk.batch_len");

// --- storage: buffer pool -------------------------------------------------

/// Buffer-pool hits (counter).
pub const STORAGE_POOL_HITS: Name = Name("storage.pool.hits");
/// Buffer-pool misses (counter).
pub const STORAGE_POOL_MISSES: Name = Name("storage.pool.misses");
/// Buffer-pool frame evictions with write-back (counter).
pub const STORAGE_POOL_EVICTIONS: Name = Name("storage.pool.evictions");
/// hits / (hits + misses), derived at snapshot time.
pub const STORAGE_POOL_HIT_RATE: Name = Name("storage.pool.hit_rate");

// --- storage: write-ahead log and checksums ---------------------------------

/// WAL records appended (counter).
pub const WAL_APPENDS: Name = Name("wal.appends");
/// WAL fsync barriers issued (counter).
pub const WAL_FSYNCS: Name = Name("wal.fsyncs");
/// Bytes appended to the WAL (counter).
pub const WAL_BYTES: Name = Name("wal.bytes");
/// Commits that found their LSN already durable thanks to another
/// transaction's fsync — the group-commit win (counter).
pub const WAL_GROUP_COMMIT_COALESCED: Name = Name("wal.group_commit.coalesced");
/// Page images replayed by crash recovery (counter).
pub const WAL_REPLAYED_PAGES: Name = Name("wal.replayed_pages");
/// Crash-recovery passes run at open (counter).
pub const WAL_RECOVERIES: Name = Name("wal.recoveries");
/// Pages whose CRC32 failed verification on read (counter).
pub const STORAGE_CHECKSUM_FAILURES: Name = Name("storage.checksum.failures");

// --- btree ----------------------------------------------------------------

/// Leaf/internal node splits (counter).
pub const BTREE_SPLITS: Name = Name("btree.splits");
/// Span: single-key insert.
pub const BTREE_INSERT: Name = Name("btree.insert");
/// Span: single-key lookup.
pub const BTREE_LOOKUP: Name = Name("btree.lookup");
/// Span: range scan.
pub const BTREE_RANGE: Name = Name("btree.range");
/// Span: bulk load.
pub const BTREE_BULK_LOAD: Name = Name("btree.bulk_load");

// --- core: replica propagation --------------------------------------------

/// Span, I/O component, and profile operator: one propagation round.
pub const CORE_PROPAGATE: Name = Name("core.propagate");
/// In-place propagations (counter) and the per-strategy span.
pub const CORE_PROPAGATE_INPLACE: Name = Name("core.propagate.inplace");
/// Separate propagations (counter) and the per-strategy span.
pub const CORE_PROPAGATE_SEPARATE: Name = Name("core.propagate.separate");
/// Deferred propagations queued (counter).
pub const CORE_PROPAGATE_DEFERRED: Name = Name("core.propagate.deferred");
/// Span: intermediate-hop maintenance.
pub const CORE_PROPAGATE_INTERMEDIATE: Name = Name("core.propagate.intermediate");
/// Terminal-update fan-out (histogram).
pub const CORE_PROPAGATE_FANOUT: Name = Name("core.propagate.fanout");
/// Distinct pages touched per fan-out (histogram).
pub const CORE_PROPAGATE_PAGES_PER_FANOUT: Name = Name("core.propagate.pages_per_fanout");

// --- obs: flight recorder and slow-query log self-metrics ------------------

/// Events recorded into the flight-recorder ring (counter).
pub const OBS_RECORDER_EVENTS: Name = Name("obs.recorder.events");
/// Ring-buffer events overwritten before being dumped (counter).
pub const OBS_RECORDER_DROPPED: Name = Name("obs.recorder.dropped");
/// Flight-recorder JSONL dumps produced (counter).
pub const OBS_RECORDER_DUMPS: Name = Name("obs.recorder.dumps");
/// Engine errors recorded through the recorder's error hook (counter).
pub const OBS_RECORDER_ERRORS: Name = Name("obs.recorder.errors");
/// Flight-recorder dumps suppressed by the per-sink rate limit (counter).
pub const OBS_RECORDER_DUMPS_SUPPRESSED: Name = Name("obs.recorder.dumps_suppressed");
/// Statements recorded into the slow-query ring (counter).
pub const OBS_SLOWLOG_RECORDED: Name = Name("obs.slowlog.recorded");
/// Slow-query entries evicted from the bounded ring (counter).
pub const OBS_SLOWLOG_EVICTED: Name = Name("obs.slowlog.evicted");

// --- sys: virtual introspection tables --------------------------------------
//
// The `sys` catalog exposes the obs stack as queryable relations
// (`retrieve ... from sys.<table>`); `sys::TableDef` names its table by
// one of these.

/// Virtual table: registry counters/gauges/derived/histogram quantiles.
pub const SYS_METRICS: Name = Name("sys.metrics");
/// Virtual table: per-path workload statistics.
pub const SYS_WORKLOAD: Name = Name("sys.workload");
/// Virtual table: flight-recorder ring contents.
pub const SYS_RECORDER: Name = Name("sys.recorder");
/// Virtual table: buffer-pool state (one row).
pub const SYS_POOL: Name = Name("sys.pool");
/// Virtual table: cost-model drift gauges.
pub const SYS_DRIFT: Name = Name("sys.drift");
/// Virtual table: the slow-query ring.
pub const SYS_SLOW_QUERIES: Name = Name("sys.slow_queries");
/// Virtual table: transaction-manager state (active txns, commits,
/// conflicts, lock waits).
pub const SYS_TXN: Name = Name("sys.txn");
/// Virtual table: WAL state (LSNs, appends, fsyncs, group-commit
/// coalescing, recovery results).
pub const SYS_WAL: Name = Name("sys.wal");

// --- core: per-path workload statistics ------------------------------------

/// Path-read accesses observed by the workload registry (counter).
pub const CORE_WORKLOAD_READS: Name = Name("core.workload.reads");
/// Path-update propagations observed by the workload registry (counter).
pub const CORE_WORKLOAD_UPDATES: Name = Name("core.workload.updates");

// --- core: transactions -----------------------------------------------------

/// Transactions begun (counter).
pub const TXN_BEGIN: Name = Name("txn.begin");
/// Transactions committed (counter).
pub const TXN_COMMIT: Name = Name("txn.commit");
/// Transactions aborted (counter).
pub const TXN_ABORT: Name = Name("txn.abort");
/// Write commits whose lock closure changed while being acquired and had
/// to be re-acquired (counter).
pub const TXN_CONFLICT: Name = Name("txn.conflict");
/// OID-lock acquisitions that found the lock held and had to wait
/// (counter).
pub const TXN_LOCK_WAIT: Name = Name("txn.lock_wait");
/// Snapshot reads re-run because a writer raced them (counter).
pub const TXN_SNAPSHOT_RETRY: Name = Name("txn.snapshot_retry");
/// Currently active transactions (gauge).
pub const TXN_ACTIVE: Name = Name("txn.active");
/// OIDs write-locked per transactional update (histogram).
pub const TXN_LOCKSET: Name = Name("txn.lockset");

// --- query: spans and profile operators -----------------------------------

/// Span: whole read query.
pub const QUERY_READ: Name = Name("query.read");
/// Span: whole update query.
pub const QUERY_UPDATE: Name = Name("query.update");
/// Span: projection phase.
pub const QUERY_PROJECT: Name = Name("query.project");
/// Profile operator: planning.
pub const OP_PLAN: Name = Name("plan");
/// Profile operator: deferred-propagation sync before reads.
pub const OP_SYNC: Name = Name("sync");
/// Profile operator: source-object fetch.
pub const OP_FETCH: Name = Name("fetch");
/// Profile operator: spooling the output file T.
pub const OP_SPOOL: Name = Name("spool");
/// Profile operator: applying update assignments.
pub const OP_APPLY: Name = Name("apply");
/// Profile operator: access-path prediction key (measured operators are
/// `access:<detail>`, matched by prefix).
pub const OP_ACCESS: Name = Name("access");
/// Profile operator: residual segment closed by `Profile::finish`.
pub const OP_OTHER: Name = Name("other");

// --- costmodel: conformance -----------------------------------------------

/// EXPLAIN ANALYZE invocations that recorded drift (counter).
pub const COSTMODEL_CONFORMANCE_QUERIES: Name = Name("costmodel.conformance.queries");
/// Prefix of the per-operator drift gauge family below.
pub const COSTMODEL_DRIFT_PREFIX: &str = "costmodel.drift.";
/// Whole-query absolute drift (gauge).
pub const COSTMODEL_DRIFT_TOTAL: Name = Name("costmodel.drift.total");
/// Drift gauge: planner bookkeeping.
pub const COSTMODEL_DRIFT_PLAN: Name = Name("costmodel.drift.plan");
/// Drift gauge: access path.
pub const COSTMODEL_DRIFT_ACCESS: Name = Name("costmodel.drift.access");
/// Drift gauge: deferred-propagation sync.
pub const COSTMODEL_DRIFT_SYNC: Name = Name("costmodel.drift.sync");
/// Drift gauge: source-object fetch.
pub const COSTMODEL_DRIFT_FETCH: Name = Name("costmodel.drift.fetch");
/// Drift gauge: base-field projection.
pub const COSTMODEL_DRIFT_PROJ_BASE_FIELD: Name = Name("costmodel.drift.proj.base-field");
/// Drift gauge: in-place replica projection.
pub const COSTMODEL_DRIFT_PROJ_INPLACE_REPLICA: Name = Name("costmodel.drift.proj.inplace-replica");
/// Drift gauge: separate replica projection.
pub const COSTMODEL_DRIFT_PROJ_SEPARATE_REPLICA: Name =
    Name("costmodel.drift.proj.separate-replica");
/// Drift gauge: functional-join projection.
pub const COSTMODEL_DRIFT_PROJ_FUNCTIONAL_JOIN: Name = Name("costmodel.drift.proj.functional-join");
/// Drift gauge: collapsed-path projection.
pub const COSTMODEL_DRIFT_PROJ_COLLAPSE: Name = Name("costmodel.drift.proj.collapse");
/// Drift gauge: output spool.
pub const COSTMODEL_DRIFT_SPOOL: Name = Name("costmodel.drift.spool");
/// Drift gauge: update apply loop.
pub const COSTMODEL_DRIFT_APPLY: Name = Name("costmodel.drift.apply");
/// Drift gauge: replica propagation.
pub const COSTMODEL_DRIFT_PROPAGATE: Name = Name("costmodel.drift.propagate");

/// The registered drift gauge that records conformance metric `suffix`
/// (`"fetch"` → [`COSTMODEL_DRIFT_FETCH`]), if there is one. The query
/// layer's tests check that every metric
/// `fieldrep_costmodel::conformance::DRIFT_METRICS` lists has one.
pub fn drift(suffix: &str) -> Option<Name> {
    ALL.iter()
        .copied()
        .find(|n| n.strip_prefix(COSTMODEL_DRIFT_PREFIX) == Some(suffix))
}

/// Every registered name, for exhaustiveness checks.
pub const ALL: &[Name] = &[
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

/// Is `name` the text of a registered name?
pub fn is_registered(name: &str) -> bool {
    ALL.iter().any(|n| n.0 == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let set: HashSet<Name> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate entry in names::ALL");
    }

    #[test]
    fn drift_gauges_use_the_registered_prefix() {
        let drift: Vec<Name> = ALL
            .iter()
            .copied()
            .filter(|n| n.starts_with(COSTMODEL_DRIFT_PREFIX))
            .collect();
        assert!(drift.contains(&COSTMODEL_DRIFT_TOTAL));
        assert!(drift.iter().all(|n| n.len() > COSTMODEL_DRIFT_PREFIX.len()));
        assert_eq!(super::drift("fetch"), Some(COSTMODEL_DRIFT_FETCH));
        assert_eq!(
            super::drift("proj.collapse"),
            Some(COSTMODEL_DRIFT_PROJ_COLLAPSE)
        );
        assert_eq!(super::drift("bogus"), None);
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
            assert!(is_registered(&t), "{t} missing from ALL");
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
