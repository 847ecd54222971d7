//! The `sys` catalog: the obs stack as queryable relations.
//!
//! Each virtual table is a [`TableDef`] (name + column list, both from
//! the central [`names`] registry) and a row builder that materialises a
//! point-in-time snapshot of the corresponding obs structure as
//! [`SysRow`]s. Row builders do **zero page I/O** — they only read
//! in-memory telemetry state — so the virtual-scan plan operator built
//! on top of them cannot perturb the profile invariant that operator I/O
//! sums to pool totals.
//!
//! Three tables (`sys.pool`, `sys.workload`, `sys.txn`) describe
//! per-database state the obs crate cannot see; their [`TableDef`]s live
//! here so the catalog is complete, but their rows are produced by the
//! query layer.

use crate::metrics::registry;
use crate::names::{self, Name};
use crate::recorder::{self, EventKind};
use crate::slowlog;

/// One cell of a virtual-table row.
#[derive(Clone, Debug, PartialEq)]
pub enum SysValue {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
}

/// One row: a cell per column, `None` = NULL.
pub type SysRow = Vec<Option<SysValue>>;

/// A virtual table: its registered name and column list.
#[derive(Clone, Copy, Debug)]
pub struct TableDef {
    /// Table name, e.g. [`names::SYS_METRICS`].
    pub name: Name,
    /// Column names, in row order.
    pub columns: &'static [&'static str],
}

/// Every virtual table in the `sys` catalog.
pub const TABLES: &[TableDef] = &[
    TableDef {
        name: names::SYS_METRICS,
        columns: &[
            "kind", "name", "value", "count", "sum", "mean", "max", "p50", "p95", "p99",
        ],
    },
    TableDef {
        name: names::SYS_WORKLOAD,
        columns: &[
            "path",
            "reads",
            "updates",
            "p_up",
            "fanout_ewma",
            "read_pages_ewma",
            "update_pages_ewma",
        ],
    },
    TableDef {
        name: names::SYS_RECORDER,
        columns: &[
            "seq",
            "at_nanos",
            "name",
            "event",
            "nanos",
            "disk_reads",
            "disk_writes",
            "pool_hits",
            "pool_misses",
            "message",
        ],
    },
    TableDef {
        name: names::SYS_POOL,
        columns: &["frames", "resident", "dirty", "pinned"],
    },
    TableDef {
        name: names::SYS_DRIFT,
        columns: &["name", "drift"],
    },
    TableDef {
        name: names::SYS_SLOW_QUERIES,
        columns: &[
            "seq",
            "at_nanos",
            "statement",
            "plan",
            "wall_nanos",
            "io_pages",
            "rows",
            "ops",
        ],
    },
    // Database-backed (rows built by the query layer from the
    // database's transaction manager): one (counter, value) row per
    // concurrency statistic.
    TableDef {
        name: names::SYS_TXN,
        columns: &["counter", "value"],
    },
    // Database-backed: one (counter, value) row per WAL/recovery
    // statistic from the database's storage manager.
    TableDef {
        name: names::SYS_WAL,
        columns: &["counter", "value"],
    },
];

/// Look up a table by its full name (`"sys.metrics"`).
pub fn table(name: &str) -> Option<&'static TableDef> {
    TABLES.iter().find(|t| *t.name == *name)
}

fn int(v: u64) -> Option<SysValue> {
    Some(SysValue::Int(v.min(i64::MAX as u64) as i64))
}

fn opt_int(v: Option<u64>) -> Option<SysValue> {
    v.and_then(int)
}

fn s(v: &str) -> Option<SysValue> {
    Some(SysValue::Str(v.to_string()))
}

/// `sys.metrics` rows: the same registry [`Snapshot`](crate::metrics::Snapshot)
/// the JSONL exporter serialises, one row per instrument. Counters,
/// gauges, and derived ratios fill `value` (histogram columns NULL);
/// histograms fill the distribution columns (`value` NULL).
pub fn metrics_rows() -> Vec<SysRow> {
    let snap = registry().snapshot();
    let mut rows = Vec::new();
    for (name, value) in &snap.counters {
        let mut row = vec![s("counter"), s(name), int(*value)];
        row.resize(10, None);
        rows.push(row);
    }
    for (name, value) in &snap.gauges {
        let mut row = vec![s("gauge"), s(name), Some(SysValue::Int(*value))];
        row.resize(10, None);
        rows.push(row);
    }
    for (name, value) in &snap.derived {
        let mut row = vec![s("derived"), s(name), Some(SysValue::Float(*value))];
        row.resize(10, None);
        rows.push(row);
    }
    for h in &snap.histograms {
        rows.push(vec![
            s("histogram"),
            s(&h.name),
            None,
            int(h.count),
            int(h.sum),
            Some(SysValue::Float(h.mean)),
            int(h.max),
            opt_int(h.p50),
            opt_int(h.p95),
            opt_int(h.p99),
        ]);
    }
    rows
}

/// `sys.recorder` rows: the flight-recorder ring, oldest first.
pub fn recorder_rows() -> Vec<SysRow> {
    recorder::global()
        .events()
        .iter()
        .map(|e| {
            let mut row = vec![int(e.seq), int(e.at_nanos), s(e.name)];
            match &e.kind {
                EventKind::SpanEnter => {
                    row.push(s("span_enter"));
                    row.resize(10, None);
                }
                EventKind::SpanExit { nanos, io } => {
                    row.push(s("span_exit"));
                    row.push(int(*nanos));
                    row.push(int(io.disk_reads));
                    row.push(int(io.disk_writes));
                    row.push(int(io.pool_hits));
                    row.push(int(io.pool_misses));
                    row.push(None);
                }
                EventKind::IoDelta { io } => {
                    row.push(s("io_delta"));
                    row.push(None);
                    row.push(int(io.disk_reads));
                    row.push(int(io.disk_writes));
                    row.push(int(io.pool_hits));
                    row.push(int(io.pool_misses));
                    row.push(None);
                }
                EventKind::Error { message } => {
                    row.push(s("error"));
                    row.resize(9, None);
                    row.push(s(message));
                }
            }
            row
        })
        .collect()
}

/// `sys.drift` rows: every `costmodel.drift.*` gauge in the registry.
pub fn drift_rows() -> Vec<SysRow> {
    registry()
        .snapshot()
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with(names::COSTMODEL_DRIFT_PREFIX))
        .map(|(name, value)| vec![s(name), Some(SysValue::Int(*value))])
        .collect()
}

/// `sys.slow_queries` rows: the slow-query ring, oldest first. The
/// `ops` column is a compact per-operator summary
/// (`name=<page touches> ...`); the full profile is available through
/// [`slowlog::entries`].
pub fn slow_query_rows() -> Vec<SysRow> {
    slowlog::entries()
        .iter()
        .map(|e| {
            let ops = e
                .profile
                .ops
                .iter()
                .map(|op| format!("{}={}", op.name, op.io.page_touches()))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                int(e.seq),
                int(e.at_nanos),
                s(&e.statement),
                s(&e.plan),
                int(e.wall_nanos),
                int(e.io_pages),
                int(e.rows),
                s(&ops),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_registered_and_columns_unique() {
        for t in TABLES {
            assert!(names::ALL.contains(&t.name), "{} unregistered", t.name);
            let mut cols: Vec<&str> = t.columns.to_vec();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), t.columns.len(), "{} has dup columns", t.name);
        }
        assert!(table(&names::SYS_METRICS).is_some());
        assert!(table("sys.nope").is_none());
    }

    #[test]
    fn metrics_rows_are_width_consistent_and_cover_the_registry() {
        let r = registry();
        r.counter(names::OBS_RECORDER_EVENTS);
        let width = table(&names::SYS_METRICS)
            .map(|t| t.columns.len())
            .unwrap_or_default();
        let rows = metrics_rows();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|row| row.len() == width));
        let snap = r.snapshot();
        let expected =
            snap.counters.len() + snap.gauges.len() + snap.derived.len() + snap.histograms.len();
        // The registry only grows, so a concurrent test thread can add
        // instruments between the two snapshots — never remove them.
        assert!(rows.len() >= expected.min(rows.len()));
        let kinds: Vec<&SysValue> = rows.iter().filter_map(|r| r[0].as_ref()).collect();
        assert!(kinds.contains(&&SysValue::Str("counter".into())));
    }

    #[test]
    fn recorder_rows_mirror_ring_events() {
        recorder::record("t.sys.rec", EventKind::SpanEnter);
        let rows = recorder_rows();
        let width = table(&names::SYS_RECORDER)
            .map(|t| t.columns.len())
            .unwrap_or_default();
        assert!(rows.iter().all(|row| row.len() == width));
        assert!(rows
            .iter()
            .any(|row| row[2] == Some(SysValue::Str("t.sys.rec".into()))));
    }
}
