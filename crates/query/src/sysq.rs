//! Virtual scans over the `sys` introspection catalog.
//!
//! A [`SysQuery`] is the read-only plan operator behind
//! `retrieve (...) from sys.<table> where ...` in `lang`: it materialises
//! one of the [`fieldrep_obs::sys`] virtual tables (plus the
//! database-backed ones, `sys.pool`, `sys.workload`, and `sys.txn`),
//! applies an
//! optional [`Filter`] over a named column, and projects the requested
//! columns.
//!
//! Virtual scans cost **zero page I/O** by construction — row builders
//! only read in-memory telemetry state — so the per-operator [`Profile`]
//! they return preserves the invariant that operator I/O telescopes to
//! the pool totals (every segment is zero). The execution path is also
//! deliberately free of spans and metric updates: a `retrieve` over
//! `sys.metrics` must observe a registry identical to what a JSONL
//! snapshot taken right after would serialise.

use std::fmt::Write as _;

use crate::error::{QueryError, Result};
use crate::exec::Row;
use crate::Filter;
use fieldrep_core::Database;
use fieldrep_model::Value;
use fieldrep_obs::sys::{self, SysValue, TableDef};
use fieldrep_obs::{names as obs_names, Profile};

/// A read-only query over one `sys.*` virtual table.
#[derive(Clone, Debug)]
pub struct SysQuery {
    /// Full table name (`"sys.metrics"`, ... — see [`sys::TABLES`]).
    pub table: String,
    /// Projected column names; empty projects every column in catalog
    /// order.
    pub columns: Vec<String>,
    /// Optional predicate; [`Filter::path`] names the filtered column.
    pub filter: Option<Filter>,
}

impl SysQuery {
    /// Start building a query on `table`.
    pub fn on(table: impl Into<String>) -> SysQuery {
        SysQuery {
            table: table.into(),
            columns: Vec::new(),
            filter: None,
        }
    }

    /// Add projected columns.
    pub fn project<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.columns.extend(columns.into_iter().map(Into::into));
        self
    }

    /// Add a selection predicate.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filter = Some(f);
        self
    }

    /// Resolve the table and column names against the `sys` catalog.
    pub fn plan(&self) -> Result<SysPlan> {
        let table = sys::table(&self.table).ok_or_else(|| {
            QueryError::BadQuery(format!(
                "unknown sys table {:?} (tables: {})",
                self.table,
                sys::TABLES
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        let projection = if self.columns.is_empty() {
            (0..table.columns.len()).collect::<Vec<_>>()
        } else {
            self.columns
                .iter()
                .map(|c| column_index(table, c))
                .collect::<Result<Vec<_>>>()?
        };
        let filter_column = match &self.filter {
            Some(f) => Some(column_index(table, f.path())?),
            None => None,
        };
        Ok(SysPlan {
            table,
            projection,
            filter_column,
        })
    }

    /// Execute the scan. Span-free and metrics-free: the only observable
    /// side effect is the returned zero-I/O profile.
    pub fn run(&self, db: &mut Database) -> Result<SysResult> {
        let mut prof = Profile::start();
        let plan = self.plan()?;
        prof.mark(obs_names::OP_PLAN);
        let raw = raw_rows(db, plan.table);
        let rows: Vec<Row> = raw
            .into_iter()
            .map(|row| row.into_iter().map(|c| c.map(value_of)).collect::<Row>())
            .filter(|row: &Row| match (&self.filter, plan.filter_column) {
                (Some(f), Some(col)) => row[col].as_ref().is_some_and(|v| f.matches(v)),
                _ => true,
            })
            .map(|row| plan.projection.iter().map(|&i| row[i].clone()).collect())
            .collect();
        prof.mark(plan.access_label());
        Ok(SysResult {
            columns: plan.column_names(),
            rows,
            profile: prof.finish(),
        })
    }

    /// `EXPLAIN`: the plan rendering, without executing.
    pub fn explain_text(&self) -> Result<String> {
        Ok(self.plan()?.render())
    }

    /// `EXPLAIN ANALYZE`: execute, then append the per-operator profile
    /// (every segment zero pages — the virtual-scan invariant) and the
    /// row count to the plan rendering.
    pub fn explain_analyze_text(&self, db: &mut Database) -> Result<(String, SysResult)> {
        let result = self.run(db)?;
        let mut out = self.plan()?.render();
        let _ = writeln!(out, "  {:<40} {:>10} {:>10}", "operator", "pages", "ms");
        for op in &result.profile.ops {
            let _ = writeln!(
                out,
                "  {:<40} {:>10} {:>10.3}",
                op.name,
                op.io.page_touches(),
                op.nanos as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>10.3}",
            "total",
            result.profile.total_io.page_touches(),
            result.profile.total_nanos as f64 / 1e6
        );
        let _ = writeln!(out, "rows: {}", result.rows.len());
        Ok((out, result))
    }
}

/// A resolved virtual-scan plan.
#[derive(Clone, Debug)]
pub struct SysPlan {
    /// The scanned table.
    pub table: &'static TableDef,
    /// Projected column indexes, in output order.
    pub projection: Vec<usize>,
    /// Filtered column index, when a predicate is present.
    pub filter_column: Option<usize>,
}

impl SysPlan {
    /// Profile label of the scan operator, in the shared
    /// `access:<shape>` family.
    pub fn access_label(&self) -> String {
        format!("{}:virtual({})", obs_names::OP_ACCESS, self.table.name)
    }

    /// Projected column names, in output order.
    pub fn column_names(&self) -> Vec<String> {
        self.projection
            .iter()
            .map(|&i| self.table.columns[i].to_string())
            .collect()
    }

    /// Human-readable plan text (the `EXPLAIN` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "access: virtual scan of {} (zero page I/O)",
            self.table.name
        );
        let _ = writeln!(out, "project: {}", self.column_names().join(", "));
        if let Some(col) = self.filter_column {
            let _ = writeln!(out, "filter: on column {}", self.table.columns[col]);
        }
        out
    }
}

/// The outcome of a virtual scan.
#[derive(Debug)]
pub struct SysResult {
    /// Projected column names, in row order.
    pub columns: Vec<String>,
    /// Result rows (`None` = NULL cell).
    pub rows: Vec<Row>,
    /// Per-operator breakdown; every segment does zero page I/O.
    pub profile: Profile,
}

/// Index of column `name` in `table`, or a [`QueryError::BadQuery`]
/// naming the valid columns.
fn column_index(table: &TableDef, name: &str) -> Result<usize> {
    table
        .columns
        .iter()
        .position(|c| *c == name)
        .ok_or_else(|| {
            QueryError::BadQuery(format!(
                "no column {:?} in {} (columns: {})",
                name,
                table.name,
                table.columns.join(", ")
            ))
        })
}

fn value_of(v: SysValue) -> Value {
    match v {
        SysValue::Int(i) => Value::Int(i),
        SysValue::Float(f) => Value::Float(f),
        SysValue::Str(s) => Value::Str(s),
    }
}

/// Materialise the unprojected, unfiltered rows of `table`. The
/// database-backed tables are built here; everything else delegates to
/// the [`sys`] row builders.
fn raw_rows(db: &mut Database, table: &'static TableDef) -> Vec<sys::SysRow> {
    let name = table.name;
    if name == obs_names::SYS_TXN {
        let s = db.txn().stats();
        return [
            ("active", s.active),
            ("begun", s.begun),
            ("committed", s.committed),
            ("aborted", s.aborted),
            ("conflicts", s.conflicts),
            ("lock_waits", s.lock_waits),
            ("snapshot_retries", s.snapshot_retries),
            ("commit_epoch", s.commit_epoch),
        ]
        .into_iter()
        .map(|(counter, value)| {
            vec![
                Some(SysValue::Str(counter.to_string())),
                Some(SysValue::Int(value.min(i64::MAX as u64) as i64)),
            ]
        })
        .collect();
    }
    if name == obs_names::SYS_WAL {
        let w = db.sm().wal_stats();
        let r = db.sm().recovery_report();
        return [
            ("enabled", db.sm().wal_enabled() as u64),
            ("last_lsn", w.last_lsn),
            ("durable_lsn", w.durable_lsn),
            ("appends", w.appends),
            ("fsyncs", w.fsyncs),
            ("bytes", w.bytes),
            ("group_commit_coalesced", w.coalesced),
            ("recovery_scanned_records", r.scanned_records as u64),
            ("recovery_truncated_bytes", r.truncated_bytes),
            ("recovery_committed_txns", r.committed_txns as u64),
            ("recovery_replayed_pages", r.replayed_pages),
        ]
        .into_iter()
        .map(|(counter, value)| {
            vec![
                Some(SysValue::Str(counter.to_string())),
                Some(SysValue::Int(value.min(i64::MAX as u64) as i64)),
            ]
        })
        .collect();
    }
    if name == obs_names::SYS_POOL {
        let s = db.sm().pool().pool_stats();
        return vec![[s.frames, s.resident, s.dirty, s.pinned]
            .iter()
            .map(|&n| Some(SysValue::Int(n as i64)))
            .collect()];
    }
    if name == obs_names::SYS_WORKLOAD {
        return db
            .workload()
            .all()
            .iter()
            .map(|(path, w)| {
                vec![
                    Some(SysValue::Str(path.clone())),
                    Some(SysValue::Int(w.reads.min(i64::MAX as u64) as i64)),
                    Some(SysValue::Int(w.updates.min(i64::MAX as u64) as i64)),
                    Some(SysValue::Float(w.p_up())),
                    Some(SysValue::Float(w.fanout_ewma)),
                    Some(SysValue::Float(w.read_pages_ewma)),
                    Some(SysValue::Float(w.update_pages_ewma)),
                ]
            })
            .collect();
    }
    if name == obs_names::SYS_METRICS {
        sys::metrics_rows()
    } else if name == obs_names::SYS_RECORDER {
        sys::recorder_rows()
    } else if name == obs_names::SYS_DRIFT {
        sys::drift_rows()
    } else {
        sys::slow_query_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_core::DbConfig;

    fn db() -> Database {
        Database::in_memory(DbConfig {
            pool_pages: 64,
            ..DbConfig::default()
        })
    }

    #[test]
    fn metrics_scan_is_zero_io_and_width_consistent() {
        let mut db = db();
        fieldrep_obs::registry().counter(obs_names::OBS_RECORDER_EVENTS);
        let r = SysQuery::on(obs_names::SYS_METRICS).run(&mut db).unwrap();
        assert_eq!(r.columns.len(), 10);
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row.len() == 10));
        assert_eq!(
            r.profile.total_io.page_touches(),
            0,
            "virtual scans are free"
        );
        assert_eq!(r.profile.total_io, r.profile.ops_io_sum());
        assert!(r
            .profile
            .ops
            .iter()
            .any(|op| op.name == format!("{}:virtual(sys.metrics)", obs_names::OP_ACCESS)));
    }

    #[test]
    fn projection_and_filter_narrow_the_result() {
        let mut db = db();
        let needle = obs_names::OBS_RECORDER_EVENTS;
        fieldrep_obs::registry().counter(needle);
        let r = SysQuery::on(obs_names::SYS_METRICS)
            .project(["name", "kind"])
            .filter(Filter::Eq {
                path: "name".into(),
                value: Value::Str(needle.into()),
            })
            .run(&mut db)
            .unwrap();
        assert_eq!(r.columns, vec!["name".to_string(), "kind".to_string()]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Some(Value::Str(needle.into())));
        assert_eq!(r.rows[0][1], Some(Value::Str("counter".into())));
    }

    #[test]
    fn pool_scan_reflects_pool_stats() {
        let mut db = db();
        let r = SysQuery::on(obs_names::SYS_POOL).run(&mut db).unwrap();
        let s = db.sm().pool().pool_stats();
        assert_eq!(s.frames, db.sm().pool().capacity());
        let want: Vec<_> = [s.frames, s.resident, s.dirty, s.pinned]
            .iter()
            .map(|&n| Some(Value::Int(n as i64)))
            .collect();
        assert_eq!(r.rows, vec![want]);
        assert_eq!(r.profile.total_io.page_touches(), 0);
    }

    #[test]
    fn unknown_table_and_column_are_bad_queries() {
        let mut db = db();
        let e = SysQuery::on("sys.nope").run(&mut db).unwrap_err();
        assert!(matches!(e, QueryError::BadQuery(_)));
        let e = SysQuery::on(obs_names::SYS_POOL)
            .project(["bogus"])
            .run(&mut db)
            .unwrap_err();
        assert!(e.to_string().contains("bogus"));
        let e = SysQuery::on(obs_names::SYS_POOL)
            .filter(Filter::Eq {
                path: "nope".into(),
                value: Value::Int(0),
            })
            .run(&mut db)
            .unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn explain_renders_plan_and_analyze_appends_zero_page_profile() {
        let mut db = db();
        let q = SysQuery::on(obs_names::SYS_POOL).project(["frames", "resident"]);
        let plain = q.explain_text().unwrap();
        assert!(plain.contains("virtual scan of sys.pool"));
        assert!(plain.contains("project: frames, resident"));
        let (text, result) = q.explain_analyze_text(&mut db).unwrap();
        assert!(text.contains("rows:"));
        assert!(text.contains(&format!("{}:virtual(sys.pool)", obs_names::OP_ACCESS)));
        assert_eq!(result.profile.total_io.page_touches(), 0);
    }

    #[test]
    fn txn_scan_reflects_transaction_stats() {
        let mut db = db();
        let t = db.txn().begin();
        db.txn().commit(t);
        let r = SysQuery::on(obs_names::SYS_TXN)
            .filter(Filter::Eq {
                path: "counter".into(),
                value: Value::Str("committed".into()),
            })
            .run(&mut db)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Some(Value::Int(1)));
        assert_eq!(r.profile.total_io.page_touches(), 0);
    }

    #[test]
    fn wal_scan_reflects_durability_state() {
        // Without a WAL: enabled = 0, every counter zero.
        let mut db = db();
        let r = SysQuery::on(obs_names::SYS_WAL)
            .filter(Filter::Eq {
                path: "counter".into(),
                value: Value::Str("enabled".into()),
            })
            .run(&mut db)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Some(Value::Int(0)));

        // With a WAL: enabled = 1, and a committed update moves fsyncs.
        let mut db = Database::with_disk_and_wal(
            Box::new(fieldrep_storage::MemDisk::new()),
            Box::new(fieldrep_storage::MemWalStore::new()),
            DbConfig {
                pool_pages: 64,
                ..DbConfig::default()
            },
        )
        .unwrap();
        use fieldrep_model::{FieldType, TypeDef};
        db.define_type(TypeDef::new("D", vec![("name", FieldType::Str)]))
            .unwrap();
        db.create_set("Ds", "D").unwrap();
        let d = db.insert("Ds", vec![Value::Str("a".into())]).unwrap();
        db.update_txn(d, &[("name", Value::Str("b".into()))])
            .unwrap();
        let r = SysQuery::on(obs_names::SYS_WAL).run(&mut db).unwrap();
        let get = |key: &str| {
            r.rows
                .iter()
                .find(|row| row[0] == Some(Value::Str(key.into())))
                .and_then(|row| match row[1] {
                    Some(Value::Int(n)) => Some(n),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(get("enabled"), 1);
        assert!(get("fsyncs") >= 1, "the commit fsynced");
        assert!(get("appends") >= 3, "Begin + image(s) + Commit");
        assert_eq!(get("last_lsn"), get("durable_lsn"));
        assert_eq!(r.profile.total_io.page_touches(), 0);
    }

    #[test]
    fn slow_query_scan_has_catalog_width() {
        let mut db = db();
        let r = SysQuery::on(obs_names::SYS_SLOW_QUERIES)
            .run(&mut db)
            .unwrap();
        assert_eq!(r.columns.len(), 8);
        assert!(r.rows.iter().all(|row| row.len() == 8));
    }
}
