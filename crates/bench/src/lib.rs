//! # fieldrep-bench
//!
//! The reproduction and page-count harness for the paper's evaluation.
//! It holds no clock: every number it produces is a page count or an
//! analytical value, so every output is reproducible bit for bit.
//! Timing (throughput, latency, telemetry overhead, multi-client runs)
//! is measured by the standalone `benchmark/` package.
//!
//! * The **analytical side** (Figures 11–14) is pure `fieldrep-costmodel`;
//!   `repro fig11`…`repro fig14` print the same series/rows the paper
//!   reports.
//! * The **empirical side** builds the §6 schema (`R` referencing `S`
//!   through `sref`, `replicate R.sref.repfield`) at the paper's object
//!   sizes on the real storage engine, runs the paper's read/update
//!   queries, and measures actual page I/O with a cold buffer pool —
//!   `cargo run --release -p fieldrep-bench --bin repro -- empirical`.
//! * The **page-count suite** ([`suite`]) runs a fixed matrix of those
//!   measurements; `tests/baseline.rs` requires its report to equal the
//!   committed `BENCH_BASELINE.json` byte for byte.
//!
//! This library holds the shared workload builder and measurement
//! helpers; see `src/bin/` for the drivers.

pub mod figures;
pub mod suite;
pub mod trace;

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_costmodel::{read_cost, update_cost, IndexSetting, ModelStrategy, Params};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_obs::{IoCounts, Profile, SpanNode};
use fieldrep_query::{Assign, Filter, ReadQuery, Result, UpdateQuery};
use fieldrep_storage::IoProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which replication strategy a workload uses (`None` = the baseline).
pub type StrategyOpt = Option<Strategy>;

/// The three strategies every sweep iterates, baseline first.
pub const ALL_STRATEGIES: [StrategyOpt; 3] =
    [None, Some(Strategy::InPlace), Some(Strategy::Separate)];

/// Short strategy label used in tables and benchmark point ids.
pub fn strategy_name(s: StrategyOpt) -> &'static str {
    match s {
        None => "none",
        Some(Strategy::InPlace) => "in-place",
        Some(Strategy::Separate) => "separate",
    }
}

/// Specification of a §6 workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// `|S|` (the paper uses 10 000).
    pub s_count: usize,
    /// Sharing level `f` (`|R| = f·|S|`).
    pub sharing: usize,
    /// Read selectivity `f_r`.
    pub read_sel: f64,
    /// Update selectivity `f_s`.
    pub update_sel: f64,
    /// Clustered or unclustered indexes (§6.4's two settings).
    pub setting: IndexSetting,
    /// Replication strategy (`None` = no replication).
    pub strategy: StrategyOpt,
    /// §4.3.1 inline-link threshold (0 ⇒ always materialise link
    /// objects, which matches the cost model's link file).
    pub inline_threshold: usize,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// RNG seed for the unclustered shuffles.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's defaults at a given sharing level and strategy.
    pub fn paper(sharing: usize, setting: IndexSetting, strategy: StrategyOpt) -> WorkloadSpec {
        WorkloadSpec {
            s_count: 10_000,
            sharing,
            read_sel: 0.001,
            update_sel: 0.001,
            setting,
            strategy,
            inline_threshold: 0,
            pool_pages: 8192,
            seed: 0xF1E1D5EED,
        }
    }

    /// A copy at a smaller `|S|` (the suite, the tests and `repro
    /// empirical_curves` run below paper scale).
    pub fn scaled(mut self, s_count: usize) -> WorkloadSpec {
        self.s_count = s_count;
        self
    }

    /// `|R|`.
    pub fn r_count(&self) -> usize {
        self.s_count * self.sharing
    }

    /// The matching analytical parameter set.
    pub fn params(&self) -> Params {
        Params {
            s_count: self.s_count as f64,
            sharing: self.sharing as f64,
            read_sel: self.read_sel,
            update_sel: self.update_sel,
            ..Params::default()
        }
    }

    /// The matching analytical strategy.
    pub fn model_strategy(&self) -> ModelStrategy {
        match self.strategy {
            None => ModelStrategy::None,
            Some(Strategy::InPlace) => ModelStrategy::InPlace,
            Some(Strategy::Separate) => ModelStrategy::Separate,
        }
    }
}

/// A built workload: the populated database and the spec it was built
/// from.
pub struct Workload {
    /// The database.
    pub db: Database,
    /// The spec it was built from.
    pub spec: WorkloadSpec,
}

/// Build the §6 schema and population:
///
/// ```text
/// define type STYPE ( repfield: char[], field_s: int, pad )   // s = 200
/// define type RTYPE ( sref: ref STYPE, field_r: int, pad )    // r = 100
/// create S; create R; replicate R.sref.repfield
/// ```
///
/// * Unclustered setting: `field_r`/`field_s` are random permutations of
///   `0..N`, and `sref` assignments are a balanced shuffle (every S
///   object referenced by exactly `f` R objects, in random positions) —
///   the paper's "R and S are relatively unclustered".
/// * Clustered setting: key order equals physical order.
pub fn build_workload(spec: WorkloadSpec) -> Result<Workload> {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: spec.pool_pages,
        inline_link_threshold: spec.inline_threshold,
    });

    // Pad sizes make encoded payloads exactly r = 100 / s = 200 before
    // replication:
    //   STYPE: str(2+18) + int(8) + pad(171) + annotation count(1) = 200
    //   RTYPE: ref(8) + int(8) + pad(83) + 1 = 100
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("repfield", FieldType::Str),
            ("field_s", FieldType::Int),
            ("pad", FieldType::Pad(171)),
        ],
    ))?;
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("field_r", FieldType::Int),
            ("pad", FieldType::Pad(83)),
        ],
    ))?;
    db.create_set("S", "STYPE")?;
    db.create_set("R", "RTYPE")?;

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n_s = spec.s_count;
    let n_r = spec.r_count();

    // Key assignments.
    let mut s_keys: Vec<i64> = (0..n_s as i64).collect();
    let mut r_keys: Vec<i64> = (0..n_r as i64).collect();
    if spec.setting == IndexSetting::Unclustered {
        s_keys.shuffle(&mut rng);
        r_keys.shuffle(&mut rng);
    }

    // Balanced random sharing: every S object is referenced exactly f
    // times, from random R positions.
    let mut assignment: Vec<usize> = (0..n_r).map(|i| i % n_s).collect();
    assignment.shuffle(&mut rng);

    let mut s_oids = Vec::with_capacity(n_s);
    for (i, &key) in s_keys.iter().enumerate() {
        let rep = format!("rep{i:013}#0"); // 16 chars + "#0" = 18
        debug_assert_eq!(rep.len(), 18);
        let oid = db.insert("S", vec![Value::Str(rep), Value::Int(key), Value::Unit])?;
        s_oids.push(oid);
    }
    for (i, &key) in r_keys.iter().enumerate() {
        db.insert(
            "R",
            vec![
                Value::Ref(s_oids[assignment[i]]),
                Value::Int(key),
                Value::Unit,
            ],
        )?;
    }

    // Indexes on the selection fields (bulk-built).
    let kind = match spec.setting {
        IndexSetting::Unclustered => IndexKind::Unclustered,
        IndexSetting::Clustered => IndexKind::Clustered,
    };
    db.create_index("R.field_r", kind)?;
    db.create_index("S.field_s", kind)?;

    // Replication.
    if let Some(s) = spec.strategy {
        db.replicate("R.sref.repfield", s)?;
    }

    db.flush_all()?;
    db.reset_profile();
    Ok(Workload { db, spec })
}

/// The §6 read query over keys `[lo, lo + f_r·|R|)`: range-select on
/// `field_r`, project the key and the (possibly replicated) path, spool
/// the output file with `t = 100`.
pub fn read_query(w: &Workload, lo: i64) -> ReadQuery {
    let count = read_rows(w);
    ReadQuery::on("R")
        .filter(Filter::Range {
            path: "field_r".into(),
            lo: Value::Int(lo),
            hi: Value::Int(lo + count - 1),
        })
        .project(["field_r", "sref.repfield"])
        .spool(100)
}

/// The §6 update query over keys `[lo, lo + f_s·|S|)`: range-select on
/// `field_s` and rewrite `repfield`, the replicated field.
pub fn update_query(w: &Workload, lo: i64) -> UpdateQuery {
    let count = update_rows(w);
    UpdateQuery::on("S")
        .filter(Filter::Range {
            path: "field_s".into(),
            lo: Value::Int(lo),
            hi: Value::Int(lo + count - 1),
        })
        .assign("repfield", Assign::CycleStr(8))
}

/// Rows one read query selects (`f_r·|R|`, at least the range width).
fn read_rows(w: &Workload) -> i64 {
    (w.spec.read_sel * w.spec.r_count() as f64).round() as i64
}

/// Objects one update query touches (`f_s·|S|`).
fn update_rows(w: &Workload) -> i64 {
    (w.spec.update_sel * w.spec.s_count as f64).round() as i64
}

/// Run one §6 read query (cold pool, output file generated with
/// `t = 100`) and return the measured [`IoProfile`] — page counts
/// (`total_io`) plus the grouped-read call count (`disk.read_calls`).
pub fn measure_read_query(w: &mut Workload, lo: i64) -> Result<IoProfile> {
    let count = read_rows(w);
    let q = read_query(w, lo);
    w.db.flush_all()?;
    w.db.reset_profile();
    let res = q.run(&mut w.db)?;
    assert_eq!(res.rows.len(), count as usize, "selectivity honoured");
    w.db.flush_all()?;
    let prof = w.db.io_profile();
    if let Some(f) = res.output_file {
        w.db.sm().drop_file(f)?;
    }
    Ok(prof)
}

/// Run one §6 update query (cold pool, dirty pages flushed and counted)
/// and return the measured [`IoProfile`].
pub fn measure_update_query(w: &mut Workload, lo: i64) -> Result<IoProfile> {
    let count = update_rows(w);
    let q = update_query(w, lo);
    w.db.flush_all()?;
    w.db.reset_profile();
    let res = q.run(&mut w.db)?;
    assert_eq!(res.updated, count as usize, "selectivity honoured");
    w.db.flush_all()?;
    Ok(w.db.io_profile())
}

/// Convert the storage layer's raw counters into the observability
/// layer's [`IoCounts`] so the two can be compared field by field.
pub fn io_counts_of(p: &IoProfile) -> IoCounts {
    IoCounts {
        disk_reads: p.disk.reads,
        disk_writes: p.disk.writes,
        disk_allocs: p.disk.allocations,
        pool_hits: p.pool_hits,
        pool_misses: p.pool_misses,
        evictions: p.evictions,
    }
}

/// One query executed with tracing enabled on a cold pool: the
/// per-operator [`Profile`], the raw storage counters over the same
/// window, and the span tree.
pub struct ProfiledRun {
    /// Short label (query kind + key range).
    pub label: String,
    /// Result rows (reads) or objects updated (updates).
    pub rows: usize,
    /// Per-operator I/O attribution produced by the executor.
    pub profile: Profile,
    /// Raw buffer-pool counters captured immediately after the query,
    /// before any trailing flush — so they cover exactly the profile's
    /// window and `profile.total_io` must equal `io_counts_of(&raw)`.
    pub raw: IoProfile,
    /// Root spans recorded while the query ran.
    pub spans: Vec<SpanNode>,
}

/// Run one §6 read query with tracing on and return its full profile.
///
/// The pool counters are reset *immediately* before `run` on the same
/// thread, so the raw [`IoProfile`] and the executor's [`Profile`]
/// observe the identical I/O window.
pub fn profile_read_query(w: &mut Workload, lo: i64) -> Result<ProfiledRun> {
    let count = read_rows(w);
    let q = read_query(w, lo);
    w.db.flush_all()?;
    w.db.reset_profile();
    fieldrep_obs::set_tracing(true);
    fieldrep_obs::take_finished();
    let res = q.run(&mut w.db)?;
    let spans = fieldrep_obs::take_finished();
    fieldrep_obs::set_tracing(false);
    let raw = w.db.io_profile();
    let rows = res.rows.len();
    if let Some(f) = res.output_file {
        w.db.sm().drop_file(f)?;
    }
    Ok(ProfiledRun {
        label: format!("read R[{lo}..{}]", lo + count - 1),
        rows,
        profile: res.profile,
        raw,
        spans,
    })
}

/// Run one §6 update query with tracing on and return its full profile.
pub fn profile_update_query(w: &mut Workload, lo: i64) -> Result<ProfiledRun> {
    let count = update_rows(w);
    let q = update_query(w, lo);
    w.db.flush_all()?;
    w.db.reset_profile();
    fieldrep_obs::set_tracing(true);
    fieldrep_obs::take_finished();
    let res = q.run(&mut w.db)?;
    let spans = fieldrep_obs::take_finished();
    fieldrep_obs::set_tracing(false);
    let raw = w.db.io_profile();
    Ok(ProfiledRun {
        label: format!("update S[{lo}..{}]", lo + count - 1),
        rows: res.updated,
        profile: res.profile,
        raw,
        spans,
    })
}

/// Average `(total page I/O, disk read calls)` of `n` read queries at
/// distinct offsets. The second component is the grouped-call count —
/// the seek/syscall proxy the batched fast path shrinks while page I/O
/// stays constant.
pub fn avg_read_stats(w: &mut Workload, n: usize) -> Result<(f64, f64)> {
    let max_lo = (w.spec.r_count() as i64 - read_rows(w)).max(1);
    let (mut io, mut calls) = (0.0, 0.0);
    for i in 0..n {
        let lo = (i as i64 * 7919) % max_lo;
        let p = measure_read_query(w, lo)?;
        io += p.total_io() as f64;
        calls += p.disk.read_calls as f64;
    }
    Ok((io / n as f64, calls / n as f64))
}

/// Average `(total page I/O, disk read calls)` of `n` update queries at
/// distinct offsets.
pub fn avg_update_stats(w: &mut Workload, n: usize) -> Result<(f64, f64)> {
    let max_lo = (w.spec.s_count as i64 - update_rows(w)).max(1);
    let (mut io, mut calls) = (0.0, 0.0);
    for i in 0..n {
        let lo = (i as i64 * 6389) % max_lo;
        let p = measure_update_query(w, lo)?;
        io += p.total_io() as f64;
        calls += p.disk.read_calls as f64;
    }
    Ok((io / n as f64, calls / n as f64))
}

/// One cell of the empirical matrix: measured vs. analytical page I/O
/// for the §6 read and update queries of a single workload.
pub struct CellMeasurement {
    /// Measured read I/O, averaged over the cell's queries.
    pub read_measured: f64,
    /// Analytical `C_read` at the workload's parameters.
    pub read_model: f64,
    /// Measured update I/O, averaged.
    pub update_measured: f64,
    /// Analytical `C_update`.
    pub update_model: f64,
    /// Disk read *calls* per read query, averaged (grouped batch reads
    /// count once; `read_measured / read_calls` ≈ mean batch length).
    pub read_calls: f64,
    /// Disk read calls per update query, averaged.
    pub update_calls: f64,
}

/// Build one workload and measure its cell (`queries` runs averaged per
/// side). Returns the workload too, so callers can keep probing it.
pub fn measure_cell(spec: WorkloadSpec, queries: usize) -> Result<(Workload, CellMeasurement)> {
    let params = spec.params();
    let model = spec.model_strategy();
    let setting = spec.setting;
    let mut w = build_workload(spec)?;
    let (read_measured, read_calls) = avg_read_stats(&mut w, queries)?;
    let (update_measured, update_calls) = avg_update_stats(&mut w, queries)?;
    let cell = CellMeasurement {
        read_measured,
        read_model: read_cost(&params, model, setting).total(),
        update_measured,
        update_model: update_cost(&params, model, setting).total(),
        read_calls,
        update_calls,
    };
    Ok((w, cell))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_object_sizes_match_paper() {
        let spec = WorkloadSpec::paper(1, IndexSetting::Unclustered, None).scaled(200);
        let w = build_workload(spec).unwrap();
        // r = 100 → 33 objects/page → 200 objects on ⌈200/33⌉ = 7 pages.
        let rfile = w.db.catalog().set(w.db.catalog().set_id("R").unwrap()).file;
        assert_eq!(w.db.sm().page_count(rfile).unwrap(), 7);
        // s = 200 → 18 objects/page → ⌈200/18⌉ = 12 pages.
        let sfile = w.db.catalog().set(w.db.catalog().set_id("S").unwrap()).file;
        assert_eq!(w.db.sm().page_count(sfile).unwrap(), 12);
    }

    #[test]
    fn queries_execute_and_measure() {
        for strategy in [None, Some(Strategy::InPlace), Some(Strategy::Separate)] {
            let spec = WorkloadSpec::paper(2, IndexSetting::Unclustered, strategy).scaled(500);
            let mut w = build_workload(spec).unwrap();
            let r = measure_read_query(&mut w, 0).unwrap().total_io();
            let u = measure_update_query(&mut w, 0).unwrap().total_io();
            assert!(r > 0 && u > 0, "{strategy:?}: read={r} update={u}");
        }
    }

    #[test]
    fn replication_reduces_read_io() {
        let mut base =
            build_workload(WorkloadSpec::paper(4, IndexSetting::Unclustered, None).scaled(1000))
                .unwrap();
        let mut inp = build_workload(
            WorkloadSpec::paper(4, IndexSetting::Unclustered, Some(Strategy::InPlace)).scaled(1000),
        )
        .unwrap();
        let io_base = avg_read_stats(&mut base, 3).unwrap().0;
        let io_inp = avg_read_stats(&mut inp, 3).unwrap().0;
        assert!(
            io_inp < io_base,
            "in-place read I/O {io_inp} should beat baseline {io_base}"
        );
    }
}
