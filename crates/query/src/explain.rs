//! `EXPLAIN` / `EXPLAIN ANALYZE`: compiled plans annotated with §6
//! cost-model predictions, and (for ANALYZE) the measured per-operator
//! page I/O of the execution they describe.
//!
//! Predictions come from [`fieldrep_costmodel::conformance`], fed with
//! [`Params`] measured from the live data
//! ([`Database::analyze_path`](fieldrep_core::Database::analyze_path) for
//! path cardinalities/sizes, the actual qualifying-row count for ANALYZE
//! selectivity, a documented range heuristic for plain EXPLAIN). ANALYZE
//! runs the query against a cold pool (`flush_all` + `reset_profile`),
//! joins each `Profile` operator to its prediction by name prefix, and
//! records the per-operator drift in the `costmodel.drift.{operator}`
//! gauge family so every profiled query's conformance lands in the
//! standard text/JSONL metric exports.

use std::fmt::Write as _;

use crate::error::{QueryError, Result};
use crate::exec::{QueryResult, UpdateResult};
use crate::plan::{AccessPlan, Plan, ProjPlan};
use crate::{Filter, ReadQuery, UpdateQuery};
use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::Database;
use fieldrep_costmodel::conformance::{
    drift_pct, matches_op, predict_read, predict_update, AccessShape, OpPrediction, ProjShape,
    ReadShape, UpdateShape,
};
use fieldrep_costmodel::{IndexSetting, ModelStrategy, Params};
use fieldrep_model::Value;
use fieldrep_obs::names::{self as obs_names, Name};
use fieldrep_obs::registry;

/// One operator row of an EXPLAIN report.
#[derive(Clone, Debug)]
pub struct ExplainRow {
    /// Operator name (the `Profile` label for measured rows, the
    /// prediction key otherwise).
    pub op: String,
    /// The drift gauge this row records to (`None` for measured
    /// operators no prediction claimed).
    pub metric: Option<Name>,
    /// Model-predicted page I/O.
    pub predicted: f64,
    /// Measured page I/O (`None` for plain EXPLAIN).
    pub measured: Option<u64>,
    /// Measured wall time in nanoseconds (`None` for plain EXPLAIN).
    pub nanos: Option<u128>,
}

impl ExplainRow {
    /// Drift of the measured I/O from the prediction, when measured.
    pub fn drift(&self) -> Option<f64> {
        self.measured.map(|m| drift_pct(self.predicted, m as f64))
    }
}

/// A full EXPLAIN (ANALYZE) report.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The compiled plan.
    pub plan: Plan,
    /// Per-operator rows, in plan order.
    pub rows: Vec<ExplainRow>,
    /// The model parameters the predictions used.
    pub params: Params,
    /// The index setting the predictions assumed.
    pub setting: IndexSetting,
    /// Sum of predicted pages.
    pub predicted_total: f64,
    /// Total measured page I/O (`None` for plain EXPLAIN).
    pub measured_total: Option<u64>,
    /// Qualifying rows (read) or updated objects (update), when executed.
    pub result_rows: Option<usize>,
    /// Observed workload of the replication paths this plan touches
    /// (path expression → live [`fieldrep_core::PathWorkload`]), from the
    /// database's per-path registry. Empty when nothing was recorded yet.
    pub observed: Vec<(String, fieldrep_core::PathWorkload)>,
}

impl Explain {
    /// Total drift, when the query was executed.
    pub fn total_drift(&self) -> Option<f64> {
        self.measured_total
            .map(|m| drift_pct(self.predicted_total, m as f64))
    }
}

/// Model parameters estimated for one query.
struct Estimate {
    params: Params,
    setting: IndexSetting,
}

/// Selectivity heuristic for plain EXPLAIN: an equality filter picks one
/// object; a finite integer range assumes keys dense over `0..n` (exact
/// for the §6 benchmark workloads); anything else defaults to 1%.
fn estimated_selectivity(filter: Option<&Filter>, n: f64) -> f64 {
    let floor = 1.0 / n.max(1.0);
    match filter {
        None => 1.0,
        Some(Filter::Eq { .. }) => floor,
        Some(Filter::Range { lo, hi, .. }) => match (lo, hi) {
            (Value::Int(a), Value::Int(b)) => {
                (((*b as f64) - (*a as f64) + 1.0) / n.max(1.0)).clamp(floor, 1.0)
            }
            _ => 0.01,
        },
    }
}

/// The index setting a plan's access path implies.
fn setting_of(plan: &Plan) -> IndexSetting {
    match &plan.access {
        AccessPlan::IndexRange {
            kind: IndexKind::Clustered,
            ..
        } => IndexSetting::Clustered,
        _ => IndexSetting::Unclustered,
    }
}

fn access_shape(plan: &Plan) -> AccessShape {
    match &plan.access {
        AccessPlan::FullScan => AccessShape::FullScan,
        AccessPlan::IndexRange { .. } => AccessShape::IndexRange,
        AccessPlan::PathIndexRange { .. } => AccessShape::PathIndexRange,
    }
}

fn read_shape(plan: &Plan, q: &ReadQuery) -> ReadShape {
    let projections = plan
        .projections
        .iter()
        .map(|p| match p {
            ProjPlan::BaseField { .. } => ProjShape::BaseField,
            ProjPlan::InPlaceReplica { .. } => ProjShape::InPlaceReplica,
            ProjPlan::SeparateReplica { .. } => ProjShape::SeparateReplica,
            // One fetch batch per hop object file, plus the terminal.
            ProjPlan::FunctionalJoin { hops, .. } => {
                ProjShape::FunctionalJoin { levels: hops.len() }
            }
            ProjPlan::CollapseThenJoin { remaining_hops, .. } => ProjShape::CollapseThenJoin {
                remaining_levels: remaining_hops.len() + 1,
            },
        })
        .collect();
    ReadShape {
        access: access_shape(plan),
        projections,
        spool: q.spool_output,
    }
}

/// Estimate [`Params`] for a read query: cardinalities and object sizes
/// come from [`Database::analyze_path`] on the first projected reference
/// path (defaults when every projection is a base field), selectivity
/// from `rows` (the actual qualifying count, ANALYZE) or the filter
/// heuristic (plain EXPLAIN).
///
/// `analyze_path` scans live data; callers must invoke this *before*
/// resetting the I/O profile for a measured run.
fn estimate_read(
    db: &mut Database,
    q: &ReadQuery,
    plan: &Plan,
    rows: Option<usize>,
) -> Result<Estimate> {
    let r_count = db.set_len(&q.set)? as f64;
    let read_sel = match rows {
        Some(n) => n as f64 / r_count.max(1.0),
        None => estimated_selectivity(q.filter.as_ref(), r_count),
    };
    let stats = first_path_stats(db, &q.set, q.projections.iter().map(String::as_str))?;
    let params = match stats {
        Some(st) => st.params(read_sel, Params::default().update_sel),
        None => Params {
            s_count: r_count.max(1.0),
            sharing: 1.0,
            read_sel,
            ..Params::default()
        },
    };
    Ok(Estimate {
        params,
        setting: setting_of(plan),
    })
}

/// Estimate [`Params`] for an update query. The updated set plays the
/// model's S role; sharing and object sizes come from a replication path
/// *terminating* at this set's type (the one propagation maintains), when
/// any exists.
fn estimate_update(
    db: &mut Database,
    q: &UpdateQuery,
    plan: &Plan,
    updated: Option<usize>,
) -> Result<Estimate> {
    let s_count = db.set_len(&q.set)? as f64;
    let update_sel = match updated {
        Some(n) => n as f64 / s_count.max(1.0),
        None => estimated_selectivity(q.filter.as_ref(), s_count),
    };
    let path_expr = propagation_path(db, q).map(|(expr, _)| expr);
    let params = match path_expr {
        Some(expr) => {
            let st = db.analyze_path(&expr).map_err(QueryError::from)?;
            st.params(Params::default().read_sel, update_sel)
        }
        None => Params {
            s_count: s_count.max(1.0),
            sharing: 1.0,
            update_sel,
            ..Params::default()
        },
    };
    Ok(Estimate {
        params,
        setting: setting_of(plan),
    })
}

/// Stats for the first projection that traverses reference hops, if any.
fn first_path_stats<'a>(
    db: &mut Database,
    set: &str,
    projections: impl Iterator<Item = &'a str>,
) -> Result<Option<fieldrep_core::PathStats>> {
    for proj in projections {
        let dotted = format!("{set}.{proj}");
        let resolved = db.catalog().resolve_path_str(&dotted);
        if let Ok(r) = resolved {
            if !r.hops.is_empty() {
                return Ok(Some(db.analyze_path(&dotted).map_err(QueryError::from)?));
            }
        }
    }
    Ok(None)
}

/// The replication path whose replicas an update of `q.set` would
/// maintain, with its model strategy: the first catalog path terminating
/// at the set's element type.
fn propagation_path(db: &Database, q: &UpdateQuery) -> Option<(String, ModelStrategy)> {
    let set_id = db.catalog().set_id(&q.set).ok()?;
    let elem = db.catalog().set(set_id).elem_type;
    db.catalog()
        .paths()
        .find(|p| p.terminal_type() == elem)
        .map(|p| {
            let strategy = match p.strategy {
                Strategy::InPlace => ModelStrategy::InPlace,
                Strategy::Separate => ModelStrategy::Separate,
            };
            (p.expr.to_string(), strategy)
        })
}

/// Join predictions with measured profile operators into report rows.
/// Every measured operator appears (unclaimed ones predict 0 pages);
/// unmatched predictions appear with no measurement.
fn join_rows(
    predictions: &[OpPrediction],
    measured: Option<&fieldrep_obs::Profile>,
) -> Vec<ExplainRow> {
    let Some(profile) = measured else {
        return predictions
            .iter()
            .map(|p| ExplainRow {
                op: p.key.clone(),
                metric: obs_names::drift(p.metric),
                predicted: p.pages,
                measured: None,
                nanos: None,
            })
            .collect();
    };
    let mut claimed = vec![false; predictions.len()];
    let mut rows: Vec<ExplainRow> = profile
        .ops
        .iter()
        .map(|op| {
            let hit = predictions
                .iter()
                .enumerate()
                .find(|(i, p)| !claimed[*i] && matches_op(&p.key, &op.name));
            let (metric, predicted) = match hit {
                Some((i, p)) => {
                    claimed[i] = true;
                    (obs_names::drift(p.metric), p.pages)
                }
                None => (None, 0.0),
            };
            ExplainRow {
                op: op.name.clone(),
                metric,
                predicted,
                measured: Some(op.io.disk_total()),
                nanos: Some(op.nanos),
            }
        })
        .collect();
    for (i, p) in predictions.iter().enumerate() {
        if !claimed[i] {
            rows.push(ExplainRow {
                op: p.key.clone(),
                metric: obs_names::drift(p.metric),
                predicted: p.pages,
                measured: Some(0),
                nanos: None,
            });
        }
    }
    rows
}

/// Record per-operator and total drift in the `costmodel.drift.*` gauge
/// family (rounded percent), so conformance shows up in every metrics
/// export alongside the raw storage counters.
fn record_drift(e: &Explain) {
    let reg = registry();
    for row in &e.rows {
        if let (Some(metric), Some(drift)) = (row.metric, row.drift()) {
            reg.gauge(metric).set(drift.round() as i64);
        }
    }
    if let Some(total) = e.total_drift() {
        reg.gauge(obs_names::COSTMODEL_DRIFT_TOTAL)
            .set(total.round() as i64);
    }
    reg.counter(obs_names::COSTMODEL_CONFORMANCE_QUERIES).inc();
}

/// The replication-path expressions a plan reads through (projection
/// replicas and collapse jumps; separate projections list every path of
/// their group).
fn plan_path_exprs(db: &Database, plan: &Plan) -> Vec<String> {
    let mut v = Vec::new();
    for p in &plan.projections {
        match p {
            ProjPlan::InPlaceReplica { path, .. } | ProjPlan::CollapseThenJoin { path, .. } => {
                v.push(db.catalog().path(*path).expr.to_string());
            }
            ProjPlan::SeparateReplica { group, .. } => {
                for gp in &db.catalog().group(*group).paths {
                    v.push(db.catalog().path(*gp).expr.to_string());
                }
            }
            _ => {}
        }
    }
    v
}

/// Look up the observed workload for each (deduplicated) path expression.
fn observed_workload(
    db: &Database,
    exprs: impl IntoIterator<Item = String>,
) -> Vec<(String, fieldrep_core::PathWorkload)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for e in exprs {
        if seen.insert(e.clone()) {
            if let Some(w) = db.workload().get(&e) {
                out.push((e, w));
            }
        }
    }
    out
}

fn build_explain(
    plan: Plan,
    est: Estimate,
    predictions: Vec<OpPrediction>,
    profile: Option<&fieldrep_obs::Profile>,
    result_rows: Option<usize>,
    observed: Vec<(String, fieldrep_core::PathWorkload)>,
) -> Explain {
    let rows = join_rows(&predictions, profile);
    let predicted_total = predictions.iter().map(|p| p.pages).sum();
    let measured_total = profile.map(|p| p.total_io.disk_total());
    Explain {
        plan,
        rows,
        params: est.params,
        setting: est.setting,
        predicted_total,
        measured_total,
        result_rows,
        observed,
    }
}

/// `EXPLAIN <read query>`: compile and predict, without executing.
pub fn explain_read(db: &mut Database, q: &ReadQuery) -> Result<Explain> {
    let plan = q.plan(db)?;
    let est = estimate_read(db, q, &plan, None)?;
    let predictions = predict_read(&est.params, est.setting, &read_shape(&plan, q));
    let observed = observed_workload(db, plan_path_exprs(db, &plan));
    Ok(build_explain(plan, est, predictions, None, None, observed))
}

/// `EXPLAIN ANALYZE <read query>`: execute against a cold buffer pool and
/// report predicted vs. measured page I/O per operator. Selectivity uses
/// the actual qualifying-row count (like the "actual rows" of relational
/// EXPLAIN ANALYZE), and the drift gauges are updated.
pub fn explain_analyze_read(db: &mut Database, q: &ReadQuery) -> Result<(Explain, QueryResult)> {
    // Estimation scans live data — do it before the profiled window.
    let plan = q.plan(db)?;
    db.flush_all().map_err(QueryError::from)?;
    db.reset_profile();
    let result = q.run(db)?;
    let est = estimate_read(db, q, &plan, Some(result.rows.len()))?;
    let predictions = predict_read(&est.params, est.setting, &read_shape(&plan, q));
    let observed = observed_workload(db, plan_path_exprs(db, &plan));
    let e = build_explain(
        plan,
        est,
        predictions,
        Some(&result.profile),
        Some(result.rows.len()),
        observed,
    );
    record_drift(&e);
    Ok((e, result))
}

/// `EXPLAIN <update query>`: compile and predict, without executing.
pub fn explain_update(db: &mut Database, q: &UpdateQuery) -> Result<Explain> {
    let plan = q.plan(db)?;
    let est = estimate_update(db, q, &plan, None)?;
    let shape = UpdateShape {
        access: access_shape(&plan),
        propagation: propagation_path(db, q)
            .map(|(_, s)| s)
            .unwrap_or(ModelStrategy::None),
    };
    let predictions = predict_update(&est.params, est.setting, &shape);
    let observed = observed_workload(db, propagation_path(db, q).map(|(expr, _)| expr));
    Ok(build_explain(plan, est, predictions, None, None, observed))
}

/// `EXPLAIN ANALYZE <update query>`: execute against a cold pool and
/// report predicted vs. measured I/O, including the carved-out
/// `core.propagate` operator.
pub fn explain_analyze_update(
    db: &mut Database,
    q: &UpdateQuery,
) -> Result<(Explain, UpdateResult)> {
    let plan = q.plan(db)?;
    let shape = UpdateShape {
        access: access_shape(&plan),
        propagation: propagation_path(db, q)
            .map(|(_, s)| s)
            .unwrap_or(ModelStrategy::None),
    };
    db.flush_all().map_err(QueryError::from)?;
    db.reset_profile();
    let result = q.run(db)?;
    let est = estimate_update(db, q, &plan, Some(result.updated))?;
    let predictions = predict_update(&est.params, est.setting, &shape);
    let observed = observed_workload(db, propagation_path(db, q).map(|(expr, _)| expr));
    let e = build_explain(
        plan,
        est,
        predictions,
        Some(&result.profile),
        Some(result.updated),
        observed,
    );
    record_drift(&e);
    Ok((e, result))
}

/// Render a report. With measurements, each row shows predicted vs.
/// measured pages and the drift percentage.
pub fn render(e: &Explain) -> String {
    let analyze = e.measured_total.is_some();
    let mut out = String::new();
    out.push_str(&e.plan.to_string());
    let _ = writeln!(
        out,
        "model: f={:.1} |S|={} f_r={:.4} f_s={:.4} ({:?})",
        e.params.sharing,
        e.params.s_count as u64,
        e.params.read_sel,
        e.params.update_sel,
        e.setting
    );
    for (expr, w) in &e.observed {
        let _ = writeln!(
            out,
            "observed: {expr} P_up={:.3} f={:.1} reads={} updates={} pages r/u={:.1}/{:.1}",
            w.p_up(),
            w.fanout_ewma,
            w.reads,
            w.updates,
            w.read_pages_ewma,
            w.update_pages_ewma
        );
    }
    if analyze {
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>10} {:>8} {:>10}",
            "operator", "predicted", "measured", "drift", "ms"
        );
    } else {
        let _ = writeln!(out, "  {:<40} {:>10}", "operator", "predicted");
    }
    for row in &e.rows {
        if analyze {
            let _ = writeln!(
                out,
                "  {:<40} {:>10.1} {:>10} {:>+7.0}% {:>10.3}",
                row.op,
                row.predicted,
                row.measured.unwrap_or(0),
                row.drift().unwrap_or(0.0),
                row.nanos.unwrap_or(0) as f64 / 1e6
            );
        } else {
            let _ = writeln!(out, "  {:<40} {:>10.1}", row.op, row.predicted);
        }
    }
    if analyze {
        let _ = writeln!(
            out,
            "  {:<40} {:>10.1} {:>10} {:>+7.0}%",
            "total",
            e.predicted_total,
            e.measured_total.unwrap_or(0),
            e.total_drift().unwrap_or(0.0)
        );
    } else {
        let _ = writeln!(out, "  {:<40} {:>10.1}", "total", e.predicted_total);
    }
    if let Some(rows) = e.result_rows {
        let _ = writeln!(out, "rows: {rows}");
    }
    out
}
