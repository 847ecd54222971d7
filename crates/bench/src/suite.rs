//! The page-count suite.
//!
//! [`run_suite`] executes a fixed measurement matrix — the §6 read and
//! update workloads across sharing levels, settings, and strategies,
//! plus propagation fan-out and EXPLAIN-ANALYZE model drift — and the
//! analytical Figure 12/14 reference cells, producing a [`SuiteReport`]
//! of page counts only. Every field is deterministic, so
//! [`SuiteReport::to_json`] renders the same bytes run to run and the
//! committed `BENCH_BASELINE.json` is one such run. `tests/baseline.rs`
//! requires the working tree to reproduce it byte for byte; `bench_suite`
//! re-records it. Timing lives in `benchmark/`, not here.

use crate::figures::selected_points;
use crate::{
    measure_cell, profile_update_query, read_query, strategy_name, WorkloadSpec, ALL_STRATEGIES,
};
use fieldrep_costmodel::{
    drift_pct, predict_update, AccessShape, IndexSetting, ModelStrategy, UpdateShape,
};
use fieldrep_obs::json::Json;
use fieldrep_query::explain_analyze_read;

/// Version of the report layout. Bump on any change to
/// [`SuiteReport::to_json`].
const BENCH_SCHEMA_VERSION: u32 = 4;

/// `|S|` per workload: scaled down from the paper's 10 000 so the matrix
/// runs in a couple of seconds (the paper-scale run is `repro empirical`).
const S_COUNT: usize = 2000;
/// Sharing levels swept.
const SHARINGS: [usize; 3] = [1, 10, 20];
/// Index settings swept.
const SETTINGS: [IndexSetting; 2] = [IndexSetting::Unclustered, IndexSetting::Clustered];
/// Queries averaged per measured point.
const QUERIES: usize = 3;

/// One benchmark point: a stable id, what was measured, what the model
/// predicted, and the drift between them.
#[derive(Clone, Debug)]
pub struct BenchPoint {
    /// Stable identifier, e.g. `io/unclustered/f10/in-place/read`.
    pub id: String,
    /// Measured page I/O (for `model/…` points, the analytical value —
    /// so the baseline also pins the cost model).
    pub measured_io: f64,
    /// Model-predicted page I/O.
    pub model_io: f64,
    /// `100·(measured − model)/model`.
    pub drift_pct: f64,
    /// Disk read *calls* per query (grouped batch reads count once) —
    /// the syscall/seek proxy; `measured_io / batch_io` ≈ mean batch
    /// length. 0 for non-`io/` points.
    pub batch_io: f64,
}

/// A full suite run, serialisable to JSON.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// All points, in matrix order.
    pub points: Vec<BenchPoint>,
}

fn setting_name(s: IndexSetting) -> &'static str {
    match s {
        IndexSetting::Unclustered => "unclustered",
        IndexSetting::Clustered => "clustered",
    }
}

/// Run the suite matrix. An engine error anywhere in the sweep is a
/// found bug, not a measurement problem — it fails the whole suite.
pub fn run_suite() -> Result<SuiteReport, String> {
    let mut points = Vec::new();

    // Analytical reference cells (Figures 12 and 14): pure model, so
    // any diff here means the cost model itself changed.
    for setting in [IndexSetting::Unclustered, IndexSetting::Clustered] {
        let fig = match setting {
            IndexSetting::Unclustered => "fig12",
            IndexSetting::Clustered => "fig14",
        };
        let (t1, t20) = selected_points(setting);
        for (f, table) in [(1, &t1), (20, &t20)] {
            for row in table {
                let strat = match row.strategy {
                    ModelStrategy::None => "none",
                    ModelStrategy::InPlace => "in-place",
                    ModelStrategy::Separate => "separate",
                };
                for (kind, v) in [("read", row.c_read), ("update", row.c_update)] {
                    points.push(BenchPoint {
                        id: format!("model/{fig}/f{f}/{strat}/{kind}"),
                        measured_io: v as f64,
                        model_io: v as f64,
                        drift_pct: 0.0,
                        batch_io: 0.0,
                    });
                }
            }
        }
    }

    // Measured matrix.
    for setting in SETTINGS {
        for sharing in SHARINGS {
            for strategy in ALL_STRATEGIES {
                let spec = WorkloadSpec::paper(sharing, setting, strategy).scaled(S_COUNT);
                let strat = strategy_name(strategy);
                let base = format!("io/{}/f{sharing}/{strat}", setting_name(setting));
                let (mut w, cell) = measure_cell(spec, QUERIES).map_err(|e| e.to_string())?;
                points.push(BenchPoint {
                    id: format!("{base}/read"),
                    measured_io: cell.read_measured,
                    model_io: cell.read_model,
                    drift_pct: drift_pct(cell.read_model, cell.read_measured),
                    batch_io: cell.read_calls,
                });
                points.push(BenchPoint {
                    id: format!("{base}/update"),
                    measured_io: cell.update_measured,
                    model_io: cell.update_model,
                    drift_pct: drift_pct(cell.update_model, cell.update_measured),
                    batch_io: cell.update_calls,
                });

                // Propagation fan-out: the `core.propagate` slice of one
                // profiled update vs. the model's propagation term.
                if strategy.is_some() {
                    let run = profile_update_query(&mut w, 0).map_err(|e| e.to_string())?;
                    let measured = run
                        .profile
                        .ops
                        .iter()
                        .find(|op| op.name == "core.propagate")
                        .map(|op| op.io.disk_total() as f64)
                        .unwrap_or(0.0);
                    let preds = predict_update(
                        &w.spec.params(),
                        setting,
                        &UpdateShape {
                            access: AccessShape::IndexRange,
                            propagation: w.spec.model_strategy(),
                        },
                    );
                    let model = preds
                        .iter()
                        .find(|p| p.metric == "propagate")
                        .map(|p| p.pages)
                        .unwrap_or(0.0);
                    points.push(BenchPoint {
                        id: format!("propagation/{}/f{sharing}/{strat}", setting_name(setting)),
                        measured_io: measured,
                        model_io: model,
                        drift_pct: drift_pct(model, measured),
                        batch_io: 0.0,
                    });
                }

                // EXPLAIN-ANALYZE conformance: total predicted vs.
                // measured I/O of one read query (records the
                // `costmodel.drift.*` gauges as a side effect).
                let q = read_query(&w, 0);
                let (e, res) = explain_analyze_read(&mut w.db, &q).map_err(|e| e.to_string())?;
                if let Some(f) = res.output_file {
                    w.db.sm().drop_file(f).ok();
                }
                points.push(BenchPoint {
                    id: format!("drift/{}/f{sharing}/{strat}/read", setting_name(setting)),
                    measured_io: e.measured_total.unwrap_or(0) as f64,
                    model_io: e.predicted_total,
                    drift_pct: e.total_drift().unwrap_or(0.0),
                    batch_io: 0.0,
                });
            }
        }
    }

    Ok(SuiteReport { points })
}

impl SuiteReport {
    /// Serialise to JSON, one point per line, so a re-recorded baseline
    /// diffs point by point.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(p.id.clone())),
                    ("measured_io".into(), Json::Num(p.measured_io)),
                    ("model_io".into(), Json::Num(p.model_io)),
                    ("drift_pct".into(), Json::Num(p.drift_pct)),
                    ("batch_io".into(), Json::Num(p.batch_io)),
                ])
                .render()
            })
            .collect();
        format!(
            "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"run_id\":\"baseline\",\"points\":[\n{}\n]}}",
            points.join(",\n")
        )
    }
}
