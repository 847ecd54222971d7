//! The page-count suite and its regression gate.
//!
//! [`run_suite`] executes a fixed measurement matrix — the §6 read and
//! update workloads across sharing levels, settings, and strategies,
//! plus propagation fan-out and EXPLAIN-ANALYZE model drift — and the
//! analytical Figure 12/14 reference cells, producing a [`SuiteReport`]
//! of page counts only. Every field is deterministic, so the report
//! `bench_suite` writes is byte-identical run to run and the committed
//! `BENCH_BASELINE.json` is one such run. [`gate`] diffs a fresh report
//! against that baseline point-by-point and reports violations (page I/O
//! or read calls up more than [`MAX_IO_REGRESS_PCT`], model drift beyond
//! [`MAX_DRIFT_PCT`], or vanished points), which `bench_suite --gate` /
//! `scripts/bench_gate.sh` turn into a nonzero exit. Timing lives in
//! `benchmark/`, not here.

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
/// [`SuiteReport::to_json`]; [`SuiteReport::parse`] rejects every other
/// version so the gate never diffs incompatible reports.
pub const BENCH_SCHEMA_VERSION: u32 = 4;

/// What the suite measures.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// `|S|` per workload.
    pub s_count: usize,
    /// Sharing levels to sweep.
    pub sharings: Vec<usize>,
    /// Index settings to sweep.
    pub settings: Vec<IndexSetting>,
    /// Queries averaged per measured point.
    pub queries: usize,
    /// Read selectivity (the paper's `f_r`).
    pub read_sel: f64,
    /// Update selectivity (the paper's `f_s`).
    pub update_sel: f64,
}

impl SuiteConfig {
    /// The matrix `bench_suite` runs and the baseline records (a
    /// scaled-down |S| keeps it at a couple of seconds; the paper-scale
    /// run is `repro empirical`).
    pub fn full() -> SuiteConfig {
        SuiteConfig {
            s_count: 2000,
            sharings: vec![1, 10, 20],
            settings: vec![IndexSetting::Unclustered, IndexSetting::Clustered],
            queries: 3,
            read_sel: 0.001,
            update_sel: 0.001,
        }
    }

    fn spec(
        &self,
        sharing: usize,
        setting: IndexSetting,
        strategy: crate::StrategyOpt,
    ) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper(sharing, setting, strategy).scaled(self.s_count);
        spec.read_sel = self.read_sel;
        spec.update_sel = self.update_sel;
        spec
    }
}

/// One benchmark point: a stable id, what was measured, what the model
/// predicted, and the drift between them.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    /// Stable identifier, e.g. `io/unclustered/f10/in-place/read`.
    pub id: String,
    /// Measured page I/O (for `model/…` points, the analytical value —
    /// so gating also catches accidental cost-model changes).
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

/// A full suite run, serialisable to/from JSON.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Caller-supplied run identifier (CI job id, PR number, …).
    pub run_id: String,
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
pub fn run_suite(cfg: &SuiteConfig, run_id: &str) -> Result<SuiteReport, String> {
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
    for &setting in &cfg.settings {
        for &sharing in &cfg.sharings {
            for strategy in ALL_STRATEGIES {
                let spec = cfg.spec(sharing, setting, strategy);
                let strat = strategy_name(strategy);
                let base = format!("io/{}/f{sharing}/{strat}", setting_name(setting));
                let (mut w, cell) = measure_cell(spec, cfg.queries).map_err(|e| e.to_string())?;
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

    Ok(SuiteReport {
        run_id: run_id.to_string(),
        points,
    })
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
            "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"run_id\":{},\"points\":[\n{}\n]}}",
            Json::Str(self.run_id.clone()).render(),
            points.join(",\n")
        )
    }

    /// Parse a report written by [`SuiteReport::to_json`]. Any schema
    /// version but the current one is an error.
    pub fn parse(src: &str) -> Result<SuiteReport, String> {
        let doc = Json::parse(src)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")?;
        if version != f64::from(BENCH_SCHEMA_VERSION) {
            return Err(format!(
                "schema_version {version} unsupported (expected {BENCH_SCHEMA_VERSION})"
            ));
        }
        let num = |p: &Json, k: &str| -> Result<f64, String> {
            p.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("point missing {k}"))
        };
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("missing points")?
            .iter()
            .map(|p| {
                Ok(BenchPoint {
                    id: p
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or("point missing id")?
                        .to_string(),
                    measured_io: num(p, "measured_io")?,
                    model_io: num(p, "model_io")?,
                    drift_pct: num(p, "drift_pct")?,
                    batch_io: num(p, "batch_io")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SuiteReport {
            run_id: doc
                .get("run_id")
                .and_then(Json::as_str)
                .ok_or("missing run_id")?
                .to_string(),
            points,
        })
    }
}

/// Maximum allowed increase of a point's measured page I/O, or of its
/// disk read calls, vs. the baseline, %.
pub const MAX_IO_REGRESS_PCT: f64 = 10.0;
/// Maximum allowed |model drift| on `drift/…` points, %.
pub const MAX_DRIFT_PCT: f64 = 60.0;

/// Diff `new` against `old`; returns human-readable violations (empty =
/// gate passes). Both counts are deterministic, so any increase is a
/// code change, never noise; improvements pass.
pub fn gate(old: &SuiteReport, new: &SuiteReport) -> Vec<String> {
    let mut violations = Vec::new();
    for op in &old.points {
        let Some(np) = new.points.iter().find(|p| p.id == op.id) else {
            violations.push(format!("{}: point missing from new report", op.id));
            continue;
        };
        for (what, unit, was, now) in [
            ("measured I/O", "pages", op.measured_io, np.measured_io),
            ("disk read calls", "calls", op.batch_io, np.batch_io),
        ] {
            let regress = 100.0 * (now - was) / was.max(1.0);
            if regress > MAX_IO_REGRESS_PCT {
                violations.push(format!(
                    "{}: {what} regressed {regress:.1}% ({was:.1} -> {now:.1} {unit}, \
                     limit {MAX_IO_REGRESS_PCT:.0}%)",
                    op.id
                ));
            }
        }
    }
    for np in &new.points {
        if np.id.starts_with("drift/") && np.drift_pct.abs() > MAX_DRIFT_PCT {
            violations.push(format!(
                "{}: model drift {:+.1}% exceeds ±{MAX_DRIFT_PCT:.0}% (predicted {:.1}, \
                 measured {:.1})",
                np.id, np.drift_pct, np.model_io, np.measured_io
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_obs::{export, registry};

    /// Tiny workloads, one setting, selectivities raised so every query
    /// touches rows.
    fn tiny_report() -> SuiteReport {
        let cfg = SuiteConfig {
            s_count: 180,
            sharings: vec![2],
            settings: vec![IndexSetting::Unclustered],
            queries: 1,
            read_sel: 0.02,
            update_sel: 0.02,
        };
        run_suite(&cfg, "test-run").unwrap()
    }

    fn first_io(r: &mut SuiteReport) -> &mut BenchPoint {
        r.points
            .iter_mut()
            .find(|p| p.id.starts_with("io/"))
            .unwrap()
    }

    #[test]
    fn suite_report_roundtrips_and_carries_drift_metrics() {
        let r = tiny_report();
        assert!(r.points.iter().any(|p| p.id.starts_with("io/")));
        assert!(r.points.iter().any(|p| p.id.starts_with("propagation/")));
        assert!(r.points.iter().any(|p| p.id.starts_with("drift/")));
        assert_eq!(
            r.points
                .iter()
                .filter(|p| p.id.starts_with("model/"))
                .count(),
            24,
            "2 figures x 2 sharing levels x 3 strategies x read+update"
        );
        assert!(
            export::snapshot_jsonl(&registry().snapshot())
                .iter()
                .any(|l| l.contains("costmodel.drift.")),
            "the drift points must leave their gauges in the registry"
        );
        let back = SuiteReport::parse(&r.to_json()).unwrap();
        assert_eq!(back.points, r.points);
        assert_eq!(back.run_id, "test-run");
    }

    #[test]
    fn same_config_and_run_id_render_the_same_bytes() {
        assert_eq!(tiny_report().to_json(), tiny_report().to_json());
    }

    #[test]
    fn gate_passes_on_identical_reports_and_fails_on_injected_regression() {
        let r = tiny_report();
        assert!(gate(&r, &r).is_empty());

        let mut worse = r.clone();
        first_io(&mut worse).measured_io *= 1.5;
        let v = gate(&r, &worse);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("measured I/O regressed"), "{v:?}");

        let mut missing = r.clone();
        missing.points.retain(|p| !p.id.starts_with("drift/"));
        assert!(!gate(&r, &missing).is_empty());
    }

    #[test]
    fn gate_fails_on_injected_read_call_regression() {
        let r = tiny_report();
        let mut chatty = r.clone();
        let p = first_io(&mut chatty);
        assert!(p.batch_io > 0.0, "{}: read calls must be recorded", p.id);
        p.batch_io *= 1.5;
        let v = gate(&r, &chatty);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("disk read calls regressed"), "{v:?}");
        // Fewer calls for the same pages is the batching win: passes.
        let mut better = r.clone();
        first_io(&mut better).batch_io *= 0.5;
        assert!(gate(&r, &better).is_empty());
    }

    #[test]
    fn gate_flags_excess_drift_in_new_report() {
        let r = tiny_report();
        let mut drifted = r.clone();
        let d = drifted
            .points
            .iter_mut()
            .find(|p| p.id.starts_with("drift/"))
            .unwrap();
        d.drift_pct = 95.0;
        let v = gate(&r, &drifted);
        assert!(v.iter().any(|m| m.contains("model drift")), "{v:?}");
    }

    #[test]
    fn parse_rejects_other_schema_versions() {
        let json = tiny_report().to_json();
        let current = format!("\"schema_version\":{BENCH_SCHEMA_VERSION}");
        assert!(json.contains(&current));
        for other in ["1", "2", "3", "99"] {
            let doc = json.replacen(&current, &format!("\"schema_version\":{other}"), 1);
            assert!(
                SuiteReport::parse(&doc).is_err(),
                "v{other} must be rejected"
            );
        }
    }
}
