//! Per-operator cost predictions for compiled plans (EXPLAIN support).
//!
//! The §6 equations in [`crate::costs`] predict the *total* page I/O of a
//! read or update query. EXPLAIN ANALYZE needs those same predictions
//! *attributed to individual plan operators* so each one can be compared
//! against the measured per-operator I/O of the executor's `Profile`.
//! This module re-derives the cost terms operator by operator, using the
//! identical primitives ([`yao`], [`index_read`], [`seq_pages`]); for a
//! §6-shaped plan the per-operator predictions sum exactly to the
//! corresponding `read_cost`/`update_cost` total (pinned by tests below),
//! so the paper's Figure 12/14 reference points carry over unchanged.
//!
//! The module stays free of engine types on purpose (this crate is pure
//! math): callers describe their plan as a [`ReadShape`]/[`UpdateShape`]
//! and join the returned predictions to measured operators by name
//! prefix ([`OpPrediction::key`]).

use crate::costs::{index_read, seq_pages};
use crate::params::{IndexSetting, ModelStrategy, Params};
use crate::yao::yao;

/// Shape of the access-path operator of a compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessShape {
    /// Sequential scan of the whole source file.
    FullScan,
    /// B⁺-tree range/equality probe on a base field.
    IndexRange,
    /// B⁺-tree probe on a path index (§3.3.4); costed like a base index.
    PathIndexRange,
}

/// Shape of one projection operator of a compiled read plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjShape {
    /// Field of the source object itself — no extra I/O.
    BaseField,
    /// In-place replica (§4): the value travels with the source object.
    InPlaceReplica,
    /// Separate replica (§5): one fetch into the S′ file per source.
    SeparateReplica,
    /// Functional join traversing `levels` reference hops, one object
    /// fetch batch per hop.
    FunctionalJoin {
        /// Number of fetch batches (one per traversed file).
        levels: usize,
    },
    /// Collapsed path (§3.3.3): the stored replica jumps straight to a
    /// midpoint, leaving `remaining_levels` fetch batches.
    CollapseThenJoin {
        /// Fetch batches still required after the collapse jump.
        remaining_levels: usize,
    },
}

/// Shape of a compiled read plan, as far as the cost model cares.
#[derive(Clone, Debug)]
pub struct ReadShape {
    /// The access path.
    pub access: AccessShape,
    /// One entry per projection, in plan order.
    pub projections: Vec<ProjShape>,
    /// Whether qualifying rows are spooled to an output file T.
    pub spool: bool,
}

/// Shape of a compiled update plan.
#[derive(Clone, Debug)]
pub struct UpdateShape {
    /// The access path.
    pub access: AccessShape,
    /// Replica-maintenance work triggered by the update:
    /// `ModelStrategy::None` when the touched field has no replicas.
    pub propagation: ModelStrategy,
}

/// Every drift-gauge metric suffix a prediction may carry. The EXPLAIN
/// ANALYZE layer records each operator's drift under the registered
/// `costmodel.drift.<suffix>` gauge `fieldrep_obs::names::drift` maps it
/// to; the query layer's tests check that this list and the registered
/// gauges are the same set, so a new operator metric cannot ship without
/// its gauge (and vice versa).
pub const DRIFT_METRICS: &[&str] = &[
    "plan",
    "access",
    "sync",
    "fetch",
    "proj.base-field",
    "proj.inplace-replica",
    "proj.separate-replica",
    "proj.functional-join",
    "proj.collapse",
    "spool",
    "apply",
    "propagate",
];

/// Predicted page I/O for one plan operator.
#[derive(Clone, Debug)]
pub struct OpPrediction {
    /// Matched (by prefix, see [`matches_op`]) against the executor's
    /// `Profile` operator names: `"plan"`, `"access"`, `"fetch"`,
    /// `"proj[0]"`, `"spool"`, `"apply"`, `"core.propagate"`, …
    pub key: String,
    /// Stable metric suffix for the `costmodel.drift.{operator}` gauge
    /// family (e.g. `"fetch"`, `"proj.separate-replica"`).
    pub metric: &'static str,
    /// Expected page I/Os.
    pub pages: f64,
}

impl OpPrediction {
    fn new(key: &str, metric: &'static str, pages: f64) -> OpPrediction {
        debug_assert!(
            DRIFT_METRICS.contains(&metric),
            "operator metric {metric:?} missing from DRIFT_METRICS"
        );
        OpPrediction {
            key: key.to_string(),
            metric,
            pages,
        }
    }
}

/// Does a measured `Profile` operator name belong to a prediction key?
/// Exact match, or the prediction key followed by a `:`-separated detail
/// suffix (`"access"` matches `"access:index-range(Unclustered #1)"`,
/// `"proj[0]"` matches `"proj[0]:replica(in-place)"`).
pub fn matches_op(prediction_key: &str, op_name: &str) -> bool {
    op_name == prediction_key
        || (op_name.len() > prediction_key.len()
            && op_name.starts_with(prediction_key)
            && op_name.as_bytes()[prediction_key.len()] == b':')
}

/// Drift of a measured value from its prediction, in percent. The
/// denominator is clamped to one page so near-zero predictions (planner
/// bookkeeping, empty result sets) cannot explode the percentage.
pub fn drift_pct(predicted: f64, measured: f64) -> f64 {
    100.0 * (measured - predicted) / predicted.max(1.0)
}

/// The strategy whose file-size adjustments (§6.3) govern a read plan:
/// in-place replicas grow R by `k`, separate replicas by an OID.
fn read_strategy(shape: &ReadShape) -> ModelStrategy {
    let mut strategy = ModelStrategy::None;
    for proj in &shape.projections {
        match proj {
            ProjShape::InPlaceReplica | ProjShape::CollapseThenJoin { .. } => {
                return ModelStrategy::InPlace;
            }
            ProjShape::SeparateReplica => strategy = ModelStrategy::Separate,
            ProjShape::BaseField | ProjShape::FunctionalJoin { .. } => {}
        }
    }
    strategy
}

/// Per-operator predictions for a read plan. Keys follow the executor's
/// mark order: `plan`, `access`, `sync`, `fetch`, `proj[i]`, `spool`.
pub fn predict_read(p: &Params, setting: IndexSetting, shape: &ReadShape) -> Vec<OpPrediction> {
    let d = p.derive(read_strategy(shape));
    let r_n = p.r_count();
    let picked = p.read_sel * r_n;

    let mut ops = vec![OpPrediction::new("plan", "plan", 0.0)];
    let access_pages = match shape.access {
        AccessShape::FullScan => d.p_r,
        AccessShape::IndexRange | AccessShape::PathIndexRange => index_read(p, r_n, p.read_sel),
    };
    ops.push(OpPrediction::new("access", "access", access_pages));
    ops.push(OpPrediction::new("sync", "sync", 0.0));

    // A full scan already pulled every source page through the pool, so
    // the fetch stage re-reads nothing the model should charge for.
    let fetch_pages = match (shape.access, setting) {
        (AccessShape::FullScan, _) => 0.0,
        (_, IndexSetting::Unclustered) => d.p_r * yao(r_n, d.o_r, picked),
        (_, IndexSetting::Clustered) => seq_pages(p.read_sel, r_n, d.o_r),
    };
    ops.push(OpPrediction::new("fetch", "fetch", fetch_pages));

    for (i, proj) in shape.projections.iter().enumerate() {
        let (metric, pages) = match proj {
            ProjShape::BaseField => ("proj.base-field", 0.0),
            ProjShape::InPlaceReplica => ("proj.inplace-replica", 0.0),
            ProjShape::SeparateReplica => (
                "proj.separate-replica",
                d.p_sp * yao(r_n, p.sharing * d.o_sp, picked),
            ),
            ProjShape::FunctionalJoin { levels } => (
                "proj.functional-join",
                *levels as f64 * d.p_s * yao(r_n, p.sharing * d.o_s, picked),
            ),
            ProjShape::CollapseThenJoin { remaining_levels } => (
                "proj.collapse",
                *remaining_levels as f64 * d.p_s * yao(r_n, p.sharing * d.o_s, picked),
            ),
        };
        ops.push(OpPrediction::new(&format!("proj[{i}]"), metric, pages));
    }

    let spool_pages = if shape.spool { d.p_t } else { 0.0 };
    ops.push(OpPrediction::new("spool", "spool", spool_pages));
    ops
}

/// Per-operator predictions for an update plan. Keys follow the
/// executor's mark order: `plan`, `access`, `apply`, `core.propagate`.
pub fn predict_update(p: &Params, setting: IndexSetting, shape: &UpdateShape) -> Vec<OpPrediction> {
    let d = p.derive(shape.propagation);
    let s_n = p.s_count;
    let picked = p.update_sel * s_n;

    let mut ops = vec![OpPrediction::new("plan", "plan", 0.0)];
    let access_pages = match shape.access {
        AccessShape::FullScan => d.p_s,
        AccessShape::IndexRange | AccessShape::PathIndexRange => index_read(p, s_n, p.update_sel),
    };
    ops.push(OpPrediction::new("access", "access", access_pages));

    let apply_pages = match setting {
        IndexSetting::Unclustered => 2.0 * d.p_s * yao(s_n, d.o_s, picked),
        IndexSetting::Clustered => 2.0 * seq_pages(p.update_sel, s_n, d.o_s),
    };
    ops.push(OpPrediction::new("apply", "apply", apply_pages));

    let propagate_pages = match shape.propagation {
        ModelStrategy::None => 0.0,
        ModelStrategy::InPlace => {
            let read_l = if p.inline_link_elimination && p.sharing <= 1.0 {
                0.0
            } else {
                match setting {
                    IndexSetting::Unclustered => d.p_l * yao(s_n, d.o_l, picked),
                    IndexSetting::Clustered => p.update_sel * d.p_l,
                }
            };
            let r_n = p.r_count();
            read_l + 2.0 * d.p_r * yao(r_n, d.o_r, p.update_sel * r_n)
        }
        ModelStrategy::Separate => match setting {
            IndexSetting::Unclustered => 2.0 * d.p_sp * yao(s_n, d.o_sp, picked),
            IndexSetting::Clustered => 2.0 * seq_pages(p.update_sel, s_n, d.o_sp),
        },
    };
    ops.push(OpPrediction::new(
        "core.propagate",
        "propagate",
        propagate_pages,
    ));
    ops
}

/// Sum of all predicted pages.
pub fn predicted_total(ops: &[OpPrediction]) -> f64 {
    ops.iter().map(|o| o.pages).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{read_cost, update_cost};

    fn params(f: f64) -> Params {
        Params {
            sharing: f,
            read_sel: 0.002,
            ..Params::default()
        }
    }

    fn read_shape(strategy: ModelStrategy) -> ReadShape {
        let proj = match strategy {
            ModelStrategy::None => ProjShape::FunctionalJoin { levels: 1 },
            ModelStrategy::InPlace => ProjShape::InPlaceReplica,
            ModelStrategy::Separate => ProjShape::SeparateReplica,
        };
        ReadShape {
            access: AccessShape::IndexRange,
            projections: vec![proj],
            spool: true,
        }
    }

    const ALL: [ModelStrategy; 3] = [
        ModelStrategy::None,
        ModelStrategy::InPlace,
        ModelStrategy::Separate,
    ];
    const SETTINGS: [IndexSetting; 2] = [IndexSetting::Unclustered, IndexSetting::Clustered];

    /// For §6-shaped plans the per-operator predictions sum to exactly
    /// the same totals as the twelve closed-form equations.
    #[test]
    fn per_operator_predictions_telescope_to_cost_totals() {
        for f in [1.0, 10.0, 20.0, 50.0] {
            let p = params(f);
            for strategy in ALL {
                for setting in SETTINGS {
                    let read = predict_read(&p, setting, &read_shape(strategy));
                    let want = read_cost(&p, strategy, setting).total();
                    assert!(
                        (predicted_total(&read) - want).abs() < 1e-9,
                        "read {strategy:?}/{setting:?} f={f}: {} vs {want}",
                        predicted_total(&read)
                    );

                    let upd = predict_update(
                        &p,
                        setting,
                        &UpdateShape {
                            access: AccessShape::IndexRange,
                            propagation: strategy,
                        },
                    );
                    let want = update_cost(&p, strategy, setting).total();
                    assert!(
                        (predicted_total(&upd) - want).abs() < 1e-9,
                        "update {strategy:?}/{setting:?} f={f}: {} vs {want}",
                        predicted_total(&upd)
                    );
                }
            }
        }
    }

    /// Pin the predictions at the paper's Figure 12 (unclustered, f=20,
    /// f_r=.002) and Figure 14 (clustered) reference points, ±1 I/O.
    #[test]
    fn figure_reference_points() {
        let cases: &[(IndexSetting, ModelStrategy, u64, u64)] = &[
            (IndexSetting::Unclustered, ModelStrategy::None, 691, 22),
            (IndexSetting::Unclustered, ModelStrategy::InPlace, 407, 427),
            (IndexSetting::Unclustered, ModelStrategy::Separate, 509, 42),
            (IndexSetting::Clustered, ModelStrategy::None, 316, 4),
            (IndexSetting::Clustered, ModelStrategy::InPlace, 32, 400),
            (IndexSetting::Clustered, ModelStrategy::Separate, 133, 6),
        ];
        let p = params(20.0);
        for &(setting, strategy, want_read, want_update) in cases {
            let read =
                predicted_total(&predict_read(&p, setting, &read_shape(strategy))).ceil() as u64;
            assert!(
                read.abs_diff(want_read) <= 1,
                "read {strategy:?}/{setting:?}: got {read}, paper {want_read}"
            );
            let upd = predicted_total(&predict_update(
                &p,
                setting,
                &UpdateShape {
                    access: AccessShape::IndexRange,
                    propagation: strategy,
                },
            ))
            .ceil() as u64;
            assert!(
                upd.abs_diff(want_update) <= 1,
                "update {strategy:?}/{setting:?}: got {upd}, paper {want_update}"
            );
        }
    }

    /// The prediction keys line up, by prefix, with the executor's
    /// Profile operator names.
    #[test]
    fn keys_match_profile_names_by_prefix() {
        assert!(matches_op("access", "access:index-range(Unclustered #1)"));
        assert!(matches_op("proj[0]", "proj[0]:replica(in-place)"));
        assert!(matches_op("plan", "plan"));
        assert!(!matches_op("proj[0]", "proj[1]:base-field(#2)"));
        assert!(!matches_op("access", "accessory"));
        assert!(!matches_op("fetch", "proj[0]:fetch"));
    }

    /// A full scan charges the whole file at the access stage and
    /// nothing at the fetch stage.
    #[test]
    fn full_scan_moves_cost_to_access() {
        let p = params(10.0);
        let shape = ReadShape {
            access: AccessShape::FullScan,
            projections: vec![ProjShape::BaseField],
            spool: false,
        };
        let ops = predict_read(&p, IndexSetting::Unclustered, &shape);
        let of = |k: &str| ops.iter().find(|o| o.key == k).unwrap().pages;
        let d = p.derive(ModelStrategy::None);
        assert!((of("access") - d.p_r).abs() < 1e-9);
        assert_eq!(of("fetch"), 0.0);
        assert_eq!(of("proj[0]"), 0.0);
        assert_eq!(of("spool"), 0.0);
    }

    /// Multi-level functional joins charge one Yao batch per level.
    #[test]
    fn join_levels_scale_linearly() {
        let p = params(10.0);
        let shape_of = |levels| ReadShape {
            access: AccessShape::IndexRange,
            projections: vec![ProjShape::FunctionalJoin { levels }],
            spool: false,
        };
        let one = predict_read(&p, IndexSetting::Unclustered, &shape_of(1));
        let three = predict_read(&p, IndexSetting::Unclustered, &shape_of(3));
        let proj = |ops: &[OpPrediction]| ops.iter().find(|o| o.key == "proj[0]").unwrap().pages;
        assert!((proj(&three) - 3.0 * proj(&one)).abs() < 1e-9);
    }

    /// Every metric a prediction can emit is declared in `DRIFT_METRICS`
    /// (the list the query layer checks against the obs name registry).
    #[test]
    fn emitted_metrics_are_all_declared() {
        let p = params(20.0);
        let mut shapes = vec![ReadShape {
            access: AccessShape::FullScan,
            projections: vec![
                ProjShape::BaseField,
                ProjShape::InPlaceReplica,
                ProjShape::SeparateReplica,
                ProjShape::FunctionalJoin { levels: 2 },
                ProjShape::CollapseThenJoin {
                    remaining_levels: 1,
                },
            ],
            spool: true,
        }];
        shapes.push(read_shape(ModelStrategy::InPlace));
        for shape in &shapes {
            for op in predict_read(&p, IndexSetting::Unclustered, shape) {
                assert!(DRIFT_METRICS.contains(&op.metric), "{}", op.metric);
            }
        }
        for strategy in ALL {
            for op in predict_update(
                &p,
                IndexSetting::Clustered,
                &UpdateShape {
                    access: AccessShape::FullScan,
                    propagation: strategy,
                },
            ) {
                assert!(DRIFT_METRICS.contains(&op.metric), "{}", op.metric);
            }
        }
    }

    #[test]
    fn drift_is_zero_when_exact_and_guarded_near_zero() {
        assert_eq!(drift_pct(40.0, 40.0), 0.0);
        assert!((drift_pct(40.0, 50.0) - 25.0).abs() < 1e-9);
        assert!((drift_pct(0.0, 2.0) - 200.0).abs() < 1e-9); // clamped denominator
        assert_eq!(drift_pct(0.0, 0.0), 0.0);
    }
}
