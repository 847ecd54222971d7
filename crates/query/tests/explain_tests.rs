//! EXPLAIN / EXPLAIN ANALYZE integration tests on a 3-level path
//! (`Emp1.dept.org.budget`) under all three replication strategies:
//! predictions must be present, measured per-operator I/O must telescope
//! to the query total, and the conformance gauges must reach the JSONL
//! exporter.

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_obs::{export, registry};
use fieldrep_query::{
    explain_analyze_read, explain_analyze_update, explain_read, render, Assign, Filter, ReadQuery,
    UpdateQuery,
};

/// 4 orgs ← 20 depts ← 400 employees, salaries dense in `0..400`, with
/// an unclustered index on the selection field.
fn make_db(strategy: Option<Strategy>) -> Database {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new(
        "ORG",
        vec![("name", FieldType::Str), ("budget", FieldType::Int)],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "DEPT",
        vec![
            ("name", FieldType::Str),
            ("org", FieldType::Ref("ORG".into())),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();

    let orgs: Vec<_> = (0..4)
        .map(|i| {
            db.insert(
                "Org",
                vec![Value::Str(format!("org{i}")), Value::Int(1000 * i as i64)],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<_> = (0..20)
        .map(|i| {
            db.insert(
                "Dept",
                vec![Value::Str(format!("dept{i}")), Value::Ref(orgs[i % 4])],
            )
            .unwrap()
        })
        .collect();
    for i in 0..400 {
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("emp{i}")),
                Value::Int(i as i64),
                Value::Ref(depts[i % 20]),
            ],
        )
        .unwrap();
    }
    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    if let Some(s) = strategy {
        db.replicate("Emp1.dept.org.budget", s).unwrap();
    }
    db.flush_all().unwrap();
    db.reset_profile();
    db
}

fn read_query() -> ReadQuery {
    ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(100),
            hi: Value::Int(139),
        })
        .project(["name", "dept.org.budget"])
}

const STRATEGIES: [Option<Strategy>; 3] = [None, Some(Strategy::InPlace), Some(Strategy::Separate)];

#[test]
fn explain_predicts_without_executing() {
    for strategy in STRATEGIES {
        let mut db = make_db(strategy);
        let e = explain_read(&mut db, &read_query()).unwrap();
        assert!(e.measured_total.is_none());
        assert!(e.result_rows.is_none());
        assert!(e.predicted_total > 0.0, "{strategy:?}");
        assert!(e.rows.iter().all(|r| r.measured.is_none()));
        let text = render(&e);
        assert!(text.contains("predicted"), "{text}");
        assert!(!text.contains("measured"), "{text}");
        // Plain EXPLAIN samples path statistics but must not write any
        // query output (no spool file, no dirty pages).
        assert_eq!(db.io_profile().disk.writes, 0, "{strategy:?} wrote pages");
    }
}

#[test]
fn explain_analyze_three_level_path_telescopes_under_every_strategy() {
    for strategy in STRATEGIES {
        let mut db = make_db(strategy);
        let (e, res) = explain_analyze_read(&mut db, &read_query()).unwrap();
        assert_eq!(res.rows.len(), 40, "{strategy:?}");
        assert_eq!(e.result_rows, Some(40));

        // Every operator row is measured, and the per-operator pages sum
        // exactly to the report's total — which is the raw pool total
        // for the run (the executor's telescoping invariant).
        let sum: u64 = e.rows.iter().map(|r| r.measured.unwrap()).sum();
        assert_eq!(Some(sum), e.measured_total, "{strategy:?}");
        assert_eq!(
            sum,
            res.profile.total_io.disk_total(),
            "{strategy:?}: explain total must be the profile's pool total"
        );
        assert!(e.measured_total.unwrap() > 0, "{strategy:?}");

        // The access path and the 3-level projection got predictions.
        let access = e.rows.iter().find(|r| r.op.starts_with("access")).unwrap();
        assert!(access.predicted > 0.0, "{strategy:?}");
        assert!(
            e.rows.iter().any(|r| r.op.starts_with("proj[1]")),
            "{strategy:?}: {:?}",
            e.rows.iter().map(|r| &r.op).collect::<Vec<_>>()
        );

        let text = render(&e);
        for needle in [
            "operator",
            "predicted",
            "measured",
            "drift",
            "total",
            "rows: 40",
        ] {
            assert!(
                text.contains(needle),
                "{strategy:?} missing {needle}:\n{text}"
            );
        }
        if let Some(f) = res.output_file {
            db.sm().drop_file(f).unwrap();
        }
    }
}

#[test]
fn explain_analyze_update_carves_out_propagation() {
    let mut db = make_db(Some(Strategy::InPlace));
    let q = UpdateQuery::on("Org")
        .filter(Filter::Range {
            path: "budget".into(),
            lo: Value::Int(0),
            hi: Value::Int(1000),
        })
        .assign("budget", Assign::Increment(7));
    let (e, res) = explain_analyze_update(&mut db, &q).unwrap();
    assert_eq!(res.updated, 2);
    let prop = e
        .rows
        .iter()
        .find(|r| r.op == "core.propagate")
        .expect("propagation operator present");
    assert!(prop.measured.is_some());
    let sum: u64 = e.rows.iter().map(|r| r.measured.unwrap()).sum();
    assert_eq!(Some(sum), e.measured_total);
}

#[test]
fn drift_gauges_reach_the_jsonl_exporter() {
    let mut db = make_db(Some(Strategy::Separate));
    let (_, res) = explain_analyze_read(&mut db, &read_query()).unwrap();
    if let Some(f) = res.output_file {
        db.sm().drop_file(f).unwrap();
    }
    let lines = export::snapshot_jsonl(&registry().snapshot());
    assert!(
        lines.iter().any(|l| l.contains("costmodel.drift.total")),
        "missing total drift gauge"
    );
    assert!(
        lines.iter().any(|l| l.contains("costmodel.drift.access")),
        "missing per-operator drift gauge"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("costmodel.conformance.queries")),
        "missing conformance counter"
    );
}

/// Every metric a cost-model prediction may carry has its registered
/// drift gauge, and every registered operator gauge (all but the total)
/// is some prediction's: the two lists are the same set.
#[test]
fn every_conformance_metric_has_a_registered_drift_gauge() {
    use fieldrep_costmodel::conformance::DRIFT_METRICS;
    use fieldrep_obs::names;
    for metric in DRIFT_METRICS {
        assert!(names::drift(metric).is_some(), "{metric:?} has no gauge");
    }
    for name in names::ALL {
        if let Some(suffix) = name.strip_prefix(names::COSTMODEL_DRIFT_PREFIX) {
            assert!(
                suffix == "total" || DRIFT_METRICS.contains(&suffix),
                "gauge {name} records no conformance metric"
            );
        }
    }
}
