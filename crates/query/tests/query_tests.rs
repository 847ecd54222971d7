//! Query-processor tests: planner choices and end-to-end results for
//! every projection strategy, on the Figure-1 employee database.

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::{AccessPlan, Assign, Filter, ProjPlan, QueryError, ReadQuery, UpdateQuery};
use fieldrep_storage::Oid;

fn sval(s: &str) -> Value {
    Value::Str(s.into())
}

/// 2 orgs, 4 depts, 40 employees with salaries 50_000 + 100·i.
fn make_db() -> (Database, Vec<Oid>, Vec<Oid>, Vec<Oid>) {
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
            ("budget", FieldType::Int),
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

    let orgs: Vec<Oid> = (0..2)
        .map(|i| {
            db.insert(
                "Org",
                vec![sval(&format!("org{i}")), Value::Int(1000 * i as i64)],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<Oid> = (0..4)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    sval(&format!("dept{i}")),
                    Value::Int(10 * i as i64),
                    Value::Ref(orgs[i % 2]),
                ],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..40)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![
                    sval(&format!("emp{i}")),
                    Value::Int(50_000 + 100 * i as i64),
                    Value::Ref(depts[i % 4]),
                ],
            )
            .unwrap()
        })
        .collect();
    (db, orgs, depts, emps)
}

#[test]
fn full_scan_no_filter() {
    let (mut db, _, _, _) = make_db();
    let res = ReadQuery::on("Emp1")
        .project(["name", "salary"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 40);
    assert!(matches!(res.plan.access, AccessPlan::FullScan));
    assert_eq!(res.rows[0][0], Some(sval("emp0")));
    assert_eq!(res.rows[39][1], Some(Value::Int(53_900)));
}

#[test]
fn index_range_filter() {
    let (mut db, _, _, _) = make_db();
    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    let q = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(50_000),
            hi: Value::Int(50_500),
        })
        .project(["name", "salary"]);
    let res = q.run(&mut db).unwrap();
    assert!(matches!(res.plan.access, AccessPlan::IndexRange { .. }));
    assert_eq!(res.rows.len(), 6); // salaries 50000..50500 step 100
                                   // Index scan returns rows in key order.
    let salaries: Vec<i64> = res
        .rows
        .iter()
        .map(|r| match r[1] {
            Some(Value::Int(s)) => s,
            _ => panic!(),
        })
        .collect();
    assert_eq!(
        salaries,
        vec![50_000, 50_100, 50_200, 50_300, 50_400, 50_500]
    );
}

#[test]
fn filter_without_index_falls_back_to_scan() {
    let (mut db, _, _, _) = make_db();
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "name".into(),
            value: sval("emp7"),
        })
        .project(["salary"])
        .run(&mut db)
        .unwrap();
    assert!(matches!(res.plan.access, AccessPlan::FullScan));
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][0], Some(Value::Int(50_700)));
}

#[test]
fn functional_join_baseline() {
    let (mut db, _, _, _) = make_db();
    let res = ReadQuery::on("Emp1")
        .project(["name", "dept.name", "dept.org.name"])
        .run(&mut db)
        .unwrap();
    assert!(matches!(
        res.plan.projections[1],
        ProjPlan::FunctionalJoin { .. }
    ));
    assert!(matches!(
        res.plan.projections[2],
        ProjPlan::FunctionalJoin { .. }
    ));
    assert_eq!(res.rows[0][1], Some(sval("dept0")));
    assert_eq!(res.rows[0][2], Some(sval("org0")));
    assert_eq!(res.rows[1][1], Some(sval("dept1")));
    assert_eq!(res.rows[1][2], Some(sval("org1")));
}

#[test]
fn planner_prefers_inplace_replica() {
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    db.replicate("Emp1.dept.budget", Strategy::InPlace).unwrap();
    let plan = ReadQuery::on("Emp1")
        .project(["dept.name", "dept.budget"])
        .plan(&db)
        .unwrap();
    assert!(matches!(
        plan.projections[0],
        ProjPlan::SeparateReplica { .. }
    ));
    assert!(matches!(
        plan.projections[1],
        ProjPlan::InPlaceReplica { .. }
    ));
}

#[test]
fn inplace_replica_results_match_joins() {
    let (mut db, _, _, _) = make_db();
    let baseline = ReadQuery::on("Emp1")
        .project(["name", "dept.name"])
        .run(&mut db)
        .unwrap();
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let fast = ReadQuery::on("Emp1")
        .project(["name", "dept.name"])
        .run(&mut db)
        .unwrap();
    assert!(matches!(
        fast.plan.projections[1],
        ProjPlan::InPlaceReplica { .. }
    ));
    assert_eq!(baseline.rows, fast.rows);
}

#[test]
fn separate_replica_results_match_joins() {
    let (mut db, _, _, _) = make_db();
    let baseline = ReadQuery::on("Emp1")
        .project(["name", "dept.org.name"])
        .run(&mut db)
        .unwrap();
    db.replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    let fast = ReadQuery::on("Emp1")
        .project(["name", "dept.org.name"])
        .run(&mut db)
        .unwrap();
    assert!(matches!(
        fast.plan.projections[1],
        ProjPlan::SeparateReplica { .. }
    ));
    assert_eq!(baseline.rows, fast.rows);
}

#[test]
fn collapse_path_shortcut() {
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.org", Strategy::InPlace).unwrap();
    let q = ReadQuery::on("Emp1").project(["dept.org.budget"]);
    let plan = q.plan(&db).unwrap();
    match &plan.projections[0] {
        ProjPlan::CollapseThenJoin { remaining_hops, .. } => {
            assert!(remaining_hops.is_empty(), "org.budget is one jump away");
        }
        other => panic!("expected collapse, got {other:?}"),
    }
    let res = q.run(&mut db).unwrap();
    assert_eq!(res.rows[0][0], Some(Value::Int(0)));
    assert_eq!(res.rows[1][0], Some(Value::Int(1000)));
}

#[test]
fn update_query_propagates_through_replicas() {
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.create_index("Dept.budget", IndexKind::Unclustered)
        .unwrap();

    // Rename all depts with budget ≥ 20 (depts 2 and 3).
    let res = UpdateQuery::on("Dept")
        .filter(Filter::Range {
            path: "budget".into(),
            lo: Value::Int(20),
            hi: Value::Int(999),
        })
        .assign("name", Assign::Set(sval("renamed")))
        .run(&mut db)
        .unwrap();
    assert_eq!(res.updated, 2);

    let read = ReadQuery::on("Emp1")
        .project(["dept.name"])
        .run(&mut db)
        .unwrap();
    // Employees of depts 2 and 3 (i % 4 ∈ {2,3}) see the rename.
    for (i, row) in read.rows.iter().enumerate() {
        let want = if i % 4 >= 2 {
            "renamed"
        } else {
            &format!("dept{}", i % 4)
        };
        assert_eq!(row[0], Some(sval(want)), "row {i}");
    }
}

#[test]
fn update_query_increment() {
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    let res = UpdateQuery::on("Dept")
        .assign("budget", Assign::Increment(5))
        .run(&mut db)
        .unwrap();
    assert_eq!(res.updated, 4);
    let read = ReadQuery::on("Emp1")
        .project(["dept.budget"])
        .run(&mut db)
        .unwrap();
    assert_eq!(read.rows[0][0], Some(Value::Int(5)));
    assert_eq!(read.rows[1][0], Some(Value::Int(15)));
}

/// The statement door evaluates its assignments against the image the
/// update's plan decoded (`Database::update_with`): every source sees
/// the value computed from the terminal's old one, through either
/// strategy, and an assignment the field's type refuses stays a
/// `BadQuery`, not an engine error.
#[test]
fn statement_assignments_ripple_what_they_computed_from_the_old_value() {
    let (mut db, _, depts, emps) = make_db();
    let budget = db.replicate("Emp1.dept.budget", Strategy::InPlace).unwrap();
    let name = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    db.update(depts[1], &[("name", sval("d#2"))]).unwrap();
    let res = UpdateQuery::on("Dept")
        .assign("budget", Assign::Increment(1))
        .assign("name", Assign::CycleStr(3))
        .run(&mut db)
        .unwrap();
    assert_eq!(res.updated, 4);
    for (i, &e) in emps.iter().enumerate() {
        let d = i % 4;
        let cycled = if d == 1 {
            "d#0".to_string()
        } else {
            format!("dept{d}#1")
        };
        assert_eq!(
            db.path_values(e, budget).unwrap(),
            Some(vec![Value::Int(10 * d as i64 + 1)]),
            "in-place budget of emp {i}"
        );
        assert_eq!(
            db.path_values(e, name).unwrap(),
            Some(vec![sval(&cycled)]),
            "separate name of emp {i}"
        );
    }

    let err = UpdateQuery::on("Dept")
        .assign("name", Assign::Increment(1))
        .run(&mut db)
        .unwrap_err();
    assert!(matches!(err, QueryError::BadQuery(_)), "{err:?}");
    assert_eq!(db.get_field(depts[0], "name").unwrap(), sval("dept0#1"));
}

#[test]
fn path_index_access_plan() {
    // §3.3.4: associative lookup on Emp1.dept.org.name through the index
    // on replicated values.
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    db.create_index("Emp1.dept.org.name", IndexKind::Unclustered)
        .unwrap();
    let q = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "dept.org.name".into(),
            value: sval("org0"),
        })
        .project(["name"]);
    let plan = q.plan(&db).unwrap();
    assert!(matches!(plan.access, AccessPlan::PathIndexRange { .. }));
    let res = q.run(&mut db).unwrap();
    // org0 owns depts 0 and 2 → employees with i % 4 ∈ {0, 2} → 20 rows.
    assert_eq!(res.rows.len(), 20);

    // Without the index the same filter still works via scan + deref.
    let q2 = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "dept.name".into(),
            value: sval("dept1"),
        })
        .project(["name"]);
    let plan2 = q2.plan(&db).unwrap();
    assert!(matches!(plan2.access, AccessPlan::FullScan));
    assert_eq!(q2.run(&mut db).unwrap().rows.len(), 10);
}

#[test]
fn null_refs_produce_none_columns() {
    let (mut db, _, _, _) = make_db();
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let lost = db
        .insert(
            "Emp1",
            vec![sval("lost"), Value::Int(1), Value::Ref(Oid::NULL)],
        )
        .unwrap();
    let res = ReadQuery::on("Emp1")
        .project(["dept.name", "dept.org.name"])
        .run(&mut db)
        .unwrap();
    let last = res.rows.last().unwrap();
    assert_eq!(last[0], None);
    assert_eq!(last[1], None);
    let _ = lost;
}

#[test]
fn spooling_writes_output_file() {
    let (mut db, _, _, _) = make_db();
    let res = ReadQuery::on("Emp1")
        .project(["name", "salary"])
        .spool(100)
        .run(&mut db)
        .unwrap();
    let f = res.output_file.expect("spooled");
    // 40 rows at 100 bytes → ⌈40/33⌉ = 2 pages (O_t = 33).
    assert_eq!(db.sm().page_count(f).unwrap(), 2);
    db.sm().drop_file(f).unwrap();
}

#[test]
fn projection_of_whole_referenced_object() {
    let (mut db, _, _, _) = make_db();
    let res = ReadQuery::on("Emp1")
        .project(["dept.all"])
        .run(&mut db)
        .unwrap();
    // DEPT has three non-pad fields → three columns.
    assert_eq!(res.rows[0].len(), 3);
    assert_eq!(res.rows[0][0], Some(sval("dept0")));
    assert_eq!(res.rows[0][1], Some(Value::Int(0)));
    assert!(matches!(res.rows[0][2], Some(Value::Ref(_))));
}

#[test]
fn update_with_eq_filter_on_unindexed_field() {
    let (mut db, _, _, _) = make_db();
    let res = UpdateQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "name".into(),
            value: sval("emp3"),
        })
        .assign("salary", Assign::Set(Value::Int(1)))
        .run(&mut db)
        .unwrap();
    assert_eq!(res.updated, 1);
}

#[test]
fn bad_queries_error_cleanly() {
    let (mut db, _, _, _) = make_db();
    assert!(ReadQuery::on("Nope").project(["x"]).run(&mut db).is_err());
    assert!(ReadQuery::on("Emp1")
        .project(["bogus"])
        .run(&mut db)
        .is_err());
    assert!(UpdateQuery::on("Emp1")
        .assign("name", Assign::Increment(1))
        .run(&mut db)
        .is_err());
}
