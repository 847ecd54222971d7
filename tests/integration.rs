//! Cross-crate integration tests through the `field_replication` facade:
//! schema → population → replication → queries → updates → verification,
//! including a file-backed database.

use field_replication::query::{Assign, Filter, ReadQuery, UpdateQuery};
use field_replication::storage::FileDisk;
use field_replication::{Database, DbConfig, FieldType, IndexKind, Strategy, TypeDef, Value};

fn schema(db: &mut Database) {
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
            ("age", FieldType::Int),
            ("salary", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    db.create_set("Emp2", "EMP").unwrap();
}

fn populate(db: &mut Database, n_orgs: usize, n_depts: usize, n_emps: usize) {
    let orgs: Vec<_> = (0..n_orgs)
        .map(|i| {
            db.insert(
                "Org",
                vec![Value::Str(format!("org{i}")), Value::Int(i as i64 * 1000)],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<_> = (0..n_depts)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("dept{i}")),
                    Value::Int(i as i64 * 10),
                    Value::Ref(orgs[i % n_orgs]),
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..n_emps {
        let set = if i % 5 == 4 { "Emp2" } else { "Emp1" };
        db.insert(
            set,
            vec![
                Value::Str(format!("emp{i}")),
                Value::Int(20 + (i % 45) as i64),
                Value::Int(40_000 + (i * 61) as i64 % 90_000),
                Value::Ref(depts[(i * 7) % n_depts]),
            ],
        )
        .unwrap();
    }
}

#[test]
fn full_stack_mixed_strategies() {
    let mut db = Database::in_memory(DbConfig::default());
    schema(&mut db);
    populate(&mut db, 5, 40, 1000);

    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    db.create_index("Dept.budget", IndexKind::Unclustered)
        .unwrap();
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();

    // Baseline answers computed by dereference.
    let q = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(100_000),
            hi: Value::Int(i64::MAX),
        })
        .project(["name", "dept.name", "dept.org.name"]);
    let res = q.run(&mut db).unwrap();
    assert!(!res.rows.is_empty());
    for row in &res.rows {
        assert!(row.iter().all(Option::is_some));
    }

    // An update query over departments: all replicas follow.
    UpdateQuery::on("Dept")
        .filter(Filter::Range {
            path: "budget".into(),
            lo: Value::Int(0),
            hi: Value::Int(100),
        })
        .assign("name", Assign::Set(Value::Str("reorg".into())))
        .run(&mut db)
        .unwrap();
    let res2 = q.run(&mut db).unwrap();
    // Every result row still answers, and rows referencing the first 11
    // departments see the rename.
    let renamed = res2
        .rows
        .iter()
        .filter(|r| r[1] == Some(Value::Str("reorg".into())))
        .count();
    assert!(renamed > 0);

    // Replicated answers always equal join answers.
    for (oid, row) in db.scan_set("Emp1").unwrap().into_iter().zip(
        ReadQuery::on("Emp1")
            .project(["dept.name"])
            .run(&mut db)
            .unwrap()
            .rows,
    ) {
        let truth = db
            .deref_path(oid, "dept.name")
            .unwrap()
            .map(|v| v[0].clone());
        assert_eq!(row[0], truth);
    }
}

#[test]
fn file_backed_database() {
    let dir = std::env::temp_dir().join(format!("fieldrep-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let disk = FileDisk::open(&dir).unwrap();
        let mut db = Database::with_disk(Box::new(disk), DbConfig::default());
        schema(&mut db);
        populate(&mut db, 3, 12, 300);
        db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
        let res = ReadQuery::on("Emp1")
            .project(["name", "dept.name"])
            .run(&mut db)
            .unwrap();
        assert_eq!(res.rows.len(), 240);
        db.flush_all().unwrap();
    }
    // Pages really hit the filesystem.
    let bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        bytes > 30 * 1024,
        "expected real on-disk pages, got {bytes}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn instance_level_separation_between_sets() {
    // Emp1 replicates, Emp2 (same type!) does not — §3.2.
    let mut db = Database::in_memory(DbConfig::default());
    schema(&mut db);
    populate(&mut db, 2, 10, 200);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();

    let p1 = ReadQuery::on("Emp1")
        .project(["dept.name"])
        .plan(&db)
        .unwrap();
    let p2 = ReadQuery::on("Emp2")
        .project(["dept.name"])
        .plan(&db)
        .unwrap();
    assert!(matches!(
        p1.projections[0],
        field_replication::query::ProjPlan::InPlaceReplica { .. }
    ));
    assert!(matches!(
        p2.projections[0],
        field_replication::query::ProjPlan::FunctionalJoin { .. }
    ));
    // And both give the same kind of (correct) answers.
    let r2 = ReadQuery::on("Emp2")
        .project(["dept.name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(r2.rows.len(), 40);
}

#[test]
fn io_savings_materialise_end_to_end() {
    // The headline claim, via the facade: a read-heavy mix is cheaper
    // with in-place replication.
    let build = |strategy: Option<Strategy>| {
        let mut db = Database::in_memory(DbConfig::default());
        schema(&mut db);
        populate(&mut db, 4, 500, 3000);
        db.create_index("Emp1.salary", IndexKind::Unclustered)
            .unwrap();
        if let Some(s) = strategy {
            db.replicate("Emp1.dept.name", s).unwrap();
        }
        db
    };
    let q = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(60_000),
            hi: Value::Int(70_000),
        })
        .project(["name", "dept.name"]);

    let mut io = Vec::new();
    for strat in [None, Some(Strategy::InPlace)] {
        let mut db = build(strat);
        db.flush_all().unwrap();
        db.reset_profile();
        let r = q.run(&mut db).unwrap();
        assert!(!r.rows.is_empty());
        io.push(db.io_profile().total_io());
    }
    assert!(
        io[1] < io[0],
        "in-place ({}) should beat baseline ({})",
        io[1],
        io[0]
    );
}

#[test]
fn deep_path_through_facade() {
    let mut db = Database::in_memory(DbConfig::default());
    schema(&mut db);
    populate(&mut db, 3, 9, 90);
    let p = db
        .replicate("Emp1.dept.org.budget", Strategy::InPlace)
        .unwrap();
    for oid in db.scan_set("Emp1").unwrap() {
        let via_replica = db.path_values(oid, p).unwrap();
        let via_join = db.deref_path(oid, "dept.org.budget").unwrap();
        assert_eq!(via_replica, via_join);
    }
}
