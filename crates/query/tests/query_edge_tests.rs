//! Query-layer edge cases: output spooling contents, plan rendering,
//! empty results, filter corner cases, and update assignment variants.

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::{AccessPlan, Assign, Filter, ReadQuery, UpdateQuery};
use fieldrep_storage::{HeapFile, MemDisk, MemWalStore};

fn db_with_emps(n: usize) -> Database {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new("DEPT", vec![("name", FieldType::Str)]))
        .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("grade", FieldType::Float),
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    let d = db.insert("Dept", vec![Value::Str("D".into())]).unwrap();
    for i in 0..n {
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("e{i}")),
                Value::Int(i as i64),
                Value::Float(i as f64 / 2.0),
                Value::Ref(d),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn spooled_rows_decode_back() {
    let mut db = db_with_emps(10);
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(2),
            hi: Value::Int(4),
        })
        .project(["name", "salary"])
        .spool(64)
        .run(&mut db)
        .unwrap();
    let f = res.output_file.unwrap();
    // The output file contains exactly the rows, decodable as value lists.
    let hf = HeapFile::open(f);
    let mut decoded = Vec::new();
    for oid in hf.oids(db.sm()).unwrap() {
        let (tag, payload) = hf.read(db.sm(), oid).unwrap();
        assert_eq!(tag, 0xFFFD);
        decoded.push(Value::decode_list(&payload).unwrap());
    }
    assert_eq!(decoded.len(), 3);
    assert_eq!(decoded[0], vec![Value::Str("e2".into()), Value::Int(2)]);
    assert_eq!(decoded[2], vec![Value::Str("e4".into()), Value::Int(4)]);
    db.sm().drop_file(f).unwrap();
}

/// A spool of ~100 pages through a 24-page pool. Under a WAL a page no
/// commit has logged cannot be evicted, so the spool must commit as it
/// goes; without a WAL it always could.
#[test]
fn a_spool_larger_than_the_pool_succeeds_with_and_without_a_wal() {
    let cfg = DbConfig {
        pool_pages: 24,
        ..DbConfig::default()
    };
    for wal in [false, true] {
        let mut db = if wal {
            let store = Box::new(MemWalStore::new());
            Database::with_disk_and_wal(Box::new(MemDisk::new()), store, cfg.clone()).unwrap()
        } else {
            Database::in_memory(cfg.clone())
        };
        db.define_type(TypeDef::new("T", vec![("v", FieldType::Int)]))
            .unwrap();
        db.create_set("S", "T").unwrap();
        for i in 0..400 {
            db.insert("S", vec![Value::Int(i)]).unwrap();
        }
        let res = ReadQuery::on("S")
            .project(["v"])
            .spool(1000)
            .run(&mut db)
            .unwrap_or_else(|e| panic!("wal={wal}: {e}"));
        assert_eq!(res.rows.len(), 400, "wal={wal}");
        let hf = HeapFile::open(res.output_file.unwrap());
        assert_eq!(hf.count(db.sm()).unwrap(), 400, "wal={wal}");
    }
}

#[test]
fn plan_display_is_readable() {
    let mut db = db_with_emps(5);
    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let plan = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "salary".into(),
            value: Value::Int(1),
        })
        .project(["name", "dept.name"])
        .plan(&db)
        .unwrap();
    let text = format!("{plan}");
    assert!(text.contains("index range"), "{text}");
    assert!(text.contains("in-place replica"), "{text}");
    assert!(text.contains("no join"), "{text}");
}

#[test]
fn empty_result_sets() {
    let mut db = db_with_emps(5);
    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(100),
            hi: Value::Int(200),
        })
        .project(["name"])
        .run(&mut db)
        .unwrap();
    assert!(res.rows.is_empty());
    // Spooling an empty result produces an empty file.
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "salary".into(),
            value: Value::Int(-1),
        })
        .project(["name"])
        .spool(100)
        .run(&mut db)
        .unwrap();
    let f = res.output_file.unwrap();
    assert_eq!(HeapFile::open(f).count(db.sm()).unwrap(), 0);
    // Update query matching nothing updates nothing.
    let u = UpdateQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "salary".into(),
            value: Value::Int(-1),
        })
        .assign("salary", Assign::Set(Value::Int(0)))
        .run(&mut db)
        .unwrap();
    assert_eq!(u.updated, 0);
}

#[test]
fn float_and_string_eq_filters_via_scan() {
    let mut db = db_with_emps(8);
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Eq {
            path: "grade".into(),
            value: Value::Float(1.5),
        })
        .project(["name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][0], Some(Value::Str("e3".into())));

    let res = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "name".into(),
            lo: Value::Str("e2".into()),
            hi: Value::Str("e4".into()),
        })
        .project(["salary"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 3);
}

#[test]
fn repeated_updates_via_cyclestr_always_change() {
    let mut db = db_with_emps(3);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let d = db.scan_set("Dept").unwrap()[0];
    db.update(d, &[("name", Value::Str("base#0".into()))])
        .unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..6 {
        UpdateQuery::on("Dept")
            .assign("name", Assign::CycleStr(4))
            .run(&mut db)
            .unwrap();
        let v = db.get_field(d, "name").unwrap();
        seen.insert(format!("{v}"));
        // Replica follows every cycle step.
        let e = db.scan_set("Emp1").unwrap()[0];
        let rep = db.deref_path(e, "dept.name").unwrap().unwrap();
        assert_eq!(rep[0], v);
    }
    assert_eq!(seen.len(), 4, "cycles through 4 distinct values: {seen:?}");
}

#[test]
fn projection_order_matches_request() {
    let mut db = db_with_emps(2);
    let res = ReadQuery::on("Emp1")
        .project(["salary", "name", "salary"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows[0].len(), 3);
    assert_eq!(res.rows[0][0], Some(Value::Int(0)));
    assert_eq!(res.rows[0][1], Some(Value::Str("e0".into())));
    assert_eq!(res.rows[0][2], Some(Value::Int(0)));
}

#[test]
fn index_range_ordering_vs_scan_ordering() {
    // Index access returns key order; full scan returns physical order.
    let mut db = db_with_emps(0);
    let d = db.scan_set("Dept").unwrap()[0];
    for salary in [5i64, 1, 9, 3] {
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("s{salary}")),
                Value::Int(salary),
                Value::Float(0.0),
                Value::Ref(d),
            ],
        )
        .unwrap();
    }
    let scan_rows = ReadQuery::on("Emp1")
        .project(["salary"])
        .run(&mut db)
        .unwrap();
    let scanned: Vec<i64> = scan_rows
        .rows
        .iter()
        .map(|r| r[0].as_ref().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(scanned, vec![5, 1, 9, 3]);

    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    let q = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(0),
            hi: Value::Int(100),
        })
        .project(["salary"]);
    assert!(matches!(
        q.plan(&db).unwrap().access,
        AccessPlan::IndexRange { .. }
    ));
    let idx_rows = q.run(&mut db).unwrap();
    let indexed: Vec<i64> = idx_rows
        .rows
        .iter()
        .map(|r| r[0].as_ref().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(indexed, vec![1, 3, 5, 9]);
}
