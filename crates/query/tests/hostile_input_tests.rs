//! Hostile-input regressions for plan building: queries over unknown
//! sets, fields, or malformed dotted paths must come back as
//! `Err(QueryError)`, never a panic. These pin the conversion of the
//! planner's historical `unwrap`/`expect` sites into diagnostics.

use fieldrep_catalog::IndexKind;
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::{Assign, Filter, QueryError, ReadQuery, UpdateQuery};

fn small_db() -> Database {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new("DEPT", vec![("name", FieldType::Str)]))
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
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    let d = db.insert("Dept", vec![Value::Str("D".into())]).unwrap();
    db.insert(
        "Emp1",
        vec![Value::Str("e".into()), Value::Int(1), Value::Ref(d)],
    )
    .unwrap();
    db
}

#[test]
fn unknown_set_is_an_error() {
    let mut db = small_db();
    assert!(ReadQuery::on("Ghost")
        .project(["name"])
        .run(&mut db)
        .is_err());
    assert!(UpdateQuery::on("Ghost").run(&mut db).is_err());
}

#[test]
fn unknown_projection_paths_are_errors() {
    let mut db = small_db();
    for proj in [
        "ghost",
        "dept.ghost",
        "ghost.name",
        "name.name",  // terminal field used as a hop
        "dept..name", // empty path component
        ".name",      // leading dot
        "dept.name.", // trailing dot
        "",           // empty projection
        "dept.🦀",    // non-identifier bytes
    ] {
        let r = ReadQuery::on("Emp1").project([proj]).run(&mut db);
        assert!(r.is_err(), "expected error for projection {proj:?}");
    }
}

#[test]
fn unknown_filter_paths_are_errors() {
    let mut db = small_db();
    for path in ["ghost", "dept.ghost", "dept..name", ""] {
        let r = ReadQuery::on("Emp1")
            .project(["name"])
            .filter(Filter::Eq {
                path: path.into(),
                value: Value::Int(1),
            })
            .run(&mut db);
        assert!(r.is_err(), "expected error for filter path {path:?}");
    }
}

#[test]
fn hostile_plans_still_leave_the_db_usable() {
    let mut db = small_db();
    let _ = ReadQuery::on("Emp1").project(["ghost"]).run(&mut db);
    let _ = ReadQuery::on("Ghost").project(["name"]).run(&mut db);
    // A good query after the failed ones still works.
    let res = ReadQuery::on("Emp1")
        .project(["name", "dept.name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][1], Some(Value::Str("D".into())));
}

/// A filter literal of another type than the field it filters used to
/// select nothing, silently, on both access paths: an index compared key
/// encodings of two types, a scan compared values of two kinds. Planning
/// rejects it now, for reads and updates, indexed or not.
#[test]
fn filter_literals_of_the_wrong_type_are_errors() {
    let mut db = small_db();
    let wrong = [
        Filter::Range {
            path: "salary".into(),
            lo: Value::Float(0.5),
            hi: Value::Float(1.5),
        },
        Filter::Range {
            path: "salary".into(),
            lo: Value::Int(0),
            hi: Value::Str("9".into()),
        },
        Filter::Eq {
            path: "salary".into(),
            value: Value::Str("1".into()),
        },
        Filter::Eq {
            path: "name".into(),
            value: Value::Int(1),
        },
        Filter::Eq {
            path: "dept".into(),
            value: Value::Int(1),
        },
        Filter::Eq {
            path: "dept.name".into(),
            value: Value::Int(1),
        },
    ];
    for indexed in [false, true] {
        if indexed {
            db.create_index("Emp1.salary", IndexKind::Unclustered)
                .unwrap();
        }
        for f in &wrong {
            let read = ReadQuery::on("Emp1").project(["name"]).filter(f.clone());
            assert!(
                matches!(read.run(&mut db), Err(QueryError::BadQuery(_))),
                "read, indexed {indexed}: {f:?}"
            );
            let update = UpdateQuery::on("Emp1")
                .filter(f.clone())
                .assign("name", Assign::Set(Value::Str("x".into())));
            assert!(
                matches!(update.run(&mut db), Err(QueryError::BadQuery(_))),
                "update, indexed {indexed}: {f:?}"
            );
        }
        // The field's own type still finds the member.
        let res = ReadQuery::on("Emp1")
            .project(["name"])
            .filter(Filter::Range {
                path: "salary".into(),
                lo: Value::Int(0),
                hi: Value::Int(2),
            })
            .run(&mut db)
            .unwrap();
        assert_eq!(res.rows, vec![vec![Some(Value::Str("e".into()))]]);
    }
}
