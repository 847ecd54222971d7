//! §4.3.3 collapsed inverted paths: the Figure-6 scenario and its edge
//! cases, with full invariant checking.

mod common;

use common::check_consistency;
use fieldrep_catalog::{Propagation, Strategy};
use fieldrep_core::{collapsed, Database, DbConfig, DbError};
use fieldrep_model::{Annotation, FieldType, TypeDef, Value};
use fieldrep_storage::{FileId, HeapFile, Oid, PagePins};
use std::collections::BTreeMap;

fn sval(s: &str) -> Value {
    Value::Str(s.into())
}

fn employee_db() -> Database {
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
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    db
}

struct World {
    orgs: Vec<Oid>,
    depts: Vec<Oid>,
    emps: Vec<Oid>,
}

fn populate(db: &mut Database) -> World {
    let orgs: Vec<Oid> = (0..2)
        .map(|i| {
            db.insert("Org", vec![sval(&format!("org{i}")), Value::Int(i)])
                .unwrap()
        })
        .collect();
    let depts: Vec<Oid> = (0..4)
        .map(|i| {
            db.insert(
                "Dept",
                vec![sval(&format!("dept{i}")), Value::Ref(orgs[i % 2])],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..12)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![sval(&format!("e{i}")), Value::Ref(depts[i % 4])],
            )
            .unwrap()
        })
        .collect();
    World { orgs, depts, emps }
}

#[test]
fn collapsed_basic_read_and_terminal_update() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("org0")])
    );
    assert_eq!(
        db.path_values(w.emps[1], p).unwrap(),
        Some(vec![sval("org1")])
    );

    // Terminal update: one link level to the sources.
    db.update(w.orgs[0], &[("name", sval("OrgZero"))]).unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps[0], &w.emps[2], &w.emps[4]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("OrgZero")]));
    }
    assert_eq!(
        db.path_values(w.emps[1], p).unwrap(),
        Some(vec![sval("org1")])
    );
}

#[test]
fn collapsed_figure_6_intermediate_move() {
    // "if D.org is set to some other object in Org, say X, then the OIDs
    // of E1, E2, and E3 will have to be moved from O's link object to X's
    // link object."
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    // dept0 (employees 0, 4, 8) moves from org0 to org1.
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps[0], &w.emps[4], &w.emps[8]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("org1")]));
    }
    // Other employees untouched.
    assert_eq!(
        db.path_values(w.emps[2], p).unwrap(),
        Some(vec![sval("org0")])
    );
}

#[test]
fn collapsed_single_link_level_io_advantage() {
    // The point of collapsing: a terminal update traverses ONE link
    // store. Compare I/O against the uncollapsed 2-level form.
    let build = |collapsed: bool| {
        let mut db = employee_db();
        let o = db.insert("Org", vec![sval("o#0"), Value::Int(0)]).unwrap();
        // 40 depts × 25 employees under one org.
        let depts: Vec<Oid> = (0..40)
            .map(|i| {
                db.insert("Dept", vec![sval(&format!("d{i}")), Value::Ref(o)])
                    .unwrap()
            })
            .collect();
        for i in 0..1000usize {
            db.insert(
                "Emp1",
                vec![sval(&format!("e{i}")), Value::Ref(depts[i % 40])],
            )
            .unwrap();
        }
        if collapsed {
            db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
                .unwrap();
        } else {
            db.replicate("Emp1.dept.org.name", Strategy::InPlace)
                .unwrap();
        }
        (db, o)
    };
    let mut io = Vec::new();
    for collapsed in [false, true] {
        let (db, o) = build(collapsed);
        db.flush_all().unwrap();
        db.reset_profile();
        db.update(o, &[("name", sval("o#1"))]).unwrap();
        db.flush_all().unwrap();
        io.push(db.io_profile().total_io());
    }
    assert!(
        io[1] < io[0],
        "collapsed terminal propagation ({}) should beat uncollapsed ({})",
        io[1],
        io[0]
    );
}

#[test]
fn collapsed_source_retarget_and_delete() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    // Retarget an employee to another dept (different org).
    db.update(w.emps[0], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("org1")])
    );
    // Delete employees of dept3 until its marker disappears.
    db.delete(w.emps[3]).unwrap();
    db.delete(w.emps[7]).unwrap();
    db.delete(w.emps[11]).unwrap();
    check_consistency(&mut db);
    let d3 = db.get(w.depts[3]).unwrap();
    assert!(
        !d3.annotations
            .iter()
            .any(|a| matches!(a, Annotation::CollapsedVia { .. })),
        "dept3 no longer routes anyone: {:?}",
        d3.annotations
    );
}

#[test]
fn collapsed_broken_chain_parks_entries() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    // Break dept0's org: employees 0,4,8 lose their values, but the
    // routing is parked on dept0.
    db.update(w.depts[0], &[("org", Value::Ref(Oid::NULL))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(w.emps[0], p).unwrap(), None);
    // Re-point dept0 at org1: the parked entries move and values return.
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps[0], &w.emps[4], &w.emps[8]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("org1")]));
    }
}

#[test]
fn collapsed_insert_after_replicate() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    let e = db
        .insert("Emp1", vec![sval("new"), Value::Ref(w.depts[2])])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("org0")]));
}

#[test]
fn collapsed_deferred_propagation() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Deferred)
        .unwrap();
    db.update(w.orgs[0], &[("name", sval("Lazy"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("Lazy")])
    );
    assert_eq!(db.pending_count(p), 0);
    // Intermediate move with deferred values.
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    assert!(db.pending_count(p) >= 1);
    db.sync_all_pending().unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("org1")])
    );
}

#[test]
fn collapsed_inverse_function() {
    let mut db = employee_db();
    let w = populate(&mut db);
    db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    let link = db.catalog().links().next().unwrap().id;
    // Which employees roll up to org0? (depts 0 and 2 → e0,2,4,6,8,10)
    let mut hits = db.inverse(link, w.orgs[0]).unwrap();
    hits.sort_unstable();
    let mut want: Vec<Oid> = w.emps.iter().step_by(2).copied().collect();
    want.sort_unstable();
    assert_eq!(hits, want);
}

#[test]
fn collapsed_delete_guards() {
    let mut db = employee_db();
    let w = populate(&mut db);
    db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    // Terminal holds a store → guarded. Intermediate routes → guarded.
    assert!(matches!(
        db.delete(w.orgs[0]),
        Err(DbError::StillReferenced(_))
    ));
    assert!(matches!(
        db.delete(w.depts[0]),
        Err(DbError::StillReferenced(_))
    ));
}

#[test]
fn collapsed_drop_replication() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    db.drop_replication(p).unwrap();
    for set in ["Org", "Dept", "Emp1"] {
        for oid in db.scan_set(set).unwrap() {
            assert!(
                db.get(oid).unwrap().annotations.is_empty(),
                "{set} object {oid} keeps annotations"
            );
        }
    }
    assert_eq!(db.catalog().links().count(), 0);
    check_consistency(&mut db);
    let _ = w;
}

#[test]
fn collapsed_validation_rules() {
    let mut db = employee_db();
    populate(&mut db);
    // 1-level paths cannot collapse.
    assert!(db
        .replicate_collapsed("Emp1.dept.name", Propagation::Eager)
        .is_err());
    // Normal and collapsed paths over the same hops do not share links.
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    db.replicate_collapsed("Emp1.dept.org.budget", Propagation::Eager)
        .unwrap();
    check_consistency(&mut db);
    let collapsed_links = db.catalog().links().filter(|l| l.collapsed).count();
    let normal_links = db.catalog().links().filter(|l| !l.collapsed).count();
    assert_eq!(collapsed_links, 1);
    assert_eq!(normal_links, 2);
}

#[test]
fn collapsed_and_uncollapsed_agree() {
    // Same data, both representations: identical replicated values under
    // identical mutations.
    let run = |collapsed: bool| -> Vec<Option<Vec<Value>>> {
        let mut db = employee_db();
        let w = populate(&mut db);
        let p = if collapsed {
            db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
                .unwrap()
        } else {
            db.replicate("Emp1.dept.org.name", Strategy::InPlace)
                .unwrap()
        };
        db.update(w.orgs[1], &[("name", sval("X"))]).unwrap();
        db.update(w.depts[2], &[("org", Value::Ref(w.orgs[1]))])
            .unwrap();
        db.update(w.emps[5], &[("dept", Value::Ref(w.depts[2]))])
            .unwrap();
        db.delete(w.emps[6]).unwrap();
        check_consistency(&mut db);
        w.emps
            .iter()
            .filter(|e| **e != w.emps[6])
            .map(|e| db.path_values(*e, p).unwrap())
            .collect()
    };
    assert_eq!(run(false), run(true));
}

/// Every record of a link file, by OID: what a chunk edit changes.
fn link_records(db: &Database, file: FileId) -> BTreeMap<Oid, Vec<u8>> {
    let hf = HeapFile::open(file);
    let oids = hf.oids(db.sm()).unwrap();
    let read = |oid| (oid, hf.read(db.sm(), oid).unwrap().1);
    oids.into_iter().map(read).collect()
}

/// Records of `after` that are new or whose payload differs from `before`.
fn records_changed(before: &BTreeMap<Oid, Vec<u8>>, after: &BTreeMap<Oid, Vec<u8>>) -> usize {
    after
        .iter()
        .filter(|(o, p)| before.get(o) != Some(p))
        .count()
}

#[test]
fn a_collapsed_store_past_one_chunk_edits_one_chunk_per_source() {
    // The twin of the link-store test in engine_tests: 600 sources through
    // one terminal fill ⌈600/251⌉ = 3 chunks of one tagged store.
    let mut db = employee_db();
    let org = |db: &mut Database, n: &str| db.insert("Org", vec![sval(n), Value::Int(0)]).unwrap();
    let (big, spare) = (org(&mut db, "big"), org(&mut db, "spare"));
    let depts: Vec<Oid> = (0..6)
        .map(|i| {
            db.insert("Dept", vec![sval(&format!("d{i}")), Value::Ref(big)])
                .unwrap()
        })
        .collect();
    // Off the path for now, and below every other source in OID order: a
    // source that joins later lands in the head chunk, not the tail.
    let late: Vec<Oid> = (0..2)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![sval(&format!("late{i}")), Value::Ref(Oid::NULL)],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..600)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![sval(&format!("e{i}")), Value::Ref(depts[i % 6])],
            )
            .unwrap()
        })
        .collect();
    let p = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    check_consistency(&mut db);
    let link = db.catalog().links().next().unwrap().clone();
    let head_of = |db: &Database| collapsed::find_store(&db.get(big).unwrap(), link.id.0);
    let head = head_of(&db);
    assert!(head.is_some());
    assert_eq!(link_records(&db, link.file).len(), 3);

    // A source joining (the first splits the full head chunk) or leaving
    // edits the one chunk it belongs in, not the whole store.
    let mut before = link_records(&db, link.file);
    for (step, want) in [(0, 2), (1, 1), (2, 1)] {
        match step {
            2 => db.delete(emps[0]).unwrap(),
            i => db
                .update(late[i], &[("dept", Value::Ref(depts[0]))])
                .unwrap(),
        }
        let after = link_records(&db, link.file);
        assert_eq!(records_changed(&before, &after), want, "step {step}");
        assert_eq!(head_of(&db), head, "the head OID is stable");
        check_consistency(&mut db);
        before = after;
    }

    // Emptying a chunk unlinks it: the tail from its predecessor, the head
    // by absorbing its successor, so the head keeps its OID.
    let tagged = |db: &Database, o: Oid, d: Option<Oid>| -> Vec<Oid> {
        let entries =
            collapsed::members(db.sm(), &PagePins::none(), &db.get(o).unwrap(), &link).unwrap();
        let of_d = entries.into_iter().filter(|e| d.is_none_or(|d| e.1 == d));
        of_d.map(|e| e.0).collect()
    };
    for from_tail in [true, false] {
        let mut sources = tagged(&db, big, None);
        if from_tail {
            sources.reverse();
        }
        let records = link_records(&db, link.file).len();
        let emptied = sources.iter().position(|&s| {
            db.delete(s).unwrap();
            link_records(&db, link.file).len() < records
        });
        assert!(emptied.is_some_and(|k| k < 251), "tail {from_tail}");
        assert_eq!(link_records(&db, link.file).len(), records - 1);
        assert_eq!(head_of(&db), head);
        check_consistency(&mut db);
    }

    // A terminal rename reaches every source through the one store.
    db.update(big, &[("name", sval("BIG"))]).unwrap();
    check_consistency(&mut db);
    for e in tagged(&db, big, None) {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("BIG")]));
    }

    // Re-targeting d1 moves exactly its tagged entries to the spare org.
    let moving = tagged(&db, big, Some(depts[1]));
    assert!(!moving.is_empty());
    db.update(depts[1], &[("org", Value::Ref(spare))]).unwrap();
    check_consistency(&mut db);
    assert!(tagged(&db, big, Some(depts[1])).is_empty());
    assert_eq!(tagged(&db, spare, Some(depts[1])), moving);
    assert_eq!(head_of(&db), head);
    for &e in &moving {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("spare")]));
    }
}

#[test]
fn a_malformed_chunk_is_a_typed_error_not_a_panic() {
    // A short record, a count past its entries, a foreign mark: in a link
    // store and in a collapsed store alike, the inverse and a terminal
    // update that must read the store return an error.
    for tagged in [false, true] {
        for damage in 0..3 {
            let mut db = employee_db();
            let w = populate(&mut db);
            let target = if tagged {
                db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
                    .unwrap();
                w.orgs[0]
            } else {
                db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
                w.depts[0]
            };
            let link = db.catalog().links().next().unwrap().clone();
            let head = collapsed::find_store(&db.get(target).unwrap(), link.id.0).unwrap();
            let hf = HeapFile::open(link.file);
            let (_, mut bytes) = hf.read(db.sm(), head).unwrap();
            match damage {
                0 => bytes.truncate(5),
                1 => bytes[1] += 1,
                _ => bytes[0] ^= 0x40,
            }
            {
                let w = db.sm().apply_section();
                hf.rec_update(&w, &PagePins::none(), head, &bytes).unwrap();
            }
            let case = format!("collapsed {tagged}, damage {damage}");
            assert!(db.inverse(link.id, target).is_err(), "inverse: {case}");
            let rename = db.update(target, &[("name", sval("renamed"))]);
            assert!(rename.is_err(), "terminal update: {case}");
        }
    }
}
