//! Tests for the §8 future-work extensions: deferred propagation,
//! inverse functions over inverted paths, and replication deallocation
//! with link-ID reuse.

mod common;

use common::check_consistency;
use fieldrep_catalog::{IndexKind, LinkId, Propagation, Strategy};
use fieldrep_core::{write_object, Database, DbConfig, DbError};
use fieldrep_model::{Annotation, FieldType, TypeDef, Value};
use fieldrep_storage::{HeapFile, Oid, PagePins};

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
                vec![
                    sval(&format!("dept{i}")),
                    Value::Int(10 * i),
                    Value::Ref(orgs[(i % 2) as usize]),
                ],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..12)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![
                    sval(&format!("emp{i}")),
                    Value::Int(100 * i),
                    Value::Ref(depts[(i % 4) as usize]),
                ],
            )
            .unwrap()
        })
        .collect();
    World { orgs, depts, emps }
}

// ------------------------------------------------------------- deferred

#[test]
fn deferred_inplace_defers_then_syncs() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    // Initial build is eager: values are present.
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("dept0")])
    );

    // Update: NOT propagated yet; the raw hidden field still holds the
    // old value, and one work item is pending.
    db.update(w.depts[0], &[("name", sval("renamed"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);
    let raw = db.get(w.emps[0]).unwrap();
    assert_eq!(raw.replica_values(p.0).unwrap(), &[sval("dept0")]);

    // Reading through the API syncs first.
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("renamed")])
    );
    assert_eq!(db.pending_count(p), 0);
    check_consistency(&mut db);
}

#[test]
fn deferred_updates_batch() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    // Five updates to the same department collapse to one pending item.
    for i in 0..5 {
        db.update(w.depts[0], &[("name", sval(&format!("v{i}")))])
            .unwrap();
    }
    assert_eq!(db.pending_count(p), 1);
    // Two more to another department: two items total.
    db.update(w.depts[1], &[("name", sval("x"))]).unwrap();
    db.update(w.depts[1], &[("name", sval("y"))]).unwrap();
    assert_eq!(db.pending_count(p), 2);
    assert_eq!(db.sync_path(p).unwrap(), 2);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("v4")])
    );
    assert_eq!(db.path_values(w.emps[1], p).unwrap(), Some(vec![sval("y")]));
    check_consistency(&mut db);
}

#[test]
fn deferred_separate_replica_refresh() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with(
            "Emp1.dept.budget",
            Strategy::Separate,
            Propagation::Deferred,
        )
        .unwrap();
    db.update(w.depts[0], &[("budget", Value::Int(777))])
        .unwrap();
    assert_eq!(db.pending_count(p), 1);
    // path_values syncs.
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![Value::Int(777)])
    );
    assert_eq!(db.pending_count(p), 0);
    check_consistency(&mut db);
}

#[test]
fn deferred_2level_intermediate_update() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with(
            "Emp1.dept.org.name",
            Strategy::InPlace,
            Propagation::Deferred,
        )
        .unwrap();
    // Intermediate re-target: link structure moves eagerly, values lazily.
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    assert!(db.pending_count(p) >= 1);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("org1")])
    );
    check_consistency(&mut db);

    // Terminal rename also defers.
    db.update(w.orgs[1], &[("name", sval("OrgOne"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);
    assert_eq!(
        db.path_values(w.emps[0], p).unwrap(),
        Some(vec![sval("OrgOne")])
    );
    check_consistency(&mut db);
}

#[test]
fn deferred_query_execution_syncs_automatically() {
    use fieldrep_query::ReadQuery;
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    db.update(w.depts[2], &[("name", sval("fresh"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);
    let res = ReadQuery::on("Emp1")
        .project(["dept.name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(db.pending_count(p), 0, "query synced the path");
    assert_eq!(res.rows[2][0], Some(sval("fresh")));
}

#[test]
fn deferred_update_is_cheap_sync_pays_later() {
    // The point of deferral: the update query no longer pays the fan-out.
    let mut eager = employee_db();
    let mut deferred = employee_db();
    // One dept, many employees.
    for db in [&mut eager, &mut deferred] {
        let o = db.insert("Org", vec![sval("o"), Value::Int(0)]).unwrap();
        let d = db
            .insert("Dept", vec![sval("d#0"), Value::Int(0), Value::Ref(o)])
            .unwrap();
        for i in 0..500 {
            db.insert(
                "Emp1",
                vec![sval(&format!("e{i}")), Value::Int(i), Value::Ref(d)],
            )
            .unwrap();
        }
    }
    eager
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Eager)
        .unwrap();
    deferred
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();

    let d_eager = eager.scan_set("Dept").unwrap()[0];
    let d_def = deferred.scan_set("Dept").unwrap()[0];

    eager.flush_all().unwrap();
    eager.reset_profile();
    eager.update(d_eager, &[("name", sval("d#1"))]).unwrap();
    eager.flush_all().unwrap();
    let io_eager = eager.io_profile().total_io();

    deferred.flush_all().unwrap();
    deferred.reset_profile();
    deferred.update(d_def, &[("name", sval("d#1"))]).unwrap();
    deferred.flush_all().unwrap();
    let io_deferred = deferred.io_profile().total_io();

    assert!(
        io_deferred * 3 < io_eager,
        "deferred update ({io_deferred}) should be far cheaper than eager ({io_eager})"
    );
    // And sync brings everything back in line.
    deferred.sync_all_pending().unwrap();
    check_consistency(&mut deferred);
}

#[test]
fn deferred_entries_purged_on_delete() {
    let mut db = employee_db();
    let o = db.insert("Org", vec![sval("o"), Value::Int(0)]).unwrap();
    let d = db
        .insert("Dept", vec![sval("d"), Value::Int(0), Value::Ref(o)])
        .unwrap();
    let e = db
        .insert("Emp1", vec![sval("e"), Value::Int(0), Value::Ref(d)])
        .unwrap();
    let p = db
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    db.update(d, &[("name", sval("z"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);
    // Remove the employee, then the dept: pending entry must not dangle.
    db.delete(e).unwrap();
    db.delete(d).unwrap();
    assert_eq!(db.pending_count(p), 0);
    assert_eq!(db.sync_path(p).unwrap(), 0);
}

#[test]
fn an_update_planned_before_a_sync_keeps_the_refresh() {
    let mut db = employee_db();
    let d = db
        .insert(
            "Dept",
            vec![sval("Shoe"), Value::Int(0), Value::Ref(Oid::NULL)],
        )
        .unwrap();
    let e = db
        .insert("Emp1", vec![sval("e"), Value::Int(100), Value::Ref(d)])
        .unwrap();
    let p = db
        .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    db.update(d, &[("name", sval("Boots"))]).unwrap();
    assert_eq!(db.pending_count(p), 1);

    // The update's plan has read the employee when its changes are
    // computed; computing them syncs the path, which refreshes the
    // employee's hidden value. The sync is a locked write, so the plan is
    // stale by the time the update holds its locks: it is rebuilt over the
    // refreshed employee, not applied over the image read before.
    db.update_with(e, |_| {
        db.sync_path(p)?;
        Ok::<_, DbError>(vec![("salary", Value::Int(200))])
    })
    .unwrap();
    assert_eq!(db.pending_count(p), 0);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Boots")]));
    assert_eq!(db.get_field(e, "salary").unwrap(), Value::Int(200));
    check_consistency(&mut db);
}

/// A sync whose plan reads a link store while another writer holds the
/// store's owner and has taken the store apart must not return the error
/// that half-rewired store gives: its build is stale, and the sync waits
/// for the owner's lock and plans again. The writer's sleep is the window
/// the sync must start in: a sync that waits cannot signal back.
#[test]
fn a_sync_planned_while_a_store_is_mid_rewire_waits_for_it() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db
        .replicate_with(
            "Emp1.dept.org.budget",
            Strategy::InPlace,
            Propagation::Deferred,
        )
        .unwrap();
    let org = w.orgs[0];
    db.update(org, &[("budget", Value::Int(77))]).unwrap();
    assert_eq!(db.pending_count(p), 1, "a StaleSources entry on the org");
    let level1 = db.catalog().path(p).links[1].0;
    let chunk = db
        .get(org)
        .unwrap()
        .annotations
        .iter()
        .find_map(|a| match a {
            Annotation::LinkRef { link, oid } if *link == level1 => Some(*oid),
            _ => None,
        })
        .expect("a level-1 link is never inline");

    let (taken_apart, wait) = std::sync::mpsc::channel();
    let synced = std::thread::scope(|s| {
        let db = &db;
        s.spawn(move || {
            let _held = db.txn().lock_sorted(&[org]).unwrap();
            db.apply_and_commit(|db, w| {
                let heap = HeapFile::open(chunk.file);
                let (tag, payload) = heap.read(w, chunk)?;
                heap.rec_delete(w, &PagePins::none(), chunk)?;
                taken_apart.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(300));
                let moved = heap.rec_insert(w, &PagePins::none(), tag, &payload)?;
                let mut obj = db.get(org)?;
                for a in &mut obj.annotations {
                    if let Annotation::LinkRef { link, oid } = a {
                        if *link == level1 {
                            *oid = moved;
                        }
                    }
                }
                write_object(w, &PagePins::none(), db.catalog(), org, &obj)
            })
            .unwrap();
        });
        wait.recv().unwrap();
        db.sync_path(p)
    });
    assert_eq!(synced.unwrap(), 1);
    assert_eq!(db.pending_count(p), 0);
    let mut refreshed = 0;
    for &e in &w.emps {
        let want = db.deref_path(e, "dept.org.budget").unwrap();
        assert_eq!(db.path_values(e, p).unwrap(), want, "emp {e:?}");
        refreshed += usize::from(want == Some(vec![Value::Int(77)]));
    }
    assert_eq!(refreshed, 6, "every source of the org sees the new budget");
    check_consistency(&mut db);
}

#[test]
fn path_index_on_deferred_path_rejected() {
    let mut db = employee_db();
    populate(&mut db);
    db.replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    assert!(db
        .create_index("Emp1.dept.name", IndexKind::Unclustered)
        .is_err());
}

// -------------------------------------------------------------- inverse

#[test]
fn inverse_function_via_inverted_path() {
    let mut db = employee_db();
    let w = populate(&mut db);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    // Who references dept0? Employees 0, 4, 8.
    let mut hits = db.inverse_of("Emp1.dept", w.depts[0]).unwrap();
    hits.sort_unstable();
    let mut want = vec![w.emps[0], w.emps[4], w.emps[8]];
    want.sort_unstable();
    assert_eq!(hits, want);
    // An unreferenced dept answers empty after everyone moves away.
    db.update(w.emps[0], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    db.update(w.emps[4], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    db.update(w.emps[8], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    assert!(db.inverse_of("Emp1.dept", w.depts[0]).unwrap().is_empty());
}

#[test]
fn inverse_on_second_level_link() {
    let mut db = employee_db();
    let w = populate(&mut db);
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    // Link 2 inverts dept.org: which depts (on the path) reference org0?
    let mut hits = db.inverse(LinkId(2), w.orgs[0]).unwrap();
    hits.sort_unstable();
    let mut want = vec![w.depts[0], w.depts[2]];
    want.sort_unstable();
    assert_eq!(hits, want);
}

#[test]
fn inverse_without_inverted_path_errors() {
    let mut db = employee_db();
    let w = populate(&mut db);
    assert!(db.inverse_of("Emp1.dept", w.depts[0]).is_err());
}

// ----------------------------------------------------------------- drop

#[test]
fn drop_replication_removes_all_state() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.drop_replication(p).unwrap();

    // No annotations anywhere.
    for oid in db.scan_set("Emp1").unwrap() {
        assert!(db.get(oid).unwrap().annotations.is_empty());
    }
    for oid in db.scan_set("Dept").unwrap() {
        assert!(db.get(oid).unwrap().annotations.is_empty());
    }
    assert_eq!(db.catalog().paths().count(), 0);
    assert_eq!(db.catalog().links().count(), 0);
    // Depts are now deletable (no replication guards them).
    db.delete(w.emps[0]).unwrap();
    check_consistency(&mut db);
}

#[test]
fn drop_preserves_shared_links() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p_name = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let p_budget = db.replicate("Emp1.dept.budget", Strategy::InPlace).unwrap();
    db.drop_replication(p_name).unwrap();
    // The shared link survives for the budget path.
    assert_eq!(db.catalog().links().count(), 1);
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps[0], p_budget).unwrap(),
        Some(vec![Value::Int(0)])
    );
    // Budget updates still propagate.
    db.update(w.depts[0], &[("budget", Value::Int(5))]).unwrap();
    assert_eq!(
        db.path_values(w.emps[0], p_budget).unwrap(),
        Some(vec![Value::Int(5)])
    );
    check_consistency(&mut db);
}

#[test]
fn drop_separate_group_tears_down_replicas() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p1 = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    let p2 = db
        .replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    // Dropping one path keeps the shared group alive.
    db.drop_replication(p1).unwrap();
    assert_eq!(db.catalog().groups().count(), 1);
    check_consistency(&mut db);
    assert!(db.path_values(w.emps[0], p2).unwrap().is_some());
    // Dropping the last path removes the group, anchors and refs.
    db.drop_replication(p2).unwrap();
    assert_eq!(db.catalog().groups().count(), 0);
    for oid in db.scan_set("Emp1").unwrap() {
        assert!(db.get(oid).unwrap().annotations.is_empty());
    }
    for oid in db.scan_set("Dept").unwrap() {
        assert!(db.get(oid).unwrap().annotations.is_empty());
    }
}

#[test]
fn link_ids_are_reused_after_drop() {
    // §4.2: "link IDs which are not in use can be reused".
    let mut db = employee_db();
    populate(&mut db);
    let p1 = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let first_link = db.catalog().path(p1).links[0];
    db.drop_replication(p1).unwrap();
    let p2 = db.replicate("Emp1.dept.budget", Strategy::InPlace).unwrap();
    assert_eq!(
        db.catalog().path(p2).links[0],
        first_link,
        "freed link id is reused"
    );
    check_consistency(&mut db);
}

#[test]
fn drop_with_path_index_refused_until_index_dropped() {
    let mut db = employee_db();
    populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.create_index("Emp1.dept.name", IndexKind::Unclustered)
        .unwrap();
    assert!(db.drop_replication(p).is_err());
    // The path is still live and functional after the refused drop.
    assert_eq!(db.catalog().paths().count(), 1);
    check_consistency(&mut db);
}

#[test]
fn redeclare_after_drop_works() {
    let mut db = employee_db();
    let w = populate(&mut db);
    let p1 = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.drop_replication(p1).unwrap();
    let p2 = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    assert_eq!(
        db.path_values(w.emps[0], p2).unwrap(),
        Some(vec![sval("dept0")])
    );
    check_consistency(&mut db);
    // Annotations from the old strategy are gone; only the new group ref
    // remains on sources.
    let e = db.get(w.emps[0]).unwrap();
    assert_eq!(e.annotations.len(), 1);
    assert!(matches!(e.annotations[0], Annotation::ReplicaRef { .. }));
}
