//! End-to-end engine tests: the employee database of Figure 1, exercised
//! through every replication scenario in §3–§5 of the paper, with full
//! invariant checking after each step.

mod common;

use common::check_consistency;
use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::chain::Entry;
use fieldrep_core::{Database, DbConfig, DbError};
use fieldrep_model::{Annotation, FieldType, TypeDef, Value};
use fieldrep_storage::{HeapFile, Oid};

/// Build the Figure-1 schema: ORG ← DEPT ← EMP, sets Org/Dept/Emp1/Emp2.
fn employee_db(cfg: DbConfig) -> Database {
    let mut db = Database::in_memory(cfg);
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
    db
}

fn org(db: &mut Database, name: &str, budget: i64) -> Oid {
    db.insert("Org", vec![Value::Str(name.into()), Value::Int(budget)])
        .unwrap()
}

fn dept(db: &mut Database, name: &str, budget: i64, org: Oid) -> Oid {
    db.insert(
        "Dept",
        vec![Value::Str(name.into()), Value::Int(budget), Value::Ref(org)],
    )
    .unwrap()
}

fn emp(db: &mut Database, set: &str, name: &str, age: i64, salary: i64, dept: Oid) -> Oid {
    db.insert(
        set,
        vec![
            Value::Str(name.into()),
            Value::Int(age),
            Value::Int(salary),
            Value::Ref(dept),
        ],
    )
    .unwrap()
}

/// A small standard population: 2 orgs, 3 depts, employees in both sets.
struct World {
    orgs: Vec<Oid>,
    depts: Vec<Oid>,
    emps1: Vec<Oid>,
    emps2: Vec<Oid>,
}

fn populate(db: &mut Database) -> World {
    let o0 = org(db, "Acme", 1_000_000);
    let o1 = org(db, "Globex", 2_000_000);
    let d0 = dept(db, "Shoe", 10_000, o0);
    let d1 = dept(db, "Toy", 20_000, o0);
    let d2 = dept(db, "Tool", 30_000, o1);
    let mut emps1 = Vec::new();
    for i in 0..9 {
        let d = [d0, d1, d2][i % 3];
        emps1.push(emp(
            db,
            "Emp1",
            &format!("e{i}"),
            20 + i as i64,
            50_000 + 1000 * i as i64,
            d,
        ));
    }
    let mut emps2 = Vec::new();
    for i in 0..4 {
        let d = [d0, d2][i % 2];
        emps2.push(emp(db, "Emp2", &format!("f{i}"), 30 + i as i64, 60_000, d));
    }
    World {
        orgs: vec![o0, o1],
        depts: vec![d0, d1, d2],
        emps1,
        emps2,
    }
}

fn sval(s: &str) -> Value {
    Value::Str(s.into())
}

// ---------------------------------------------------------------- in-place

#[test]
fn inplace_1level_read_after_replicate() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Shoe")])
    );
    assert_eq!(
        db.path_values(w.emps1[1], p).unwrap(),
        Some(vec![sval("Toy")])
    );
    // Emp2 is not replicated; deref still works as the join baseline.
    assert_eq!(
        db.deref_path(w.emps2[0], "dept.name").unwrap(),
        Some(vec![sval("Shoe")])
    );
}

#[test]
fn inplace_update_propagates_to_all_referencing() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.update(w.depts[0], &[("name", sval("Footwear"))])
        .unwrap();
    check_consistency(&mut db);
    // Employees 0, 3, 6 reference dept 0.
    for &e in [&w.emps1[0], &w.emps1[3], &w.emps1[6]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Footwear")]));
    }
    // Others untouched.
    assert_eq!(
        db.path_values(w.emps1[1], p).unwrap(),
        Some(vec![sval("Toy")])
    );
}

#[test]
fn inplace_insert_after_replicate_attaches() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let e = emp(&mut db, "Emp1", "newbie", 25, 70_000, w.depts[2]);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Tool")]));
    check_consistency(&mut db);
}

#[test]
fn inplace_source_ref_update_retargets() {
    // §4.1.1 update E.dept: delete-actions then insert-actions.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.update(w.emps1[0], &[("dept", Value::Ref(w.depts[2]))])
        .unwrap();
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Tool")])
    );
    check_consistency(&mut db);
    // Updating the old dept's name no longer touches e0.
    db.update(w.depts[0], &[("name", sval("X"))]).unwrap();
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Tool")])
    );
    check_consistency(&mut db);
}

#[test]
fn inplace_delete_source_cleans_links() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    // Move everyone off dept 1 except e1, then delete e1: dept 1's link
    // store must disappear entirely.
    db.update(w.emps1[4], &[("dept", Value::Ref(w.depts[0]))])
        .unwrap();
    db.update(w.emps1[7], &[("dept", Value::Ref(w.depts[0]))])
        .unwrap();
    db.delete(w.emps1[1]).unwrap();
    check_consistency(&mut db);
    let d1 = db.get(w.depts[1]).unwrap();
    assert!(
        d1.annotations.is_empty(),
        "dept 1 should carry no link annotations: {:?}",
        d1.annotations
    );
}

#[test]
fn inplace_2level_and_intermediate_update() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db
        .replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Acme")])
    );
    assert_eq!(
        db.path_values(w.emps1[2], p).unwrap(),
        Some(vec![sval("Globex")])
    );

    // Terminal update: O.name propagates through two levels.
    db.update(w.orgs[0], &[("name", sval("Acme Corp"))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Acme Corp")])
    );

    // Intermediate update: D.org moves dept 0 (and employees 0,3,6) to
    // Globex — "X.name will have to replace O.name in all of the objects
    // in Emp1 that reference D" (§4.1.2).
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps1[0], &w.emps1[3], &w.emps1[6]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Globex")]));
    }
}

#[test]
fn inplace_2level_ripple_delete() {
    // §4.1.2: deleting the last employee of a dept may ripple: the dept's
    // link object disappears AND the dept leaves the org's link object.
    let mut db = employee_db(DbConfig::default());
    let o = org(&mut db, "Solo", 1);
    let d = dept(&mut db, "OnlyDept", 2, o);
    let e = emp(&mut db, "Emp1", "only", 40, 1, d);
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    check_consistency(&mut db);
    let oobj = db.get(o).unwrap();
    assert!(!oobj.annotations.is_empty(), "org is on the path");
    db.delete(e).unwrap();
    check_consistency(&mut db);
    let oobj = db.get(o).unwrap();
    assert!(oobj.annotations.is_empty(), "org left the path");
    let dobj = db.get(d).unwrap();
    assert!(dobj.annotations.is_empty(), "dept left the path");
}

#[test]
fn multiple_paths_share_links_and_propagate_independently() {
    // §4.1.4's example with shared prefixes.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p_budget = db.replicate("Emp1.dept.budget", Strategy::InPlace).unwrap();
    let p_name = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let p_orgname = db
        .replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    check_consistency(&mut db);

    // One link annotation on each dept despite three paths (link shared).
    let d0 = db.get(w.depts[0]).unwrap();
    let n_links = d0
        .annotations
        .iter()
        .filter(|a| {
            matches!(
                a,
                Annotation::LinkRef { .. } | Annotation::InlineLink { .. }
            )
        })
        .count();
    assert_eq!(
        n_links, 1,
        "shared prefix ⇒ one link store on D: {:?}",
        d0.annotations
    );

    db.update(
        w.depts[0],
        &[("budget", Value::Int(77)), ("name", sval("Both"))],
    )
    .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p_budget).unwrap(),
        Some(vec![Value::Int(77)])
    );
    assert_eq!(
        db.path_values(w.emps1[0], p_name).unwrap(),
        Some(vec![sval("Both")])
    );
    assert_eq!(
        db.path_values(w.emps1[0], p_orgname).unwrap(),
        Some(vec![sval("Acme")])
    );
}

#[test]
fn collapse_path_replicates_the_reference() {
    // §3.3.3: replicate Emp1.dept.org collapses a 2-level path.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.org", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![Value::Ref(w.orgs[0])])
    );
    // Re-targeting D.org updates the replicated reference automatically —
    // "referential integrity could never be violated".
    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![Value::Ref(w.orgs[1])])
    );
}

#[test]
fn full_object_replication_all() {
    // §3.3.1: replicate Emp1.dept.all.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.all", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![
            sval("Shoe"),
            Value::Int(10_000),
            Value::Ref(w.orgs[0])
        ])
    );
    db.update(w.depts[0], &[("budget", Value::Int(1))]).unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Shoe"), Value::Int(1), Value::Ref(w.orgs[0])])
    );
}

#[test]
fn delete_referenced_object_is_rejected() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    assert!(matches!(
        db.delete(w.depts[0]),
        Err(DbError::StillReferenced(_))
    ));
    // After all referencing employees leave, deletion succeeds.
    db.update(w.emps1[0], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    db.update(w.emps1[3], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    db.update(w.emps1[6], &[("dept", Value::Ref(w.depts[1]))])
        .unwrap();
    db.delete(w.depts[0]).unwrap();
    check_consistency(&mut db);
}

#[test]
fn inline_link_threshold_grows_and_shrinks() {
    // §4.3.1: with threshold 2, one or two referencing employees are kept
    // inline; a third spills into a link object; dropping back to two
    // returns to inline form.
    let mut db = employee_db(DbConfig {
        inline_link_threshold: 2,
        ..DbConfig::default()
    });
    let o = org(&mut db, "O", 1);
    let d_a = dept(&mut db, "A", 1, o);
    let d_b = dept(&mut db, "B", 1, o);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let e1 = emp(&mut db, "Emp1", "x", 1, 1, d_a);
    let e2 = emp(&mut db, "Emp1", "y", 1, 1, d_a);
    check_consistency(&mut db);
    let a = db.get(d_a).unwrap();
    assert!(
        a.annotations
            .iter()
            .any(|x| matches!(x, Annotation::InlineLink { oids, .. } if oids.len() == 2)),
        "two members stay inline: {:?}",
        a.annotations
    );
    let e3 = emp(&mut db, "Emp1", "z", 1, 1, d_a);
    check_consistency(&mut db);
    let a = db.get(d_a).unwrap();
    assert!(
        a.annotations
            .iter()
            .any(|x| matches!(x, Annotation::LinkRef { .. })),
        "three members spill to a link object: {:?}",
        a.annotations
    );
    // Move one member away: back to inline.
    db.update(e3, &[("dept", Value::Ref(d_b))]).unwrap();
    check_consistency(&mut db);
    let a = db.get(d_a).unwrap();
    assert!(
        a.annotations
            .iter()
            .any(|x| matches!(x, Annotation::InlineLink { oids, .. } if oids.len() == 2)),
        "shrinks back to inline: {:?}",
        a.annotations
    );
    let _ = (e1, e2);
}

#[test]
fn zero_threshold_always_uses_link_objects() {
    let mut db = employee_db(DbConfig {
        inline_link_threshold: 0,
        ..DbConfig::default()
    });
    let w = populate(&mut db);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    let d = db.get(w.depts[0]).unwrap();
    assert!(d
        .annotations
        .iter()
        .any(|a| matches!(a, Annotation::LinkRef { .. })));
}

#[test]
fn a_link_store_past_one_chunk_chains_and_propagates() {
    // §4.1: "each link object can contain a large number of OIDs". Ours
    // is a chain of page-bounded chunks; replicating after population
    // writes it in one pass, ⌈1200/503⌉ = 3 chunks for one department.
    const N: usize = 1200;
    let mut db = employee_db(DbConfig::default());
    let o = org(&mut db, "O", 1);
    let d = dept(&mut db, "Big", 1, o);
    let emps: Vec<Oid> = (0..N)
        .map(|i| emp(&mut db, "Emp1", &format!("e{i}"), 30, 1, d))
        .collect();
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    let links: Vec<_> = db.catalog().links().cloned().collect();
    assert_eq!(links.len(), 1);
    let chunks = HeapFile::open(links[0].file).count(db.sm()).unwrap();
    assert_eq!(chunks, N.div_ceil(Oid::CAPACITY) as u64);
    assert_eq!(chunks, 3);

    db.update(d, &[("name", sval("Bigger"))]).unwrap();
    check_consistency(&mut db);
    for &e in &emps {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Bigger")]));
    }
    let mut sorted = emps;
    sorted.sort();
    assert_eq!(db.inverse(links[0].id, d).unwrap(), sorted);
}

// ---------------------------------------------------------------- separate

#[test]
fn separate_1level_read_and_update() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Shoe")])
    );
    // A department update touches exactly one replica object, and all
    // sharers observe it.
    db.update(w.depts[0], &[("name", sval("Sneaker"))]).unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps1[0], &w.emps1[3], &w.emps1[6]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Sneaker")]));
    }
}

#[test]
fn separate_group_shares_one_replica_object() {
    // Figure 7: name and budget replicas are stored together; all
    // employees of a dept share one replica object.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p_name = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    let p_budget = db
        .replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p_name).unwrap(),
        Some(vec![sval("Shoe")])
    );
    assert_eq!(
        db.path_values(w.emps1[0], p_budget).unwrap(),
        Some(vec![Value::Int(10_000)])
    );
    // Exactly 3 replica objects (one per referenced dept).
    let group = db.catalog().groups().next().unwrap().clone();
    let n = fieldrep_storage::HeapFile::open(group.file)
        .count(db.sm())
        .unwrap();
    assert_eq!(n, 3);
}

#[test]
fn separate_source_ref_update_repoints() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    db.update(w.emps1[0], &[("dept", Value::Ref(w.depts[2]))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Tool")])
    );
}

#[test]
fn separate_refcount_reaches_zero_and_replica_is_reclaimed() {
    let mut db = employee_db(DbConfig::default());
    let o = org(&mut db, "O", 1);
    let d_a = dept(&mut db, "A", 1, o);
    let d_b = dept(&mut db, "B", 2, o);
    db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    let e1 = emp(&mut db, "Emp1", "x", 1, 1, d_a);
    let e2 = emp(&mut db, "Emp1", "y", 1, 1, d_a);
    check_consistency(&mut db);
    db.update(e1, &[("dept", Value::Ref(d_b))]).unwrap();
    check_consistency(&mut db);
    db.delete(e2).unwrap();
    check_consistency(&mut db);
    // d_a's replica must be gone; deleting d_a must now succeed.
    let a = db.get(d_a).unwrap();
    assert!(a.annotations.is_empty());
    db.delete(d_a).unwrap();
    check_consistency(&mut db);
}

#[test]
fn separate_2level_intermediate_update_repoints_sources() {
    // §5.2: "If D2.org is changed from O2 to O1, then E3 must be updated
    // so that it references R1, rather than R2."
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db
        .replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Acme")])
    );

    db.update(w.depts[0], &[("org", Value::Ref(w.orgs[1]))])
        .unwrap();
    check_consistency(&mut db);
    for &e in [&w.emps1[0], &w.emps1[3], &w.emps1[6]] {
        assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Globex")]));
    }
    // Terminal data update still costs one replica write and is seen by
    // everyone.
    db.update(w.orgs[1], &[("name", sval("Globex LLC"))])
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p).unwrap(),
        Some(vec![sval("Globex LLC")])
    );
}

#[test]
fn separate_group_extension_resyncs_replicas() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p_name = db.replicate("Emp1.dept.name", Strategy::Separate).unwrap();
    // Update before extension so replica objects must be re-materialised
    // with both fields.
    db.update(w.depts[0], &[("budget", Value::Int(42))])
        .unwrap();
    let p_budget = db
        .replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p_budget).unwrap(),
        Some(vec![Value::Int(42)])
    );
    assert_eq!(
        db.path_values(w.emps1[0], p_name).unwrap(),
        Some(vec![sval("Shoe")])
    );
}

// ------------------------------------------------------------ mixed & misc

#[test]
fn both_strategies_coexist_and_share_links() {
    // §5.3: in-place and separate support at the same time.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p_ip = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let p_sep = db
        .replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    check_consistency(&mut db);
    db.update(
        w.depts[0],
        &[("name", sval("N")), ("org", Value::Ref(w.orgs[1]))],
    )
    .unwrap();
    check_consistency(&mut db);
    assert_eq!(
        db.path_values(w.emps1[0], p_ip).unwrap(),
        Some(vec![sval("N")])
    );
    assert_eq!(
        db.path_values(w.emps1[0], p_sep).unwrap(),
        Some(vec![sval("Globex")])
    );
}

#[test]
fn instance_level_replication_leaves_other_sets_alone() {
    // §3.2: replication is per-instance (Emp1), not per-type (EMP).
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    check_consistency(&mut db);
    let f0 = db.get(w.emps2[0]).unwrap();
    assert!(
        f0.annotations.is_empty(),
        "Emp2 members carry no replication state"
    );
}

#[test]
fn null_and_broken_chains() {
    let mut db = employee_db(DbConfig::default());
    let o = org(&mut db, "O", 1);
    let d = dept(&mut db, "D", 1, o);
    let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let p2 = db
        .replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    // An employee with a NULL dept participates in nothing.
    let e = db
        .insert(
            "Emp1",
            vec![
                sval("lost"),
                Value::Int(1),
                Value::Int(1),
                Value::Ref(Oid::NULL),
            ],
        )
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), None);
    assert_eq!(db.path_values(e, p2).unwrap(), None);
    // Pointing it at a dept materialises both paths.
    db.update(e, &[("dept", Value::Ref(d))]).unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("D")]));
    assert_eq!(db.path_values(e, p2).unwrap(), Some(vec![sval("O")]));
    // And back to NULL detaches cleanly.
    db.update(e, &[("dept", Value::Ref(Oid::NULL))]).unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), None);
}

#[test]
fn path_index_follows_replica_updates() {
    // §3.3.4: build btree on Emp1.dept.org.name; the index maps org names
    // directly to Emp1 objects and follows propagation.
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let p = db
        .replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    let idx = db
        .create_index("Emp1.dept.org.name", IndexKind::Unclustered)
        .unwrap();
    let file = db.catalog().index(idx).file;
    let tree = fieldrep_btree::BTreeIndex::open(file);
    let key = fieldrep_core::value_key(&sval("Acme"));
    let hits = tree.lookup(db.sm(), &key).unwrap();
    // Emp1 members under Acme: depts 0,1 → employees 0,1,3,4,6,7.
    assert_eq!(hits.len(), 6);

    // Rename the org: index keys move.
    db.update(w.orgs[0], &[("name", sval("Acme Corp"))])
        .unwrap();
    check_consistency(&mut db);
    let tree = fieldrep_btree::BTreeIndex::open(file);
    assert!(tree.lookup(db.sm(), &key).unwrap().is_empty());
    let key2 = fieldrep_core::value_key(&sval("Acme Corp"));
    assert_eq!(tree.lookup(db.sm(), &key2).unwrap().len(), 6);

    // Retarget one employee: its entry moves too.
    db.update(w.emps1[0], &[("dept", Value::Ref(w.depts[2]))])
        .unwrap();
    check_consistency(&mut db);
    let tree = fieldrep_btree::BTreeIndex::open(file);
    assert_eq!(tree.lookup(db.sm(), &key2).unwrap().len(), 5);
    let _ = p;
}

#[test]
fn base_field_index_maintenance() {
    let mut db = employee_db(DbConfig::default());
    let w = populate(&mut db);
    let idx = db
        .create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();
    let file = db.catalog().index(idx).file;
    let tree = fieldrep_btree::BTreeIndex::open(file);
    assert_eq!(tree.entry_count(db.sm()).unwrap(), 9);

    db.update(w.emps1[0], &[("salary", Value::Int(999_999))])
        .unwrap();
    let key = fieldrep_core::value_key(&Value::Int(999_999));
    assert_eq!(tree.lookup(db.sm(), &key).unwrap(), vec![w.emps1[0]]);

    db.delete(w.emps1[0]).unwrap();
    assert!(tree.lookup(db.sm(), &key).unwrap().is_empty());
    assert_eq!(tree.entry_count(db.sm()).unwrap(), 8);

    // Inserts index themselves.
    let e = emp(&mut db, "Emp1", "idx", 1, 123_456, w.depts[1]);
    let key = fieldrep_core::value_key(&Value::Int(123_456));
    assert_eq!(tree.lookup(db.sm(), &key).unwrap(), vec![e]);
}

#[test]
fn field_named_twice_takes_its_last_value_everywhere() {
    // One resolved change per field, last assignment wins — for the stored
    // value, the B-tree, the object's own re-target (hop 0) and the
    // intermediate re-point (hop 1) alike, through both doors.
    for txn in [false, true] {
        let mut db = employee_db(DbConfig::default());
        let w = populate(&mut db);
        let p1 = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
        let p2 = db
            .replicate("Emp1.dept.org.name", Strategy::InPlace)
            .unwrap();
        let idx = db
            .create_index("Emp1.salary", IndexKind::Unclustered)
            .unwrap();
        let tree = fieldrep_btree::BTreeIndex::open(db.catalog().index(idx).file);
        let update = |db: &Database, oid, changes: &[(&str, Value)]| {
            if txn {
                db.update_txn(oid, changes)
            } else {
                db.update(oid, changes)
            }
            .unwrap();
        };

        // e0 sits in d0 (Shoe, Acme): indexed field and hop 0, each twice.
        let e = w.emps1[0];
        update(
            &db,
            e,
            &[
                ("salary", Value::Int(2)),
                ("dept", Value::Ref(w.depts[1])),
                ("salary", Value::Int(3)),
                ("dept", Value::Ref(w.depts[2])),
            ],
        );
        assert_eq!(db.get_field(e, "salary").unwrap(), Value::Int(3));
        let key = |v| fieldrep_core::value_key(&Value::Int(v));
        assert_eq!(tree.lookup(db.sm(), &key(3)).unwrap(), vec![e]);
        assert!(tree.lookup(db.sm(), &key(2)).unwrap().is_empty());
        assert_eq!(tree.entry_count(db.sm()).unwrap(), 9);
        assert_eq!(db.path_values(e, p1).unwrap(), Some(vec![sval("Tool")]));
        assert_eq!(db.path_values(e, p2).unwrap(), Some(vec![sval("Globex")]));
        check_consistency(&mut db);

        // d1 (Toy, Acme) re-points its org twice; it must end on Globex.
        update(
            &db,
            w.depts[1],
            &[
                ("org", Value::Ref(Oid::NULL)),
                ("org", Value::Ref(w.orgs[1])),
            ],
        );
        assert_eq!(
            db.path_values(w.emps1[1], p2).unwrap(),
            Some(vec![sval("Globex")])
        );
        check_consistency(&mut db);
    }
}

#[test]
fn retargeting_a_self_reference_and_renaming_in_one_update() {
    // An employee who is their own manager is the source, the terminal and
    // the anchor of their own chain. One update that re-targets `mgr` and
    // renames must release the old `S'` replica (the last reference to it
    // was the employee's own) rather than refresh it: the new manager's
    // replica is created in the freed slot.
    for txn in [false, true] {
        let mut db = Database::in_memory(DbConfig::default());
        db.define_type(TypeDef::new(
            "EMP",
            vec![
                ("name", FieldType::Str),
                ("mgr", FieldType::Ref("EMP".into())),
            ],
        ))
        .unwrap();
        db.create_set("Emp", "EMP").unwrap();
        let sep = db.replicate("Emp.mgr.name", Strategy::Separate).unwrap();
        let two = db.replicate("Emp.mgr.mgr.name", Strategy::InPlace).unwrap();
        let emp = |db: &Database, name| db.insert("Emp", vec![sval(name), Value::Ref(Oid::NULL)]);
        let (e1, e2) = (emp(&db, "a").unwrap(), emp(&db, "b").unwrap());
        let update = |db: &Database, oid, changes: &[(&str, Value)]| {
            if txn {
                db.update_txn(oid, changes)
            } else {
                db.update(oid, changes)
            }
            .unwrap();
        };

        update(&db, e1, &[("mgr", Value::Ref(e1))]);
        assert_eq!(db.path_values(e1, sep).unwrap(), Some(vec![sval("a")]));
        assert_eq!(db.path_values(e1, two).unwrap(), Some(vec![sval("a")]));
        update(&db, e1, &[("mgr", Value::Ref(e2)), ("name", sval("x"))]);
        assert_eq!(db.path_values(e1, sep).unwrap(), Some(vec![sval("b")]));
        assert_eq!(db.path_values(e1, two).unwrap(), None);
        check_consistency(&mut db);

        // Close a two-cycle, then re-enter the self-cycle while renaming:
        // the new chain comes back to e1 and continues through its *new*
        // reference.
        update(&db, e2, &[("mgr", Value::Ref(e1))]);
        update(&db, e1, &[("mgr", Value::Ref(e1)), ("name", sval("y"))]);
        assert_eq!(db.path_values(e1, two).unwrap(), Some(vec![sval("y")]));
        assert_eq!(db.path_values(e2, two).unwrap(), Some(vec![sval("y")]));
        check_consistency(&mut db);
    }
}

#[test]
fn replicate_before_and_after_population_agree() {
    // Declaring replication before inserts (incremental maintenance) and
    // after inserts (bulk build) must produce identical logical state.
    let cfg = DbConfig::default();
    let mut before = employee_db(cfg.clone());
    before
        .replicate("Emp1.dept.name", Strategy::InPlace)
        .unwrap();
    before
        .replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    let wb = populate(&mut before);
    check_consistency(&mut before);

    let mut after = employee_db(cfg);
    let wa = populate(&mut after);
    let p1 = after
        .replicate("Emp1.dept.name", Strategy::InPlace)
        .unwrap();
    let p2 = after
        .replicate("Emp1.dept.org.name", Strategy::Separate)
        .unwrap();
    check_consistency(&mut after);

    for (eb, ea) in wb.emps1.iter().zip(&wa.emps1) {
        assert_eq!(
            before.path_values(*eb, p1).unwrap(),
            after.path_values(*ea, p1).unwrap()
        );
        assert_eq!(
            before.path_values(*eb, p2).unwrap(),
            after.path_values(*ea, p2).unwrap()
        );
    }
}

#[test]
fn three_level_path() {
    // Deeper than anything in the paper's examples: a 3-level chain
    // EMP → DEPT → ORG → ORG (self-ref parent).
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new(
        "ORG",
        vec![
            ("name", FieldType::Str),
            ("parent", FieldType::Ref("ORG".into())),
        ],
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

    let root = db
        .insert("Org", vec![sval("Root"), Value::Ref(Oid::NULL)])
        .unwrap();
    let sub = db
        .insert("Org", vec![sval("Sub"), Value::Ref(root)])
        .unwrap();
    let d = db.insert("Dept", vec![sval("D"), Value::Ref(sub)]).unwrap();
    let e = db.insert("Emp1", vec![sval("E"), Value::Ref(d)]).unwrap();

    let p = db
        .replicate("Emp1.dept.org.parent.name", Strategy::InPlace)
        .unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Root")]));

    // Terminal update three levels away.
    db.update(root, &[("name", sval("Root2"))]).unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Root2")]));

    // Intermediate at level 1: Sub re-parents to a new org.
    let root2 = db
        .insert("Org", vec![sval("Other"), Value::Ref(Oid::NULL)])
        .unwrap();
    db.update(sub, &[("parent", Value::Ref(root2))]).unwrap();
    check_consistency(&mut db);
    assert_eq!(db.path_values(e, p).unwrap(), Some(vec![sval("Other")]));
}
