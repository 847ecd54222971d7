//! Path-index tests: both designs agree with ground truth, and the
//! Gemstone design costs more I/O per lookup (the §3.3.4 claim).

use fieldrep_catalog::Strategy;
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_pathindex::{GemstonePathIndex, ReplicatedPathIndex};
use fieldrep_storage::Oid;

fn setup() -> (Database, Vec<Oid>, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new("ORG", vec![("name", FieldType::Str)]))
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
    let orgs: Vec<Oid> = (0..3)
        .map(|i| {
            db.insert("Org", vec![Value::Str(format!("org{i}"))])
                .unwrap()
        })
        .collect();
    let depts: Vec<Oid> = (0..6)
        .map(|i| {
            db.insert(
                "Dept",
                vec![Value::Str(format!("dept{i}")), Value::Ref(orgs[i % 3])],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..60)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![Value::Str(format!("emp{i}")), Value::Ref(depts[i % 6])],
            )
            .unwrap()
        })
        .collect();
    (db, orgs, depts, emps)
}

/// Ground truth by brute-force dereference.
fn expected(db: &mut Database, emps: &[Oid], org_name: &str) -> Vec<Oid> {
    let mut out: Vec<Oid> = emps
        .iter()
        .filter(|&&e| {
            db.deref_path(e, "dept.org.name").unwrap() == Some(vec![Value::Str(org_name.into())])
        })
        .copied()
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn gemstone_lookup_matches_ground_truth() {
    let (mut db, _, _, emps) = setup();
    let g = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    assert_eq!(g.component_count(), 3); // the paper's "three B+ tree" claim
    for name in ["org0", "org1", "org2"] {
        let mut hits = g.lookup(&mut db, &Value::Str(name.into())).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, expected(&mut db, &emps, name), "{name}");
    }
    assert!(g
        .lookup(&mut db, &Value::Str("nope".into()))
        .unwrap()
        .is_empty());
}

#[test]
fn replicated_index_matches_gemstone() {
    let (mut db, _, _, _) = setup();
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    let r = ReplicatedPathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    let g = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    for name in ["org0", "org1", "org2"] {
        let v = Value::Str(name.into());
        let mut a = r.lookup(&mut db, &v).unwrap();
        let mut b = g.lookup(&mut db, &v).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{name}");
    }
}

#[test]
fn replicated_index_range() {
    let (mut db, _, _, _) = setup();
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    let r = ReplicatedPathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    let hits = r
        .range(
            &mut db,
            &Value::Str("org0".into()),
            &Value::Str("org1".into()),
        )
        .unwrap();
    assert_eq!(hits.len(), 40); // orgs 0 and 1 → 2/3 of 60 employees
}

#[test]
fn gemstone_component_lookup_is_associative() {
    // §7.2: "we can ask whether the DEPT objects with OIDs x through y are
    // referenced by Emp1, and this can be done without accessing the Dept
    // set".
    let (mut db, _, depts, _) = setup();
    let g = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    // Component 2 maps DEPT oids → EMP oids.
    let mut sorted = depts.clone();
    sorted.sort_unstable();
    let lo = sorted[0].to_bytes();
    let hi = sorted[2].to_bytes();
    let hits = g.component_lookup(&mut db, 2, &lo, &hi).unwrap();
    // Three depts → 10 employees each.
    assert_eq!(hits.len(), 30);
}

#[test]
fn gemstone_reindex_source() {
    let (mut db, _, depts, emps) = setup();
    let g = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    // Move emp0 from dept0 (org0) to dept1 (org1).
    let e = emps[0];
    let old_org = db
        .deref_path(e, "dept.org")
        .unwrap()
        .map(|v| v[0].as_ref_oid().unwrap());
    let old_chain = vec![Some(e), Some(depts[0]), old_org];
    db.update(e, &[("dept", Value::Ref(depts[1]))]).unwrap();
    let new_org = db
        .deref_path(e, "dept.org")
        .unwrap()
        .map(|v| v[0].as_ref_oid().unwrap());
    let new_chain = vec![Some(e), Some(depts[1]), new_org];
    g.reindex_source(
        &mut db,
        &old_chain,
        Some(&Value::Str("org0".into())),
        &new_chain,
        Some(&Value::Str("org1".into())),
    )
    .unwrap();
    let hits = g.lookup(&mut db, &Value::Str("org1".into())).unwrap();
    assert!(hits.contains(&e));
    let hits0 = g.lookup(&mut db, &Value::Str("org0".into())).unwrap();
    assert!(!hits0.contains(&e));
}

#[test]
fn gemstone_lookup_costs_more_io_than_replicated_index() {
    let (mut db, _, _, _) = setup();
    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    let r = ReplicatedPathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    let g = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    let v = Value::Str("org0".into());

    db.flush_all().unwrap();
    db.reset_profile();
    r.lookup(&mut db, &v).unwrap();
    let io_r = db.io_profile().pages_read();

    db.flush_all().unwrap();
    db.reset_profile();
    g.lookup(&mut db, &v).unwrap();
    let io_g = db.io_profile().pages_read();

    assert!(
        io_g > io_r,
        "gemstone ({io_g} reads) should cost more than the replicated index ({io_r} reads)"
    );
}
