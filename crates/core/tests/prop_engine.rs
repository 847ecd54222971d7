//! Property test for the replication engine (DESIGN.md invariants 1–3):
//! after ANY sequence of inserts, deletes, scalar updates and reference
//! re-targets, every replicated structure must agree with the forward
//! references — for in-place and separate strategies simultaneously, over
//! 1- and 2-level paths with shared prefixes. Every update op additionally
//! checks that its `RipplePlan` covers it: the objects whose stored bytes
//! the update changed are a subset of the OIDs the plan would lock.

mod common;

use common::check_consistency;
use fieldrep_catalog::{Propagation, Strategy as RepStrategy};
use fieldrep_core::ripple::RipplePlan;
use fieldrep_core::{Database, DbConfig, DbError};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::{HeapFile, Oid};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    InsertEmp(usize, u8),  // dept pick (may be "null"), salary
    InsertDept(usize, u8), // org pick, budget
    DeleteEmp(usize),
    DeleteDept(usize),
    RetargetEmp(usize, usize),  // emp pick, dept pick
    RetargetDept(usize, usize), // dept pick, org pick
    RenameDept(usize, u8),
    RenameOrg(usize, u8),
    BudgetDept(usize, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..100usize, any::<u8>()).prop_map(|(d, s)| Op::InsertEmp(d, s)),
        1 => (0..100usize, any::<u8>()).prop_map(|(o, b)| Op::InsertDept(o, b)),
        2 => (0..100usize).prop_map(Op::DeleteEmp),
        1 => (0..100usize).prop_map(Op::DeleteDept),
        3 => (0..100usize, 0..100usize).prop_map(|(e, d)| Op::RetargetEmp(e, d)),
        2 => (0..100usize, 0..100usize).prop_map(|(d, o)| Op::RetargetDept(d, o)),
        2 => (0..100usize, any::<u8>()).prop_map(|(d, n)| Op::RenameDept(d, n)),
        2 => (0..100usize, any::<u8>()).prop_map(|(o, n)| Op::RenameOrg(o, n)),
        2 => (0..100usize, any::<u8>()).prop_map(|(d, b)| Op::BudgetDept(d, b)),
    ]
}

fn build_db_full(
    threshold: usize,
    propagation: Propagation,
    collapsed_extra: bool,
) -> (Database, Vec<Oid>, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 1024,
        inline_link_threshold: threshold,
    });
    db.define_type(TypeDef::new(
        "ORG",
        vec![
            ("name", FieldType::Str),
            ("budget", FieldType::Int),
            ("name2", FieldType::Str),
        ],
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

    let mut orgs = vec![];
    for i in 0..3 {
        orgs.push(
            db.insert(
                "Org",
                vec![
                    Value::Str(format!("o{i}")),
                    Value::Int(i),
                    Value::Str(format!("o{i}b")),
                ],
            )
            .unwrap(),
        );
    }
    let mut depts = vec![];
    for i in 0..4 {
        depts.push(
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("d{i}")),
                    Value::Int(i),
                    Value::Ref(orgs[(i as usize) % 3]),
                ],
            )
            .unwrap(),
        );
    }
    // The full §4.1.4 mix: shared prefixes, both strategies, a collapse
    // path, 1- and 2-level paths.
    db.replicate_with("Emp1.dept.name", RepStrategy::InPlace, propagation)
        .unwrap();
    db.replicate_with("Emp1.dept.org.name", RepStrategy::InPlace, propagation)
        .unwrap();
    db.replicate_with("Emp1.dept.org", RepStrategy::InPlace, propagation)
        .unwrap();
    db.replicate_with("Emp1.dept.budget", RepStrategy::Separate, propagation)
        .unwrap();
    db.replicate_with("Emp1.dept.org.budget", RepStrategy::Separate, propagation)
        .unwrap();
    if collapsed_extra {
        // §4.3.3: a collapsed 2-level path alongside everything else.
        db.replicate_collapsed("Emp1.dept.org.name2", propagation)
            .unwrap();
    }
    (db, orgs, depts, vec![])
}

/// The stored bytes of every data object and every `S'` replica object
/// (the things a plan locks; link objects have no OID lock).
fn stored_objects(db: &Database) -> BTreeMap<Oid, Vec<u8>> {
    let cat = db.catalog();
    let files = cat
        .sets()
        .iter()
        .map(|s| s.file)
        .chain(cat.groups().map(|g| g.file));
    let mut out = BTreeMap::new();
    for file in files {
        let hf = HeapFile::open(file);
        for oid in hf.oids(db.sm()).unwrap() {
            out.insert(oid, hf.read(db.sm(), oid).unwrap().1);
        }
    }
    out
}

/// `db.update`, asserting `{OIDs whose bytes changed} ⊆ plan.oids()`. A
/// replica object the update creates has no OID until it runs, so only
/// objects that existed before are compared.
fn update(db: &Database, oid: Oid, changes: &[(&str, Value)]) {
    let plan = RipplePlan::build(db, oid, changes).unwrap();
    let before = stored_objects(db);
    db.update(oid, changes).unwrap();
    let after = stored_objects(db);
    for (o, bytes) in &before {
        assert!(
            after.get(o) == Some(bytes) || plan.oids().contains(o),
            "update of {oid} ({changes:?}) rewrote {o}, which its plan does not lock: {:?}",
            plan.oids()
        );
    }
}

fn run_ops(threshold: usize, ops: Vec<Op>) {
    run_ops_with(threshold, Propagation::Eager, ops);
}

fn run_ops_with(threshold: usize, propagation: Propagation, ops: Vec<Op>) {
    run_ops_full(threshold, propagation, false, ops);
}

fn run_ops_full(threshold: usize, propagation: Propagation, collapsed: bool, ops: Vec<Op>) {
    let (mut db, orgs, mut depts, mut emps) = build_db_full(threshold, propagation, collapsed);
    let mut tick = 0usize;

    for op in ops {
        match op {
            Op::InsertEmp(d, s) => {
                // Index 0 means a NULL dept (broken chain).
                let dept = if d % (depts.len() + 1) == 0 {
                    Oid::NULL
                } else {
                    depts[(d - 1) % depts.len()]
                };
                let e = db
                    .insert(
                        "Emp1",
                        vec![
                            Value::Str("e".into()),
                            Value::Int(s as i64),
                            Value::Ref(dept),
                        ],
                    )
                    .unwrap();
                emps.push(e);
            }
            Op::InsertDept(o, b) => {
                let d = db
                    .insert(
                        "Dept",
                        vec![
                            Value::Str("d".into()),
                            Value::Int(b as i64),
                            Value::Ref(orgs[o % orgs.len()]),
                        ],
                    )
                    .unwrap();
                depts.push(d);
            }
            Op::DeleteEmp(i) => {
                if emps.is_empty() {
                    continue;
                }
                let e = emps.remove(i % emps.len());
                db.delete(e).unwrap();
            }
            Op::DeleteDept(i) => {
                if depts.len() <= 1 {
                    continue;
                }
                let idx = i % depts.len();
                match db.delete(depts[idx]) {
                    Ok(()) => {
                        depts.remove(idx);
                    }
                    Err(DbError::StillReferenced(_)) => {} // fine: in use
                    Err(e) => panic!("unexpected delete error: {e}"),
                }
            }
            Op::RetargetEmp(e, d) => {
                if emps.is_empty() {
                    continue;
                }
                let emp = emps[e % emps.len()];
                let dept = if d % (depts.len() + 1) == 0 {
                    Oid::NULL
                } else {
                    depts[(d - 1) % depts.len()]
                };
                update(&db, emp, &[("dept", Value::Ref(dept))]);
            }
            Op::RetargetDept(d, o) => {
                let dept = depts[d % depts.len()];
                let org = if o % (orgs.len() + 1) == 0 {
                    Oid::NULL
                } else {
                    orgs[(o - 1) % orgs.len()]
                };
                update(&db, dept, &[("org", Value::Ref(org))]);
            }
            Op::RenameDept(d, n) => {
                let dept = depts[d % depts.len()];
                update(&db, dept, &[("name", Value::Str(format!("dn{n}")))]);
            }
            Op::RenameOrg(o, n) => {
                let org = orgs[o % orgs.len()];
                update(
                    &db,
                    org,
                    &[
                        ("name", Value::Str(format!("on{n}"))),
                        ("name2", Value::Str(format!("on{n}b"))),
                    ],
                );
            }
            Op::BudgetDept(d, b) => {
                let dept = depts[d % depts.len()];
                update(&db, dept, &[("budget", Value::Int(b as i64))]);
            }
        }
        // Deferred mode: sync sporadically mid-run (every 7th op) so the
        // lazy machinery interleaves with further mutations.
        tick += 1;
        if propagation == Propagation::Deferred && tick.is_multiple_of(7) {
            db.sync_all_pending().unwrap();
        }
    }
    db.sync_all_pending().unwrap();
    check_consistency(&mut db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    /// With link objects always materialised (threshold 0).
    #[test]
    fn engine_invariants_hold_no_inlining(ops in proptest::collection::vec(op(), 1..60)) {
        run_ops(0, ops);
    }

    /// With the §4.3.1 inline optimization active (threshold 2), so that
    /// links flip between inline and object form under churn.
    #[test]
    fn engine_invariants_hold_with_inlining(ops in proptest::collection::vec(op(), 1..60)) {
        run_ops(2, ops);
    }

    /// With deferred propagation (§8): after syncing, all invariants hold
    /// exactly as in eager mode, under interleaved syncs and mutations.
    #[test]
    fn engine_invariants_hold_deferred(ops in proptest::collection::vec(op(), 1..60)) {
        run_ops_with(0, Propagation::Deferred, ops);
    }

    /// With a §4.3.3 collapsed path alongside the normal mix.
    #[test]
    fn engine_invariants_hold_collapsed(ops in proptest::collection::vec(op(), 1..60)) {
        run_ops_full(0, Propagation::Eager, true, ops);
    }
}

// ---------------------------------------------------------------------
// Reference cycles: one self-referential type, so an object can be its
// own source, intermediate and terminal at once, and one update can
// re-target its own chain *and* change the fields that chain replicates.
// Paths have at most one intermediate level and none is collapsed: a chain
// that visits the updated object at two intermediate levels, and a
// collapsed store on a type that is its own intermediate, are outside
// what the engine maintains (DESIGN.md section 10).
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum CycleOp {
    Insert(usize, u8), // mgr pick (0 = NULL), salary
    Delete(usize),
    /// Re-target `mgr` (0 = NULL; may pick the employee itself), optionally
    /// renaming and re-paying in the same update.
    Retarget(usize, usize, Option<u8>, Option<u8>),
    Rename(usize, u8),
    Pay(usize, u8),
}

fn cycle_op() -> impl Strategy<Value = CycleOp> {
    let some = || proptest::option::of(any::<u8>());
    prop_oneof![
        1 => (0..100usize, any::<u8>()).prop_map(|(m, s)| CycleOp::Insert(m, s)),
        1 => (0..100usize).prop_map(CycleOp::Delete),
        6 => (0..100usize, 0..100usize, some(), some())
            .prop_map(|(e, m, n, s)| CycleOp::Retarget(e, m, n, s)),
        1 => (0..100usize, any::<u8>()).prop_map(|(e, n)| CycleOp::Rename(e, n)),
        1 => (0..100usize, any::<u8>()).prop_map(|(e, s)| CycleOp::Pay(e, s)),
    ]
}

fn run_cycle_ops(threshold: usize, propagation: Propagation, ops: Vec<CycleOp>) {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 1024,
        inline_link_threshold: threshold,
    });
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("mgr", FieldType::Ref("EMP".into())),
        ],
    ))
    .unwrap();
    db.create_set("Emp", "EMP").unwrap();
    let emp = |db: &Database, mgr: Oid, s: u8| {
        let values = vec![
            Value::Str(format!("e{s}")),
            Value::Int(s as i64),
            Value::Ref(mgr),
        ];
        db.insert("Emp", values).unwrap()
    };
    // Few employees, so a random pick often closes a cycle of length 1-3.
    let mut emps = vec![emp(&db, Oid::NULL, 0)];
    emps.push(emp(&db, emps[0], 1));
    emps.push(emp(&db, emps[1], 2));
    for (path, strategy) in [
        ("Emp.mgr.name", RepStrategy::InPlace),
        ("Emp.mgr.mgr.name", RepStrategy::InPlace),
        ("Emp.mgr.salary", RepStrategy::Separate),
        ("Emp.mgr.mgr.salary", RepStrategy::Separate),
    ] {
        db.replicate_with(path, strategy, propagation).unwrap();
    }
    let pick = |emps: &[Oid], m: usize| match m % (emps.len() + 1) {
        0 => Oid::NULL,
        i => emps[i - 1],
    };

    for (tick, op) in ops.into_iter().enumerate() {
        match op {
            CycleOp::Insert(m, s) => {
                let e = emp(&db, pick(&emps, m), s);
                emps.push(e);
            }
            CycleOp::Delete(i) => {
                let idx = i % emps.len();
                match db.delete(emps[idx]) {
                    Ok(()) => {
                        emps.remove(idx);
                    }
                    Err(DbError::StillReferenced(_)) => {} // fine: in use
                    Err(e) => panic!("unexpected delete error: {e}"),
                }
                if emps.is_empty() {
                    emps.push(emp(&db, Oid::NULL, 0));
                }
            }
            CycleOp::Retarget(e, m, n, s) => {
                let mut changes = vec![("mgr", Value::Ref(pick(&emps, m)))];
                if let Some(n) = n {
                    changes.push(("name", Value::Str(format!("n{n}"))));
                }
                if let Some(s) = s {
                    changes.push(("salary", Value::Int(s as i64)));
                }
                update(&db, emps[e % emps.len()], &changes);
            }
            CycleOp::Rename(e, n) => {
                let name = Value::Str(format!("r{n}"));
                update(&db, emps[e % emps.len()], &[("name", name)]);
            }
            CycleOp::Pay(e, s) => {
                update(
                    &db,
                    emps[e % emps.len()],
                    &[("salary", Value::Int(s as i64))],
                );
            }
        }
        if propagation == Propagation::Deferred && tick % 3 != 0 {
            continue; // let deferred work pile up across a few ops
        }
        db.sync_all_pending().unwrap();
        check_consistency(&mut db);
    }
    db.sync_all_pending().unwrap();
    check_consistency(&mut db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cycles_keep_invariants_no_inlining(ops in proptest::collection::vec(cycle_op(), 1..40)) {
        run_cycle_ops(0, Propagation::Eager, ops);
    }

    #[test]
    fn cycles_keep_invariants_with_inlining(ops in proptest::collection::vec(cycle_op(), 1..40)) {
        run_cycle_ops(2, Propagation::Eager, ops);
    }

    #[test]
    fn cycles_keep_invariants_deferred(ops in proptest::collection::vec(cycle_op(), 1..40)) {
        run_cycle_ops(0, Propagation::Deferred, ops);
    }
}
