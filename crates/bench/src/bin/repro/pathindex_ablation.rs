//! Path-index ablation (§3.3.4 / §7.2): associative lookups on the path
//! Emp1.dept.org.name through (a) a single B⁺-tree over replicated
//! values, vs. (b) a Gemstone-style multi-component path index
//! ("three B⁺-tree traversals").
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- pathindex_ablation`

use fieldrep_catalog::Strategy;
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_pathindex::{GemstonePathIndex, ReplicatedPathIndex};

fn build(n_orgs: usize, depts_per_org: usize, emps_per_dept: usize) -> Database {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new(
        "ORG",
        vec![("name", FieldType::Str), ("pad", FieldType::Pad(80))],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "DEPT",
        vec![
            ("name", FieldType::Str),
            ("org", FieldType::Ref("ORG".into())),
            ("pad", FieldType::Pad(100)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("id", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
            ("pad", FieldType::Pad(75)),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    let orgs: Vec<_> = (0..n_orgs)
        .map(|i| {
            db.insert("Org", vec![Value::Str(format!("org{i:05}")), Value::Unit])
                .unwrap()
        })
        .collect();
    let depts: Vec<_> = (0..n_orgs * depts_per_org)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("dept{i}")),
                    Value::Ref(orgs[i / depts_per_org]),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..depts.len() * emps_per_dept {
        db.insert(
            "Emp1",
            vec![
                Value::Int(i as i64),
                Value::Ref(depts[i % depts.len()]),
                Value::Unit,
            ],
        )
        .unwrap();
    }
    db
}

pub(crate) fn run() {
    println!("=== Path-index ablation: lookup I/O on Emp1.dept.org.name ===\n");
    println!(
        "{:>8} {:>8} | {:>16} {:>16} {:>8}",
        "orgs", "emps", "replicated-idx", "gemstone (3 trees)", "ratio"
    );
    for (n_orgs, depts_per_org, emps_per_dept) in [(50, 4, 10), (200, 5, 10), (500, 4, 15)] {
        let mut db = build(n_orgs, depts_per_org, emps_per_dept);
        db.replicate("Emp1.dept.org.name", Strategy::InPlace)
            .unwrap();
        let rep = ReplicatedPathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
        let gem = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
        let n_emps = n_orgs * depts_per_org * emps_per_dept;

        let probes: Vec<Value> = (0..20)
            .map(|i| Value::Str(format!("org{:05}", (i * 7) % n_orgs)))
            .collect();

        db.flush_all().unwrap();
        db.reset_profile();
        for v in &probes {
            let hits = rep.lookup(&mut db, v).unwrap();
            assert_eq!(hits.len(), depts_per_org * emps_per_dept);
        }
        let io_rep = db.io_profile().pages_read();

        db.flush_all().unwrap();
        db.reset_profile();
        for v in &probes {
            let hits = gem.lookup(&mut db, v).unwrap();
            assert_eq!(hits.len(), depts_per_org * emps_per_dept);
        }
        let io_gem = db.io_profile().pages_read();

        println!(
            "{:>8} {:>8} | {:>16} {:>18} {:>8.2}",
            n_orgs,
            n_emps,
            io_rep,
            io_gem,
            io_gem as f64 / io_rep as f64
        );
    }
    println!("\nThe paper (§3.3.4): a Gemstone-style lookup 'would involve traversing");
    println!("three B+ tree indexes' where the replicated-value index traverses one.");
}
