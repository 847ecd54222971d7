//! Design-choice ablations (DESIGN.md per-experiment index):
//!
//! (a) §4.3.1 inline-link threshold: update-propagation I/O with link
//!     objects always materialised vs. inlined at small fan-in.
//! (b) §3.3.3 collapse paths: read I/O for a 2-level projection answered
//!     by (i) plain functional joins, (ii) a collapse path + 1 join,
//!     (iii) a full 2-level replica.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- ablations`

use fieldrep_catalog::{Propagation, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::{Assign, Filter, ReadQuery, UpdateQuery};

fn build_two_level(
    strategy: Option<(&str, Strategy)>,
    inline_threshold: usize,
    n_emp: usize,
) -> Database {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 4096,
        inline_link_threshold: inline_threshold,
    });
    db.define_type(TypeDef::new(
        "ORG",
        vec![
            ("name", FieldType::Str),
            ("budget", FieldType::Int),
            ("pad", FieldType::Pad(80)),
        ],
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
    let orgs: Vec<_> = (0..20)
        .map(|i| {
            db.insert(
                "Org",
                vec![
                    Value::Str(format!("org{i:04}#0")),
                    Value::Int(i),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<_> = (0..200)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("dept{i}")),
                    Value::Ref(orgs[i % 20]),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..n_emp {
        db.insert(
            "Emp1",
            vec![
                Value::Int(i as i64),
                Value::Ref(depts[i % 200]),
                Value::Unit,
            ],
        )
        .unwrap();
    }
    db.create_index("Emp1.id", fieldrep_catalog::IndexKind::Unclustered)
        .unwrap();
    db.create_index("Org.budget", fieldrep_catalog::IndexKind::Unclustered)
        .unwrap();
    if let Some((path, s)) = strategy {
        db.replicate(path, s).unwrap();
    }
    db.flush_all().unwrap();
    db
}

fn measure<F: FnOnce(&mut Database)>(db: &mut Database, f: F) -> u64 {
    db.flush_all().unwrap();
    db.reset_profile();
    f(db);
    db.flush_all().unwrap();
    db.io_profile().total_io()
}

pub(crate) fn run() {
    println!("=== Ablation (a): inline-link threshold (§4.3.1) ===");
    println!("1-level path Emp1.dept.name at fan-in 2 (each dept referenced by two");
    println!("employees — the regime §4.3.1 targets); the update query renames 40");
    println!("depts, so propagation must traverse 40 link stores.\n");
    println!(
        "{:>10} | {:>14} | {:>15}",
        "threshold", "update I/O", "link-file pages"
    );
    for threshold in [0usize, 1, 2, 4] {
        let mut db = build_two_level(
            Some(("Emp1.dept.name", Strategy::InPlace)),
            threshold,
            400, // 400 emps over 200 depts → fan-in 2
        );
        db.create_index("Dept.name", fieldrep_catalog::IndexKind::Unclustered)
            .unwrap();
        let io = measure(&mut db, |db| {
            let res = UpdateQuery::on("Dept")
                .filter(Filter::Range {
                    path: "name".into(),
                    lo: Value::Str("dept0".into()),
                    hi: Value::Str("dept135".into()),
                })
                .assign("name", Assign::CycleStr(8))
                .run(db)
                .unwrap();
            assert!(res.updated >= 40, "updated {}", res.updated);
        });
        // Count link-file pages across all links.
        let link_files: Vec<_> = db.catalog().links().map(|l| l.file).collect();
        let pages: u32 = link_files
            .iter()
            .map(|f| db.sm().page_count(*f).unwrap())
            .sum();
        println!("{threshold:>10} | {io:>14} | {pages:>15}");
    }
    println!("\nAt threshold ≥ 2 every link object (2 OIDs) is inlined into its dept:");
    println!("the link file vanishes entirely. Total update I/O barely moves because");
    println!("the inlined OIDs enlarge the dept objects by almost exactly the space");
    println!("saved — which is the paper's point: 'the space required to store L's");
    println!("OID is the same as the space required to store x, so there is no");
    println!("reason not to make this optimization' (§4.3.1). The win is structural");
    println!("(no link file to maintain), not byte count.");

    println!("\n=== Ablation (b): collapse paths (§3.3.3) ===");
    println!("Read query: 60 employees by id range, projecting dept.org.name.\n");
    let variants: [(&str, Option<(&str, Strategy)>); 3] = [
        ("functional joins (baseline)", None),
        (
            "collapse path Emp1.dept.org",
            Some(("Emp1.dept.org", Strategy::InPlace)),
        ),
        (
            "full replica of dept.org.name",
            Some(("Emp1.dept.org.name", Strategy::InPlace)),
        ),
    ];
    println!("{:<32} | {:>10}", "projection strategy", "read I/O");
    for (label, strat) in variants {
        let mut db = build_two_level(strat, 0, 6000);
        let io = measure(&mut db, |db| {
            let res = ReadQuery::on("Emp1")
                .filter(Filter::Range {
                    path: "id".into(),
                    lo: Value::Int(0),
                    hi: Value::Int(59),
                })
                .project(["dept.org.name"])
                .run(db)
                .unwrap();
            assert_eq!(res.rows.len(), 60);
        });
        println!("{label:<32} | {io:>10}");
    }
    println!("\nThe collapse path removes one of the two joins; the full replica");
    println!("removes both (at higher update-propagation cost, per Figure 11).");

    // ---------------------------------------------------------------
    println!("\n=== Ablation (c): deferred propagation (§8 future work) ===");
    println!("One dept with 2000 employees; 5 separate rename queries (cold pool");
    println!("each, as in the §6 model). Eager pays the fan-out 5 times; deferred");
    println!("pays it once, at sync.\n");
    println!(
        "{:<10} | {:>12} | {:>12} | {:>12}",
        "mode", "5 updates", "sync", "total"
    );
    for (label, propagation) in [
        ("eager", Propagation::Eager),
        ("deferred", Propagation::Deferred),
    ] {
        let mut db = Database::in_memory(DbConfig::default());
        db.define_type(fieldrep_model::TypeDef::new(
            "DEPT",
            vec![
                ("name", fieldrep_model::FieldType::Str),
                ("pad", fieldrep_model::FieldType::Pad(100)),
            ],
        ))
        .unwrap();
        db.define_type(fieldrep_model::TypeDef::new(
            "EMP",
            vec![
                ("id", fieldrep_model::FieldType::Int),
                ("dept", fieldrep_model::FieldType::Ref("DEPT".into())),
                ("pad", fieldrep_model::FieldType::Pad(75)),
            ],
        ))
        .unwrap();
        db.create_set("Dept", "DEPT").unwrap();
        db.create_set("Emp1", "EMP").unwrap();
        let d = db
            .insert("Dept", vec![Value::Str("d#0".into()), Value::Unit])
            .unwrap();
        for i in 0..2000 {
            db.insert("Emp1", vec![Value::Int(i), Value::Ref(d), Value::Unit])
                .unwrap();
        }
        let path = db
            .replicate_with("Emp1.dept.name", Strategy::InPlace, propagation)
            .unwrap();

        // Each update is a separate query (cold pool), as in §6's model.
        let mut updates = 0u64;
        for i in 1..=5 {
            updates += measure(&mut db, |db| {
                db.update(d, &[("name", Value::Str(format!("d#{i}")))])
                    .unwrap();
            });
        }
        let sync = measure(&mut db, |db| {
            db.sync_path(path).unwrap();
        });
        println!(
            "{:<10} | {:>12} | {:>12} | {:>12}",
            label,
            updates,
            sync,
            updates + sync
        );
    }
    println!("\nDeferred batching collapses repeated updates into one propagation:");
    println!("'updates are not propagated until needed' (§8).");

    // ---------------------------------------------------------------
    println!("\n=== Ablation (d): collapsed inverted paths (§4.3.3) ===");
    println!("2-level path Emp1.dept.org.name, 1 org x 40 depts x 25 employees.");
    println!("Collapsing trades cheaper terminal propagation for costlier");
    println!("intermediate re-targets — exactly the paper's trade-off.\n");
    println!(
        "{:<12} | {:>16} | {:>20}",
        "form", "O.name update", "D.org move (1 dept)"
    );
    for collapsed in [false, true] {
        let mut db = build_two_level(None, 0, 0);
        // Re-populate: one org with 40 depts, 25 employees each; a spare
        // org to move a dept to.
        let o = db
            .insert(
                "Org",
                vec![Value::Str("big#0".into()), Value::Int(100), Value::Unit],
            )
            .unwrap();
        let spare = db
            .insert(
                "Org",
                vec![Value::Str("spare".into()), Value::Int(101), Value::Unit],
            )
            .unwrap();
        let depts: Vec<_> = (0..40)
            .map(|i| {
                db.insert(
                    "Dept",
                    vec![Value::Str(format!("dd{i}")), Value::Ref(o), Value::Unit],
                )
                .unwrap()
            })
            .collect();
        for i in 0..1000usize {
            db.insert(
                "Emp1",
                vec![
                    Value::Int(10_000 + i as i64),
                    Value::Ref(depts[i % 40]),
                    Value::Unit,
                ],
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
        let terminal_io = measure(&mut db, |db| {
            db.update(o, &[("name", Value::Str("big#1".into()))])
                .unwrap();
        });
        let move_io = measure(&mut db, |db| {
            db.update(depts[0], &[("org", Value::Ref(spare))]).unwrap();
        });
        println!(
            "{:<12} | {:>16} | {:>20}",
            if collapsed {
                "collapsed"
            } else {
                "uncollapsed"
            },
            terminal_io,
            move_io
        );
    }
    println!("\n§4.3.3: \"a collapsed path is more costly to maintain … [but] may");
    println!("still prove useful … particularly when reference paths are static.\"");
}
