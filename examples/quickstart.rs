//! Quickstart: the paper's Figure-1 employee database and §3.1 query.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the ORG / DEPT / EMP schema, replicates `Emp1.dept.name`, runs
//! the paper's example query ("name, salary, and department of each
//! employee who makes more than $100,000") with and without replication,
//! and prints the measured page I/O of both plans.

use field_replication::query::{Filter, ReadQuery};
use field_replication::{Database, DbConfig, FieldType, IndexKind, Strategy, TypeDef, Value};

fn main() {
    let mut db = Database::in_memory(DbConfig::default());

    // --- Figure 1: define type ORG / DEPT / EMP ------------------------
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
            // "various fields..." — realistic departments are not tiny.
            ("pad", FieldType::Pad(160)),
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
            ("pad", FieldType::Pad(56)),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    db.create_set("Emp2", "EMP").unwrap();

    // --- Populate ------------------------------------------------------
    let acme = db
        .insert(
            "Org",
            vec![Value::Str("Acme".into()), Value::Int(5_000_000)],
        )
        .unwrap();
    // 2000 departments (a hundred pages of DEPT objects), 5000 employees
    // whose dept references are scattered — the paper's "relatively
    // unclustered" assumption (§6.2).
    let dept_names = ["Shoe", "Toy", "Tool", "Book"];
    let depts: Vec<_> = (0..2000)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("{} #{i}", dept_names[i % 4])),
                    Value::Int(100_000 + 997 * i as i64),
                    Value::Ref(acme),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..5000usize {
        let scatter = (i * 2654435761) % depts.len();
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("emp{i:05}")),
                Value::Int(22 + (i % 40) as i64),
                Value::Int(60_000 + ((i * 48271) % 60_000) as i64),
                Value::Ref(depts[scatter]),
                Value::Unit,
            ],
        )
        .unwrap();
    }
    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();

    // --- The §3.1 query, before replication ----------------------------
    let query = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(100_000),
            hi: Value::Int(104_000),
        })
        .project(["name", "salary", "dept.name"]);

    println!("retrieve (Emp1.name, Emp1.salary, Emp1.dept.name)");
    println!("where     Emp1.salary > 100000\n");

    db.flush_all().unwrap();
    db.reset_profile();
    let before = query.run(&mut db).unwrap();
    let io_before = db.io_profile().total_io();
    println!("--- without replication ---");
    print!("{}", before.plan);
    println!("rows: {}, page I/O: {io_before}\n", before.rows.len());

    // --- replicate Emp1.dept.name (§3.1) -------------------------------
    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();

    db.flush_all().unwrap();
    db.reset_profile();
    let after = query.run(&mut db).unwrap();
    let io_after = db.io_profile().total_io();
    println!("--- with `replicate Emp1.dept.name` ---");
    print!("{}", after.plan);
    println!("rows: {}, page I/O: {io_after}\n", after.rows.len());

    assert_eq!(before.rows, after.rows, "replication never changes answers");
    println!(
        "Same {} rows, {} fewer page I/Os — \"the query can be executed",
        after.rows.len(),
        io_before.saturating_sub(io_after)
    );
    println!("without performing a functional join\" (§3.1).");
    println!("\nSample: {:?}", &after.rows[0]);

    // Updates keep replicas consistent automatically.
    db.update(depts[0], &[("name", Value::Str("Footwear".into()))])
        .unwrap();
    let all = ReadQuery::on("Emp1")
        .project(["dept.name"])
        .run(&mut db)
        .unwrap();
    let renamed = all
        .rows
        .iter()
        .filter(|r| r[0] == Some(Value::Str("Footwear".into())))
        .count();
    println!("\nAfter renaming \"Shoe #0\", its {renamed} employees see \"Footwear\"");
    println!("through their replicated hidden fields.");
}
