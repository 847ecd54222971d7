//! Multi-level reference paths in practice (§3.3): 2-level replication,
//! collapse paths, and indexing on a replicated path — on a corporate
//! reporting workload of 200 orgs, 3 000 depts and 8 000 employees.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- org_analytics`

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_pathindex::{GemstonePathIndex, ReplicatedPathIndex};
use fieldrep_query::{Filter, ReadQuery};

pub(crate) fn run() {
    let mut db = Database::in_memory(DbConfig::default());

    db.define_type(TypeDef::new(
        "ORG",
        vec![
            ("name", FieldType::Str),
            ("budget", FieldType::Int),
            ("pad", FieldType::Pad(120)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "DEPT",
        vec![
            ("name", FieldType::Str),
            ("budget", FieldType::Int),
            ("org", FieldType::Ref("ORG".into())),
            ("pad", FieldType::Pad(140)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
            ("pad", FieldType::Pad(120)),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();

    // 200 orgs, 3000 depts, 8000 employees; references scattered (§6.2).
    let orgs: Vec<_> = (0..200)
        .map(|i| {
            db.insert(
                "Org",
                vec![
                    Value::Str(format!("org-{i:03}")),
                    Value::Int(1_000_000 * (i as i64 + 1)),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<_> = (0..3000)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("dept-{i:04}")),
                    Value::Int(50_000 + 13 * i as i64),
                    Value::Ref(orgs[(i * 2654435761) % 200]),
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..8000usize {
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("emp-{i:05}")),
                Value::Int(55_000 + ((i * 48271) % 70_000) as i64),
                Value::Ref(depts[(i * 11400714819323198485) % 3000]),
                Value::Unit,
            ],
        )
        .unwrap();
    }

    db.create_index("Emp1.salary", IndexKind::Unclustered)
        .unwrap();

    // ---- §3.3.2: 2-level replication eliminates two joins -------------
    // A selective reporting query: employees in a salary band, with the
    // org they ultimately roll up to.
    let band = Filter::Range {
        path: "salary".into(),
        lo: Value::Int(100_000),
        hi: Value::Int(104_000),
    };
    let q = ReadQuery::on("Emp1")
        .filter(band.clone())
        .project(["name", "dept.org.name"]);
    let io = |db: &mut Database, q: &ReadQuery| {
        db.flush_all().unwrap();
        db.reset_profile();
        let r = q.run(db).unwrap();
        (r, db.io_profile().total_io())
    };

    let (base, io0) = io(&mut db, &q);
    println!("salary-band query projecting dept.org.name (2 joins):     {io0} I/Os");

    db.replicate("Emp1.dept.org.name", Strategy::InPlace)
        .unwrap();
    let (fast, io1) = io(&mut db, &q);
    assert_eq!(base.rows, fast.rows);
    println!("after `replicate Emp1.dept.org.name` (2-level, §3.3.2):    {io1} I/Os");

    // ---- §3.3.3: collapse Emp1.dept.org for *other* org fields --------
    let q_budget = ReadQuery::on("Emp1")
        .filter(band.clone())
        .project(["dept.org.budget"]);
    let (slow_b, io2) = io(&mut db, &q_budget);
    println!("\nprojecting dept.org.budget (not replicated, 2 joins):      {io2} I/Os");

    db.replicate("Emp1.dept.org", Strategy::InPlace).unwrap();
    let (fast_b, io3) = io(&mut db, &q_budget);
    assert_eq!(slow_b.rows, fast_b.rows);
    println!("after collapse path `replicate Emp1.dept.org` (§3.3.3):    {io3} I/Os");
    print!("{}", fast_b.plan);

    // ---- §3.3.4: index on a replicated path ----------------------------
    // "build btree on Emp1.dept.org.name": maps org names *directly* to
    // Emp1 objects. The Gemstone-style alternative traverses three trees.
    let rep_idx = ReplicatedPathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();
    let gem_idx = GemstonePathIndex::build(&mut db, "Emp1.dept.org.name").unwrap();

    let probe = Value::Str("org-007".into());
    db.flush_all().unwrap();
    db.reset_profile();
    let via_rep = rep_idx.lookup(&mut db, &probe).unwrap();
    let io_rep = db.io_profile().pages_read();

    db.flush_all().unwrap();
    db.reset_profile();
    let mut via_gem = gem_idx.lookup(&mut db, &probe).unwrap();
    let io_gem = db.io_profile().pages_read();

    let mut via_rep_sorted = via_rep.clone();
    via_rep_sorted.sort_unstable();
    via_gem.sort_unstable();
    assert_eq!(via_rep_sorted, via_gem);

    println!("\n§3.3.4 associative lookup: employees of org-007");
    println!(
        "  via index on replicated values (1 B+-tree):   {} hits, {io_rep} page reads",
        via_rep.len()
    );
    println!(
        "  via Gemstone path index ({} B+-trees, §7.2):   {} hits, {io_gem} page reads",
        gem_idx.component_count(),
        via_gem.len()
    );

    println!("\nDone.");
}
