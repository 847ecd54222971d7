//! End-to-end interpreter tests: the paper's examples typed as the paper
//! prints them.

use fieldrep_core::DbConfig;
use fieldrep_lang::{Interpreter, Output};
use fieldrep_model::Value;

fn interpreter_with_figure_1() -> Interpreter {
    let mut it = Interpreter::new(DbConfig::default());
    it.run_script(
        r#"
        define type ORG ( name: char[], budget: int );
        define type DEPT ( name: char[], budget: int, org: ref ORG );
        define type EMP ( name: char[], age: int, salary: int, dept: ref DEPT );
        create Org: {own ref ORG};
        create Dept: {own ref DEPT};
        create Emp1: {own ref EMP};
        create Emp2: {own ref EMP};

        insert Org (name = "Acme", budget = 5000000) as $acme;
        insert Dept (name = "Shoe", budget = 100000, org = $acme) as $shoe;
        insert Dept (name = "Toy", budget = 200000, org = $acme) as $toy;
        insert Emp1 (name = "Alice", age = 34, salary = 120000, dept = $shoe);
        insert Emp1 (name = "Bob", age = 29, salary = 90000, dept = $toy);
        insert Emp1 (name = "Cara", age = 41, salary = 150000, dept = $toy);
        insert Emp2 (name = "Dan", age = 50, salary = 200000, dept = $shoe);
        "#,
    )
    .unwrap();
    it
}

fn rows(o: Output) -> Vec<Vec<Option<Value>>> {
    match o {
        Output::Rows { rows, .. } => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn section_3_1_example_verbatim() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();

    // The paper's query, verbatim.
    let out = it
        .execute("retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) where Emp1.salary > 100000")
        .unwrap();
    let rows = rows(out);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Some(Value::Str("Alice".into())));
    assert_eq!(rows[0][2], Some(Value::Str("Shoe".into())));
    assert_eq!(rows[1][0], Some(Value::Str("Cara".into())));
    assert_eq!(rows[1][2], Some(Value::Str("Toy".into())));
}

#[test]
fn replace_propagates_through_replicas() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    let out = it
        .execute(r#"replace (Dept.name = "Footwear", Dept.budget = 1) where Dept.name = "Shoe""#)
        .unwrap();
    assert!(matches!(out, Output::Updated(1)));
    let out = it
        .execute(r#"retrieve (Emp1.dept.name) where Emp1.name = "Alice""#)
        .unwrap();
    assert_eq!(rows(out)[0][0], Some(Value::Str("Footwear".into())));
}

#[test]
fn two_level_and_build_btree() {
    let mut it = interpreter_with_figure_1();
    it.run_script(
        r#"
        replicate Emp1.dept.org.name;
        build btree on Emp1.dept.org.name;
        build btree on Emp1.salary;
        "#,
    )
    .unwrap();
    // Associative lookup through the path index (§3.3.4).
    let out = it
        .execute(r#"retrieve (Emp1.name) where Emp1.dept.org.name = "Acme""#)
        .unwrap();
    assert_eq!(rows(out).len(), 3);
}

#[test]
fn separate_and_deferred_variants() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.budget using separate")
        .unwrap();
    it.execute("replicate Emp1.dept.name using inplace deferred")
        .unwrap();
    it.execute(r#"replace (Dept.name = "S2") where Dept.name = "Shoe""#)
        .unwrap();
    // Deferred: pending until read or sync.
    let show = it.execute("show pending").unwrap();
    let text = format!("{show}");
    assert!(text.contains("1 pending"), "{text}");
    let out = it.execute("sync").unwrap();
    assert!(matches!(out, Output::Synced(1)));
    let out = it
        .execute(r#"retrieve (Emp1.dept.name) where Emp1.name = "Alice""#)
        .unwrap();
    assert_eq!(rows(out)[0][0], Some(Value::Str("S2".into())));
}

#[test]
fn drop_replicate_statement() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    it.execute("drop replicate Emp1.dept.name").unwrap();
    assert_eq!(it.db.catalog().paths().count(), 0);
    // Unknown path errors cleanly.
    assert!(it.execute("drop replicate Emp1.dept.name").is_err());
}

#[test]
fn delete_from_with_predicate() {
    let mut it = interpreter_with_figure_1();
    let out = it
        .execute("delete from Emp1 where Emp1.salary < 100000")
        .unwrap();
    assert!(matches!(out, Output::Deleted(1))); // Bob
    let out = it.execute("retrieve (Emp1.name)").unwrap();
    assert_eq!(rows(out).len(), 2);
}

#[test]
fn between_predicate() {
    let mut it = interpreter_with_figure_1();
    let out = it
        .execute("retrieve (Emp1.name) where Emp1.salary between 90000 and 120000")
        .unwrap();
    assert_eq!(rows(out).len(), 2);
}

#[test]
fn show_catalog_prints_link_sequences() {
    // §4.1.3's illustration: link sequences next to replicate statements.
    let mut it = interpreter_with_figure_1();
    it.run_script(
        r#"
        replicate Emp1.dept.budget;
        replicate Emp1.dept.name;
        replicate Emp1.dept.org.name;
        replicate Emp2.dept.org;
        "#,
    )
    .unwrap();
    let out = format!("{}", it.execute("show catalog").unwrap());
    assert!(out.contains("link sequence = (1)"), "{out}");
    assert!(out.contains("link sequence = (1,2)"), "{out}");
    assert!(out.contains("link sequence = (3)"), "{out}");
}

#[test]
fn null_refs_and_defaults() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    it.execute(r#"insert Emp1 (name = "Eve", dept = null)"#)
        .unwrap();
    // Defaults: age/salary 0; NULL dept → NULL projection.
    let out = it
        .execute(r#"retrieve (Emp1.salary, Emp1.dept.name) where Emp1.name = "Eve""#)
        .unwrap();
    let r = rows(out);
    assert_eq!(r[0][0], Some(Value::Int(0)));
    assert_eq!(r[0][1], None);
}

#[test]
fn mixed_api_and_language_use() {
    let mut it = interpreter_with_figure_1();
    // Bind a variable from the API side and use it in a statement.
    let dept = it.db.scan_set("Dept").unwrap()[0];
    it.bind("d", dept);
    it.execute(r#"insert Emp1 (name = "Zoe", salary = 1, dept = $d)"#)
        .unwrap();
    assert_eq!(it.db.set_len("Emp1").unwrap(), 4);
}

#[test]
fn execution_errors_are_clean() {
    let mut it = interpreter_with_figure_1();
    // Unknown set.
    assert!(it.execute("retrieve (Nope.name)").is_err());
    // Unknown field in insert.
    assert!(it.execute(r#"insert Emp1 (bogus = 1)"#).is_err());
    // Unbound variable.
    assert!(it.execute(r#"insert Emp1 (dept = $nothing)"#).is_err());
    // Cross-set projection mix.
    assert!(it.execute("retrieve (Emp1.name, Emp2.name)").is_err());
    // Non-integer range operator.
    assert!(it
        .execute(r#"retrieve (Emp1.name) where Emp1.name > "A""#)
        .is_err());
    // Nested path in replace.
    assert!(it
        .execute(r#"replace (Emp1.dept.name = "x") where Emp1.salary = 0"#)
        .is_err());
    // The session stays usable after errors.
    assert!(it.execute("retrieve (Emp1.name)").is_ok());
}

#[test]
fn collapsed_replicate_statement() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.org.name collapsed")
        .unwrap();
    let p = it.db.catalog().paths().next().unwrap();
    assert!(p.collapsed);
    let out = it
        .execute(r#"retrieve (Emp1.dept.org.name) where Emp1.name = "Alice""#)
        .unwrap();
    assert_eq!(rows(out)[0][0], Some(Value::Str("Acme".into())));
    // And `using separate collapsed` is rejected.
    assert!(it
        .execute("replicate Emp1.dept.org.budget using separate collapsed")
        .is_err());
}

#[test]
fn advise_statement_reports() {
    let mut it = interpreter_with_figure_1();
    let out = format!("{}", it.execute("advise Emp1.dept.name at 0.05").unwrap());
    assert!(out.contains("use InPlace"), "{out}");
    assert!(out.contains("f = "), "{out}");
}

#[test]
fn deferred_read_through_language_syncs() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name using inplace deferred")
        .unwrap();
    it.execute(r#"replace (Dept.name = "Lazy") where Dept.name = "Toy""#)
        .unwrap();
    // retrieve must observe the new value (auto-sync in the executor).
    let out = it
        .execute(r#"retrieve (Emp1.dept.name) where Emp1.name = "Bob""#)
        .unwrap();
    assert_eq!(rows(out)[0][0], Some(Value::Str("Lazy".into())));
}

#[test]
fn explain_retrieve_prints_predictions_only() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    let out = it
        .execute("explain retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary > 100000")
        .unwrap();
    let text = format!("{out}");
    assert!(text.contains("predicted"), "{text}");
    assert!(text.contains("access"), "{text}");
    assert!(!text.contains("measured"), "{text}");
    assert!(!text.contains("rows:"), "explain must not execute: {text}");
}

#[test]
fn explain_analyze_retrieve_reports_measured_io_and_drift() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name using separate")
        .unwrap();
    let out = it
        .execute("explain analyze retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary > 100000")
        .unwrap();
    let text = format!("{out}");
    for needle in ["predicted", "measured", "drift", "total", "rows: 2"] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
}

#[test]
fn explain_analyze_replace_shows_propagation_operator() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    let out = it
        .execute(r#"explain analyze replace (Dept.name = "Sneaker") where Dept.name = "Shoe""#)
        .unwrap();
    let text = format!("{out}");
    assert!(text.contains("core.propagate"), "{text}");
    assert!(text.contains("measured"), "{text}");
    // The update really ran.
    let check = it
        .execute(r#"retrieve (Emp1.dept.name) where Emp1.name = "Alice""#)
        .unwrap();
    assert_eq!(rows(check)[0][0], Some(Value::Str("Sneaker".into())));
}

#[test]
fn explain_accepts_only_retrieve_and_replace() {
    let mut it = interpreter_with_figure_1();
    assert!(it.execute("explain sync").is_err());
    assert!(it
        .execute(r#"explain insert Org (name = "X", budget = 1)"#)
        .is_err());
    assert!(it.execute("explain analyze advise Emp1.dept.name").is_err());
}

#[test]
fn show_stats_reports_the_driven_workload_per_path() {
    let mut it = interpreter_with_figure_1();
    it.execute("replicate Emp1.dept.name").unwrap();
    for _ in 0..3 {
        it.execute("retrieve (Emp1.dept.name)").unwrap();
    }
    it.execute(r#"replace (Dept.name = "Outlet") where Dept.name = "Shoe""#)
        .unwrap();

    let text = format!("{}", it.execute("show stats").unwrap());
    assert!(text.contains("observed workload"), "{text}");
    assert!(text.contains("Emp1.dept.name"), "{text}");

    // Filtered to the driven path: same row, nothing else.
    let filtered = format!("{}", it.execute("show stats path Emp1.dept.name").unwrap());
    assert!(filtered.contains("Emp1.dept.name"), "{filtered}");

    // A path with no observed statistics is an error, not an empty table.
    assert!(it.execute("show stats path Emp1.dept.budget").is_err());
}

/// `delete … where` finds its victims through the query's access path: a
/// predicate through a reference that no index serves is one listing of
/// the set and one batched projection of the path, not a walk of the
/// path per member.
#[test]
fn a_delete_predicate_through_a_reference_is_one_batched_join() {
    use fieldrep_core::Database;
    use fieldrep_model::{FieldType, TypeDef};
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new("STYPE", vec![("name", FieldType::Str)]))
        .unwrap();
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("pad", FieldType::Pad(3000)),
        ],
    ))
    .unwrap();
    db.create_set("S", "STYPE").unwrap();
    db.create_set("R", "RTYPE").unwrap();
    let s: Vec<_> = (0..5)
        .map(|i| db.insert("S", vec![Value::Str(format!("s{i}"))]).unwrap())
        .collect();
    let pages: std::collections::BTreeSet<_> = (0..400)
        .map(|i| {
            let oid = db.insert("R", vec![Value::Ref(s[i % 5]), Value::Unit]);
            oid.unwrap().page_id()
        })
        .collect();
    assert_eq!(pages.len(), 400, "one R object per page");
    let mut it = Interpreter::with_db(db);
    let requests = |it: &Interpreter| {
        let io = it.db.io_profile();
        io.pool_hits + io.pool_misses
    };

    let before = requests(&it);
    let out = it
        .execute("delete from R where R.sref.name = \"zz\"")
        .unwrap();
    assert!(matches!(out, Output::Deleted(0)));
    // The listing's 400 R pages, the projection's 400 and the one S page.
    assert_eq!(requests(&it) - before, 801);

    let out = it
        .execute("delete from R where R.sref.name = \"s0\"")
        .unwrap();
    assert!(matches!(out, Output::Deleted(80)));
    let left = rows(it.execute("retrieve (R.sref.name)").unwrap());
    assert_eq!(left.len(), 320);
    assert!(left
        .iter()
        .all(|row| row[0] != Some(Value::Str("s0".into()))));
}

/// With an index on the predicate's field, `delete … where` reads the
/// index range, not the whole set.
#[test]
fn a_delete_predicate_on_an_indexed_field_uses_the_index() {
    let mut it = interpreter_with_figure_1();
    it.execute("build btree on Emp1.salary").unwrap();
    let q = fieldrep_query::DeleteQuery::on("Emp1").filter(fieldrep_query::Filter::Range {
        path: "salary".into(),
        lo: Value::Int(100_000),
        hi: Value::Int(130_000),
    });
    let access = q.plan(&it.db).unwrap().access;
    assert!(
        matches!(access, fieldrep_query::AccessPlan::IndexRange { .. }),
        "{access:?}"
    );
    let out = it
        .execute("delete from Emp1 where Emp1.salary between 100000 and 130000")
        .unwrap();
    assert!(matches!(out, Output::Deleted(1))); // Alice
    let out = it
        .execute("retrieve (Emp1.name) where Emp1.salary > 0")
        .unwrap();
    let names: Vec<_> = rows(out).into_iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        names,
        vec![
            Some(Value::Str("Bob".into())),
            Some(Value::Str("Cara".into()))
        ]
    );
}
