//! End-to-end acceptance tests for the introspection subsystem
//! (ISSUE: sys.* virtual tables + slow-query log).
//!
//! Everything lives in ONE test function: the metrics registry and the
//! slow-query log are process-global, and a single `#[test]` in its own
//! integration binary is the only way to guarantee no concurrent test
//! thread mutates them between a `retrieve` and the snapshot it is
//! compared against.

use fieldrep_core::DbConfig;
use fieldrep_lang::{Interpreter, Output};
use fieldrep_model::Value;
use fieldrep_obs::export::snapshot_jsonl;
use fieldrep_obs::{registry, slowlog};
use fieldrep_query::{Filter, ReadQuery};

fn rows_of(out: Output) -> (Vec<String>, Vec<Vec<Option<Value>>>) {
    match out {
        Output::Rows { columns, rows } => (columns, rows),
        other => panic!("expected rows, got {other:?}"),
    }
}

fn seed(it: &mut Interpreter) {
    it.run_script(
        r#"
        define type DEPT ( name: char[], budget: int );
        define type EMP  ( name: char[], salary: int, dept: ref DEPT );
        create Dept: {own ref DEPT};
        create Emp1: {own ref EMP};
        insert Dept (name = "Shoe", budget = 100000) as $shoe;
        insert Dept (name = "Toy", budget = 50000) as $toy;
        replicate Emp1.dept.name;
        "#,
    )
    .expect("schema");
    for i in 0..200 {
        let dept = if i % 2 == 0 { "$shoe" } else { "$toy" };
        it.execute(&format!(
            "insert Emp1 (name = \"e{i}\", salary = {}, dept = {dept})",
            1000 + i
        ))
        .expect("insert");
    }
}

#[test]
fn sys_tables_and_slow_query_log_round_trip() {
    let mut it = Interpreter::new(DbConfig {
        pool_pages: 256,
        ..DbConfig::default()
    });
    slowlog::set_off();
    slowlog::clear();
    seed(&mut it);

    // ---- Round-trip invariant: `retrieve … from sys.metrics` returns
    // values exactly equal to the JSONL exporter's snapshot of the same
    // registry. The virtual scan is metrics-free, so the registry the
    // statement reads IS the registry the snapshot right after sees.
    let (cols, rows) = rows_of(it.execute("retrieve (all) from sys.metrics").unwrap());
    let snap = registry().snapshot();
    assert_eq!(cols[0], "kind");
    assert_eq!(cols[1], "name");
    assert_eq!(
        rows.len(),
        snap.counters.len() + snap.gauges.len() + snap.derived.len() + snap.histograms.len(),
        "one row per registry instrument"
    );
    let cell_str = |c: &Option<Value>| match c {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected string cell, got {other:?}"),
    };
    let jsonl = snapshot_jsonl(&snap);
    for row in &rows {
        let kind = cell_str(&row[0]);
        let name = cell_str(&row[1]);
        match kind.as_str() {
            "counter" => {
                let v = snap
                    .counters
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("counter {name} not in snapshot"))
                    .1;
                assert_eq!(row[2], Some(Value::Int(v as i64)), "counter {name}");
                let line = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}");
                assert!(jsonl.contains(&line), "JSONL missing {line}");
            }
            "gauge" => {
                let v = snap
                    .gauges
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("gauge {name} not in snapshot"))
                    .1;
                assert_eq!(row[2], Some(Value::Int(v)), "gauge {name}");
            }
            "derived" => {
                let v = snap
                    .derived
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("derived {name} not in snapshot"))
                    .1;
                assert_eq!(row[2], Some(Value::Float(v)), "derived {name}");
                let formatted = format!("\"value\":{v:.6}");
                assert!(
                    jsonl
                        .iter()
                        .any(|l| l.contains(&name) && l.contains(&formatted)),
                    "JSONL missing derived {name}={formatted}"
                );
            }
            "histogram" => {
                let h = snap
                    .histograms
                    .iter()
                    .find(|h| h.name == name)
                    .unwrap_or_else(|| panic!("histogram {name} not in snapshot"));
                assert_eq!(row[3], Some(Value::Int(h.count as i64)), "histogram {name}");
            }
            other => panic!("unknown kind {other}"),
        }
    }

    // Filtering and projection through the language front-end.
    let (cols, rows) = rows_of(
        it.execute(
            "retrieve (name, value) from sys.metrics \
             where name = \"storage.pool.hits\"",
        )
        .unwrap(),
    );
    assert_eq!(cols, vec!["name".to_string(), "value".to_string()]);
    assert_eq!(rows.len(), 1, "exactly the filtered counter");
    assert!(matches!(rows[0][1], Some(Value::Int(n)) if n > 0));

    // sys.pool reflects the buffer pool; frame total == capacity.
    let (cols, rows) = rows_of(it.execute("retrieve (all) from sys.pool").unwrap());
    assert_eq!(cols[0], "frames");
    let frames: i64 = rows
        .iter()
        .map(|r| match r[0] {
            Some(Value::Int(n)) => n,
            _ => 0,
        })
        .sum();
    assert_eq!(frames, 256, "sys.pool frames sum to the pool capacity");

    // sys.workload sees the replicated-path reads the seed queries did.
    it.execute("retrieve (Emp1.dept.name) where Emp1.salary > 1100")
        .unwrap();
    let (_, rows) = rows_of(
        it.execute("retrieve (path, reads) from sys.workload")
            .unwrap(),
    );
    assert!(
        rows.iter()
            .any(|r| r[0] == Some(Value::Str("Emp1.dept.name".into()))),
        "replicated path shows up in sys.workload: {rows:?}"
    );

    // ---- Slow-query acceptance: a driven over-threshold statement
    // appears in sys.slow_queries with per-operator profile I/O matching
    // the statement's EXPLAIN ANALYZE measured column.
    let stmt = "retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary > 1050";
    it.execute("set slowlog threshold 1 pages").unwrap();
    let before = slowlog::recorded_total();
    // Cold pool, like EXPLAIN ANALYZE uses, so both runs measure the
    // same per-operator I/O.
    it.db.flush_all().unwrap();
    it.db.reset_profile();
    it.execute(stmt).unwrap();
    it.execute("set slowlog off").unwrap();
    assert_eq!(slowlog::recorded_total(), before + 1, "statement recorded");
    let entry = slowlog::entries().pop().expect("slow-query entry");
    assert_eq!(entry.statement, stmt);
    assert!(entry.io_pages >= 1);
    assert!(entry.plan.contains("access"), "plan text captured");
    assert!(
        entry.workload.contains("Emp1.dept.name"),
        "workload snapshot captured: {:?}",
        entry.workload
    );

    // EXPLAIN ANALYZE the same query (it resets to a cold pool itself).
    let q = ReadQuery::on("Emp1")
        .project(["name", "dept.name"])
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(1051),
            hi: Value::Int(i64::MAX),
        });
    let (explain, _res) = fieldrep_query::explain_analyze_read(&mut it.db, &q).unwrap();
    for op in &entry.profile.ops {
        let measured = explain
            .rows
            .iter()
            .find(|r| r.op == op.name)
            .and_then(|r| r.measured)
            .unwrap_or_else(|| panic!("operator {} missing from EXPLAIN ANALYZE", op.name));
        assert_eq!(
            op.io.disk_total(),
            measured,
            "per-operator I/O of {} matches EXPLAIN ANALYZE",
            op.name
        );
    }
    assert_eq!(
        entry.profile.total_io.disk_total(),
        explain.measured_total.unwrap(),
        "total I/O matches"
    );

    // The entry is queryable through sys.slow_queries, with filtering.
    let (cols, rows) = rows_of(
        it.execute("retrieve (statement, io_pages, ops) from sys.slow_queries")
            .unwrap(),
    );
    assert_eq!(cols.len(), 3);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Some(Value::Str(stmt.into())));
    assert!(matches!(rows[0][1], Some(Value::Int(n)) if n as u64 == entry.io_pages));
    let ops_cell = match &rows[0][2] {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("ops cell: {other:?}"),
    };
    assert!(
        ops_cell.contains("plan="),
        "ops summary lists operators: {ops_cell}"
    );

    // `show slowlog` dumps JSONL lines for the retained entries.
    let text = match it.execute("show slowlog").unwrap() {
        Output::Text(t) => t,
        other => panic!("{other:?}"),
    };
    assert!(text.contains("\"type\":\"slowlog_dump\""));
    assert!(text.contains("\"type\":\"slow_query\""));

    // EXPLAIN over a sys table renders the virtual-scan plan; ANALYZE
    // keeps the zero-I/O invariant visible.
    let plan = match it
        .execute("explain retrieve (all) from sys.metrics")
        .unwrap()
    {
        Output::Text(t) => t,
        other => panic!("{other:?}"),
    };
    assert!(plan.contains("virtual scan of sys.metrics"));
    let analyzed = match it
        .execute("explain analyze retrieve (all) from sys.metrics")
        .unwrap()
    {
        Output::Text(t) => t,
        other => panic!("{other:?}"),
    };
    assert!(analyzed.contains("rows:"));

    slowlog::set_off();
    slowlog::clear();
}
