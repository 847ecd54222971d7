//! Hostile-input regressions: malformed scripts must come back as
//! `Err(LangError)` diagnostics, never a panic. Every input here once
//! mapped to (or resembles) a panic path in the parser or interpreter.

use fieldrep_core::DbConfig;
use fieldrep_lang::{parse_script, parse_stmt, Interpreter, LangError, Output};
use fieldrep_query::QueryError;

/// Statements that are syntactically broken in assorted ways. Each must
/// produce a parse error, not a panic.
#[test]
fn malformed_statements_are_errors_not_panics() {
    let hostile = [
        "",
        ";",
        ";;;",
        "retrieve",
        "retrieve (",
        "retrieve ()",
        "retrieve (Emp1.name",
        "retrieve (Emp1.name,)",
        "retrieve (Emp1..name)",
        "retrieve (Emp1.name) where",
        "retrieve (Emp1.name) where Emp1.salary",
        "retrieve (Emp1.name) where Emp1.salary between 1",
        "retrieve (Emp1.name) where Emp1.salary between 1 and",
        "replace",
        "replace ()",
        "replace (Dept.budget)",
        "replace (Dept.budget = )",
        "replace (Dept.budget = 42",
        "insert",
        "insert Emp1",
        "insert Emp1 (",
        "insert Emp1 (name",
        "insert Emp1 (name =",
        "insert Emp1 (name = \"A\"",
        "insert Emp1 (name = \"A\") as",
        "insert Emp1 (name = \"A\") as bare",
        "define type",
        "define type X",
        "define type X (",
        "define type X ( a )",
        "define type X ( a: )",
        "define type X ( a: char )",
        "define type X ( a: char[ )",
        "define type X ( a: pad[999999999999] )",
        "define type X ( a: ref )",
        "create",
        "create S",
        "create S:",
        "create S: {ref EMP}",
        "replicate",
        "replicate Emp1.",
        "replicate Emp1.dept.name using",
        "drop",
        "drop Emp1.dept.name",
        "build",
        "build btree",
        "build btree on",
        "delete",
        "delete Emp1",
        "delete from",
        "explain",
        "explain insert Emp1 (name = \"A\")",
        "advise",
        "advise Emp1.dept.name at",
        "advise Emp1.dept.name at high",
        "show",
        "sync extra tokens",
        "\u{0}\u{1}\u{2}",
        "🦀🦀🦀",
        "retrieve (🦀.🦀)",
    ];
    for src in hostile {
        assert!(
            parse_stmt(src).is_err(),
            "hostile input parsed cleanly: {src:?}"
        );
    }
}

/// `parse_stmt` on zero or many statements reports counts, never pops an
/// empty vec.
#[test]
fn parse_stmt_rejects_wrong_statement_counts() {
    let err = parse_stmt("").unwrap_err();
    assert!(err.to_string().contains("empty"), "{err}");
    let err = parse_stmt("sync; sync").unwrap_err();
    assert!(err.to_string().contains("found 2"), "{err}");
    // A trailing semicolon is one statement, not two.
    assert!(parse_stmt("sync;").is_ok());
}

/// Deeply nested / very long inputs stay within the recursive-descent
/// parser's comfort zone (only `explain` nests, and it nests once).
#[test]
fn pathological_lengths_do_not_panic() {
    let long_path = format!("retrieve (Emp1.{})", vec!["a"; 10_000].join("."));
    let _ = parse_stmt(&long_path);
    let many_fields = format!(
        "define type X ( {} )",
        (0..5_000)
            .map(|i| format!("f{i}: int"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = parse_stmt(&many_fields);
    let explains = format!("{}retrieve (Emp1.name)", "explain ".repeat(64));
    assert!(parse_stmt(&explains).is_err());
    let stmts = parse_script(&"sync;".repeat(2_000)).unwrap();
    assert_eq!(stmts.len(), 2_000);
}

/// Statements that parse but name unknown schema objects must surface as
/// interpreter errors, not panics.
#[test]
fn unknown_names_are_interpreter_errors() {
    let mut it = Interpreter::new(DbConfig::default());
    it.run_script("define type EMP ( name: char[] ); create Emp1: {own ref EMP};")
        .unwrap();
    for src in [
        "retrieve (Ghost.name)",
        "retrieve (Emp1.ghost)",
        "retrieve (Emp1.name) where Ghost.name = \"x\"",
        "replace (Ghost.name = \"x\")",
        "replicate Ghost.dept.name",
        "replicate Emp1.ghost.name",
        "drop replicate Emp1.ghost.name",
        "build btree on Ghost.name",
        "insert Ghost (name = \"x\")",
        "insert Emp1 (ghost = \"x\")",
        "insert Emp1 (name = $unbound)",
        "delete from Ghost",
        "advise Ghost.dept.name",
        "show ghosts",
    ] {
        assert!(it.execute(src).is_err(), "expected error for {src:?}");
    }
}

/// A `where` literal of another type than the field it filters is a
/// query error, not an empty result: `between 1.5 and 3.5` on an int key
/// once matched nothing, though keys 2 and 3 exist.
#[test]
fn filter_literals_of_the_wrong_type_are_errors() {
    let mut it = Interpreter::new(DbConfig::default());
    it.run_script(
        "define type EMP ( name: char[], salary: int ); create Emp1: {own ref EMP};
         insert Emp1 (name = \"a\", salary = 2); insert Emp1 (name = \"b\", salary = 3);
         build btree on Emp1.salary",
    )
    .unwrap();
    for src in [
        "retrieve (Emp1.name) where Emp1.salary between 1.5 and 3.5",
        "retrieve (Emp1.name) where Emp1.salary = \"abc\"",
        "retrieve (Emp1.salary) where Emp1.name = 2",
        "replace (Emp1.name = \"c\") where Emp1.salary = \"2\"",
    ] {
        assert!(
            matches!(
                it.execute(src),
                Err(LangError::Query(QueryError::BadQuery(_)))
            ),
            "{src}"
        );
    }
    match it.execute("retrieve (Emp1.name) where Emp1.salary between 1 and 3") {
        Ok(Output::Rows { rows, .. }) => assert_eq!(rows.len(), 2),
        other => panic!("{other:?}"),
    }
}
