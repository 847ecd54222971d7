//! A `retrieve` allocates for the rows it returns, not for the plumbing
//! that finds them.
//!
//! The counting allocator is this binary's global allocator, so the file
//! holds exactly one test: nothing else may allocate while it counts. The
//! statement is the §6 read — `retrieve (R.field_r, R.sref.X) where
//! R.field_r between …` — over a §6-shaped world where `X` is answered by
//! a functional join (`rep_none`), an in-place replica (`rep_ip`) or the
//! separate file `S'` (`rep_sep`). A row needs two allocations: its `Vec`
//! and its one string.

// A `GlobalAlloc` impl is unsafe by signature; as for the btree crate's
// counting shim, the allowance covers this test file only.
#![allow(unsafe_code)]

use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_lang::{parse_stmt, Interpreter, Output};
use fieldrep_model::{FieldType, TypeDef, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed statistic that guards no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `|S|`; `|R|` is ten times as many, every `S` shared by ten `R`s.
const S_COUNT: i64 = 400;
const SHARING: i64 = 10;

/// At most this many allocations for a 20-row read.
const AT_20_ROWS: usize = 110;
/// At most this many allocations per row beyond the twentieth.
const PER_EXTRA_ROW: f64 = 2.1;

/// The §6 schema: `S` with three strings (one per strategy) and `R`
/// referencing `S`, both at their paper sizes; unclustered indexes on
/// both keys; `R.sref.rep_ip` in place and `R.sref.rep_sep` separate. The
/// `R` keys are a permutation, so a key range is spread over the file.
fn world() -> Interpreter {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("field_s", FieldType::Int),
            ("rep_none", FieldType::Str),
            ("rep_ip", FieldType::Str),
            ("rep_sep", FieldType::Str),
            ("pad", FieldType::Pad(131)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("field_r", FieldType::Int),
            ("pad", FieldType::Pad(83)),
        ],
    ))
    .unwrap();
    db.create_set("S", "STYPE").unwrap();
    db.create_set("R", "RTYPE").unwrap();
    let s_oids: Vec<_> = (0..S_COUNT)
        .map(|i| {
            let text = |tag: char| Value::Str(format!("{i:05}{tag}{:012}", 0));
            db.insert(
                "S",
                vec![Value::Int(i), text('n'), text('i'), text('s'), Value::Unit],
            )
            .unwrap()
        })
        .collect();
    let n_r = S_COUNT * SHARING;
    for i in 0..n_r {
        // 7919 is prime and coprime to `n_r`: a permutation of the keys.
        let key = (i * 7919) % n_r;
        let sref = s_oids[(i % S_COUNT) as usize];
        db.insert("R", vec![Value::Ref(sref), Value::Int(key), Value::Unit])
            .unwrap();
    }
    db.create_index("R.field_r", IndexKind::Unclustered)
        .unwrap();
    db.create_index("S.field_s", IndexKind::Unclustered)
        .unwrap();
    db.replicate("R.sref.rep_ip", Strategy::InPlace).unwrap();
    db.replicate("R.sref.rep_sep", Strategy::Separate).unwrap();
    Interpreter::with_db(db)
}

/// Allocations made by parsing and executing `text`, and the rows it
/// returned.
fn allocs_of(it: &mut Interpreter, text: &str) -> (usize, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = parse_stmt(text).and_then(|stmt| it.execute_stmt(&stmt));
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    match out {
        Ok(Output::Rows { rows, .. }) => (n, rows.len()),
        other => panic!("{text}: {other:?}"),
    }
}

#[test]
fn a_retrieve_allocates_per_row_not_per_plumbing() {
    let mut it = world();
    let mut failed = Vec::new();
    for rep in ["rep_none", "rep_ip", "rep_sep"] {
        let read = |lo: i64, rows: i64| {
            format!(
                "retrieve (R.field_r, R.sref.{rep}) where R.field_r between {lo} and {}",
                lo + rows - 1
            )
        };
        // Warm up: lazily-initialised metrics, interned span names and
        // the workload registry's entry allocate once.
        for rows in [20, 200] {
            allocs_of(&mut it, &read(0, rows));
        }
        let (at_20, n) = allocs_of(&mut it, &read(1_000, 20));
        assert_eq!(n, 20);
        let (at_200, n) = allocs_of(&mut it, &read(2_000, 200));
        assert_eq!(n, 200);
        let per_row = at_200.saturating_sub(at_20) as f64 / 180.0;
        let line = format!(
            "{rep}: {at_20} allocations at 20 rows, {at_200} at 200 ({per_row:.2} per extra row)"
        );
        eprintln!("{line}");
        if at_20 > AT_20_ROWS || per_row > PER_EXTRA_ROW {
            failed.push(line);
        }
    }
    assert!(
        failed.is_empty(),
        "over {AT_20_ROWS} at 20 rows or {PER_EXTRA_ROW} per extra row: {failed:#?}"
    );
}
