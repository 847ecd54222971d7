//! Acceptance test for the batched I/O fast path (ISSUE 3).
//!
//! Figure 12's unclustered update workload at fan-out `f ≥ 8`: after an
//! update to a replicated terminal field, in-place propagation must cost
//! `ceil(f / objects-per-page)` source-page reads plus a short path
//! overhead (terminal page, link-object page) — i.e. the `Yao(f)` page
//! count the cost model charges, not `f` round trips — and the source
//! pages must arrive through grouped (batched) disk reads.
//!
//! Runs in its own integration-test binary so the process-wide
//! `storage.disk.batch_len` histogram deltas it asserts on are not
//! perturbed by unrelated tests.

use fieldrep_catalog::Strategy;
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_obs::metrics::registry;
use fieldrep_storage::PageId;

/// Fan-out: how many source objects share the one terminal.
const FANOUT: usize = 64;

#[test]
fn inplace_propagation_reads_pages_not_objects_via_grouped_batches() {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 256,
        inline_link_threshold: 2,
    });
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("repfield", FieldType::Str),
            ("field_s", FieldType::Int),
            ("pad", FieldType::Pad(171)),
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

    let s = db
        .insert(
            "S",
            vec![
                Value::Str("rep0000000000#00#0".into()),
                Value::Int(0),
                Value::Unit,
            ],
        )
        .unwrap();

    // Replicate BEFORE inserting the R objects: each is then born with
    // its hidden replicated value, so no record ever grows or forwards
    // and the R file stays densely packed in insertion (physical) order.
    let path = db.replicate("R.sref.repfield", Strategy::InPlace).unwrap();

    let mut r_oids = Vec::with_capacity(FANOUT);
    for i in 0..FANOUT {
        r_oids.push(
            db.insert("R", vec![Value::Ref(s), Value::Int(i as i64), Value::Unit])
                .unwrap(),
        );
    }

    // The paper's page-count bound: f objects on ceil(f / objects-per-page)
    // contiguous pages.
    let mut src_pages: Vec<PageId> = r_oids.iter().map(fieldrep_storage::Oid::page_id).collect();
    src_pages.dedup();
    assert!(
        src_pages.len() < FANOUT / 8,
        "sources must be page-clustered for the bound to be meaningful \
         ({} pages for {FANOUT} objects)",
        src_pages.len()
    );

    let batch_len = registry().histogram(
        fieldrep_obs::names::STORAGE_DISK_BATCH_LEN,
        &[1, 2, 4, 8, 16, 32, 64, 128],
    );
    db.flush_all().unwrap();
    db.reset_profile();
    let batches_before = batch_len.count();

    // The Figure 12 update: rewrite the replicated terminal field (same
    // encoded length, so source objects don't grow).
    db.update(s, &[("repfield", Value::Str("rep0000000000#00#1".into()))])
        .unwrap();

    let prof = db.io_profile();
    // Path overhead: the terminal's own page plus the link-object page(s),
    // with slack of 2 for layout variance.
    let path_len = 2 + 2;
    assert!(
        prof.disk.reads <= (src_pages.len() + path_len) as u64,
        "propagation at f={FANOUT} must read ~one I/O per source page \
         (pages={}, reads={}, profile={prof})",
        src_pages.len(),
        prof.disk.reads
    );
    // Grouped reads: the contiguous source run arrives in a handful of
    // read calls, not one call per page (let alone per object).
    assert!(
        prof.disk.read_calls <= 5,
        "expected grouped read calls, got {} ({prof})",
        prof.disk.read_calls
    );
    assert!(
        prof.disk.read_calls < prof.disk.reads,
        "at least one call must have moved multiple pages ({prof})"
    );
    assert!(
        batch_len.count() > batches_before,
        "the batched read path must have recorded batch_len samples"
    );

    // And the propagation must actually have happened, everywhere.
    for &r in &r_oids {
        assert_eq!(
            db.path_values(r, path).unwrap(),
            Some(vec![Value::Str("rep0000000000#00#1".into())]),
            "replicated value refreshed on {r}"
        );
    }
}
