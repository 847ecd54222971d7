//! End-to-end acceptance for the always-on flight recorder: an engine
//! error injected in the middle of an in-place propagation ripple must
//! hand the installed error sink a JSONL dump whose final events show
//! the failing ripple — the propagation spans (with the batch's page-I/O
//! deltas) followed by the error itself — and every line of which is
//! one complete JSON document.
//!
//! Kept as a single-test file: the recorder ring and error sink are
//! process-wide, so this test owns its process.

use fieldrep_catalog::Strategy;
use fieldrep_core::{propagate, Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_obs::export::JSONL_SCHEMA_VERSION;
use fieldrep_obs::json::Json;
use fieldrep_obs::recorder;
use std::sync::{Arc, Mutex};

const ZERO_IO: &str = "\"io\":{\"disk_reads\":0,\"disk_writes\":0,\"disk_allocs\":0,\
                       \"pool_hits\":0,\"pool_misses\":0,\"evictions\":0}";

#[test]
fn injected_propagation_failure_dumps_the_failing_ripple() {
    let mut db = Database::in_memory(DbConfig::default());
    db.define_type(TypeDef::new("DEPT", vec![("name", FieldType::Str)]))
        .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![("dept", FieldType::Ref("DEPT".into()))],
    ))
    .unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp", "EMP").unwrap();
    let d = db.insert("Dept", vec![Value::Str("Shoe".into())]).unwrap();
    for _ in 0..8 {
        db.insert("Emp", vec![Value::Ref(d)]).unwrap();
    }
    db.replicate("Emp.dept.name", Strategy::InPlace).unwrap();

    // Capture the dump the engine hands the sink on error.
    let captured: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    recorder::set_error_sink(move |lines| {
        *sink.lock().unwrap() = lines.to_vec();
    });

    propagate::fail_next_inplace_propagation();
    let err = db.update(d, &[("name", Value::Str("Retail".into()))]);
    recorder::clear_error_sink();
    assert!(err.is_err(), "injected failpoint must surface as an error");

    let dump = captured.lock().unwrap().clone();
    assert!(!dump.is_empty(), "error sink never received a dump");
    let parsed: Vec<Json> = dump
        .iter()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("dump line is not JSON ({e}): {l}")))
        .collect();
    let header = &parsed[0];
    assert_eq!(
        header.get("type").and_then(Json::as_str),
        Some("recorder_dump"),
        "dump starts with its header: {}",
        dump[0]
    );
    assert_eq!(
        header.get("schema_version").and_then(Json::as_f64),
        Some(f64::from(JSONL_SCHEMA_VERSION))
    );
    assert!(parsed[1..]
        .iter()
        .all(|e| e.get("type").and_then(Json::as_str) == Some("recorder_event")));

    // The final event is the error, recorded against the propagation
    // span, carrying the failpoint's message.
    let last = dump.last().unwrap();
    assert!(
        last.contains("\"event\":\"error\"")
            && last.contains("\"name\":\"core.propagate\"")
            && last.contains("failpoint"),
        "dump must end with the propagation error: {last}"
    );

    // Immediately before it: the span exits of the failing ripple. The
    // in-place span's exit carries the batch's page-I/O delta (the
    // failpoint fires after the source batch was collected).
    // rposition: the *last* occurrences are the failing ripple's (earlier
    // propagation activity, e.g. replica builds, may also be retained).
    let pos = |pred: &dyn Fn(&str) -> bool| dump.iter().rposition(|l| pred(l));
    let inplace_exit = pos(&|l: &str| {
        l.contains("\"event\":\"span_exit\"") && l.contains("\"name\":\"core.propagate.inplace\"")
    })
    .expect("dump contains the in-place propagation span exit");
    let propagate_exit = pos(&|l: &str| {
        l.contains("\"event\":\"span_exit\"") && l.contains("\"name\":\"core.propagate\"")
    })
    .expect("dump contains the propagation round span exit");
    let error_at = dump.len() - 1;
    assert!(
        inplace_exit < propagate_exit && propagate_exit < error_at,
        "ripple spans must close before the error: inplace={inplace_exit} \
         propagate={propagate_exit} error={error_at}"
    );
    assert!(
        !dump[inplace_exit].contains(ZERO_IO),
        "the failing batch's span exit must carry its page-I/O delta: {}",
        dump[inplace_exit]
    );
}
