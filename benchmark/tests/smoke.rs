//! Smoke test of the benchmark itself, at a hundredth of the scale.
//!
//! Windows here are a millisecond long, so every window is exactly its
//! counted prefix: what a run counts is then a function of the seed
//! alone, and the test can ask for equality.

use fieldrep_benchmark::run::{run, Report, RunArgs};
use fieldrep_benchmark::spec::{
    manifest_json, valid_name, workload, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::collections::HashSet;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn smoke(name: &str, trace: bool, seed: u64, tag: &str) -> Report {
    let dir = scratch(tag);
    let report = run(&RunArgs {
        workload: workload(name).expect("a declared workload"),
        seed,
        seconds: 0.001,
        trace,
        scale: 0.01,
        scratch: dir.join("scratch"),
        trace_dir: trace.then(|| dir.clone()),
    })
    .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
    assert!(
        report.correct(),
        "{name} trace={trace}: {} failed",
        report.failed
    );
    assert!(report.attempted >= 1);
    report
}

#[test]
fn the_committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
    );
}

#[test]
fn the_manifest_is_within_the_drivers_limits() {
    assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!(manifest_json().len() <= 64 * 1024);
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let mut names = HashSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in &END_TO_END {
        assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn every_declared_metric_is_reported_on_every_workload() {
    for w in &WORKLOADS {
        for trace in [false, true] {
            let r = smoke(w.name, trace, 11, &format!("declared-{}-{trace}", w.name));
            let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(got, want, "{} trace={trace}", w.name);
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                // End-to-end metrics are shares of a parent's median to
                // the driver: none may be zero.
                for m in &r.metrics {
                    assert!(m.value > 0.0, "{} on {} is {}", m.name, w.name, m.value);
                }
            }
        }
    }
}

#[test]
fn one_seed_repeats_its_counts_and_another_seed_changes_the_stream() {
    for w in WORKLOADS.iter().filter(|w| w.clients == 1) {
        let a = smoke(w.name, false, 5, &format!("exact-{}-a", w.name));
        let b = smoke(w.name, false, 5, &format!("exact-{}-b", w.name));
        let c = smoke(w.name, false, 6, &format!("exact-{}-c", w.name));
        assert_eq!(a.attempted, b.attempted, "{}", w.name);
        for name in ["page_reqs_per_read", "page_reqs_per_update", "space_amp"] {
            assert_eq!(a.get(name), b.get(name), "{name} on {}", w.name);
        }
        assert_ne!(
            (a.get("page_reqs_per_read"), a.get("page_reqs_per_update")),
            (c.get("page_reqs_per_read"), c.get("page_reqs_per_update")),
            "{}: another seed must give another stream",
            w.name
        );

        let a = smoke(w.name, true, 5, &format!("exact-{}-ta", w.name));
        let b = smoke(w.name, true, 5, &format!("exact-{}-tb", w.name));
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(a.get(m.name), b.get(m.name), "{} on {}", m.name, w.name);
        }
    }
}

#[test]
fn the_layers_a_workload_never_enters_read_zero() {
    let hot = smoke("stmt_hot", true, 3, "zero-hot");
    for name in [
        "storage.disk.reads_per_op",
        "storage.buffer.misses_per_op",
        "storage.wal.bytes_per_commit",
        "core.txn.snapshot_retries_per_kread",
        "core.pages_per_read.none",
    ] {
        assert_eq!(hot.get(name), Some(0.0), "{name} on stmt_hot");
    }
    assert!(hot.get("lang.parse_us_p50").unwrap() > 0.0);
    let ripple = smoke("txn_ripple", true, 3, "zero-ripple");
    for name in [
        "lang.parse_us_p50",
        "query.run_us_p50",
        "btree.range_us_p50",
    ] {
        assert_eq!(ripple.get(name), Some(0.0), "{name} on txn_ripple");
    }
    assert!(ripple.get("storage.wal.bytes_per_commit").unwrap() > 0.0);
    assert_eq!(ripple.get("storage.wal.lost_acked_writes"), Some(0.0));
    assert!(ripple.get("storage.wal.replayed_pages").unwrap() > 0.0);
    assert_eq!(ripple.get("core.txn.conflicts_per_kcommit"), Some(0.0));
}

/// The fields of one written trace event, by plain scanning (the
/// harness writes the events itself, one shape).
fn field<'a>(event: &'a str, key: &str) -> &'a str {
    let at = event
        .find(key)
        .unwrap_or_else(|| panic!("{key} in {event}"))
        + key.len();
    let rest = &event[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

#[test]
fn a_trace_nests_and_runs_forward_on_every_thread() {
    for name in ["stmt_cold", "txn_mixed_t2"] {
        let tag = format!("trace-{name}");
        smoke(name, true, 9, &tag);
        let text = std::fs::read_to_string(scratch(&tag).join(format!("trace-{name}.json")))
            .expect("the traced run wrote its trace");
        assert!(text.len() <= 8_000_000);
        assert!(text.starts_with("{\"displayTimeUnit\""));
        // Per thread: the open operation's interval, and the last start.
        let mut open: Vec<(f64, f64, String)> = Vec::new();
        let mut last_start: Vec<f64> = Vec::new();
        let mut events = 0;
        for event in text.split("{\"name\":").skip(1) {
            // Thread-name records (and their `args`) are not spans.
            if !event.contains("\"ph\":\"X\"") {
                continue;
            }
            events += 1;
            let tid: usize = field(event, "\"tid\":").parse().unwrap();
            let ts: f64 = field(event, "\"ts\":").parse().unwrap();
            let dur: f64 = field(event, "\"dur\":").parse().unwrap();
            if open.len() <= tid {
                open.resize(tid + 1, (0.0, 0.0, String::new()));
                last_start.resize(tid + 1, 0.0);
            }
            assert!(ts >= last_start[tid], "{name}: thread {tid} runs backwards");
            last_start[tid] = ts;
            let op = field(event, "\"op\":").to_string();
            match field(event, "\"cat\":") {
                "op" => open[tid] = (ts, ts + dur, op),
                "layer" => {
                    let (start, end, open_op) = &open[tid];
                    assert_eq!(&op, open_op, "{name}: a layer span outside its operation");
                    // Timestamps are written to the nanosecond.
                    assert!(ts >= *start && ts + dur <= *end + 0.0015, "{name}: {event}");
                }
                _ => {}
            }
        }
        assert!(events > 100, "{name}: {events} events");
    }
}
