//! The page-count pin: the suite run on the working tree must render
//! `BENCH_BASELINE.json` byte for byte. Every field is a deterministic
//! count, so any difference is a code change, never noise. The report
//! is one point per line, so a mismatch is named line by line, without
//! parsing.

use fieldrep_bench::suite::run_suite;

const BASELINE: &str = include_str!("../../../BENCH_BASELINE.json");

/// A report's lines keyed by point id (`{"id":"io/…",…`); the header and
/// footer key as themselves. The separating comma is dropped, so a point
/// appended after the last one does not move its predecessor.
fn keyed(report: &str) -> Vec<(&str, &str)> {
    report
        .lines()
        .map(|line| {
            let id = line
                .strip_prefix("{\"id\":\"")
                .and_then(|rest| rest.split('"').next())
                .unwrap_or(line);
            (id, line.trim_end_matches(','))
        })
        .collect()
}

#[test]
fn the_suite_reproduces_the_committed_baseline_bytes() {
    let now = run_suite().expect("bench suite").to_json() + "\n";
    if now == BASELINE {
        return;
    }
    let (old, new) = (keyed(BASELINE), keyed(&now));
    let line_of = |lines: &[(&str, &str)], id: &str| {
        lines
            .iter()
            .find(|(k, _)| *k == id)
            .map_or("(missing)".to_string(), |(_, l)| l.to_string())
    };
    let mut diffs = Vec::new();
    for (id, line) in &old {
        let l = line_of(&new, id);
        if l != *line {
            diffs.push(format!("{id}\n  baseline: {line}\n  now:      {l}"));
        }
    }
    for (id, line) in &new {
        if !old.iter().any(|(k, _)| k == id) {
            diffs.push(format!("{id}\n  baseline: (missing)\n  now:      {line}"));
        }
    }
    if diffs.is_empty() {
        diffs.push("every line matches: the bytes differ in order or line endings".into());
    }
    panic!(
        "the page-count suite no longer reproduces BENCH_BASELINE.json; {} point(s) differ:\n{}\n\
         If the change moves page counts on purpose, re-record from the repository root with\n  \
         cargo run --release -p fieldrep-bench --bin bench_suite\n\
         and commit the new file, naming each moved point.",
        diffs.len(),
        diffs.join("\n")
    );
}
