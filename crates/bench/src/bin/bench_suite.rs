//! Page-count suite: runs the fixed measurement matrix (§6 read/update
//! I/O across settings, sharing levels, and strategies, propagation
//! fan-out, EXPLAIN-ANALYZE model drift, and the Figure 12/14
//! analytical cells), prints summary tables, and re-records the
//! committed baseline.
//!
//! Run from the repository root:
//! `cargo run --release -p fieldrep-bench --bin bench_suite`
//!
//! The report holds only deterministic counts, so the same commit always
//! writes the same bytes to `BENCH_BASELINE.json`. `tests/baseline.rs`
//! fails `cargo test` when the working tree's report differs from the
//! committed file; re-record (and commit the diff, naming each moved
//! point) when a change moves page counts on purpose.

use fieldrep_bench::suite::run_suite;
use fieldrep_obs::{export, registry};
use std::process::ExitCode;

const BASELINE: &str = "BENCH_BASELINE.json";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument {arg}: bench_suite takes none");
        return ExitCode::FAILURE;
    }
    println!("=== bench_suite ===\n");
    let report = run_suite().expect("bench suite");

    println!(
        "{:<40} {:>10} {:>10} {:>8}",
        "point", "measured", "model", "drift%"
    );
    for p in &report.points {
        if p.id.starts_with("model/") {
            continue; // analytical cells are in the JSON, not the summary
        }
        println!(
            "{:<40} {:>10.1} {:>10.1} {:>+8.1}",
            p.id, p.measured_io, p.model_io, p.drift_pct
        );
    }

    // Batched I/O: grouped-read calls per io/ point. Page I/O is
    // unchanged by batching; the win shows up as fewer read calls
    // (seek/syscall proxy).
    println!(
        "\n--- Batched I/O ---\n{:<40} {:>10} {:>10}",
        "point", "calls", "pages/call"
    );
    for p in &report.points {
        if !p.id.starts_with("io/") {
            continue;
        }
        let per_call = if p.batch_io > 0.0 {
            p.measured_io / p.batch_io
        } else {
            0.0
        };
        println!("{:<40} {:>10.1} {:>10.2}", p.id, p.batch_io, per_call);
    }
    for line in export::snapshot_jsonl(&registry().snapshot()) {
        if line.contains("storage.disk.batch_len") {
            println!("{line}");
        }
    }

    if let Err(e) = std::fs::write(BASELINE, report.to_json() + "\n") {
        eprintln!("cannot write {BASELINE}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {} points to {BASELINE}", report.points.len());
    ExitCode::SUCCESS
}
