//! Page-count suite: runs the fixed measurement matrix (§6 read/update
//! I/O across settings, sharing levels, and strategies, propagation
//! fan-out, EXPLAIN-ANALYZE model drift, and the Figure 12/14
//! analytical cells) and writes the report `bench_gate` diffs against
//! the committed baseline.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin bench_suite -- \
//!         [--out PATH] [--run-id ID]`
//!
//! The report holds only deterministic counts, so the same commit and
//! `--run-id` always write the same bytes. With no flags, run from the
//! repository root, it re-records `BENCH_BASELINE.json` in place — do
//! that (and commit the diff) when a change moves page counts on
//! purpose. `scripts/bench_gate.sh` passes `--out target/…` instead.

use fieldrep_bench::suite::{run_suite, SuiteConfig};
use fieldrep_obs::{export, registry};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = "BENCH_BASELINE.json".to_string();
    let mut run_id = "baseline".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out PATH"),
            "--run-id" => run_id = args.next().expect("--run-id ID"),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("=== bench_suite run_id={run_id} ===\n");
    let report = run_suite(&SuiteConfig::full(), &run_id).expect("bench suite");

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
        if line.contains("storage.disk.batch_len") || line.contains("storage.prefetch.") {
            println!("{line}");
        }
    }

    if let Err(e) = std::fs::write(&out, report.to_json() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {} points to {out}", report.points.len());
    ExitCode::SUCCESS
}
