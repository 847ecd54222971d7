//! Page-count suite: runs the fixed measurement matrix (§6 read/update
//! I/O across settings, sharing levels, and strategies, propagation
//! fan-out, EXPLAIN-ANALYZE model drift, and the Figure 12/14
//! analytical cells) and either re-records the committed baseline or
//! gates the working tree against it.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin bench_suite -- \
//!         [--gate] [--out PATH]`
//!
//! The report holds only deterministic counts, so the same commit always
//! writes the same bytes. With no flags, run from the repository root, it
//! re-records `BENCH_BASELINE.json` in place — do that (and commit the
//! diff) when a change moves page counts on purpose. `--gate` instead
//! diffs the run against the committed `BENCH_BASELINE.json` and exits
//! nonzero on a point whose page I/O or disk read calls rose more than
//! [`MAX_IO_REGRESS_PCT`], on model drift beyond [`MAX_DRIFT_PCT`], or
//! on a vanished point; it writes a report only when `--out` is given.
//! `scripts/bench_gate.sh` is `--gate`.

use fieldrep_bench::suite::{
    gate, run_suite, SuiteConfig, SuiteReport, MAX_DRIFT_PCT, MAX_IO_REGRESS_PCT,
};
use fieldrep_obs::{export, registry};
use std::process::ExitCode;

const BASELINE: &str = "BENCH_BASELINE.json";

fn load_baseline() -> Result<SuiteReport, String> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| format!("{BASELINE}: {e}"))?;
    SuiteReport::parse(&text).map_err(|e| format!("{BASELINE}: {e}"))
}

fn main() -> ExitCode {
    let mut out = None;
    let mut gate_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--gate" => gate_mode = true,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Read the baseline before the run, so a bad file fails fast.
    let baseline = if gate_mode {
        match load_baseline() {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    println!("=== bench_suite ===\n");
    let report = run_suite(&SuiteConfig::full(), "baseline").expect("bench suite");

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

    if let Some(path) = out.or_else(|| (!gate_mode).then(|| BASELINE.to_string())) {
        if let Err(e) = std::fs::write(&path, report.to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {} points to {path}", report.points.len());
    }

    let Some(old) = baseline else {
        return ExitCode::SUCCESS;
    };
    println!(
        "\ngate: working tree vs {BASELINE}; limits: io +{MAX_IO_REGRESS_PCT:.0}%, \
         drift ±{MAX_DRIFT_PCT:.0}%"
    );
    let violations = gate(&old, &report);
    if violations.is_empty() {
        println!("PASS: {} points compared, no regressions", old.points.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        eprintln!("{} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
