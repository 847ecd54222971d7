//! Regression gate over two `bench_suite` reports: compares the newer
//! report's points against the older one and exits nonzero if measured
//! page I/O or disk read calls regressed beyond the threshold, a point
//! disappeared, or EXPLAIN-ANALYZE model drift exceeds its bound.
//! Improvements pass.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin bench_gate -- \
//!         OLD.json NEW.json [--max-io-regress PCT] [--max-drift PCT]`
//!
//! `scripts/bench_gate.sh` wires this to the committed
//! `BENCH_BASELINE.json` and a fresh run of the working tree.

use fieldrep_bench::suite::{gate, GateThresholds, SuiteReport};
use std::process::ExitCode;

fn load(path: &str) -> Result<SuiteReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    SuiteReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut files = Vec::new();
    let mut t = GateThresholds::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-io-regress" => {
                t.max_io_regress_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-io-regress PCT");
            }
            "--max-drift" => {
                t.max_drift_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-drift PCT");
            }
            other => files.push(other.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("usage: bench_gate OLD.json NEW.json [--max-io-regress PCT] [--max-drift PCT]");
        return ExitCode::FAILURE;
    }
    let (old, new) = match (load(&files[0]), load(&files[1])) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for r in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("error: {r}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gate: {} (run {}) vs {} (run {}); limits: io +{:.0}%, drift ±{:.0}%",
        files[0], old.run_id, files[1], new.run_id, t.max_io_regress_pct, t.max_drift_pct
    );
    let violations = gate(&old, &new, &t);
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
