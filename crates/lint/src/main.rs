//! CLI for the workspace lint. See the library docs for the rules.
//!
//! Usage: `cargo run -q -p fieldrep-lint [-- --root DIR] [--update-budget]`

use fieldrep_lint::{budget, check_budget, run_checks};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_budget = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--update-budget" => update_budget = true,
            other => {
                eprintln!("unknown flag {other:?} (try --root DIR, --update-budget)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match run_checks(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fieldrep-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let budget_path = root.join("lint_budget.toml");
    let mut diags = report.diags.clone();
    if update_budget {
        let b = budget::Budget {
            panic_budget: report.panic_counts.clone(),
            suppressions: report.suppressions,
        };
        if let Err(e) = std::fs::write(&budget_path, budget::render(&b)) {
            eprintln!("fieldrep-lint: writing {}: {e}", budget_path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", budget_path.display());
    } else {
        match std::fs::read_to_string(&budget_path) {
            Ok(text) => match budget::parse(&text) {
                Ok(b) => diags.extend(check_budget(&report, &b)),
                Err(e) => {
                    eprintln!("fieldrep-lint: {}: {e}", budget_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) => {
                eprintln!(
                    "fieldrep-lint: missing {} — run `cargo run -p fieldrep-lint -- \
                     --update-budget` to create the ratchet baseline",
                    budget_path.display()
                );
                return ExitCode::from(2);
            }
        }
    }

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!(
            "fieldrep-lint: ok ({} crate(s), {} suppression(s))",
            report.panic_counts.len(),
            report.suppressions
        );
        ExitCode::SUCCESS
    } else {
        println!("fieldrep-lint: {} error(s)", diags.len());
        ExitCode::FAILURE
    }
}
