//! Command line of the benchmark. `run.sh` builds and calls this.
//!
//! ```text
//! fieldrep-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale X] [--out DIR]
//! fieldrep-benchmark --merge --seed N [--scale X] [--seconds S] [--out DIR]
//! fieldrep-benchmark --manifest
//! ```
//!
//! The first form runs one workload once and prints every metric by
//! name, then — as the last line — the result object. Exit code 0 means
//! the run finished and reported; a run whose outputs were wrong still
//! reports (`"correct": false`), and exits with 2 so that a person or a
//! script notices.

use fieldrep_benchmark::report::{fragment, fragment_name, merge, result_line, table};
use fieldrep_benchmark::run::{run, RunArgs};
use fieldrep_benchmark::spec::{manifest_json, valid_name, workload, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "{problem}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale <x>] [--out <dir>]\n       --merge --seed <n> [--scale <x>] [--seconds <s>] [--out <dir>]\n       --manifest",
        names.join("|")
    );
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let mut workload_name = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut scale = 1.0f64;
    let mut out = PathBuf::from("benchmark/out");
    let mut merging = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", manifest_json());
            return ExitCode::SUCCESS;
        }
        if flag == "--merge" {
            merging = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload_name = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--scale" => value.parse().map(|v| scale = v).is_ok() && scale > 0.0 && scale <= 1.0,
            "--out" => {
                out = PathBuf::from(&value);
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    if merging {
        return match merge(&out, seed, scale, seconds) {
            Ok(_) => {
                println!("wrote {}", out.join("result.json").display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = workload_name.as_deref().and_then(workload) else {
        return usage("name a workload");
    };
    let report = match run(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
        scale,
        scratch: out.join(format!("scratch-{}", std::process::id())),
        trace_dir: Some(out.clone()),
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !valid_name(m.name)) {
        eprintln!("metric name {:?} is not [A-Za-z0-9_.-]+", bad.name);
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(
            out.join(fragment_name(workload.name, trace)),
            fragment(&report),
        )
    }) {
        eprintln!("{}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    print!("{}", table(&report));
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
