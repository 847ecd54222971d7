//! `repro trace`: trace-driven §6 query mixes, executed literally. For
//! each update probability, draw a random interleaved read/update trace,
//! run it against the engine, and report the measured average I/O per
//! query (the empirical `C_total`) for each strategy.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- trace [--s N] [--f F] [--q N]`
//!
//! With `--profile`, instead of the P_up sweep, one read and one update
//! query run per strategy with span tracing on, and the per-operator
//! I/O profiles (EXPLAIN-ANALYZE style), span trees, and the global
//! metrics registry are printed; each profile's per-operator counters
//! are checked to sum exactly to the raw buffer-pool totals for the
//! run.  `--jsonl <path>` additionally writes every span, profile, and
//! registry entry as one JSON object per line (and implies --profile).
//! `--chrome-trace <path>` writes the collected span trees as one
//! Chrome-trace/Perfetto JSON document (load it at ui.perfetto.dev or
//! `chrome://tracing`); it also implies --profile.

use fieldrep_bench::trace::run_trace;
use fieldrep_bench::{
    build_workload, io_counts_of, profile_read_query, profile_update_query, strategy_name,
    ProfiledRun, WorkloadSpec, ALL_STRATEGIES,
};
use fieldrep_costmodel::{total_cost, IndexSetting, ModelStrategy};
use fieldrep_obs::{export, registry};
use std::io::Write as _;

/// Print one profiled query (profile table + span tree) and verify the
/// telescoping invariant against the raw pool counters. Returns the
/// JSONL lines for the run.
fn report_run(name: &str, run: &ProfiledRun) -> Vec<String> {
    let label = format!("{name}/{}", run.label);
    println!("{}", export::profile_text(&label, &run.profile));
    for s in &run.spans {
        print!("{}", export::span_text(s));
    }
    let raw = io_counts_of(&run.raw);
    let sum = run.profile.ops_io_sum();
    assert_eq!(
        sum, raw,
        "{label}: per-operator I/O must sum to the raw pool totals"
    );
    println!(
        "  invariant ok: sum(per-operator I/O) == raw pool totals ({})\n",
        export::io_text(&raw)
    );
    let mut lines = vec![export::profile_jsonl(&label, &run.profile)];
    lines.extend(run.spans.iter().map(export::span_jsonl));
    lines
}

fn run_profiled(
    s_count: usize,
    sharing: usize,
    jsonl: Option<&str>,
    chrome: Option<&str>,
    run_id: &str,
) {
    let setting = IndexSetting::Unclustered;
    println!("=== Profiled §6 queries: f = {sharing}, |S| = {s_count} ===\n");
    let mut lines = vec![export::run_meta_jsonl(run_id)];
    let mut spans = Vec::new();
    for strat in ALL_STRATEGIES {
        let name = strategy_name(strat);
        let mut w = build_workload(WorkloadSpec::paper(sharing, setting, strat).scaled(s_count))
            .expect("build workload");
        for run in [
            profile_read_query(&mut w, 0).expect("profiled read"),
            profile_update_query(&mut w, 0).expect("profiled update"),
        ] {
            lines.extend(report_run(name, &run));
            spans.extend(run.spans);
        }
    }
    let snap = registry().snapshot();
    println!("{}", export::snapshot_text(&snap));
    if let Some(path) = jsonl {
        lines.extend(export::snapshot_jsonl(&snap));
        let mut f = std::fs::File::create(path).expect("create --jsonl file");
        for l in &lines {
            writeln!(f, "{l}").expect("write --jsonl line");
        }
        println!("wrote {} JSON lines to {path}", lines.len());
    }
    if let Some(path) = chrome {
        std::fs::write(path, export::chrome_trace_json(&spans)).expect("write --chrome-trace file");
        println!(
            "wrote Chrome trace of {} root span(s) to {path}",
            spans.len()
        );
    }
}

pub(crate) fn run(mut args: impl Iterator<Item = String>) {
    let mut s_count = 2000usize;
    let mut sharing = 10usize;
    let mut n_queries = 30usize;
    let mut profile = false;
    let mut jsonl: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut run_id = String::from("trace_run");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--s" => s_count = args.next().and_then(|v| v.parse().ok()).expect("--s N"),
            "--f" => sharing = args.next().and_then(|v| v.parse().ok()).expect("--f F"),
            "--q" => n_queries = args.next().and_then(|v| v.parse().ok()).expect("--q N"),
            "--profile" => profile = true,
            "--jsonl" => jsonl = Some(args.next().expect("--jsonl <path>")),
            "--chrome-trace" => chrome = Some(args.next().expect("--chrome-trace <path>")),
            "--run-id" => run_id = args.next().expect("--run-id ID"),
            other => panic!("unknown flag {other}"),
        }
    }
    if profile || jsonl.is_some() || chrome.is_some() {
        run_profiled(
            s_count,
            sharing,
            jsonl.as_deref(),
            chrome.as_deref(),
            &run_id,
        );
        return;
    }
    let setting = IndexSetting::Unclustered;

    println!("=== Trace-driven query mixes: f = {sharing}, |S| = {s_count}, {n_queries} queries per point ===\n");
    println!(
        "{:>5} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "P_up", "none", "in-pl", "sep", "none*", "in-pl*", "sep*"
    );
    println!(
        "{:>5} | {:^29} | {:^29}",
        "", "measured C_total", "model C_total (*)"
    );

    // Build each workload once; traces mutate repfield cyclically, which
    // keeps the database valid across points.
    let mut workloads: Vec<_> = ALL_STRATEGIES
        .into_iter()
        .map(|strat| {
            build_workload(WorkloadSpec::paper(sharing, setting, strat).scaled(s_count))
                .expect("build workload")
        })
        .collect();
    let params = workloads[0].spec.params();

    for i in 0..=5 {
        let p = i as f64 / 5.0;
        print!("{p:>5.1} |");
        let mut measured = Vec::new();
        for w in &mut workloads {
            let r = run_trace(w, p, n_queries, 0xBEEF + i).expect("trace run");
            measured.push(r.c_total());
        }
        for m in &measured {
            print!(" {m:>9.1}");
        }
        print!(" |");
        for strat in [
            ModelStrategy::None,
            ModelStrategy::InPlace,
            ModelStrategy::Separate,
        ] {
            print!(" {:>9.1}", total_cost(&params, strat, setting, p));
        }
        println!();
    }
    println!("\nMeasured values are averages over randomly interleaved traces; model");
    println!("values are the paper's equations at the same (scaled) parameters.");
}
