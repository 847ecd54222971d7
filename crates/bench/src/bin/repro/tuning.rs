//! Strategy tuning: which replication strategy wins for a query mix?
//! The §6 experiment on the real engine at a reduced scale, sweeping the
//! update probability, with the measured crossover next to the
//! analytical totals.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- tuning`

use fieldrep_bench::{avg_read_stats, avg_update_stats, build_workload, WorkloadSpec};
use fieldrep_catalog::Strategy;
use fieldrep_costmodel::{total_cost, IndexSetting, ModelStrategy};

pub(crate) fn run() {
    let s_count = 2000; // scaled-down |S| (the paper uses 10 000)
    let sharing = 10;
    let setting = IndexSetting::Unclustered;
    let queries = 4;

    println!("=== Empirical strategy tuning: f = {sharing}, |S| = {s_count}, unclustered ===\n");

    // Measure C_read and C_update once per strategy.
    let mut measured = Vec::new();
    for (name, strat, model) in [
        ("none", None, ModelStrategy::None),
        ("in-place", Some(Strategy::InPlace), ModelStrategy::InPlace),
        (
            "separate",
            Some(Strategy::Separate),
            ModelStrategy::Separate,
        ),
    ] {
        let spec = WorkloadSpec::paper(sharing, setting, strat).scaled(s_count);
        let params = spec.params();
        let mut w = build_workload(spec).expect("build workload");
        let read = avg_read_stats(&mut w, queries).expect("read measurement").0;
        let update = avg_update_stats(&mut w, queries)
            .expect("update measurement")
            .0;
        println!("{name:>9}: measured C_read = {read:7.1}   C_update = {update:7.1}");
        measured.push((name, read, update, params, model));
    }

    println!(
        "\n{:>6} | {:^28} | {:^28}",
        "P_up", "measured C_total", "analytical C_total"
    );
    println!(
        "{:>6} | {:>8} {:>8} {:>8}  | {:>8} {:>8} {:>8}",
        "", "none", "in-pl", "sep", "none", "in-pl", "sep"
    );
    let mut crossover_measured = None;
    let mut prev_winner = "";
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        let totals: Vec<f64> = measured
            .iter()
            .map(|(_, r, u, _, _)| (1.0 - p) * r + p * u)
            .collect();
        let analytic: Vec<f64> = measured
            .iter()
            .map(|(_, _, _, params, model)| total_cost(params, *model, setting, p))
            .collect();
        print!("{p:>6.1} |");
        for t in &totals {
            print!(" {t:>8.1}");
        }
        print!("  |");
        for t in &analytic {
            print!(" {t:>8.1}");
        }
        println!();

        // Track the in-place / separate crossover.
        let winner = if totals[1] <= totals[2] {
            "in-place"
        } else {
            "separate"
        };
        if prev_winner == "in-place" && winner == "separate" && crossover_measured.is_none() {
            crossover_measured = Some(p);
        }
        prev_winner = winner;
    }

    println!();
    match crossover_measured {
        Some(p) => println!(
            "Measured in-place→separate crossover near P_up ≈ {p:.1}; the paper's \
             analysis puts it between 0.15 and 0.35 (§6.6)."
        ),
        None => println!("No in-place→separate crossover in [0,1] at these parameters."),
    }
    println!("Recommendation: replicate frequently-read, rarely-updated paths in-place;");
    println!("switch heavily-shared, update-prone paths to separate replication.");
}
