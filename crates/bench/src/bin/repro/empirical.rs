//! The empirical side of the evaluation: the §6 workloads on the real
//! engine, page I/O counted on a cold pool, set against the model.

use fieldrep_bench::{
    avg_read_stats, avg_update_stats, build_workload, measure_cell, strategy_name, WorkloadSpec,
    ALL_STRATEGIES,
};
use fieldrep_catalog::Strategy;
use fieldrep_costmodel::{total_cost, IndexSetting};

/// `repro empirical [--full]`: measured page I/O of the real engine
/// vs. the paper's analytical predictions, for every strategy and both
/// index settings, at the paper's parameters (|S| = 10 000, r = 100,
/// s = 200, k = 20, f_r = f_s = .001). `--full` adds f = 50
/// (|R| = 500 000; takes a few extra minutes).
pub(crate) fn table(full: bool) {
    let sharings: &[usize] = if full { &[1, 10, 20, 50] } else { &[1, 10, 20] };
    let queries = 5;

    println!("=== Empirical validation: measured page I/O vs. analytical model ===");
    println!("|S| = 10,000, f_r = f_s = .001, {queries} queries averaged, cold pool\n");

    for setting in [IndexSetting::Unclustered, IndexSetting::Clustered] {
        println!("--- {setting:?} indexes ---");
        println!(
            "{:>3} {:<10} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7}",
            "f", "strategy", "read meas", "read model", "ratio", "upd meas", "upd model", "ratio"
        );
        for &f in sharings {
            for strategy in ALL_STRATEGIES {
                let spec = WorkloadSpec::paper(f, setting, strategy);
                let (_, cell) = measure_cell(spec, queries).expect("measure cell");
                println!(
                    "{:>3} {:<10} | {:>10.1} {:>10.1} {:>7.2} | {:>10.1} {:>10.1} {:>7.2}",
                    f,
                    strategy_name(strategy),
                    cell.read_measured,
                    cell.read_model,
                    cell.read_measured / cell.read_model,
                    cell.update_measured,
                    cell.update_model,
                    cell.update_measured / cell.update_model,
                );
            }
        }
        println!();
    }
    println!("Interpretation: ratios near 1.0 mean the engine behaves as the §6 model");
    println!("predicts. Our objects carry slightly larger replication annotations than");
    println!("the model's idealised k bytes (see EXPERIMENTS.md), and B⁺-tree heights");
    println!("differ from m = 350, so small constant offsets are expected.");
}

/// `repro empirical_curves [--s N]`: empirical counterparts of Figures
/// 11/13 — the percentage change in `C_total` versus update
/// probability, computed from *measured* page I/O of the real engine
/// (scaled |S|), side by side with the analytical curves.
///
/// `C_total(P) = (1−P)·C_read + P·C_update` needs only one measured
/// `C_read` and `C_update` per strategy; the sweep is then arithmetic —
/// exactly how the paper builds Figures 11/13 from its cost equations.
pub(crate) fn curves(mut args: impl Iterator<Item = String>) {
    let mut s_count = 4000usize;
    while let Some(a) = args.next() {
        if a == "--s" {
            s_count = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--s takes a number");
        }
    }
    let queries = 4;

    for setting in [IndexSetting::Unclustered, IndexSetting::Clustered] {
        for f in [1usize, 10, 20] {
            println!(
                "=== {setting:?}, f = {f}, |S| = {s_count}, |R| = {} ===",
                f * s_count
            );
            // Measure each strategy once.
            let mut meas: Vec<(f64, f64)> = Vec::new(); // (read, update)
            let mut model_params = None;
            for strat in [None, Some(Strategy::InPlace), Some(Strategy::Separate)] {
                let spec = WorkloadSpec::paper(f, setting, strat).scaled(s_count);
                model_params.get_or_insert_with(|| spec.params());
                let mut w = build_workload(spec).expect("build workload");
                meas.push((
                    avg_read_stats(&mut w, queries).expect("read measurement").0,
                    avg_update_stats(&mut w, queries)
                        .expect("update measurement")
                        .0,
                ));
            }
            let params = model_params.unwrap();
            let total = |m: &(f64, f64), p: f64| (1.0 - p) * m.0 + p * m.1;

            println!(
                "{:>5} | {:>10} {:>10} | {:>10} {:>10}",
                "P_up", "inpl meas%", "inpl model%", "sep meas%", "sep model%"
            );
            for i in 0..=10 {
                let p = i as f64 / 10.0;
                let base = total(&meas[0], p);
                let m_ip = 100.0 * (total(&meas[1], p) - base) / base;
                let m_sep = 100.0 * (total(&meas[2], p) - base) / base;
                let a_base =
                    total_cost(&params, fieldrep_costmodel::ModelStrategy::None, setting, p);
                let a_ip = 100.0
                    * (total_cost(
                        &params,
                        fieldrep_costmodel::ModelStrategy::InPlace,
                        setting,
                        p,
                    ) - a_base)
                    / a_base;
                let a_sep = 100.0
                    * (total_cost(
                        &params,
                        fieldrep_costmodel::ModelStrategy::Separate,
                        setting,
                        p,
                    ) - a_base)
                    / a_base;
                println!("{p:>5.1} | {m_ip:>+10.1} {a_ip:>+10.1} | {m_sep:>+10.1} {a_sep:>+10.1}");
            }
            println!();
        }
    }
    println!("Negative % = replication cheaper than no replication. The measured");
    println!("curves should show the paper's shapes: in-place best at low P_up and");
    println!("degrading with P_up; separate flatter, winning beyond the crossover.");
}
