//! The §6 analytical cost model at chosen parameters: the full cost
//! breakdown, the break-even update probabilities, and the advisor's
//! picks.
//!
//! Run: `cargo run --release -p fieldrep-bench --bin repro -- costs [f] [f_r] [f_s]`
//! (defaults 10, .002, .001).

use fieldrep_costmodel::{
    crossover, percent_difference, read_cost, recommend, update_cost, IndexSetting, ModelStrategy,
    Params,
};

pub(crate) fn run(mut args: impl Iterator<Item = String>) {
    let f: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10.0);
    let fr: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.002);
    let fs: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.001);

    let params = Params {
        sharing: f,
        read_sel: fr,
        update_sel: fs,
        ..Params::default()
    };
    println!(
        "Cost model at f = {f}, f_r = {fr}, f_s = {fs}  (|S| = {}, |R| = {})\n",
        params.s_count,
        params.r_count()
    );

    for setting in [IndexSetting::Unclustered, IndexSetting::Clustered] {
        println!("--- {setting:?} indexes ---");
        for strat in [
            ModelStrategy::None,
            ModelStrategy::InPlace,
            ModelStrategy::Separate,
        ] {
            let r = read_cost(&params, strat, setting);
            let u = update_cost(&params, strat, setting);
            println!("{strat:?}:");
            print!("  C_read  = {:7.1}  [", r.total());
            for (n, v) in &r.terms {
                print!(" {n}={v:.1}");
            }
            println!(" ]");
            print!("  C_update= {:7.1}  [", u.total());
            for (n, v) in &u.terms {
                print!(" {n}={v:.1}");
            }
            println!(" ]");
        }

        // Break-even points vs. no replication.
        for strat in [ModelStrategy::InPlace, ModelStrategy::Separate] {
            let mut break_even = None;
            for i in 0..=1000 {
                let p = i as f64 / 1000.0;
                if percent_difference(&params, strat, setting, p) > 0.0 {
                    break_even = Some(p);
                    break;
                }
            }
            match break_even {
                Some(p) if p > 0.0 => println!("{strat:?} stops paying off at P_update ≈ {p:.3}"),
                Some(_) => println!("{strat:?} never pays off at these parameters"),
                None => println!("{strat:?} pays off for every update probability"),
            }
        }
        // Advisor summary.
        for p_up in [0.05, 0.25, 0.50] {
            let r = recommend(&params, setting, p_up);
            println!(
                "advisor: at P_update = {p_up:.2} choose {:?} (saves {:.1}%)",
                r.strategy, r.saving_pct
            );
        }
        if let Some(x) = crossover(
            &params,
            setting,
            ModelStrategy::InPlace,
            ModelStrategy::Separate,
        ) {
            println!("advisor: in-place/separate crossover at P_update ≈ {x:.3}");
        }
        println!();
    }
}
