//! Ablation of the L0 prediction horizon: sweep `N_L0 ∈ {1, 2, 3, 4}`
//! (the paper uses 3) on the single-module experiment and report QoS,
//! energy and search cost. The expected trade-off: longer horizons
//! explore exponentially more states for marginal QoS gains.
//!
//! Asserted: the run exits non-zero unless the L0 states explored per
//! decision strictly increase with `N`, each at least 1.5× the previous
//! (7 / 15 / 26 / 55 at default scale).

use llc_bench::claims;
use llc_bench::figures::FIGURE_SEED;
use llc_bench::report::{quick_mode, write_csv};
use llc_cluster::{single_module, Experiment, HierarchicalPolicy};
use llc_workload::{synthetic_paper_workload, VirtualStore};

fn main() {
    println!("Ablation — L0 prediction horizon sweep (paper: N_L0 = 3)\n");
    println!(
        "{:>3} | {:>14} | {:>12} | {:>12} | {:>14}",
        "N", "mean resp (s)", "violations", "energy", "L0 states/dec"
    );
    println!("{}", "-".repeat(70));

    let mut rows = Vec::new();
    let mut search_cost = Vec::new();
    for horizon in [1usize, 2, 3, 4] {
        let mut scenario = single_module(4);
        scenario.l0.horizon = horizon;
        let mut trace = synthetic_paper_workload(FIGURE_SEED);
        if quick_mode() {
            scenario = scenario.with_coarse_learning();
            trace = trace.slice(0, 250);
        }
        let store = VirtualStore::paper_default(FIGURE_SEED);
        let mut policy = HierarchicalPolicy::build(&scenario);
        let log = Experiment::paper_default(FIGURE_SEED)
            .run(scenario.to_sim_config(), &mut policy, &trace, &store)
            .expect("well-formed scenario");
        let s = log.summary();
        // Mean over the four computers' lookahead stats.
        let states: f64 = (0..4)
            .map(|i| policy.l0(i).mean_states_explored())
            .sum::<f64>()
            / 4.0;
        println!(
            "{horizon:>3} | {:>14.2} | {:>11.1}% | {:>12.0} | {states:>14.0}",
            s.mean_response,
            s.violation_fraction * 100.0,
            s.total_energy,
        );
        rows.push(format!(
            "{horizon},{:.3},{:.4},{:.0},{states:.0}",
            s.mean_response, s.violation_fraction, s.total_energy
        ));
        search_cost.push((horizon, states));
    }

    println!();
    println!("expected shape: states/decision grows ~|U|^N; QoS plateaus by N = 3.");
    let path = write_csv(
        "ablation_horizon.csv",
        "horizon,mean_response_s,violation_fraction,energy,l0_states_per_decision",
        &rows,
    );
    println!("wrote {}", path.display());
    claims::enforce(
        "L0 states per decision grow at least 1.5× with each step of the horizon",
        claims::lookahead_cost_grows_with_horizon(&search_cost),
    );
}
