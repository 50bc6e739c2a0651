//! The paper's §5.2 scenario: sixteen heterogeneous computers in four
//! modules under a WC'98-like workload, managed by the full three-level
//! hierarchy (L2 split → L1 on/off+split → L0 frequency).
//!
//! Run with `cargo run --release -p llc-examples --bin cluster_scale`.

use llc_cluster::{paper_cluster_16, Experiment, HierarchicalPolicy};
use llc_workload::{wc98_like_fig6, VirtualStore};

fn main() {
    // Full-fidelity offline learning: the coarse test grids are too crude
    // for good L2 splits. One map per machine profile and one tree per
    // module composition: about half a second before the run.
    let scenario = paper_cluster_16();
    println!(
        "building hierarchy for {} computers in {} modules (offline learning, under a second) ...",
        scenario.num_computers(),
        scenario.num_modules()
    );
    let mut policy = HierarchicalPolicy::build(&scenario);

    let trace = wc98_like_fig6(7).slice(0, 240); // 8 hours
    let store = VirtualStore::paper_default(7);
    println!("running {} two-minute buckets ...", trace.len());
    let log = Experiment::paper_default(7)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .expect("well-formed scenario");

    println!("\nhour | req/s | computers on (of 16) | module split γ");
    println!("{}", "-".repeat(72));
    let gammas = policy.gamma_module_history();
    for chunk in log.ticks.chunks(120) {
        let tick0 = chunk[0].tick;
        let time_h = chunk[0].time / 3600.0;
        let rate: f64 =
            chunk.iter().map(|t| t.arrivals as f64).sum::<f64>() / (chunk.len() as f64 * 30.0);
        let active: f64 = chunk.iter().map(|t| t.active as f64).sum::<f64>() / chunk.len() as f64;
        let gamma = gammas
            .iter()
            .rev()
            .find(|(t, _)| *t <= tick0)
            .map(|(_, g)| {
                g.iter()
                    .map(|x| format!("{x:.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        println!("{time_h:4.1} | {rate:5.0} | {active:20.1} | [{gamma}]");
    }

    let s = log.summary();
    let overhead = policy.overhead();
    println!("\nsummary:");
    println!(
        "  mean response:      {:.2} s (target 4 s)",
        s.mean_response
    );
    println!("  energy:             {:.0} power·s", s.total_energy);
    println!("  switch-ons:         {}", s.total_switch_ons);
    println!(
        "  decision overhead:  L2 {:?} + L1 {:?} + L0 {:?} per decision",
        overhead[2].mean(),
        overhead[1].mean(),
        overhead[0].mean()
    );
    println!("  hierarchy path:     {:?}", policy.path_overhead());
}
