//! The paper's §5.2 scenario: sixteen heterogeneous computers in four
//! modules under a WC'98-like workload, managed by the full three-level
//! hierarchy (L2 split → L1 on/off+split → L0 frequency).
//!
//! Run with `cargo run --release -p llc-examples --bin cluster_scale`.

use llc_cluster::{ClusterPolicy, Family, Preset, RunSpec};

fn main() {
    // Full-fidelity offline learning: the coarse test grids are too crude
    // for good L2 splits. One map per machine profile and one tree per
    // module composition: about half a second before the run.
    let spec = RunSpec {
        buckets: 240, // 8 hours
        ..RunSpec::new(Family::Cluster, 7)
    };
    let scenario = spec.scenario_config();
    println!(
        "building hierarchy for {} computers in {} modules (offline learning, under a second) ...",
        scenario.num_computers(),
        scenario.num_modules()
    );
    let mut policy = spec.policy(Preset::Paper);

    println!("running {} two-minute buckets ...", spec.buckets);
    let log = spec.run(&mut policy);

    println!("\nhour | req/s | computers on (of 16) | module split γ");
    println!("{}", "-".repeat(72));
    let gammas = log.module_splits();
    for chunk in log.ticks.chunks(120) {
        let tick0 = chunk[0].tick;
        let time_h = chunk[0].time / 3600.0;
        let rate: f64 =
            chunk.iter().map(|t| t.arrivals as f64).sum::<f64>() / (chunk.len() as f64 * 30.0);
        let active: f64 = chunk
            .iter()
            .map(|t| t.active_flags.iter().filter(|&&a| a).count() as f64)
            .sum::<f64>()
            / chunk.len() as f64;
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
    let overhead = policy.metrics().level_overhead;
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
