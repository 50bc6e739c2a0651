//! Compare the hierarchical LLC controller against the reactive
//! threshold heuristic and an always-on/max-frequency cluster on the same
//! workload — the paper's core argument for lookahead control.
//!
//! Run with `cargo run --release -p llc-examples --bin baseline_comparison`.

use llc_cluster::{AlwaysMaxPolicy, ClusterPolicy, Family, Preset, RunSpec, ThresholdPolicy};

fn main() {
    let spec = RunSpec {
        buckets: 400,
        coarse_learning: true,
        ..RunSpec::new(Family::Module, 99)
    };
    let scenario = spec.scenario_config();

    let mut policies: Vec<Box<dyn ClusterPolicy>> = vec![
        Box::new(spec.policy(Preset::Paper)),
        Box::new(ThresholdPolicy::for_scenario(&scenario)),
        Box::new(AlwaysMaxPolicy::for_scenario(&scenario)),
    ];

    println!(
        "{:<22} | {:>13} | {:>11} | {:>12} | {:>11}",
        "policy", "mean resp (s)", "violations", "energy", "switch-ons"
    );
    println!("{}", "-".repeat(80));
    let mut energies = Vec::new();
    for policy in policies.iter_mut() {
        let log = spec.run(policy.as_mut());
        let s = log.summary();
        println!(
            "{:<22} | {:>13.2} | {:>10.1}% | {:>12.0} | {:>11}",
            s.policy,
            s.mean_response,
            s.violation_fraction * 100.0,
            s.total_energy,
            s.total_switch_ons
        );
        energies.push((s.policy.clone(), s.total_energy));
    }

    let llc = energies[0].1;
    let always = energies[2].1;
    println!(
        "\nLLC consumed {:.0}% of the always-max energy while holding the \
         response-time goal —\nthe paper's core trade-off.",
        100.0 * llc / always
    );
}
