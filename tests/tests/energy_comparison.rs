//! The headline claim, as a test: on the same workload the hierarchical
//! LLC controller consumes substantially less energy than an
//! always-on/max-frequency cluster while keeping the mean response near
//! the target, and no requests are lost.

use llc_cluster::{
    AlwaysMaxPolicy, ClusterPolicy, ExperimentSummary, Family, Preset, RunSpec, ThresholdConfig,
    ThresholdPolicy,
};

/// A light-to-moderate stretch of the diurnal day where machines can
/// actually be switched off.
fn spec(seed: u64) -> RunSpec {
    RunSpec {
        buckets: 120,
        coarse_learning: true,
        ..RunSpec::new(Family::Module, seed)
    }
}

fn run(spec: &RunSpec, policy: &mut dyn ClusterPolicy) -> ExperimentSummary {
    spec.run(policy).summary()
}

#[test]
fn llc_beats_always_max_on_energy_while_holding_qos() {
    let spec = spec(77);
    let scenario = spec.scenario_config();
    let llc_summary = run(&spec, &mut spec.policy(Preset::Paper));

    let layout_sizes: Vec<Vec<(f64, usize)>> = scenario
        .member_specs()
        .iter()
        .map(|module| module.iter().map(|m| (m.speed, m.phis.len())).collect())
        .collect();
    let mut always = AlwaysMaxPolicy::new(layout_sizes);
    let always_summary = run(&spec, &mut always);

    assert_eq!(llc_summary.total_dropped, 0, "LLC must not drop requests");
    assert!(
        llc_summary.mean_response < 4.0,
        "LLC mean response {:.2} must hold r* = 4 s",
        llc_summary.mean_response
    );
    assert!(
        llc_summary.total_energy < 0.75 * always_summary.total_energy,
        "LLC energy {:.0} should be well below always-max {:.0}",
        llc_summary.total_energy,
        always_summary.total_energy
    );
}

#[test]
fn llc_energy_does_not_exceed_threshold_heuristic() {
    let spec = spec(78);
    let scenario = spec.scenario_config();
    let llc_summary = run(&spec, &mut spec.policy(Preset::Paper));

    let layout: Vec<Vec<(f64, Vec<f64>)>> = scenario
        .member_specs()
        .iter()
        .map(|module| module.iter().map(|m| (m.speed, m.phis.clone())).collect())
        .collect();
    let mut threshold = ThresholdPolicy::new(ThresholdConfig::default(), layout);
    let threshold_summary = run(&spec, &mut threshold);

    // The proactive controller should do at least as well as the reactive
    // heuristic on energy (modest slack for run-to-run texture).
    assert!(
        llc_summary.total_energy <= threshold_summary.total_energy * 1.1,
        "LLC energy {:.0} should not exceed threshold heuristic {:.0} by >10%",
        llc_summary.total_energy,
        threshold_summary.total_energy
    );
}
