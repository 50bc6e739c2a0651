//! The headline claim, as a test: on the same workload the hierarchical
//! LLC controller consumes substantially less energy than an
//! always-on/max-frequency cluster while keeping the mean response near
//! the target, and no requests are lost.

use llc_cluster::{
    AlwaysMaxPolicy, ClusterPolicy, ExperimentSummary, Family, Preset, RunSpec, ThresholdPolicy,
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

    let mut always = AlwaysMaxPolicy::for_scenario(&scenario);
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

    let mut threshold = ThresholdPolicy::for_scenario(&scenario);
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

/// The scenario-built baselines drive the 16-machine cluster run: every
/// request is accounted for, and `RunSpec::run` fails the run if the
/// plant supersedes, skips or refuses any directive they emit.
#[test]
fn baselines_built_for_the_cluster_run_it_cleanly() {
    let spec = RunSpec {
        buckets: 12,
        ..RunSpec::new(Family::Cluster, 2006)
    };
    let scenario = spec.scenario_config();
    let policies: [Box<dyn ClusterPolicy>; 2] = [
        Box::new(ThresholdPolicy::for_scenario(&scenario)),
        Box::new(AlwaysMaxPolicy::for_scenario(&scenario)),
    ];
    for mut policy in policies {
        let log = spec.run(policy.as_mut());
        let s = log.summary();
        let last = log.ticks.last().expect("ticks ran");
        let final_queue = last.queues.iter().sum::<usize>() as u64;
        assert_eq!(
            s.total_arrivals,
            s.total_completions + final_queue + s.total_dropped,
            "{}: requests must be conserved",
            s.policy
        );
        assert!(s.total_arrivals > 0, "{}: the run carried load", s.policy);
        assert!(!log.directives.is_empty(), "{}: it acted", s.policy);
        assert_eq!(log.metrics.dropped_directives, 0, "{}", s.policy);
    }
}
