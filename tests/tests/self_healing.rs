//! Self-healing end to end: the drift-aware L0 keeps the frequency
//! controllers out of the deep-degradation limit cycle, and the online
//! learner absorbs what is left of the drift into the maps.

use llc_cluster::{
    single_module, Experiment, ExperimentLog, HierarchicalPolicy, PolicyBuilder, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{deep_degradation_scenario, VirtualStore};

fn base_scenario() -> ScenarioConfig {
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    sc
}

/// One closed-loop run of the deep-degradation scenario drawn from
/// `scenario_seed`, on a plant seeded with `plant_seed`.
fn run(
    drift_aware: bool,
    scenario_seed: u64,
    plant_seed: u64,
) -> (HierarchicalPolicy, ExperimentLog) {
    let sc = base_scenario();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenario = deep_degradation_scenario(scenario_seed, 90, 120.0, capacity);
    let mut builder = PolicyBuilder::new(sc.clone()).closed_loop(OnlineConfig::default());
    if drift_aware {
        builder = builder.drift_aware_l0();
    }
    let mut policy = builder.build();
    let exp = Experiment {
        drift: Some(scenario.capacity),
        ..Experiment::paper_default(plant_seed)
    };
    let store = VirtualStore::paper_default(5);
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &scenario.trace, &store)
        .expect("well-formed scenario");
    (policy, log)
}

/// The acceptance criterion of the drift-aware L0: on the
/// deep-degradation scenario the ŝ-corrected L0 strictly improves
/// tracking MAE over the drift-blind closed loop, and the frequency
/// decisions stop limit-cycling (strictly fewer switches, not just "no
/// regression"). Judged on four scenario × plant seeds — the first pair
/// is `bench_closed_loop`'s — so one lucky draw cannot carry the claim.
#[test]
fn self_healing_beats_the_drift_blind_closed_loop_on_deep_degradation() {
    for k in 0..4u64 {
        let (scenario_seed, plant_seed) = (0xC105ED + 17 * k, 0xBEEF + 17 * k);
        let seeds = format!("seeds {scenario_seed:#x}/{plant_seed:#x}");
        let (blind_policy, blind_log) = run(false, scenario_seed, plant_seed);
        let (heal_policy, heal_log) = run(true, scenario_seed, plant_seed);

        let blind_mae = blind_policy.tracking_error().expect("outcomes derived");
        let heal_mae = heal_policy.tracking_error().expect("outcomes derived");
        assert!(
            heal_mae < blind_mae,
            "{seeds}: self-healing MAE {heal_mae:.3} must beat drift-blind {blind_mae:.3}"
        );

        let blind_switches = blind_log.frequency_switches();
        let heal_switches = heal_log.frequency_switches();
        assert!(
            heal_switches < blind_switches,
            "{seeds}: drift-aware L0 must stop the limit cycle: \
             {heal_switches} vs {blind_switches} switches"
        );

        // The scale estimators converged onto the injected 0.5 step.
        for i in 0..heal_policy.num_computers() {
            let s = heal_policy.l0(i).scale_estimate();
            assert!(
                (0.35..=0.7).contains(&s),
                "{seeds}, computer {i}: ŝ = {s} should track the 0.5-capacity plant"
            );
        }
        // The drift-blind arm's estimators are disabled and stay nominal.
        for i in 0..blind_policy.num_computers() {
            assert_eq!(blind_policy.l0(i).scale_estimate(), 1.0);
        }
    }
}
