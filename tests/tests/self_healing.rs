//! Self-healing end to end: the drift-aware L0 keeps the frequency
//! controllers out of the deep-degradation limit cycle, and the online
//! learner absorbs what is left of the drift into the maps.

use llc_cluster::{
    single_module, ClusterPolicy, Experiment, ExperimentLog, Family, HierarchicalPolicy,
    PolicyBuilder, Preset, RunSpec, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{deep_degradation_scenario, VirtualStore};

/// The `paper` bin's `closed_loop` row length at default scale, in L1
/// periods.
const BENCH_BUCKETS: usize = 150;

fn base_scenario() -> ScenarioConfig {
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    sc
}

/// One closed-loop run of deep degradation for seed pair `pair`. Pair 0
/// is the `closed_loop` row's own run, `RunSpec::defaults(ClosedLoop(3))`
/// at the row's default length; pair `k > 0` draws the scenario from seed
/// `0xC105ED + 17k` and seeds the plant with `0xBEEF + 17k`, over 90
/// buckets with request bodies from store seed 5.
fn run(drift_aware: bool, pair: u64) -> (HierarchicalPolicy, ExperimentLog) {
    if pair == 0 {
        let spec = RunSpec {
            buckets: BENCH_BUCKETS,
            ..RunSpec::defaults(Family::ClosedLoop(3))
        };
        let preset = if drift_aware {
            Preset::SelfHealing
        } else {
            Preset::ClosedLoop
        };
        let mut policy = spec.policy(preset);
        let log = spec.run(&mut policy);
        return (policy, log);
    }
    let (scenario_seed, plant_seed) = (0xC105ED + 17 * pair, 0xBEEF + 17 * pair);
    let sc = base_scenario();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenario = deep_degradation_scenario(scenario_seed, 90, 120.0, capacity);
    let mut builder = PolicyBuilder::new(sc.clone()).closed_loop(OnlineConfig);
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
/// regression"). Judged on four scenario × plant seed pairs — the first
/// is the `closed_loop` row's run — so one lucky draw cannot carry the
/// claim.
#[test]
fn self_healing_beats_the_drift_blind_closed_loop_on_deep_degradation() {
    for k in 0..4u64 {
        let seeds = format!("seed pair {k}");
        let (blind_policy, blind_log) = run(false, k);
        let (heal_policy, heal_log) = run(true, k);

        let blind_mae = blind_policy
            .metrics()
            .tracking_error
            .expect("outcomes derived");
        let heal_mae = heal_policy
            .metrics()
            .tracking_error
            .expect("outcomes derived");
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
