//! Self-healing end to end: the drift-aware L0 keeps the frequency
//! controllers out of the deep-degradation limit cycle, and the
//! `RetrainManager` consumes the latched `retrain_recommended()` signal
//! with an in-run background rebuild and hot-swap.

use llc_cluster::{
    single_module, Experiment, ExperimentLog, HierarchicalPolicy, PolicyBuilder, RetrainConfig,
    ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{deep_degradation_scenario, VirtualStore};

fn base_scenario() -> ScenarioConfig {
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    sc
}

fn run(self_healing: bool) -> (HierarchicalPolicy, ExperimentLog) {
    let sc = base_scenario();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenario = deep_degradation_scenario(0xC105ED, 90, 120.0, capacity);
    let mut builder = PolicyBuilder::new(sc.clone()).closed_loop(OnlineConfig::default());
    if self_healing {
        builder = builder.drift_aware_l0().retrain(RetrainConfig::default());
    }
    let mut policy = builder.build();
    let exp = Experiment {
        drift: Some(scenario.capacity),
        ..Experiment::paper_default(0xBEEF)
    };
    let store = VirtualStore::paper_default(5);
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &scenario.trace, &store)
        .expect("well-formed scenario");
    (policy, log)
}

/// The acceptance criterion of the drift-aware refactor: on the
/// deep-degradation scenario the ŝ-corrected L0 plus the retrain
/// hot-swap strictly improve tracking MAE over the PR 3 closed loop,
/// and the frequency decisions stop limit-cycling (strictly fewer
/// switches, not just "no regression").
#[test]
fn self_healing_beats_the_drift_blind_closed_loop_on_deep_degradation() {
    let (blind_policy, blind_log) = run(false);
    let (heal_policy, heal_log) = run(true);

    let blind_mae = blind_policy.tracking_error().expect("outcomes derived");
    let heal_mae = heal_policy.tracking_error().expect("outcomes derived");
    assert!(
        heal_mae < blind_mae,
        "self-healing MAE {heal_mae:.3} must beat drift-blind {blind_mae:.3}"
    );

    let blind_switches = blind_log.frequency_switches();
    let heal_switches = heal_log.frequency_switches();
    assert!(
        heal_switches < blind_switches,
        "drift-aware L0 must stop the limit cycle: {heal_switches} vs {blind_switches} switches"
    );

    // The scale estimators converged onto the injected 0.5 step.
    for i in 0..heal_policy.num_computers() {
        let s = heal_policy.l0(i).scale_estimate();
        assert!(
            (0.35..=0.7).contains(&s),
            "computer {i}: ŝ = {s} should track the 0.5-capacity plant"
        );
    }
    // The drift-blind arm's estimators are disabled and stay nominal.
    for i in 0..blind_policy.num_computers() {
        assert_eq!(blind_policy.l0(i).scale_estimate(), 1.0);
    }
}

/// The retrain lifecycle in-run: detect → latch → background rebuild →
/// hot-swap one L1 period later → detectors reset, with the cooldown
/// spacing consecutive rebuilds.
#[test]
fn retrain_manager_rebuilds_and_hot_swaps_in_run() {
    let (policy, log) = run(true);
    let history = policy.retrain_history();
    assert!(
        !history.is_empty(),
        "the capacity step must trigger at least one rebuild"
    );
    assert_eq!(policy.retrain_rebuilds(), history.len());
    assert!(history.len() <= RetrainConfig::default().max_rebuilds);

    let l1_every = 4; // T_L1 / T_L0 in the paper scenario
    for r in history {
        // The swap lands exactly one L1 period after the trigger: the
        // rebuild runs in the background between the two ticks, so no
        // decision waits on it longer than that.
        assert_eq!(
            r.swap_tick - r.trigger_tick,
            l1_every,
            "hot-swap must land one L1 period after the trigger: {r:?}"
        );
        assert_eq!(r.modules, vec![0]);
    }
    // Cooldown: consecutive triggers at least 8 L1 periods apart.
    for pair in history.windows(2) {
        assert!(
            pair[1].trigger_tick - pair[0].trigger_tick
                >= RetrainConfig::default().cooldown_periods * l1_every,
            "cooldown must space rebuilds: {pair:?}"
        );
    }
    // Hot-swapping must not stall the control loop: every decision in
    // the run — including the swap ticks, which join the background
    // thread — stays far under one L0 period of wall clock.
    let max_decision = log
        .ticks
        .iter()
        .map(|t| t.decision_time)
        .max()
        .expect("non-empty run");
    assert!(
        max_decision.as_secs_f64() < 5.0,
        "a decision took {max_decision:?} — the rebuild must not block the loop"
    );
    // The swap released the latch and re-armed the detectors; whether it
    // re-latched later depends on the remaining drift, but the *budget*
    // bounds the rebuilds either way.
    assert!(policy.tracking_samples() > 100);
}
