//! The in-hierarchy closed loop end to end: the event-driven
//! `HierarchicalPolicy`/`Experiment` stack self-corrects from its own
//! realized outcomes with zero harness code, the L2→L1 feed-forward
//! removes the re-split/boot-dead-time oscillation, and the drift
//! detector switches the learning rate.

use llc_cluster::{
    single_module, ClosedLoopMode, Directive, DirectiveKind, Experiment, FaultToleranceConfig,
    FrequencyProfile, GEntry, HierarchicalPolicy, L0Config, L0Controller, L1Config, L1Controller,
    LearnSpec, MemberSpec, PolicyBuilder, RetrainConfig, ScenarioConfig,
};
use llc_core::{LearnRate, OnlineConfig};
use llc_tests::Fnv;
use llc_workload::{
    drift_scenarios, CapacityProfile, DiurnalShape, FaultEvent, FaultKind, FaultPlan,
    SyntheticBuilder, Trace, VirtualStore,
};

/// The bench's closed-loop scenario: two machines pinned on (so the
/// tracking comparison is not dominated by boot dead-time transients).
fn closed_loop_scenario() -> ScenarioConfig {
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    sc
}

/// Service capacity of the whole cluster, `Σ speed / c_prior` (req/s).
fn cluster_capacity(sc: &ScenarioConfig) -> f64 {
    sc.member_specs()
        .iter()
        .flatten()
        .map(|m| m.speed / m.c_prior)
        .sum()
}

fn run_tracking(sc: &ScenarioConfig, closed: bool) -> (f64, u64, HierarchicalPolicy) {
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenario = &drift_scenarios(0xC105ED, 50, 120.0, 0.55 * capacity)[2]; // capacity step
    let builder = PolicyBuilder::new(sc.clone());
    let mut policy = if closed {
        builder.closed_loop(OnlineConfig::default())
    } else {
        builder.outcome_tracking()
    }
    .build();
    let exp = Experiment {
        drift: Some(scenario.capacity),
        ..Experiment::paper_default(0xBEEF)
    };
    let store = VirtualStore::paper_default(0xBEEF);
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &scenario.trace, &store)
        .expect("well-formed scenario");
    assert!(log.ticks.len() > 100);
    let mae = policy.tracking_error().expect("outcomes derived");
    let updates = policy.online_updates();
    (mae, updates, policy)
}

#[test]
fn closed_loop_beats_offline_with_zero_harness_code() {
    let sc = closed_loop_scenario();
    let (offline_mae, offline_updates, offline_policy) = run_tracking(&sc, false);
    let (closed_mae, closed_updates, closed_policy) = run_tracking(&sc, true);

    // The offline-only arm derives outcomes but never learns.
    assert_eq!(offline_policy.closed_loop_mode(), ClosedLoopMode::Observe);
    assert_eq!(offline_updates, 0, "Observe mode must not touch the maps");
    // The closed loop learns without a single learner call in this test.
    assert_eq!(closed_policy.closed_loop_mode(), ClosedLoopMode::Learn);
    assert!(closed_updates > 20, "only {closed_updates} updates applied");
    assert!(
        closed_mae < offline_mae,
        "closed-loop tracking MAE {closed_mae:.3} must beat offline-only {offline_mae:.3}"
    );
    // The capacity step is a global model break: the detector must both
    // fire and conclude the residuals are not local.
    assert!(closed_policy.l1(0).drift_detections() > 0);
    assert!(closed_policy.retrain_recommended());
}

/// A two-module cluster at marginal capacity under a square-wave load:
/// every step forces a re-split, and every re-split lands a boot dead
/// time later than the L1s can follow — the lag the re-split
/// oscillation feeds on. With the feed-forward the L1s provision for
/// the new share at the re-split tick itself, so the γ decisions must
/// wander strictly less than under the hysteresis-only baseline.
#[test]
fn feed_forward_damps_l2_resplit_oscillation() {
    fn gamma_variance(feed_forward: bool) -> (f64, usize, f64) {
        let mut sc = llc_cluster::paper_cluster_16().with_coarse_learning();
        sc.modules.truncate(2);
        sc.l2.feed_forward = feed_forward;
        let capacity = cluster_capacity(&sc);
        // Square wave between 35% and 75% of cluster capacity, 8 minutes
        // per phase: marginal at the crests once boot dead times are
        // counted, quiet enough in the troughs that machines shed.
        let counts: Vec<f64> = (0..64)
            .map(|k| {
                let r = if (k / 16) % 2 == 0 { 0.35 } else { 0.75 };
                r * capacity * 30.0
            })
            .collect();
        let trace = Trace::new(30.0, counts).expect("well-formed trace");
        let store = VirtualStore::paper_default(11);
        let mut policy = HierarchicalPolicy::build(&sc);
        let exp = Experiment::paper_default(23);
        let log = exp
            .run(sc.to_sim_config(), &mut policy, &trace, &store)
            .expect("well-formed scenario");
        let gammas: Vec<f64> = policy
            .gamma_module_history()
            .iter()
            .map(|(_, g)| g[0])
            .collect();
        assert!(gammas.len() > 8, "need L2 decisions, got {}", gammas.len());
        let mean = gammas.iter().sum::<f64>() / gammas.len() as f64;
        let var = gammas.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gammas.len() as f64;
        let moves = gammas
            .windows(2)
            .filter(|w| (w[1] - w[0]).abs() > 1e-9)
            .count();
        (var, moves, log.summary().mean_response)
    }

    let (var_base, moves_base, resp_base) = gamma_variance(false);
    let (var_ff, moves_ff, resp_ff) = gamma_variance(true);
    assert!(
        var_ff < var_base,
        "feed-forward must damp the split oscillation: \
         var {var_ff:.5} (ff) vs {var_base:.5} (hysteresis only), \
         moves {moves_ff} vs {moves_base}, \
         mean response {resp_ff:.2} vs {resp_base:.2}"
    );
}

/// The two-module capacity-ramp run behind the L2-leg tests: the
/// directive log and the policy that produced it.
fn run_two_module_closed_loop() -> (Vec<Directive>, HierarchicalPolicy) {
    let mut sc = llc_cluster::paper_cluster_16().with_coarse_learning();
    sc.modules.truncate(2);
    let capacity = cluster_capacity(&sc);
    let trace = Trace::new(30.0, vec![0.5 * capacity * 30.0; 48]).expect("well-formed trace");
    let store = VirtualStore::paper_default(31);
    let mut policy = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .build();
    let exp = Experiment {
        drift: Some(CapacityProfile::Ramp { from: 1.0, to: 0.7 }),
        ..Experiment::paper_default(31)
    };
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &trace, &store)
        .expect("well-formed scenario");
    (log.directives, policy)
}

/// In a multi-module cluster the closed loop also feeds the L2 residual
/// layer: realized per-module costs are recorded and absorbed with no
/// harness code.
#[test]
fn closed_loop_feeds_l2_residual_layer() {
    let (_, policy) = run_two_module_closed_loop();
    let l2 = policy.l2().expect("two modules build an L2");
    assert!(l2.online_enabled());
    assert!(
        l2.online_updates() > 0,
        "the L2 leg must absorb realized module outcomes"
    );
    assert!(policy.online_updates() > l2.online_updates());
    assert!(policy.tracking_samples() > 0);
}

/// FNV-1a over every field of every directive, floats by bit pattern.
fn directive_hash(directives: &[Directive]) -> u64 {
    let mut h = Fnv::default();
    directives.iter().for_each(|d| h.directive(d));
    h.0
}

/// The same run pinned bit for bit — every directive, every learner
/// counter at both levels and the prequential tracking error. The
/// single-module goldens never reach the L2 online leg; this one does.
#[test]
fn two_module_closed_loop_is_pinned_bit_for_bit() {
    let (directives, policy) = run_two_module_closed_loop();
    let l2 = policy.l2().expect("two modules build an L2");
    let pinned = (
        directives.len(),
        directive_hash(&directives),
        policy.online_updates(),
        l2.online_updates(),
        (0..2)
            .map(|m| policy.l1(m).member_drift_detections())
            .collect::<Vec<_>>(),
        l2.module_drift_detections(),
        policy.tracking_samples(),
        policy.tracking_error().map(f64::to_bits),
    );
    assert_eq!(
        pinned,
        (
            208,
            6_361_314_828_141_802_730,
            92,
            12,
            vec![vec![1; 4]; 2],
            vec![1, 1],
            80,
            Some(4_647_281_458_251_518_725)
        ),
        "what the commit before the one-substrate PR printed for this run \
         over hash-backed maps: every map now grows as the hash table did"
    );
}

/// The L1 phase under everything the fault-tolerant stack can throw at
/// it, pinned bit for bit: two modules under closed loop + watchdog +
/// retrain + drift-aware L0 on a degrading plant, with a fault plan that
/// kills all of module 1 (`live_count == 0`), blacks out three of module
/// 0's four members (quorum-loss safe mode) and crashes one member alone
/// (a decide over three survivors). Every other fault-tolerance suite is
/// single-module. The worker count governs offline learning, the retrain
/// rebuild and the plant sweep; none of it may move a directive.
#[test]
fn two_module_fault_run_is_pinned_bit_for_bit() {
    fn run() -> (usize, u64, usize, u64, u64, u64, usize, Option<u64>) {
        let mut sc = llc_cluster::paper_cluster_16().with_coarse_learning();
        sc.modules.truncate(2);
        let capacity = cluster_capacity(&sc);
        let trace = Trace::new(30.0, vec![0.45 * capacity * 30.0; 160]).expect("well-formed trace");
        let store = VirtualStore::paper_default(41);
        let mut policy = PolicyBuilder::new(sc.clone())
            .closed_loop(OnlineConfig::default())
            .fault_tolerance(FaultToleranceConfig::default())
            .retrain(RetrainConfig::default())
            .drift_aware_l0()
            .build();
        let event = |tick, computer, kind| FaultEvent {
            tick,
            computer,
            kind,
        };
        let mut events = Vec::new();
        for c in 4..8 {
            events.push(event(24, c, FaultKind::Crash { requeue: false }));
            events.push(event(48, c, FaultKind::Restart));
        }
        for c in 1..4 {
            events.push(event(80, c, FaultKind::BlackoutStart));
            events.push(event(96, c, FaultKind::BlackoutEnd));
        }
        events.push(event(120, 2, FaultKind::Crash { requeue: true }));
        events.push(event(140, 2, FaultKind::Restart));
        let exp = Experiment {
            drift: Some(CapacityProfile::Ramp { from: 1.0, to: 0.7 }),
            faults: Some(FaultPlan::new(events)),
            ..Experiment::paper_default(41)
        };
        let log = exp
            .run(sc.to_sim_config(), &mut policy, &trace, &store)
            .expect("well-formed scenario");
        let safe_mode_directives = log
            .directives
            .iter()
            .filter(|d| matches!(d.kind, DirectiveKind::SafeMode { .. }))
            .count();
        (
            log.directives.len(),
            directive_hash(&log.directives),
            safe_mode_directives,
            policy.member_deaths(),
            policy.member_recoveries(),
            policy.safe_mode_periods(),
            policy.retrain_rebuilds(),
            policy.tracking_error().map(f64::to_bits),
        )
    }
    for threads in [1, 4] {
        assert_eq!(
            llc_par::with_threads(threads, run),
            (
                488,
                4_871_585_484_290_491_830,
                4,
                8,
                8,
                2,
                1,
                Some(4_657_992_811_526_462_306)
            ),
            "{threads} worker(s): recorded on the commit before the L1 fan-out was collapsed"
        );
    }
}

/// The drift detector switches the online learner from the steady to the
/// fast rate when a capacity step makes the residuals jump.
#[test]
fn detector_switches_rate_on_a_capacity_step() {
    let spec = MemberSpec::paper_default(FrequencyProfile::TallEight);
    let l0 = L0Config::paper_default();
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    let map = llc_cluster::AbstractionMap::learn(
        &l0,
        &spec.phis,
        c_range,
        lambda_max,
        q_max,
        LearnSpec::coarse(),
    );
    let mut l1 = L1Controller::new(L1Config::paper_default(), vec![spec.clone()], vec![map]);
    l1.enable_online(OnlineConfig::default());
    assert_eq!(l1.member_learn_rate(0), LearnRate::Steady);

    let c = spec.c_prior;
    let lambda = 0.5 / c;
    let mut q = 0.0f64;
    // Nominal phase: outcomes match the map, detector stays steady.
    for _ in 0..12 {
        let (cost, power, final_q) = L0Controller::simulate_model(&l0, &spec.phis, q, lambda, c, 4);
        let realized = GEntry {
            cost,
            power,
            final_q,
        };
        l1.absorb_outcomes(&[(0, lambda, q, realized)]);
        q = final_q;
    }
    assert_eq!(l1.drift_detections(), 0, "matching outcomes must not fire");
    assert_eq!(l1.member_learn_rate(0), LearnRate::Steady);

    // The machine fails to half capacity: the standing load no
    // longer fits, residuals jump, the detector fires and the
    // learner goes fast.
    for _ in 0..12 {
        let (cost, power, final_q) =
            L0Controller::simulate_model(&l0, &spec.phis, q, lambda, c / 0.5, 4);
        let realized = GEntry {
            cost,
            power,
            final_q,
        };
        l1.absorb_outcomes(&[(0, lambda, q, realized)]);
        q = final_q;
    }
    assert!(
        l1.drift_detections() > 0,
        "the capacity step must fire the detector"
    );
    assert!(
        l1.fast_updates() > 0,
        "post-detection updates must run at the fast rate"
    );
}

/// `CapacityProfile`-driven drift inside `Experiment::run` reaches the
/// plant: the same workload completes less quickly on a degraded plant.
#[test]
fn experiment_drift_hook_degrades_the_plant() {
    let sc = single_module(2).with_coarse_learning();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let trace =
        SyntheticBuilder::new(DiurnalShape::new(0.5 * capacity * 30.0), 40, 30.0).build(0x77);
    let store = VirtualStore::paper_default(7);
    let mut summaries = Vec::new();
    for drift in [None, Some(CapacityProfile::Ramp { from: 1.0, to: 0.5 })] {
        let mut policy = HierarchicalPolicy::build(&sc);
        let exp = Experiment {
            drift,
            ..Experiment::paper_default(3)
        };
        let log = exp
            .run(sc.to_sim_config(), &mut policy, &trace, &store)
            .unwrap();
        summaries.push(log.summary());
    }
    assert!(
        summaries[1].mean_response > summaries[0].mean_response,
        "capacity loss must show in responses: {:.3} vs {:.3}",
        summaries[1].mean_response,
        summaries[0].mean_response
    );
}
