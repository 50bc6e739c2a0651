//! The in-hierarchy closed loop end to end: the event-driven
//! `HierarchicalPolicy`/`Experiment` stack self-corrects from its own
//! realized outcomes with zero harness code, the L2→L1 feed-forward
//! removes the re-split/boot-dead-time oscillation, and the drift
//! detector switches the learning rate.

use llc_cluster::{
    single_module, ClusterPolicy, Experiment, Family, FrequencyProfile, GEntry, HierarchicalPolicy,
    L0Config, L0Controller, L1Config, L1Controller, LearnSpec, MemberSpec, Preset, RunSpec,
    ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_tests::matrix::{self, Drive};
use llc_workload::{CapacityProfile, DiurnalShape, SyntheticBuilder, Trace, VirtualStore};

/// Service capacity of the whole cluster, `Σ speed / c_prior` (req/s).
fn cluster_capacity(sc: &ScenarioConfig) -> f64 {
    sc.member_specs()
        .iter()
        .flatten()
        .map(|m| m.speed / m.c_prior)
        .sum()
}

/// The bench's capacity-step run (two machines pinned on, so the
/// tracking comparison is not dominated by boot dead-time transients).
fn run_tracking(preset: Preset) -> (f64, u64, HierarchicalPolicy) {
    let spec = RunSpec {
        buckets: 50,
        ..RunSpec::defaults(Family::ClosedLoop(2))
    };
    let mut policy = spec.policy(preset);
    let log = spec.run(&mut policy);
    assert!(log.ticks.len() > 100);
    let mae = policy.metrics().tracking_error.expect("outcomes derived");
    let updates = policy.metrics().online_updates;
    (mae, updates, policy)
}

#[test]
fn closed_loop_beats_offline_with_zero_harness_code() {
    let (offline_mae, offline_updates, _) = run_tracking(Preset::Paper);
    let (closed_mae, closed_updates, closed_policy) = run_tracking(Preset::ClosedLoop);

    // The offline-only arm derives outcomes but never learns.
    assert_eq!(
        offline_updates, 0,
        "the paper's stack must not touch the maps"
    );
    // The closed loop learns without a single learner call in this test.
    assert!(closed_updates > 20, "only {closed_updates} updates applied");
    assert!(
        closed_mae < offline_mae,
        "closed-loop tracking MAE {closed_mae:.3} must beat offline-only {offline_mae:.3}"
    );
    // The capacity step is a global model break: the detector must fire.
    assert!(closed_policy.l1(0).drift_detections() > 0);
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
        let gammas: Vec<f64> = log.module_splits().iter().map(|(_, g)| g[0]).collect();
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

/// The drift detector switches the online learner from the steady to the
/// fast rate when a capacity step makes the residuals jump: a write moves
/// the map at its point by `LEARNING_RATE` of the residual until the
/// detector fires, and by `FAST_LEARNING_RATE` after.
#[test]
fn detector_switches_rate_on_a_capacity_step() {
    let spec = MemberSpec::paper_default(FrequencyProfile::TallEight);
    let l0 = L0Config::paper_default();
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    let map = llc_cluster::AbstractionMap::learn(
        &l0,
        4,
        &spec.phis,
        c_range,
        lambda_max,
        q_max,
        LearnSpec::coarse(),
    );
    let steps = map.steps_per_period();
    let mut l1 = L1Controller::new(L1Config::paper_default(), vec![spec.clone()], vec![map]);
    l1.enable_online();

    let c = spec.c_prior;
    let lambda = 0.5 / c;
    // One period on a machine whose true processing time is `c_true`,
    // written at the map's key `(λ, c, q)`: the queue it ends on and the
    // share of the residual the written point moved by.
    let write = |l1: &mut L1Controller, q: f64, c_true: f64| {
        let (cost, power, final_q) =
            L0Controller::simulate_model(&l0, &spec.phis, q, lambda, c_true, steps);
        let before = l1.map(0).query(lambda, c, q).cost;
        let realized = GEntry {
            cost,
            power,
            final_q,
        };
        l1.absorb_outcomes(&[(0, lambda, q, realized)]);
        let after = l1.map(0).query(lambda, c, q).cost;
        (final_q, (after - before) / (cost - before))
    };
    let moved_by = |rate: f64, expected: f64| (rate - expected).abs() < 1e-9;
    let mut q = 0.0f64;
    // Nominal phase: outcomes match the map, detector stays steady.
    for k in 0..12 {
        let (final_q, rate) = write(&mut l1, q, c);
        assert!(
            moved_by(rate, OnlineConfig::LEARNING_RATE),
            "steady write {k} moved {rate}"
        );
        q = final_q;
    }
    assert_eq!(l1.drift_detections(), 0, "matching outcomes must not fire");

    // The machine fails to half capacity: the standing load no
    // longer fits, residuals jump, the detector fires and the
    // learner goes fast.
    for k in 0..12 {
        let (final_q, rate) = write(&mut l1, q, c / 0.5);
        let expected = if l1.drift_detections() > 0 {
            OnlineConfig::FAST_LEARNING_RATE
        } else {
            OnlineConfig::LEARNING_RATE
        };
        assert!(moved_by(rate, expected), "drifted write {k} moved {rate}");
        q = final_q;
    }
    assert!(
        l1.drift_detections() > 0,
        "the capacity step must fire the detector"
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

/// Two of the paper's modules on a 1.0 → 0.7 capacity ramp under the
/// closed loop, pinned bit for bit as the matrix's row `closed2mod/31`:
/// every directive, every L1 learner counter and the prequential
/// tracking error. The single-module goldens never run an L2 beside
/// learning L1s; this one does.
#[test]
fn two_module_closed_loop_is_pinned_bit_for_bit() {
    matrix::assert_matches(&[("closed2mod/31", &[])]);
}

/// The L1 phase under everything the fault-tolerant stack can throw at
/// it, pinned bit for bit as the matrix's row `faults2mod/41`: two
/// modules under closed loop + watchdog + drift-aware L0 on a degrading
/// plant, with a fault plan that kills all of module 1 (`live_count ==
/// 0`), blacks out three of module 0's four members (quorum-loss safe
/// mode) and crashes one member alone (a decide over three survivors).
/// Every other fault-tolerance suite is single-module. The worker count
/// governs offline learning and the plant sweep; neither may move a
/// directive, which the `Workers4` arm holds.
#[test]
fn two_module_fault_run_is_pinned_bit_for_bit() {
    matrix::assert_matches(&[("faults2mod/41", &[Drive::Workers4])]);
}
