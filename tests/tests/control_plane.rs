//! The control-plane API end to end: the `Experiment`-driven lockstep
//! loop and a hand-rolled ingest/emit loop over the same `SimAdapter`
//! must produce bit-identical directive sequences and tracking MAEs
//! (the golden equivalence of the API split), and the one metrics
//! surface must report every self-healing subsystem's counters during a
//! faulted, drifting run.

use llc_cluster::{
    single_module, ClusterPolicy, ControlPlane, Directive, DirectiveEmit, DirectiveKind,
    Experiment, ExperimentLog, FaultToleranceConfig, HierarchicalPolicy, Level, ObservationIngest,
    PolicyBuilder, RetrainConfig, ScenarioConfig, SimAdapter,
};
use llc_core::OnlineConfig;
use llc_workload::{
    derive_seed, drift_scenarios, fault_scenarios, spread_arrivals, CapacityProfile, FaultEvent,
    FaultKind, FaultPlan, RequestSampler, Trace, VirtualStore,
};
use rand::SeedableRng;

/// Drive `policy` over the ingest/emit API by hand — no `Experiment` —
/// against the same plant, workload and injectors `Experiment::run`
/// uses, returning every directive drained.
fn run_by_hand(
    exp: &Experiment,
    sc: &ScenarioConfig,
    policy: &mut HierarchicalPolicy,
    trace: &Trace,
    store: &VirtualStore,
) -> Vec<Directive> {
    let ticks_trace = trace.rebucket(exp.t_l0).expect("well-formed trace");
    let total_ticks = ticks_trace.len();
    let mut adapter = SimAdapter::new(sc.to_sim_config(), exp, total_ticks);
    if exp.prewarmed {
        adapter.prewarm().expect("well-formed cluster");
    }
    let mut sampler = RequestSampler::paper_default(store, exp.seed);
    let mut spread_rng = rand::rngs::StdRng::seed_from_u64(derive_seed(exp.seed, 0xA121));
    let mut plane = ControlPlane::new(&mut *policy, adapter.members().to_vec(), exp.t_l0);
    let mut all = Vec::new();
    for tick in 0..total_ticks as u64 {
        for observation in adapter.observe(tick) {
            plane.ingest(observation).expect("fresh in-order stream");
        }
        let _ = plane.step();
        let directives = plane.drain_directives();
        adapter
            .actuate(&directives)
            .expect("well-formed directives");
        all.extend(directives);
        let t = tick as f64 * exp.t_l0;
        let count = ticks_trace.count(tick as usize).round().max(0.0) as usize;
        for at in spread_arrivals(&mut spread_rng, t, exp.t_l0, count) {
            let (_, demand) = sampler.next_request();
            adapter.schedule_arrival(at, demand).expect("in-window");
        }
        adapter.advance_window(tick).expect("well-formed run");
    }
    all
}

fn assert_equivalent(
    log: &ExperimentLog,
    hand: &[Directive],
    a: &HierarchicalPolicy,
    b: &HierarchicalPolicy,
) {
    assert_eq!(
        log.directives.len(),
        hand.len(),
        "directive counts must match"
    );
    assert_eq!(
        log.directives, hand,
        "directive sequences must be bit-identical"
    );
    assert_eq!(
        a.tracking_error(),
        b.tracking_error(),
        "tracking MAEs must be bit-identical"
    );
    assert_eq!(a.tracking_samples(), b.tracking_samples());
    assert_eq!(a.online_updates(), b.online_updates());
}

/// Golden equivalence, closed-loop bench family: the capacity-step
/// drift scenario under the in-hierarchy closed loop.
#[test]
fn experiment_and_hand_rolled_loop_agree_closed_loop() {
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenario = &drift_scenarios(0xC105ED, 40, 120.0, 0.55 * capacity)[2];
    let exp = Experiment {
        drift: Some(scenario.capacity),
        ..Experiment::paper_default(0xBEEF)
    };
    let store = VirtualStore::paper_default(0xBEEF);

    let mut via_exp = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .build();
    let log = exp
        .run(sc.to_sim_config(), &mut via_exp, &scenario.trace, &store)
        .expect("well-formed scenario");

    let mut by_hand = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .build();
    let hand = run_by_hand(&exp, &sc, &mut by_hand, &scenario.trace, &store);

    assert_equivalent(&log, &hand, &via_exp, &by_hand);
    assert!(!log.directives.is_empty());
}

/// Golden equivalence, faults bench family: the crash-restart scenario
/// under the watchdog'd closed loop.
#[test]
fn experiment_and_hand_rolled_loop_agree_faults() {
    let sc = single_module(4).with_coarse_learning();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let fs = fault_scenarios(0xFA11, 60, 120.0, capacity, 4).swap_remove(0);
    let exp = Experiment {
        faults: Some(fs.plan.clone()),
        ..Experiment::paper_default(5)
    };
    let store = VirtualStore::paper_default(5);

    let mut via_exp = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .build();
    let log = exp
        .run(sc.to_sim_config(), &mut via_exp, &fs.trace, &store)
        .expect("well-formed scenario");

    let mut by_hand = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .build();
    let hand = run_by_hand(&exp, &sc, &mut by_hand, &fs.trace, &store);

    assert_equivalent(&log, &hand, &via_exp, &by_hand);
    assert_eq!(via_exp.member_deaths(), by_hand.member_deaths());
    assert_eq!(via_exp.safe_mode_periods(), by_hand.safe_mode_periods());
}

/// The one metrics surface: during a faulted, drifting run of the full
/// self-healing stack, `MetricsSnapshot` must report drift detections,
/// rebuilds, member deaths/recoveries and safe-mode periods — without
/// reaching into any subsystem struct.
#[test]
fn metrics_snapshot_reports_every_subsystem() {
    let sc = single_module(4).with_coarse_learning();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    // The control_plane example's schedule: crash-restart plus a 3-of-4
    // blackout (quorum loss → safe mode) plus a silent capacity step
    // (drift detections → retrain → rebuilds).
    let fs = fault_scenarios(0xFA11, 90, 120.0, capacity, 4).swap_remove(0);
    let mut events = fs.plan.events().to_vec();
    for computer in 1..4 {
        events.push(FaultEvent {
            tick: 240,
            computer,
            kind: FaultKind::BlackoutStart,
        });
        events.push(FaultEvent {
            tick: 256,
            computer,
            kind: FaultKind::BlackoutEnd,
        });
    }
    let exp = Experiment {
        drift: Some(CapacityProfile::Step {
            at: 0.55,
            before: 1.0,
            after: 0.55,
        }),
        faults: Some(FaultPlan::new(events)),
        ..Experiment::paper_default(0xBEEF)
    };
    let store = VirtualStore::paper_default(5);
    let mut policy = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .retrain(RetrainConfig::default())
        .drift_aware_l0()
        .build();
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &fs.trace, &store)
        .expect("well-formed scenario");

    let m = &log.metrics;
    assert_eq!(m.ticks_decided, log.ticks.len() as u64);
    assert_eq!(
        m.observations_ingested, m.ticks_decided,
        "one module, one obs per tick"
    );
    assert_eq!(m.stale_observations, 0);
    assert_eq!(
        m.dark_filled_members, 0,
        "the adapter reports dark members in-stream"
    );
    assert_eq!(m.directives_emitted as usize, log.directives.len());
    assert_eq!(m.decide.decisions, m.ticks_decided);
    assert!(m.decide.max >= m.decide.mean());

    // Every self-healing subsystem shows up through the one surface.
    assert!(
        m.drift_detections() > 0,
        "capacity step must fire detectors"
    );
    assert!(m.policy.retrain_triggers >= m.rebuilds());
    assert!(m.rebuilds() > 0, "retrain consumer must hot-swap in-run");
    assert!(m.member_deaths() > 0, "crash + blackout must kill members");
    assert!(
        m.member_recoveries() > 0,
        "restart + blackout end must rejoin"
    );
    assert!(
        m.safe_mode_periods() > 0,
        "3-of-4 blackout must break quorum"
    );
    assert!(m.policy.online_updates > 0);
    assert!(m.policy.tracking_samples > 0);
    assert_eq!(m.policy.members_dead, vec![false; 4], "everyone rejoined");
    assert_eq!(m.policy.safe_mode_active, vec![false], "safe mode cleared");

    // The informational SafeMode directives bracket the quorum loss.
    let safe: Vec<&Directive> = log
        .directives
        .iter()
        .filter(|d| matches!(d.kind, DirectiveKind::SafeMode { .. }))
        .collect();
    assert!(safe.len() >= 2, "entry and exit transitions");
    assert!(safe.iter().all(|d| d.level == Level::L1));

    // Directive stamps are consistent with the policy's cadence.
    let cadence = policy.cadence();
    for d in &log.directives {
        assert_eq!(d.epoch, cadence.epoch(d.level, d.tick), "epoch stamp");
        match d.level {
            Level::L1 => assert!(cadence.is_l1_tick(d.tick)),
            Level::L2 => assert!(cadence.is_l2_tick(d.tick)),
            Level::L0 => {}
        }
    }
}
