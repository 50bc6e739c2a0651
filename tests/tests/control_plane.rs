//! The control-plane API end to end: the `Experiment`-driven lockstep
//! loop and a hand-rolled ingest/emit loop over the same `SimAdapter`
//! must produce bit-identical directive sequences and tracking MAEs
//! (the golden equivalence of the API split), and the one metrics
//! surface must report every self-healing subsystem's counters during a
//! faulted, drifting run.

use llc_cluster::{
    ClusterPolicy, ControlPlane, Directive, DirectiveEmit, DirectiveKind, Experiment,
    ExperimentLog, Family, HierarchicalPolicy, Level, ObservationIngest, Preset, RunSpec,
    SimAdapter,
};
use llc_workload::{
    derive_seed, spread_arrivals, CapacityProfile, FaultEvent, FaultKind, FaultPlan, RequestSampler,
};
use rand::SeedableRng;

/// Drive `policy` over the ingest/emit API by hand — no `Experiment` —
/// against the same plant, workload and injectors `Experiment::run`
/// uses for `spec`, returning every directive drained.
fn run_by_hand(spec: &RunSpec, policy: &mut HierarchicalPolicy) -> Vec<Directive> {
    let (exp, trace) = spec.experiment_and_trace();
    let store = spec.store();
    let ticks_trace = trace.rebucket(exp.t_l0).expect("well-formed trace");
    let total_ticks = ticks_trace.len();
    let mut adapter = SimAdapter::new(spec.scenario_config().to_sim_config(), &exp, total_ticks);
    if exp.prewarmed {
        adapter.prewarm().expect("well-formed cluster");
    }
    let mut sampler = RequestSampler::paper_default(&store, exp.seed);
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
        a.metrics().tracking_error,
        b.metrics().tracking_error,
        "tracking MAEs must be bit-identical"
    );
    assert_eq!(a.metrics().tracking_samples, b.metrics().tracking_samples);
    assert_eq!(a.metrics().online_updates, b.metrics().online_updates);
}

/// Golden equivalence, closed-loop bench family: the capacity-step
/// drift scenario under the in-hierarchy closed loop.
#[test]
fn experiment_and_hand_rolled_loop_agree_closed_loop() {
    let spec = RunSpec::defaults(Family::ClosedLoop(2));
    let mut via_exp = spec.policy(Preset::ClosedLoop);
    let log = spec.run(&mut via_exp);
    let mut by_hand = spec.policy(Preset::ClosedLoop);
    let hand = run_by_hand(&spec, &mut by_hand);

    assert_equivalent(&log, &hand, &via_exp, &by_hand);
    assert!(!log.directives.is_empty());
}

/// Golden equivalence, faults bench family: the crash-restart scenario
/// under the watchdog'd closed loop.
#[test]
fn experiment_and_hand_rolled_loop_agree_faults() {
    let spec = RunSpec::defaults(Family::Faults(0));
    let mut via_exp = spec.policy(Preset::FaultTolerant);
    let log = spec.run(&mut via_exp);
    let mut by_hand = spec.policy(Preset::FaultTolerant);
    let hand = run_by_hand(&spec, &mut by_hand);

    assert_equivalent(&log, &hand, &via_exp, &by_hand);
    assert_eq!(
        via_exp.metrics().member_deaths,
        by_hand.metrics().member_deaths
    );
    assert_eq!(
        via_exp.metrics().safe_mode_periods,
        by_hand.metrics().safe_mode_periods
    );
}

/// The one metrics surface: during a faulted, drifting run of the full
/// self-healing stack, `MetricsSnapshot` must report drift detections,
/// member deaths/recoveries and safe-mode periods — without
/// reaching into any subsystem struct.
#[test]
fn metrics_snapshot_reports_every_subsystem() {
    // The control_plane example's schedule: crash-restart plus a 3-of-4
    // blackout (quorum loss → safe mode) plus a silent capacity step
    // (drift detections).
    let spec = RunSpec {
        seed: 0xBEEF,
        buckets: 90,
        ..RunSpec::defaults(Family::Faults(0))
    };
    let (exp, trace) = spec.experiment_and_trace();
    let mut events = exp.faults.as_ref().expect("a fault run").events().to_vec();
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
        ..exp
    };
    let mut policy = spec.policy(Preset::SelfHealingFaultTolerant);
    let log = exp
        .run(
            spec.scenario_config().to_sim_config(),
            &mut policy,
            &trace,
            &spec.store(),
        )
        .expect("well-formed scenario");

    let m = &log.metrics;
    assert_eq!(m.next_tick, log.ticks.len() as u64);
    assert_eq!(
        m.observations_ingested, m.next_tick,
        "one module, one obs per tick"
    );
    assert_eq!(m.stale_observations, 0);
    assert_eq!(
        m.dark_filled_members, 0,
        "the adapter reports dark members in-stream"
    );
    assert_eq!(m.directives_emitted as usize, log.directives.len());
    assert_eq!(m.decide.decisions, m.next_tick);
    assert!(m.decide.max >= m.decide.mean());

    // Every self-healing subsystem shows up through the one surface.
    assert!(
        m.policy.drift_detections() > 0,
        "capacity step must fire detectors"
    );
    assert!(
        m.policy.member_deaths > 0,
        "crash + blackout must kill members"
    );
    assert!(
        m.policy.member_recoveries > 0,
        "restart + blackout end must rejoin"
    );
    assert!(
        m.policy.safe_mode_periods > 0,
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
