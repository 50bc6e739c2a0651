//! The control-plane API end to end: a hand-rolled ingest/emit loop over
//! a bare `SimAdapter` (the behaviour matrix's `Adapter` arm) must
//! reproduce the `Experiment`-driven loop bit for bit (the golden
//! equivalence of the API split), and the one metrics surface must
//! report every self-healing subsystem's counters during a faulted,
//! drifting run.

use llc_cluster::{
    ClusterPolicy, Directive, DirectiveKind, Experiment, Family, Level, Preset, RunSpec,
};
use llc_tests::matrix::{self, Drive};
use llc_workload::{CapacityProfile, FaultEvent, FaultKind, FaultPlan};

/// Golden equivalence, closed-loop bench family: the hand loop's
/// directives, windows and policy counters against the row
/// `closedloop2@ClosedLoop/48879`.
#[test]
fn experiment_and_hand_rolled_loop_agree_closed_loop() {
    matrix::assert_matches(&[("closedloop2@ClosedLoop/48879", &[Drive::Adapter])]);
}

/// Golden equivalence, faults bench family: the crash-restart scenario
/// under the fault-tolerant stack, whose counters include the member
/// deaths, recoveries and safe-mode periods, against the row
/// `faults0@FaultTolerant/5`.
#[test]
fn experiment_and_hand_rolled_loop_agree_faults() {
    matrix::assert_matches(&[("faults0@FaultTolerant/5", &[Drive::Adapter])]);
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
