//! The distributed loop under a lossy link, driven deterministically:
//! both cores single-threaded over in-memory pipes with tick-scoped
//! frame drops and delays injected at the transport seam (encoded
//! bytes), no wall clock anywhere.
//!
//! The central claim: dropping a module's observation frames is
//! *observationally equivalent* to a telemetry blackout of all its
//! members — the controller dark-fills the module either way, so the
//! watchdog's death / recovery / safe-mode counters must match an
//! in-process `Experiment` run with an equivalent `FaultPlan`. Losing
//! directives, by contrast, degrades only actuation: the reconciler
//! applies late ones in epoch order, supersedes stale ones, and never
//! actuates a duplicate.

use llc_cluster::{
    single_module, Experiment, FaultToleranceConfig, HierarchicalPolicy, PolicyBuilder,
    ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_net::{
    decode_directive, encode_directive, encode_heartbeat, encode_observation, AgentCore,
    ControldCore, FrameKind, FrameTransport, Impairment, LossyLink, PipeLink,
};
use llc_workload::{fault_scenarios, FaultEvent, FaultKind, FaultPlan, Trace, VirtualStore};

const MEMBERS: usize = 4;
const BUCKETS: usize = 40; // × 120 s / 30 s = 160 ticks

/// Observation frames vanish for these ticks (module dark at the
/// controller).
const DROP_OBS: (u64, u64) = (24, 36);
/// Observation frames are held 2 ticks (arrive stale → dropped late →
/// module dark at the controller, same as a drop).
const DELAY_OBS: (u64, u64) = (80, 86);
/// Directive frames vanish (actuation gap; plant coasts).
const DROP_DIR: (u64, u64) = (120, 124);
/// Directive frames from this single L1 tick (132) are held 5 ticks, so
/// they land *after* the next L1 round (tick 136) has been applied.
/// Split-weight directives are emitted unconditionally every L1 tick,
/// so the stale tick-132 split must be superseded — and nothing may be
/// double-applied.
const DELAY_DIR: (u64, u64) = (132, 133);
const DELAY_DIR_TICKS: u64 = 5;

fn scenario() -> ScenarioConfig {
    let mut sc = single_module(MEMBERS).with_coarse_learning();
    // Keep every machine powered: the equivalence argument wants the
    // watchdog driven purely by telemetry streaks, not by activation
    // decisions diverging between the two runs.
    sc.l1.min_active = MEMBERS;
    sc
}

fn policy(sc: &ScenarioConfig) -> HierarchicalPolicy {
    PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .build()
}

fn workload(sc: &ScenarioConfig) -> Trace {
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    fault_scenarios(0xFA11, BUCKETS, 120.0, capacity, MEMBERS)
        .swap_remove(0)
        .trace
}

/// Drive agent and controller cores to completion over lossy pipes,
/// single-threaded: per tick, the agent sends, the controller drains
/// whatever the link delivered and decides at its (virtual) deadline,
/// the agent drains and commits. Returns the finished cores' spoils.
#[allow(clippy::type_complexity)]
fn run_lossy(
    rules_agent_side: Vec<Impairment>,
    rules_ctrl_side: Vec<Impairment>,
) -> (
    HierarchicalPolicy,
    llc_cluster::TransportMetrics,
    llc_net::ReconcileReport,
    u64,
    u32,
) {
    let sc = scenario();
    let trace = workload(&sc);
    let exp = Experiment::paper_default(5); // no plant faults: the *link* is the fault
    let store = VirtualStore::paper_default(5);
    let mut agent =
        AgentCore::new(sc.to_sim_config(), &exp, &trace, &store).expect("well-formed plant");
    let total_ticks = agent.total_ticks();
    let mut ctrl = ControldCore::new(policy(&sc), agent.members().to_vec(), exp.t_l0, total_ticks);

    let (ctrl_pipe, agent_pipe) = PipeLink::pair();
    let mut ctrl_link = LossyLink::new(ctrl_pipe, rules_ctrl_side);
    let mut agent_link = LossyLink::new(agent_pipe, rules_agent_side);

    for tick in 0..total_ticks {
        agent_link.set_tick(tick).expect("pipe send");
        ctrl_link.set_tick(tick).expect("pipe send");

        for observation in agent.observations() {
            agent_link
                .send(FrameKind::Observation, encode_observation(&observation))
                .expect("pipe send");
        }
        agent_link
            .send(FrameKind::Heartbeat, encode_heartbeat(&agent.heartbeat()))
            .expect("pipe send");

        // The controller's window deadline: drain whatever arrived,
        // then decide regardless — missing modules are dark-filled.
        while let Some(frame) = ctrl_link.recv(None).expect("pipe recv") {
            let _ = ctrl.handle_frame(&frame);
        }
        let (_report, directives) = ctrl.decide_next();
        for d in &directives {
            ctrl_link
                .send(FrameKind::Directive, encode_directive(d))
                .expect("pipe send");
        }
        ctrl_link
            .send(
                FrameKind::Heartbeat,
                encode_heartbeat(&ctrl.commit_heartbeat(tick)),
            )
            .expect("pipe send");

        // The agent's deadline: stage whatever directives made it,
        // commit the window.
        while let Some(frame) = agent_link.recv(None).expect("pipe recv") {
            if frame.kind == FrameKind::Directive {
                agent.stage(decode_directive(&frame.payload).expect("codec round trip"));
            }
        }
        agent.commit_window().expect("well-formed run");
    }
    assert!(agent.finished() && ctrl.finished());

    let transport = ctrl
        .metrics(&ctrl_link.inner().counters())
        .transport
        .clone();
    let reconcile = agent.reconcile_report();
    let wedged = agent.wedged_events();
    let heartbeat_wedged = agent.heartbeat().wedged;
    (
        ctrl.into_policy(),
        transport,
        reconcile,
        wedged,
        heartbeat_wedged,
    )
}

/// The in-process reference: same plant, same workload, with the
/// observation outages expressed as a `FaultPlan` blackout of every
/// member over the same tick ranges.
fn run_blackout_reference() -> HierarchicalPolicy {
    let sc = scenario();
    let trace = workload(&sc);
    let mut events = Vec::new();
    for &(from, to) in &[DROP_OBS, DELAY_OBS] {
        for computer in 0..MEMBERS {
            events.push(FaultEvent {
                tick: from,
                computer,
                kind: FaultKind::BlackoutStart,
            });
            events.push(FaultEvent {
                tick: to,
                computer,
                kind: FaultKind::BlackoutEnd,
            });
        }
    }
    let exp = Experiment {
        faults: Some(FaultPlan::new(events)),
        ..Experiment::paper_default(5)
    };
    let store = VirtualStore::paper_default(5);
    let mut policy = policy(&sc);
    exp.run(sc.to_sim_config(), &mut policy, &trace, &store)
        .expect("well-formed scenario");
    policy
}

#[test]
fn lossy_link_matches_equivalent_blackout_and_recovers() {
    let agent_rules = vec![
        Impairment::drop(FrameKind::Observation, DROP_OBS.0, DROP_OBS.1),
        Impairment::delay(FrameKind::Observation, DELAY_OBS.0, DELAY_OBS.1, 2),
    ];
    let ctrl_rules = vec![
        Impairment::drop(FrameKind::Directive, DROP_DIR.0, DROP_DIR.1),
        Impairment::delay(
            FrameKind::Directive,
            DELAY_DIR.0,
            DELAY_DIR.1,
            DELAY_DIR_TICKS,
        ),
    ];
    let (net_policy, transport, reconcile, wedged, hb_wedged) = run_lossy(agent_rules, ctrl_rules);
    let ref_policy = run_blackout_reference();

    // Observational equivalence: frame loss at the transport seam and a
    // plant-side telemetry blackout drive the watchdog identically.
    assert!(net_policy.member_deaths() > 0, "outage must kill members");
    assert_eq!(
        net_policy.member_deaths(),
        ref_policy.member_deaths(),
        "deaths must match the equivalent blackout"
    );
    assert_eq!(
        net_policy.member_recoveries(),
        ref_policy.member_recoveries(),
        "recoveries must match the equivalent blackout"
    );
    assert_eq!(
        net_policy.safe_mode_periods(),
        ref_policy.safe_mode_periods(),
        "safe-mode periods must match the equivalent blackout"
    );
    assert!(
        net_policy.safe_mode_periods() > 0,
        "whole-module outage must break quorum"
    );

    // Transport accounting: every dropped-or-stale observation window
    // is visible in the metrics, with nothing unexplained.
    let obs_outage = (DROP_OBS.1 - DROP_OBS.0) + (DELAY_OBS.1 - DELAY_OBS.0);
    assert_eq!(
        transport.lost_observation_windows, obs_outage,
        "one lost module-window per impaired tick"
    );
    assert_eq!(
        transport.late_observations,
        DELAY_OBS.1 - DELAY_OBS.0,
        "each delayed observation arrives stale and is counted late"
    );
    assert_eq!(transport.decode_errors, 0, "loss, not corruption");

    // Directive loss degrades actuation without double-applying: late
    // directives overtaken by newer epochs are superseded, and no
    // directive is ever actuated twice.
    assert!(
        reconcile.superseded > 0,
        "delayed directives must be overtaken"
    );
    assert_eq!(reconcile.duplicates, 0, "no duplicate actuation");
    assert!(reconcile.applied > 0);
    assert_eq!(wedged, 0, "no stuck actuators in this run");
    assert_eq!(hb_wedged, 0);
}

/// A wedged actuator is plant-side, not link-side: the stuck-actuator
/// fault schedule must surface through the agent's frequency read-back
/// and reach the controller in the heartbeat's wedged count.
#[test]
fn wedged_actuator_is_detected_and_reported() {
    let sc = scenario();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let stuck = fault_scenarios(0xFA11, BUCKETS, 120.0, capacity, MEMBERS)
        .into_iter()
        .find(|s| s.name == "stuck-actuator")
        .expect("scenario exists");
    let exp = Experiment {
        faults: Some(stuck.plan),
        ..Experiment::paper_default(5)
    };
    let store = VirtualStore::paper_default(5);
    let mut agent =
        AgentCore::new(sc.to_sim_config(), &exp, &stuck.trace, &store).expect("well-formed plant");
    let total_ticks = agent.total_ticks();
    let mut ctrl = ControldCore::new(policy(&sc), agent.members().to_vec(), exp.t_l0, total_ticks);

    let (mut ctrl_link, mut agent_link) = PipeLink::pair();
    let mut saw_wedged_member = false;
    for _tick in 0..total_ticks {
        for observation in agent.observations() {
            agent_link
                .send(FrameKind::Observation, encode_observation(&observation))
                .expect("pipe send");
        }
        agent_link
            .send(FrameKind::Heartbeat, encode_heartbeat(&agent.heartbeat()))
            .expect("pipe send");
        while let Some(frame) = ctrl_link.recv(None).expect("pipe recv") {
            ctrl.handle_frame(&frame).expect("lossless frames decode");
        }
        let (_report, directives) = ctrl.decide_next();
        for d in &directives {
            ctrl_link
                .send(FrameKind::Directive, encode_directive(d))
                .expect("pipe send");
        }
        while let Some(frame) = agent_link.recv(None).expect("pipe recv") {
            if frame.kind == FrameKind::Directive {
                agent.stage(decode_directive(&frame.payload).expect("codec round trip"));
            }
        }
        agent.commit_window().expect("well-formed run");
        saw_wedged_member |= agent.wedged_members().iter().any(|&w| w);
    }

    assert!(
        agent.wedged_events() > 0,
        "stuck actuator must fail the frequency read-back"
    );
    assert!(
        saw_wedged_member,
        "the wedged computer is identified while the actuator is stuck"
    );
    // One more heartbeat would carry it upstream; the controller's
    // transport metrics expose the last report it saw.
    agent_link
        .send(FrameKind::Heartbeat, encode_heartbeat(&agent.heartbeat()))
        .expect("pipe send");
    while let Some(frame) = ctrl_link.recv(None).expect("pipe recv") {
        ctrl.handle_frame(&frame).expect("lossless frames decode");
    }
    let m = ctrl.metrics(&ctrl_link.counters());
    assert!(
        m.transport.wedged_reports > 0,
        "wedged count must reach the controller's metrics surface"
    );
    assert_eq!(m.transport.wedged_reports, agent.wedged_events());
}
