//! Golden equivalence of the networked loop: the hierarchy driven over
//! a real loopback TCP socket in lockstep mode must produce
//! *bit-identical* directive sequences and tracking MAEs to the
//! in-process `Experiment::run` loop, on both golden bench families.
//!
//! This is the payoff of two deliberate choices in `llc-net`: floats
//! travel as IEEE-754 bit patterns (the codec is bit-transparent), and
//! the lockstep session replays the exact observe → ingest → step →
//! actuate → advance ordering of the in-process loop.

use llc_cluster::{Directive, Experiment, HierarchicalPolicy};
use llc_net::scenario::{Family, RunSpec};
use llc_net::{
    run_agent, serve_controller, AgentCore, ControldCore, FrameTransport, LinkCounters, TcpLink,
};
use llc_workload::Trace;
use std::net::TcpListener;

/// Run the distributed loop — controller serving on an OS-assigned
/// loopback port, agent connecting from a second thread — in lockstep,
/// and return (controller directives log, agent applied directives,
/// final policy, agent wedged events, controller metrics, the agent's
/// and the controller's link counters).
fn run_distributed(
    spec: &RunSpec,
    exp: &Experiment,
    trace: &Trace,
) -> (
    Vec<Directive>,
    Vec<Directive>,
    HierarchicalPolicy,
    u64,
    llc_cluster::MetricsSnapshot,
    [LinkCounters; 2],
) {
    let ticks_trace = trace.rebucket(exp.t_l0).expect("well-formed trace");
    let total_ticks = ticks_trace.len() as u64;

    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound");

    let agent_spec = *spec;
    let agent_exp = exp.clone();
    let agent_trace = trace.clone();
    let agent = std::thread::spawn(move || {
        let store = agent_spec.store();
        let mut core = AgentCore::new(
            agent_spec.scenario_config().to_sim_config(),
            &agent_exp,
            &agent_trace,
            &store,
        )
        .expect("well-formed plant");
        let stream = std::net::TcpStream::connect(addr).expect("controller is listening");
        let mut link = TcpLink::new(stream).expect("link");
        run_agent(&mut core, &mut link, None).expect("lossless lockstep session");
        (
            core.applied_directives().to_vec(),
            core.wedged_events(),
            link.counters(),
        )
    });

    let members: Vec<Vec<usize>> = {
        let sizes: Vec<usize> = spec
            .scenario_config()
            .member_specs()
            .iter()
            .map(Vec::len)
            .collect();
        let mut members = Vec::new();
        let mut next = 0usize;
        for n in sizes {
            members.push((next..next + n).collect());
            next += n;
        }
        members
    };
    let mut core = ControldCore::new(spec.policy(), members, exp.t_l0, total_ticks);
    let (stream, _) = listener.accept().expect("agent connects");
    let mut link = TcpLink::new(stream).expect("link");
    serve_controller(&mut core, &mut link, None).expect("lossless lockstep session");

    let (applied, wedged, agent_link) = agent.join().expect("agent finished cleanly");
    let metrics = core.metrics(&link.counters());
    let directives = core.directives_log().to_vec();
    (
        directives,
        applied,
        core.into_policy(),
        wedged,
        metrics,
        [agent_link, link.counters()],
    )
}

/// In-process reference: the canonical `Experiment::run`.
fn run_in_process(
    spec: &RunSpec,
    exp: &Experiment,
    trace: &Trace,
) -> (Vec<Directive>, HierarchicalPolicy) {
    let store = spec.store();
    let mut policy = spec.policy();
    let log = exp
        .run(
            spec.scenario_config().to_sim_config(),
            &mut policy,
            trace,
            &store,
        )
        .expect("well-formed scenario");
    (log.directives, policy)
}

fn assert_golden(family: Family) {
    let spec = RunSpec::defaults(family);
    let (exp, trace) = spec.experiment_and_trace();

    let (reference, ref_policy) = run_in_process(&spec, &exp, &trace);
    let (networked, applied, net_policy, wedged, metrics, [agent_link, controller_link]) =
        run_distributed(&spec, &exp, &trace);

    assert_eq!(
        reference.len(),
        networked.len(),
        "directive counts must match"
    );
    assert_eq!(
        reference, networked,
        "directive sequences must be bit-identical across the socket"
    );
    assert_eq!(
        reference, applied,
        "the agent's reconciler must apply the exact emission sequence"
    );
    assert_eq!(
        ref_policy.tracking_error(),
        net_policy.tracking_error(),
        "tracking MAEs must be bit-identical"
    );
    assert_eq!(ref_policy.tracking_samples(), net_policy.tracking_samples());
    assert_eq!(ref_policy.online_updates(), net_policy.online_updates());

    // A lossless lockstep run has a clean transport section: every
    // frame decoded, nothing late, nothing dark-filled at a deadline.
    let t = &metrics.transport;
    assert_eq!(t.decode_errors, 0);
    assert_eq!(t.late_observations, 0);
    assert_eq!(t.lost_observation_windows, 0);
    assert_eq!(t.reconnects, 0);
    assert!(t.frames_in > 0 && t.frames_out > 0);
    assert!(t.bytes_in > 0 && t.bytes_out > 0);
    assert_eq!(wedged, 0, "no stuck actuators in these schedules");
    assert!(!reference.is_empty());

    // The link moves a window in one write: per side, one per tick plus
    // the handshake (and the controller's closing metrics) — while every
    // frame is still sent and counted one by one.
    let ticks = metrics.ticks_decided;
    let modules = spec.scenario_config().member_specs().len() as u64;
    assert_eq!(agent_link.frames_out, 1 + ticks * (modules + 1));
    assert_eq!(
        controller_link.frames_out,
        1 + networked.len() as u64 + ticks + 1
    );
    assert_eq!(agent_link.frames_in, controller_link.frames_out);
    assert_eq!(controller_link.frames_in, agent_link.frames_out);
    for (side, link) in [("agent", agent_link), ("controller", controller_link)] {
        assert!(
            (ticks..=ticks + 2).contains(&link.writes_out),
            "{side}: {} writes for {ticks} ticks ({} frames)",
            link.writes_out,
            link.frames_out
        );
    }
}

#[test]
fn networked_loop_is_bit_identical_closed_loop_family() {
    assert_golden(Family::ClosedLoop);
}

#[test]
fn networked_loop_is_bit_identical_faults_family() {
    assert_golden(Family::Faults);
}
