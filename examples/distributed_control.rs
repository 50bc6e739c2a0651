//! The distributed control loop end to end — both halves of the wire in
//! one process, talking over a real loopback TCP socket.
//!
//! This is exactly what `llc-agent` and `llc-controld` do as separate
//! binaries, compressed into one runnable example:
//!
//! * the **agent thread** owns the plant shard (a `Plant`: a
//!   `SimAdapter` behind the directive reconciler): each 30 s window it
//!   streams one `Observation` frame per module plus a `Heartbeat`
//!   commit marker, then reconciles and actuates whatever `Directive`
//!   frames come back;
//! * the **controller** (here: `main`) owns the watchdog'd closed-loop
//!   hierarchy behind a `ControldCore`: it ingests frames, decides each
//!   tick, and ships epoch-stamped directives down the same socket.
//!
//! The run is the `faults` golden family (crash–restart schedule), in
//! lockstep mode — so the decisions are bit-identical to the in-process
//! `Experiment::run` loop, and the final `MetricsSnapshot` gains a
//! fully populated transport section: frames and bytes each way, decode
//! errors, late/lost observation windows, reconnects, wedged reports.
//!
//! Run with: `cargo run --release -p llc-examples --example distributed_control`

use llc_net::scenario::{Family, RunSpec};
use llc_net::{run_agent, serve_controller, FrameTransport, TcpLink};
use std::net::{TcpListener, TcpStream};

fn main() {
    let spec = RunSpec::defaults(Family::Faults);
    let mut core = spec.controller();

    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound socket");
    println!(
        "controller listening on {addr} — {} machines, {} ticks of {:.0} s",
        spec.members,
        core.hello().total_ticks,
        core.hello().t_l0
    );

    let agent = std::thread::spawn(move || {
        let store = spec.store();
        let mut core = spec.plant(&store).expect("well-formed plant");
        let stream = TcpStream::connect(addr).expect("controller is listening");
        let mut link = TcpLink::new(stream).expect("link");
        run_agent(&mut core, &mut link, None).expect("lossless lockstep session");
        (core.reconcile_report(), core.wedged_events())
    });

    let (stream, peer) = listener.accept().expect("agent connects");
    println!("agent connected from {peer}");
    let mut link = TcpLink::new(stream).expect("link");
    serve_controller(&mut core, &mut link, None).expect("lossless lockstep session");

    let (reconcile, wedged) = agent.join().expect("agent finished cleanly");
    let m = core.metrics(&link.counters());

    println!(
        "\n--- MetricsSnapshot after {} decided ticks ---",
        m.ticks_decided
    );
    println!(
        "control:   {} directives emitted, {} observations ingested, {} dark-filled member-windows",
        m.directives_emitted, m.observations_ingested, m.dark_filled_members,
    );
    println!(
        "churn:     {} member deaths, {} recoveries, {} safe-mode periods",
        m.member_deaths(),
        m.member_recoveries(),
        m.safe_mode_periods(),
    );
    let t = &m.transport;
    println!(
        "transport: {} frames in / {} out, {} bytes in / {} out",
        t.frames_in, t.frames_out, t.bytes_in, t.bytes_out,
    );
    println!(
        "           {} decode errors, {} late observations, {} lost observation windows",
        t.decode_errors, t.late_observations, t.lost_observation_windows,
    );
    println!(
        "           {} reconnects, {} wedged reports",
        t.reconnects, t.wedged_reports,
    );
    println!(
        "agent:     {} directives applied, {} superseded, {} duplicates, {} wedged events",
        reconcile.applied, reconcile.superseded, reconcile.duplicates, wedged,
    );

    assert_eq!(t.decode_errors, 0, "lossless loopback run");
    assert_eq!(t.lost_observation_windows, 0, "lockstep never dark-fills");
}
