//! `llc-controld` — the controller daemon: wraps a `ControlPlane` over
//! the full self-healing hierarchy behind a TCP listener and drives one
//! node agent through the window protocol.
//!
//! ```text
//! llc-controld --listen 127.0.0.1:7700 --scenario faults \
//!              [--members N] [--buckets N] [--seed N] [--pace-ms MS]
//! ```
//!
//! `--pace-ms 0` (the default) is lockstep: each tick waits for the
//! agent's heartbeat, which over a lossless link reproduces the
//! in-process loop bit for bit. A positive pace holds each tick's
//! window open for that much wall clock, then catches the plane up with
//! `advance_to` semantics, dark-filling members whose observations
//! missed the deadline. Agents may drop and reconnect mid-run in paced
//! mode; reconnects are counted in the metrics' transport section.

use llc_net::scenario::{flag_value, RunSpec};
use llc_net::{serve_controller, FrameTransport, SessionError, TcpLink};
use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: llc-controld --listen ADDR [--scenario closed-loop|faults] \
                 [--members N] [--buckets N] [--seed N] [--pace-ms MS]";
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return ExitCode::SUCCESS;
    }
    let run = RunSpec::from_args(&args).and_then(|(spec, pace)| {
        let listen = flag_value(&args, "--listen")?.unwrap_or("127.0.0.1:7700");
        Ok((spec, pace, listen))
    });
    let (spec, pace, listen) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("llc-controld: {e}\n{usage}");
            return ExitCode::FAILURE;
        }
    };
    let mut core = spec.controller();
    let total_ticks = core.hello().total_ticks;
    let pace_ms = pace.map_or(0, |p| p.as_millis());

    let listener = match TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("llc-controld: cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("llc-controld: listening on {listen} ({total_ticks} ticks, pace {pace_ms} ms)");

    let mut first = true;
    while !core.finished() {
        let (stream, peer) = match listener.accept() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("llc-controld: accept failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !first {
            core.note_reconnect();
        }
        first = false;
        eprintln!("llc-controld: agent connected from {peer}");
        let mut link = match TcpLink::new(stream) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("llc-controld: {e}");
                continue;
            }
        };
        match serve_controller(&mut core, &mut link, pace) {
            Ok(()) => {
                let m = core.metrics(&link.counters());
                let t = &m.transport;
                eprintln!(
                    "llc-controld: run complete — {} ticks, {} directives; transport: \
                     {} frames in / {} out, {} decode errors, {} late obs, \
                     {} lost module-windows, {} reconnects, {} wedged reports",
                    m.ticks_decided,
                    m.directives_emitted,
                    t.frames_in,
                    t.frames_out,
                    t.decode_errors,
                    t.late_observations,
                    t.lost_observation_windows,
                    t.reconnects,
                    t.wedged_reports,
                );
            }
            Err(SessionError::Link(e)) if pace.is_some() && !core.finished() => {
                eprintln!("llc-controld: link lost mid-run ({e}); awaiting reconnect");
            }
            Err(e) => {
                eprintln!("llc-controld: session failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
