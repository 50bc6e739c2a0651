//! `llc-agent` — the node agent: instantiates its shard of the plant (a
//! `Plant`: a `ClusterSim` behind a `SimAdapter` and the directive
//! reconciler), connects to `llc-controld`,
//! streams one observation per module per window, and reconciles
//! whatever directives come back (latest epoch wins per actuator,
//! idempotent re-apply, wedged actuators detected by read-back and
//! reported in the heartbeat).
//!
//! ```text
//! llc-agent --connect 127.0.0.1:7700 --scenario faults \
//!           [--members N] [--buckets N] [--seed N] [--pace-ms MS]
//! ```
//!
//! The flags must match the controller's: both ends derive the whole
//! run (cluster, trace, fault schedule) from them, and the handshake
//! rejects mismatches. In paced mode (`--pace-ms > 0`) a dropped
//! connection is retried with backoff until the run completes.

use llc_net::scenario::{flag_value, RunSpec};
use llc_net::{run_agent, SessionError, TcpLink};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: llc-agent --connect ADDR [--scenario closed-loop|faults] \
                 [--members N] [--buckets N] [--seed N] [--pace-ms MS]";
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return ExitCode::SUCCESS;
    }
    let run = RunSpec::from_args(&args).and_then(|(spec, pace)| {
        let connect = flag_value(&args, "--connect")?.unwrap_or("127.0.0.1:7700");
        Ok((spec, pace, connect))
    });
    let (spec, pace, connect) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("llc-agent: {e}\n{usage}");
            return ExitCode::FAILURE;
        }
    };

    let store = spec.store();
    let mut core = match spec.plant(&store) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("llc-agent: cannot instantiate plant: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "llc-agent: plant up ({} modules, {} ticks); connecting to {connect}",
        core.members().len(),
        core.total_ticks(),
    );

    let mut attempts = 0u32;
    while !core.finished() {
        let stream = match TcpStream::connect(connect) {
            Ok(s) => s,
            Err(e) => {
                attempts += 1;
                if attempts > 20 {
                    eprintln!("llc-agent: giving up on {connect}: {e}");
                    return ExitCode::FAILURE;
                }
                std::thread::sleep(Duration::from_millis(100 * u64::from(attempts.min(10))));
                continue;
            }
        };
        attempts = 0;
        let mut link = match TcpLink::new(stream) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("llc-agent: {e}");
                continue;
            }
        };
        match run_agent(&mut core, &mut link, pace) {
            Ok(metrics) => {
                let r = core.reconcile_report();
                eprintln!(
                    "llc-agent: run complete at tick {} — reconciler applied {}, \
                     superseded {}, duplicates {}; wedged events {}",
                    core.tick(),
                    r.applied,
                    r.superseded,
                    r.duplicates,
                    core.wedged_events(),
                );
                if let Some(m) = metrics {
                    let t = &m.transport;
                    eprintln!(
                        "llc-agent: controller metrics — {} ticks decided, {} directives; \
                         transport: {} late obs, {} lost module-windows, {} reconnects",
                        m.ticks_decided,
                        m.directives_emitted,
                        t.late_observations,
                        t.lost_observation_windows,
                        t.reconnects,
                    );
                }
                return ExitCode::SUCCESS;
            }
            Err(SessionError::Link(e)) if pace.is_some() && !core.finished() => {
                eprintln!(
                    "llc-agent: link lost at tick {} ({e}); reconnecting",
                    core.tick()
                );
            }
            Err(e) => {
                eprintln!("llc-agent: session failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
