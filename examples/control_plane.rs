//! The hierarchy as a long-lived control plane — no `Experiment` at all.
//!
//! Two threads talk over channels, the way a real deployment would talk
//! over a network:
//!
//! * the **plant thread** owns the simulated cluster (via `SimAdapter`)
//!   and the workload; every 30 s window it ships one
//!   `ModuleObservation` per module and applies whatever `Directive`s
//!   come back;
//! * the **controller thread** (here: `main`) owns a `ControlPlane`
//!   wrapping the full self-healing hierarchy; it ingests observations,
//!   steps the virtual clock, and drains stamped directives.
//!
//! Mid-run a machine crashes and restarts, a blackout later drops the
//! module below its telemetry quorum, and the plant silently sheds 45%
//! of its capacity — so the run exercises the whole metrics surface:
//! watch the `SafeMode` directives stream past, then read the final
//! `MetricsSnapshot` — decide latency, drift detections, retrain
//! rebuilds, member deaths/recoveries, safe-mode periods — from one
//! endpoint.
//!
//! Run with: `cargo run --release -p llc-examples --example control_plane`

use llc_cluster::DirectiveEmit;
use llc_cluster::{
    single_module, ControlPlane, DirectiveKind, Experiment, FaultToleranceConfig,
    ObservationIngest, Plant, PolicyBuilder, RetrainConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{
    fault_scenarios, CapacityProfile, FaultEvent, FaultKind, FaultPlan, VirtualStore,
};
use std::sync::mpsc;

fn main() {
    let sc = single_module(4).with_coarse_learning();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    // The bench's crash-restart fault schedule, plus a 3-of-4
    // simultaneous blackout late in the run (drops the module below the
    // telemetry quorum → safe mode) and a silent capacity step the
    // fault plan knows nothing about.
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
    let t_l0 = exp.t_l0;

    // The plant side: cluster, workload and injectors behind one
    // constructor, the same one `Experiment::run` and the node agent use.
    let store = VirtualStore::paper_default(5);
    let mut plant =
        Plant::new(sc.to_sim_config(), &exp, &fs.trace, &store).expect("well-formed cluster");
    let members = plant.adapter.members().to_vec();

    // The controller side: the full self-healing stack behind the
    // ingest/emit API.
    let policy = PolicyBuilder::new(sc.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .retrain(RetrainConfig::default())
        .drift_aware_l0()
        .build();
    let num_modules = members.len();
    let mut plane = ControlPlane::new(policy, members, t_l0);

    let (obs_tx, obs_rx) = mpsc::channel();
    let (dir_tx, dir_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for tick in 0..plant.total_ticks() as u64 {
                for observation in plant.adapter.observe(tick) {
                    obs_tx.send(observation).expect("controller is up");
                }
                let directives: Vec<llc_cluster::Directive> =
                    dir_rx.recv().expect("controller is up");
                plant
                    .adapter
                    .actuate(&directives)
                    .expect("well-formed directives");
                plant.inject_window(tick).expect("well-formed run");
            }
        });
        while let Ok(first) = obs_rx.recv() {
            plane.ingest(first).expect("known topology, fresh tick");
            for _ in 1..num_modules {
                let observation = obs_rx.recv().expect("plant sends every module");
                plane
                    .ingest(observation)
                    .expect("known topology, fresh tick");
            }
            let report = plane.step();
            let directives = plane.drain_directives();
            for d in &directives {
                if let DirectiveKind::SafeMode { module, active } = d.kind {
                    println!(
                        "t={:>6.0}s  L1 epoch {:>3}  module {} {} safe mode",
                        report.time,
                        d.epoch,
                        module,
                        if active { "entered" } else { "left" },
                    );
                }
            }
            dir_tx.send(directives).expect("plant is up");
        }
    });

    let m = plane.metrics();
    println!(
        "\n--- MetricsSnapshot after {} decided ticks ---",
        m.ticks_decided
    );
    println!(
        "ingest: {} observations, {} out-of-order, {} stale, {} dark-filled member-windows",
        m.observations_ingested,
        m.out_of_order_observations,
        m.stale_observations,
        m.dark_filled_members,
    );
    println!(
        "emit:   {} directives; decide latency mean {:?}, max {:?}",
        m.directives_emitted,
        m.decide.mean(),
        m.decide.max,
    );
    println!(
        "learn:  {} online updates, {} drift detections, {} retrain triggers, {} rebuilds",
        m.policy.online_updates,
        m.drift_detections(),
        m.policy.retrain_triggers,
        m.rebuilds(),
    );
    println!(
        "churn:  {} member deaths, {} recoveries, {} safe-mode periods, {} feed-forward events",
        m.member_deaths(),
        m.member_recoveries(),
        m.safe_mode_periods(),
        m.policy.feed_forward_events,
    );
}
