//! Failure injection: a machine that never finishes booting (infinite
//! dead time) must not sink requests — the boot-aware routing keeps load
//! on the serving machines and the module soldiers on. And a sensor
//! that reports NaN must not reach the learned maps.

use llc_cluster::{
    single_module, ControlPlane, DirectiveEmit, Experiment, FaultToleranceConfig,
    HierarchicalPolicy, IngestError, ObservationIngest, Plant, PolicyBuilder,
};
use llc_core::OnlineConfig;
use llc_net::{decode_observation, encode_observation};
use llc_sim::PowerState;
use llc_workload::{FaultEvent, FaultKind, FaultPlan, Trace, VirtualStore};

#[test]
fn machine_that_never_boots_does_not_sink_requests() {
    let mut scenario = single_module(4).with_coarse_learning();
    // Machine 1 refuses to boot, forever.
    scenario.modules[0][1].boot_delay = f64::INFINITY;
    let mut policy = HierarchicalPolicy::build(&scenario);

    // Moderate steady load that wants ~2-3 machines.
    let trace = Trace::new(30.0, vec![70.0 * 30.0; 60]).unwrap();
    let store = VirtualStore::paper_default(5);
    // Cold start: every switch-on decision goes through the (broken) boot
    // path.
    let experiment = Experiment {
        prewarmed: false,
        ..Experiment::paper_default(5)
    };
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let s = log.summary();

    assert_eq!(
        s.total_dropped, 0,
        "no requests may be lost to the dead machine"
    );
    // The cluster still completes the work with the healthy machines
    // (cold-start transient aside).
    assert!(
        s.total_completions as f64 > 0.9 * s.total_arrivals as f64,
        "completed {} of {}",
        s.total_completions,
        s.total_arrivals
    );
    // Steady state reached: late-window responses are near target.
    let late: Vec<f64> = log
        .ticks
        .iter()
        .skip(40)
        .filter_map(|t| t.mean_response)
        .collect();
    let late_mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(
        late_mean < 8.0,
        "late mean response {late_mean:.2} should stabilize despite the dead machine"
    );
}

#[test]
fn dead_machine_keeps_zero_queue() {
    let mut scenario = single_module(2).with_coarse_learning();
    scenario.modules[0][1].boot_delay = f64::INFINITY;
    let mut policy = HierarchicalPolicy::build(&scenario);
    let trace = Trace::new(30.0, vec![30.0 * 30.0; 30]).unwrap();
    let store = VirtualStore::paper_default(6);
    let log = Experiment::paper_default(6)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    // The never-booting machine must never hold queued requests once the
    // boot-aware routing is in force (prewarmed start puts it On, but any
    // power cycling strands it in Booting forever).
    for t in &log.ticks {
        if !t.active_flags[1] {
            assert_eq!(
                t.queues[1], 0,
                "tick {}: dead machine hoards requests",
                t.tick
            );
        }
    }
    assert_eq!(log.summary().total_dropped, 0);
}

/// Regression: a machine restarting into an *overloaded* module must not
/// open an arrival-hoarding window. The overload makes every γ share
/// precious, so the L1 is maximally tempted to hand the returning member
/// load the moment it reappears — but from restart order to boot-done
/// the machine cannot serve, and any requests routed at it would sit
/// behind the boot dead time (or be refused outright). Its queue must
/// read zero for the whole crash→boot-done stretch.
#[test]
fn restart_under_overload_has_no_arrival_hoarding_window() {
    let scenario = single_module(4).with_coarse_learning();
    let capacity: f64 = scenario.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let mut policy = PolicyBuilder::new(scenario.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .build();

    // ~95% of full-cluster capacity: the three survivors run overloaded
    // the whole time machine 1 is down.
    let rate = 0.95 * capacity;
    let crash_tick = 20u64;
    let restart_tick = 32u64;
    let boot_ticks = 4u64; // 120 s boot at the 30 s base tick
    let trace = Trace::new(30.0, vec![rate * 30.0; 60]).unwrap();
    let store = VirtualStore::paper_default(7);
    let experiment = Experiment {
        faults: Some(FaultPlan::new(vec![
            FaultEvent {
                tick: crash_tick,
                computer: 1,
                kind: FaultKind::Crash { requeue: false },
            },
            FaultEvent {
                tick: restart_tick,
                computer: 1,
                kind: FaultKind::Restart,
            },
        ])),
        ..Experiment::paper_default(7)
    };
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();

    // From the crash until boot-done the machine can hold no work: the
    // crash ripped its queue out, and nothing may be routed back at it
    // until it actually serves again.
    for t in &log.ticks {
        if t.tick >= crash_tick && t.tick < restart_tick + boot_ticks {
            assert_eq!(
                t.queues[1], 0,
                "tick {}: restarting machine hoards requests mid-overload",
                t.tick
            );
        }
    }
    assert_eq!(policy.member_deaths(), 1, "watchdog saw the crash");
    assert_eq!(policy.member_recoveries(), 1, "member rejoined after boot");
    let s = log.summary();
    // Drops are bounded by the watchdog's detection latency (the blind
    // window where γ still points at the dead machine), not the whole
    // outage: well under the ~25% share over the 12 dead ticks.
    let outage_share = rate * 30.0 * (restart_tick + boot_ticks - crash_tick) as f64 / 4.0;
    assert!(
        (s.total_dropped as f64) < 0.8 * outage_share,
        "dropped {} of an outage share of {outage_share:.0} — watchdog never rerouted",
        s.total_dropped
    );
}

#[test]
fn sim_reports_infinite_boot_as_booting_forever() {
    use llc_sim::{ClusterConfig, ClusterSim, ComputerConfig, PowerModel};
    let mut sim = ClusterSim::new(ClusterConfig {
        modules: vec![vec![ComputerConfig::new(
            vec![1.0e9],
            PowerModel::paper_default(),
            f64::INFINITY,
        )]],
    });
    sim.power_on(0);
    sim.run_until(1e6).unwrap();
    assert!(matches!(
        sim.computer(0).state(),
        PowerState::Booting { .. }
    ));
}

/// One window whose energy meter reads NaN, arriving over the wire: the
/// plane refuses the observation and dark-fills the module for that
/// tick, so neither the abstraction maps the closed loop writes online
/// nor the tracking error ever see the NaN.
#[test]
fn nan_telemetry_is_refused_before_it_reaches_the_maps() {
    let scenario = single_module(4).with_coarse_learning();
    let mut policy = PolicyBuilder::new(scenario.clone())
        .closed_loop(OnlineConfig::default())
        .build();
    let experiment = Experiment::paper_default(8);
    let l1_every = (scenario.l1.period / experiment.t_l0).round() as u64;
    let poisoned_tick = 4 * l1_every + 1;
    let total_ticks = poisoned_tick + 8 * l1_every + 1;
    let trace = Trace::new(30.0, vec![70.0 * 30.0; total_ticks as usize]).unwrap();
    let store = VirtualStore::paper_default(8);
    let mut plant = Plant::new(scenario.to_sim_config(), &experiment, &trace, &store).unwrap();
    let mut plane = ControlPlane::new(&mut policy, plant.members().to_vec(), experiment.t_l0);

    while !plant.finished() {
        let tick = plant.tick();
        let mut observation = plant.observations().pop().expect("one module");
        if tick == poisoned_tick {
            observation.members[1].window.energy = f64::NAN;
        }
        let wire = decode_observation(&encode_observation(&observation)).unwrap();
        let refused = plane.ingest(wire).err();
        let dark_before = plane.metrics().dark_filled_members;
        let _ = plane.step();
        let dark_filled = plane.metrics().dark_filled_members - dark_before;
        if tick == poisoned_tick {
            let nan_member = IngestError::NonFinite {
                module: 0,
                member: 1,
            };
            assert_eq!(refused, Some(nan_member));
            assert_eq!(dark_filled, 4, "the whole module is dark for the tick");
        } else {
            assert_eq!((refused, dark_filled), (None, 0), "tick {tick}");
        }
        for directive in plane.drain_directives() {
            plant.stage(directive);
        }
        plant.commit_window().unwrap();
    }
    drop(plane);

    assert!(
        policy.online_updates() > 0,
        "the closed loop wrote the maps"
    );
    assert!(policy.tracking_error().is_some_and(f64::is_finite));
    let l1 = policy.l1(0);
    for (j, &c) in l1.c_estimates().iter().enumerate() {
        let map = l1.map(j);
        for li in 0..=64 {
            let lambda = map.trained_lambda_max() * f64::from(li) / 64.0;
            for qi in 0..=8 {
                let q = map.trained_q_max() * f64::from(qi) / 8.0;
                let g = map.query(lambda, c, q);
                assert!(
                    g.cost.is_finite() && g.power.is_finite() && g.final_q.is_finite(),
                    "member {j}: cell at λ={lambda}, q={q} reads {g:?}"
                );
            }
        }
    }
}
