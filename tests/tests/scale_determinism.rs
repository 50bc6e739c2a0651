//! Scale-path regression test: the sharded sweep must be bit-identical
//! at any worker count — including across the crash-restart fault
//! sequence, the hardest ordering case.

use llc_sim::{ClusterConfig, ClusterSim, ComputerConfig, PowerModel, PowerState, WindowStats};

const WINDOW_S: f64 = 30.0;
/// Demand of the sharding scenario's requests: short enough that a
/// 12-machine window at 0.8 utilization carries ~61 000 arrivals, above
/// the 50 000 below which `ClusterSim::run_until` sweeps inline — below
/// it every worker count would run the same serial loop.
const SHARD_DEMAND_S: f64 = 0.004;

fn twelve_machine_cluster() -> ClusterSim {
    // Three heterogeneous modules of four — enough machines that eight
    // shards split unevenly (12 lanes over 8 workers = mixed chunk sizes).
    let comp = |freqs: Vec<f64>, speed: f64, boot: f64| {
        ComputerConfig::new(freqs, PowerModel::paper_default(), boot).with_speed(speed)
    };
    let module = || {
        vec![
            comp(vec![0.6e9, 1.2e9, 1.6e9], 0.8, 120.0),
            comp(vec![0.5e9, 1.0e9, 1.5e9, 2.0e9], 1.0, 120.0),
            comp(vec![0.7e9, 1.4e9], 0.7, 60.0),
            comp(vec![0.425e9, 0.85e9, 1.7e9], 0.85, 120.0),
        ]
    };
    let mut sim = ClusterSim::new(ClusterConfig {
        modules: vec![module(), module(), module()],
    });
    for i in 0..sim.num_computers() {
        sim.force_on(i);
    }
    sim.set_module_weights(&[0.5, 0.3, 0.2]).unwrap();
    for m in 0..3 {
        sim.set_computer_weights(m, &[0.3, 0.4, 0.1, 0.2]).unwrap();
    }
    sim
}

/// Everything an observer could read from the plant, window by window.
#[derive(Debug, PartialEq)]
struct Observed {
    computer_stats: Vec<Vec<WindowStats>>,
    module_stats: Vec<Vec<WindowStats>>,
    rejections: Vec<Vec<u64>>,
    energy_bits: Vec<u64>,
    dropped: Vec<u64>,
    states: Vec<Vec<PowerState>>,
    completed: Vec<u64>,
}

/// Drive the crash-restart fault sequence through the plant, request by
/// request and window by window: near-capacity traffic, a hard crash (work lost) plus a
/// requeueing crash, a restart through the boot dead time, a drain-and
/// -return power cycle, frequency moves and capacity drift — every
/// actuator the controllers own, exercised between sharded sweeps.
fn run_windowed(windows: usize) -> Observed {
    let mut sim = twelve_machine_cluster();
    let per_window = (0.8 * WINDOW_S * 10.2 / SHARD_DEMAND_S).round() as u64;
    let mut obs = Observed {
        computer_stats: Vec::new(),
        module_stats: Vec::new(),
        rejections: Vec::new(),
        energy_bits: Vec::new(),
        dropped: Vec::new(),
        states: Vec::new(),
        completed: Vec::new(),
    };
    for w in 0..windows {
        match w {
            3 => {
                sim.set_frequency(0, 0);
                sim.set_frequency(5, 1);
            }
            5 => {
                sim.crash(1, false); // work lost
                sim.crash(5, true); // work requeued through the module router
            }
            6 => sim.restart(1),
            8 => sim.power_off(2), // drains, then off
            10 => {
                sim.power_on(2);
                sim.set_service_scale(3, 0.5);
            }
            12 => {
                sim.set_module_weights(&[0.2, 0.3, 0.5]).unwrap();
                sim.set_computer_weights(0, &[0.5, 0.0, 0.25, 0.25])
                    .unwrap();
            }
            _ => {}
        }
        let t0 = w as f64 * WINDOW_S;
        let spacing = WINDOW_S / per_window as f64;
        for k in 0..per_window {
            sim.schedule_arrival(t0 + k as f64 * spacing, SHARD_DEMAND_S)
                .unwrap();
        }
        sim.run_until(t0 + WINDOW_S).unwrap();
        obs.computer_stats.push(sim.drain_computer_stats());
        obs.module_stats.push(sim.drain_module_stats());
        obs.rejections.push(sim.drain_dispatch_rejections());
        obs.energy_bits.push(sim.total_energy().to_bits());
        obs.dropped.push(sim.dropped());
        obs.states.push(
            (0..sim.num_computers())
                .map(|i| sim.computer(i).state())
                .collect(),
        );
    }
    obs.completed = (0..sim.num_computers())
        .map(|i| sim.computer(i).completed())
        .collect();
    obs
}

/// The worker-count override is process-global, so all shard arms run
/// sequentially inside this one test — never split them across #[test]s
/// that cargo would run concurrently.
#[test]
fn sharded_step_bit_identical_at_1_2_and_8_shards_under_crash_restart() {
    let serial = llc_par::with_threads(1, || run_windowed(16));
    let two = llc_par::with_threads(2, || run_windowed(16));
    let eight = llc_par::with_threads(8, || run_windowed(16));
    assert!(
        serial.dropped.last().copied().unwrap_or(0) > 0,
        "scenario must actually lose work to exercise drop ordering"
    );
    assert!(
        serial.rejections.iter().flatten().any(|&r| r > 0),
        "scenario must exercise dispatcher rejections"
    );
    assert_eq!(serial, two, "2 shards diverged from serial");
    assert_eq!(serial, eight, "8 shards diverged from serial");
}
