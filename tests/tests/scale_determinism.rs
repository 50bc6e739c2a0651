//! Scale-path regression tests: the sharded sweep must be bit-identical
//! at any worker count — including across the crash-restart fault
//! sequence, the hardest ordering case — and a batch run must equal the
//! same arrivals scheduled one by one: same drops and dispatcher
//! rejections, same service when the two encodings overlap in a window.

use llc_sim::{ClusterConfig, ClusterSim, ComputerConfig, PowerModel, PowerState, WindowStats};

const WINDOW_S: f64 = 30.0;
const DEMAND_S: f64 = 0.0175;
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

/// Drive the crash-restart fault sequence through the plant in window
/// batches: near-capacity traffic, a hard crash (work lost) plus a
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
        sim.inject_batch(t0, WINDOW_S, per_window, SHARD_DEMAND_S)
            .unwrap();
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

#[test]
fn batched_drops_match_per_request_stream_with_dead_member() {
    // One module, two machines at 50/50, the second crashed: the router
    // keeps offering it every other request. The batch must be charged
    // the identical drop total, module drop count and per-machine
    // dispatcher rejections as the per-request stream.
    let build = || {
        let comp = || ComputerConfig::new(vec![1.0e9], PowerModel::paper_default(), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig {
            modules: vec![vec![comp(), comp()]],
        });
        sim.force_on(0);
        sim.force_on(1);
        sim.set_module_weights(&[1.0]).unwrap();
        sim.set_computer_weights(0, &[0.5, 0.5]).unwrap();
        sim.run_until(1.0).unwrap();
        sim.crash(1, false);
        sim
    };
    let count = 500u64;

    let mut per_req = build();
    let spacing = WINDOW_S / count as f64;
    for k in 0..count {
        per_req
            .schedule_arrival(1.0 + k as f64 * spacing, DEMAND_S)
            .unwrap();
    }
    per_req.run_until(1.0 + WINDOW_S).unwrap();

    let mut batched = build();
    batched
        .inject_batch(1.0, WINDOW_S, count, DEMAND_S)
        .unwrap();
    batched.run_until(1.0 + WINDOW_S).unwrap();

    assert_eq!(per_req.dropped(), 250);
    assert_eq!(batched.dropped(), per_req.dropped());
    assert_eq!(
        batched.drain_dispatch_rejections(),
        per_req.drain_dispatch_rejections()
    );
    let (mb, mp) = (batched.drain_module_stats(), per_req.drain_module_stats());
    assert_eq!(mb[0].arrivals, mp[0].arrivals);
    assert_eq!(mb[0].dropped, mp[0].dropped);
    // The surviving machine saw the same admitted load either way.
    let (cb, cp) = (
        batched.drain_computer_stats(),
        per_req.drain_computer_stats(),
    );
    assert_eq!(cb[0].arrivals, cp[0].arrivals);
    assert_eq!(cb[0].completions, cp[0].completions);
}

#[test]
fn single_member_batched_window_is_bit_identical_to_per_request() {
    // With one member per router the dispatch interleave vanishes, so
    // batched and per-request runs see identical arrival instants —
    // responses, demands and energy must match to the last bit.
    let build = || {
        let mut sim = ClusterSim::new(ClusterConfig {
            modules: vec![vec![ComputerConfig::new(
                vec![0.5e9, 1.0e9],
                PowerModel::paper_default(),
                0.0,
            )]],
        });
        sim.force_on(0);
        sim.set_module_weights(&[1.0]).unwrap();
        sim.set_computer_weights(0, &[1.0]).unwrap();
        sim
    };
    let count = 1200u64; // ~0.7 utilization: real queueing inside windows

    let mut per_req = build();
    for w in 0..4u64 {
        let t0 = w as f64 * WINDOW_S;
        let spacing = WINDOW_S / count as f64;
        for k in 0..count {
            per_req
                .schedule_arrival(t0 + k as f64 * spacing, DEMAND_S)
                .unwrap();
        }
        per_req.run_until(t0 + WINDOW_S).unwrap();
    }
    let mut batched = build();
    for w in 0..4u64 {
        let t0 = w as f64 * WINDOW_S;
        batched.inject_batch(t0, WINDOW_S, count, DEMAND_S).unwrap();
        batched.run_until(t0 + WINDOW_S).unwrap();
    }

    assert_eq!(per_req.dropped(), batched.dropped());
    assert_eq!(
        per_req.total_energy().to_bits(),
        batched.total_energy().to_bits(),
        "energy bit-identical"
    );
    let (sp, sb) = (
        per_req.drain_computer_stats(),
        batched.drain_computer_stats(),
    );
    assert_eq!(sp, sb, "window stats bit-identical");
    assert!(sp[0].completions > 0);
}

#[test]
fn overlapping_batches_and_requests_merge_by_time() {
    // Twenty 1 s requests on one machine, two at each of t = 0, 3, …, 27,
    // written as per-request arrivals, as two overlapping batches, and
    // as one batch plus per-request arrivals in either submission order.
    // Served in time order each pair costs responses 1 s + 2 s; served
    // run after run (the bug: the second batch's first arrival admitted
    // after the first batch's last) only 12 finish in the window.
    enum Half {
        Batch,
        Requests,
    }
    let run = |halves: [Half; 2]| {
        let mut sim = ClusterSim::new(ClusterConfig {
            modules: vec![vec![ComputerConfig::new(
                vec![1.0e9],
                PowerModel::paper_default(),
                0.0,
            )]],
        });
        sim.force_on(0);
        sim.set_module_weights(&[1.0]).unwrap();
        sim.set_computer_weights(0, &[1.0]).unwrap();
        for half in halves {
            match half {
                Half::Batch => sim.inject_batch(0.0, WINDOW_S, 10, 1.0).unwrap(),
                Half::Requests => {
                    for k in 0..10 {
                        sim.schedule_arrival(f64::from(k) * 3.0, 1.0).unwrap();
                    }
                }
            }
        }
        sim.run_until(WINDOW_S).unwrap();
        let energy = sim.total_energy().to_bits();
        (sim.drain_computer_stats(), energy)
    };
    let reference = run([Half::Requests, Half::Requests]);
    assert_eq!(reference.0[0].completions, 20);
    assert_eq!(reference.0[0].response_sum, 30.0);
    assert_eq!(f64::from_bits(reference.1), 42.5);
    assert_eq!(run([Half::Batch, Half::Batch]), reference, "batch + batch");
    assert_eq!(
        run([Half::Batch, Half::Requests]),
        reference,
        "batch, then per-request"
    );
    assert_eq!(
        run([Half::Requests, Half::Batch]),
        reference,
        "per-request, then batch"
    );
}
