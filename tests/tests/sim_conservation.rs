//! Property tests over generated control sequences: the simulator never
//! loses or invents requests — arrivals = completions + still-queued +
//! explicitly dropped, always — and its per-machine timeline sweep agrees
//! bit for bit with a global event heap driving the same machine state
//! machine.

use llc_sim::{
    Admission, ClusterConfig, ClusterSim, ComputerConfig, MachineSlabs, PowerModel, PowerState,
    Request, WeightedRouter, WindowStats,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Two modules of two machines, unequal in speed, frequency table and
/// boot dead time.
fn machines() -> Vec<Vec<ComputerConfig>> {
    let comp = |freqs: &[f64], speed: f64, boot: f64| {
        ComputerConfig::new(freqs.to_vec(), PowerModel::paper_default(), boot).with_speed(speed)
    };
    vec![
        vec![
            comp(&[1.0e9, 2.0e9], 1.0, 45.0),
            comp(&[0.5e9, 1.0e9], 0.8, 20.0),
        ],
        vec![
            comp(&[1.0e9, 2.0e9], 1.2, 45.0),
            comp(&[0.7e9, 1.4e9], 1.0, 0.0),
        ],
    ]
}
const COMPUTERS: usize = 4;
const FREQUENCIES: usize = 2;

// ----- the oracle: the plant as one global event heap ------------------

enum Kind {
    /// A scheduled request, routed when it fires.
    Arrival(Request),
    Departure {
        comp: usize,
        epoch: u64,
    },
    BootDone {
        comp: usize,
        epoch: u64,
    },
}

struct Event {
    time: f64,
    seq: u64,
    kind: Kind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: BinaryHeap is a max-heap, we need earliest-first, ties in
    // push order.
    fn cmp(&self, other: &Self) -> Ordering {
        let by_time = other.time.total_cmp(&self.time);
        by_time.then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduler `ClusterSim` had before its machines were swept one
/// timeline each: every arrival, departure and boot-done of the whole
/// cluster in one `(time, push order)` heap, stale departures and boots
/// cancelled by a per-machine epoch. It drives the same public
/// [`MachineSlabs`] state machine and the same routers, so it can differ
/// from `ClusterSim` in the order of events only.
struct HeapSim {
    now: f64,
    slabs: MachineSlabs,
    modules: Vec<Vec<usize>>,
    global: WeightedRouter,
    routers: Vec<WeightedRouter>,
    module_stats: Vec<WindowStats>,
    events: BinaryHeap<Event>,
    seq: u64,
    next_id: u64,
    epoch: Vec<u64>,
    stuck: Vec<bool>,
    dropped: u64,
    rejected: Vec<u64>,
}

impl HeapSim {
    fn new(config: &[Vec<ComputerConfig>]) -> Self {
        let mut slabs = MachineSlabs::new();
        let modules: Vec<Vec<usize>> = config
            .iter()
            .map(|module| {
                let push =
                    |c: &ComputerConfig| slabs.push(&c.frequencies, c.speed, c.power, c.boot_delay);
                module.iter().map(push).collect()
            })
            .collect();
        HeapSim {
            now: 0.0,
            global: WeightedRouter::new(modules.len()),
            routers: modules
                .iter()
                .map(|m| WeightedRouter::new(m.len()))
                .collect(),
            module_stats: vec![WindowStats::default(); modules.len()],
            events: BinaryHeap::new(),
            seq: 0,
            next_id: 0,
            epoch: vec![0; slabs.len()],
            stuck: vec![false; slabs.len()],
            dropped: 0,
            rejected: vec![0; slabs.len()],
            slabs,
            modules,
        }
    }

    fn push(&mut self, time: f64, kind: Kind) {
        self.seq += 1;
        let seq = self.seq;
        self.events.push(Event { time, seq, kind });
    }

    fn request(&mut self, time: f64, demand: f64) -> Request {
        self.next_id += 1;
        Request::new(self.next_id, time, demand)
    }

    /// (Re)schedule the departure of `comp`'s in-service request, if it
    /// has one, cancelling any scheduled before.
    fn arm(&mut self, comp: usize) {
        if let Some(t) = self.slabs.completion_time(comp) {
            self.epoch[comp] += 1;
            let epoch = self.epoch[comp];
            self.push(t, Kind::Departure { comp, epoch });
        }
    }

    fn schedule_arrival(&mut self, time: f64, demand: f64) {
        let request = self.request(time, demand);
        self.push(time, Kind::Arrival(request));
    }

    fn offer(&mut self, m: usize, comp: usize, request: Request) {
        match self.slabs.offer(comp, request, self.now) {
            Admission::Started => self.arm(comp),
            Admission::Queued => {}
            Admission::Rejected => {
                self.module_stats[m].dropped += 1;
                self.dropped += 1;
                self.rejected[comp] += 1;
            }
        }
    }

    /// Route `request` inside module `m` and offer it there.
    fn dispatch(&mut self, m: usize, request: Request) {
        match self.routers[m].route() {
            Some(local) => self.offer(m, self.modules[m][local], request),
            None => {
                self.module_stats[m].dropped += 1;
                self.dropped += 1;
            }
        }
    }

    fn power_on(&mut self, i: usize) {
        if let Some(ready_at) = self.slabs.power_on(i, self.now) {
            self.epoch[i] += 1;
            let epoch = self.epoch[i];
            if ready_at.is_finite() {
                self.push(ready_at, Kind::BootDone { comp: i, epoch });
            }
        }
    }

    fn power_off(&mut self, i: usize) {
        self.slabs.power_off(i, self.now);
        if self.slabs.state(i) == PowerState::Off {
            self.epoch[i] += 1; // a cancelled boot must not complete
        }
    }

    fn set_frequency(&mut self, i: usize, index: usize) {
        if !self.stuck[i] {
            self.slabs.set_frequency_index(i, index, self.now);
            self.arm(i);
        }
    }

    fn set_service_scale(&mut self, i: usize, scale: f64) {
        self.slabs.set_service_scale(i, scale, self.now);
        self.arm(i);
    }

    fn crash(&mut self, i: usize, requeue: bool) {
        let lost = self.slabs.fail(i, self.now);
        self.epoch[i] += 1;
        let m = self.modules.iter().position(|m| m.contains(&i)).unwrap();
        if requeue {
            lost.into_iter()
                .for_each(|request| self.dispatch(m, request));
        } else {
            self.module_stats[m].dropped += lost.len() as u64;
            self.dropped += lost.len() as u64;
        }
    }

    fn restart(&mut self, i: usize) {
        self.slabs.repair(i, self.now);
        self.power_on(i);
    }

    fn run_until(&mut self, t: f64) {
        while self.events.peek().is_some_and(|head| head.time <= t) {
            let event = self.events.pop().unwrap();
            self.now = event.time;
            match event.kind {
                Kind::Arrival(request) => match self.global.route() {
                    Some(m) => {
                        self.module_stats[m].arrivals += 1;
                        self.dispatch(m, request);
                    }
                    None => self.dropped += 1,
                },
                Kind::Departure { comp, epoch } if epoch == self.epoch[comp] => {
                    self.slabs.complete(comp, self.now);
                    self.arm(comp);
                }
                Kind::BootDone { comp, epoch } if epoch == self.epoch[comp] => {
                    if self.slabs.finish_boot(comp, self.now) {
                        self.arm(comp);
                    }
                }
                Kind::Departure { .. } | Kind::BootDone { .. } => {} // cancelled
            }
        }
        self.now = t;
    }
}

// ----- generated control sequences -------------------------------------

#[derive(Debug, Clone)]
enum Op {
    PowerOn(usize),
    PowerOff(usize),
    SetFrequency(usize, usize),
    SetModuleWeights(Vec<f64>),
    SetWeights(usize, Vec<f64>),
    /// `k` requests over the next 2 s, two to an instant, demands varied
    /// so that the order of simultaneous arrivals shows in the stats.
    Arrivals(u8),
    /// `k` requests starting 7 s out — beyond a 5 s advance.
    Later(u8),
    Crash(usize, bool),
    Restart(usize),
    SetServiceScale(usize, f64),
    StickActuator(usize, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let computer = || 0..COMPUTERS;
    let flag = || (0u8..2).prop_map(|b| b == 1);
    prop_oneof![
        computer().prop_map(Op::PowerOn),
        computer().prop_map(Op::PowerOff),
        (computer(), 0..FREQUENCIES).prop_map(|(c, f)| Op::SetFrequency(c, f)),
        proptest::collection::vec(0.0..1.0f64, 2).prop_map(Op::SetModuleWeights),
        (0..2usize, proptest::collection::vec(0.0..1.0f64, 2))
            .prop_map(|(m, w)| Op::SetWeights(m, w)),
        (0u8..40).prop_map(Op::Arrivals),
        (0u8..40).prop_map(Op::Arrivals),
        (0u8..20).prop_map(Op::Later),
        (computer(), flag()).prop_map(|(c, requeue)| Op::Crash(c, requeue)),
        computer().prop_map(Op::Restart),
        (computer(), 0.3..1.0f64).prop_map(|(c, s)| Op::SetServiceScale(c, s)),
        (computer(), flag()).prop_map(|(c, stuck)| Op::StickActuator(c, stuck)),
    ]
}

/// Apply `op` at the current instant to the engine and the oracle alike;
/// returns how many requests it submitted.
fn apply(op: &Op, sim: &mut ClusterSim, oracle: &mut HeapSim) -> u64 {
    let now = sim.now();
    let mut schedule = |k: u8, at: &dyn Fn(u8) -> f64| {
        for j in 0..k {
            let demand = 0.01 * f64::from(1 + j % 3);
            sim.schedule_arrival(at(j), demand).unwrap();
            oracle.schedule_arrival(at(j), demand);
        }
        u64::from(k)
    };
    match op {
        Op::Arrivals(k) => return schedule(*k, &|j| now + f64::from(j / 2) * 0.1),
        Op::Later(k) => return schedule(*k, &|j| now + 7.0 + f64::from(j) * 0.5),
        Op::PowerOn(i) => {
            sim.power_on(*i);
            oracle.power_on(*i);
        }
        Op::PowerOff(i) => {
            sim.power_off(*i);
            oracle.power_off(*i);
        }
        Op::SetFrequency(i, f) => {
            sim.set_frequency(*i, *f);
            oracle.set_frequency(*i, *f);
        }
        Op::SetModuleWeights(w) => {
            sim.set_module_weights(w).unwrap();
            oracle.global.set_weights(w);
        }
        Op::SetWeights(m, w) => {
            sim.set_computer_weights(*m, w).unwrap();
            oracle.routers[*m].set_weights(w);
        }
        Op::Crash(i, requeue) => {
            sim.crash(*i, *requeue);
            oracle.crash(*i, *requeue);
        }
        Op::Restart(i) => {
            sim.restart(*i);
            oracle.restart(*i);
        }
        Op::SetServiceScale(i, scale) => {
            sim.set_service_scale(*i, *scale);
            oracle.set_service_scale(*i, *scale);
        }
        Op::StickActuator(i, stuck) => {
            sim.set_actuator_stuck(*i, *stuck);
            oracle.stuck[*i] = *stuck;
        }
    }
    0
}

/// Advance both to `t` and compare everything an observer can read.
/// Returns the completions of the window.
fn advance_and_compare(
    sim: &mut ClusterSim,
    oracle: &mut HeapSim,
    t: f64,
) -> Result<u64, TestCaseError> {
    sim.run_until(t).unwrap();
    oracle.run_until(t);
    let energy: f64 = (0..COMPUTERS).map(|i| oracle.slabs.energy_at(i, t)).sum();
    prop_assert_eq!(
        sim.total_energy().to_bits(),
        energy.to_bits(),
        "energy at {}",
        t
    );
    let stats = sim.drain_computer_stats();
    let oracle_stats: Vec<WindowStats> = (0..COMPUTERS)
        .map(|i| oracle.slabs.drain_stats(i, t))
        .collect();
    prop_assert_eq!(&stats, &oracle_stats, "window stats at {}", t);
    let oracle_modules: Vec<WindowStats> =
        oracle.module_stats.iter_mut().map(|s| s.drain()).collect();
    prop_assert_eq!(
        sim.drain_module_stats(),
        oracle_modules,
        "module stats at {}",
        t
    );
    prop_assert_eq!(sim.dropped(), oracle.dropped, "drops at {}", t);
    let oracle_rejected: Vec<u64> = oracle.rejected.iter_mut().map(std::mem::take).collect();
    prop_assert_eq!(sim.drain_dispatch_rejections(), oracle_rejected);
    for i in 0..COMPUTERS {
        prop_assert_eq!(sim.computer(i).state(), oracle.slabs.state(i));
        prop_assert_eq!(sim.computer(i).queue_length(), oracle.slabs.queue_length(i));
    }
    Ok(stats.iter().map(|w| w.completions).sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_are_conserved_under_random_control(
        // Each op is followed by no advance, 5 s (twice as likely) or 50 s.
        steps in proptest::collection::vec((op_strategy(), 0u8..4), 1..80)
    ) {
        let mut sim = ClusterSim::new(ClusterConfig { modules: machines() });
        let mut oracle = HeapSim::new(&machines());
        let warm_up = [
            Op::SetModuleWeights(vec![1.0, 1.0]),
            Op::SetWeights(0, vec![1.0, 1.0]),
            Op::SetWeights(1, vec![1.0, 1.0]),
            Op::PowerOn(0),
            Op::PowerOn(3),
        ];
        for op in &warm_up {
            apply(op, &mut sim, &mut oracle);
        }

        let mut injected: u64 = 0;
        let mut completed: u64 = 0;
        for (op, advance) in &steps {
            injected += apply(op, &mut sim, &mut oracle);
            let dt = [0.0, 5.0, 5.0, 50.0][usize::from(*advance)];
            if dt > 0.0 {
                let t = sim.now() + dt;
                completed += advance_and_compare(&mut sim, &mut oracle, t)?;
            }
        }
        // Long drain so everything that can complete does.
        apply(&Op::Restart(0), &mut sim, &mut oracle);
        let t = sim.now() + 10_000.0;
        completed += advance_and_compare(&mut sim, &mut oracle, t)?;

        let queued: u64 = (0..COMPUTERS)
            .map(|i| sim.computer(i).queue_length() as u64)
            .sum();
        prop_assert_eq!(
            injected,
            completed + queued + sim.dropped(),
            "conservation violated: injected {} vs completed {} + queued {} + dropped {}",
            injected, completed, queued, sim.dropped()
        );
        // Energy must be finite and non-negative whatever happened.
        prop_assert!(sim.total_energy().is_finite());
        prop_assert!(sim.total_energy() >= 0.0);
    }
}
