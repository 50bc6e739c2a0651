use crate::machines::{Admission, ComputerRef, MachineLane, MachineSlabs, Pending};
use crate::{PowerModel, Request, WeightedRouter, WindowStats};
use std::fmt;

/// Errors reported by the cluster simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A computer index was out of range.
    UnknownComputer(usize),
    /// A module index was out of range.
    UnknownModule(usize),
    /// A weight vector had the wrong length for its router.
    WeightLengthMismatch {
        /// Targets expected by the router.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// `run_until` / `schedule_arrival` was asked to move into the past.
    TimeRanBackwards {
        /// Current simulation time.
        now: f64,
        /// The offending requested time.
        requested: f64,
    },
    /// A trace asked for more arrivals in one window than a plant will
    /// materialise.
    WindowTooLarge {
        /// The offending base tick.
        tick: usize,
        /// Arrivals the trace carries for it.
        arrivals: f64,
        /// The most a window may carry.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownComputer(i) => write!(f, "no computer with index {i}"),
            SimError::UnknownModule(i) => write!(f, "no module with index {i}"),
            SimError::WeightLengthMismatch { expected, got } => {
                write!(
                    f,
                    "weight vector has length {got}, router expects {expected}"
                )
            }
            SimError::TimeRanBackwards { now, requested } => {
                write!(f, "requested time {requested} precedes current time {now}")
            }
            SimError::WindowTooLarge {
                tick,
                arrivals,
                max,
            } => write!(
                f,
                "tick {tick} carries {arrivals} arrivals, a window holds at most {max}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Static description of one computer.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputerConfig {
    /// Operating frequencies in Hz, strictly ascending.
    pub frequencies: Vec<f64>,
    /// Relative full-speed capacity (1.0 = reference machine).
    pub speed: f64,
    /// Power model parameters.
    pub power: PowerModel,
    /// Switch-on dead time in seconds.
    pub boot_delay: f64,
}

impl ComputerConfig {
    /// A reference-speed computer with the given frequency set, power
    /// model and boot delay.
    pub fn new(frequencies: Vec<f64>, power: PowerModel, boot_delay: f64) -> Self {
        ComputerConfig {
            frequencies,
            speed: 1.0,
            power,
            boot_delay,
        }
    }

    /// Override the relative speed.
    #[must_use]
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }
}

/// Static description of the whole cluster: computers grouped into the
/// paper's modules (Fig. 2(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// One inner vector of computer configs per module.
    pub modules: Vec<Vec<ComputerConfig>>,
}

/// Arrivals in one sweep below which the lanes are stepped inline. A
/// scoped-thread fan-out costs on the order of 100 µs and a lane spends
/// some 24 ns per arrival it offers (2-core Xeon at 2.1 GHz), so
/// `bench_scale`'s 16-machine row (15 496 arrivals, 0.4 ms of sweep a
/// window) is stepped inline, while its 128-machine row (123 183
/// arrivals, 3 ms) and 1000-machine row fan out. Only the sweep fans
/// out; routing the due arrivals stays serial. The closed loops, at a
/// few thousand arrivals a window, never fan out.
const FAN_OUT_MIN_ARRIVALS: u64 = 50_000;

/// The cluster simulator (the plant of Fig. 1(a)).
///
/// Per-machine state lives in [`MachineSlabs`] — struct-of-arrays slabs
/// indexed by global machine id — so sweeping a 1000-machine cluster walks
/// flat vectors instead of chasing per-machine heap allocations.
///
/// Arrivals enter one request at a time through
/// [`ClusterSim::schedule_arrival`]. The next advance that reaches a
/// request's arrival time sends it through the two-level dispatcher
/// (global → module → computer) realizing the γ fractions set by the
/// controllers, one draw per router. Request ids are assigned in
/// submission order, and each computer is offered its share in
/// `(arrival time, id)` order.
///
/// [`ClusterSim::run_until`] is the one way time moves. The routers never
/// read machine state and weights only change between advances, so once
/// the due arrivals are routed every computer is an independent FCFS
/// system: the advance sweeps each one's local timeline (boot-done,
/// completion, arrival) to the target, sharded across threads when the
/// window carries enough work, bit-identical for any shard count. Between
/// advances the controllers observe per-computer [`WindowStats`] and
/// actuate frequencies, power states and weights.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    now: f64,
    machines: MachineSlabs,
    /// Global indices of the computers of each module.
    modules: Vec<Vec<usize>>,
    /// Module that each computer belongs to (inverse of `modules`).
    module_of: Vec<usize>,
    global_router: WeightedRouter,
    module_routers: Vec<WeightedRouter>,
    module_stats: Vec<WindowStats>,
    next_request_id: u64,
    /// Per-request arrivals not yet routed, in submission order.
    scheduled: Vec<Request>,
    dropped_total: u64,
    /// Per-computer wedged-actuator flags: while set, frequency
    /// directives for that computer are silently ignored (the fault the
    /// hierarchy must survive, not an error).
    stuck_actuators: Vec<bool>,
    /// Per-computer dispatcher-side rejection counters: requests the
    /// module router offered to a computer that the computer refused
    /// (crashed machine, or no admissible operating state). Counted at
    /// the *router*, not the machine, so the management plane can read
    /// them even when the machine's own telemetry has gone dark — a
    /// dispatcher always knows its own failed sends.
    dispatch_rejected: Vec<u64>,
    /// Per-computer routed arrivals awaiting the next sweep.
    pending: Vec<Pending>,
    /// What each lane of the last sweep refused; kept for its buffer.
    lane_rejections: Vec<u64>,
}

impl ClusterSim {
    /// Build the simulator at time 0 with every computer `Off`.
    ///
    /// # Panics
    ///
    /// Panics if the config has no modules or an empty module (the
    /// machine slab constructor validates the rest).
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            !config.modules.is_empty(),
            "cluster needs at least one module"
        );
        assert!(
            config.modules.iter().all(|m| !m.is_empty()),
            "every module needs at least one computer"
        );
        let mut machines = MachineSlabs::new();
        let mut modules = Vec::new();
        let mut module_of = Vec::new();
        for (m, module_cfg) in config.modules.iter().enumerate() {
            let mut indices = Vec::with_capacity(module_cfg.len());
            for c in module_cfg {
                indices.push(machines.push(&c.frequencies, c.speed, c.power, c.boot_delay));
                module_of.push(m);
            }
            modules.push(indices);
        }
        let module_routers = modules
            .iter()
            .map(|m| WeightedRouter::new(m.len()))
            .collect();
        let module_count = modules.len();
        let computer_count = machines.len();
        ClusterSim {
            now: 0.0,
            machines,
            modules,
            module_of,
            global_router: WeightedRouter::new(module_count),
            module_routers,
            module_stats: vec![WindowStats::default(); module_count],
            next_request_id: 0,
            scheduled: Vec::new(),
            dropped_total: 0,
            stuck_actuators: vec![false; computer_count],
            dispatch_rejected: vec![0; computer_count],
            pending: vec![Pending::default(); computer_count],
            lane_rejections: Vec::with_capacity(computer_count),
        }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of computers in the cluster.
    pub fn num_computers(&self) -> usize {
        self.machines.len()
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Global computer indices belonging to module `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn module_members(&self, m: usize) -> &[usize] {
        &self.modules[m]
    }

    /// Read-only view of computer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn computer(&self, i: usize) -> ComputerRef<'_> {
        assert!(i < self.machines.len(), "no computer with index {i}");
        ComputerRef::new(&self.machines, i)
    }

    /// Total requests dropped because no operating target existed.
    pub fn dropped(&self) -> u64 {
        self.dropped_total
    }

    /// Total energy consumed by all computers up to the current time.
    pub fn total_energy(&self) -> f64 {
        (0..self.machines.len())
            .map(|i| self.machines.energy_at(i, self.now))
            .sum()
    }

    /// Schedule a request arrival at absolute time `time` with full-speed
    /// demand `demand` seconds. It stays buffered, unrouted, until an
    /// advance reaches `time`.
    ///
    /// # Errors
    ///
    /// [`SimError::TimeRanBackwards`] if `time < now`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite or `demand` is not positive and
    /// finite.
    pub fn schedule_arrival(&mut self, time: f64, demand: f64) -> Result<(), SimError> {
        if time < self.now {
            return Err(SimError::TimeRanBackwards {
                now: self.now,
                requested: time,
            });
        }
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.scheduled.push(Request::new(id, time, demand));
        Ok(())
    }

    /// Set the global dispatch fractions `{γ_i}` over modules.
    ///
    /// # Errors
    ///
    /// [`SimError::WeightLengthMismatch`] on wrong length.
    pub fn set_module_weights(&mut self, weights: &[f64]) -> Result<(), SimError> {
        if weights.len() != self.modules.len() {
            return Err(SimError::WeightLengthMismatch {
                expected: self.modules.len(),
                got: weights.len(),
            });
        }
        self.global_router.set_weights(weights);
        Ok(())
    }

    /// Set module `m`'s dispatch fractions `{γ_ij}` over its computers.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownModule`] / [`SimError::WeightLengthMismatch`].
    pub fn set_computer_weights(&mut self, m: usize, weights: &[f64]) -> Result<(), SimError> {
        let router = self
            .module_routers
            .get_mut(m)
            .ok_or(SimError::UnknownModule(m))?;
        if weights.len() != router.len() {
            return Err(SimError::WeightLengthMismatch {
                expected: router.len(),
                got: weights.len(),
            });
        }
        router.set_weights(weights);
        Ok(())
    }

    /// Order computer `i` on (takes `boot_delay` to become operational).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn power_on(&mut self, i: usize) {
        self.machines.power_on(i, self.now);
    }

    /// Initialization helper: force computer `i` straight into `On`
    /// (no boot delay, no switch-on count). Use only while constructing a
    /// pre-warmed scenario before the first advance.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn force_on(&mut self, i: usize) {
        self.machines.force_on(i, self.now);
    }

    /// Order computer `i` off (drains if busy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn power_off(&mut self, i: usize) {
        self.machines.power_off(i, self.now);
    }

    /// Set computer `i`'s frequency by index into its frequency table.
    /// A directive to a [wedged actuator](ClusterSim::set_actuator_stuck)
    /// is silently ignored — exactly the fault a controller experiences
    /// when a DVFS governor stops responding.
    ///
    /// # Panics
    ///
    /// Panics if `i` or the index is out of range.
    pub fn set_frequency(&mut self, i: usize, index: usize) {
        if self.stuck_actuators[i] {
            assert!(
                index < self.machines.frequencies(i).len(),
                "frequency index out of range"
            );
            return;
        }
        self.machines.set_frequency_index(i, index, self.now);
    }

    /// Inject capacity drift into computer `i`: it keeps its DVFS setting
    /// and power draw but delivers only `scale ∈ (0, 1]` of its nominal
    /// throughput (gradual degradation, post-failure capacity loss — the
    /// drift scenarios online learning is measured against). The
    /// in-service request is re-timed like a frequency change.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `scale` is outside `(0, 1]`.
    pub fn set_service_scale(&mut self, i: usize, scale: f64) {
        self.machines.set_service_scale(i, scale, self.now);
    }

    /// Crash computer `i` at the current time: all queued and in-service
    /// work is ripped out instantly, the machine drops straight to `Off`
    /// and becomes unbootable until [`ClusterSim::restart`]. With
    /// `requeue = false` the lost requests count as drops; with
    /// `requeue = true` each one is re-dispatched through the module's
    /// router at the crash instant (original arrival times preserved, so
    /// their eventual response times include the detour) — requests the
    /// router cannot place still drop.
    ///
    /// Returns the number of requests that were in the machine's system
    /// at the crash.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crash(&mut self, i: usize, requeue: bool) -> usize {
        let now = self.now;
        let lost = self.machines.fail(i, now);
        let count = lost.len();
        let m = self.module_of[i];
        if requeue {
            for request in lost {
                self.redispatch_in_module(m, request);
            }
        } else {
            self.module_stats[m].dropped += count as u64;
            self.dropped_total += count as u64;
        }
        count
    }

    /// Re-offer one crashed-out request inside module `m` at the current
    /// time. The module-level arrival was already counted when the
    /// request first entered the module, so only drops are re-counted.
    fn redispatch_in_module(&mut self, m: usize, request: Request) {
        if let Some(comp) = self.route_in_module(m) {
            if self.machines.offer(comp, request, self.now) == Admission::Rejected {
                self.charge_rejections(comp, 1);
            }
        }
    }

    /// Draw a computer of module `m` for one request; with no enabled
    /// member the request is charged to the module as a drop.
    fn route_in_module(&mut self, m: usize) -> Option<usize> {
        let Some(local) = self.module_routers[m].route() else {
            self.module_stats[m].dropped += 1;
            self.dropped_total += 1;
            return None;
        };
        Some(self.modules[m][local])
    }

    /// Charge `count` requests that computer `comp` refused to its
    /// module's drops, the global drop total and the dispatcher-side
    /// rejection counter.
    fn charge_rejections(&mut self, comp: usize, count: u64) {
        self.module_stats[self.module_of[comp]].dropped += count;
        self.dropped_total += count;
        self.dispatch_rejected[comp] += count;
    }

    /// Restart a crashed computer: clears the failed mark and issues a
    /// power-on order, so the machine comes back through the normal
    /// Off→Booting boot dead time. No-op if `i` never crashed and is
    /// already active.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn restart(&mut self, i: usize) {
        let now = self.now;
        self.machines.repair(i, now);
        self.power_on(i);
    }

    /// Wedge (`true`) or free (`false`) computer `i`'s frequency
    /// actuator. While wedged, [`ClusterSim::set_frequency`] directives
    /// are silently ignored and the machine keeps serving at whatever
    /// operating point it was last left at.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_actuator_stuck(&mut self, i: usize, stuck: bool) {
        assert!(i < self.machines.len(), "no computer with index {i}");
        self.stuck_actuators[i] = stuck;
    }

    /// `true` while computer `i`'s frequency actuator is wedged.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[cfg(test)]
    pub(crate) fn actuator_stuck(&self, i: usize) -> bool {
        self.stuck_actuators[i]
    }

    /// Drain per-computer window statistics (resetting them), in global
    /// computer order. Each window carries the energy drawn since the
    /// previous drain (integrated up to the current simulation time).
    pub fn drain_computer_stats(&mut self) -> Vec<WindowStats> {
        let mut stats = Vec::new();
        self.drain_computer_stats_into(&mut stats);
        stats
    }

    /// [`ClusterSim::drain_computer_stats`], overwriting `stats` — a
    /// buffer kept from window to window is allocated once.
    pub fn drain_computer_stats_into(&mut self, stats: &mut Vec<WindowStats>) {
        let now = self.now;
        stats.clear();
        stats.extend((0..self.machines.len()).map(|i| self.machines.drain_stats(i, now)));
    }

    /// Drain per-module arrival statistics (module-level routing counts).
    pub fn drain_module_stats(&mut self) -> Vec<WindowStats> {
        let mut stats = Vec::new();
        self.drain_module_stats_into(&mut stats);
        stats
    }

    /// [`ClusterSim::drain_module_stats`], overwriting `stats`.
    pub fn drain_module_stats_into(&mut self, stats: &mut Vec<WindowStats>) {
        stats.clear();
        stats.extend(self.module_stats.iter_mut().map(|s| s.drain()));
    }

    /// Drain the per-computer dispatcher-side rejection counters
    /// (resetting them), in global computer order: how many requests the
    /// module router offered to each computer since the previous drain
    /// that the computer refused. Unlike [`ClusterSim::drain_computer_stats`]
    /// this is *router-side* telemetry — it stays observable when a
    /// machine crashes or its sensors black out, because the dispatcher
    /// measures its own failed sends.
    pub fn drain_dispatch_rejections(&mut self) -> Vec<u64> {
        let mut rejections = Vec::new();
        self.drain_dispatch_rejections_into(&mut rejections);
        rejections
    }

    /// [`ClusterSim::drain_dispatch_rejections`], overwriting
    /// `rejections`.
    pub fn drain_dispatch_rejections_into(&mut self, rejections: &mut Vec<u64>) {
        rejections.clear();
        rejections.extend(self.dispatch_rejected.iter_mut().map(std::mem::take));
    }

    /// Advance the plant to absolute time `t`: route the scheduled
    /// arrivals due by `t` in `(time, submission)` order, then sweep every
    /// machine's local timeline to `t`.
    ///
    /// Lanes over disjoint machine slots are stepped inline, or sharded
    /// with `llc_par::par_for_each_mut` when the sweep carries enough
    /// arrivals to pay for the fan-out, and reduced serially in index
    /// order — results are bit-identical for any thread count. Arrivals a
    /// machine refused are charged to module drops, the global drop total
    /// and the per-computer dispatcher rejection counters in that serial
    /// reduction.
    ///
    /// # Errors
    ///
    /// [`SimError::TimeRanBackwards`] if `t < now`.
    pub fn run_until(&mut self, t: f64) -> Result<(), SimError> {
        if t < self.now {
            return Err(SimError::TimeRanBackwards {
                now: self.now,
                requested: t,
            });
        }
        self.route_due(t);
        let arrivals: u64 = self.pending.iter().map(Pending::len).sum();
        self.lane_rejections.clear();
        let lanes = self
            .machines
            .machines_mut()
            .zip(&mut self.pending)
            .map(|(machine, pending)| MachineLane::new(machine, pending));
        if arrivals < FAN_OUT_MIN_ARRIVALS {
            self.lane_rejections.extend(lanes.map(|mut lane| {
                lane.step(t);
                lane.rejected
            }));
        } else {
            let mut lanes: Vec<MachineLane<'_>> = lanes.collect();
            llc_par::par_for_each_mut(&mut lanes, |lane| lane.step(t));
            self.lane_rejections
                .extend(lanes.iter().map(|lane| lane.rejected));
        }
        for comp in 0..self.lane_rejections.len() {
            let count = self.lane_rejections[comp];
            if count > 0 {
                self.charge_rejections(comp, count);
            }
        }
        self.now = t;
        Ok(())
    }

    /// Route the scheduled arrivals due by `t` to their computers'
    /// pending buffers. The sort is stable, so equal-time arrivals keep
    /// submission order and each buffer receives its share already in
    /// `(arrival, id)` order; later arrivals stay unrouted, because the
    /// weights may change before they are due.
    fn route_due(&mut self, t: f64) {
        let mut scheduled = std::mem::take(&mut self.scheduled);
        // A window submitted in time order — the usual case — is left
        // alone: the sort would allocate its merge buffer to move nothing.
        if !scheduled.is_sorted_by(|a, b| a.arrival.total_cmp(&b.arrival).is_le()) {
            scheduled.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        }
        let due = scheduled.partition_point(|r| r.arrival <= t);
        for request in scheduled.drain(..due) {
            let Some(m) = self.global_router.route() else {
                self.dropped_total += 1;
                continue;
            };
            self.module_stats[m].arrivals += 1;
            if let Some(comp) = self.route_in_module(m) {
                self.pending[comp].push(request);
            }
        }
        self.scheduled = scheduled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerState;

    fn one_computer_cluster() -> ClusterSim {
        let cfg = ClusterConfig {
            modules: vec![vec![ComputerConfig::new(
                vec![5.0e8, 1.0e9],
                PowerModel::paper_default(),
                120.0,
            )]],
        };
        let mut sim = ClusterSim::new(cfg);
        sim.set_module_weights(&[1.0]).unwrap();
        sim.set_computer_weights(0, &[1.0]).unwrap();
        sim
    }

    fn two_module_cluster() -> ClusterSim {
        let comp = || ComputerConfig::new(vec![1.0e9], PowerModel::paper_default(), 0.0);
        let cfg = ClusterConfig {
            modules: vec![vec![comp(), comp()], vec![comp(), comp()]],
        };
        ClusterSim::new(cfg)
    }

    #[test]
    fn request_served_end_to_end() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap(); // boot completes
        assert_eq!(sim.computer(0).state(), PowerState::On);
        sim.schedule_arrival(121.0, 0.5).unwrap();
        sim.run_until(125.0).unwrap();
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 1);
        assert!((stats[0].response_sum - 0.5).abs() < 1e-9);
        assert_eq!(sim.dropped(), 0);
    }

    #[test]
    fn requests_during_boot_wait() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.schedule_arrival(60.0, 1.0).unwrap();
        sim.run_until(119.0).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 1);
        sim.run_until(121.5).unwrap();
        // Service starts at 120, 1 s at full speed -> done at 121.
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 1);
        assert!(
            (stats[0].response_sum - 61.0).abs() < 1e-9,
            "waited through boot"
        );
    }

    #[test]
    fn all_off_drops_requests() {
        let mut sim = one_computer_cluster();
        sim.schedule_arrival(1.0, 0.01).unwrap();
        sim.run_until(2.0).unwrap();
        assert_eq!(sim.dropped(), 1);
    }

    #[test]
    fn zero_weights_drop_at_global_router() {
        let mut sim = two_module_cluster();
        // No weights set at all: global router drops.
        sim.schedule_arrival(0.5, 0.01).unwrap();
        sim.run_until(1.0).unwrap();
        assert_eq!(sim.dropped(), 1);
        let m = sim.drain_module_stats();
        assert_eq!(m[0].arrivals + m[1].arrivals, 0);
    }

    #[test]
    fn module_weights_split_arrivals() {
        let mut sim = two_module_cluster();
        for i in 0..4 {
            sim.power_on(i);
        }
        sim.set_module_weights(&[0.75, 0.25]).unwrap();
        sim.set_computer_weights(0, &[0.5, 0.5]).unwrap();
        sim.set_computer_weights(1, &[1.0, 0.0]).unwrap();
        for k in 0..100 {
            sim.schedule_arrival(0.01 * f64::from(k), 0.001).unwrap();
        }
        sim.run_until(10.0).unwrap();
        let m = sim.drain_module_stats();
        assert_eq!(m[0].arrivals, 75);
        assert_eq!(m[1].arrivals, 25);
        let c = sim.drain_computer_stats();
        assert_eq!(c[2].arrivals, 25);
        assert_eq!(c[3].arrivals, 0);
        assert_eq!(sim.dropped(), 0);
    }

    #[test]
    fn dispatch_rejections_attributed_to_crashed_target() {
        let comp = || ComputerConfig::new(vec![1.0e9], PowerModel::paper_default(), 0.0);
        let cfg = ClusterConfig {
            modules: vec![vec![comp(), comp()]],
        };
        let mut sim = ClusterSim::new(cfg);
        sim.power_on(0);
        sim.power_on(1);
        sim.set_module_weights(&[1.0]).unwrap();
        sim.set_computer_weights(0, &[0.5, 0.5]).unwrap();
        sim.run_until(1.0).unwrap();
        sim.crash(1, false);
        // The router still holds 50/50 weights: every other request is
        // offered to the dead machine and refused at the dispatcher.
        for k in 0..10 {
            sim.schedule_arrival(1.1 + 0.01 * f64::from(k), 0.001)
                .unwrap();
        }
        sim.run_until(2.0).unwrap();
        let rej = sim.drain_dispatch_rejections();
        assert_eq!(rej[0], 0, "live machine refused nothing");
        assert_eq!(
            rej[1], 5,
            "dead target's failed sends counted at the router"
        );
        assert_eq!(sim.dropped(), 5);
        // Draining resets.
        assert_eq!(sim.drain_dispatch_rejections(), vec![0, 0]);
    }

    #[test]
    fn frequency_change_mid_service_reschedules_departure() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        sim.schedule_arrival(120.0, 1.0).unwrap();
        sim.run_until(120.5).unwrap();
        sim.set_frequency(0, 0); // φ = 0.5, 0.5 demand left -> 1 s more
        sim.run_until(121.4).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 1, "not done yet");
        sim.run_until(121.6).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 0, "done at 121.5");
    }

    #[test]
    fn stale_departure_events_ignored() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        sim.schedule_arrival(120.0, 1.0).unwrap();
        sim.run_until(120.2).unwrap();
        // Two re-timings of the in-service request: only the last one's
        // completion time may fire.
        sim.set_frequency(0, 0);
        sim.set_frequency(0, 1);
        sim.run_until(130.0).unwrap();
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 1, "exactly one completion");
    }

    #[test]
    fn service_scale_stretches_service_but_not_power() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        assert_eq!(sim.computer(0).service_scale(), 1.0);
        // Degrade to half capacity mid-service: a 2 s request started at
        // t=120 with 1 s of work left at t=121 now finishes at t=123.
        sim.schedule_arrival(120.0, 2.0).unwrap();
        sim.run_until(121.0).unwrap();
        sim.set_service_scale(0, 0.5);
        sim.run_until(122.5).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 1, "not done at 122.5");
        let energy_busy = sim.total_energy();
        sim.run_until(123.1).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 0, "done at 123");
        // Power draw while busy stayed nominal (operating at φ=1):
        // degradation is invisible to the meter.
        let drawn = sim.total_energy() - energy_busy;
        let operating = 0.75 + 1.0; // PowerModel::new(0.75, 8.0) at φ=1
        assert!(
            (drawn - (operating * 0.5 + 0.75 * 0.1)).abs() < 1e-6,
            "busy 122.5..123 at nominal watts then idle, got {drawn}"
        );
    }

    #[test]
    fn cancelled_boot_never_completes() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(60.0).unwrap();
        sim.power_off(0);
        sim.run_until(500.0).unwrap();
        assert_eq!(sim.computer(0).state(), PowerState::Off);
    }

    #[test]
    fn draining_computer_finishes_work_then_off() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        sim.schedule_arrival(120.0, 2.0).unwrap();
        sim.run_until(120.1).unwrap();
        sim.power_off(0);
        assert_eq!(sim.computer(0).state(), PowerState::Draining);
        sim.run_until(123.0).unwrap();
        assert_eq!(sim.computer(0).state(), PowerState::Off);
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 1);
    }

    #[test]
    fn time_cannot_run_backwards() {
        let mut sim = one_computer_cluster();
        sim.run_until(10.0).unwrap();
        assert!(matches!(
            sim.run_until(5.0),
            Err(SimError::TimeRanBackwards { .. })
        ));
        assert!(matches!(
            sim.schedule_arrival(5.0, 0.1),
            Err(SimError::TimeRanBackwards { .. })
        ));
    }

    #[test]
    fn energy_grows_while_active_only() {
        let mut sim = one_computer_cluster();
        sim.run_until(100.0).unwrap();
        assert_eq!(sim.total_energy(), 0.0);
        sim.power_on(0);
        sim.run_until(320.0).unwrap();
        let e = sim.total_energy();
        // Boot [100, 220] at 8.0 + idle-on [220, 320] at 0.75 = 960 + 75.
        assert!((e - 1035.0).abs() < 1e-6, "{e}");
    }

    #[test]
    fn fcfs_queueing_accumulates_response_time() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        // Three back-to-back 1 s requests at t=120.
        for _ in 0..3 {
            sim.schedule_arrival(120.0, 1.0).unwrap();
        }
        sim.run_until(200.0).unwrap();
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 3);
        // Responses: 1, 2, 3 seconds.
        assert!((stats[0].response_sum - 6.0).abs() < 1e-9);
        assert_eq!(stats[0].mean_response(), Some(2.0));
    }

    #[test]
    fn crash_drops_queued_work_and_resists_power_on() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        for _ in 0..3 {
            sim.schedule_arrival(120.0, 1.0).unwrap();
        }
        sim.run_until(120.5).unwrap();
        let in_system = sim.crash(0, false);
        assert_eq!(in_system, 3);
        assert_eq!(sim.dropped(), 3, "lost work counts as drops");
        assert_eq!(sim.computer(0).state(), PowerState::Off);
        assert!(sim.computer(0).is_failed());
        // The ripped-out in-service request must not complete.
        sim.power_on(0); // refused: still failed
        sim.run_until(400.0).unwrap();
        assert_eq!(sim.computer(0).state(), PowerState::Off);
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[0].completions, 0, "a crash completes nothing");
        // Restart boots through the normal dead time.
        sim.restart(0);
        assert!(matches!(
            sim.computer(0).state(),
            PowerState::Booting { .. }
        ));
        sim.run_until(521.0).unwrap();
        assert_eq!(sim.computer(0).state(), PowerState::On);
    }

    #[test]
    fn crash_with_requeue_moves_work_to_module_peer() {
        let mut sim = two_module_cluster();
        for i in 0..4 {
            sim.power_on(i);
        }
        sim.set_module_weights(&[1.0, 0.0]).unwrap();
        sim.set_computer_weights(0, &[1.0, 0.0]).unwrap();
        sim.run_until(1.0).unwrap();
        for _ in 0..4 {
            sim.schedule_arrival(1.0, 1.0).unwrap();
        }
        sim.run_until(1.5).unwrap();
        assert_eq!(sim.computer(0).queue_length(), 4);
        // Shift the module weights to the healthy peer, then crash with
        // requeue: the ripped-out work lands on computer 1 and completes.
        sim.set_computer_weights(0, &[0.0, 1.0]).unwrap();
        let moved = sim.crash(0, true);
        assert_eq!(moved, 4);
        assert_eq!(sim.dropped(), 0, "requeued, not dropped");
        assert_eq!(sim.computer(1).queue_length(), 4);
        sim.run_until(10.0).unwrap();
        let stats = sim.drain_computer_stats();
        assert_eq!(stats[1].completions, 4);
        // Responses include the detour: arrivals at t=1, service on the
        // peer starts only after the crash at t=1.5.
        assert!(stats[1].response_sum > 4.0);
    }

    #[test]
    fn stuck_actuator_ignores_frequency_directives() {
        let mut sim = one_computer_cluster();
        sim.power_on(0);
        sim.run_until(120.0).unwrap();
        sim.set_actuator_stuck(0, true);
        assert!(sim.actuator_stuck(0));
        sim.set_frequency(0, 0); // ignored: actuator wedged
        assert_eq!(sim.computer(0).frequency_index(), 1);
        sim.schedule_arrival(120.0, 1.0).unwrap();
        sim.run_until(121.5).unwrap();
        assert_eq!(
            sim.computer(0).queue_length(),
            0,
            "served at the wedged full-speed point"
        );
        sim.set_actuator_stuck(0, false);
        sim.set_frequency(0, 0);
        assert_eq!(sim.computer(0).frequency_index(), 0, "freed actuator obeys");
    }

    #[test]
    fn error_messages_are_lowercase() {
        for e in [
            SimError::UnknownComputer(1),
            SimError::UnknownModule(2),
            SimError::WeightLengthMismatch {
                expected: 2,
                got: 3,
            },
            SimError::TimeRanBackwards {
                now: 1.0,
                requested: 0.5,
            },
        ] {
            assert!(e.to_string().chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn sweep_is_bit_identical_inline_and_fanned_out() {
        // One window just under the fan-out threshold and one at it, each
        // at one worker and at four: the inline loop, the serial fallback
        // and the sharded sweep must agree to the last bit.
        let run = |threads: usize, count: u64| {
            llc_par::with_threads(threads, || {
                let mut sim = two_module_cluster();
                for i in 0..4 {
                    sim.force_on(i);
                }
                sim.set_module_weights(&[0.6, 0.4]).unwrap();
                sim.set_computer_weights(0, &[0.5, 0.5]).unwrap();
                sim.set_computer_weights(1, &[0.7, 0.3]).unwrap();
                for k in 0..count {
                    sim.schedule_arrival(k as f64 * 30.0 / count as f64, 0.001)
                        .unwrap();
                }
                sim.run_until(30.0).unwrap();
                let energy = sim.total_energy().to_bits();
                (sim.drain_computer_stats(), energy)
            })
        };
        for count in [FAN_OUT_MIN_ARRIVALS - 1, FAN_OUT_MIN_ARRIVALS] {
            let serial = run(1, count);
            assert_eq!(serial.0.iter().map(|w| w.arrivals).sum::<u64>(), count);
            assert_eq!(serial, run(4, count), "{count} arrivals");
        }
    }
}
