use crate::control::{
    ControlPlane, Directive, DirectiveEmit, DirectiveKind, MemberTelemetry, MetricsSnapshot,
    ModuleObservation, ObservationIngest,
};
use crate::policy::ClusterPolicy;
use llc_sim::{ClusterConfig, ClusterSim, PowerState, SimError, WindowStats};
use llc_workload::{
    derive_seed, spread_arrivals_into, CapacityProfile, FaultKind, FaultPlan, Gaussian,
    RequestSampler, SpreadScratch, Trace, VirtualStore,
};
use rand::SeedableRng;
use std::time::Duration;

/// One base-tick record of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Base tick index.
    pub tick: u64,
    /// Window start time (seconds).
    pub time: f64,
    /// Requests injected during the window.
    pub arrivals: u64,
    /// Requests completed during the window (cluster-wide).
    pub completions: u64,
    /// Mean response time of the window's completions, if any.
    pub mean_response: Option<f64>,
    /// Computers active (on/booting/draining) after this tick's actions.
    pub active: usize,
    /// Frequency index per computer after this tick's actions.
    pub frequency_indices: Vec<usize>,
    /// Mean response per computer for this window.
    pub computer_responses: Vec<Option<f64>>,
    /// Total queued requests at the sampling instant.
    pub queue_total: usize,
    /// Per-computer queue lengths at the end of the window.
    pub queues: Vec<usize>,
    /// Per-computer activity (on/booting/draining) at the end of the window.
    pub active_flags: Vec<bool>,
    /// Cumulative energy at the end of the window.
    pub energy: f64,
    /// Cumulative dropped requests at the end of the window.
    pub dropped: u64,
    /// Wall-clock time the policy spent deciding at this tick.
    pub decision_time: Duration,
}

/// Aggregate outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Policy name.
    pub policy: String,
    /// Total requests injected.
    pub total_arrivals: u64,
    /// Total completions.
    pub total_completions: u64,
    /// Mean response time over all completions (seconds).
    pub mean_response: f64,
    /// Fraction of windows whose mean response exceeded the target.
    pub violation_fraction: f64,
    /// Total energy (power·seconds).
    pub total_energy: f64,
    /// Total dropped requests.
    pub total_dropped: u64,
    /// Total switch-on transitions across computers.
    pub total_switch_ons: u64,
    /// Mean policy decision time per tick.
    pub mean_decision_time: Duration,
}

/// The full log of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentLog {
    /// Policy name.
    pub policy: String,
    /// Response-time target used for violation accounting.
    pub response_target: f64,
    /// Per-tick records.
    pub ticks: Vec<TickRecord>,
    /// Every [`Directive`] the control plane emitted over the run, in
    /// emission order (the actuation order).
    pub directives: Vec<Directive>,
    /// The control plane's final [`MetricsSnapshot`] — decide latency,
    /// drift detections, retrain/rebuild counters, member
    /// deaths/recoveries, safe-mode periods.
    pub metrics: MetricsSnapshot,
    /// Switch-on transitions across all computers over the whole run.
    pub(crate) total_switch_ons: u64,
}

impl ExperimentLog {
    /// Summarize the run.
    pub fn summary(&self) -> ExperimentSummary {
        let total_arrivals: u64 = self.ticks.iter().map(|t| t.arrivals).sum();
        let total_completions: u64 = self.ticks.iter().map(|t| t.completions).sum();
        let weighted_response: f64 = self
            .ticks
            .iter()
            .filter_map(|t| t.mean_response.map(|r| r * t.completions as f64))
            .sum();
        let mean_response = if total_completions > 0 {
            weighted_response / total_completions as f64
        } else {
            0.0
        };
        let windows_with_completions = self
            .ticks
            .iter()
            .filter(|t| t.mean_response.is_some())
            .count();
        let violations = self
            .ticks
            .iter()
            .filter(|t| t.mean_response.is_some_and(|r| r > self.response_target))
            .count();
        let violation_fraction = if windows_with_completions > 0 {
            violations as f64 / windows_with_completions as f64
        } else {
            0.0
        };
        let decision_total: Duration = self.ticks.iter().map(|t| t.decision_time).sum();
        ExperimentSummary {
            policy: self.policy.clone(),
            total_arrivals,
            total_completions,
            mean_response,
            violation_fraction,
            total_energy: self.ticks.last().map_or(0.0, |t| t.energy),
            total_dropped: self.ticks.last().map_or(0, |t| t.dropped),
            total_switch_ons: self.total_switch_ons,
            mean_decision_time: if self.ticks.is_empty() {
                Duration::ZERO
            } else {
                decision_total / self.ticks.len() as u32
            },
        }
    }

    /// The number-of-active-computers series (Fig. 4 bottom, Fig. 6
    /// bottom).
    pub fn active_series(&self) -> Vec<(f64, usize)> {
        self.ticks.iter().map(|t| (t.time, t.active)).collect()
    }

    /// The frequency series of one computer (Fig. 5 top).
    ///
    /// # Panics
    ///
    /// Panics if `computer` is out of range.
    pub fn frequency_series(&self, computer: usize) -> Vec<(f64, usize)> {
        self.ticks
            .iter()
            .map(|t| (t.time, t.frequency_indices[computer]))
            .collect()
    }

    /// The per-window mean response series of one computer (Fig. 5
    /// bottom).
    ///
    /// # Panics
    ///
    /// Panics if `computer` is out of range.
    pub fn response_series(&self, computer: usize) -> Vec<(f64, Option<f64>)> {
        self.ticks
            .iter()
            .map(|t| (t.time, t.computer_responses[computer]))
            .collect()
    }

    /// Cluster-wide per-window mean response series.
    pub fn cluster_response_series(&self) -> Vec<(f64, Option<f64>)> {
        self.ticks
            .iter()
            .map(|t| (t.time, t.mean_response))
            .collect()
    }

    /// Total switch-on transitions (chattering metric), recorded at the
    /// end of the run.
    pub fn total_switch_ons(&self) -> u64 {
        self.total_switch_ons
    }

    /// Frequency switches summed over all computers — the limit-cycle
    /// metric of the drift-aware L0: a capacity-blind controller on a
    /// degraded plant keeps flapping between the frequency its model
    /// believes sufficient and the flat-out backlog drain. One shared
    /// definition, so the bench gate, tests and examples count the same
    /// thing.
    pub fn frequency_switches(&self) -> usize {
        let n = self.ticks.first().map_or(0, |t| t.frequency_indices.len());
        (0..n)
            .map(|i| {
                self.frequency_series(i)
                    .windows(2)
                    .filter(|w| w[0].1 != w[1].1)
                    .count()
            })
            .sum()
    }
}

/// Driver: runs a [`ClusterPolicy`] against the simulated cluster fed by
/// a workload trace and the virtual store.
///
/// Since the control-plane split, `Experiment` is one *client* of the
/// ingest/emit API: it owns the plant side (a [`SimAdapter`] wrapping
/// [`ClusterSim`] plus the drift/fault injectors), feeds the plane one
/// [`ModuleObservation`] per module per tick, and actuates the drained
/// [`Directive`]s back into the simulator — the same loop
/// `examples/control_plane.rs` runs over a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Base sampling period `T_L0` (seconds per tick).
    pub t_l0: f64,
    /// Master seed for arrival spreading and the request sampler.
    pub seed: u64,
    /// Start with every computer already `On` with capacity-proportional
    /// weights (the paper's figures begin with an operating cluster).
    pub prewarmed: bool,
    /// Response-time target for violation accounting.
    pub response_target: f64,
    /// Plant-side capacity drift injected over the run: every computer's
    /// delivered capacity is scaled by the profile evaluated at the
    /// current tick (the drift stays invisible to demand telemetry and
    /// the power meter — the case the closed-loop hierarchy exists for).
    /// `None` = nominal plant.
    pub drift: Option<CapacityProfile>,
    /// Scheduled abrupt faults injected over the run: crashes, restarts
    /// and wedged actuators hit the simulator; blackouts and sensor
    /// noise corrupt the observation stream before the policy sees it.
    /// `None` = fault-free plant.
    pub faults: Option<FaultPlan>,
}

/// The plant side of the control-plane loop: wraps the simulator and
/// translates between its state and the ingest/emit API. `observe`
/// renders one tick of plant truth — filtered through the drift/fault
/// injectors, so a blacked-out machine reports blank and a noisy one
/// reports corrupted sums — as [`ModuleObservation`]s; `actuate` applies
/// drained [`Directive`]s; `advance_window` injects nothing itself but
/// runs the plant to the end of the tick's window and banks the realized
/// stats the *next* observation reports.
///
/// [`Experiment::run`] is one user; `examples/control_plane.rs` drives
/// the same adapter from a separate thread over channels. Both build it
/// through [`Plant`] and feed the plane identical streams for identical
/// seeds, which is what the golden equivalence test pins.
pub struct SimAdapter {
    sim: ClusterSim,
    t_l0: f64,
    total_ticks: usize,
    drift: Option<CapacityProfile>,
    faults: Option<FaultPlan>,
    applied_scale: f64,
    blacked_out: Vec<bool>,
    // A crashed machine is dark the realistic way: it stops reporting
    // entirely (crash-stop is indistinguishable from a partition), and
    // the observation stream serves the last state the management plane
    // saw before the lights went out — not the plant's ground truth.
    crashed_dark: Vec<bool>,
    last_state: Vec<PowerState>,
    last_frequency: Vec<usize>,
    noise_sigma: Vec<Option<f64>>,
    // Noise draws come from a dedicated seeded stream so a fault plan
    // perturbs nothing else.
    noise_rng: rand::rngs::StdRng,
    unit_gaussian: Gaussian,
    prev_comp_stats: Vec<WindowStats>,
    prev_rejections: Vec<u64>,
    prev_mod_stats: Vec<WindowStats>,
    members: Vec<Vec<usize>>,
}

impl std::fmt::Debug for SimAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimAdapter")
            .field("t_l0", &self.t_l0)
            .field("total_ticks", &self.total_ticks)
            .field("members", &self.members)
            .finish_non_exhaustive()
    }
}

impl SimAdapter {
    /// A fresh plant for `experiment`'s drift/fault schedule, to be
    /// driven for `total_ticks` base ticks.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan references a computer outside the
    /// cluster.
    pub fn new(sim_config: ClusterConfig, experiment: &Experiment, total_ticks: usize) -> Self {
        let sim = ClusterSim::new(sim_config);
        let num_computers = sim.num_computers();
        let num_modules = sim.num_modules();
        if let Some(plan) = &experiment.faults {
            if let Some(max) = plan.max_computer() {
                assert!(
                    max < num_computers,
                    "fault plan references computer {max}, cluster has {num_computers}"
                );
            }
        }
        let members: Vec<Vec<usize>> = (0..num_modules)
            .map(|m| sim.module_members(m).to_vec())
            .collect();
        let last_state = (0..num_computers)
            .map(|i| sim.computer(i).state())
            .collect();
        let last_frequency = (0..num_computers)
            .map(|i| sim.computer(i).frequency_index())
            .collect();
        SimAdapter {
            sim,
            t_l0: experiment.t_l0,
            total_ticks,
            drift: experiment.drift,
            faults: experiment.faults.clone(),
            applied_scale: f64::NAN,
            blacked_out: vec![false; num_computers],
            crashed_dark: vec![false; num_computers],
            last_state,
            last_frequency,
            noise_sigma: vec![None; num_computers],
            noise_rng: rand::rngs::StdRng::seed_from_u64(derive_seed(experiment.seed, 0xFA17)),
            unit_gaussian: Gaussian::new(0.0, 1.0),
            prev_comp_stats: vec![WindowStats::default(); num_computers],
            prev_rejections: vec![0u64; num_computers],
            prev_mod_stats: vec![WindowStats::default(); num_modules],
            members,
        }
    }

    /// Force every computer `On` with uniform weights (the paper's
    /// figures begin with an operating cluster).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (cannot occur for a well-formed cluster).
    pub fn prewarm(&mut self) -> Result<(), SimError> {
        let num_computers = self.sim.num_computers();
        let num_modules = self.sim.num_modules();
        for i in 0..num_computers {
            self.sim.force_on(i);
        }
        self.sim.set_module_weights(&vec![1.0; num_modules])?;
        for m in 0..num_modules {
            let len = self.sim.module_members(m).len();
            self.sim.set_computer_weights(m, &vec![1.0; len])?;
        }
        for i in 0..num_computers {
            self.last_state[i] = self.sim.computer(i).state();
            self.last_frequency[i] = self.sim.computer(i).frequency_index();
        }
        Ok(())
    }

    /// The topology: global computer indices per module (what
    /// [`ControlPlane::new`] wants).
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The plant being driven.
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// The per-computer stats of the last completed window (what the
    /// next observation will report, noise aside).
    pub fn window_stats(&self) -> &[WindowStats] {
        &self.prev_comp_stats
    }

    /// Render tick `tick`'s plant state as one observation per module.
    ///
    /// Applies the scheduled capacity drift and fault events for the
    /// tick first, then reports the previous window plus instantaneous
    /// state: a blacked-out or crashed computer reports a blank window,
    /// no queue reading (`telemetry_ok = false`) and state/frequency
    /// frozen at the last healthy values; a noisy one reports
    /// multiplicatively corrupted response/demand sums; `rejected` is
    /// dispatcher-side and stays valid through darkness.
    pub fn observe(&mut self, tick: u64) -> Vec<ModuleObservation> {
        let num_computers = self.sim.num_computers();

        // Inject plant drift for this window (invisible to the
        // controllers' telemetry by construction). Only on change:
        // re-applying an unchanged scale would still re-time every
        // in-service request, moving its completion by a rounding error.
        if let Some(profile) = &self.drift {
            let scale = profile.scale_at(tick as usize, self.total_ticks);
            if scale != self.applied_scale {
                for i in 0..num_computers {
                    self.sim.set_service_scale(i, scale);
                }
                self.applied_scale = scale;
            }
        }

        // Fire this tick's scheduled faults: crashes, restarts and
        // wedged actuators hit the plant; blackout/noise toggles shape
        // how the observation below is (mis)reported.
        if let Some(plan) = &self.faults {
            for event in plan.events_at(tick) {
                let i = event.computer;
                match event.kind {
                    FaultKind::Crash { requeue } => {
                        self.sim.crash(i, requeue);
                        self.crashed_dark[i] = true;
                    }
                    FaultKind::Restart => {
                        self.sim.restart(i);
                        self.crashed_dark[i] = false;
                    }
                    FaultKind::BlackoutStart => self.blacked_out[i] = true,
                    FaultKind::BlackoutEnd => self.blacked_out[i] = false,
                    FaultKind::NoiseStart { sigma } => self.noise_sigma[i] = Some(sigma),
                    FaultKind::NoiseEnd => self.noise_sigma[i] = None,
                    FaultKind::StickActuator => self.sim.set_actuator_stuck(i, true),
                    FaultKind::UnstickActuator => self.sim.set_actuator_stuck(i, false),
                }
            }
        }

        // Per-computer telemetry in *global index order* — the noise
        // stream draws in that order, so module grouping must not
        // reorder it.
        let telemetry: Vec<MemberTelemetry> = (0..num_computers)
            .map(|i| {
                let c = self.sim.computer(i);
                let dark = self.blacked_out[i] || self.crashed_dark[i];
                if !dark {
                    self.last_state[i] = c.state();
                    self.last_frequency[i] = c.frequency_index();
                }
                let mut window = if dark {
                    WindowStats::default()
                } else {
                    self.prev_comp_stats[i]
                };
                if let (Some(sigma), false) = (self.noise_sigma[i], dark) {
                    // Corruption factors are strictly positive and
                    // finite: garbage, not NaN — estimators must
                    // survive both.
                    let corrupt = |x: f64, g: f64| x * (1.0 + sigma * g).max(0.05);
                    window.response_sum = corrupt(
                        window.response_sum,
                        self.unit_gaussian.sample(&mut self.noise_rng),
                    );
                    window.demand_sum = corrupt(
                        window.demand_sum,
                        self.unit_gaussian.sample(&mut self.noise_rng),
                    );
                }
                MemberTelemetry {
                    member: usize::MAX, // patched to the module position below
                    queue: if dark { 0 } else { c.queue_length() },
                    window,
                    state: self.last_state[i],
                    frequency_index: self.last_frequency[i],
                    telemetry_ok: !dark,
                    // Router-side, so *not* blanked when the machine is
                    // dark: the dispatcher knows its failed sends even
                    // when the target is silent.
                    rejected: self.prev_rejections[i],
                }
            })
            .collect();
        let mut telemetry: Vec<Option<MemberTelemetry>> = telemetry.into_iter().map(Some).collect();

        self.members
            .iter()
            .enumerate()
            .map(|(m, module)| ModuleObservation {
                module: m,
                tick,
                members: module
                    .iter()
                    .enumerate()
                    .map(|(position, &i)| {
                        let mut t = telemetry[i].take().expect("each computer in one module");
                        t.member = position;
                        t
                    })
                    .collect(),
                arrivals: self.prev_mod_stats[m].arrivals,
                dropped: self.prev_mod_stats[m].dropped,
            })
            .collect()
    }

    /// Apply drained directives to the plant in emission order
    /// (informational directives are skipped).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from malformed weight vectors.
    pub fn actuate(&mut self, directives: &[Directive]) -> Result<(), SimError> {
        for directive in directives {
            match &directive.kind {
                DirectiveKind::Frequency { computer, index } => {
                    self.sim.set_frequency(*computer, *index);
                }
                DirectiveKind::Activation { computer, on: true } => self.sim.power_on(*computer),
                DirectiveKind::Activation { computer, .. } => self.sim.power_off(*computer),
                DirectiveKind::Split {
                    module: Some(m),
                    weights,
                } => self.sim.set_computer_weights(*m, weights)?,
                DirectiveKind::Split {
                    module: None,
                    weights,
                } => self.sim.set_module_weights(weights)?,
                DirectiveKind::SafeMode { .. } => {}
            }
        }
        Ok(())
    }

    /// Schedule one request arriving at absolute time `at` with service
    /// demand `demand`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for arrivals in the past.
    pub fn schedule_arrival(&mut self, at: f64, demand: f64) -> Result<(), SimError> {
        self.sim.schedule_arrival(at, demand)
    }

    /// Run the plant to the end of tick `tick`'s window and bank the
    /// realized stats for the next observation.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (cannot occur in a well-formed run).
    pub fn advance_window(&mut self, tick: u64) -> Result<(), SimError> {
        self.sim.run_until((tick + 1) as f64 * self.t_l0)?;
        self.sim
            .drain_computer_stats_into(&mut self.prev_comp_stats);
        self.sim.drain_module_stats_into(&mut self.prev_mod_stats);
        self.sim
            .drain_dispatch_rejections_into(&mut self.prev_rejections);
        Ok(())
    }
}

/// The plant half of the control loop as every lockstep client builds
/// it: a [`SimAdapter`] over a fresh cluster (prewarmed if the
/// experiment says so), the trace rebucketed to ticks, and the two
/// seeded streams — request bodies and arrival instants — that turn a
/// tick's bucket count into scheduled requests. [`Experiment::run`], the
/// node agent and `examples/control_plane.rs` all construct it here, so
/// for one seed they feed the plant identical requests.
#[derive(Debug)]
pub struct Plant<'a> {
    /// The plant: observe, actuate and read it through this.
    pub adapter: SimAdapter,
    ticks_trace: Trace,
    sampler: RequestSampler<'a>,
    spread_rng: rand::rngs::StdRng,
    /// The spread's working storage and the window's arrival instants,
    /// kept so that no window but the run's largest allocates them.
    spread: SpreadScratch,
    instants: Vec<f64>,
}

/// Most arrivals [`Plant::new`] accepts in one tick of its trace. A
/// window's arrivals are materialised — instants, then requests, about
/// 90 bytes each — on the tick they occur, so a trace file with one
/// absurd bucket would otherwise abort the run when it got there. Eight
/// times the ~1 M a window of the 1000-machine scale arm carries, and
/// far inside the `u32` bucket ids of [`spread_arrivals_into`].
pub const MAX_WINDOW_ARRIVALS: usize = 1 << 23;

impl<'a> Plant<'a> {
    /// A cluster built from `sim_config` under `experiment`'s drift and
    /// fault schedule, to be driven by `trace` (arrivals per bucket;
    /// rebucketed to the tick length) with request bodies drawn from
    /// `store`.
    ///
    /// # Errors
    ///
    /// [`SimError::WindowTooLarge`] if a tick of the rebucketed trace
    /// carries more than [`MAX_WINDOW_ARRIVALS`]; propagates [`SimError`]
    /// from prewarming (cannot occur for a well-formed cluster).
    ///
    /// # Panics
    ///
    /// Panics if the trace's bucket width is incompatible with `t_l0`.
    pub fn new(
        sim_config: ClusterConfig,
        experiment: &Experiment,
        trace: &Trace,
        store: &'a VirtualStore,
    ) -> Result<Self, SimError> {
        let ticks_trace = trace
            .rebucket(experiment.t_l0)
            .expect("trace bucket width must be an integer ratio of t_l0");
        let too_large = |&(_, &count): &(usize, &f64)| count.round() > MAX_WINDOW_ARRIVALS as f64;
        if let Some((tick, &arrivals)) = ticks_trace.counts().iter().enumerate().find(too_large) {
            return Err(SimError::WindowTooLarge {
                tick,
                arrivals,
                max: MAX_WINDOW_ARRIVALS,
            });
        }
        let mut adapter = SimAdapter::new(sim_config, experiment, ticks_trace.len());
        if experiment.prewarmed {
            adapter.prewarm()?;
        }
        Ok(Plant {
            adapter,
            ticks_trace,
            sampler: RequestSampler::paper_default(store, experiment.seed),
            spread_rng: rand::rngs::StdRng::seed_from_u64(derive_seed(experiment.seed, 0xA121)),
            spread: SpreadScratch::default(),
            instants: Vec::new(),
        })
    }

    /// Run length in base ticks.
    pub fn total_ticks(&self) -> usize {
        self.ticks_trace.len()
    }

    /// Inject tick `tick`'s arrivals and run the plant through its
    /// window: the trace's bucket count spread uniformly over the
    /// window, one request body per arrival, then
    /// [`SimAdapter::advance_window`]. Returns the number of arrivals
    /// injected.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (cannot occur in a well-formed run).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is beyond the trace.
    pub fn inject_window(&mut self, tick: u64) -> Result<usize, SimError> {
        let count = self.ticks_trace.count(tick as usize).round().max(0.0) as usize;
        let t_l0 = self.adapter.t_l0;
        let start = tick as f64 * t_l0;
        spread_arrivals_into(
            &mut self.spread_rng,
            start,
            t_l0,
            count,
            &mut self.spread,
            &mut self.instants,
        );
        for &at in &self.instants {
            let (_, demand) = self.sampler.next_request();
            self.adapter.schedule_arrival(at, demand)?;
        }
        self.adapter.advance_window(tick)?;
        Ok(count)
    }
}

impl Experiment {
    /// Paper-default driver: 30 s ticks, pre-warmed cluster, `r* = 4 s`.
    pub fn paper_default(seed: u64) -> Self {
        Experiment {
            t_l0: 30.0,
            seed,
            prewarmed: true,
            response_target: 4.0,
            drift: None,
            faults: None,
        }
    }

    /// Run `policy` against a cluster built from `sim_config`, driven by
    /// `trace` (arrivals per bucket; rebucketed to the tick length) with
    /// request bodies drawn from `store`.
    ///
    /// The loop is the canonical control-plane client: observe the
    /// plant through a [`SimAdapter`], ingest into a [`ControlPlane`],
    /// step, drain and actuate the directives, advance the plant one
    /// window.
    ///
    /// # Errors
    ///
    /// [`SimError::WindowTooLarge`] as [`Plant::new`]; otherwise
    /// propagates [`SimError`] (cannot occur with a well-formed trace) and
    /// trace rebucketing errors as a panic with context.
    ///
    /// # Panics
    ///
    /// Panics if the trace's bucket width is incompatible with `t_l0`.
    pub fn run(
        &self,
        sim_config: ClusterConfig,
        policy: &mut dyn ClusterPolicy,
        trace: &Trace,
        store: &VirtualStore,
    ) -> Result<ExperimentLog, SimError> {
        let mut plant = Plant::new(sim_config, self, trace, store)?;
        let total_ticks = plant.total_ticks();
        let num_computers = plant.adapter.sim().num_computers();
        let mut log = ExperimentLog {
            policy: policy.name().to_string(),
            response_target: self.response_target,
            ticks: Vec::with_capacity(total_ticks),
            directives: Vec::new(),
            metrics: MetricsSnapshot::default(),
            total_switch_ons: 0,
        };

        let mut plane = ControlPlane::new(policy, plant.adapter.members().to_vec(), self.t_l0);
        for tick in 0..total_ticks as u64 {
            let t = tick as f64 * self.t_l0;

            // 1. Observe: previous window + instantaneous state, one
            // observation per module, through the drift/fault filters.
            for observation in plant.adapter.observe(tick) {
                plane
                    .ingest(observation)
                    .expect("lockstep stream is in-order and well-formed");
            }

            // 2. Decide and actuate.
            debug_assert!(plane.ready(), "every module reported");
            let report = plane.step();
            let directives = plane.drain_directives();
            plant.adapter.actuate(&directives)?;
            log.directives.extend(directives);

            // 3. Inject this window's arrivals and advance the plant.
            let count = plant.inject_window(tick)?;

            // 4. Record.
            let sim = plant.adapter.sim();
            let stats = plant.adapter.window_stats();
            let completions: u64 = stats.iter().map(|w| w.completions).sum();
            let response_sum: f64 = stats.iter().map(|w| w.response_sum).sum();
            log.ticks.push(TickRecord {
                tick,
                time: t,
                arrivals: count as u64,
                completions,
                mean_response: if completions > 0 {
                    Some(response_sum / completions as f64)
                } else {
                    None
                },
                active: sim.active_count(),
                frequency_indices: (0..num_computers)
                    .map(|i| sim.computer(i).frequency_index())
                    .collect(),
                computer_responses: stats.iter().map(|w| w.mean_response()).collect(),
                queue_total: (0..num_computers)
                    .map(|i| sim.computer(i).queue_length())
                    .sum(),
                queues: (0..num_computers)
                    .map(|i| sim.computer(i).queue_length())
                    .collect(),
                active_flags: (0..num_computers)
                    .map(|i| sim.computer(i).is_active())
                    .collect(),
                energy: sim.total_energy(),
                dropped: sim.dropped(),
                decision_time: report.decide_time,
            });
        }

        log.total_switch_ons = (0..num_computers)
            .map(|i| plant.adapter.sim().computer(i).switch_ons())
            .sum();
        log.metrics = plane.metrics();
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::AlwaysMaxPolicy;
    use crate::policy::{Action, Observations};
    use llc_workload::Trace;

    fn tiny_cluster() -> ClusterConfig {
        use llc_sim::{ComputerConfig, PowerModel};
        ClusterConfig {
            modules: vec![vec![
                ComputerConfig::new(vec![1.0e9, 2.0e9], PowerModel::paper_default(), 120.0),
                ComputerConfig::new(vec![1.0e9, 2.0e9], PowerModel::paper_default(), 120.0),
            ]],
        }
    }

    fn flat_trace(buckets: usize, per_bucket: f64) -> Trace {
        Trace::new(30.0, vec![per_bucket; buckets]).unwrap()
    }

    #[test]
    fn always_max_serves_everything() {
        let store = VirtualStore::paper_default(1);
        let mut policy = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (1.0, 2)]]);
        let exp = Experiment::paper_default(7);
        let log = exp
            .run(tiny_cluster(), &mut policy, &flat_trace(20, 300.0), &store)
            .unwrap();
        let s = log.summary();
        assert_eq!(s.total_arrivals, 6000);
        assert_eq!(s.total_dropped, 0);
        // 300 req / 30 s = 10 req/s split over two fast machines: no
        // queueing to speak of, responses well under the target.
        assert!(s.mean_response < 0.5, "mean response {}", s.mean_response);
        assert!(s.violation_fraction < 0.05);
        assert!(s.total_completions > 5_500);
        assert!(s.total_energy > 0.0);
        // The run went through the control plane: the log carries its
        // metrics and the emitted directives.
        assert_eq!(log.metrics.ticks_decided, 20);
        assert_eq!(log.metrics.observations_ingested, 20);
        assert_eq!(log.metrics.dark_filled_members, 0);
        assert_eq!(
            log.metrics.directives_emitted as usize,
            log.directives.len()
        );
        assert!(!log.directives.is_empty());
    }

    #[test]
    fn log_series_have_tick_length() {
        let store = VirtualStore::paper_default(2);
        let mut policy = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (1.0, 2)]]);
        let exp = Experiment::paper_default(8);
        let log = exp
            .run(tiny_cluster(), &mut policy, &flat_trace(10, 100.0), &store)
            .unwrap();
        assert_eq!(log.ticks.len(), 10);
        assert_eq!(log.active_series().len(), 10);
        assert_eq!(log.frequency_series(0).len(), 10);
        assert_eq!(log.response_series(1).len(), 10);
        // Energy is cumulative, hence non-decreasing.
        assert!(log
            .ticks
            .windows(2)
            .all(|w| w[1].energy >= w[0].energy - 1e-9));
    }

    #[test]
    fn determinism_same_seed_same_log() {
        let store = VirtualStore::paper_default(3);
        let exp = Experiment::paper_default(9);
        let mut p1 = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (1.0, 2)]]);
        let mut p2 = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (1.0, 2)]]);
        let l1 = exp
            .run(tiny_cluster(), &mut p1, &flat_trace(8, 200.0), &store)
            .unwrap();
        let l2 = exp
            .run(tiny_cluster(), &mut p2, &flat_trace(8, 200.0), &store)
            .unwrap();
        // Decision timings are wall-clock and may differ; compare the
        // physically meaningful fields.
        for (a, b) in l1.ticks.iter().zip(&l2.ticks) {
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.completions, b.completions);
            assert_eq!(a.mean_response, b.mean_response);
            assert_eq!(a.energy, b.energy);
        }
        assert_eq!(l1.directives, l2.directives);
    }

    #[test]
    fn a_window_past_the_bound_is_refused_before_the_run_starts() {
        let store = VirtualStore::paper_default(1);
        let exp = Experiment::paper_default(7);
        let at_bound = MAX_WINDOW_ARRIVALS as f64;
        let trace = |crest: f64| Trace::new(30.0, vec![10.0, 10.0, crest, 10.0]).unwrap();
        // Counts are rounded to whole arrivals: the bound itself, and
        // what rounds to it, build.
        for crest in [at_bound, at_bound + 0.4] {
            let plant = Plant::new(tiny_cluster(), &exp, &trace(crest), &store).unwrap();
            assert_eq!(plant.total_ticks(), 4);
        }
        let refused = SimError::WindowTooLarge {
            tick: 2,
            arrivals: 1e15,
            max: MAX_WINDOW_ARRIVALS,
        };
        assert_eq!(
            Plant::new(tiny_cluster(), &exp, &trace(1e15), &store).unwrap_err(),
            refused
        );
        let mut policy = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (1.0, 2)]]);
        assert_eq!(
            exp.run(tiny_cluster(), &mut policy, &trace(1e15), &store)
                .unwrap_err(),
            refused
        );
        // Rebucketed first: a two-minute bucket is four ticks' worth.
        let coarse = Trace::new(120.0, vec![at_bound * 4.0 + 8.0]).unwrap();
        assert!(matches!(
            Plant::new(tiny_cluster(), &exp, &coarse, &store),
            Err(SimError::WindowTooLarge { tick: 0, .. })
        ));
    }

    #[test]
    fn cold_cluster_drops_until_powered() {
        let store = VirtualStore::paper_default(4);
        struct DoNothing;
        impl ClusterPolicy for DoNothing {
            fn decide(&mut self, _o: &Observations) -> Vec<Action> {
                Vec::new()
            }
            fn name(&self) -> &str {
                "do-nothing"
            }
        }
        let mut policy = DoNothing;
        let exp = Experiment {
            prewarmed: false,
            ..Experiment::paper_default(5)
        };
        let log = exp
            .run(tiny_cluster(), &mut policy, &flat_trace(4, 50.0), &store)
            .unwrap();
        let s = log.summary();
        assert_eq!(s.total_dropped, s.total_arrivals, "nothing on, all dropped");
    }
}
