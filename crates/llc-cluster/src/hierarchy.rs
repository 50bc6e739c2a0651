use crate::control::{mean_duration, Cadence, DirectiveKind, PolicyMetrics};
use crate::l1::{AbstractionMap, GEntry, L1Controller, L1Decision, MemberSpec};
use crate::l2::{L2Controller, ModuleCostModel, ModuleState};
use crate::policy::{ClusterPolicy, Observations};
use crate::{L0Config, L0Controller, ScenarioConfig};
use llc_sim::{PowerState, WindowStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timeout multiple of the response target charged (as slack, per
/// refused request, normalized per window second like the power term) to
/// a window in which the dispatcher's sends to a member failed. A
/// request a dead machine refuses never completes from the plant's point
/// of view — the *client* abandons it only after a timeout an order of
/// magnitude above the target (the classic ~30 s client timeout against
/// a ~4 s response goal). Left unpriced, shedding load into a crashed
/// member would *flatter* the realized books.
const DROP_TIMEOUT_FACTOR: f64 = 8.0;

/// Wall-clock overhead accounting per hierarchy level.
///
/// The L1 and L2 time each decision on its own. The L0 times its round
/// instead: one clock read either side of the tick's loop over the
/// machines, its elapsed time and decision count added here. Its mean is
/// then the round's time per decision, the loop's skips included; a
/// clock pair around each of its sub-microsecond decides would cost a
/// good part of what it measures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelOverhead {
    /// Total time spent deciding at this level.
    pub total: Duration,
    /// Number of decisions taken.
    pub decisions: u64,
}

impl LevelOverhead {
    /// Add `decisions` decisions that took `elapsed` together.
    fn record(&mut self, elapsed: Duration, decisions: u64) {
        self.total += elapsed;
        self.decisions += decisions;
    }

    /// Mean decision time, or zero before any decision.
    pub fn mean(&self) -> Duration {
        mean_duration(self.total, self.decisions)
    }
}

/// The hierarchy's own feedback loop (the paper's Fig. 2 is a
/// *closed-loop* controller): telemetry accumulators between L1 ticks
/// plus the snapshot that anchors each realized outcome to the operating
/// point its decision was taken at. Every hierarchy derives its realized
/// outcomes and scores its maps against them; whether an L1 also learns
/// from them is its own learner's business
/// ([`L1Controller::enable_online`]).
#[derive(Debug)]
struct ClosedLoop {
    /// Per-computer sum of realized per-L0-window costs over the running
    /// L1 window (`Q·slack + R·power` per window, the L0 cost function
    /// evaluated on measurements).
    cost_acc: Vec<f64>,
    /// Per-computer realized window stats over the running L1 window.
    window_acc: Vec<WindowStats>,
    /// Queue per computer at the previous L1 tick (the `q₀` the previous
    /// decision keyed its map queries on).
    q0: Vec<f64>,
    /// Whether the member was serving (α = 1, powered `On`/`Draining`)
    /// over the period that just ended — boot dead time and off periods
    /// produce no valid map outcome.
    served: Vec<bool>,
    /// Requests the dispatcher offered to the member over the running L1
    /// window that were refused (router-side count, valid through
    /// telemetry darkness). A period with refusals always produces a
    /// prequential error sample — the charged cost of the thrown-away
    /// work against whatever the maps predicted — but never a learning
    /// sample: failed sends are not service observations.
    refused: Vec<u64>,
    /// Set after the first L1 tick (the first window has no snapshot).
    have_snapshot: bool,
    /// Prequential tracking error: `|predicted − realized|` cost summed
    /// over derived outcomes, measured against the maps *before* any
    /// update from the outcome.
    err_sum: f64,
    err_n: u64,
    /// One module's learnable outcomes of the L1 period that just ended,
    /// `(member, λ, q₀, realized)` — refilled per module and handed to
    /// its [`L1Controller::absorb_outcomes`] when that L1 learns.
    l1_outcomes: Vec<(usize, f64, f64, GEntry)>,
}

impl ClosedLoop {
    fn new(computers: usize) -> Self {
        ClosedLoop {
            cost_acc: vec![0.0; computers],
            window_acc: vec![WindowStats::default(); computers],
            q0: vec![0.0; computers],
            served: vec![false; computers],
            refused: vec![0; computers],
            have_snapshot: false,
            err_sum: 0.0,
            err_n: 0,
            l1_outcomes: Vec::new(),
        }
    }
}

/// The churn watchdog (see [`crate::PolicyBuilder::fault_tolerance`]).
/// Its thresholds are associated constants: every fault-tolerant run
/// uses the same ones, so there is nothing to set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultToleranceConfig;

impl FaultToleranceConfig {
    /// Consecutive suspect observation windows (telemetry lost, or found
    /// `Off` while ordered on) before a member is declared dead and
    /// excluded from planning. The paper's base window is 30 s, so 3
    /// declares death after ~90 s of silence.
    pub(crate) const SUSPECT_AFTER: u64 = 3;
    /// Minimum fraction of a module's *live* members that must deliver
    /// healthy telemetry for the L1 to trust its models; below it the
    /// module falls back to safe mode (everything live on, uniform split,
    /// analytic L0 queue model still running frequencies).
    pub(crate) const TELEMETRY_QUORUM: f64 = 0.5;
}

const _: () = assert!(FaultToleranceConfig::SUSPECT_AFTER >= 1);
const _: () = assert!(
    0.0 <= FaultToleranceConfig::TELEMETRY_QUORUM && FaultToleranceConfig::TELEMETRY_QUORUM <= 1.0
);

/// Watchdog state tracking cluster membership through churn.
#[derive(Debug)]
struct FaultTolerance {
    /// Consecutive suspect windows per computer.
    missed: Vec<u64>,
    /// Consecutive healthy-telemetry windows per computer (gates the
    /// optimistic re-probe of a crashed-and-silent machine).
    healthy: Vec<u64>,
    /// Members currently declared dead.
    dead: Vec<bool>,
    /// The α the last L1 decision wanted per computer — a machine found
    /// `Off` while wanted on has crashed, not been shed.
    wanted_on: Vec<bool>,
    /// Set on death/rejoin; consumed by the L2 (hysteresis relaxation).
    membership_changed: bool,
    deaths: u64,
    recoveries: u64,
    safe_mode_periods: u64,
    /// Safe-mode posture per module as of the last L1 tick (the
    /// current-state view behind `PolicyMetrics::safe_mode_active`); an
    /// L1 tick that changes a module's posture emits `SafeMode`.
    safe_now: Vec<bool>,
}

impl FaultTolerance {
    fn new(computers: usize, modules: usize) -> Self {
        FaultTolerance {
            missed: vec![0; computers],
            healthy: vec![0; computers],
            dead: vec![false; computers],
            wanted_on: vec![false; computers],
            membership_changed: false,
            deaths: 0,
            recoveries: 0,
            safe_mode_periods: 0,
            safe_now: vec![false; modules],
        }
    }
}

/// What makes two members the same *kind* of machine to the offline
/// learners: the bit patterns of `speed`, `c_prior` and every scaling
/// factor. Equal keys give bit-equal abstraction maps (the L0 config
/// and grid resolution are build-wide).
fn spec_bits(spec: &MemberSpec) -> Vec<u64> {
    [spec.speed, spec.c_prior]
        .iter()
        .chain(&spec.phis)
        .map(|x| x.to_bits())
        .collect()
}

/// The complete three-level controller of Fig. 2, implementing
/// [`ClusterPolicy`]: L2 splits global load over modules, each module's
/// L1 picks `{α, γ}`, each computer's L0 picks the frequency. Offline
/// learning (abstraction maps, module trees) happens in
/// [`HierarchicalPolicy::build`].
#[derive(Debug)]
pub struct HierarchicalPolicy {
    l0s: Vec<L0Controller>,
    l1s: Vec<L1Controller>,
    l2: Option<L2Controller>,
    /// Global computer indices per module.
    members: Vec<Vec<usize>>,
    /// Prior mean local processing time per module (c_factor reference).
    module_c_priors: Vec<f64>,
    /// Slow-level tick cadence (`T_L1/T_L0`, `T_L2/T_L0`), the period
    /// bookkeeping shared with the control-plane driver.
    cadence: Cadence,
    // Accumulators between slow-level ticks.
    module_arrivals_acc: Vec<u64>,
    global_arrivals_acc: u64,
    member_demand_sum: Vec<f64>,
    member_demand_n: Vec<u64>,
    // Per-module inputs of an L1 tick, refilled for each module.
    member_scales_buf: Vec<f64>,
    member_demands_buf: Vec<Option<f64>>,
    // Overhead accounting, indexed L0 = 0, L1 = 1, L2 = 2.
    overhead: [LevelOverhead; 3],
    /// L2→L1 feed-forward of the decided split (from `L2Config`).
    feed_forward: bool,
    /// Feed-forward events fired so far (metrics surface).
    feed_forward_events: u64,
    /// The split in force (tracks re-splits for the feed-forward).
    last_gamma: Option<Vec<f64>>,
    /// In-hierarchy feedback state: realized outcomes and the
    /// prequential tracking error.
    closed_loop: ClosedLoop,
    /// Churn watchdog, present once fault tolerance is configured
    /// (see [`crate::PolicyBuilder::fault_tolerance`]).
    fault_tolerance: Option<FaultTolerance>,
}

impl HierarchicalPolicy {
    /// Build the full hierarchy for a scenario, running the offline
    /// learning passes: one L0-model replay per *distinct* member spec
    /// and, when more than one module exists, one module simulation per
    /// distinct ordered composition. Both learners are pure functions of
    /// their inputs, so members of one kind share a single abstraction
    /// map and modules of one composition a single regression tree —
    /// set-up scales with the kinds of machine, not their count.
    pub fn build(scenario: &ScenarioConfig) -> Self {
        let specs = scenario.member_specs();
        let mut l0s = Vec::new();
        let mut l1s = Vec::new();
        let mut members = Vec::new();
        let mut module_c_priors = Vec::new();
        let mut module_models = Vec::new();
        let mut next_index = 0usize;

        // Number the distinct member specs in first-seen order and learn
        // one map per kind in one fan-out — each map is an independent
        // offline grid. The maps are *shared* (Arc) between every member
        // of the kind, the module cost-model learning and the L1
        // controllers; a map written online is copied on its first write.
        let mut kind_ids: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut kind_specs: Vec<&MemberSpec> = Vec::new();
        let kinds: Vec<Vec<usize>> = specs
            .iter()
            .map(|module| {
                module
                    .iter()
                    .map(|m| {
                        *kind_ids.entry(spec_bits(m)).or_insert_with(|| {
                            kind_specs.push(m);
                            kind_specs.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let kind_maps: Vec<Arc<AbstractionMap>> = llc_par::par_map(&kind_specs, |m| {
            let (c_range, lambda_max, q_max) = m.learn_envelope();
            Arc::new(AbstractionMap::learn(
                &scenario.l0,
                scenario.l0.ticks_per(scenario.l1.period) as usize,
                &m.phis,
                c_range,
                lambda_max,
                q_max,
                scenario.learn,
            ))
        });
        // One learned model per ordered composition (the kinds of a
        // module's members, in member order); each module gets its own
        // copy, which shares the tree and never changes after learning.
        let mut composition_models: HashMap<&[usize], ModuleCostModel> = HashMap::new();

        for (module_specs, module_kinds) in specs.iter().zip(&kinds) {
            let maps: Vec<Arc<AbstractionMap>> = module_kinds
                .iter()
                .map(|&k| Arc::clone(&kind_maps[k]))
                .collect();

            if specs.len() > 1 {
                let model = composition_models
                    .entry(module_kinds.as_slice())
                    .or_insert_with(|| {
                        // Offered-load ceiling for the module tree: the sum
                        // of member peak rates with some overload headroom.
                        let capacity: f64 = module_specs.iter().map(|m| m.speed / m.c_prior).sum();
                        ModuleCostModel::learn(
                            &scenario.l1,
                            module_specs,
                            &maps,
                            capacity * 1.3,
                            scenario.module_learn,
                        )
                    });
                module_models.push(model.clone());
            }

            let indices: Vec<usize> = (next_index..next_index + module_specs.len()).collect();
            next_index += module_specs.len();
            members.push(indices);
            module_c_priors.push(
                module_specs.iter().map(|m| m.c_prior).sum::<f64>() / module_specs.len() as f64,
            );
            for m in module_specs {
                l0s.push(L0Controller::new(scenario.l0, m.phis.clone()));
            }
            l1s.push(L1Controller::new_shared(
                scenario.l1,
                module_specs.clone(),
                maps,
            ));
        }

        let l2 = if specs.len() > 1 {
            let mut controller = L2Controller::new(scenario.l2, module_models);
            // Start from a capacity-proportional split: with no workload
            // observed yet, cost cannot distinguish candidates.
            let capacities: Vec<f64> = specs
                .iter()
                .map(|module| module.iter().map(|m| m.speed / m.c_prior).sum())
                .collect();
            controller.set_initial_split(capacities);
            Some(controller)
        } else {
            None
        };

        let cadence = Cadence::from_configs(&scenario.l0, &scenario.l1, &scenario.l2);
        let num_modules = members.len();
        let num_computers = l0s.len();
        HierarchicalPolicy {
            l0s,
            l1s,
            l2,
            members,
            module_c_priors,
            cadence,
            module_arrivals_acc: vec![0; num_modules],
            global_arrivals_acc: 0,
            member_demand_sum: vec![0.0; num_computers],
            member_demand_n: vec![0; num_computers],
            member_scales_buf: Vec::new(),
            member_demands_buf: Vec::new(),
            overhead: [LevelOverhead::default(); 3],
            feed_forward: scenario.l2.feed_forward,
            feed_forward_events: 0,
            last_gamma: None,
            closed_loop: ClosedLoop::new(num_computers),
            fault_tolerance: None,
        }
    }

    /// Switch on churn tolerance: a per-computer watchdog declares a
    /// member dead after [`FaultToleranceConfig::SUSPECT_AFTER`]
    /// consecutive suspect windows (telemetry lost, or found `Off` while
    /// ordered on). Dead members are excluded from the L1's α/γ search
    /// and receive no directives; estimators and drift detectors hold
    /// their state through telemetry gaps instead of ingesting blanks; a
    /// module below the telemetry quorum falls back to safe mode (all
    /// live members on, uniform split); the L2 relaxes its hysteresis for
    /// one decision on every membership change. Without this call the
    /// policy is fault-blind: blank blackout windows and crashed machines
    /// are taken at face value.
    pub(crate) fn set_fault_tolerance(&mut self) {
        self.fault_tolerance = Some(FaultTolerance::new(self.l0s.len(), self.l1s.len()));
    }

    /// `true` once the churn watchdog is configured.
    #[cfg(test)]
    pub(crate) fn fault_tolerance_enabled(&self) -> bool {
        self.fault_tolerance.is_some()
    }

    /// Close the loop in-hierarchy: from now on every L1 controller
    /// learns online ([`L1Controller::enable_online`]), so the realized
    /// outcomes the hierarchy derives each L1 period are absorbed into
    /// its maps before it decides on them. The L2's module models stay
    /// as learned offline.
    pub(crate) fn set_closed_loop(&mut self) {
        for l1 in &mut self.l1s {
            l1.enable_online();
        }
    }

    /// Number of computers managed.
    pub fn num_computers(&self) -> usize {
        self.l0s.len()
    }

    /// Number of modules managed.
    pub fn num_modules(&self) -> usize {
        self.l1s.len()
    }

    /// The topology: global computer indices per module — what a
    /// [`crate::ControlPlane`] routes observations by.
    pub fn module_members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The L1 controller of module `m` (forecast history, overhead).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn l1(&self, m: usize) -> &L1Controller {
        &self.l1s[m]
    }

    /// The L2 controller, if the scenario has multiple modules.
    pub fn l2(&self) -> Option<&L2Controller> {
        self.l2.as_ref()
    }

    /// The L0 controller of computer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn l0(&self, i: usize) -> &L0Controller {
        &self.l0s[i]
    }

    /// The §5.2 overhead metric: mean execution time along one hierarchy
    /// path (one L2 + one L1 + one L0 decision).
    pub fn path_overhead(&self) -> Duration {
        self.overhead[0].mean() + self.overhead[1].mean() + self.overhead[2].mean()
    }
}

impl ClusterPolicy for HierarchicalPolicy {
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        let mut actions = Vec::new();
        // `SafeMode` transitions of this tick, emitted after every other
        // directive of it.
        let mut postures = Vec::new();

        // --- Watchdog: track membership through churn (fault tolerance
        // only). A window is suspect when its telemetry was lost or the
        // machine is found `Off` while the last decision wanted it on (a
        // crash, not a shed). `SUSPECT_AFTER` consecutive suspect windows
        // declare the member dead; a dead member rejoins when it is seen
        // powered with healthy telemetry again, and a dead-and-silent
        // `Off` machine is optimistically re-probed after a long healthy
        // streak (a truly crashed machine refuses the power-on and is
        // re-declared dead one `SUSPECT_AFTER` later, at no request loss
        // because boot rerouting never assigns weight to an `Off`
        // machine).
        if let Some(ft) = self.fault_tolerance.as_mut() {
            for (i, comp) in obs.computers.iter().enumerate() {
                if comp.telemetry_ok {
                    ft.healthy[i] += 1;
                } else {
                    ft.healthy[i] = 0;
                }
                if !ft.dead[i] {
                    let suspect = !comp.telemetry_ok
                        || (ft.wanted_on[i] && matches!(comp.state, PowerState::Off));
                    if suspect {
                        ft.missed[i] += 1;
                        if ft.missed[i] >= FaultToleranceConfig::SUSPECT_AFTER {
                            ft.dead[i] = true;
                            ft.wanted_on[i] = false;
                            ft.membership_changed = true;
                            ft.deaths += 1;
                        }
                    } else {
                        ft.missed[i] = 0;
                    }
                } else {
                    let rejoined = comp.telemetry_ok && !matches!(comp.state, PowerState::Off);
                    let probe = comp.telemetry_ok
                        && matches!(comp.state, PowerState::Off)
                        && ft.healthy[i] >= 2 * FaultToleranceConfig::SUSPECT_AFTER;
                    if rejoined {
                        ft.dead[i] = false;
                        ft.missed[i] = 0;
                        ft.membership_changed = true;
                        ft.recoveries += 1;
                    } else if probe {
                        // Silent clear: the next L1 decision may recruit
                        // it. Not a rejoin yet — no hysteresis relaxation.
                        ft.dead[i] = false;
                        ft.missed[i] = 0;
                        ft.healthy[i] = 0;
                    }
                }
            }
        }
        let ft_on = self.fault_tolerance.is_some();

        // Accumulate windows and feed the per-computer forecasters —
        // including the delivery-side evidence for the drift-aware scale
        // estimators (inert unless the scenario enables them): a window
        // counts as capacity evidence only if the machine was powered
        // and still backlogged at the sampling instant, the condition
        // under which completions/T measures service rate rather than
        // throughput.
        for (i, comp) in obs.computers.iter().enumerate() {
            if ft_on && !comp.telemetry_ok {
                // Blackout window: the blanks are absence of evidence,
                // not evidence of silence. Estimators and drift detectors
                // hold their state through the gap. (Fault-blind
                // controllers ingest the blanks at face value.)
                continue;
            }
            let mut demand = comp.window.mean_demand();
            if ft_on {
                // Plausibility gate for noisy sensors: a window whose
                // mean demand lands far outside the member's running ĉ
                // is a corrupted reading, not evidence — drop the sample
                // and let the estimator coast. (Genuine drift moves ĉ by
                // percent per window, never by 2.5x in one.)
                if let (Some(c), reference) = (demand, self.l0s[i].c_estimate()) {
                    if reference > 0.0 && !(0.4..=2.5).contains(&(c / reference)) {
                        demand = None;
                    }
                }
            }
            self.l0s[i].observe(comp.window.arrivals, demand);
            let busy =
                comp.queue > 0 && matches!(comp.state, PowerState::On | PowerState::Draining);
            self.l0s[i].observe_service(comp.window.completions, busy, comp.frequency_index);
            if let Some(c) = demand {
                self.member_demand_sum[i] += c;
                self.member_demand_n[i] += 1;
            }
        }
        for (acc, &arrivals) in self
            .module_arrivals_acc
            .iter_mut()
            .zip(&obs.module_arrivals)
        {
            *acc += arrivals;
            self.global_arrivals_acc += arrivals;
        }

        // Closed loop, step 1: fold the realized window into the running
        // L1 accumulators. The realized per-window cost is the L0 cost
        // function (eq. 6–7) evaluated on measurements instead of model
        // predictions — and it must use the *same functional* the model
        // uses: the response implied by the end-of-window queue at the
        // *service rate*, `r = (1 + q_end) / μ̂`, not the mean response of
        // the window's completions. (In a backlog-drain window the
        // completions' mean response reflects waits accrued under an
        // earlier decision, while the model charges each period its
        // end-state response — mixing the two would make every drain
        // window look like drift.) `completions / T_L0` estimates the
        // service rate only while the server stays busy; with an empty
        // end queue it measures throughput instead (λ, not μ), which
        // would charge an almost-idle member enormous phantom slack. So
        // slack evidence is only taken from windows that end backlogged —
        // exactly the windows where the model's own slack is non-trivial
        // (at q_end = 0 the model's response is ĉ/φ, far under r*).
        let cl = &mut self.closed_loop;
        for (i, comp) in obs.computers.iter().enumerate() {
            let cfg = self.l0s[i].config();
            // Router-side drop charge, folded *before* the telemetry
            // gate: the dispatcher's failed sends are valid telemetry
            // even when the target machine is dark. A refused request
            // never completes — charge each one a timeout's worth of
            // slack, normalized per window second like the power
            // term. Without this charge, routing traffic into a dead
            // machine *improves* the realized books (the drops
            // vanish from the accounting and the relieved survivors
            // look beautifully modeled) — exactly the failure mode a
            // fault-blind controller must not get credit for. Both
            // arms pay it: the watchdog'd hierarchy for its honest
            // detection latency, the blind one for as long as it
            // keeps shoveling work into the void.
            if comp.rejected > 0 {
                let drop_slack =
                    comp.rejected as f64 * DROP_TIMEOUT_FACTOR * cfg.response_target / cfg.period;
                let charge = L0Config::Q_WEIGHT * drop_slack;
                cl.cost_acc[i] += charge;
                cl.refused[i] += comp.rejected;
            }
            if ft_on && !comp.telemetry_ok {
                // A window with a telemetry gap cannot anchor a valid
                // realized outcome: poison this member's running L1
                // window rather than folding blanks into it.
                cl.served[i] = false;
                continue;
            }
            let slack = if comp.queue > 0 && comp.window.completions > 0 {
                let r_implied =
                    (1.0 + comp.queue as f64) * cfg.period / comp.window.completions as f64;
                (r_implied - cfg.response_target).max(0.0)
            } else {
                // Drained or silent window: the divisor would
                // measure throughput rather than service rate, and
                // the model's own slack at an empty queue is ~0 —
                // charge none.
                0.0
            };
            let power = comp.window.mean_power(cfg.period);
            let cost = L0Config::Q_WEIGHT * slack + L0Config::R_WEIGHT * power;
            cl.cost_acc[i] += cost;
            cl.window_acc[i].absorb(&comp.window);
        }

        // --- L2: split global load over modules (top-down first). ---
        if self.cadence.is_l2_tick(obs.tick) {
            if let Some(l2) = self.l2.as_mut() {
                let started = Instant::now();
                l2.observe(self.global_arrivals_acc);
                self.global_arrivals_acc = 0;

                // Membership changed since the last L2 decision: the
                // previous split is stale evidence, so enumerate the full
                // simplex once and skip the switching margin.
                if let Some(ft) = self.fault_tolerance.as_mut() {
                    if std::mem::take(&mut ft.membership_changed) {
                        l2.relax_hysteresis_once();
                    }
                }
                let dead = self.fault_tolerance.as_ref().map(|ft| &ft.dead);
                let states: Vec<ModuleState> = (0..self.members.len())
                    .map(|m| {
                        let qs: f64 = self.members[m]
                            .iter()
                            .map(|&i| obs.computers[i].queue as f64)
                            .sum();
                        // Dead members are not planned capacity, whatever
                        // their plant state claims.
                        let active = self.members[m]
                            .iter()
                            .filter(|&&i| {
                                !matches!(obs.computers[i].state, PowerState::Off)
                                    && !dead.is_some_and(|d| d[i])
                            })
                            .count();
                        ModuleState {
                            c_factor: self.l1s[m].module_c_estimate() / self.module_c_priors[m],
                            queue_mean: qs / self.members[m].len() as f64,
                            active,
                        }
                    })
                    .collect();
                let decision = l2.decide(&states);

                // Feed the decided split forward into each re-split
                // module's λ forecast: the module's own trailing forecast
                // only sees the new share a full period (one boot dead
                // time) late, which is exactly the lag the L1/L2
                // oscillation feeds on.
                if self.feed_forward {
                    let lambda_g = l2.lambda_estimate();
                    if let Some(prev) = &self.last_gamma {
                        for (m, (&new, &old)) in decision.gamma.iter().zip(prev.iter()).enumerate()
                        {
                            if (new - old).abs() > 1e-9 {
                                self.l1s[m].feed_forward_lambda(new * lambda_g);
                                self.feed_forward_events += 1;
                            }
                        }
                    }
                }
                self.last_gamma = Some(decision.gamma.clone());
                actions.push(DirectiveKind::Split {
                    module: None,
                    weights: decision.gamma,
                });
                self.overhead[2].record(started.elapsed(), 1);
            } else {
                self.global_arrivals_acc = 0;
                // No L2 (single-module scenario): the global dispatcher
                // still needs weights once, or a cold-started cluster
                // drops everything at the top-level router.
                if obs.tick == 0 {
                    actions.push(DirectiveKind::Split {
                        module: None,
                        weights: vec![1.0],
                    });
                }
            }
        }

        // --- L1: per-module α and γ. ---
        if self.cadence.is_l1_tick(obs.tick) {
            // One pass per module, in module order: observation plumbing
            // and closed-loop measurement/learning, the decide, then the
            // bookkeeping and the power and routing actions it implies.
            for m in 0..self.members.len() {
                let started = Instant::now();
                // Push the drift-aware L0s' capacity scales up: this
                // module's map queries, outcome keys and capacity shares
                // all run at the effective processing time ĉ/ŝ.
                self.member_scales_buf.clear();
                self.member_scales_buf.extend(
                    self.members[m]
                        .iter()
                        .map(|&i| self.l0s[i].scale_estimate()),
                );
                self.l1s[m].set_member_scales(&self.member_scales_buf);
                self.member_demands_buf.clear();
                self.member_demands_buf
                    .extend(self.members[m].iter().map(|&i| {
                        if self.member_demand_n[i] > 0 {
                            Some(self.member_demand_sum[i] / self.member_demand_n[i] as f64)
                        } else {
                            None
                        }
                    }));
                self.l1s[m].observe(self.module_arrivals_acc[m], &self.member_demands_buf);
                self.module_arrivals_acc[m] = 0;
                for &i in &self.members[m] {
                    self.member_demand_sum[i] = 0.0;
                    self.member_demand_n[i] = 0;
                }

                // Closed loop, L1 leg: turn the window that just ended
                // into one realized GEntry per serving member — the rate
                // actually routed, the measured cost/power, the queue
                // left behind — measure the prequential prediction error,
                // and, when this module's L1 learns, absorb the outcomes
                // into its abstraction maps before deciding on them.
                let cl = &mut self.closed_loop;
                if cl.have_snapshot {
                    let period = self.cadence.l1_every as f64 * self.l0s[0].config().period;
                    let learn = self.l1s[m].learns_online();
                    cl.l1_outcomes.clear();
                    let members = self.members[m].iter().enumerate();
                    for ((pos, &i), c) in members.zip(self.l1s[m].c_iter()) {
                        // A period in which the dispatcher's sends to
                        // this member failed is always measured (the
                        // charged cost of the thrown-away work,
                        // against whatever the maps predicted), even
                        // when the member itself never validly
                        // served — but it is never *learned from*:
                        // failed sends are not service observations,
                        // and absorbing the charge into the maps
                        // would let a controller predict its own
                        // dropped traffic and call that tracking.
                        let refused = cl.refused[i] > 0;
                        if !cl.served[i] && !refused {
                            continue;
                        }
                        let lambda = cl.window_acc[i].arrivals as f64 / period;
                        let entry = GEntry {
                            cost: cl.cost_acc[i] / self.cadence.l1_every as f64,
                            power: cl.window_acc[i].energy / period,
                            final_q: obs.computers[i].queue as f64,
                        };
                        let predicted = self.l1s[m].map(pos).query(lambda, c, cl.q0[i]).cost;
                        cl.err_sum += (predicted - entry.cost).abs();
                        cl.err_n += 1;
                        if learn && !refused {
                            cl.l1_outcomes.push((pos, lambda, cl.q0[i], entry));
                        }
                    }
                    if learn {
                        self.l1s[m].absorb_outcomes(&cl.l1_outcomes);
                    }
                }

                let queues: Vec<usize> = self.members[m]
                    .iter()
                    .map(|&i| obs.computers[i].queue)
                    .collect();
                let active: Vec<bool> = self.members[m]
                    .iter()
                    .map(|&i| !matches!(obs.computers[i].state, PowerState::Off))
                    .collect();
                let dead_pos: Vec<bool> = match self.fault_tolerance.as_ref() {
                    Some(ft) => self.members[m].iter().map(|&i| ft.dead[i]).collect(),
                    None => vec![false; self.members[m].len()],
                };
                let live_count = dead_pos.iter().filter(|&&d| !d).count();
                // Safe mode: when too few live members deliver healthy
                // telemetry for the learned models to be trusted, stop
                // optimizing and hold the module in its analytically safe
                // posture — every live member on, load split uniformly
                // over those actually serving. The L0s' analytic queue
                // models keep picking frequencies underneath.
                let safe_mode = ft_on && live_count > 0 && {
                    let healthy = self.members[m]
                        .iter()
                        .enumerate()
                        .filter(|&(pos, &i)| !dead_pos[pos] && obs.computers[i].telemetry_ok)
                        .count();
                    (healthy as f64) < FaultToleranceConfig::TELEMETRY_QUORUM * live_count as f64
                };
                if let Some(ft) = self.fault_tolerance.as_mut() {
                    if ft.safe_now[m] != safe_mode {
                        postures.push(DirectiveKind::SafeMode {
                            module: m,
                            active: safe_mode,
                        });
                    }
                    ft.safe_now[m] = safe_mode;
                    ft.safe_mode_periods += u64::from(safe_mode);
                }

                // A posture held without consulting the maps.
                let held = |alpha, gamma| L1Decision {
                    alpha,
                    gamma,
                    expected_cost: f64::INFINITY,
                    states_evaluated: 0,
                    candidates_evaluated: 0,
                    candidates_pruned: 0,
                };
                let decision = if live_count == 0 {
                    // Every member is dead: nothing to decide, route and
                    // order nothing, wait for a rejoin.
                    held(vec![false; dead_pos.len()], vec![0.0; dead_pos.len()])
                } else if safe_mode {
                    let alpha: Vec<bool> = dead_pos.iter().map(|&d| !d).collect();
                    // Share load over the live members powered `On`, or
                    // over every live member when none is.
                    let serving: Vec<usize> = (0..alpha.len())
                        .filter(|&pos| {
                            let i = self.members[m][pos];
                            !dead_pos[pos] && matches!(obs.computers[i].state, PowerState::On)
                        })
                        .collect();
                    let share_set: Vec<usize> = if serving.is_empty() {
                        (0..alpha.len()).filter(|&pos| !dead_pos[pos]).collect()
                    } else {
                        serving
                    };
                    let mut gamma = vec![0.0; alpha.len()];
                    for &pos in &share_set {
                        gamma[pos] = 1.0 / share_set.len() as f64;
                    }
                    held(alpha, gamma)
                } else {
                    self.l1s[m].decide_excluding(&queues, &active, &dead_pos)
                };

                // Membership invariants: a dead member gets no load and
                // the live shares form a full split.
                debug_assert!(
                    decision
                        .gamma
                        .iter()
                        .zip(&dead_pos)
                        .all(|(&g, &d)| !d || g == 0.0),
                    "γ routed to a dead member"
                );
                debug_assert!(
                    live_count == 0 || (decision.gamma.iter().sum::<f64>() - 1.0).abs() < 1e-6,
                    "live shares must sum to 1, got {:?}",
                    decision.gamma
                );
                if let Some(ft) = self.fault_tolerance.as_mut() {
                    for (pos, &i) in self.members[m].iter().enumerate() {
                        ft.wanted_on[i] = !dead_pos[pos] && decision.alpha[pos];
                    }
                }

                // Closed loop: anchor the coming window to the operating
                // point this decision was taken at. Only members that can
                // actually serve the period (α = 1 and powered, not mid
                // boot) produce a valid map outcome — boot dead time and
                // off periods would poison the cells.
                let cl = &mut self.closed_loop;
                for (pos, &i) in self.members[m].iter().enumerate() {
                    cl.q0[i] = obs.computers[i].queue as f64;
                    cl.cost_acc[i] = 0.0;
                    cl.window_acc[i] = WindowStats::default();
                    cl.refused[i] = 0;
                    cl.served[i] = decision.alpha[pos]
                        && matches!(
                            obs.computers[i].state,
                            PowerState::On | PowerState::Draining
                        );
                }

                for (pos, &i) in self.members[m].iter().enumerate() {
                    if dead_pos[pos] {
                        // No directives for a dead member: a crashed
                        // machine ignores them, and a blackout-dead one
                        // must not be drained just because its telemetry
                        // went dark — it rejoins untouched.
                        continue;
                    }
                    let draining = matches!(obs.computers[i].state, PowerState::Draining);
                    if decision.alpha[pos] && (!active[pos] || draining) {
                        // PowerOn also recovers a draining machine to On —
                        // without it the machine would keep rejecting the
                        // load share assigned to it.
                        actions.push(DirectiveKind::Activation {
                            computer: i,
                            on: true,
                        });
                    } else if !decision.alpha[pos] && active[pos] && !draining {
                        actions.push(DirectiveKind::Activation {
                            computer: i,
                            on: false,
                        });
                    }
                }

                // A machine ordered on right now boots for the whole
                // coming period (the dead time equals T_L1): routing its γ
                // share to it would just hoard requests behind the boot.
                // Serve this period with the machines that can actually
                // serve; the newcomer picks up load at the next L1 tick.
                let mut routed = decision.gamma.clone();
                let mut reroute = false;
                for (pos, &i) in self.members[m].iter().enumerate() {
                    let can_serve = decision.alpha[pos]
                        && matches!(
                            obs.computers[i].state,
                            PowerState::On | PowerState::Draining
                        );
                    if !can_serve && routed[pos] > 0.0 {
                        routed[pos] = 0.0;
                        reroute = true;
                    }
                }
                let routable: f64 = routed.iter().sum();
                if reroute && routable <= 0.0 {
                    // Everything assigned was booting. Serve this period
                    // with whatever is actually running — even a machine
                    // the split left at zero — because weight on a booting
                    // machine just hoards a period of arrivals behind its
                    // dead time. Only a module with nothing running at all
                    // (cold start) keeps the decided split.
                    let serving: Vec<usize> = (0..routed.len())
                        .filter(|&pos| {
                            let i = self.members[m][pos];
                            decision.alpha[pos] && matches!(obs.computers[i].state, PowerState::On)
                        })
                        .collect();
                    if serving.is_empty() {
                        routed = decision.gamma.clone();
                    } else {
                        for &pos in &serving {
                            routed[pos] = 1.0 / serving.len() as f64;
                        }
                    }
                }
                debug_assert!(
                    routed.iter().zip(&dead_pos).all(|(&g, &d)| !d || g == 0.0),
                    "routed weight on a dead member"
                );
                actions.push(DirectiveKind::Split {
                    module: Some(m),
                    weights: routed,
                });
                self.overhead[1].record(started.elapsed(), 1);
            }
            self.closed_loop.have_snapshot = true;
        }

        // --- L0: per-computer frequency, every tick, active machines,
        // timed as one round (see `LevelOverhead`). ---
        let started = Instant::now();
        let mut decided = 0u64;
        for (i, comp) in obs.computers.iter().enumerate() {
            if matches!(comp.state, PowerState::Off) {
                continue;
            }
            if let Some(ft) = self.fault_tolerance.as_ref() {
                // A dead member takes no directives; a blacked-out one
                // reported a blank queue that must not drive its DVFS.
                if ft.dead[i] || !comp.telemetry_ok {
                    continue;
                }
            }
            let decision = self.l0s[i]
                .decide(comp.queue)
                .expect("frequency table is non-empty");
            decided += 1;
            if decision.frequency_index != comp.frequency_index {
                actions.push(DirectiveKind::Frequency {
                    computer: i,
                    index: decision.frequency_index,
                });
            }
        }
        if decided > 0 {
            self.overhead[0].record(started.elapsed(), decided);
        }

        actions.append(&mut postures);
        actions
    }

    fn name(&self) -> &str {
        "hierarchical-llc"
    }

    fn cadence(&self) -> Cadence {
        self.cadence
    }

    fn metrics(&self) -> PolicyMetrics {
        let cl = &self.closed_loop;
        let ft = self.fault_tolerance.as_ref();
        PolicyMetrics {
            online_updates: self.l1s.iter().map(|l| l.online_updates()).sum(),
            map_drift_detections: self
                .l1s
                .iter()
                .map(|l| l.member_drift_detections())
                .collect(),
            tracking_error: (cl.err_n > 0).then(|| cl.err_sum / cl.err_n as f64),
            tracking_samples: cl.err_n,
            rebuilds: 0,
            member_deaths: ft.map_or(0, |ft| ft.deaths),
            member_recoveries: ft.map_or(0, |ft| ft.recoveries),
            members_dead: ft.map_or_else(Vec::new, |ft| ft.dead.clone()),
            safe_mode_periods: ft.map_or(0, |ft| ft.safe_mode_periods),
            safe_mode_active: ft.map_or_else(Vec::new, |ft| ft.safe_now.clone()),
            feed_forward_events: self.feed_forward_events,
            level_overhead: self.overhead,
            l1_candidates_evaluated: self.l1s.iter().map(|l| l.candidates_evaluated()).sum(),
            l1_candidates_pruned: self.l1s.iter().map(|l| l.candidates_pruned()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::MemberTelemetry;
    use crate::single_module;

    fn obs_for(policy: &HierarchicalPolicy, tick: u64, arrivals_per_comp: u64) -> Observations {
        let n = policy.num_computers();
        let computers = (0..n)
            .map(|member| MemberTelemetry {
                member,
                queue: 0,
                window: WindowStats {
                    arrivals: arrivals_per_comp,
                    completions: arrivals_per_comp,
                    response_sum: 0.1 * arrivals_per_comp as f64,
                    demand_sum: 0.0175 * arrivals_per_comp as f64,
                    dropped: 0,
                    energy: 1.75 * 30.0,
                },
                state: PowerState::On,
                frequency_index: 0,
                telemetry_ok: true,
                rejected: 0,
            })
            .collect();
        Observations {
            tick,
            computers,
            module_arrivals: vec![arrivals_per_comp * n as u64],
        }
    }

    fn member_split(kind: &DirectiveKind) -> Option<&[f64]> {
        match kind {
            DirectiveKind::Split {
                module: Some(0),
                weights,
            } => Some(weights),
            _ => None,
        }
    }

    #[test]
    fn build_matches_scenario_shape() {
        let scenario = single_module(4).with_coarse_learning();
        let policy = HierarchicalPolicy::build(&scenario);
        assert_eq!(policy.num_computers(), 4);
        assert_eq!(policy.num_modules(), 1);
        assert!(policy.l2().is_none(), "single module has no L2");
        assert_eq!(policy.metrics().level_overhead[0].decisions, 0);
    }

    #[test]
    fn maps_replay_the_scenarios_steps_per_period() {
        // T_L1 = 240 s over T_L0 = 30 s: each map point replays 8 L0 steps.
        let mut scenario = single_module(2).with_coarse_learning();
        scenario.l1.period = 240.0;
        let policy = HierarchicalPolicy::build(&scenario);
        for member in 0..2 {
            assert_eq!(policy.l1(0).map(member).steps_per_period(), 8);
        }
    }

    #[test]
    fn first_tick_sets_global_weights_for_single_module() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        let kinds = policy.decide(&obs_for(&policy, 0, 100));
        assert!(
            kinds.contains(&DirectiveKind::Split {
                module: None,
                weights: vec![1.0]
            }),
            "tick 0 must set the global dispatch weights: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| member_split(k).is_some()),
            "tick 0 must set the module's computer weights"
        );
    }

    #[test]
    fn l1_fires_only_on_its_period() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        // Every L1 round installs its module's member split.
        let mut l1_round = |t| {
            let obs = obs_for(&policy, t, 100);
            policy
                .decide(&obs)
                .iter()
                .any(|k| member_split(k).is_some())
        };
        assert!(l1_round(0));
        // Ticks 1-3: no L1 decision.
        for t in 1..4 {
            assert!(!l1_round(t), "tick {t}");
        }
        assert!(l1_round(4));
    }

    #[test]
    fn overhead_counters_accumulate() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        for t in 0..8 {
            let _ = policy.decide(&obs_for(&policy, t, 200));
        }
        let overhead = policy.metrics().level_overhead;
        assert_eq!(overhead[1].decisions, 2, "two L1 periods in 8 ticks");
        assert_eq!(overhead[0].decisions, 16, "2 computers x 8 ticks of L0");
        assert!(policy.path_overhead() > Duration::ZERO);
        assert_eq!(policy.name(), "hierarchical-llc");
    }

    #[test]
    fn a_plain_build_derives_outcomes_without_learning_from_them() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        // Three L1 periods: the first anchors the snapshot, the next two
        // derive outcomes from backlogged windows.
        for t in 0..12 {
            let mut obs = obs_for(&policy, t, 3000);
            for comp in &mut obs.computers {
                comp.queue = 5;
            }
            let _ = policy.decide(&obs);
        }
        let metrics = policy.metrics();
        assert!(metrics.tracking_samples > 0, "outcomes derived");
        assert!(metrics.tracking_error.is_some_and(f64::is_finite));
        assert_eq!(metrics.online_updates, 0, "nothing learned");

        let fresh = HierarchicalPolicy::build(&scenario);
        let specs = fresh.l1(0).member_specs();
        for (member, spec) in specs.iter().enumerate() {
            let (run, built) = (policy.l1(0).map(member), fresh.l1(0).map(member));
            assert_eq!(run.len(), built.len(), "member {member}: stored cells");
            // The trained envelope and a margin past it (answered by the
            // analytic replay).
            let (lambda_top, q_top) = (
                1.2 * built.trained_lambda_max(),
                1.2 * built.trained_q_max(),
            );
            for l in 0..=20 {
                for c in [0.5, 1.0, 1.5].map(|f| f * spec.c_prior) {
                    for q in 0..=10 {
                        let (lambda, q0) = (lambda_top * l as f64 / 20.0, q_top * q as f64 / 10.0);
                        let (a, b) = (run.query(lambda, c, q0), built.query(lambda, c, q0));
                        assert_eq!(
                            [a.cost, a.power, a.final_q].map(f64::to_bits),
                            [b.cost, b.power, b.final_q].map(f64::to_bits),
                            "member {member} at ({lambda}, {c}, {q0})"
                        );
                    }
                }
            }
        }
    }

    fn blackout(obs: &mut Observations, i: usize) {
        obs.computers[i].telemetry_ok = false;
        obs.computers[i].window = WindowStats::default();
        obs.computers[i].queue = 0;
    }

    #[test]
    fn watchdog_declares_blacked_out_member_dead_then_recovers_it() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance();
        let _ = policy.decide(&obs_for(&policy, 0, 3000));
        // Three consecutive dark windows: declared dead at the third and
        // not before.
        for t in 1..4 {
            let mut o = obs_for(&policy, t, 3000);
            blackout(&mut o, 1);
            let _ = policy.decide(&o);
            assert_eq!(
                policy.metrics().members_dead[1],
                t == 3,
                "after {t} dark windows"
            );
        }
        assert_eq!(policy.metrics().member_deaths, 1);

        // L1 tick while dead: no load and no directives for member 1 —
        // a blackout-dead machine is still serving and must not be
        // drained just because its telemetry went dark.
        let mut o = obs_for(&policy, 4, 3000);
        blackout(&mut o, 1);
        for kind in policy.decide(&o) {
            match kind {
                DirectiveKind::Activation { computer, .. }
                | DirectiveKind::Frequency { computer, .. } => {
                    assert_ne!(computer, 1, "directive {kind:?} to a dead member");
                }
                DirectiveKind::Split {
                    module: Some(_),
                    weights: w,
                } => {
                    assert_eq!(w[1], 0.0, "load routed to a dead member");
                    assert!((w[0] - 1.0).abs() < 1e-9, "survivor carries the module");
                }
                DirectiveKind::Split { module: None, .. } | DirectiveKind::SafeMode { .. } => {}
            }
        }

        // Telemetry returns (machine was serving all along): rejoin.
        let _ = policy.decide(&obs_for(&policy, 5, 3000));
        assert!(
            !policy.metrics().members_dead[1],
            "healthy powered member rejoins"
        );
        assert_eq!(policy.metrics().member_recoveries, 1);
    }

    #[test]
    fn watchdog_declares_crashed_member_dead() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance();
        // Heavy load so the L1 wants both machines on.
        for t in 0..9 {
            let _ = policy.decide(&obs_for(&policy, t, 3000));
        }
        // Crash: found Off while wanted on, truthful telemetry.
        for t in 9..12 {
            let mut o = obs_for(&policy, t, 3000);
            o.computers[1].state = PowerState::Off;
            o.computers[1].window = WindowStats::default();
            o.computers[1].queue = 0;
            let _ = policy.decide(&o);
        }
        assert!(
            policy.metrics().members_dead[1],
            "a machine found Off while wanted on has crashed"
        );
        // Restart (repair + boot): powered again with telemetry → rejoin.
        let mut o = obs_for(&policy, 12, 3000);
        o.computers[1].state = PowerState::Booting { ready_at: 480.0 };
        let _ = policy.decide(&o);
        assert!(
            !policy.metrics().members_dead[1],
            "restarted member rejoins"
        );
        assert_eq!(policy.metrics().member_recoveries, 1);
    }

    #[test]
    fn telemetry_quorum_loss_falls_back_to_safe_mode() {
        let scenario = single_module(4).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance();
        let _ = policy.decide(&obs_for(&policy, 0, 3000));
        // 3 of 4 members dark: 1/4 healthy < 0.5 quorum at the L1 tick.
        // The blackout starts late enough that the dark members are
        // still suspects, one window short of death, at that tick.
        let dark_from = 4 + 2 - FaultToleranceConfig::SUSPECT_AFTER;
        for t in 1..5 {
            let mut o = obs_for(&policy, t, 3000);
            if t >= dark_from {
                for i in 1..4 {
                    blackout(&mut o, i);
                }
            }
            let kinds = policy.decide(&o);
            if t == 4 {
                assert!(
                    policy.metrics().safe_mode_periods >= 1,
                    "quorum loss → safe mode"
                );
                let w = kinds.iter().find_map(member_split).expect("L1 tick routes");
                for &g in w {
                    assert!(
                        (g - 0.25).abs() < 1e-9,
                        "safe mode splits uniformly over live serving members: {w:?}"
                    );
                }
            }
        }
        assert_eq!(
            policy.metrics().member_deaths,
            0,
            "nobody declared dead yet"
        );
    }

    #[test]
    fn half_the_members_reporting_hold_the_quorum() {
        let scenario = single_module(4).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance();
        // 2 of 4 members dark at the L1 tick, one window short of death:
        // 2/4 healthy is not below the 0.5 quorum.
        let dark_from = 4 + 2 - FaultToleranceConfig::SUSPECT_AFTER;
        for t in 0..5 {
            let mut o = obs_for(&policy, t, 3000);
            if t >= dark_from {
                for i in 2..4 {
                    blackout(&mut o, i);
                }
            }
            let kinds = policy.decide(&o);
            assert!(
                !kinds
                    .iter()
                    .any(|k| matches!(k, DirectiveKind::SafeMode { .. })),
                "tick {t}: no safe-mode transition: {kinds:?}"
            );
        }
        let metrics = policy.metrics();
        assert_eq!(metrics.safe_mode_periods, 0, "quorum held");
        assert_eq!(metrics.member_deaths, 0, "nobody declared dead yet");
    }

    /// A fault-tolerant module pushed below its telemetry quorum and back
    /// says so itself: one `SafeMode { active: true }` on the L1 tick it
    /// enters, one `{ active: false }` on the L1 tick it leaves, each
    /// last in its tick's directives, and none on any other tick.
    #[test]
    fn safe_mode_transitions_are_emitted_once_each_last_on_their_l1_tick() {
        let scenario = single_module(4).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance();
        let l1_every = policy.cadence().l1_every;
        // Three of four members dark on ticks 3 and 4 only: below quorum
        // at the L1 tick 4, one window short of any death, healthy again
        // by the L1 tick 8.
        let mut emitted = Vec::new();
        for t in 0..3 * l1_every {
            let mut o = obs_for(&policy, t, 3000);
            if (3..5).contains(&t) {
                for i in 1..4 {
                    blackout(&mut o, i);
                }
            }
            let kinds = policy.decide(&o);
            for (k, kind) in kinds.iter().enumerate() {
                if let DirectiveKind::SafeMode { module, active } = *kind {
                    assert_eq!(module, 0);
                    assert_eq!(k, kinds.len() - 1, "tick {t}: {kinds:?}");
                    emitted.push((t, active));
                }
            }
        }
        assert_eq!(emitted, vec![(l1_every, true), (2 * l1_every, false)]);
        let metrics = policy.metrics();
        assert_eq!(metrics.safe_mode_periods, 1);
        assert_eq!(metrics.safe_mode_active, vec![false]);
        assert_eq!(metrics.member_deaths, 0);
    }
}
