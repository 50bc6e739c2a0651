use crate::control::{mean_duration, Cadence, PolicyMetrics};
use crate::l1::{
    AbstractionMap, GEntry, L1Config, L1Controller, L1Decision, LearnSpec, MemberSpec,
};
use crate::l2::{L2Controller, ModuleCostModel, ModuleLearnSpec, ModuleState};
use crate::policy::{Action, ClusterPolicy, Observations};
use crate::retrain::{
    ModuleRebuildJob, RebuildContext, RebuildRecord, RetrainConfig, RetrainManager,
};
use crate::{L0Config, L0Controller, ScenarioConfig};
use llc_core::OnlineConfig;
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

/// How the hierarchy closes its own feedback loop (the paper's Fig. 2 is
/// a *closed-loop* controller): whether realized outcomes are derived
/// from plant telemetry at all, and whether the learned models absorb
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClosedLoopMode {
    /// No realized-outcome derivation at all (zero overhead) — the
    /// default, matching the pre-closed-loop behaviour.
    #[default]
    Off,
    /// Derive realized per-member outcomes and track the prequential
    /// prediction error, but never touch the learned models: the
    /// measure-only arm an offline hierarchy is scored with.
    Observe,
    /// The full closed loop: each period's derived outcomes are absorbed
    /// by the module's [`L1Controller`] and the [`L2Controller`] residual
    /// layer where they are derived — the hierarchy self-corrects with no
    /// harness code.
    Learn,
}

/// Internal closed-loop state: telemetry accumulators between slow-level
/// ticks plus the snapshots that anchor each realized outcome to the
/// operating point its decision was taken at.
#[derive(Debug)]
struct ClosedLoop {
    mode: ClosedLoopMode,
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
    /// Per-module sum of realized per-L0-window costs over the running
    /// L2 window.
    module_cost_acc: Vec<f64>,
    /// Per-module arrivals over the running L2 window.
    module_arrivals: Vec<u64>,
    /// Module states at the previous L2 tick (the key the L2 outcome is
    /// absorbed at).
    l2_snapshot: Option<Vec<ModuleState>>,
    /// Prequential tracking error: `|predicted − realized|` cost summed
    /// over derived outcomes, measured against the maps *before* any
    /// update from the outcome.
    err_sum: f64,
    err_n: u64,
    /// One module's learnable outcomes of the L1 period that just ended,
    /// `(member, λ, q₀, realized)` — refilled per module and handed to
    /// its [`L1Controller::absorb_outcomes`] (Learn mode only).
    l1_outcomes: Vec<(usize, f64, f64, GEntry)>,
    /// The modules' outcomes of the L2 period that just ended, `(module,
    /// λ, state, realized cost)`, for [`L2Controller::absorb_outcomes`].
    l2_outcomes: Vec<(usize, f64, ModuleState, f64)>,
}

impl ClosedLoop {
    fn new(mode: ClosedLoopMode, computers: usize, modules: usize) -> Self {
        ClosedLoop {
            mode,
            cost_acc: vec![0.0; computers],
            window_acc: vec![WindowStats::default(); computers],
            q0: vec![0.0; computers],
            served: vec![false; computers],
            refused: vec![0; computers],
            have_snapshot: false,
            module_cost_acc: vec![0.0; modules],
            module_arrivals: vec![0; modules],
            l2_snapshot: None,
            err_sum: 0.0,
            err_n: 0,
            l1_outcomes: Vec::new(),
            l2_outcomes: Vec::new(),
        }
    }
}

/// Knobs of the churn watchdog (see
/// [`crate::PolicyBuilder::fault_tolerance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Consecutive suspect observation windows (telemetry lost, or found
    /// `Off` while ordered on) before a member is declared dead and
    /// excluded from planning. The paper's base window is 30 s, so the
    /// default of 3 declares death after ~90 s of silence.
    pub suspect_after: u64,
    /// Minimum fraction of a module's *live* members that must deliver
    /// healthy telemetry for the L1 to trust its models; below it the
    /// module falls back to safe mode (everything live on, uniform split,
    /// analytic L0 queue model still running frequencies).
    pub telemetry_quorum: f64,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            suspect_after: 3,
            telemetry_quorum: 0.5,
        }
    }
}

impl FaultToleranceConfig {
    /// Validate the knobs.
    ///
    /// # Panics
    ///
    /// Panics if `suspect_after` is zero or `telemetry_quorum` is outside
    /// `[0, 1]`.
    pub fn validated(self) -> Self {
        assert!(self.suspect_after >= 1, "suspect_after must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.telemetry_quorum),
            "telemetry_quorum must be in [0, 1]"
        );
        self
    }
}

/// Watchdog state tracking cluster membership through churn.
#[derive(Debug)]
struct FaultTolerance {
    cfg: FaultToleranceConfig,
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
    /// current-state view behind `PolicyMetrics::safe_mode_active`).
    safe_now: Vec<bool>,
}

impl FaultTolerance {
    fn new(cfg: FaultToleranceConfig, computers: usize, modules: usize) -> Self {
        FaultTolerance {
            cfg,
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

/// Replace the freshly rebuilt map of every member flagged `keep_old`
/// with its currently installed map: a member that died between the
/// rebuild trigger and the swap fed the job telemetry poisoned by its
/// fault, so its fresh map must not be installed — it keeps the pre-fault
/// map until it rejoins and a later rebuild covers it.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub(crate) fn filter_rebuilt_maps(
    fresh: Vec<Arc<AbstractionMap>>,
    keep_old: &[bool],
    old: &[Arc<AbstractionMap>],
) -> Vec<Arc<AbstractionMap>> {
    assert_eq!(fresh.len(), keep_old.len(), "one flag per rebuilt map");
    assert_eq!(old.len(), keep_old.len(), "one installed map per member");
    fresh
        .into_iter()
        .zip(keep_old.iter().zip(old))
        .map(|(f, (&k, o))| if k { Arc::clone(o) } else { f })
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
    // Decision histories backing the figures.
    active_history: Vec<(u64, usize)>,
    gamma_module_history: Vec<(u64, Vec<f64>)>,
    // Overhead accounting, indexed L0 = 0, L1 = 1, L2 = 2.
    overhead: [LevelOverhead; 3],
    /// L2→L1 feed-forward of the decided split (from `L2Config`).
    feed_forward: bool,
    /// Feed-forward events fired so far (metrics surface).
    feed_forward_events: u64,
    /// The split in force (tracks re-splits for the feed-forward).
    last_gamma: Option<Vec<f64>>,
    /// In-hierarchy feedback state, present once a closed-loop mode is
    /// enabled.
    closed_loop: Option<ClosedLoop>,
    /// Build context retained for retrain rebuilds (the knobs
    /// [`HierarchicalPolicy::build`] learned the original models with).
    l0_config: L0Config,
    l1_config: L1Config,
    learn: LearnSpec,
    module_learn: ModuleLearnSpec,
    /// The retrain consumer, present once retraining is configured
    /// (see [`crate::PolicyBuilder::retrain`]).
    retrain: Option<RetrainManager>,
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
                &m.phis,
                c_range,
                lambda_max,
                q_max,
                scenario.learn,
            ))
        });
        // One learned model per ordered composition (the kinds of a
        // module's members, in member order); each module gets its own
        // copy, which shares the tree and owns its online residual.
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
            active_history: Vec::new(),
            gamma_module_history: Vec::new(),
            overhead: [LevelOverhead::default(); 3],
            feed_forward: scenario.l2.feed_forward,
            feed_forward_events: 0,
            last_gamma: None,
            closed_loop: None,
            l0_config: scenario.l0,
            l1_config: scenario.l1,
            learn: scenario.learn,
            module_learn: scenario.module_learn,
            retrain: None,
            fault_tolerance: None,
        }
    }

    /// Switch on churn tolerance: a per-computer watchdog declares a
    /// member dead after [`FaultToleranceConfig::suspect_after`]
    /// consecutive suspect windows (telemetry lost, or found `Off` while
    /// ordered on). Dead members are excluded from the L1's α/γ search
    /// and receive no directives; estimators and drift detectors hold
    /// their state through telemetry gaps instead of ingesting blanks; a
    /// module below the telemetry quorum falls back to safe mode (all
    /// live members on, uniform split); the L2 relaxes its hysteresis for
    /// one decision on every membership change; and a member that died
    /// between a retrain trigger and the hot-swap keeps its pre-fault
    /// map. Without this call the policy is fault-blind: blank blackout
    /// windows and crashed machines are taken at face value.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see
    /// [`FaultToleranceConfig::validated`]).
    pub(crate) fn set_fault_tolerance(&mut self, cfg: FaultToleranceConfig) {
        let cfg = cfg.validated();
        self.fault_tolerance = Some(FaultTolerance::new(cfg, self.l0s.len(), self.l1s.len()));
    }

    /// `true` once the churn watchdog is configured.
    pub fn fault_tolerance_enabled(&self) -> bool {
        self.fault_tolerance.is_some()
    }

    /// `true` while the watchdog considers computer `i` dead.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (with fault tolerance enabled).
    pub fn member_dead(&self, i: usize) -> bool {
        self.fault_tolerance.as_ref().is_some_and(|ft| ft.dead[i])
    }

    /// Members declared dead so far (cumulative, not current).
    pub fn member_deaths(&self) -> u64 {
        self.fault_tolerance.as_ref().map_or(0, |ft| ft.deaths)
    }

    /// Dead members that rejoined so far.
    pub fn member_recoveries(&self) -> u64 {
        self.fault_tolerance.as_ref().map_or(0, |ft| ft.recoveries)
    }

    /// Module-periods spent in safe mode (uniform split over live
    /// members) because telemetry fell below quorum or a member died with
    /// a retrain in flight.
    pub fn safe_mode_periods(&self) -> u64 {
        self.fault_tolerance
            .as_ref()
            .map_or(0, |ft| ft.safe_mode_periods)
    }

    /// Close the loop in-hierarchy: from now on the policy derives
    /// realized per-member outcomes from the plant telemetry it already
    /// receives (window response slack + energy + end queue) and, every
    /// period, hands them to its own L1 controllers and the L2 residual
    /// layer ([`L1Controller::absorb_outcomes`],
    /// [`L2Controller::absorb_outcomes`]) before deciding on the updated
    /// models.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see [`OnlineConfig::validated`]).
    pub(crate) fn set_closed_loop(&mut self, cfg: OnlineConfig) {
        // Unconditional: `cfg` defines the whole loop's knobs. Re-enabling
        // an already-online controller restarts its detectors under the
        // new configuration rather than silently mixing an older one into
        // the closed loop.
        for l1 in &mut self.l1s {
            l1.enable_online(cfg);
        }
        if let Some(l2) = self.l2.as_mut() {
            l2.enable_online(cfg);
        }
        self.closed_loop = Some(ClosedLoop::new(
            ClosedLoopMode::Learn,
            self.l0s.len(),
            self.members.len(),
        ));
    }

    /// Derive realized outcomes without learning from them: the policy
    /// tracks its prequential prediction error
    /// ([`HierarchicalPolicy::tracking_error`]) but never touches its
    /// learned models — the offline-only control arm of the closed-loop
    /// benches.
    pub(crate) fn set_outcome_tracking(&mut self) {
        self.closed_loop = Some(ClosedLoop::new(
            ClosedLoopMode::Observe,
            self.l0s.len(),
            self.members.len(),
        ));
    }

    /// The closed-loop mode in force.
    pub fn closed_loop_mode(&self) -> ClosedLoopMode {
        self.closed_loop
            .as_ref()
            .map_or(ClosedLoopMode::Off, |cl| cl.mode)
    }

    /// Mean prequential tracking error of the abstraction maps against
    /// realized per-member outcomes (`|predicted − realized|` cost,
    /// measured before each outcome is absorbed), or `None` before any
    /// outcome was derived.
    pub fn tracking_error(&self) -> Option<f64> {
        let cl = self.closed_loop.as_ref()?;
        (cl.err_n > 0).then(|| cl.err_sum / cl.err_n as f64)
    }

    /// Realized outcomes derived so far.
    pub fn tracking_samples(&self) -> u64 {
        self.closed_loop.as_ref().map_or(0, |cl| cl.err_n)
    }

    /// Online observations blended into the learned models so far,
    /// summed over every L1 and the L2.
    pub fn online_updates(&self) -> u64 {
        let l1: u64 = self.l1s.iter().map(|l| l.online_updates()).sum();
        l1 + self.l2.as_ref().map_or(0, |l2| l2.online_updates())
    }

    /// `true` once any level's drift detector reports that residuals
    /// stopped being local (see `llc_core::DriftDetector`): incremental
    /// blending is patching a model that is wrong everywhere, and an
    /// offline re-train ([`HierarchicalPolicy::build`]) should be
    /// scheduled. Consumed once the retrain consumer is configured
    /// ([`crate::PolicyBuilder::retrain`]): the hot-swap of the rebuilt
    /// models re-arms the detectors that latched. Without it the
    /// recommendation stays up as a standing alarm.
    pub fn retrain_recommended(&self) -> bool {
        self.l1s.iter().any(|l| l.retrain_recommended())
            || self.l2.as_ref().is_some_and(|l2| l2.retrain_recommended())
    }

    /// Switch on the retrain consumer: when `retrain_recommended()`
    /// latches, a background thread rebuilds the affected modules'
    /// abstraction maps (and, in multi-module clusters, their L2 cost
    /// models) over envelopes centered on fresh drift-corrected `ĉ/ŝ`
    /// telemetry, and the hierarchy hot-swaps them in exactly one L1
    /// period later — detect → latch → rebuild → hot-swap → reset, with
    /// `cfg`'s cooldown and budget guarding against rebuild thrash.
    /// Meaningful together with [`crate::PolicyBuilder::closed_loop`]
    /// (the latch is raised by the online learning path).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see [`RetrainConfig::validated`]).
    pub(crate) fn set_retrain(&mut self, cfg: RetrainConfig) {
        self.retrain = Some(RetrainManager::new(cfg));
    }

    /// Background rebuilds completed and hot-swapped so far.
    pub fn retrain_rebuilds(&self) -> usize {
        self.retrain.as_ref().map_or(0, |r| r.rebuilds())
    }

    /// The completed rebuilds (trigger tick, swap tick, modules), oldest
    /// first.
    pub fn retrain_history(&self) -> &[RebuildRecord] {
        self.retrain.as_ref().map_or(&[], |r| r.history())
    }

    /// `true` while a background rebuild is in flight (spawned but not
    /// yet hot-swapped).
    pub fn retrain_pending(&self) -> bool {
        self.retrain.as_ref().is_some_and(|r| r.pending())
    }

    /// Hot-swap a finished background rebuild in, if one is ready at
    /// `tick`: install the fresh maps into the affected L1s (resetting
    /// their detectors and releasing the latch) and the fresh cost
    /// models into the L2.
    fn apply_ready_retrain(&mut self, tick: u64) {
        let Some(manager) = self.retrain.as_mut() else {
            return;
        };
        let Some(output) = manager.take_ready(tick) else {
            return;
        };
        for (m, maps) in output.maps {
            // A member that died between the trigger and this swap fed
            // the rebuild telemetry poisoned by its fault: keep its
            // installed pre-fault map and install fresh maps only for the
            // surviving membership.
            let maps = match self.fault_tolerance.as_ref() {
                Some(ft) => {
                    let keep_old: Vec<bool> = self.members[m].iter().map(|&i| ft.dead[i]).collect();
                    if keep_old.iter().any(|&k| k) {
                        let old: Vec<Arc<AbstractionMap>> = (0..keep_old.len())
                            .map(|pos| Arc::clone(self.l1s[m].map_arc(pos)))
                            .collect();
                        filter_rebuilt_maps(maps, &keep_old, &old)
                    } else {
                        maps
                    }
                }
                None => maps,
            };
            self.l1s[m].install_maps(maps);
        }
        if let Some(l2) = self.l2.as_mut() {
            for (m, model) in output.models {
                l2.install_model(m, model);
            }
        }
    }

    /// Spawn a background rebuild when the latch is up and the manager's
    /// cooldown/budget allow it. The job snapshots *effective* member
    /// processing times (`ĉ/ŝ`: demand telemetry over the drift-aware
    /// L0 capacity scale) so the rebuilt envelopes cover the capacity
    /// actually being delivered, and is joined one L1 period later.
    fn maybe_trigger_retrain(&mut self, tick: u64) {
        let Some(manager) = self.retrain.as_ref() else {
            return;
        };
        let cooldown = manager.config().cooldown_periods * self.cadence.l1_every;
        if !manager.can_trigger(tick, cooldown) {
            return;
        }
        let l2_latched: Vec<bool> = (0..self.members.len())
            .map(|m| {
                self.l2
                    .as_ref()
                    .is_some_and(|l2| l2.module_retrain_recommended(m))
            })
            .collect();
        let affected: Vec<usize> = (0..self.members.len())
            .filter(|&m| self.l1s[m].retrain_recommended() || l2_latched[m])
            .collect();
        if affected.is_empty() {
            return;
        }
        let has_l2 = self.l2.is_some();
        let jobs: Vec<ModuleRebuildJob> = affected
            .iter()
            .map(|&m| {
                let cs = self.l1s[m].c_estimates();
                let specs: Vec<MemberSpec> = self.l1s[m]
                    .member_specs()
                    .iter()
                    .zip(&cs)
                    .map(|(spec, &c_eff)| MemberSpec {
                        phis: spec.phis.clone(),
                        speed: spec.speed,
                        c_prior: c_eff,
                    })
                    .collect();
                // Re-estimate each member's learning envelope from the
                // ranges its absorbed outcomes actually visited: headroom
                // (×1.5 on λ, ×2 on q₀) above the visited ceiling,
                // floored so the overload knee (capacity ≈ 1/ĉ_eff)
                // always stays inside the grid, capped at the static
                // envelope. Same grid steps over a tighter box = finer
                // cells exactly where the traffic lives. Members with no
                // recorded outcomes keep the static envelope.
                let envelopes: Vec<((f64, f64), f64, f64)> = specs
                    .iter()
                    .enumerate()
                    .map(|(pos, spec)| {
                        let (c_range, lambda_default, q_default) = spec.learn_envelope();
                        match self.l1s[m].visited_envelope(pos) {
                            Some((lambda_vis, q_vis)) => {
                                let lambda_floor = 1.25 / spec.c_prior;
                                let lambda_max =
                                    (lambda_vis * 1.5).clamp(lambda_floor, lambda_default);
                                let q_max = (q_vis * 2.0).clamp(25.0, q_default);
                                (c_range, lambda_max, q_max)
                            }
                            None => (c_range, lambda_default, q_default),
                        }
                    })
                    .collect();
                let old_maps: Vec<Arc<AbstractionMap>> = (0..specs.len())
                    .map(|pos| Arc::clone(self.l1s[m].map_arc(pos)))
                    .collect();
                ModuleRebuildJob {
                    module: m,
                    specs,
                    envelopes,
                    old_maps,
                    rebuild_model: has_l2,
                }
            })
            .collect();
        let ctx = RebuildContext {
            l0: self.l0_config,
            l1: self.l1_config,
            learn: self.learn,
            module_learn: self.module_learn,
        };
        self.retrain.as_mut().expect("checked above").spawn(
            jobs,
            ctx,
            tick,
            tick + self.cadence.l1_every,
        );
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

    /// Number of operating (α = 1) computers decided at each L1 tick —
    /// the series plotted in Fig. 4 (module) and Fig. 6 (cluster).
    pub fn active_history(&self) -> &[(u64, usize)] {
        &self.active_history
    }

    /// The module split `{γ_i}` decided at each L2 tick — Fig. 7.
    pub fn gamma_module_history(&self) -> &[(u64, Vec<f64>)] {
        &self.gamma_module_history
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

    /// Per-level wall-clock overhead, indexed `[L0, L1, L2]`.
    pub fn overhead(&self) -> &[LevelOverhead; 3] {
        &self.overhead
    }

    /// The §5.2 overhead metric: mean execution time along one hierarchy
    /// path (one L2 + one L1 + one L0 decision).
    pub fn path_overhead(&self) -> Duration {
        self.overhead[0].mean() + self.overhead[1].mean() + self.overhead[2].mean()
    }
}

impl ClusterPolicy for HierarchicalPolicy {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        let mut actions = Vec::new();

        // --- Watchdog: track membership through churn (fault tolerance
        // only). A window is suspect when its telemetry was lost or the
        // machine is found `Off` while the last decision wanted it on (a
        // crash, not a shed). `suspect_after` consecutive suspect windows
        // declare the member dead; a dead member rejoins when it is seen
        // powered with healthy telemetry again, and a dead-and-silent
        // `Off` machine is optimistically re-probed after a long healthy
        // streak (a truly crashed machine refuses the power-on and is
        // re-declared dead one `suspect_after` later, at no request loss
        // because boot rerouting never assigns weight to an `Off`
        // machine).
        if let Some(ft) = self.fault_tolerance.as_mut() {
            for comp in &obs.computers {
                let i = comp.index;
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
                        if ft.missed[i] >= ft.cfg.suspect_after {
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
                        && ft.healthy[i] >= 2 * ft.cfg.suspect_after;
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
        for comp in &obs.computers {
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
                if let (Some(c), reference) = (demand, self.l0s[comp.index].c_estimate()) {
                    if reference > 0.0 && !(0.4..=2.5).contains(&(c / reference)) {
                        demand = None;
                    }
                }
            }
            self.l0s[comp.index].observe(comp.window.arrivals, demand);
            let busy =
                comp.queue > 0 && matches!(comp.state, PowerState::On | PowerState::Draining);
            self.l0s[comp.index].observe_service(
                comp.window.completions,
                busy,
                comp.frequency_index,
            );
            if let Some(c) = demand {
                self.member_demand_sum[comp.index] += c;
                self.member_demand_n[comp.index] += 1;
            }
        }
        for module in &obs.modules {
            self.module_arrivals_acc[module.index] += module.arrivals;
            self.global_arrivals_acc += module.arrivals;
        }

        // Closed loop, step 1: fold the realized window into the running
        // L1/L2 accumulators. The realized per-window cost is the L0 cost
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
        if let Some(cl) = self.closed_loop.as_mut() {
            for comp in &obs.computers {
                let cfg = self.l0s[comp.index].config();
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
                        comp.rejected as f64 * DROP_TIMEOUT_FACTOR * cfg.response_target
                            / cfg.period;
                    let charge = cfg.q_weight * drop_slack;
                    cl.cost_acc[comp.index] += charge;
                    cl.module_cost_acc[comp.module] += charge;
                    cl.refused[comp.index] += comp.rejected;
                }
                if ft_on && !comp.telemetry_ok {
                    // A window with a telemetry gap cannot anchor a valid
                    // realized outcome: poison this member's running L1
                    // window rather than folding blanks into it.
                    cl.served[comp.index] = false;
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
                let cost = cfg.q_weight * slack + cfg.r_weight * power;
                cl.cost_acc[comp.index] += cost;
                cl.window_acc[comp.index].absorb(&comp.window);
                cl.module_cost_acc[comp.module] += cost;
            }
            for module in &obs.modules {
                cl.module_arrivals[module.index] += module.arrivals;
            }
        }

        // --- L2: split global load over modules (top-down first). ---
        if self.cadence.is_l2_tick(obs.tick) {
            if let Some(l2) = self.l2.as_mut() {
                let started = Instant::now();
                l2.observe(self.global_arrivals_acc);
                self.global_arrivals_acc = 0;

                // Closed loop, L2 leg: the realized per-L1-period cost of
                // each module over the window that just ended, keyed at
                // the state the previous decision split against, absorbed
                // into the residual layer before this decision consults
                // the models.
                if let Some(cl) = self.closed_loop.as_mut() {
                    if let (ClosedLoopMode::Learn, Some(snapshot)) =
                        (cl.mode, cl.l2_snapshot.as_ref())
                    {
                        let period = self.cadence.l2_every as f64 * self.l0s[0].config().period;
                        cl.l2_outcomes.clear();
                        for (m, state) in snapshot.iter().enumerate() {
                            let lambda = cl.module_arrivals[m] as f64 / period;
                            let realized = cl.module_cost_acc[m] * self.cadence.l1_every as f64
                                / self.cadence.l2_every as f64;
                            cl.l2_outcomes.push((m, lambda, *state, realized));
                        }
                        l2.absorb_outcomes(&cl.l2_outcomes);
                    }
                    cl.module_cost_acc.iter_mut().for_each(|c| *c = 0.0);
                    cl.module_arrivals.iter_mut().for_each(|a| *a = 0);
                }

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
                if let Some(cl) = self.closed_loop.as_mut() {
                    cl.l2_snapshot = Some(states);
                }

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

                self.gamma_module_history
                    .push((obs.tick, decision.gamma.clone()));
                actions.push(Action::SetModuleWeights(decision.gamma));
                self.overhead[2].record(started.elapsed(), 1);
            } else {
                self.global_arrivals_acc = 0;
                // No L2 (single-module scenario): the global dispatcher
                // still needs weights once, or a cold-started cluster
                // drops everything at the top-level router.
                if obs.tick == 0 {
                    actions.push(Action::SetModuleWeights(vec![1.0]));
                }
            }
        }

        // --- L1: per-module α and γ. ---
        if self.cadence.is_l1_tick(obs.tick) {
            // Hot-swap a finished background rebuild in *before* this
            // round of decisions, so the fresh maps serve immediately.
            self.apply_ready_retrain(obs.tick);

            // One pass per module, in module order: observation plumbing
            // and closed-loop measurement/learning, the decide, then the
            // bookkeeping and the power and routing actions it implies.
            let mut total_active = 0usize;
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
                // and (in Learn mode) absorb the outcomes into this
                // module's abstraction maps before deciding on them.
                if let Some(cl) = self.closed_loop.as_mut() {
                    if cl.have_snapshot {
                        let period = self.cadence.l1_every as f64 * self.l0s[0].config().period;
                        let cs = self.l1s[m].c_estimates();
                        let learn = cl.mode == ClosedLoopMode::Learn;
                        cl.l1_outcomes.clear();
                        for (pos, &i) in self.members[m].iter().enumerate() {
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
                            let predicted =
                                self.l1s[m].map(pos).query(lambda, cs[pos], cl.q0[i]).cost;
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
                // telemetry for the learned models to be trusted, or a
                // member died with a rebuild in flight, stop optimizing
                // and hold the module in its analytically safe posture —
                // every live member on, load split uniformly over those
                // actually serving. The L0s' analytic queue models keep
                // picking frequencies underneath.
                let safe_mode = ft_on && live_count > 0 && {
                    let healthy = self.members[m]
                        .iter()
                        .enumerate()
                        .filter(|&(pos, &i)| !dead_pos[pos] && obs.computers[i].telemetry_ok)
                        .count();
                    let quorum = self
                        .fault_tolerance
                        .as_ref()
                        .expect("ft_on")
                        .cfg
                        .telemetry_quorum;
                    let any_dead = dead_pos.iter().any(|&d| d);
                    ((healthy as f64) < quorum * live_count as f64)
                        || (any_dead && self.retrain.as_ref().is_some_and(|r| r.pending()))
                };
                if let Some(ft) = self.fault_tolerance.as_mut() {
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
                if let Some(cl) = self.closed_loop.as_mut() {
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
                        actions.push(Action::PowerOn(i));
                    } else if !decision.alpha[pos] && active[pos] && !draining {
                        actions.push(Action::PowerOff(i));
                    }
                }
                total_active += decision.alpha.iter().filter(|&&a| a).count();

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
                actions.push(Action::SetComputerWeights(m, routed));
                self.overhead[1].record(started.elapsed(), 1);
            }
            self.active_history.push((obs.tick, total_active));
            if let Some(cl) = self.closed_loop.as_mut() {
                cl.have_snapshot = true;
            }
            // The learning passes above may have pushed a detector over
            // its locality threshold: consume the latch by spawning the
            // background rebuild (joined one L1 period from now).
            self.maybe_trigger_retrain(obs.tick);
        }

        // --- L0: per-computer frequency, every tick, active machines,
        // timed as one round (see `LevelOverhead`). ---
        let started = Instant::now();
        let mut decided = 0u64;
        for comp in &obs.computers {
            if matches!(comp.state, PowerState::Off) {
                continue;
            }
            if let Some(ft) = self.fault_tolerance.as_ref() {
                // A dead member takes no directives; a blacked-out one
                // reported a blank queue that must not drive its DVFS.
                if ft.dead[comp.index] || !comp.telemetry_ok {
                    continue;
                }
            }
            let decision = self.l0s[comp.index]
                .decide(comp.queue)
                .expect("frequency table is non-empty");
            decided += 1;
            if decision.frequency_index != comp.frequency_index {
                actions.push(Action::SetFrequency(comp.index, decision.frequency_index));
            }
        }
        if decided > 0 {
            self.overhead[0].record(started.elapsed(), decided);
        }

        actions
    }

    fn name(&self) -> &str {
        "hierarchical-llc"
    }

    fn cadence(&self) -> Cadence {
        self.cadence
    }

    fn metrics(&self) -> PolicyMetrics {
        PolicyMetrics {
            online_updates: self.online_updates(),
            map_drift_detections: self
                .l1s
                .iter()
                .map(|l| l.member_drift_detections())
                .collect(),
            model_drift_detections: self
                .l2
                .as_ref()
                .map_or_else(Vec::new, |l2| l2.module_drift_detections()),
            tracking_error: self.tracking_error(),
            tracking_samples: self.tracking_samples(),
            retrain_triggers: self.retrain.as_ref().map_or(0, |r| r.triggers()),
            rebuilds: self.retrain.as_ref().map_or(0, |r| r.rebuilds() as u64),
            retrain_pending: self.retrain_pending(),
            member_deaths: self.member_deaths(),
            member_recoveries: self.member_recoveries(),
            members_dead: self
                .fault_tolerance
                .as_ref()
                .map_or_else(Vec::new, |ft| ft.dead.clone()),
            safe_mode_periods: self.safe_mode_periods(),
            safe_mode_active: self
                .fault_tolerance
                .as_ref()
                .map_or_else(Vec::new, |ft| ft.safe_now.clone()),
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
    use crate::policy::{ComputerObs, ModuleObs};
    use crate::single_module;

    fn obs_for(policy: &HierarchicalPolicy, tick: u64, arrivals_per_comp: u64) -> Observations {
        let n = policy.num_computers();
        let computers = (0..n)
            .map(|i| ComputerObs {
                index: i,
                module: 0,
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
            time: tick as f64 * 30.0,
            computers,
            modules: vec![ModuleObs {
                index: 0,
                arrivals: arrivals_per_comp * n as u64,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn build_matches_scenario_shape() {
        let scenario = single_module(4).with_coarse_learning();
        let policy = HierarchicalPolicy::build(&scenario);
        assert_eq!(policy.num_computers(), 4);
        assert_eq!(policy.num_modules(), 1);
        assert!(policy.l2().is_none(), "single module has no L2");
        assert_eq!(policy.overhead()[0].decisions, 0);
    }

    #[test]
    fn first_tick_sets_global_weights_for_single_module() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        let actions = policy.decide(&obs_for(&policy, 0, 100));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetModuleWeights(w) if w == &vec![1.0])),
            "tick 0 must set the global dispatch weights: {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetComputerWeights(0, _))),
            "tick 0 must set the module's computer weights"
        );
    }

    #[test]
    fn l1_fires_only_on_its_period() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        let _ = policy.decide(&obs_for(&policy, 0, 100));
        assert_eq!(policy.active_history().len(), 1);
        // Ticks 1-3: no L1 decision.
        for t in 1..4 {
            let _ = policy.decide(&obs_for(&policy, t, 100));
            assert_eq!(policy.active_history().len(), 1, "tick {t}");
        }
        let _ = policy.decide(&obs_for(&policy, 4, 100));
        assert_eq!(policy.active_history().len(), 2);
    }

    #[test]
    fn overhead_counters_accumulate() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        for t in 0..8 {
            let _ = policy.decide(&obs_for(&policy, t, 200));
        }
        let overhead = policy.overhead();
        assert_eq!(overhead[1].decisions, 2, "two L1 periods in 8 ticks");
        assert_eq!(overhead[0].decisions, 16, "2 computers x 8 ticks of L0");
        assert!(policy.path_overhead() > Duration::ZERO);
        assert_eq!(policy.name(), "hierarchical-llc");
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
        policy.set_fault_tolerance(FaultToleranceConfig::default());
        let _ = policy.decide(&obs_for(&policy, 0, 3000));
        // Three consecutive dark windows: declared dead at the third.
        for t in 1..4 {
            let mut o = obs_for(&policy, t, 3000);
            blackout(&mut o, 1);
            let _ = policy.decide(&o);
        }
        assert!(policy.member_dead(1), "3 dark windows must declare death");
        assert_eq!(policy.member_deaths(), 1);

        // L1 tick while dead: no load and no directives for member 1 —
        // a blackout-dead machine is still serving and must not be
        // drained just because its telemetry went dark.
        let mut o = obs_for(&policy, 4, 3000);
        blackout(&mut o, 1);
        let actions = policy.decide(&o);
        for a in &actions {
            match a {
                Action::PowerOn(i) | Action::PowerOff(i) | Action::SetFrequency(i, _) => {
                    assert_ne!(*i, 1, "directive {a:?} to a dead member");
                }
                Action::SetComputerWeights(_, w) => {
                    assert_eq!(w[1], 0.0, "load routed to a dead member");
                    assert!((w[0] - 1.0).abs() < 1e-9, "survivor carries the module");
                }
                Action::SetModuleWeights(_) => {}
            }
        }

        // Telemetry returns (machine was serving all along): rejoin.
        let _ = policy.decide(&obs_for(&policy, 5, 3000));
        assert!(!policy.member_dead(1), "healthy powered member rejoins");
        assert_eq!(policy.member_recoveries(), 1);
    }

    #[test]
    fn watchdog_declares_crashed_member_dead() {
        let scenario = single_module(2).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance(FaultToleranceConfig::default());
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
            policy.member_dead(1),
            "a machine found Off while wanted on has crashed"
        );
        // Restart (repair + boot): powered again with telemetry → rejoin.
        let mut o = obs_for(&policy, 12, 3000);
        o.computers[1].state = PowerState::Booting { ready_at: 480.0 };
        let _ = policy.decide(&o);
        assert!(!policy.member_dead(1), "restarted member rejoins");
        assert_eq!(policy.member_recoveries(), 1);
    }

    #[test]
    fn telemetry_quorum_loss_falls_back_to_safe_mode() {
        let scenario = single_module(4).with_coarse_learning();
        let mut policy = HierarchicalPolicy::build(&scenario);
        policy.set_fault_tolerance(FaultToleranceConfig {
            suspect_after: 10, // stay in the suspect (pre-death) regime
            ..FaultToleranceConfig::default()
        });
        let _ = policy.decide(&obs_for(&policy, 0, 3000));
        // 3 of 4 members dark: 1/4 healthy < 0.5 quorum at the L1 tick.
        for t in 1..5 {
            let mut o = obs_for(&policy, t, 3000);
            for i in 1..4 {
                blackout(&mut o, i);
            }
            let actions = policy.decide(&o);
            if t == 4 {
                assert!(policy.safe_mode_periods() >= 1, "quorum loss → safe mode");
                let weights = actions.iter().find_map(|a| match a {
                    Action::SetComputerWeights(_, w) => Some(w.clone()),
                    _ => None,
                });
                let w = weights.expect("L1 tick routes");
                for &g in &w {
                    assert!(
                        (g - 0.25).abs() < 1e-9,
                        "safe mode splits uniformly over live serving members: {w:?}"
                    );
                }
            }
        }
        assert_eq!(policy.member_deaths(), 0, "nobody declared dead yet");
    }

    #[test]
    fn filter_rebuilt_maps_keeps_installed_map_for_dead_members() {
        let scenario = single_module(2).with_coarse_learning();
        let policy = HierarchicalPolicy::build(&scenario);
        let old: Vec<Arc<AbstractionMap>> = (0..2)
            .map(|pos| Arc::clone(policy.l1(0).map_arc(pos)))
            .collect();
        let fresh: Vec<Arc<AbstractionMap>> = old.iter().map(|m| Arc::new((**m).clone())).collect();
        let fresh_ptrs: Vec<_> = fresh.iter().map(Arc::as_ptr).collect();
        let out = filter_rebuilt_maps(fresh, &[false, true], &old);
        assert_eq!(
            out[0].as_ref() as *const _,
            fresh_ptrs[0],
            "live: fresh map"
        );
        assert!(
            Arc::ptr_eq(&out[1], &old[1]),
            "dead: keeps the installed pre-fault map"
        );
    }
}
