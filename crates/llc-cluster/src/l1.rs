use crate::split::{SplitChild, SplitLevel};
use crate::{L0Config, L0Controller};
use llc_approx::{train_dense, Blend, DenseGrid, GridSampler, SimplexGrid};
use llc_core::{DriftDetector, LearnRate, OnlineConfig, UncertaintyBand};
use llc_forecast::{Ewma, Forecaster};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A cell of the abstraction map `g`: the average per-`T_L0` cost the L0
/// controller achieves over one L1 period, and the queue it leaves behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GEntry {
    /// Average cost per L0 period (response slack + power).
    pub cost: f64,
    /// Average power draw over the L1 period (`a + φ²` units).
    pub power: f64,
    /// Queue length at the end of the L1 period.
    pub final_q: f64,
}

impl Blend for GEntry {
    /// Component-wise exponential blend: cost, power and end-queue all
    /// drift toward the observed outcome at the same rate.
    fn blend(&mut self, target: &Self, w: f64) {
        self.cost.blend(&target.cost, w);
        self.power.blend(&target.power, w);
        self.final_q.blend(&target.final_q, w);
    }
}

/// No-op until ROADMAP item 15: `benchmark/src/replay.rs` passes one to
/// [`AbstractionMap::learn_for_member`]. Every map is a [`DenseGrid`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapBackend {
    /// The one substrate.
    Dense,
}

/// The abstraction map `g` for one computer (§4.2): a table over the
/// quantized `(λ, ĉ, q₀)` domain, learned offline by replaying the L0
/// controller on the analytic queue model — "the map g is initially
/// obtained in off-line fashion by simulating the L0 controller using
/// various values from the input set and a quantized approximation of the
/// domain of ω". Backed by a [`DenseGrid`], which also grows a cell for
/// each outcome observed online where the offline pass stored none.
#[derive(Debug)]
pub struct AbstractionMap {
    table: DenseGrid<GEntry>,
    /// Upper edge of the trained arrival-rate grid.
    lambda_max: f64,
    /// Upper edge of the trained queue grid.
    q_max: f64,
    /// L0 steps per L1 period (l = T_L1 / T_L0).
    steps_per_period: usize,
    /// The L0 configuration replayed for out-of-grid queries.
    l0: L0Config,
    /// The computer's frequency scaling factors.
    phis: Vec<f64>,
    /// Memo of out-of-grid analytic replays. The replay is a pure
    /// function of `(λ, ĉ, q₀)` and the offline learning loops re-ask the
    /// same overload points thousands of times across grid points, so
    /// the map caches answers across *all* consumers sharing it (the
    /// maps are `Arc`-shared). Keyed by exact bit patterns: cached
    /// answers are bit-identical to fresh replays.
    replay_cache: Mutex<HashMap<(u64, u64, u64), GEntry>>,
}

impl Clone for AbstractionMap {
    fn clone(&self) -> Self {
        AbstractionMap {
            table: self.table.clone(),
            lambda_max: self.lambda_max,
            q_max: self.q_max,
            steps_per_period: self.steps_per_period,
            l0: self.l0,
            phis: self.phis.clone(),
            // A fresh cache: cheaper to refill than to deep-copy, and
            // semantically invisible (a pure function of the key).
            replay_cache: Mutex::new(HashMap::new()),
        }
    }
}

/// Resolution of the offline learning grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnSpec {
    /// Grid steps along the arrival-rate axis.
    pub lambda_steps: usize,
    /// Grid steps along the processing-time axis.
    pub c_steps: usize,
    /// Grid steps along the initial-queue axis.
    pub q_steps: usize,
}

impl Default for LearnSpec {
    fn default() -> Self {
        LearnSpec {
            lambda_steps: 24,
            c_steps: 5,
            q_steps: 6,
        }
    }
}

impl LearnSpec {
    /// A coarse grid for fast unit tests.
    ///
    /// Coarse must still resolve the overload knee: the λ grid spans
    /// ~3.3× a computer's capacity, so with 8 steps a cell was ~0.5×
    /// capacity wide and a just-overloaded rate quantized down to a
    /// stable one — the L1 would happily shed machines into overload.
    /// 20 steps keep the knee inside one cell of its true position; the
    /// dense-grid substrate makes the extra points cheap even in tests.
    pub fn coarse() -> Self {
        LearnSpec {
            lambda_steps: 20,
            c_steps: 3,
            q_steps: 3,
        }
    }
}

impl AbstractionMap {
    /// Learn the map for a computer with scaling factors `phis` whose
    /// local processing times range over `c_range` seconds, for arrival
    /// rates up to `lambda_max` req/s and queues up to `q_max`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate ranges.
    pub fn learn(
        l0: &L0Config,
        phis: &[f64],
        c_range: (f64, f64),
        lambda_max: f64,
        q_max: f64,
        spec: LearnSpec,
    ) -> Self {
        assert!(c_range.0 > 0.0 && c_range.1 >= c_range.0, "invalid c range");
        assert!(lambda_max > 0.0, "lambda_max must be positive");
        assert!(q_max >= 0.0, "q_max must be non-negative");
        let steps_per_period = 4; // T_L1 / T_L0 = l = 4 in the paper
        let sampler = GridSampler::new(vec![
            (0.0, lambda_max, spec.lambda_steps),
            (c_range.0, c_range.1, spec.c_steps),
            (0.0, q_max, spec.q_steps),
        ]);
        let g = |p: &[f64]| {
            let (cost, power, final_q) =
                L0Controller::simulate_model(l0, phis, p[2], p[0], p[1], steps_per_period);
            GEntry {
                cost,
                power,
                final_q,
            }
        };
        AbstractionMap {
            table: train_dense(&sampler, g),
            lambda_max,
            q_max,
            steps_per_period,
            l0: *l0,
            phis: phis.to_vec(),
            replay_cache: Mutex::new(HashMap::new()),
        }
    }

    /// [`AbstractionMap::learn`] over `spec`'s standard envelope
    /// ([`MemberSpec::learn_envelope`]). The fourth parameter is a no-op
    /// until ROADMAP item 15: `benchmark/src/replay.rs` passes it.
    #[doc(hidden)]
    pub fn learn_for_member(
        l0: &L0Config,
        spec: &MemberSpec,
        learn: LearnSpec,
        _: MapBackend,
    ) -> Self {
        let (c_range, lambda_max, q_max) = spec.learn_envelope();
        Self::learn(l0, &spec.phis, c_range, lambda_max, q_max, learn)
    }

    /// Number of stored cells, trained and grown.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the map holds no cells.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Approximate cost/next-queue for `(λ, ĉ, q₀)`.
    ///
    /// Within the trained grid this is a table lookup. Queries
    /// *outside* the grid — arrival rates beyond the learned ceiling or
    /// backlogs deeper than the learned queue range, both transient
    /// overload states — replay the analytic L0 model directly instead:
    /// clamping them into the grid would flatten the overload cost and
    /// make dumping all load on one saturated computer look as cheap as
    /// splitting it (the paper's table faces the same edge; the hybrid
    /// keeps the common path O(1) while staying exact in the tail). The
    /// exception is a point whose own cell holds a *measured* outcome
    /// (see [`AbstractionMap::update_online`]).
    pub fn query(&self, lambda: f64, c: f64, q0: f64) -> GEntry {
        let lambda = lambda.max(0.0);
        let q0 = q0.max(0.0);
        let key = [lambda, c, q0];
        if lambda <= self.lambda_max && q0 <= self.q_max {
            return *self.table.probe(&key);
        }
        // An online write may have grown a *measured* cell out here;
        // prefer it over replaying the possibly-drifted offline model.
        // Two guards keep this from changing anything else: exact-cell
        // hits only (the robust probe's nearest-cell rule would let one
        // far-out cell flatten the whole overload tail between it and the
        // trained box), and only measured cells — a *trained* edge cell
        // never written that happens to share a quantizer cell with a
        // just-out-of-envelope query keeps replaying.
        if self.table.measured(&key) {
            if let Some(entry) = self.table.get_exact(&key) {
                return *entry;
            }
        }
        // Offline learning re-asks the same overload points thousands of
        // times; a long *online* run under sustained overload asks
        // ever-fresh forecast-derived values instead. The cap keeps the
        // memo effective for the former without letting the latter grow
        // it without bound (~3 MB at the cap).
        let key = (lambda.to_bits(), c.to_bits(), q0.to_bits());
        if let Some(entry) = self.replay_cache.lock().expect("cache lock").get(&key) {
            return *entry;
        }
        let entry = self.replay(lambda, c, q0);
        let mut cache = self.replay_cache.lock().expect("cache lock");
        if cache.len() < Self::REPLAY_CACHE_CAP {
            cache.insert(key, entry);
        }
        entry
    }

    /// Blend the realized outcome of one control period into the map —
    /// the paper's §6 outlook ("the abstraction maps … can be updated
    /// online using the observed values"), so the map self-corrects under
    /// drift without re-running the offline training pass.
    ///
    /// The write is insert-or-blend *everywhere*, growing the map's
    /// coverage from observed traffic ([`DenseGrid::update`]): a cell
    /// grown beyond the trained envelope is preferred by
    /// [`AbstractionMap::query`] over the analytic replay — but only that
    /// exact cell, so one far-out observation never becomes the
    /// nearest-cell authority for the whole region between it and the
    /// trained box. Blends at [`OnlineConfig::LEARNING_RATE`], and the
    /// written cell is measured from then on; the field-less config
    /// argument is kept for `benchmark/src/replay.rs` until ROADMAP item
    /// 15. Returns the blend weight applied (0.0 = observation dropped:
    /// the map holds its bound of grown cells).
    pub fn update_online(
        &mut self,
        lambda: f64,
        c: f64,
        q0: f64,
        outcome: GEntry,
        _: &OnlineConfig,
    ) -> f64 {
        self.table.update(
            &[lambda.max(0.0), c, q0.max(0.0)],
            &outcome,
            OnlineConfig::LEARNING_RATE,
        )
    }

    /// `true` if the cell containing `(λ, ĉ, q₀)` has absorbed an online
    /// outcome.
    pub fn measured_at(&self, lambda: f64, c: f64, q0: f64) -> bool {
        self.table.measured(&[lambda.max(0.0), c, q0.max(0.0)])
    }

    /// L0 steps the map replays per L1 period (`l = T_L1 / T_L0`).
    pub fn steps_per_period(&self) -> usize {
        self.steps_per_period
    }

    /// The exact out-of-grid answer: replay the analytic L0 model.
    fn replay(&self, lambda: f64, c: f64, q0: f64) -> GEntry {
        let (cost, power, final_q) = L0Controller::simulate_model(
            &self.l0,
            &self.phis,
            q0,
            lambda,
            c.max(1e-6),
            self.steps_per_period,
        );
        GEntry {
            cost,
            power,
            final_q,
        }
    }

    /// Cap on the out-of-grid replay memo (~3 MB of entries).
    const REPLAY_CACHE_CAP: usize = 65_536;

    /// Upper edge of the trained arrival-rate grid (req/s).
    pub fn trained_lambda_max(&self) -> f64 {
        self.lambda_max
    }

    /// Upper edge of the trained initial-queue grid.
    pub fn trained_q_max(&self) -> f64 {
        self.q_max
    }
}

/// A member's map as the L1's split level sees it: keyed by `(ĉ, q₀)`.
impl SplitChild for Arc<AbstractionMap> {
    type Key = (f64, f64);

    fn cost(&self, lambda: f64, (c, q0): (f64, f64)) -> f64 {
        self.query(lambda, c, q0).cost
    }
}

/// The L1's online learning over its members' maps: one drift detector
/// per member map and the lifetime counters.
#[derive(Debug, Clone)]
struct Learner {
    /// One Page–Hinkley detector per member map over its normalized
    /// residuals `(realized − predicted) / max(1, |predicted|)`, whose
    /// detections set the map's learning rate.
    detectors: Vec<DriftDetector>,
    /// Outcomes blended in (weight > 0).
    applied: u64,
    /// Outcomes blended at the fast rate.
    fast_applied: u64,
}

/// Configuration of an L1 (module) controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L1Config {
    /// Sampling period `T_L1` in seconds (paper: 120, the boot dead time).
    pub period: f64,
    /// Load-fraction quantum (paper: 0.05 for m = 4, 0.1 for m ∈ {6, 10}).
    pub gamma_quantum: f64,
    /// Switch-on transient penalty `W` (paper: 8).
    pub switch_on_penalty: f64,
    /// Minimum number of active computers kept in the module.
    pub min_active: usize,
    /// Bounded-search improvement rounds for the γ search.
    pub search_rounds: usize,
    /// Bounded-search evaluation budget per candidate α.
    pub search_evals: usize,
    /// Chattering mitigation: average candidate costs over the
    /// `{λ̂−δ, λ̂, λ̂+δ}` band (§4.2). Disable for ablation only.
    pub use_uncertainty_band: bool,
    /// Optional hard power budget for the module (the paper's `H(x) ≤ 0`
    /// constraints include "the overall energy budget for the cluster"):
    /// candidate configurations whose expected power draw exceeds the
    /// budget are infeasible. `None` = unconstrained.
    pub power_budget: Option<f64>,
    /// Branch-and-bound over the candidate α vectors: order them by an
    /// admissible lower bound (switch-on penalty + drain cost — both map
    /// costs are ≥ 0, so the bound never exceeds a candidate's true
    /// total) and skip the γ search for any candidate whose bound
    /// already exceeds the incumbent. Picks the *same* decision as the
    /// exhaustive sweep (see the decision-core golden tests); disable
    /// for ablation or to measure the pruning win.
    pub pruned_search: bool,
}

impl L1Config {
    /// The paper's §4.3 parameters for a four-computer module.
    pub fn paper_default() -> Self {
        L1Config {
            period: 120.0,
            gamma_quantum: 0.05,
            switch_on_penalty: 8.0,
            min_active: 1,
            search_rounds: 24,
            search_evals: 4_000,
            use_uncertainty_band: true,
            power_budget: None,
            pruned_search: true,
        }
    }
}

/// One L1 decision.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Decision {
    /// On/off vector `{α_j}` over the module's computers.
    pub alpha: Vec<bool>,
    /// Load fractions `{γ_j}` (zero for inactive computers, Σ = 1).
    pub gamma: Vec<f64>,
    /// Expected (band-averaged) cost of the chosen configuration.
    pub expected_cost: f64,
    /// Candidate states evaluated during the search (overhead metric —
    /// the paper reports ~858 per period for m = 4). Under the pruned
    /// search this counts only the candidates actually γ-searched, so it
    /// drops as pruning bites.
    pub states_evaluated: usize,
    /// Candidate α vectors whose γ search actually ran.
    pub candidates_evaluated: usize,
    /// Candidate α vectors skipped because their admissible lower bound
    /// already exceeded the incumbent's total cost.
    pub candidates_pruned: usize,
}

/// Static description of one module member as the L1 controller sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSpec {
    /// Frequency scaling factors (ascending, last = 1.0).
    pub phis: Vec<f64>,
    /// Relative full-speed capacity.
    pub speed: f64,
    /// Prior mean local processing time (before observations arrive).
    pub c_prior: f64,
}

impl MemberSpec {
    /// The paper's §4.3 reference computer for `profile`: its frequency
    /// set and relative speed, with the 17.5 ms reference mean demand
    /// (speed-scaled) as the processing-time prior.
    pub fn paper_default(profile: crate::FrequencyProfile) -> Self {
        let cp = crate::ComputerProfile::paper_default(profile);
        MemberSpec {
            phis: cp.phis(),
            speed: cp.speed,
            c_prior: 0.0175 / cp.speed,
        }
    }

    /// The learning envelope every offline pass in this repo trains
    /// over, as `(c_range, lambda_max, q_max)`: ĉ spanning
    /// `(0.6, 1.6)·c_prior`, λ up to 2× the capacity at the *fastest*
    /// in-range service time (so the overload knee is always inside the
    /// trained surface and extrapolation beyond the grid continues an
    /// already-overloaded slope), queues up to 200. One definition keeps
    /// the hierarchy, the benches and the drift tests training —
    /// and therefore gating — over the same maps.
    pub fn learn_envelope(&self) -> ((f64, f64), f64, f64) {
        (
            (self.c_prior * 0.6, self.c_prior * 1.6),
            2.0 / (self.c_prior * 0.6),
            200.0,
        )
    }
}

/// The buffers [`L1Controller::decide`] needs beside its split level's,
/// reused so the steady decide path allocates nothing. Taken off the
/// controller for the duration of a decision and restored at the end.
#[derive(Debug, Clone, Default)]
struct DecideScratch {
    /// Candidate α vectors, flattened `m` entries per candidate.
    candidates: Vec<bool>,
    /// Per-candidate switch-on penalty.
    switch_costs: Vec<f64>,
    /// Per-candidate backlog-drain charge for shed members.
    drain_sums: Vec<f64>,
    /// Per-candidate admissible lower bound (switch + drain).
    bounds: Vec<f64>,
    /// Candidate visit order (bound-sorted under the pruned search).
    order: Vec<usize>,
    /// Per-member zero-load backlog drain cost.
    drain_costs: Vec<f64>,
    /// The γ climb's start: the warm-start split in grid units.
    start: Vec<i64>,
    /// Indices of the members active under the current candidate.
    active_idx: Vec<usize>,
    /// Warm-start load split over the active members.
    weights: Vec<f64>,
    /// Largest-remainder workspace for `SimplexGrid::snap_units_into`.
    snap_rema: Vec<(usize, f64)>,
    /// Per-member effective processing-time estimates for this decision.
    cs: Vec<f64>,
    /// Cached all-false liveness vector for the plain `decide` wrapper.
    no_dead: Vec<bool>,
}

/// One member's effective processing time: the EWMA-filtered demand
/// telemetry (the prior before any completion) over its
/// delivered-capacity scale.
fn effective_c(member: &MemberSpec, filter: &Ewma, scale: f64) -> f64 {
    let c = filter.estimate();
    let c = if c > 0.0 { c } else { member.c_prior };
    c / scale
}

/// The module controller (§4.2): decides `{α_j}` and `{γ_j}` by bounded
/// search over the abstraction maps, with three-sample arrival-rate
/// banding for chattering mitigation.
#[derive(Debug, Clone)]
pub struct L1Controller {
    config: L1Config,
    members: Vec<MemberSpec>,
    /// The split over the members: their abstraction maps and the
    /// module's λ forecast. The maps are shared, not cloned: members of
    /// one kind may hold the same map, and offline module learning
    /// replays thousands of short-lived `L1Controller`s over the same
    /// maps, so construction must not deep-copy the tables.
    level: SplitLevel<Arc<AbstractionMap>>,
    /// Present once online learning is on.
    online: Option<Learner>,
    band: UncertaintyBand,
    c_filters: Vec<Ewma>,
    /// Per-member delivered-capacity scales `ŝ` pushed up from the
    /// drift-aware L0s (1.0 = nominal). [`L1Controller::c_estimates`]
    /// divides by them, so every map query, outcome key and capacity
    /// share runs at the *effective* processing time `ĉ/ŝ` — the
    /// algebraic twin of scaling the queue model's service rate.
    member_scales: Vec<f64>,
    prev_alpha: Vec<bool>,
    /// The previous decision's load split — the warm start of the next γ
    /// search. Quantized cost surfaces plateau (one γ quantum often moves
    /// a query within the same table cell), so a search restarted from
    /// scratch each period stalls wherever its fresh starting point lands;
    /// continuing from the standing split keeps refined allocations.
    prev_gamma: Vec<f64>,
    /// One-shot λ override pushed down by the L2 when it re-splits the
    /// cluster (see [`L1Controller::feed_forward_lambda`]); consumed by
    /// the next decision in place of the trailing forecast.
    pending_feed_forward: Option<f64>,
    /// Lifetime count of candidate α vectors whose γ search ran.
    total_candidates_evaluated: u64,
    /// Lifetime count of candidate α vectors pruned by the bound.
    total_candidates_pruned: u64,
    /// Per-decision buffers, reused so the steady decide path performs
    /// no heap allocation (see [`DecideScratch`]).
    scratch: DecideScratch,
}

impl L1Controller {
    /// Build a controller over `members` with their learned abstraction
    /// maps (one per member, same order).
    ///
    /// # Panics
    ///
    /// Panics if members/maps are empty or lengths differ, or if
    /// `min_active` exceeds the member count.
    pub fn new(config: L1Config, members: Vec<MemberSpec>, maps: Vec<AbstractionMap>) -> Self {
        Self::new_shared(config, members, maps.into_iter().map(Arc::new).collect())
    }

    /// [`L1Controller::new`] over maps that are already shared. Cloning an
    /// `Arc` is O(1), so building many controllers over the same maps
    /// (the offline L2 learning loop) costs nothing per build.
    ///
    /// # Panics
    ///
    /// Panics if members/maps are empty or lengths differ, or if
    /// `min_active` exceeds the member count.
    pub fn new_shared(
        config: L1Config,
        members: Vec<MemberSpec>,
        maps: Vec<Arc<AbstractionMap>>,
    ) -> Self {
        assert!(!members.is_empty(), "module needs at least one computer");
        assert_eq!(members.len(), maps.len(), "one abstraction map per member");
        assert!(
            config.min_active >= 1 && config.min_active <= members.len(),
            "min_active must be in 1..=m"
        );
        let m = members.len();
        let c_filters = members.iter().map(|_| Ewma::paper_default()).collect();
        L1Controller {
            config,
            members,
            level: SplitLevel::new(maps),
            online: None,
            band: UncertaintyBand::new(0.25),
            c_filters,
            member_scales: vec![1.0; m],
            prev_alpha: vec![false; m],
            prev_gamma: vec![0.0; m],
            pending_feed_forward: None,
            total_candidates_evaluated: 0,
            total_candidates_pruned: 0,
            scratch: DecideScratch::default(),
        }
    }

    /// Switch on online incremental learning: realized per-member
    /// outcomes handed to [`L1Controller::absorb_outcomes`] are blended
    /// into the abstraction maps at [`OnlineConfig`]'s rates. Calling it
    /// again restarts the learner (detectors, counters).
    pub fn enable_online(&mut self) {
        self.online = Some(Learner {
            detectors: vec![DriftDetector::new(); self.members.len()],
            applied: 0,
            fast_applied: 0,
        });
    }

    /// Observations blended into the maps so far (weight > 0).
    pub fn online_updates(&self) -> u64 {
        self.online.as_ref().map_or(0, |o| o.applied)
    }

    /// Absorb one control period's realized outcomes, in slice order, as
    /// `(member, λ, q₀, realized)`: the arrival rate actually routed to
    /// the member, the queue it started the period with, and the measured
    /// [`GEntry`]. The map key's ĉ is the member's current estimate, the
    /// one the decision queried. Each outcome feeds the member's drift
    /// detector its residual against the current map, then blends in at
    /// the rate the detector selects ([`LearnRate::Fast`] while a drift
    /// fired within its hold-off window). A map still shared with another
    /// member is copied on its first update; members that never learn
    /// keep sharing. Returns the number of outcomes blended in.
    ///
    /// # Panics
    ///
    /// Panics if online learning is not enabled or a member index is out
    /// of range.
    pub fn absorb_outcomes(&mut self, outcomes: &[(usize, f64, f64, GEntry)]) -> usize {
        let online = self
            .online
            .as_mut()
            .expect("call enable_online before absorb_outcomes");
        let maps = &mut self.level.children;
        let mut applied = 0usize;
        for &(member, lambda, q0, realized) in outcomes {
            let c = effective_c(
                &self.members[member],
                &self.c_filters[member],
                self.member_scales[member],
            );
            let (lambda, q0) = (lambda.max(0.0), q0.max(0.0));
            let predicted = maps[member].query(lambda, c, q0).cost;
            let detector = &mut online.detectors[member];
            detector.observe((realized.cost - predicted) / predicted.abs().max(1.0));
            let fast = detector.rate() == LearnRate::Fast;
            let rate = if fast {
                OnlineConfig::FAST_LEARNING_RATE
            } else {
                OnlineConfig::LEARNING_RATE
            };
            // A map still shared with another owner is copied once, on
            // its first write.
            if Arc::make_mut(&mut maps[member])
                .table
                .update(&[lambda, c, q0], &realized, rate)
                > 0.0
            {
                applied += 1;
                online.applied += 1;
                online.fast_applied += u64::from(fast);
            }
        }
        applied
    }

    /// Drift detections fired across the members' residual streams.
    pub fn drift_detections(&self) -> u64 {
        self.online.as_ref().map_or(0, |o| {
            o.detectors.iter().map(DriftDetector::detections).sum()
        })
    }

    /// Drift detections fired per member (position order) — the
    /// per-learner resolution of the metrics surface. Empty while
    /// online learning is off.
    pub fn member_drift_detections(&self) -> Vec<u64> {
        self.online.as_ref().map_or_else(Vec::new, |o| {
            o.detectors.iter().map(DriftDetector::detections).collect()
        })
    }

    /// Observations blended at the fast re-convergence rate so far.
    pub fn fast_updates(&self) -> u64 {
        self.online.as_ref().map_or(0, |o| o.fast_applied)
    }

    /// The blend rate member `member`'s updates currently run at.
    ///
    /// # Panics
    ///
    /// Panics if online learning is not enabled or `member` is out of
    /// range.
    pub fn member_learn_rate(&self, member: usize) -> LearnRate {
        self.online
            .as_ref()
            .expect("call enable_online before member_learn_rate")
            .detectors[member]
            .rate()
    }

    /// Number of computers managed.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The abstraction map the controller currently consults for
    /// `member` (reflects online updates once they are absorbed).
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn map(&self, member: usize) -> &AbstractionMap {
        &self.level.children[member]
    }

    /// The static member descriptions the controller was built over.
    pub fn member_specs(&self) -> &[MemberSpec] {
        &self.members
    }

    /// Feed one L1 window: module arrivals over `T_L1` and the mean local
    /// demand observed per member (`None` where nothing completed).
    pub fn observe(&mut self, module_arrivals: u64, member_demands: &[Option<f64>]) {
        assert_eq!(
            member_demands.len(),
            self.members.len(),
            "one demand slot per member"
        );
        let actual_rate = module_arrivals as f64 / self.config.period;
        if let Some(pred) = self.level.observe(actual_rate) {
            self.band.observe(actual_rate, pred);
        }
        for (filter, demand) in self.c_filters.iter_mut().zip(member_demands) {
            if let Some(c) = demand {
                filter.observe(*c);
            }
        }
    }

    /// Push the per-member delivered-capacity scales `ŝ` estimated by
    /// the drift-aware L0s (1.0 = nominal). Subsequent
    /// [`L1Controller::c_estimates`] return effective processing times
    /// `ĉ/ŝ`, so the abstraction-map queries, realized-outcome keys and
    /// capacity shares all see the capacity actually being delivered.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the member count or any
    /// scale is not positive.
    pub(crate) fn set_member_scales(&mut self, scales: &[f64]) {
        assert_eq!(scales.len(), self.members.len(), "one scale per member");
        assert!(
            scales.iter().all(|&s| s > 0.0 && s.is_finite()),
            "scales must be positive and finite"
        );
        self.member_scales.copy_from_slice(scales);
    }

    /// Current per-member *effective* processing-time estimates: the
    /// EWMA-filtered demand telemetry ĉ (falling back to the prior before
    /// any completion), divided by the member's delivered-capacity scale
    /// ŝ — at nominal scale exactly the paper's estimate.
    pub fn c_estimates(&self) -> Vec<f64> {
        self.c_iter().collect()
    }

    /// [`c_estimates`](Self::c_estimates) without the `Vec`, in member
    /// order.
    fn c_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.members
            .iter()
            .zip(&self.c_filters)
            .zip(&self.member_scales)
            .map(|((m, f), &s)| effective_c(m, f, s))
    }

    /// Aggregate (mean) processing-time estimate — the module state
    /// exposed upward to the L2 controller (eq. 12).
    pub(crate) fn module_c_estimate(&self) -> f64 {
        self.c_iter().sum::<f64>() / self.members.len() as f64
    }

    /// Module arrival-rate forecast (one `T_L1` ahead, req/s).
    pub fn lambda_estimate(&self) -> f64 {
        self.level.lambda_estimate()
    }

    /// Feed the upper level's re-split decision forward: the next
    /// decision plans against `lambda` (the share of the global forecast
    /// the L2 just assigned this module) instead of the module's own
    /// trailing forecast, which only sees a re-split one period — one
    /// boot dead time — after the fact. One-shot: subsequent decisions
    /// return to the trailing forecast, which by then has observed the
    /// new share.
    pub(crate) fn feed_forward_lambda(&mut self, lambda: f64) {
        self.pending_feed_forward = Some(lambda.max(0.0));
    }

    /// The current uncertainty half-width `δ`.
    pub fn delta(&self) -> f64 {
        self.band.delta()
    }

    /// The recorded (actual, predicted) arrival-rate pairs.
    pub fn forecast_history(&self) -> &[(f64, f64)] {
        &self.level.forecast_history
    }

    /// Average candidate states evaluated per decision.
    pub fn mean_states_evaluated(&self) -> f64 {
        self.level.mean_states_evaluated()
    }

    /// Candidate α vectors whose γ search ran, across all decisions.
    pub(crate) fn candidates_evaluated(&self) -> u64 {
        self.total_candidates_evaluated
    }

    /// Candidate α vectors pruned by the admissible bound, across all
    /// decisions. Zero while `pruned_search` is off.
    pub(crate) fn candidates_pruned(&self) -> u64 {
        self.total_candidates_pruned
    }

    /// Decide `{α_j}` and `{γ_j}` given each member's observed queue.
    ///
    /// `active` is the current plant state (booting counts as active).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the member count.
    pub fn decide(&mut self, queues: &[usize], active: &[bool]) -> L1Decision {
        // Borrowed out of the scratch (not rebuilt) so the common
        // no-exclusions path stays allocation-free.
        let mut dead = std::mem::take(&mut self.scratch.no_dead);
        dead.clear();
        dead.resize(self.members.len(), false);
        let decision = self.decide_excluding(queues, active, &dead);
        self.scratch.no_dead = dead;
        decision
    }

    /// [`decide`](Self::decide) over the surviving membership only: members
    /// flagged `dead` are forced off in every candidate, excluded from the
    /// γ simplex, charged no drain cost (their queues are unreachable), and
    /// never chosen as the power-budget fallback. `min_active` is clamped
    /// to the live count so churn cannot make the constraint infeasible.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the member count or every
    /// member is dead (the caller's safe mode must handle that case).
    pub(crate) fn decide_excluding(
        &mut self,
        queues: &[usize],
        active: &[bool],
        dead: &[bool],
    ) -> L1Decision {
        assert_eq!(queues.len(), self.members.len(), "queue per member");
        assert_eq!(active.len(), self.members.len(), "state per member");
        assert_eq!(dead.len(), self.members.len(), "liveness per member");
        let m = self.members.len();
        let live_count = dead.iter().filter(|&&d| !d).count();
        assert!(live_count > 0, "at least one member must be live");
        let min_active = self.config.min_active.min(live_count);

        // After an L2 re-split, plan for the assigned share now, not a
        // dead time from now.
        let lambda_hat = self.level.plan(self.pending_feed_forward.take());
        let delta = if self.config.use_uncertainty_band {
            self.band.delta()
        } else {
            0.0
        };
        let samples = [
            (lambda_hat - delta).max(0.0),
            lambda_hat,
            lambda_hat + delta,
        ];
        let mut states = 0usize;

        let quantum = self.config.gamma_quantum;
        // All per-decision buffers live in controller-owned scratch, so
        // the steady decide path allocates nothing.
        let mut ds = std::mem::take(&mut self.scratch);
        ds.cs.clear();
        ds.cs.extend(self.c_iter());
        let cs = &ds.cs;
        // Cost of draining each computer's standing queue at zero load.
        let maps = &self.level.children;
        ds.drain_costs.clear();
        ds.drain_costs.extend((0..m).map(|j| {
            if queues[j] > 0 {
                maps[j].query(0.0, cs[j], queues[j] as f64).cost
            } else {
                0.0
            }
        }));

        // Candidate α vectors — the "limited neighborhood" of the current
        // configuration: keep, single toggles, pairs of switch-ons (so a
        // sharp load step can recruit two machines in one period), and
        // everything-on as the escape hatch for deep overload. Dead
        // members are forced off in the base state and never toggled.
        // Candidates are flattened `m` entries apiece; the base state
        // occupies the first chunk, so toggles copy it from within.
        ds.candidates.clear();
        ds.candidates.extend((0..m).map(|j| active[j] && !dead[j]));
        let mut off_count = 0usize;
        for j in (0..m).filter(|&j| !dead[j]) {
            if !ds.candidates[j] {
                off_count += 1;
            }
            let start = ds.candidates.len();
            ds.candidates.extend_from_within(0..m);
            ds.candidates[start + j] = !ds.candidates[start + j];
            let on = ds.candidates[start..start + m]
                .iter()
                .filter(|&&a| a)
                .count();
            if on < min_active {
                ds.candidates.truncate(start);
            }
        }
        // Plain index loops: the body appends to `ds.candidates`, so an
        // iterator over it would hold the borrow the push needs.
        #[allow(clippy::needless_range_loop)]
        for a in 0..m {
            if ds.candidates[a] || dead[a] {
                continue;
            }
            for b in a + 1..m {
                if ds.candidates[b] || dead[b] {
                    continue;
                }
                let start = ds.candidates.len();
                ds.candidates.extend_from_within(0..m);
                ds.candidates[start + a] = true;
                ds.candidates[start + b] = true;
            }
        }
        if off_count > 2 {
            ds.candidates.extend((0..m).map(|j| !dead[j]));
        }
        let ncand = ds.candidates.len() / m;

        // Per-candidate switch-on penalty and backlog-drain charge. A
        // machine ordered off still has to drain its queue (and cannot
        // take new work while doing so) — without the drain term,
        // shedding the most backlogged machine looks free. Both terms
        // need no map probe beyond the precomputed drain costs, and
        // their sum is an *admissible lower bound* on the candidate's
        // total: every map cost is ≥ 0 (absolute-value penalties over
        // slack and power), so the γ search's band-averaged term can
        // only add to it.
        ds.switch_costs.clear();
        ds.drain_sums.clear();
        ds.bounds.clear();
        for ci in 0..ncand {
            let alpha = &ds.candidates[ci * m..(ci + 1) * m];
            let sw = self.config.switch_on_penalty
                * (0..m).filter(|&j| alpha[j] && !active[j]).count() as f64;
            let dr: f64 = (0..m)
                .filter(|&j| !alpha[j] && !dead[j] && queues[j] > 0)
                .map(|j| ds.drain_costs[j])
                .sum();
            ds.switch_costs.push(sw);
            ds.drain_sums.push(dr);
            ds.bounds.push(sw + dr);
        }

        // Branch-and-bound order: cheapest bound first (original position
        // breaks ties), so a strong incumbent lands early and prunes the
        // rest. The incumbent rule below is lexicographic in (total cost,
        // original position), which keeps the winner exactly the
        // candidate the exhaustive original-order sweep would pick.
        ds.order.clear();
        ds.order.extend(0..ncand);
        if self.config.pruned_search {
            let bounds = &ds.bounds;
            ds.order
                .sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
        }

        // One lane table for every candidate's γ search: a member's key
        // `(ĉ, q₀)` and the band are the same under each, so a member's
        // share priced for one candidate serves the rest. A warm-started
        // steady decision prices a handful of units around the standing
        // split rather than the full quantum range.
        self.level.begin(
            quantum,
            &samples,
            cs.iter().zip(queues).map(|(&c, &q)| (c, q as f64)),
        );

        let mut best: Option<(f64, usize, Vec<bool>, Vec<f64>)> = None;
        let mut candidates_evaluated = 0usize;
        let mut candidates_pruned = 0usize;
        for oi in 0..ncand {
            let ci = ds.order[oi];
            let alpha = &ds.candidates[ci * m..(ci + 1) * m];
            ds.active_idx.clear();
            ds.active_idx.extend((0..m).filter(|&j| alpha[j]));
            if ds.active_idx.is_empty() {
                continue;
            }
            if self.config.pruned_search {
                if let Some((best_cost, _, _, _)) = &best {
                    if ds.bounds[ci] > *best_cost {
                        candidates_pruned += 1;
                        continue;
                    }
                }
            }
            candidates_evaluated += 1;

            // γ search over the quantized simplex restricted to actives.
            let grid = SimplexGrid::with_quantum(ds.active_idx.len(), quantum);
            // Warm-start from the standing split — "searches a limited
            // neighborhood of [the current] state". Machines without a
            // previous share (newly recruited, or the first decision)
            // enter at their capacity share: "the possible choices for
            // γ_ij … are limited by the maximum processing capacity".
            let total_capacity: f64 = ds
                .active_idx
                .iter()
                .map(|&j| self.members[j].speed / cs[j])
                .sum();
            ds.weights.clear();
            let prev_gamma = &self.prev_gamma;
            let members = &self.members;
            ds.weights.extend(ds.active_idx.iter().map(|&j| {
                if prev_gamma[j] > 0.0 {
                    prev_gamma[j]
                } else {
                    members[j].speed / cs[j] / total_capacity
                }
            }));
            // Snap straight to integer units — the same grid point
            // `snap` would choose, without the f64 roundtrip (grid
            // points are exactly `u·quantum`, so the unit form is
            // lossless) or its allocations.
            grid.snap_units_into(&ds.weights, &mut ds.start, &mut ds.snap_rema);

            // The γ search: the best-improvement climb over single-quantum
            // transfers between the active members, within the round and
            // evaluation budgets, each split priced over the whole band.
            let (rounds, evals) = (self.config.search_rounds, self.config.search_evals);
            let (climb_cost, _, evaluations) =
                self.level
                    .climb(&grid, &ds.active_idx, &ds.start, rounds, evals);
            states += evaluations * samples.len();
            let units = self.level.best();

            // Hard power-budget constraint: expected draw of the chosen
            // configuration at the nominal forecast.
            if let Some(budget) = self.config.power_budget {
                let power: f64 = ds
                    .active_idx
                    .iter()
                    .zip(units)
                    .map(|(&j, &u)| {
                        self.level.children[j]
                            .query(u as f64 * quantum * lambda_hat, cs[j], queues[j] as f64)
                            .power
                    })
                    .sum();
                if power > budget {
                    continue;
                }
            }
            let total_cost = climb_cost + ds.switch_costs[ci] + ds.drain_sums[ci];
            let accept = match &best {
                None => true,
                // Lexicographic (cost, original position): under the
                // original order this is exactly "strictly cheaper wins"
                // (positions only increase); under the bound-sorted order
                // it restores first-minimal-wins tie-breaking.
                Some((best_cost, best_ci, _, _)) => {
                    total_cost < *best_cost || (total_cost == *best_cost && ci < *best_ci)
                }
            };
            if accept {
                let mut gamma_full = vec![0.0; m];
                for (&j, &u) in ds.active_idx.iter().zip(units) {
                    gamma_full[j] = u as f64 * quantum;
                }
                best = Some((total_cost, ci, alpha.to_vec(), gamma_full));
            }
        }
        // With a tight power budget every candidate may be infeasible; fall
        // back to the lowest-power single machine rather than panicking.
        let (expected_cost, alpha, gamma) = match best {
            Some((cost, _, alpha, gamma)) => (cost, alpha, gamma),
            None => {
                let cheapest = (0..m)
                    .filter(|&j| !dead[j])
                    .min_by(|&a, &b| {
                        (self.members[a].speed / cs[a]).total_cmp(&(self.members[b].speed / cs[b]))
                    })
                    .expect("at least one live member");
                let mut alpha = vec![false; m];
                alpha[cheapest] = true;
                let mut gamma = vec![0.0; m];
                gamma[cheapest] = 1.0;
                (f64::INFINITY, alpha, gamma)
            }
        };
        // Hand the scratch back for the next decision's reuse.
        self.scratch = ds;
        self.prev_alpha.copy_from_slice(&alpha);
        self.prev_gamma.copy_from_slice(&gamma);
        self.level.record(states);
        self.total_candidates_evaluated += candidates_evaluated as u64;
        self.total_candidates_pruned += candidates_pruned as u64;
        L1Decision {
            alpha,
            gamma,
            expected_cost,
            states_evaluated: states,
            candidates_evaluated,
            candidates_pruned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{ComputerProfile, FrequencyProfile};

    fn member(profile: FrequencyProfile) -> MemberSpec {
        let cp = ComputerProfile::paper_default(profile);
        MemberSpec {
            phis: cp.phis(),
            speed: cp.speed,
            c_prior: 0.0175 / cp.speed,
        }
    }

    fn build_module(n: usize) -> L1Controller {
        let profiles = FrequencyProfile::module_set();
        let members: Vec<MemberSpec> = (0..n).map(|j| member(profiles[j % 4])).collect();
        let l0 = L0Config::paper_default();
        let maps: Vec<AbstractionMap> = members
            .iter()
            .map(|m| {
                let c_mid = m.c_prior;
                AbstractionMap::learn(
                    &l0,
                    &m.phis,
                    (c_mid * 0.6, c_mid * 1.5),
                    2.0 / (c_mid * 0.6),
                    150.0,
                    LearnSpec::coarse(),
                )
            })
            .collect();
        L1Controller::new(L1Config::paper_default(), members, maps)
    }

    #[test]
    fn abstraction_map_cost_monotone_in_load() {
        let m = member(FrequencyProfile::TallEight);
        let map = AbstractionMap::learn(
            &L0Config::paper_default(),
            &m.phis,
            (0.012, 0.03),
            80.0,
            150.0,
            LearnSpec::coarse(),
        );
        assert!(!map.is_empty());
        let light = map.query(5.0, 0.0175, 0.0);
        let heavy = map.query(75.0, 0.0175, 0.0);
        assert!(
            heavy.cost > light.cost,
            "overload {:.2} must cost more than light load {:.2}",
            heavy.cost,
            light.cost
        );
    }

    #[test]
    fn light_load_switches_computers_off() {
        let mut l1 = build_module(4);
        // Feed several quiet windows: ~2 req/s for the whole module.
        for _ in 0..6 {
            l1.observe(240, &[Some(0.0175); 4].map(|d| d));
        }
        let mut active = vec![true; 4];
        let queues = vec![0usize; 4];
        // Iterate a few decisions: the controller sheds computers (one
        // toggle per period) down to min_active.
        for _ in 0..4 {
            let d = l1.decide(&queues, &active);
            active = d.alpha.clone();
        }
        let on = active.iter().filter(|&&a| a).count();
        assert!(on <= 2, "light load should shed computers, kept {on}");
    }

    #[test]
    fn heavy_load_switches_computers_on() {
        let mut l1 = build_module(4);
        // ~180 req/s: needs most of the module's capacity.
        for _ in 0..6 {
            l1.observe(180 * 120, &[Some(0.0175); 4].map(|d| d));
        }
        let mut active = vec![true, false, false, false];
        let queues = vec![0usize; 4];
        for _ in 0..4 {
            let d = l1.decide(&queues, &active);
            active = d.alpha.clone();
        }
        let on = active.iter().filter(|&&a| a).count();
        assert!(on >= 3, "heavy load should recruit computers, got {on}");
    }

    #[test]
    fn gamma_sums_to_one_over_actives() {
        let mut l1 = build_module(4);
        for _ in 0..4 {
            l1.observe(60 * 120, &[Some(0.0175); 4].map(|d| d));
        }
        let d = l1.decide(&[0, 0, 0, 0], &[true, true, true, false]);
        let total: f64 = d.gamma.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "γ sums to 1, got {total}");
        for (j, (&a, &g)) in d.alpha.iter().zip(&d.gamma).enumerate() {
            assert!(a || g == 0.0, "inactive computer {j} got γ = {g}");
            assert!(g >= 0.0);
        }
    }

    #[test]
    fn min_active_is_respected() {
        let mut l1 = build_module(4);
        for _ in 0..6 {
            l1.observe(0, &[None; 4]); // dead silence
        }
        let mut active = vec![true, false, false, false];
        for _ in 0..3 {
            let d = l1.decide(&[0; 4], &active);
            active = d.alpha.clone();
        }
        assert!(
            active.iter().filter(|&&a| a).count() >= 1,
            "at least one computer stays on"
        );
    }

    #[test]
    fn decide_excluding_never_routes_to_dead_members() {
        let mut l1 = build_module(4);
        // Heavy load: without the exclusion every machine would be wanted.
        for _ in 0..6 {
            l1.observe(180 * 120, &[Some(0.0175); 4].map(|d| d));
        }
        let dead = vec![false, true, false, false];
        let mut active = vec![true, true, true, true];
        for _ in 0..3 {
            let d = l1.decide_excluding(&[0; 4], &active, &dead);
            assert!(!d.alpha[1], "dead member must never be switched on");
            assert_eq!(d.gamma[1], 0.0, "dead member must get no load");
            let total: f64 = d.gamma.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "γ sums to 1, got {total}");
            active = d.alpha.clone();
        }
        assert!(
            active.iter().filter(|&&a| a).count() >= 2,
            "survivors must carry the load"
        );
    }

    #[test]
    fn decide_excluding_clamps_min_active_to_live_count() {
        let profiles = FrequencyProfile::module_set();
        let members: Vec<MemberSpec> = (0..2).map(|j| member(profiles[j % 4])).collect();
        let l0 = L0Config::paper_default();
        let maps: Vec<AbstractionMap> = members
            .iter()
            .map(|m| {
                let c_mid = m.c_prior;
                AbstractionMap::learn(
                    &l0,
                    &m.phis,
                    (c_mid * 0.6, c_mid * 1.5),
                    2.0 / (c_mid * 0.6),
                    150.0,
                    LearnSpec::coarse(),
                )
            })
            .collect();
        let config = L1Config {
            min_active: 2,
            ..L1Config::paper_default()
        };
        let mut l1 = L1Controller::new(config, members, maps);
        l1.observe(30 * 120, &[Some(0.0175); 2].map(|d| d));
        // One of two members dead: min_active = 2 would be infeasible.
        let d = l1.decide_excluding(&[0, 0], &[true, true], &[false, true]);
        assert!(d.alpha[0] && !d.alpha[1]);
        assert!((d.gamma[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chattering_band_grows_with_forecast_error() {
        let mut l1 = build_module(2);
        // Alternate loud/quiet windows: the forecaster cannot keep up, so
        // δ must grow.
        for k in 0..10 {
            let arrivals = if k % 2 == 0 { 100 * 120 } else { 10 * 120 };
            l1.observe(arrivals, &[Some(0.0175); 2].map(|d| d));
            let _ = l1.decide(&[0, 0], &[true, true]);
        }
        assert!(
            l1.delta() > 5.0,
            "δ = {} should reflect the noise",
            l1.delta()
        );
        assert!(!l1.forecast_history().is_empty());
    }

    #[test]
    fn states_evaluated_counted() {
        let mut l1 = build_module(4);
        l1.observe(50 * 120, &[Some(0.0175); 4].map(|d| d));
        let d = l1.decide(&[0; 4], &[true; 4]);
        assert!(d.states_evaluated > 0);
        assert!(l1.mean_states_evaluated() > 0.0);
    }

    #[test]
    fn online_update_tracks_drifted_outcomes() {
        use llc_core::OnlineConfig;
        let m = member(FrequencyProfile::TallEight);
        let mut map = AbstractionMap::learn(
            &L0Config::paper_default(),
            &m.phis,
            (0.012, 0.03),
            80.0,
            150.0,
            LearnSpec::coarse(),
        );
        let offline = map.query(40.0, 0.0175, 10.0);
        // The plant drifted: the same operating point now costs 3x.
        let drifted = GEntry {
            cost: offline.cost * 3.0,
            power: offline.power,
            final_q: offline.final_q + 5.0,
        };
        for _ in 0..40 {
            let w = map.update_online(40.0, 0.0175, 10.0, drifted, &OnlineConfig);
            assert!(w > 0.0, "in-grid update must apply");
        }
        let adapted = map.query(40.0, 0.0175, 10.0);
        assert!(
            (adapted.cost - drifted.cost).abs() < (offline.cost - drifted.cost).abs() * 0.05,
            "map must converge onto the drifted outcome \
             (offline {:.2}, adapted {:.2}, drifted {:.2})",
            offline.cost,
            adapted.cost,
            drifted.cost
        );
        assert!(map.measured_at(40.0, 0.0175, 10.0));
        assert!(!map.measured_at(10.0, 0.0175, 10.0), "an untouched cell");
    }

    #[test]
    fn far_out_outcome_grows_its_own_cell_and_others_still_replay() {
        use llc_core::OnlineConfig;
        let m = member(FrequencyProfile::TallEight);
        let outcome = GEntry {
            cost: 123.0,
            power: 4.0,
            final_q: 200.0,
        };
        let learn = || {
            AbstractionMap::learn(
                &L0Config::paper_default(),
                &m.phis,
                (0.012, 0.03),
                80.0,
                150.0,
                LearnSpec::coarse(),
            )
        };
        // An outcome beyond the trained box is inserted; the exact cell
        // answers the next query with the measured value…
        let mut map = learn();
        let trained = map.len();
        assert_eq!(
            map.update_online(500.0, 0.0175, 10.0, outcome, &OnlineConfig),
            1.0
        );
        assert_eq!(map.len(), trained + 1);
        let read = map.query(500.0, 0.0175, 10.0);
        assert_eq!(read.cost, 123.0);
        // …but only that cell: a different out-of-envelope point still
        // replays the analytic model rather than borrowing the far-out
        // cell through the nearest-cell rule.
        let other = map.query(300.0, 0.0175, 10.0);
        let replayed = learn().query(300.0, 0.0175, 10.0);
        assert_eq!(other, replayed, "intermediate region keeps exact replay");
    }

    #[test]
    fn out_of_grid_queries_are_bit_stable_through_the_replay_memo() {
        use rand::{Rng, SeedableRng};
        let l0 = L0Config::paper_default();
        let phis = [0.25, 0.5, 0.75, 1.0];
        let c_range = (0.0105, 0.028);
        let (lambda_max, q_max) = (110.0, 150.0);
        let map =
            AbstractionMap::learn(&l0, &phis, c_range, lambda_max, q_max, LearnSpec::coarse());
        let bits = |e: GEntry| (e.cost.to_bits(), e.power.to_bits(), e.final_q.to_bits());
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..3000 {
            // λ and q overflow the grid ~30 % of the time: those answers
            // are the analytic model's, asked once or again.
            let lambda = rng.gen_range(0.0..lambda_max * 1.4);
            let c = rng.gen_range(c_range.0 * 0.3..c_range.1 * 1.8);
            let q = rng.gen_range(0.0..q_max * 1.4);
            let first = map.query(lambda, c, q);
            assert_eq!(
                bits(first),
                bits(map.query(lambda, c, q)),
                "λ={lambda} c={c} q={q}"
            );
            if lambda > lambda_max || q > q_max {
                let (cost, power, final_q) =
                    L0Controller::simulate_model(&l0, &phis, q, lambda, c.max(1e-6), 4);
                assert_eq!(
                    bits(first),
                    (cost.to_bits(), power.to_bits(), final_q.to_bits()),
                    "fresh replay at λ={lambda} c={c} q={q}"
                );
            }
        }
    }

    #[test]
    fn member_scales_shift_effective_processing_time() {
        let mut l1 = build_module(2);
        for _ in 0..4 {
            l1.observe(30 * 120, &[Some(0.0175); 2]);
        }
        let nominal = l1.c_estimates();
        l1.set_member_scales(&[0.5, 1.0]);
        let scaled = l1.c_estimates();
        assert!((scaled[0] - nominal[0] / 0.5).abs() < 1e-12);
        assert_eq!(scaled[1], nominal[1]);
    }

    #[test]
    fn controller_absorbs_a_period_of_outcomes() {
        let mut l1 = build_module(2);
        l1.enable_online();
        assert!(l1.online.is_some());
        for _ in 0..4 {
            l1.observe(30 * 120, &[Some(0.0175); 2]);
            let _ = l1.decide(&[0, 0], &[true, true]);
            let realized = GEntry {
                cost: 42.0,
                power: 3.0,
                final_q: 1.0,
            };
            let outcomes = [(0, 20.0, 0.0, realized), (1, 10.0, 0.0, realized)];
            assert_eq!(l1.absorb_outcomes(&outcomes), 2);
        }
        assert_eq!(l1.online_updates(), 8);
    }

    #[test]
    fn switch_penalty_discourages_flapping() {
        // With an enormous W the controller must not switch anything on.
        let profiles = FrequencyProfile::module_set();
        let members: Vec<MemberSpec> = (0..2).map(|j| member(profiles[j])).collect();
        let l0 = L0Config::paper_default();
        let maps: Vec<AbstractionMap> = members
            .iter()
            .map(|m| {
                AbstractionMap::learn(
                    &l0,
                    &m.phis,
                    (m.c_prior * 0.6, m.c_prior * 1.5),
                    2.0 / (m.c_prior * 0.6),
                    150.0,
                    LearnSpec::coarse(),
                )
            })
            .collect();
        let mut config = L1Config::paper_default();
        config.switch_on_penalty = 1e12;
        let mut l1 = L1Controller::new(config, members, maps);
        for _ in 0..4 {
            l1.observe(30 * 120, &[Some(0.02), Some(0.02)]);
        }
        let d = l1.decide(&[0, 0], &[true, false]);
        assert_eq!(d.alpha, vec![true, false], "prohibitive W freezes α");
    }
}
