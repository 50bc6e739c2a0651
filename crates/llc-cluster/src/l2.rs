use crate::l1::{AbstractionMap, L1Config, L1Controller, MemberSpec};
use crate::split::{SplitChild, SplitLevel};
use llc_approx::{RegressionTree, SimplexGrid, TreeConfig};
use std::sync::Arc;

/// The per-module cost approximation `J̃_i` used by the L2 controller.
///
/// §5.1: "we apply simulation-based learning techniques to generate an
/// architecture that quickly approximates M_i's behavior … A module is
/// first simulated and the corresponding cost values stored in a large
/// lookup table. This table is then used to train a regression tree."
///
/// Features are `(λ_i, c_factor, q̄)`: the arrival rate handed to the
/// module, a multiplicative factor on the members' prior processing times
/// (capturing service-time drift), and the mean member queue.
///
/// Beyond the trained queue range the tree saturates flat — a module
/// 2000 requests deep would look exactly as costly as one at the grid
/// edge, so the L2 would never shift load off a drowning module (the
/// same overload-clamping edge the L1 abstraction map documents). The
/// model therefore extends the cost surface linearly past the trained
/// queue ceiling with a slope measured from the training data.
#[derive(Debug, Clone)]
pub struct ModuleCostModel {
    /// The offline surface, immutable after [`ModuleCostModel::learn`] and
    /// therefore shared: cloning a model copies the handle, so every
    /// module of one composition reads the same tree.
    tree: Arc<RegressionTree>,
    /// Marginal cost per queued request past [`Q_HI`], measured from the
    /// training set (mean cost at the queue ceiling vs at zero queue).
    overload_slope: f64,
    /// Marginal cost of one request *arriving* at a saturated module:
    /// `overload_slope · T_L1 / m`. Within the simulated horizon a
    /// saturated module's capacity is consumed by its backlog, so a new
    /// arrival mostly converts into future queue — which the per-period
    /// tree cannot see. Without this term the learned cost surface is
    /// *flat in λ* for a drowned module, and the split search actually
    /// routes load toward it (its cost looks sunk while the healthy
    /// module's cost rises with load).
    overload_arrival_cost: f64,
}

/// Resolution of the module-learning grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleLearnSpec {
    /// Steps along the module arrival-rate axis.
    pub lambda_steps: usize,
    /// Steps along the processing-time factor axis.
    pub c_steps: usize,
    /// Steps along the initial-queue axis.
    pub q_steps: usize,
    /// Steps along the initially-active-machines axis.
    pub(crate) active_steps: usize,
    /// L1 periods simulated per grid point.
    pub(crate) periods: usize,
}

impl Default for ModuleLearnSpec {
    fn default() -> Self {
        ModuleLearnSpec {
            lambda_steps: 16,
            c_steps: 3,
            q_steps: 3,
            active_steps: 4,
            periods: 3,
        }
    }
}

impl ModuleLearnSpec {
    /// A coarse grid for fast unit tests.
    ///
    /// The λ axis keeps near-default resolution even here: the tree's λ
    /// cells must be comparable to the load the L2 moves per re-split
    /// (a few γ quanta of the cluster rate), or every candidate split
    /// lands in the same leaf and the cost landscape goes flat. The
    /// dense-grid substrate and shared maps make the extra points cheap.
    /// The c-factor axis needs an odd step count: with two points
    /// `{0.7, 1.4}` a nominal query (1.0) falls in the 0.7 leaf and the
    /// model believes the module is 43 % faster than it is, moving the
    /// overload knee far past the true capacity.
    pub fn coarse() -> Self {
        ModuleLearnSpec {
            lambda_steps: 16,
            c_steps: 3,
            q_steps: 2,
            active_steps: 2,
            periods: 2,
        }
    }
}

/// γ-search rounds and evaluations of the L1s the module learning replays:
/// thousands of inner decisions learn the coarse cost surface, which the
/// full budgets ([`L1Config::SEARCH_ROUNDS`], [`L1Config::SEARCH_EVALS`])
/// do not refine.
const TRAINING_SEARCH_BUDGET: (usize, usize) = (8, 600);

/// Analytic module simulator: replays the L1 controller over its
/// abstraction maps for a constant offered load — the inner loop of the
/// L2 learning pipeline ("the behavior of module M_i is learned by
/// simulating the control structure in Fig. 2(b)").
///
/// One replay serves a worker's whole share of the learning grid: its
/// controller is built once and [reset](L1Controller::reset) before each
/// point, and its buffers keep their capacity.
struct ModuleReplay<'a> {
    l1_config: &'a L1Config,
    members: &'a [MemberSpec],
    l1: L1Controller,
    /// The members from the highest capacity `speed / c_prior` down.
    order: Vec<usize>,
    queues: Vec<f64>,
    q_obs: Vec<usize>,
    active: Vec<bool>,
    demands: Vec<Option<f64>>,
}

impl<'a> ModuleReplay<'a> {
    fn new(
        l1_config: &'a L1Config,
        members: &'a [MemberSpec],
        maps: &[Arc<AbstractionMap>],
    ) -> Self {
        let mut l1 = L1Controller::new_shared(*l1_config, members.to_vec(), maps.to_vec());
        l1.search_budget = TRAINING_SEARCH_BUDGET;
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by(|&a, &b| {
            (members[b].speed / members[b].c_prior)
                .total_cmp(&(members[a].speed / members[a].c_prior))
        });
        ModuleReplay {
            l1_config,
            members,
            l1,
            order,
            queues: Vec::new(),
            q_obs: Vec::new(),
            active: Vec::new(),
            demands: Vec::new(),
        }
    }

    /// The mean per-period cost of `periods` L1 periods at offered load
    /// `lambda`, member demands `c_factor` times their priors, every
    /// queue starting at `q0` and `active_init` machines on.
    fn run(
        &mut self,
        lambda: f64,
        c_factor: f64,
        q0: f64,
        active_init: usize,
        periods: usize,
    ) -> f64 {
        let ModuleReplay {
            l1_config,
            members,
            l1,
            order,
            queues,
            q_obs,
            active,
            demands,
        } = self;
        l1.reset();
        let m = members.len();
        queues.clear();
        queues.resize(m, q0);
        // Start with the `active_init` highest-capacity machines on — the
        // canonical configuration an L1 controller converges to at that
        // size.
        active.clear();
        active.resize(m, false);
        for &j in order.iter().take(active_init.clamp(1, m)) {
            active[j] = true;
        }
        demands.clear();
        demands.extend(members.iter().map(|s| Some(s.c_prior * c_factor)));
        let mut total = 0.0;
        for _ in 0..periods {
            let arrivals = (lambda * l1_config.period).round().max(0.0) as u64;
            l1.observe(arrivals, demands);
            q_obs.clear();
            q_obs.extend(queues.iter().map(|&q| q.round() as usize));
            let d = l1.decide(q_obs, active);
            let mut period_cost = 0.0;
            for j in 0..m {
                if d.alpha[j] {
                    let entry = l1.map(j).query(
                        d.gamma[j] * lambda,
                        members[j].c_prior * c_factor,
                        queues[j],
                    );
                    period_cost += entry.cost;
                    queues[j] = entry.final_q;
                } else {
                    queues[j] = 0.0; // drained/off computers shed their queue
                }
                if d.alpha[j] && !active[j] {
                    period_cost += l1_config.switch_on_penalty;
                }
            }
            active.copy_from_slice(&d.alpha);
            total += period_cost;
        }
        total / periods as f64
    }
}

/// The module learning grid and its training costs: every point `(λ,
/// c_factor, q₀, active)` replayed for `spec.periods` L1 periods, fanned
/// out with llc_par (slot-per-point writes and a controller reset before
/// each point keep the result bit-identical to a serial pass).
fn training_set(
    l1_config: &L1Config,
    members: &[MemberSpec],
    maps: &[Arc<AbstractionMap>],
    lambda_max: f64,
    spec: ModuleLearnSpec,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let m = members.len();
    let xs = llc_approx::GridSampler::new(vec![
        (0.0, lambda_max, spec.lambda_steps),
        (0.7, 1.4, spec.c_steps),
        (0.0, Q_HI, spec.q_steps),
        (1.0, m as f64, spec.active_steps.min(m)),
    ])
    .points();
    let ys = llc_par::par_map_with(
        &xs,
        || ModuleReplay::new(l1_config, members, maps),
        |replay, p| replay.run(p[0], p[1], p[2], p[3].round() as usize, spec.periods),
    );
    (xs, ys)
}

/// Upper edge of the module learning's queue grid.
const Q_HI: f64 = 100.0;

impl ModuleCostModel {
    /// Learn a module's cost surface by simulating its L1+L0 stack over a
    /// grid of offered loads, service-time factors and initial queues.
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs (empty members, non-positive
    /// `lambda_max`).
    pub fn learn(
        l1_config: &L1Config,
        members: &[MemberSpec],
        maps: &[Arc<AbstractionMap>],
        lambda_max: f64,
        spec: ModuleLearnSpec,
    ) -> Self {
        assert!(!members.is_empty(), "module needs members");
        assert!(lambda_max > 0.0, "lambda_max must be positive");
        let (xs, ys) = training_set(l1_config, members, maps, lambda_max, spec);
        let tree = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 10,
                min_leaf: 2,
            },
        )
        .expect("grid sampler produces a consistent training set");
        // Marginal per-request cost of a queue beyond the trained grid:
        // mean training cost at the queue ceiling minus at zero queue.
        let mean_at = |q: f64| {
            let (sum, n) = xs
                .iter()
                .zip(&ys)
                .filter(|(x, _)| (x[2] - q).abs() < 1e-9)
                .fold((0.0, 0usize), |(s, n), (_, &y)| (s + y, n + 1));
            if n > 0 {
                sum / n as f64
            } else {
                0.0
            }
        };
        let overload_slope = ((mean_at(Q_HI) - mean_at(0.0)) / Q_HI).max(0.0);
        // One period of arrivals at rate λ adds λ·T/m to the *mean* queue
        // of a saturated module; each queued request costs the measured
        // marginal slope.
        let overload_arrival_cost = overload_slope * l1_config.period / members.len() as f64;
        ModuleCostModel {
            tree: Arc::new(tree),
            overload_slope,
            overload_arrival_cost,
        }
    }

    /// The tree-domain key for `(λ, c_factor, q̄, active)` (queue clamped
    /// to the trained ceiling, exactly as the tree is queried).
    #[allow(clippy::manual_clamp)] // a NaN queue keys as 0; `clamp` keeps NaN
    fn key_of(&self, lambda: f64, c_factor: f64, q_mean: f64, active: usize) -> [f64; 4] {
        [
            lambda.max(0.0),
            c_factor,
            q_mean.max(0.0).min(Q_HI),
            active as f64,
        ]
    }

    /// Predicted per-period cost of the module at
    /// `(λ_i, c_factor, q̄, active)`.
    ///
    /// Queues beyond the trained ceiling add a linear backlog penalty on
    /// top of the tree's edge prediction, plus a per-arrival penalty that
    /// restores the λ gradient a saturated module loses (see the field
    /// docs on `overload_arrival_cost`) — so the split search sheds load
    /// off a drowning module instead of treating its cost as sunk.
    pub fn predict(&self, lambda: f64, c_factor: f64, q_mean: f64, active: usize) -> f64 {
        let q = q_mean.max(0.0);
        let base = self.tree.predict(&self.key_of(lambda, c_factor, q, active));
        if q > Q_HI {
            base + self.overload_slope * (q - Q_HI) + self.overload_arrival_cost * lambda.max(0.0)
        } else {
            base
        }
    }
}

/// A module's cost model as the L2's split level sees it: keyed by the
/// module's state.
impl SplitChild for ModuleCostModel {
    type Key = ModuleState;

    fn cost(&self, lambda: f64, state: ModuleState) -> f64 {
        self.predict(lambda, state.c_factor, state.queue_mean, state.active)
    }
}

/// Configuration of the L2 (cluster) controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Config {
    /// Sampling period `T_L2` in seconds (paper: 120).
    pub period: f64,
    /// Module-fraction quantum (paper: 0.1).
    pub gamma_quantum: f64,
    /// Feed each re-split forward into the affected modules' λ forecasts
    /// (see `L1Controller::feed_forward_lambda`): without it a module's
    /// own trailing forecast only sees its new share one L1 period — one
    /// boot dead time — after the split moved, the lag the L1/L2
    /// timescale oscillation feeds on. Disable for ablation only.
    pub feed_forward: bool,
}

impl L2Config {
    /// The paper's §5.2 parameters.
    pub fn paper_default() -> Self {
        L2Config {
            period: 120.0,
            gamma_quantum: 0.1,
            feed_forward: true,
        }
    }
}

/// Module state as observed by the L2 controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleState {
    /// Processing-time factor relative to priors (1.0 = nominal).
    pub c_factor: f64,
    /// Mean queue length across the module's computers.
    pub queue_mean: f64,
    /// Machines currently active (on/booting/draining) in the module —
    /// the L2 must know how much of the module's capacity is actually
    /// standing, or it re-splits load faster than machines can boot.
    pub active: usize,
}

/// One L2 decision.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Decision {
    /// The global split `{γ_i}` over modules (Σ = 1).
    pub gamma: Vec<f64>,
    /// Expected total cost of the chosen split.
    pub expected_cost: f64,
    /// Candidate splits evaluated.
    pub states_evaluated: usize,
}

/// The largest simplex a decision enumerates in full. The four- and
/// five-module paper clusters have 286 and 1001 splits at quantum 0.1;
/// 32 modules have C(41, 10) ≈ 1.1·10⁹, and a decision that would
/// enumerate those searches the neighborhood of the standing split (the
/// even one, if none stands yet) instead.
const MAX_ENUMERATED_SPLITS: usize = 100_000;

/// Hysteresis: adopt a new split only if it beats the current one by this
/// relative margin (tree predictions are noisy; a flapping split costs
/// boot dead times downstream).
const SWITCH_MARGIN: f64 = 0.1;

/// `weights` snapped onto `grid`, in quanta.
fn snap_units(grid: &SimplexGrid, weights: &[f64]) -> Vec<i64> {
    let mut units = Vec::new();
    grid.snap_units_into(weights, &mut units, &mut Vec::new());
    units
}

/// The cluster-level controller (§5): splits the global arrivals across
/// modules, scoring each split with the regression-tree module models.
///
/// The first decision, and one relaxed after a membership change,
/// enumerates the quantized simplex where it is small enough (286 points
/// for four modules at quantum 0.1); every other decision climbs one round
/// from the standing split, over its ring of single-quantum transfers.
/// Either prices each module once per share, not once per split.
#[derive(Debug, Clone)]
pub struct L2Controller {
    config: L2Config,
    /// The split over the modules: their cost models and the global λ
    /// forecast.
    level: SplitLevel<ModuleCostModel>,
    /// The standing split in quanta: each decision's answer is these
    /// times the grid's quantum.
    prev: Option<Vec<i64>>,
    /// Set by [`L2Controller::relax_hysteresis_once`] for one decision.
    relax_once: bool,
    /// Every module, in order: the children each split covers.
    all: Vec<usize>,
}

impl L2Controller {
    /// Build from per-module cost models.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(config: L2Config, models: Vec<ModuleCostModel>) -> Self {
        assert!(!models.is_empty(), "cluster needs at least one module");
        L2Controller {
            config,
            all: (0..models.len()).collect(),
            level: SplitLevel::new(models),
            prev: None,
            relax_once: false,
        }
    }

    /// Relax hysteresis for the next decision only: membership just
    /// changed (a machine died or rejoined), so the previous split is
    /// stale evidence — enumerate the full simplex and let the winner
    /// through without the switching margin. A simplex too large to
    /// enumerate (dozens of modules) is searched around the previous
    /// split as usual; the margin is still skipped.
    pub(crate) fn relax_hysteresis_once(&mut self) {
        self.relax_once = true;
    }

    /// Seed the controller with an initial split (e.g. proportional to
    /// module capacity). Before any workload has been observed every
    /// candidate split costs the same, so an unseeded first decision
    /// would degenerate to an arbitrary simplex corner and the bounded
    /// re-split would crawl back from it.
    pub(crate) fn set_initial_split(&mut self, gamma: Vec<f64>) {
        assert_eq!(gamma.len(), self.all.len(), "one fraction per module");
        let grid = SimplexGrid::with_quantum(self.all.len(), self.config.gamma_quantum);
        self.prev = Some(snap_units(&grid, &gamma));
    }

    /// Feed one L2 window: global arrivals over `T_L2`.
    pub fn observe(&mut self, global_arrivals: u64) {
        self.level
            .observe(global_arrivals as f64 / self.config.period);
    }

    /// Global arrival-rate forecast (req/s).
    pub(crate) fn lambda_estimate(&self) -> f64 {
        self.level.lambda_estimate()
    }

    /// Average splits evaluated per decision.
    pub fn mean_states_evaluated(&self) -> f64 {
        self.level.mean_states_evaluated()
    }

    /// Decide the split `{γ_i}` given per-module states.
    ///
    /// # Panics
    ///
    /// Panics if `modules` length differs from the model count.
    pub fn decide(&mut self, modules: &[ModuleState]) -> L2Decision {
        assert_eq!(modules.len(), self.all.len(), "state per module");
        let relaxed = std::mem::take(&mut self.relax_once);
        let lambda_g = self.level.plan(None);

        let grid = SimplexGrid::with_quantum(self.all.len(), self.config.gamma_quantum);
        let q = grid.quantum();
        self.level.begin(q, &[lambda_g], modules.iter().copied());
        // First decision: full enumeration. Afterwards: the previous
        // split and its ring of single-quantum transfers, mirroring the
        // L1's "limited neighborhood of [the current] state". A relaxed
        // decision enumerates again — where the simplex can be enumerated.
        let enumerable = grid.count() <= MAX_ENUMERATED_SPLITS;
        let prev = self.prev.take();
        let hysteresis = prev.is_some() && !relaxed;
        let centre = match prev {
            Some(prev) if !relaxed || !enumerable => Some(prev),
            // Unseeded and too large to enumerate: start from the even split.
            None if !enumerable => Some(snap_units(&grid, &vec![1.0; self.all.len()])),
            _ => None,
        };
        let (units, cost, states_evaluated) = match &centre {
            // One quantum per re-split: a module's machine count needs a
            // full L1 period (the boot dead time) to follow its share, so
            // wholesale re-splits outrun the plant.
            Some(centre) => {
                let (cost, centre_cost, evaluations) =
                    self.level.climb(&grid, &self.all, centre, 1, usize::MAX);
                // Hysteresis: keep the current split unless the winner
                // clears the switching margin — tree predictions are noisy
                // and a flapping split costs boot dead times downstream.
                let moved = cost < centre_cost;
                if hysteresis && moved && cost > centre_cost * (1.0 - SWITCH_MARGIN) {
                    (&centre[..], centre_cost, evaluations)
                } else {
                    (self.level.best(), cost, evaluations)
                }
            }
            None => {
                let (cost, count) = self.level.exhaustive(&grid, &self.all);
                (self.level.best(), cost, count)
            }
        };
        let gamma = units.iter().map(|&u| u as f64 * q).collect();
        self.prev = Some(units.to_vec());
        self.level.record(states_evaluated);
        L2Decision {
            gamma,
            expected_cost: cost,
            states_evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1::LearnSpec;
    use crate::profiles::{ComputerProfile, FrequencyProfile};

    fn members(n: usize) -> Vec<MemberSpec> {
        let profiles = FrequencyProfile::module_set();
        (0..n)
            .map(|j| {
                let cp = ComputerProfile::paper_default(profiles[j % 4]);
                MemberSpec {
                    phis: cp.phis(),
                    speed: cp.speed,
                    c_prior: 0.0175 / cp.speed,
                }
            })
            .collect()
    }

    fn maps_for(ms: &[MemberSpec]) -> Vec<Arc<AbstractionMap>> {
        let l0 = L0Config::paper_default();
        ms.iter()
            .map(|m| {
                Arc::new(AbstractionMap::learn(
                    &l0,
                    4,
                    &m.phis,
                    (m.c_prior * 0.6, m.c_prior * 1.5),
                    2.0 / (m.c_prior * 0.6),
                    150.0,
                    LearnSpec::coarse(),
                ))
            })
            .collect()
    }

    use crate::L0Config;

    fn module_model(n: usize) -> ModuleCostModel {
        let ms = members(n);
        let maps = maps_for(&ms);
        ModuleCostModel::learn(
            &L1Config::paper_default(),
            &ms,
            &maps,
            200.0,
            ModuleLearnSpec::coarse(),
        )
    }

    #[test]
    fn module_cost_monotone_in_offered_load() {
        let model = module_model(2);
        let light = model.predict(5.0, 1.0, 0.0, 2);
        let heavy = model.predict(190.0, 1.0, 0.0, 2);
        assert!(
            heavy > light,
            "overloading a module must cost more ({heavy:.2} vs {light:.2})"
        );
        assert!(
            model.tree.node_count() >= 3,
            "tree must have learned splits"
        );
    }

    #[test]
    fn l2_balances_identical_modules() {
        let model = module_model(2);
        let models = vec![model.clone(), model.clone(), model.clone(), model];
        let mut l2 = L2Controller::new(L2Config::paper_default(), models);
        for _ in 0..5 {
            l2.observe((200.0 * 120.0) as u64);
        }
        let states = vec![
            ModuleState {
                c_factor: 1.0,
                queue_mean: 0.0,
                active: 2,
            };
            4
        ];
        let d = l2.decide(&states);
        let total: f64 = d.gamma.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Identical modules under heavy load: no module should be starved
        // or monopolized.
        for &g in &d.gamma {
            assert!((0.1..=0.5).contains(&g), "unbalanced split {:?}", d.gamma);
        }
        assert_eq!(d.states_evaluated, 286, "full 0.1-quantum enumeration");
        assert_eq!(l2.mean_states_evaluated(), 286.0);
    }

    #[test]
    fn l2_shifts_load_away_from_backlogged_module() {
        let model = module_model(2);
        let models = vec![model.clone(), model];
        let mut l2 = L2Controller::new(L2Config::paper_default(), models);
        for _ in 0..5 {
            l2.observe((100.0 * 120.0) as u64);
        }
        let states = vec![
            ModuleState {
                c_factor: 1.0,
                queue_mean: 95.0, // deeply backlogged
                active: 2,
            },
            ModuleState {
                c_factor: 1.0,
                queue_mean: 0.0,
                active: 2,
            },
        ];
        let d = l2.decide(&states);
        assert!(
            d.gamma[1] >= d.gamma[0],
            "healthy module should get at least as much load: {:?}",
            d.gamma
        );
    }

    #[test]
    fn relaxed_hysteresis_enumerates_full_simplex_once() {
        let model = module_model(2);
        let models = vec![model.clone(), model];
        let mut l2 = L2Controller::new(L2Config::paper_default(), models);
        for _ in 0..5 {
            l2.observe((100.0 * 120.0) as u64);
        }
        let states = vec![
            ModuleState {
                c_factor: 1.0,
                queue_mean: 0.0,
                active: 2,
            };
            2
        ];
        let first = l2.decide(&states);
        assert_eq!(first.states_evaluated, 11, "first decision enumerates");
        let bounded = l2.decide(&states);
        assert!(
            bounded.states_evaluated < 11,
            "steady state searches the bounded neighborhood, got {}",
            bounded.states_evaluated
        );
        l2.relax_hysteresis_once();
        let relaxed = l2.decide(&states);
        assert_eq!(
            relaxed.states_evaluated, 11,
            "membership change re-enumerates the full simplex"
        );
        let after = l2.decide(&states);
        assert!(after.states_evaluated < 11, "relaxation is one-shot");
    }

    #[test]
    fn member_death_at_scale_searches_around_the_standing_split() {
        // 32 modules at quantum 0.1: C(41, 10) ≈ 1.1·10⁹ splits. A relaxed
        // decision used to enumerate them (a 26.9 GB allocation).
        let modules = 32;
        let mut l2 = L2Controller::new(L2Config::paper_default(), vec![module_model(2); modules]);
        l2.set_initial_split(vec![1.0; modules]);
        for _ in 0..5 {
            l2.observe((400.0 * 120.0) as u64);
        }
        let states = vec![
            ModuleState {
                c_factor: 1.0,
                queue_mean: 0.0,
                active: 2,
            };
            modules
        ];
        let bounded = l2.decide(&states);
        l2.relax_hysteresis_once();
        let relaxed = l2.decide(&states);
        assert_eq!(
            relaxed.states_evaluated, bounded.states_evaluated,
            "a simplex too large to enumerate is searched around the standing split"
        );
        // Nor does a first decision nobody seeded enumerate them.
        let mut unseeded =
            L2Controller::new(L2Config::paper_default(), vec![module_model(2); modules]);
        for gamma in [relaxed.gamma, unseeded.decide(&states).gamma] {
            let quanta: Vec<f64> = gamma.iter().map(|g| g / 0.1).collect();
            assert!(quanta
                .iter()
                .all(|u| (u - u.round()).abs() < 1e-9 && *u >= 0.0));
            assert!((gamma.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// The ring as the search first materialised it: `prev`, then every
    /// neighbor as a vector of its own.
    fn neighborhood(grid: &SimplexGrid, prev: &[f64]) -> Vec<Vec<f64>> {
        let q = grid.quantum();
        let start: Vec<i64> = prev.iter().map(|&x| (x / q).round() as i64).collect();
        let mut all = vec![prev.to_vec()];
        grid.for_each_neighbor_units(&start, &mut Vec::new(), &mut |units| {
            all.push(units.iter().map(|&u| u as f64 * q).collect());
        });
        all
    }

    impl L2Controller {
        /// `decide` as it stood before shares were priced once: every
        /// candidate materialised and every module's model walked for
        /// each, the standing split priced a second time for the
        /// hysteresis. The differential oracle of the tests below.
        fn decide_reference(&mut self, modules: &[ModuleState]) -> L2Decision {
            let models = &self.level.children;
            assert_eq!(modules.len(), models.len(), "state per module");
            let relaxed = std::mem::take(&mut self.relax_once);
            let lambda_g = self.level.lambda_estimate();

            let grid = SimplexGrid::with_quantum(models.len(), self.config.gamma_quantum);
            let q = grid.quantum();
            let prev: Option<Vec<f64>> = self
                .prev
                .as_ref()
                .map(|units| units.iter().map(|&u| u as f64 * q).collect());
            let enumerable = grid.count() <= MAX_ENUMERATED_SPLITS;
            let candidates = match &prev {
                Some(prev) if !relaxed || !enumerable => neighborhood(&grid, prev),
                None if !enumerable => {
                    let even = grid.snap(&vec![1.0; models.len()]);
                    neighborhood(&grid, &even)
                }
                _ => grid.enumerate(),
            };
            let evaluate = |gamma: &Vec<f64>| -> f64 {
                gamma
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        models[i].predict(
                            g * lambda_g,
                            modules[i].c_factor,
                            modules[i].queue_mean,
                            modules[i].active,
                        )
                    })
                    .sum()
            };
            // The first candidate, then any strictly cheaper one.
            let evaluations = candidates.len();
            let mut best: Option<(Vec<f64>, f64)> = None;
            for candidate in candidates {
                let cost = evaluate(&candidate);
                if best.as_ref().is_none_or(|(_, least)| cost < *least) {
                    best = Some((candidate, cost));
                }
            }
            let (winner, least) = best.expect("simplex grid is never empty");
            let (gamma, cost) = match &prev {
                Some(prev) if !relaxed => {
                    let prev_cost = evaluate(prev);
                    let moved = prev.iter().zip(&winner).any(|(a, b)| (a - b).abs() > 1e-9);
                    if moved && least > prev_cost * (1.0 - SWITCH_MARGIN) {
                        (prev.clone(), prev_cost)
                    } else {
                        (winner, least)
                    }
                }
                _ => (winner, least),
            };

            self.level.plan(Some(lambda_g));
            self.level.record(evaluations);
            self.prev = Some(gamma.iter().map(|&g| (g / q).round() as i64).collect());
            L2Decision {
                gamma,
                expected_cost: cost,
                states_evaluated: evaluations,
            }
        }
    }

    /// The neighborhood as it was first built: every neighbor checked
    /// against every accepted point, component by component.
    fn scanned_neighborhood(grid: &SimplexGrid, prev: &[f64]) -> Vec<Vec<f64>> {
        let mut all = vec![prev.to_vec()];
        for n in grid.neighbors(prev) {
            if !all
                .iter()
                .any(|p: &Vec<f64>| p.iter().zip(&n).all(|(a, b)| (a - b).abs() < 1e-9))
            {
                all.push(n);
            }
        }
        all
    }

    #[test]
    fn neighborhood_is_the_scanned_ring_without_duplicates() {
        let bits = |all: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            all.iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let mut corner = vec![0.0; 32];
        corner[..3].copy_from_slice(&[5.0, 3.0, 2.0]);
        for (quantum, weights) in [
            (0.1, vec![1.0, 2.0, 3.0, 4.0]),
            (0.1, vec![4.0, 0.0, 1.0, 3.0, 2.0]),
            (1.0 / 128.0, vec![1.0; 32]),
            (0.1, corner),
        ] {
            let grid = SimplexGrid::with_quantum(weights.len(), quantum);
            let prev = grid.snap(&weights);
            let ring = neighborhood(&grid, &prev);
            assert!(ring.len() > weights.len());
            assert_eq!(
                bits(ring),
                bits(scanned_neighborhood(&grid, &prev)),
                "{} modules",
                weights.len()
            );
        }
    }

    /// Drive `l2` and a clone through the same generated periods — load
    /// swings, drifted and drowned modules and membership relaxations —
    /// one deciding
    /// through the memoised ring, the other through `decide_reference`.
    /// Returns the decisions, which must agree bit for bit.
    fn decide_against_reference(
        mut l2: L2Controller,
        seed: u64,
        decides: usize,
        relax_every: usize,
    ) -> Vec<L2Decision> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference = l2.clone();
        let modules = l2.all.len();
        let mut decisions = Vec::new();
        for step in 0..decides {
            let arrivals = rng.gen_range(0..60_000u64);
            l2.observe(arrivals);
            reference.observe(arrivals);
            let states: Vec<ModuleState> = (0..modules)
                .map(|_| ModuleState {
                    c_factor: rng.gen_range(0.6..1.5),
                    queue_mean: match rng.gen_range(0..4u32) {
                        0 => 0.0,
                        1 => rng.gen_range(100.0..600.0), // past `Q_HI`
                        _ => rng.gen_range(0.0..100.0),
                    },
                    active: rng.gen_range(1..=3usize),
                })
                .collect();
            if step % relax_every == relax_every - 1 {
                l2.relax_hysteresis_once();
                reference.relax_hysteresis_once();
            }
            let got = l2.decide(&states);
            let want = reference.decide_reference(&states);
            let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.gamma), bits(&want.gamma), "split, decide {step}");
            assert_eq!(
                got.expected_cost.to_bits(),
                want.expected_cost.to_bits(),
                "cost, decide {step}"
            );
            assert_eq!(got.states_evaluated, want.states_evaluated, "decide {step}");
            decisions.push(got);
        }
        assert_eq!(
            l2.mean_states_evaluated(),
            reference.mean_states_evaluated()
        );
        let moves = decisions
            .windows(2)
            .filter(|w| w[0].gamma != w[1].gamma)
            .count();
        assert!(
            moves >= 10,
            "the generated periods must move the split, got {moves}"
        );
        decisions
    }

    #[test]
    fn memoised_ring_decides_as_the_materialised_ring_did() {
        let at_quantum = |gamma_quantum: f64| L2Config {
            gamma_quantum,
            ..L2Config::paper_default()
        };
        let kinds = [module_model(2), module_model(3)];
        let mixed_models = |modules: usize| -> Vec<ModuleCostModel> {
            (0..modules).map(|i| kinds[i % 2].clone()).collect()
        };
        // Four modules, unseeded: enumerates first and when relaxed, rings
        // otherwise.
        let l2 = L2Controller::new(at_quantum(0.1), mixed_models(4));
        let decisions = decide_against_reference(l2, 1, 60, 11);
        assert_eq!(decisions[0].states_evaluated, 286);
        assert!(decisions[1].states_evaluated <= 13);

        // Seven modules seeded with three of them at zero quanta.
        let mut l2 = L2Controller::new(at_quantum(0.1), mixed_models(7));
        l2.set_initial_split(vec![4.0, 0.0, 1.0, 3.0, 2.0, 0.0, 0.0]);
        decide_against_reference(l2, 2, 60, 11);

        // 32 modules as `scale128_*` runs them: too many to enumerate
        // even when relaxed, every one of the 993 splits still counted.
        // A quantum of 1/128 rarely clears the switching margin, so most
        // of this run's moves are relaxed ones.
        let mut l2 = L2Controller::new(at_quantum(1.0 / 128.0), mixed_models(32));
        l2.set_initial_split(vec![1.0; 32]);
        let decisions = decide_against_reference(l2, 3, 50, 3);
        assert_eq!(decisions[0].states_evaluated, 1 + 32 * 31);

        // Unseeded and not enumerable: the ring around the even split,
        // most modules at zero quanta.
        let l2 = L2Controller::new(at_quantum(0.1), mixed_models(32));
        decide_against_reference(l2, 4, 50, 11);
    }

    /// The module learning's training set as it stood before a worker kept
    /// one controller: its own grid and search budget, written out, and a
    /// fresh `L1Controller` per point, serially on this thread, with every
    /// L0 replay made through fresh buffers.
    fn training_set_fresh(
        l1_config: &L1Config,
        members: &[MemberSpec],
        maps: &[Arc<AbstractionMap>],
        lambda_max: f64,
        spec: ModuleLearnSpec,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let m = members.len();
        let xs = llc_approx::GridSampler::new(vec![
            (0.0, lambda_max, spec.lambda_steps),
            (0.7, 1.4, spec.c_steps),
            (0.0, 100.0, spec.q_steps),
            (1.0, m as f64, spec.active_steps.min(m)),
        ])
        .points();
        let ys = crate::l0::reference::with_fresh_replays(|| {
            xs.iter()
                .map(|p| {
                    simulate_module_fresh(
                        l1_config,
                        members,
                        maps,
                        p[0],
                        p[1],
                        p[2],
                        p[3].round() as usize,
                        spec.periods,
                    )
                })
                .collect()
        });
        (xs, ys)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the learning grid's axes
    fn simulate_module_fresh(
        l1_config: &L1Config,
        members: &[MemberSpec],
        maps: &[Arc<AbstractionMap>],
        lambda: f64,
        c_factor: f64,
        q0: f64,
        active_init: usize,
        periods: usize,
    ) -> f64 {
        let mut l1 = L1Controller::new_shared(*l1_config, members.to_vec(), maps.to_vec());
        l1.search_budget = (8, 600);
        let m = members.len();
        let mut queues: Vec<f64> = vec![q0; m];
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            (members[b].speed / members[b].c_prior)
                .total_cmp(&(members[a].speed / members[a].c_prior))
        });
        let mut active = vec![false; m];
        for &j in order.iter().take(active_init.clamp(1, m)) {
            active[j] = true;
        }
        let demands: Vec<Option<f64>> =
            members.iter().map(|s| Some(s.c_prior * c_factor)).collect();
        let mut total = 0.0;
        for _ in 0..periods {
            let arrivals = (lambda * l1_config.period).round().max(0.0) as u64;
            l1.observe(arrivals, &demands);
            let q_obs: Vec<usize> = queues.iter().map(|&q| q.round() as usize).collect();
            let d = l1.decide(&q_obs, &active);
            let mut period_cost = 0.0;
            for j in 0..m {
                if d.alpha[j] {
                    let entry = maps[j].query(
                        d.gamma[j] * lambda,
                        members[j].c_prior * c_factor,
                        queues[j],
                    );
                    period_cost += entry.cost;
                    queues[j] = entry.final_q;
                } else {
                    queues[j] = 0.0;
                }
                if d.alpha[j] && !active[j] {
                    period_cost += l1_config.switch_on_penalty;
                }
            }
            active = d.alpha;
            total += period_cost;
        }
        total / periods as f64
    }

    /// Each composition of `scenario`'s modules learns, through one reset
    /// controller per worker, the training set
    /// [`training_set_fresh`] learns, bit for bit. The fresh path runs on
    /// copies of the maps with cold replay memos, so every out-of-grid
    /// query it makes is replayed again.
    fn assert_trains_as_fresh_controllers(scenario: &crate::ScenarioConfig) {
        let steps = scenario.l0.ticks_per(scenario.l1.period) as usize;
        for (module, members) in scenario.member_specs().iter().enumerate() {
            let maps: Vec<Arc<AbstractionMap>> = members
                .iter()
                .map(|m| {
                    let (c_range, lambda_max, q_max) = m.learn_envelope();
                    Arc::new(AbstractionMap::learn(
                        &scenario.l0,
                        steps,
                        &m.phis,
                        c_range,
                        lambda_max,
                        q_max,
                        scenario.learn,
                    ))
                })
                .collect();
            let capacity: f64 = members.iter().map(|m| m.speed / m.c_prior).sum();
            let spec = scenario.module_learn;
            let (xs, ys) = training_set(&scenario.l1, members, &maps, capacity * 1.3, spec);
            let cold: Vec<Arc<AbstractionMap>> =
                maps.iter().map(|map| Arc::new((**map).clone())).collect();
            let (fresh_xs, fresh_ys) =
                training_set_fresh(&scenario.l1, members, &cold, capacity * 1.3, spec);
            assert_eq!(xs, fresh_xs, "module {module}'s grid");
            for (k, (y, want)) in ys.iter().zip(&fresh_ys).enumerate() {
                assert_eq!(
                    y.to_bits(),
                    want.to_bits(),
                    "module {module}, point {:?}",
                    xs[k]
                );
            }
        }
    }

    /// The five `cluster_of` compositions on the coarse grids.
    #[test]
    fn module_learning_trains_as_fresh_controllers_on_the_coarse_grids() {
        let mut scenario = crate::paper_cluster_16().with_coarse_learning();
        scenario.modules = crate::cluster_of(5);
        assert_trains_as_fresh_controllers(&scenario);
    }

    /// The five `cluster_of` compositions at the default grids, the
    /// resolution every benchmark workload with an L2 learns at.
    #[test]
    fn module_learning_trains_as_fresh_controllers_at_full_resolution() {
        let mut scenario = crate::paper_cluster_16();
        scenario.modules = crate::cluster_of(5);
        assert_trains_as_fresh_controllers(&scenario);
    }

    /// The L2 of a ten-module `cluster_of` build (two modules of each of
    /// the five compositions), coarse learning.
    fn built_l2() -> (crate::ScenarioConfig, L2Controller) {
        let mut scenario = crate::paper_cluster_16().with_coarse_learning();
        scenario.modules = crate::cluster_of(10);
        let policy = crate::HierarchicalPolicy::build(&scenario);
        let l2 = policy.l2().expect("ten modules have an L2").clone();
        (scenario, l2)
    }

    /// `(λ, c_factor, q̄, active)` over and past the trained box.
    fn prediction_sweep() -> Vec<(f64, f64, f64, usize)> {
        let mut sweep = Vec::new();
        for l in 0..=12 {
            for c in [0.7, 1.0, 1.4] {
                for q in [0.0, 40.0, 100.0, 160.0] {
                    for active in 1..=4 {
                        sweep.push((l as f64 * 40.0, c, q, active));
                    }
                }
            }
        }
        sweep
    }

    fn predictions(model: &ModuleCostModel) -> Vec<u64> {
        prediction_sweep()
            .into_iter()
            .map(|(l, c, q, a)| model.predict(l, c, q, a).to_bits())
            .collect()
    }

    #[test]
    fn build_learns_one_tree_per_composition_and_shares_it() {
        let (scenario, l2) = built_l2();
        let tree = |i: usize| Arc::as_ptr(&l2.level.children[i].tree);
        for i in 0..5 {
            assert_eq!(tree(i), tree(i + 5), "modules {i} and {} share", i + 5);
            assert_eq!(
                predictions(&l2.level.children[i]),
                predictions(&l2.level.children[i + 5])
            );
        }
        assert_ne!(tree(0), tree(1), "different compositions, different trees");
        let mut trees: Vec<_> = (0..10).map(tree).collect();
        trees.sort();
        trees.dedup();
        assert_eq!(trees.len(), 5);

        // The shared model is the model module 5 would have learned alone.
        let specs = scenario.member_specs().swap_remove(5);
        let maps: Vec<Arc<AbstractionMap>> = specs
            .iter()
            .map(|m| {
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
            })
            .collect();
        let capacity: f64 = specs.iter().map(|m| m.speed / m.c_prior).sum();
        let solo = ModuleCostModel::learn(
            &scenario.l1,
            &specs,
            &maps,
            capacity * 1.3,
            scenario.module_learn,
        );
        assert_eq!(predictions(&l2.level.children[5]), predictions(&solo));
    }

    /// A closed loop learns in the L1s' maps only: after a two-module
    /// run under a degrading plant, every module model still predicts
    /// what a fresh build's does, bit for bit, over a sweep fine enough
    /// to see any cell a run could have written.
    #[test]
    fn a_closed_loop_run_leaves_the_module_models_as_learned() {
        use crate::ClusterPolicy;
        use llc_workload::{CapacityProfile, Trace, VirtualStore};
        let mut sc = crate::paper_cluster_16().with_coarse_learning();
        sc.modules.truncate(2);
        let capacity: f64 = sc
            .member_specs()
            .iter()
            .flatten()
            .map(|m| m.speed / m.c_prior)
            .sum();
        let trace = Trace::new(30.0, vec![0.5 * capacity * 30.0; 48]).expect("well-formed trace");
        let mut policy = crate::PolicyBuilder::new(sc.clone())
            .closed_loop(llc_core::OnlineConfig)
            .build();
        let exp = crate::Experiment {
            drift: Some(CapacityProfile::Ramp { from: 1.0, to: 0.7 }),
            ..crate::Experiment::paper_default(31)
        };
        exp.run(
            sc.to_sim_config(),
            &mut policy,
            &trace,
            &VirtualStore::paper_default(31),
        )
        .expect("well-formed scenario");
        assert!(policy.metrics().online_updates > 0, "the L1s learned");

        let fresh = crate::HierarchicalPolicy::build(&sc);
        let (run, fresh) = (
            &policy.l2().expect("two modules build an L2").level.children,
            &fresh.l2().expect("two modules build an L2").level.children,
        );
        for (m, (learned, built)) in run.iter().zip(fresh).enumerate() {
            for l in 0..=200 {
                for c in [0.7, 0.85, 1.0, 1.2, 1.4] {
                    for q in [0.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0] {
                        for active in 1..=4 {
                            let lambda = l as f64;
                            assert_eq!(
                                learned.predict(lambda, c, q, active).to_bits(),
                                built.predict(lambda, c, q, active).to_bits(),
                                "module {m} at ({lambda}, {c}, {q}, {active})"
                            );
                        }
                    }
                }
            }
        }
    }
}
