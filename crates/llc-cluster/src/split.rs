//! One split level of the recursive hierarchy: a level splits its load over
//! children through a learned model of what the level below does with a
//! share. [`crate::L1Controller`] splits a module over its computers'
//! abstraction maps, [`crate::L2Controller`] the cluster over its modules'
//! cost models; a [`SplitLevel`] holds what they share: the children, the
//! arrival-rate forecast, the online learner and one share search.
//!
//! A split gives child `idx[k]` `units[k]` quanta. [`SplitLevel::begin`]
//! fixes a decision's quantum `q`, band samples `λ_s` and child keys; lane
//! `(i, u, s)`, child `i`'s cost at `u·q·λ_s`, is priced when a split first
//! visits it. A split costs the mean over samples of its children's lanes.
//!
//! # Why the answer is exact
//!
//! * A lane is priced at `u as f64 * q * λ_s` from the level's own `q` (the
//!   L1's configured quantum, the L2's `SimplexGrid::quantum`); the L2 keeps
//!   its split in quanta and answers `u as f64 * grid.quantum()`.
//! * Children are added left to right in `idx` order into one accumulator
//!   per sample, each starting at `0.0`; the accumulators are combined left
//!   to right and divided by the sample count (`x / 1.0 == x`).
//! * The climb moves only to a strictly cheaper neighbor, the first in
//!   `SimplexGrid::for_each_neighbor_units` order, so ties go to the start,
//!   and checks the evaluation budget before each evaluation. The
//!   exhaustive pass takes its first point, then strictly cheaper ones.
//! * [`SplitChild::cost`] is pure, so a lane priced once, lazily, is what
//!   pricing it on every visit gives.

use llc_approx::{BlendConfig, BlendSchedule, SimplexGrid};
use llc_core::{DriftDetector, LearnRate, OnlineConfig};
use llc_forecast::{Forecaster, LocalLinearTrend};
use std::fmt::Debug;

/// The samples of the L1's band `{λ̂−δ, λ̂, λ̂+δ}`; the L2 prices one.
const BAND: usize = 3;

/// A learned model of what one child does with a share of the load.
///
/// Contract: [`cost`](SplitChild::cost) is a pure function of its
/// arguments between two writes (`blend`, `decay_confidence`), and never
/// returns `-0.0`, so a sum started at `0.0` has the bits of one started
/// at its first term.
pub(crate) trait SplitChild {
    /// The child's state apart from its load, fixed within a decision.
    type Key: Copy + Debug;
    /// One realized outcome.
    type Outcome: Copy;

    /// Predicted cost of the child serving `lambda` req/s in state `key`.
    fn cost(&self, lambda: f64, key: Self::Key) -> f64;

    /// The realized cost `outcome` carries, compared with `cost`.
    fn realized(outcome: &Self::Outcome) -> f64;

    /// Blend `outcome`, realized serving `lambda` in state `key`, into the
    /// model under `blend`. Returns the weight applied (0.0 = dropped).
    fn blend(
        &mut self,
        lambda: f64,
        key: Self::Key,
        outcome: Self::Outcome,
        blend: &BlendConfig,
    ) -> f64;

    /// Staleness sweep: shrink every online confidence by `factor`.
    fn decay_confidence(&mut self, factor: f64);
}

/// A level's online learning: knobs, blend schedules, one drift detector
/// per child and the lifetime counters.
#[derive(Debug, Clone)]
pub(crate) struct Learner {
    cfg: OnlineConfig,
    /// Steady-state and fast re-convergence schedules.
    schedule: BlendSchedule,
    /// One Page–Hinkley detector per child over its normalized residuals
    /// `(realized − predicted) / max(1, |predicted|)`, whose detections
    /// set the child's learning rate.
    pub(crate) detectors: Vec<DriftDetector>,
    /// Learning passes run (the staleness sweep's cadence).
    passes: u64,
    /// Outcomes blended in (weight > 0).
    pub(crate) applied: u64,
    /// Outcomes blended at the fast rate.
    pub(crate) fast_applied: u64,
}

/// One decision's priced shares, unit-major so that a split's children
/// holding similar shares sit side by side.
#[derive(Debug, Clone)]
struct Lanes<K> {
    quantum: f64,
    samples: Vec<f64>,
    keys: Vec<K>,
    /// `costs[(u·children + i)·samples + s]` is lane `(i, u, s)`, or
    /// [`UNPRICED`] until the lanes of `(i, u)` are priced.
    costs: Vec<f64>,
}

/// An unpriced lane: a signalling NaN, which no arithmetic yields (a child
/// answering it would only be priced again, to the same value).
const UNPRICED: u64 = 0x7ff4_0000_0000_0001;

impl<K: Copy> Lanes<K> {
    /// Cost of the split giving child `idx[k]` `units[k]` quanta.
    fn price<C: SplitChild<Key = K>>(
        &mut self,
        children: &[C],
        idx: &[usize],
        units: &[i64],
    ) -> f64 {
        match self.samples.len() {
            1 => self.price_in::<1, C>(children, idx, units),
            _ => self.price_in::<BAND, C>(children, idx, units),
        }
    }

    /// [`price`](Self::price) under `N` samples.
    fn price_in<const N: usize, C: SplitChild<Key = K>>(
        &mut self,
        children: &[C],
        idx: &[usize],
        units: &[i64],
    ) -> f64 {
        let mut acc = [0.0; N];
        for (&i, &u) in idx.iter().zip(units) {
            let cell = (u as usize * children.len() + i) * N;
            if self.costs[cell].to_bits() == UNPRICED {
                for s in 0..N {
                    let lambda = u as f64 * self.quantum * self.samples[s];
                    self.costs[cell + s] = children[i].cost(lambda, self.keys[i]);
                }
            }
            for (a, lane) in acc.iter_mut().zip(&self.costs[cell..cell + N]) {
                *a += lane;
            }
        }
        let mut total = acc[0];
        for a in &acc[1..] {
            total += a;
        }
        total / N as f64
    }
}

/// A level that splits its load over children (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct SplitLevel<C: SplitChild> {
    /// The children's models, in index order.
    pub(crate) children: Vec<C>,
    forecast: LocalLinearTrend,
    /// The rate the last decision planned for.
    last_prediction: Option<f64>,
    /// (actual, predicted) arrival rate per period.
    pub(crate) forecast_history: Vec<(f64, f64)>,
    /// States weighed over all decisions.
    total_states: u64,
    decisions: u64,
    /// Present once online learning is on.
    pub(crate) online: Option<Learner>,
    lanes: Lanes<C::Key>,
    /// The climb's current split in quanta; its best once it returns.
    units: Vec<i64>,
    /// Neighbor buffer of [`SimplexGrid::for_each_neighbor_units`].
    neighbor: Vec<i64>,
    /// The best neighbor of the current round.
    round: Vec<i64>,
}

impl<C: SplitChild> SplitLevel<C> {
    /// A level over `children` with a cold forecast and no learner.
    /// Allocates nothing.
    pub(crate) fn new(children: Vec<C>) -> Self {
        SplitLevel {
            children,
            forecast: LocalLinearTrend::with_default_noise().with_floor(0.0),
            last_prediction: None,
            forecast_history: Vec::new(),
            total_states: 0,
            decisions: 0,
            online: None,
            lanes: Lanes {
                quantum: 0.0,
                samples: Vec::new(),
                keys: Vec::new(),
                costs: Vec::new(),
            },
            units: Vec::new(),
            neighbor: Vec::new(),
            round: Vec::new(),
        }
    }

    /// Fold one period's arrival rate into the forecast. Returns the rate
    /// the last decision planned for, if one did.
    pub(crate) fn observe(&mut self, rate: f64) -> Option<f64> {
        if let Some(pred) = self.last_prediction {
            self.forecast_history.push((rate, pred));
        }
        self.forecast.observe(rate);
        self.last_prediction
    }

    /// Arrival-rate forecast one period ahead (req/s).
    pub(crate) fn lambda_estimate(&self) -> f64 {
        self.forecast.predict_one().max(0.0)
    }

    /// The rate a decision plans for: `planned` if given, the forecast
    /// otherwise. The next [`observe`](Self::observe) pairs it with the
    /// rate that came.
    pub(crate) fn plan(&mut self, planned: Option<f64>) -> f64 {
        let lambda = planned.unwrap_or_else(|| self.lambda_estimate());
        self.last_prediction = Some(lambda);
        lambda
    }

    /// Count one decision that weighed `states` states.
    pub(crate) fn record(&mut self, states: usize) {
        self.total_states += states as u64;
        self.decisions += 1;
    }

    /// Average states weighed per decision.
    pub(crate) fn mean_states_evaluated(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.total_states as f64 / self.decisions as f64
        }
    }

    /// Switch on online learning (restarting it if it was on) under
    /// [`OnlineConfig::validated`] knobs.
    pub(crate) fn enable_online(&mut self, cfg: OnlineConfig) {
        let cfg = cfg.validated();
        self.online = Some(Learner {
            cfg,
            schedule: BlendSchedule::new(
                cfg.learning_rate,
                cfg.fast_learning_rate,
                cfg.prior_weight,
            ),
            detectors: vec![DriftDetector::new(cfg.detector); self.children.len()],
            passes: 0,
            applied: 0,
            fast_applied: 0,
        });
    }

    /// Outcomes blended in so far.
    pub(crate) fn online_updates(&self) -> u64 {
        self.online.as_ref().map_or(0, |o| o.applied)
    }

    /// Drift detections fired over all children.
    pub(crate) fn drift_detections(&self) -> u64 {
        self.online.as_ref().map_or(0, |o| {
            o.detectors.iter().map(DriftDetector::detections).sum()
        })
    }

    /// Drift detections fired per child; empty while learning is off.
    pub(crate) fn child_drift_detections(&self) -> Vec<u64> {
        self.online.as_ref().map_or_else(Vec::new, |o| {
            o.detectors.iter().map(DriftDetector::detections).collect()
        })
    }

    /// Absorb one period's realized outcomes, in order, as
    /// `(child, λ, key, outcome)`. Each feeds the child's detector its
    /// residual against the current model, then blends in at the rate the
    /// detector selects: fast while a drift fired within its hold-off
    /// window, steady otherwise. One call is one learning pass; every
    /// `decay_every` passes the staleness sweep follows. Returns the
    /// number of outcomes blended in.
    ///
    /// # Panics
    ///
    /// Panics if online learning is off or a child index is out of range.
    pub(crate) fn absorb(
        &mut self,
        outcomes: impl IntoIterator<Item = (usize, f64, C::Key, C::Outcome)>,
    ) -> usize {
        let online = self
            .online
            .as_mut()
            .expect("call enable_online before absorb_outcomes");
        let mut applied = 0usize;
        for (i, lambda, key, outcome) in outcomes {
            let child = &mut self.children[i];
            let lambda = lambda.max(0.0);
            let (realized, predicted) = (C::realized(&outcome), child.cost(lambda, key));
            let detector = &mut online.detectors[i];
            detector.observe((realized - predicted) / predicted.abs().max(1.0));
            let fast = detector.rate() == LearnRate::Fast;
            if child.blend(lambda, key, outcome, online.schedule.select(fast)) > 0.0 {
                applied += 1;
                online.applied += 1;
                online.fast_applied += u64::from(fast);
            }
        }
        online.passes += 1;
        let cfg = online.cfg;
        if cfg.decay_every > 0 && online.passes.is_multiple_of(cfg.decay_every) {
            for child in &mut self.children {
                child.decay_confidence(cfg.decay_factor);
            }
        }
        applied
    }

    /// Start a decision: shares are multiples of `quantum`, priced under
    /// one sample or a band of three, at one key per child. No lane is
    /// priced yet.
    pub(crate) fn begin(
        &mut self,
        quantum: f64,
        samples: &[f64],
        keys: impl IntoIterator<Item = C::Key>,
    ) {
        assert!(matches!(samples.len(), 1 | BAND), "one sample or a band");
        // A child holds 0 to 1/quantum units.
        let cells = self.children.len() * ((1.0 / quantum).round() as usize + 1);
        let lanes = &mut self.lanes;
        lanes.quantum = quantum;
        lanes.samples.clear();
        lanes.samples.extend_from_slice(samples);
        lanes.keys.clear();
        lanes.keys.extend(keys);
        assert_eq!(lanes.keys.len(), self.children.len(), "one key per child");
        lanes.costs.clear();
        lanes
            .costs
            .resize(cells * samples.len(), f64::from_bits(UNPRICED));
    }

    /// Best-improvement hill-climb over `grid`, whose position `k` is child
    /// `idx[k]`, from `start` (in quanta): each round prices every
    /// single-quantum transfer and moves to the cheapest if it is strictly
    /// cheaper. It stops after `rounds` rounds, a round without a move, or
    /// `evals` pricings. Returns the best split's cost, the start's cost
    /// and the splits priced; the split is then [`best`](Self::best).
    pub(crate) fn climb(
        &mut self,
        grid: &SimplexGrid,
        idx: &[usize],
        start: &[i64],
        rounds: usize,
        evals: usize,
    ) -> (f64, f64, usize) {
        let SplitLevel {
            children,
            lanes,
            units,
            neighbor,
            round,
            ..
        } = self;
        let mut price = |split: &[i64]| lanes.price(children, idx, split);
        units.clear();
        units.extend_from_slice(start);
        let start_cost = price(units);
        let (mut cost, mut evaluations, mut done) = (start_cost, 1, 0);
        while done < rounds && evaluations < evals {
            done += 1;
            let mut round_best: Option<f64> = None;
            grid.for_each_neighbor_units(units, neighbor, &mut |next| {
                if evaluations >= evals {
                    return;
                }
                let next_cost = price(next);
                evaluations += 1;
                if next_cost < round_best.unwrap_or(cost) {
                    round_best = Some(next_cost);
                    round.clear();
                    round.extend_from_slice(next);
                }
            });
            let Some(next_cost) = round_best else { break };
            std::mem::swap(units, round);
            cost = next_cost;
        }
        (cost, start_cost, evaluations)
    }

    /// The split the last search ended on, in quanta.
    pub(crate) fn best(&self) -> &[i64] {
        &self.units
    }

    /// The cheapest point of `grid.enumerate()` (position `k` is child
    /// `idx[k]`): the first point, then any strictly cheaper one. Returns
    /// its cost and the number of points priced; the point is then
    /// [`best`](Self::best).
    pub(crate) fn exhaustive(&mut self, grid: &SimplexGrid, idx: &[usize]) -> (f64, usize) {
        let (points, q) = (grid.enumerate(), grid.quantum());
        let mut least: Option<f64> = None;
        for point in &points {
            self.units.clear();
            self.units
                .extend(point.iter().map(|&share| (share / q).round() as i64));
            let cost = self.lanes.price(&self.children, idx, &self.units);
            if least.is_none_or(|least| cost < least) {
                least = Some(cost);
                std::mem::swap(&mut self.units, &mut self.round);
            }
        }
        std::mem::swap(&mut self.units, &mut self.round);
        (least.expect("a simplex grid is never empty"), points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A child whose cost is a hash of its seed, the load and the key:
    /// pure, `+∞` one time in eight, and either a small integer (ties
    /// between splits are common) or a value whose sums round.
    #[derive(Debug, Clone)]
    struct Table {
        seed: u64,
        ties: bool,
    }

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    impl SplitChild for Table {
        type Key = u64;
        type Outcome = f64;

        fn cost(&self, lambda: f64, key: u64) -> f64 {
            let h = mix(self.seed ^ mix(lambda.to_bits() ^ key.rotate_left(17)));
            if h.is_multiple_of(8) {
                f64::INFINITY
            } else if self.ties {
                ((h >> 8) % 3) as f64
            } else {
                (h >> 11) as f64 / (1u64 << 53) as f64 * 10.0
            }
        }

        fn realized(outcome: &f64) -> f64 {
            *outcome
        }

        fn blend(&mut self, _: f64, _: u64, _: f64, _: &BlendConfig) -> f64 {
            0.0
        }

        fn decay_confidence(&mut self, _: f64) {}
    }

    /// A level of `n` table children and one decision begun on it, with
    /// its quantum, samples and keys.
    struct Case {
        level: SplitLevel<Table>,
        quantum: f64,
        samples: Vec<f64>,
        keys: Vec<u64>,
    }

    fn case(rng: &mut StdRng, n: usize, levels: usize, samples: usize) -> Case {
        let ties = rng.gen_bool(0.5);
        let children = (0..n)
            .map(|_| Table {
                seed: rng.next_u64(),
                ties,
            })
            .collect();
        let mut level = SplitLevel::new(children);
        let quantum = 1.0 / levels as f64;
        let lambda = rng.gen_range(1.0..50.0);
        let samples: Vec<f64> = [lambda - 0.5, lambda, lambda + 0.5][3 - samples..].to_vec();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4u64)).collect();
        level.begin(quantum, &samples, keys.iter().copied());
        Case {
            level,
            quantum,
            samples,
            keys,
        }
    }

    impl Case {
        /// The split's cost as the levels summed it: sample by sample,
        /// child by child, pricing every term afresh.
        fn price(&self, idx: &[usize], units: &[i64]) -> f64 {
            let mut total = 0.0;
            for &lambda in &self.samples {
                let mut sample = 0.0;
                for (&i, &u) in idx.iter().zip(units) {
                    let load = u as f64 * self.quantum * lambda;
                    sample += self.level.children[i].cost(load, self.keys[i]);
                }
                total += sample;
            }
            total / self.samples.len() as f64
        }
    }

    /// Distinct children in ascending order, one to four of them.
    fn subset(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3u32) > 0).collect();
        if idx.is_empty() {
            idx.push(rng.gen_range(0..n));
        }
        idx
    }

    fn random_point(rng: &mut StdRng, grid: &SimplexGrid) -> Vec<i64> {
        let points = grid.enumerate();
        let point = &points[rng.gen_range(0..points.len())];
        point
            .iter()
            .map(|&g| (g / grid.quantum()).round() as i64)
            .collect()
    }

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn one_round_is_the_cheapest_of_the_start_and_its_ring() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..400 {
            let samples = if trial % 2 == 0 { 1 } else { 3 };
            let n = rng.gen_range(1..=4usize);
            let levels = rng.gen_range(2..=6usize);
            let mut c = case(&mut rng, n, levels, samples);
            // Several climbs of one decision share its lanes.
            for _ in 0..3 {
                let idx = subset(&mut rng, n);
                let grid = SimplexGrid::with_quantum(idx.len(), c.quantum);
                let start = random_point(&mut rng, &grid);

                let start_cost = c.price(&idx, &start);
                let (mut want, mut want_cost, mut count) = (start.clone(), start_cost, 1);
                grid.for_each_neighbor_units(&start, &mut Vec::new(), &mut |next| {
                    let cost = c.price(&idx, next);
                    count += 1;
                    if cost < want_cost {
                        want = next.to_vec();
                        want_cost = cost;
                    }
                });

                let (cost, got_start_cost, evaluations) =
                    c.level.climb(&grid, &idx, &start, 1, usize::MAX);
                assert_eq!(c.level.best(), &want[..], "trial {trial}");
                assert_eq!(bits(cost), bits(want_cost), "trial {trial}");
                assert_eq!(bits(got_start_cost), bits(start_cost), "trial {trial}");
                assert_eq!(evaluations, count, "trial {trial}");
            }
        }
    }

    #[test]
    fn a_budgeted_climb_is_the_best_improvement_climb() {
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..400 {
            let samples = if trial % 2 == 0 { 1 } else { 3 };
            let n = rng.gen_range(1..=4usize);
            let levels = rng.gen_range(2..=6usize);
            let mut c = case(&mut rng, n, levels, samples);
            for _ in 0..3 {
                let idx = subset(&mut rng, n);
                let grid = SimplexGrid::with_quantum(idx.len(), c.quantum);
                let start = random_point(&mut rng, &grid);
                let rounds = rng.gen_range(0..6usize);
                let evals = rng.gen_range(1..40usize);

                let mut here = start.clone();
                let mut cost = c.price(&idx, &here);
                let mut count = 1;
                for _ in 0..rounds {
                    if count >= evals {
                        break;
                    }
                    let mut next_best: Option<(Vec<i64>, f64)> = None;
                    grid.for_each_neighbor_units(&here, &mut Vec::new(), &mut |next| {
                        if count >= evals {
                            return;
                        }
                        let next_cost = c.price(&idx, next);
                        count += 1;
                        if next_cost < next_best.as_ref().map_or(cost, |b| b.1) {
                            next_best = Some((next.to_vec(), next_cost));
                        }
                    });
                    match next_best {
                        Some((next, next_cost)) => (here, cost) = (next, next_cost),
                        None => break,
                    }
                }

                let (got_cost, _, evaluations) = c.level.climb(&grid, &idx, &start, rounds, evals);
                assert_eq!(c.level.best(), &here[..], "trial {trial}");
                assert_eq!(bits(got_cost), bits(cost), "trial {trial}");
                assert_eq!(evaluations, count, "trial {trial}");
            }
        }
    }

    #[test]
    fn the_exhaustive_pass_is_the_first_argmin_of_the_grid() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..300 {
            let samples = if trial % 2 == 0 { 1 } else { 3 };
            let n = rng.gen_range(1..=4usize);
            let levels = rng.gen_range(1..=6usize);
            let mut c = case(&mut rng, n, levels, samples);
            let idx: Vec<usize> = (0..n).collect();
            let grid = SimplexGrid::with_quantum(n, c.quantum);

            let points = grid.enumerate();
            let units = |p: &[f64]| -> Vec<i64> {
                p.iter().map(|&g| (g / c.quantum).round() as i64).collect()
            };
            let mut want = 0;
            let mut want_cost = c.price(&idx, &units(&points[0]));
            for (k, p) in points.iter().enumerate().skip(1) {
                let cost = c.price(&idx, &units(p));
                if cost < want_cost {
                    (want, want_cost) = (k, cost);
                }
            }

            let (cost, count) = c.level.exhaustive(&grid, &idx);
            assert_eq!(c.level.best(), &units(&points[want])[..], "trial {trial}");
            assert_eq!(bits(cost), bits(want_cost), "trial {trial}");
            assert_eq!(count, points.len(), "trial {trial}");
        }
    }
}
