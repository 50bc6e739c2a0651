use crate::{Error, Plant};

/// Statistics gathered during one lookahead decision.
///
/// These back the paper's control-overhead experiments (§4.3 reports the
/// L1 controller examining an average of 858 states per sampling period).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of predicted states expanded (nodes of the search tree).
    pub states_explored: usize,
    /// Number of subtrees cut by branch-and-bound pruning.
    pub pruned: usize,
}

impl SearchStats {
    /// Merge statistics from another search into this one.
    pub fn absorb(&mut self, other: SearchStats) {
        self.states_explored += other.states_explored;
        self.pruned += other.pruned;
    }
}

/// The outcome of one receding-horizon decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision<I> {
    /// The input to apply now — the first step of the optimal trajectory.
    pub input: I,
    /// The full minimizing input sequence over the horizon.
    pub sequence: Vec<I>,
    /// Cumulative expected cost of the minimizing trajectory.
    pub cost: f64,
    /// Search statistics for this decision.
    pub stats: SearchStats,
}

/// The buffers one lookahead search works in.
///
/// A search needs the input prefix it is standing on, one admissible-set
/// buffer per depth, and the incumbent sequence. A controller that decides
/// every sampling period keeps one of these and hands it to
/// [`LookaheadController::decide_with`], so that steady-state decisions
/// stay off the heap. Nothing carries over from one search to the next
/// but capacity: a scratch may be shared between controllers of different
/// horizons and plants of different input-set sizes, and after a search
/// that failed.
#[derive(Debug, Clone)]
pub struct SearchScratch<I> {
    prefix: Vec<I>,
    /// One admissible-set buffer per depth, reused across the whole tree:
    /// the search expands O(|U|^N) nodes and a heap allocation per node
    /// would dominate cheap plants.
    input_bufs: Vec<Vec<I>>,
    sequence: Vec<I>,
}

impl<I> Default for SearchScratch<I> {
    fn default() -> Self {
        SearchScratch {
            prefix: Vec::new(),
            input_bufs: Vec::new(),
            sequence: Vec::new(),
        }
    }
}

impl<I> SearchScratch<I> {
    /// The minimizing input sequence of the last successful search, first
    /// step first (unspecified after a failed one).
    pub fn sequence(&self) -> &[I] {
        &self.sequence
    }
}

/// Exhaustive limited-lookahead controller with branch-and-bound pruning.
///
/// Implements the optimization of the paper's eq. (4):
///
/// ```text
/// min_{u(k..k+N)}  Σ J(x(q), u(q))   s.t.  x̂(q+1) = f(x(q), u(q), ω̂(q))
/// ```
///
/// The tree of all admissible input sequences is expanded from the current
/// state up to the horizon `N`, one `step` and one `cost` per node against
/// the forecast's environment for that depth. Since all costs are
/// non-negative, partial sums that already exceed the incumbent best are
/// pruned. (The paper's three-sample `λ̂ ± δ` chattering mitigation belongs
/// to the module controller, which averages its own samples; see
/// [`UncertaintyBand`](crate::UncertaintyBand).)
///
/// The worst-case number of explored states is `Σ_{q=1..N} |U|^q`, which the
/// paper keeps small by construction (processors offer 6–10 frequencies,
/// horizons of 1–3 steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadController {
    horizon: usize,
}

impl LookaheadController {
    /// Create a controller with prediction horizon `horizon >= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroHorizon`] if `horizon == 0`.
    pub fn new(horizon: usize) -> Result<Self, Error> {
        if horizon == 0 {
            return Err(Error::ZeroHorizon);
        }
        Ok(LookaheadController { horizon })
    }

    /// The prediction horizon `N`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Compute the optimal first input from state `x0`.
    ///
    /// `prev_input` is the input applied during the previous sampling
    /// period (for `‖Δu‖` switching penalties). `forecast[q]` is the
    /// environment estimate `ω̂(k+q)` and must cover at least `N` steps.
    /// This is [`LookaheadController::decide_with`] on a fresh scratch.
    ///
    /// # Errors
    ///
    /// * [`Error::ForecastTooShort`] if the forecast cannot cover the
    ///   horizon;
    /// * [`Error::EmptyInputSet`] if the plant offers no admissible input
    ///   in `x0`.
    pub fn decide<P: Plant>(
        &self,
        plant: &P,
        x0: &P::State,
        prev_input: Option<&P::Input>,
        forecast: &[P::Env],
    ) -> Result<Decision<P::Input>, Error> {
        let mut scratch = SearchScratch::default();
        let (cost, stats) = self.decide_with(plant, x0, prev_input, forecast, &mut scratch)?;
        let sequence = scratch.sequence;
        let input = sequence.first().cloned().ok_or(Error::EmptyInputSet)?;
        Ok(Decision {
            input,
            sequence,
            cost,
            stats,
        })
    }

    /// [`LookaheadController::decide`] in the caller's buffers: returns the
    /// minimizing trajectory's cumulative cost and the search statistics,
    /// and leaves the trajectory itself in
    /// [`scratch.sequence()`](SearchScratch::sequence), whose first
    /// element is the input to apply now.
    ///
    /// # Errors
    ///
    /// As [`LookaheadController::decide`].
    pub fn decide_with<P: Plant>(
        &self,
        plant: &P,
        x0: &P::State,
        prev_input: Option<&P::Input>,
        forecast: &[P::Env],
        scratch: &mut SearchScratch<P::Input>,
    ) -> Result<(f64, SearchStats), Error> {
        if forecast.len() < self.horizon {
            return Err(Error::ForecastTooShort {
                required: self.horizon,
                available: forecast.len(),
            });
        }

        scratch.prefix.clear();
        scratch.sequence.clear();
        if scratch.input_bufs.len() < self.horizon {
            scratch.input_bufs.resize_with(self.horizon, Vec::new);
        }
        let mut search = Search {
            plant,
            forecast,
            horizon: self.horizon,
            prefix: &mut scratch.prefix,
            best: &mut scratch.sequence,
            best_cost: None,
            stats: SearchStats::default(),
        };
        search.expand(x0, prev_input, 0, 0.0, &mut scratch.input_bufs)?;
        let cost = search.best_cost.ok_or(Error::EmptyInputSet)?;
        Ok((cost, search.stats))
    }
}

/// One depth-first expansion of the input tree with pruning.
struct Search<'a, P: Plant> {
    plant: &'a P,
    forecast: &'a [P::Env],
    horizon: usize,
    prefix: &'a mut Vec<P::Input>,
    /// The incumbent sequence, meaningful once `best_cost` is set.
    best: &'a mut Vec<P::Input>,
    best_cost: Option<f64>,
    stats: SearchStats,
}

impl<P: Plant> Search<'_, P> {
    fn expand(
        &mut self,
        x: &P::State,
        prev: Option<&P::Input>,
        depth: usize,
        acc: f64,
        input_bufs: &mut [Vec<P::Input>],
    ) -> Result<(), Error> {
        if depth == self.horizon {
            if self.best_cost.is_none_or(|c| acc < c) {
                self.best_cost = Some(acc);
                self.best.clone_from(self.prefix);
            }
            return Ok(());
        }

        let (mine, deeper) = input_bufs
            .split_first_mut()
            .expect("one input buffer per depth");
        mine.clear();
        self.plant.admissible_into(x, mine);
        if mine.is_empty() {
            return Err(Error::EmptyInputSet);
        }
        let env = &self.forecast[depth];

        for u in mine.iter() {
            let x_next = self.plant.step(x, u, env);
            self.stats.states_explored += 1;

            let acc_next = acc + self.plant.cost(&x_next, u, prev);
            if self.best_cost.is_some_and(|c| acc_next >= c) {
                self.stats.pruned += 1;
                continue;
            }

            self.prefix.push(u.clone());
            self.expand(&x_next, Some(u), depth + 1, acc_next, deeper)?;
            self.prefix.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar integrator: x' = x + u + w, cost |x' - 10| + 0.01|u|.
    struct Integrator;
    impl Plant for Integrator {
        type State = f64;
        type Input = i32;
        type Env = f64;
        fn admissible(&self, _x: &f64) -> Vec<i32> {
            vec![-2, -1, 0, 1, 2]
        }
        fn step(&self, x: &f64, u: &i32, w: &f64) -> f64 {
            x + f64::from(*u) + w
        }
        fn cost(&self, x: &f64, u: &i32, _prev: Option<&i32>) -> f64 {
            (x - 10.0).abs() + 0.01 * f64::from(u.abs())
        }
    }

    fn certain_forecast(n: usize) -> Vec<f64> {
        vec![0.0; n]
    }

    #[test]
    fn zero_horizon_is_rejected() {
        assert_eq!(LookaheadController::new(0), Err(Error::ZeroHorizon));
    }

    #[test]
    fn drives_toward_setpoint() {
        let c = LookaheadController::new(3).unwrap();
        let d = c
            .decide(&Integrator, &0.0, None, &certain_forecast(3))
            .unwrap();
        assert_eq!(d.input, 2, "far below set-point: push hard");
        let d = c
            .decide(&Integrator, &10.0, None, &certain_forecast(3))
            .unwrap();
        assert_eq!(d.input, 0, "at set-point: hold");
        let d = c
            .decide(&Integrator, &14.0, None, &certain_forecast(3))
            .unwrap();
        assert_eq!(d.input, -2, "above set-point: push down");
    }

    #[test]
    fn sequence_length_matches_horizon() {
        let c = LookaheadController::new(4).unwrap();
        let d = c
            .decide(&Integrator, &3.0, None, &certain_forecast(4))
            .unwrap();
        assert_eq!(d.sequence.len(), 4);
        assert_eq!(d.sequence[0], d.input);
    }

    #[test]
    fn forecast_shorter_than_horizon_errors() {
        let c = LookaheadController::new(3).unwrap();
        let err = c.decide(&Integrator, &0.0, None, &certain_forecast(2));
        assert_eq!(
            err.unwrap_err(),
            Error::ForecastTooShort {
                required: 3,
                available: 2
            }
        );
    }

    #[test]
    fn exhaustive_state_count_without_pruning_bound() {
        // With pruning disabled we cannot directly count, but explored +
        // pruned subtree roots must never exceed the exhaustive bound
        // Σ |U|^q and must be at least |U| (first level fully expanded).
        let c = LookaheadController::new(2).unwrap();
        let d = c
            .decide(&Integrator, &0.0, None, &certain_forecast(2))
            .unwrap();
        let full: usize = 5 + 5 * 5;
        assert!(d.stats.states_explored <= full);
        assert!(d.stats.states_explored >= 5);
    }

    #[test]
    fn pruning_never_changes_the_decision() {
        // Compare against a brute-force enumeration of all sequences.
        let c = LookaheadController::new(3).unwrap();
        for x0 in [-5.0, 0.0, 7.5, 10.0, 23.0] {
            let d = c
                .decide(&Integrator, &x0, None, &certain_forecast(3))
                .unwrap();
            let mut best = f64::INFINITY;
            let mut best_first = 0;
            let us = [-2, -1, 0, 1, 2];
            for a in us {
                for b in us {
                    for g in us {
                        let p = Integrator;
                        let x1 = p.step(&x0, &a, &0.0);
                        let x2 = p.step(&x1, &b, &0.0);
                        let x3 = p.step(&x2, &g, &0.0);
                        let cost = p.cost(&x1, &a, None)
                            + p.cost(&x2, &b, Some(&a))
                            + p.cost(&x3, &g, Some(&b));
                        if cost < best {
                            best = cost;
                            best_first = a;
                        }
                    }
                }
            }
            assert!((d.cost - best).abs() < 1e-9, "x0={x0}");
            assert_eq!(d.input, best_first, "x0={x0}");
        }
    }

    #[test]
    fn switching_penalty_respects_prev_input() {
        // Plant with a pure switching cost: it should keep the previous
        // input when states are cost-equivalent.
        struct Sticky;
        impl Plant for Sticky {
            type State = f64;
            type Input = i32;
            type Env = ();
            fn admissible(&self, _x: &f64) -> Vec<i32> {
                vec![1, 2, 3]
            }
            fn step(&self, x: &f64, _u: &i32, _w: &()) -> f64 {
                *x
            }
            fn cost(&self, _x: &f64, u: &i32, prev: Option<&i32>) -> f64 {
                match prev {
                    Some(p) => f64::from((u - p).abs()),
                    None => 0.0,
                }
            }
        }
        let c = LookaheadController::new(2).unwrap();
        let d = c.decide(&Sticky, &0.0, Some(&2), &[(), ()]).unwrap();
        assert_eq!(d.input, 2);
        assert!(d.cost.abs() < 1e-12);
    }

    #[test]
    fn stats_absorb_adds_counters() {
        let mut a = SearchStats {
            states_explored: 3,
            pruned: 1,
        };
        a.absorb(SearchStats {
            states_explored: 5,
            pruned: 2,
        });
        assert_eq!(a.states_explored, 8);
        assert_eq!(a.pruned, 3);
    }
}
