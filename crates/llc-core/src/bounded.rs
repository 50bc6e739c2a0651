use crate::Error;

/// Result of a bounded (local) search.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOptimum<C> {
    /// The best candidate found.
    pub candidate: C,
    /// Its cost.
    pub cost: f64,
    /// Total number of cost evaluations performed.
    pub evaluations: usize,
    /// Number of improvement rounds taken before stopping.
    pub rounds: usize,
}

/// Bounded search strategy for combinatorial control sets.
///
/// The paper's L1 controller "searches a limited neighborhood of [the
/// current] state for a solution" instead of enumerating the whole input
/// space. `BoundedSearch` captures that pattern generically: best-improvement
/// hill climbing from a start candidate, expanding caller-supplied
/// neighborhoods, stopping after a round without improvement or when the
/// evaluation budget is exhausted.
///
/// The search is deterministic: ties are broken in favor of the earlier
/// candidate in the neighborhood ordering, so callers control tie-breaking
/// by how they enumerate neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedSearch {
    max_rounds: usize,
    max_evaluations: usize,
}

impl Default for BoundedSearch {
    fn default() -> Self {
        BoundedSearch {
            max_rounds: 64,
            max_evaluations: 100_000,
        }
    }
}

impl BoundedSearch {
    /// A search limited to `max_rounds` improvement rounds and
    /// `max_evaluations` cost evaluations (whichever is hit first).
    pub fn new(max_rounds: usize, max_evaluations: usize) -> Self {
        BoundedSearch {
            max_rounds,
            max_evaluations,
        }
    }

    /// Maximum improvement rounds.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Maximum cost evaluations.
    pub fn max_evaluations(&self) -> usize {
        self.max_evaluations
    }

    /// Run best-improvement local search from `start`.
    ///
    /// `evaluate` scores a candidate (lower is better); `neighbors`
    /// enumerates the local moves from a candidate.
    pub fn minimize<C, F, N>(&self, start: C, mut evaluate: F, neighbors: N) -> LocalOptimum<C>
    where
        C: Clone,
        F: FnMut(&C) -> f64,
        N: Fn(&C) -> Vec<C>,
    {
        let mut best = start;
        let mut best_cost = evaluate(&best);
        let mut evaluations = 1;
        let mut rounds = 0;

        while rounds < self.max_rounds && evaluations < self.max_evaluations {
            rounds += 1;
            let mut improved = false;
            let mut round_best: Option<(C, f64)> = None;
            for cand in neighbors(&best) {
                if evaluations >= self.max_evaluations {
                    break;
                }
                let cost = evaluate(&cand);
                evaluations += 1;
                if cost < round_best.as_ref().map_or(best_cost, |(_, c)| *c) {
                    round_best = Some((cand, cost));
                }
            }
            if let Some((cand, cost)) = round_best {
                best = cand;
                best_cost = cost;
                improved = true;
            }
            if !improved {
                break;
            }
        }

        LocalOptimum {
            candidate: best,
            cost: best_cost,
            evaluations,
            rounds,
        }
    }

    /// Pick the minimum-cost candidate out of an explicit finite set.
    ///
    /// This is the degenerate "neighborhood = whole set, one round" search
    /// used when the quantized input space is small enough to enumerate
    /// (e.g. the L2 controller's γ simplex at 0.1 quantization).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCandidateSet`] if `candidates` is empty.
    pub fn argmin<C, F>(candidates: Vec<C>, mut evaluate: F) -> Result<LocalOptimum<C>, Error>
    where
        C: Clone,
        F: FnMut(&C) -> f64,
    {
        let mut iter = candidates.into_iter();
        let first = iter.next().ok_or(Error::EmptyCandidateSet)?;
        let mut best_cost = evaluate(&first);
        let mut best = first;
        let mut evaluations = 1;
        for cand in iter {
            let cost = evaluate(&cand);
            evaluations += 1;
            if cost < best_cost {
                best = cand;
                best_cost = cost;
            }
        }
        Ok(LocalOptimum {
            candidate: best,
            cost: best_cost,
            evaluations,
            rounds: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex quadratic on an integer line: unique minimum at 17.
    fn quad(x: &i64) -> f64 {
        let d = (*x - 17) as f64;
        d * d
    }

    fn line_neighbors(x: &i64) -> Vec<i64> {
        vec![x - 1, x + 1]
    }

    #[test]
    fn hill_climb_finds_convex_minimum() {
        let s = BoundedSearch::new(100, 10_000);
        let opt = s.minimize(0, quad, line_neighbors);
        assert_eq!(opt.candidate, 17);
        assert_eq!(opt.cost, 0.0);
        assert!(opt.rounds <= 18);
    }

    #[test]
    fn respects_round_budget() {
        let s = BoundedSearch::new(3, 10_000);
        let opt = s.minimize(0, quad, line_neighbors);
        assert_eq!(opt.candidate, 3, "one step per round");
        assert_eq!(opt.rounds, 3);
    }

    #[test]
    fn respects_evaluation_budget() {
        let s = BoundedSearch::new(1_000, 7);
        let opt = s.minimize(0, quad, line_neighbors);
        assert!(opt.evaluations <= 7);
        assert!(opt.candidate <= 3);
    }

    #[test]
    fn stops_at_local_optimum() {
        // Two-basin function: from 0 the search must settle in the nearer
        // basin at 2 even though the global optimum is at 10.
        let f = |x: &i64| match *x {
            2 => 1.0,
            10 => 0.0,
            v => 5.0 + (v as f64 - 6.0).abs(),
        };
        let s = BoundedSearch::default();
        let opt = s.minimize(1, f, line_neighbors);
        assert_eq!(opt.candidate, 2);
    }

    #[test]
    fn argmin_over_explicit_set() {
        let opt = BoundedSearch::argmin(vec![5, 3, 9, 3], |x| f64::from(*x)).unwrap();
        assert_eq!(opt.candidate, 3, "first of the tied minima wins");
        assert_eq!(opt.cost, 3.0);
        assert_eq!(opt.evaluations, 4);
    }

    #[test]
    fn argmin_empty_errors() {
        let r = BoundedSearch::argmin(Vec::<i32>::new(), |_| 0.0);
        assert_eq!(r.unwrap_err(), Error::EmptyCandidateSet);
    }

    #[test]
    fn default_budgets_are_generous() {
        let s = BoundedSearch::default();
        assert!(s.max_rounds() >= 16);
        assert!(s.max_evaluations() >= 10_000);
    }
}
