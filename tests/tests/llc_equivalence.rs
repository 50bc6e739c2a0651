//! Property test: the branch-and-bound lookahead controller returns the
//! exact optimum of the brute-force enumeration on randomized finite
//! plants — pruning is an optimization, never an approximation, and so is
//! the guide that seeds it. And a search in reused buffers is the search
//! in fresh ones.

use llc_core::{LookaheadController, Plant, SearchScratch};
use proptest::prelude::*;
use std::cell::Cell;

/// A randomized finite plant: S states, U inputs, deterministic mixing
/// transition, arbitrary non-negative cost table, and a guide that may or
/// may not be a full admissible path.
struct TablePlant {
    states: usize,
    inputs: usize,
    costs: Vec<f64>, // indexed state * inputs + input
    /// A state with no admissible input: reaching it fails the search.
    barren: Option<usize>,
    /// The path handed to the search to seed its incumbent.
    guide: Vec<usize>,
    /// Calls to `step` so far.
    steps: Cell<usize>,
}

impl TablePlant {
    fn new(states: usize, inputs: usize, costs: Vec<f64>) -> Self {
        TablePlant {
            states,
            inputs,
            costs,
            barren: None,
            guide: Vec::new(),
            steps: Cell::new(0),
        }
    }

    /// The guide `picks` and `skew` describe for a search of `horizon`
    /// steps: `horizon + skew` inputs (clamped to the picks there are),
    /// a pick below 6 taken modulo the input count and any other one out
    /// of range.
    fn guided(self, horizon: usize, picks: &[usize], skew: isize) -> Self {
        let len = (horizon as isize + skew).clamp(0, picks.len() as isize) as usize;
        let guide = picks[..len]
            .iter()
            .map(|&pick| if pick < 6 { pick % self.inputs } else { pick })
            .collect();
        TablePlant { guide, ..self }
    }

    /// [`Plant::step`], uncounted.
    fn next(&self, x: usize, u: usize) -> usize {
        (x.wrapping_mul(31).wrapping_add(u * 7 + 1)) % self.states
    }

    /// The `step` calls a search of `horizon` steps from `x0` makes on the
    /// guide: none unless the search has steps below its root and the
    /// guide one input per step, then one per input until the first that
    /// is not admissible where it is applied.
    fn guide_steps(&self, x0: usize, horizon: usize) -> usize {
        if horizon < 2 || self.guide.len() != horizon {
            return 0;
        }
        let mut x = x0;
        let mut steps = 0;
        for &u in &self.guide {
            if self.barren == Some(x) || u >= self.inputs {
                break;
            }
            x = self.next(x, u);
            steps += 1;
        }
        steps
    }
}

impl Plant for TablePlant {
    type State = usize;
    type Input = usize;
    type Env = ();

    fn admissible(&self, x: &usize) -> Vec<usize> {
        if self.barren == Some(*x) {
            return Vec::new();
        }
        (0..self.inputs).collect()
    }
    fn step(&self, x: &usize, u: &usize, _w: &()) -> usize {
        self.steps.set(self.steps.get() + 1);
        self.next(*x, *u)
    }
    fn cost(&self, x_next: &usize, u: &usize, _prev: Option<&usize>) -> f64 {
        self.costs[(x_next * self.inputs + u) % self.costs.len()]
    }
    fn cost_floors(
        &self,
        _x0: &usize,
        _forecast: &[()],
        _floors: &mut [f64],
        guide: &mut Vec<usize>,
    ) {
        guide.extend_from_slice(&self.guide);
    }
}

fn brute_force(plant: &TablePlant, x0: usize, horizon: usize) -> f64 {
    fn rec(plant: &TablePlant, x: usize, depth: usize) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        (0..plant.inputs)
            .map(|u| {
                let xn = plant.step(&x, &u, &());
                plant.cost(&xn, &u, None) + rec(plant, xn, depth - 1)
            })
            .fold(f64::INFINITY, f64::min)
    }
    rec(plant, x0, horizon)
}

/// Guide picks and the guide's length less the horizon: mostly a full
/// path, sometimes a step short or long, or none at all.
fn any_guide() -> impl Strategy<Value = (Vec<usize>, isize)> {
    (
        proptest::collection::vec(prop_oneof![0usize..6, 0usize..6, 0usize..8], 4),
        prop_oneof![Just(0isize), Just(0), Just(0), Just(-1), Just(1), Just(-9)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lookahead_matches_brute_force(
        states in 2usize..8,
        inputs in 1usize..5,
        horizon in 1usize..4,
        x0 in 0usize..8,
        costs in proptest::collection::vec(0.0..100.0f64, 8 * 5),
        guide in any_guide(),
    ) {
        let (picks, skew) = guide;
        let plant = TablePlant::new(states, inputs, costs).guided(horizon, &picks, skew);
        let x0 = x0 % states;
        let controller = LookaheadController::new(horizon).unwrap();
        let decision = controller.decide(&plant, &x0, None, &vec![(); horizon]).unwrap();
        // The search predicts each state it explores once, after walking
        // as much of the guide as is admissible.
        prop_assert_eq!(
            plant.steps.get(),
            decision.stats.states_explored + plant.guide_steps(x0, horizon)
        );
        let optimum = brute_force(&plant, x0, horizon);
        prop_assert!(
            (decision.cost - optimum).abs() < 1e-9,
            "pruned search returned {} but the optimum is {}",
            decision.cost,
            optimum
        );
        // The reported sequence must actually achieve the reported cost.
        let mut x = x0;
        let mut replay = 0.0;
        for u in &decision.sequence {
            let xn = plant.step(&x, u, &());
            replay += plant.cost(&xn, u, None);
            x = xn;
        }
        prop_assert!((replay - decision.cost).abs() < 1e-9);
    }

    /// One scratch carried through decisions of different horizons and
    /// input-set sizes, with guides of every kind and failed searches in
    /// between (a forecast too short; a barren state, which abandons the
    /// search mid-tree with a prefix on the stack, or cuts a guide short),
    /// decides what a fresh scratch decides.
    #[test]
    fn reused_scratch_decides_like_a_fresh_one(
        jobs in proptest::collection::vec(
            (
                (2usize..8, 1usize..5, 1usize..4),
                (0usize..8, 0usize..16, 0usize..4),
                (proptest::collection::vec(0.0..100.0f64, 8 * 5), any_guide()),
            ),
            2..12,
        ),
    ) {
        let mut scratch = SearchScratch::default();
        for ((states, inputs, horizon), (x0, barren, shortfall), (costs, (picks, skew))) in jobs {
            let plant = TablePlant {
                // Half the jobs have no barren state at all.
                barren: (barren < states).then_some(barren),
                ..TablePlant::new(states, inputs, costs).guided(horizon, &picks, skew)
            };
            let x0 = x0 % states;
            let controller = LookaheadController::new(horizon).unwrap();
            // One job in four forecasts a step short of the horizon.
            let covered = if shortfall == 0 { horizon - 1 } else { horizon };
            let forecast = vec![(); covered];
            let fresh = controller.decide(&plant, &x0, None, &forecast);
            let reused = controller.decide_with(&plant, &x0, None, &forecast, &mut scratch);
            match (fresh, reused) {
                (Ok(fresh), Ok((cost, stats))) => {
                    prop_assert_eq!(scratch.sequence(), &fresh.sequence[..]);
                    prop_assert_eq!(scratch.sequence()[0], fresh.input);
                    prop_assert_eq!(cost.to_bits(), fresh.cost.to_bits());
                    prop_assert_eq!(stats, fresh.stats);
                }
                (Err(fresh), Err(reused)) => {
                    prop_assert_eq!(fresh, reused);
                }
                (fresh, reused) => prop_assert!(false, "{fresh:?} vs {reused:?}"),
            }
        }
    }
}
