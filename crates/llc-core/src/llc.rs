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
    pub(crate) pruned: usize,
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
/// A search keeps one *row* per depth of the path it stands on — the
/// children of that depth's node: each admissible input with the state it
/// predicts and the cost accumulated along the path to it — stacked depth
/// by depth in three contiguous buffers, the plant's cost floor per step,
/// and the incumbent sequence, which also holds the plant's guide until
/// the walk takes its first leaf. A controller that decides every sampling
/// period keeps one of these and hands it to
/// [`LookaheadController::decide_with`], so that steady-state decisions
/// stay off the heap. Nothing carries over from one search to the next
/// but capacity: a scratch may be shared between controllers of different
/// horizons and plants of different input-set sizes, and after a search
/// that failed.
#[derive(Debug, Clone)]
pub struct SearchScratch<I, S> {
    rows: Rows<I, S>,
    floors: Vec<f64>,
    sequence: Vec<I>,
}

impl<I, S> Default for SearchScratch<I, S> {
    fn default() -> Self {
        SearchScratch {
            rows: Rows {
                inputs: Vec::new(),
                states: Vec::new(),
                accs: Vec::new(),
                frames: Vec::new(),
                admitted: Vec::new(),
            },
            floors: Vec::new(),
            sequence: Vec::new(),
        }
    }
}

impl<I, S> SearchScratch<I, S> {
    /// The minimizing input sequence of the last successful search, first
    /// step first (unspecified after a failed one).
    pub fn sequence(&self) -> &[I] {
        &self.sequence
    }
}

/// The rows of the interior nodes the walk stands on, root first: the row
/// at depth `d` is `frames[d].start..` up to the next row's start (the top
/// row runs to the end), in the plant's input order. The search expands
/// O(|U|^N) nodes and a heap allocation per node would dominate cheap
/// plants; these buffers only ever hold one path's rows.
#[derive(Debug, Clone)]
struct Rows<I, S> {
    inputs: Vec<I>,
    /// The state each input predicts.
    states: Vec<S>,
    /// The cost accumulated from the root through each child.
    accs: Vec<f64>,
    frames: Vec<Frame>,
    /// The admissible set of the node being expanded. The leaf row lives
    /// here: its children are offered to the incumbent as they are
    /// evaluated, and never expanded.
    admitted: Vec<I>,
}

/// Where one row starts in [`Rows`], and the next child the walk visits
/// in it (the one before is the child the walk stands on below).
#[derive(Debug, Clone, Copy)]
struct Frame {
    start: usize,
    next: usize,
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
/// non-negative, a partial path whose cost, plus what the steps below it
/// must still cost at least, already reaches the incumbent best is
/// pruned. (The paper's three-sample `λ̂ ± δ` chattering mitigation belongs
/// to the module controller, which averages its own samples.)
///
/// What the steps below must cost at least is the plant's word: before it
/// expands anything a search asks [`Plant::cost_floors`] for a floor
/// `f[d]` under the cost of every node at step `d`, zeros unless the plant
/// knows better. A child at step `d` with accumulated cost `acc` is cut
/// when its bound `b = acc + f[d+1] + … + f[N−1]`, added one term at a
/// time in that order, is at least the incumbent's cost. That is the
/// order in which the walk adds up a leaf's total, and rounded addition
/// is monotone, so every leaf below the child totals at least `b` and the
/// strict-`<` accept below would take none of them: the decision, its
/// cost bits and its sequence are the ones the floorless search finds.
///
/// Floors cut nothing until there is an incumbent, so the plant may name
/// a path to seed one: the guide [`Plant::cost_floors`] writes, one input
/// per step. If every guide input is in the admissible set of the state
/// the guide reaches before it, the search steps and costs the guide from
/// `x0` (with `prev_input` at the first step, then the guide's own
/// previous input) and adds its total `B` from `0.0`, as the walk adds a
/// leaf's. If `B` is finite the walk starts with incumbent `next_up(B)`
/// and no leaf taken; otherwise, as with no guide, the incumbent starts
/// unset. The tree, its order and the accept are untouched, so the answer
/// is the unseeded one. Let `m` be the least leaf total and `L*` the
/// first leaf in walk order to reach it. The incumbent is always
/// `next_up(B) > B ≥ m` or the total of a leaf taken, so it is at least
/// `m`, and it equals `m` only once a leaf totalling `m` was taken, which
/// `L*` is the first to be. A child cut with `L*` below it would need
/// `m ≥ bound ≥ incumbent ≥ m`, so none is: `L*` is offered, taken, and
/// no later tie displaces it. At every point of the walk the seeded
/// incumbent is at most the unseeded one, so the seed only ever saves
/// states. The one exception is a search whose first leaf costs `NaN`:
/// unseeded, it keeps that `NaN`. Computing the floors and walking the
/// guide are not expanding nodes and count in neither statistic.
///
/// The walk is depth-first and iterative. Expanding a node evaluates all
/// of its children into that depth's row of the [`SearchScratch`] first —
/// every admissible input stepped and costed, and counted in
/// [`SearchStats::states_explored`] as it is evaluated — and then visits
/// the row in input order: a child whose bound is at least the
/// incumbent's cost is counted in `SearchStats::pruned` and skipped, any
/// other is expanded in turn. The last depth's row holds leaves: it is
/// scanned as it is evaluated, without a branch per leaf — one costing at
/// least the incumbent is counted as pruned, one costing strictly less
/// takes the incumbent's place, and while the incumbent is unset the
/// first leaf is taken whatever it costs. So every input of every
/// expanded node is evaluated exactly once, and a `NaN` total or bound is
/// neither pruned nor accepted. A search that takes no leaf fails with
/// [`Error::EmptyInputSet`].
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
    ///   in `x0`, or in a state the search expands.
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
        scratch: &mut SearchScratch<P::Input, P::State>,
    ) -> Result<(f64, SearchStats), Error> {
        if forecast.len() < self.horizon {
            return Err(Error::ForecastTooShort {
                required: self.horizon,
                available: forecast.len(),
            });
        }

        let SearchScratch {
            rows,
            floors,
            sequence,
        } = scratch;
        sequence.clear();
        sequence.reserve(self.horizon);
        rows.clear();
        let leaf = self.horizon - 1;
        let mut tally = Tally::default();

        if leaf == 0 {
            let taken = offer_leaves(plant, rows, x0, prev_input, &forecast[0], 0.0, &mut tally)?;
            sequence.extend(taken.map(|w| rows.admitted[w].clone()));
            return tally.result();
        }
        floors.clear();
        floors.resize(self.horizon, 0.0);
        let forecast = &forecast[..self.horizon];
        plant.cost_floors(x0, forecast, floors, sequence);
        let admitted = &mut rows.admitted;
        let total = guide_total(plant, x0, prev_input, forecast, sequence, admitted);
        if let Some(total) = total.filter(|total| total.is_finite()) {
            tally.cost = total.next_up();
            tally.set = true;
        }
        rows.admit(plant, x0, &mut tally.stats)?;
        rows.reserve(leaf);
        rows.push(plant, x0, prev_input, &forecast[0], 0.0);
        loop {
            let depth = rows.frames.len() - 1;
            let Frame { start, next } = rows.frames[depth];
            // Skip the children the incumbent prunes.
            let below = &floors[depth + 1..];
            let i = next
                + rows.accs[next..]
                    .iter()
                    .take_while(|&&acc| bound(acc, below) >= tally.cost)
                    .count();
            tally.stats.pruned += i - next;
            if i == rows.accs.len() {
                // This row is done: back to its parent's.
                rows.pop(start);
                if depth == 0 {
                    return tally.result();
                }
                continue;
            }
            rows.frames[depth].next = i + 1;
            let (x, prev, acc) = (rows.states[i].clone(), rows.inputs[i].clone(), rows.accs[i]);
            let env = &forecast[depth + 1];
            if depth + 1 < leaf {
                rows.admit(plant, &x, &mut tally.stats)?;
                rows.push(plant, &x, Some(&prev), env, acc);
            } else if let Some(w) =
                offer_leaves(plant, rows, &x, Some(&prev), env, acc, &mut tally)?
            {
                sequence.clear();
                sequence.extend(
                    rows.frames
                        .iter()
                        .map(|frame| rows.inputs[frame.next - 1].clone()),
                );
                sequence.push(rows.admitted[w].clone());
            }
        }
    }
}

/// The least any leaf below a node at accumulated cost `acc` can total,
/// given the cost floors of the steps below it: `acc` plus each floor, in
/// step order, as the leaf's own total is summed.
fn bound(acc: f64, floors: &[f64]) -> f64 {
    floors.iter().fold(acc, |b, f| b + f)
}

/// The total of the plant's `guide`, added from `0.0` as the walk adds a
/// leaf's, if it is a full path from `x0`: one input per step of
/// `forecast`, each in the admissible set of the state before it.
fn guide_total<P: Plant>(
    plant: &P,
    x0: &P::State,
    prev_input: Option<&P::Input>,
    forecast: &[P::Env],
    guide: &[P::Input],
    admitted: &mut Vec<P::Input>,
) -> Option<f64> {
    if guide.len() != forecast.len() {
        return None;
    }
    let (mut x, mut prev, mut total) = (x0.clone(), prev_input, 0.0);
    for (u, env) in guide.iter().zip(forecast) {
        admitted.clear();
        plant.admissible_into(&x, admitted);
        if !admitted.contains(u) {
            return None;
        }
        x = plant.step(&x, u, env);
        total += plant.cost(&x, u, prev);
        prev = Some(u);
    }
    Some(total)
}

/// What the walk has found so far: the cost of the cheapest complete
/// trajectory, and the search statistics.
struct Tally {
    /// The incumbent's cost; `NaN` while unset, so that nothing is pruned.
    cost: f64,
    /// Whether the incumbent is set: seeded by the guide, or a leaf taken.
    set: bool,
    /// Whether a leaf was taken.
    found: bool,
    stats: SearchStats,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            cost: f64::NAN,
            set: false,
            found: false,
            stats: SearchStats::default(),
        }
    }
}

impl Tally {
    fn result(&self) -> Result<(f64, SearchStats), Error> {
        if self.found {
            Ok((self.cost, self.stats))
        } else {
            Err(Error::EmptyInputSet)
        }
    }
}

impl<I: Clone, S> Rows<I, S> {
    fn clear(&mut self) {
        self.inputs.clear();
        self.states.clear();
        self.accs.clear();
        self.frames.clear();
    }

    /// The admissible inputs of the node `x` into `admitted`, counted as
    /// explored.
    fn admit<P: Plant<Input = I, State = S>>(
        &mut self,
        plant: &P,
        x: &S,
        stats: &mut SearchStats,
    ) -> Result<(), Error> {
        self.admitted.clear();
        plant.admissible_into(x, &mut self.admitted);
        if self.admitted.is_empty() {
            return Err(Error::EmptyInputSet);
        }
        stats.states_explored += self.admitted.len();
        Ok(())
    }

    /// Room for `rows` rows the size of the admitted set, so that a fresh
    /// scratch allocates each buffer once.
    fn reserve(&mut self, rows: usize) {
        let children = rows * self.admitted.len();
        self.inputs.reserve(children);
        self.states.reserve(children);
        self.accs.reserve(children);
        self.frames.reserve(rows);
    }

    /// Expand the interior node `x` (reached through `prev` at accumulated
    /// cost `acc`), whose inputs were just admitted: evaluate every child
    /// into a new top row — its state, then its accumulated cost.
    fn push<P: Plant<Input = I, State = S>>(
        &mut self,
        plant: &P,
        x: &S,
        prev: Option<&I>,
        env: &P::Env,
        acc: f64,
    ) {
        let start = self.inputs.len();
        self.frames.push(Frame { start, next: start });
        self.states
            .extend(self.admitted.iter().map(|u| plant.step(x, u, env)));
        self.accs.extend(
            self.states[start..]
                .iter()
                .zip(&self.admitted)
                .map(|(x_next, u)| acc + plant.cost(x_next, u, prev)),
        );
        self.inputs.append(&mut self.admitted);
    }

    /// Drop the top row, which starts at `start`.
    fn pop(&mut self, start: usize) {
        self.frames.pop();
        self.inputs.truncate(start);
        self.states.truncate(start);
        self.accs.truncate(start);
    }
}

/// Evaluate the children of the last interior node `x` — leaves — into
/// `rows.admitted` and offer each to the incumbent in input order, without
/// a branch per child: a leaf costing at least the incumbent is pruned,
/// one costing strictly less replaces it, and while the incumbent is unset
/// the first leaf is taken whatever it costs. Returns the index in
/// `rows.admitted` of the last leaf taken, if any.
fn offer_leaves<P: Plant>(
    plant: &P,
    rows: &mut Rows<P::Input, P::State>,
    x: &P::State,
    prev: Option<&P::Input>,
    env: &P::Env,
    acc: f64,
    tally: &mut Tally,
) -> Result<Option<usize>, Error> {
    const NONE: usize = usize::MAX;
    rows.admit(plant, x, &mut tally.stats)?;
    let leaf_cost = |u| acc + plant.cost(&plant.step(x, u, env), u, prev);
    let leaves = &rows.admitted;
    let (mut incumbent, mut winner, first) = if tally.set {
        (tally.cost, NONE, 0)
    } else {
        (leaf_cost(&leaves[0]), 0, 1)
    };
    let mut pruned = 0;
    for (i, u) in leaves.iter().enumerate().skip(first) {
        let total = leaf_cost(u);
        pruned += usize::from(total >= incumbent);
        let better = total < incumbent;
        incumbent = if better { total } else { incumbent };
        winner = if better { i } else { winner };
    }
    tally.stats.pruned += pruned;
    tally.cost = incumbent;
    tally.set = true;
    let taken = winner != NONE;
    tally.found |= taken;
    Ok(taken.then_some(winner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};

    /// The recursive expansion the row walk replaced, kept as its oracle:
    /// each child is stepped, costed and its bound tested against the
    /// incumbent before its next sibling is evaluated.
    struct Search<'a, P: Plant> {
        plant: &'a P,
        forecast: &'a [P::Env],
        horizon: usize,
        /// The plant's cost floor per step.
        floors: Vec<f64>,
        prefix: Vec<P::Input>,
        /// The incumbent sequence, meaningful once a leaf is taken.
        best: Vec<P::Input>,
        best_cost: Option<f64>,
        found: bool,
        stats: SearchStats,
    }

    impl<P: Plant> Search<'_, P> {
        fn expand(
            &mut self,
            x: &P::State,
            prev: Option<&P::Input>,
            depth: usize,
            acc: f64,
        ) -> Result<(), Error> {
            if depth == self.horizon {
                if self.best_cost.is_none_or(|c| acc < c) {
                    self.best_cost = Some(acc);
                    self.best.clone_from(&self.prefix);
                    self.found = true;
                }
                return Ok(());
            }
            let mut inputs = Vec::new();
            self.plant.admissible_into(x, &mut inputs);
            if inputs.is_empty() {
                return Err(Error::EmptyInputSet);
            }
            let env = &self.forecast[depth];
            for u in &inputs {
                let x_next = self.plant.step(x, u, env);
                self.stats.states_explored += 1;
                let acc_next = acc + self.plant.cost(&x_next, u, prev);
                if self
                    .best_cost
                    .is_some_and(|c| bound(acc_next, &self.floors[depth + 1..]) >= c)
                {
                    self.stats.pruned += 1;
                    continue;
                }
                self.prefix.push(u.clone());
                self.expand(&x_next, Some(u), depth + 1, acc_next)?;
                self.prefix.pop();
            }
            Ok(())
        }
    }

    /// The oracle's decision: cost, statistics, sequence, and the `step`
    /// calls its guide walk made.
    type Verdict<I> = (f64, SearchStats, Vec<I>, usize);

    fn decide_recursive<P: Plant>(
        horizon: usize,
        plant: &P,
        x0: &P::State,
        prev_input: Option<&P::Input>,
        forecast: &[P::Env],
    ) -> Result<Verdict<P::Input>, Error> {
        let mut floors = vec![0.0; horizon];
        let mut guide = Vec::new();
        // A one-step search asks for neither.
        if horizon > 1 {
            plant.cost_floors(x0, &forecast[..horizon], &mut floors, &mut guide);
        }
        // The seed: one ulp above the guide's total, if the guide is a
        // full admissible path whose total is finite.
        let mut seed = None;
        let mut guide_steps = 0;
        if guide.len() == horizon {
            let (mut x, mut prev, mut total) = (x0.clone(), prev_input, 0.0);
            let mut admissible = true;
            for (u, env) in guide.iter().zip(forecast) {
                if !plant.admissible(&x).contains(u) {
                    admissible = false;
                    break;
                }
                x = plant.step(&x, u, env);
                guide_steps += 1;
                total += plant.cost(&x, u, prev);
                prev = Some(u);
            }
            if admissible && total.is_finite() {
                seed = Some(total.next_up());
            }
        }
        let mut search = Search {
            plant,
            forecast,
            horizon,
            floors,
            prefix: Vec::new(),
            best: Vec::new(),
            best_cost: seed,
            found: false,
            stats: SearchStats::default(),
        };
        search.expand(x0, prev_input, 0, 0.0)?;
        match search.best_cost {
            Some(cost) if search.found => Ok((cost, search.stats, search.best, guide_steps)),
            _ => Err(Error::EmptyInputSet),
        }
    }

    /// A random finite plant built to hit every corner of the accept and
    /// prune rules: state-dependent input sets (empty in some states),
    /// small-integer costs that tie exactly, zero, `NaN` and `+∞` costs,
    /// a penalty for switching away from the previous input, and whatever
    /// cost floors and guide it is handed, valid or not. It logs the
    /// states it is asked to expand and counts its `step` calls.
    struct Rugged {
        /// Admissible inputs per state (0: the state is barren).
        fan_out: Vec<usize>,
        costs: Vec<f64>,
        switch_penalty: f64,
        /// The floors of the first steps; the rest stay zero.
        floors: Vec<f64>,
        /// What the guide takes at each step: below 8, that entry (mod
        /// the set's size) of the admissible set of the state the guide
        /// stands on; from 8 up, or in a barren state, the raw input
        /// `pick % 7`, admissible or not.
        picks: Vec<usize>,
        /// The guide's length less the horizon, clamped to `0..=picks.len()`.
        skew: isize,
        steps: Cell<usize>,
        expanded: RefCell<Vec<usize>>,
    }

    impl Rugged {
        fn new(fan_out: Vec<usize>, costs: Vec<f64>, switch: u8, floors: Vec<f64>) -> Self {
            Rugged {
                fan_out,
                costs,
                switch_penalty: f64::from(switch),
                floors,
                picks: Vec::new(),
                skew: 0,
                steps: Cell::new(0),
                expanded: RefCell::new(Vec::new()),
            }
        }

        /// This plant handing out the guide `picks` and `skew` describe.
        fn guided(self, picks: Vec<usize>, skew: isize) -> Self {
            Rugged {
                picks,
                skew,
                ..self
            }
        }

        /// [`Plant::admissible`], unlogged.
        fn inputs(&self, x: usize) -> impl Iterator<Item = usize> {
            // The order depends on the state too.
            (0..self.fan_out[x]).map(move |j| (j * 3 + x) % 7)
        }

        /// [`Plant::step`], uncounted.
        fn next(&self, x: usize, u: usize, w: usize) -> usize {
            (x * 31 + u * 7 + w + 1) % self.fan_out.len()
        }
    }

    impl Plant for Rugged {
        type State = usize;
        type Input = usize;
        type Env = usize;
        fn admissible(&self, x: &usize) -> Vec<usize> {
            self.expanded.borrow_mut().push(*x);
            self.inputs(*x).collect()
        }
        fn step(&self, x: &usize, u: &usize, w: &usize) -> usize {
            self.steps.set(self.steps.get() + 1);
            self.next(*x, *u, *w)
        }
        fn cost(&self, x_next: &usize, u: &usize, prev: Option<&usize>) -> f64 {
            let switch = match prev {
                Some(p) if p != u => self.switch_penalty,
                _ => 0.0,
            };
            self.costs[(x_next * 7 + u) % self.costs.len()] + switch
        }
        fn cost_floors(
            &self,
            x0: &usize,
            forecast: &[usize],
            floors: &mut [f64],
            guide: &mut Vec<usize>,
        ) {
            for (floor, &mine) in floors.iter_mut().zip(&self.floors) {
                *floor = mine;
            }
            let len = (forecast.len() as isize)
                .saturating_add(self.skew)
                .clamp(0, self.picks.len() as isize) as usize;
            let mut x = *x0;
            for (d, &pick) in self.picks[..len].iter().enumerate() {
                let inputs: Vec<usize> = self.inputs(x).collect();
                let u = if pick < 8 && !inputs.is_empty() {
                    inputs[pick % inputs.len()]
                } else {
                    pick % 7
                };
                guide.push(u);
                if let Some(&w) = forecast.get(d) {
                    x = self.next(x, u, w);
                }
            }
        }
    }

    /// A guide for [`Rugged::guided`]: mostly admissible and a full path,
    /// sometimes inadmissible, short, long or absent.
    fn any_guide() -> impl Strategy<Value = (Vec<usize>, isize)> {
        (
            proptest::collection::vec(prop_oneof![0usize..8, 0usize..8, 0usize..16], 7),
            prop_oneof![Just(0isize), Just(0), Just(0), Just(-1), Just(1), Just(-9)],
        )
    }

    fn rugged_cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            (0u8..4).prop_map(f64::from),
            (0u8..4).prop_map(f64::from),
            (0u8..4).prop_map(f64::from),
            0.0..10.0f64,
            0.0..10.0f64,
        ]
    }

    /// Any floor at all: valid, too high, negative, infinite or `NaN`.
    fn any_floor() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (0u8..4).prop_map(f64::from),
            (0u8..4).prop_map(f64::from),
            0.0..10.0f64,
            -3.0..3.0f64,
        ]
    }

    /// Costs that mostly sit well above zero, so that the cheapest of a
    /// table is a floor worth having; `NaN` and `+∞` still turn up.
    fn floored_cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            (1u8..5).prop_map(f64::from),
            (1u8..5).prop_map(f64::from),
            (1u8..5).prop_map(f64::from),
            0.5..10.0f64,
            0.5..10.0f64,
        ]
    }

    /// Costs that are never `NaN`: small integers that tie exactly, zero,
    /// reals and `+∞`.
    fn ordered_cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::INFINITY),
            (0u8..5).prop_map(f64::from),
            (1u8..5).prop_map(f64::from),
            (1u8..5).prop_map(f64::from),
            0.5..10.0f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row walk, in one scratch reused across jobs, decides what
        /// the recursion decides under the same cost floors and guide,
        /// whatever they are: the same error from the same node, or the
        /// same cost bits, sequence, statistics and `step` calls — one per
        /// state explored, and one per guide step walked.
        #[test]
        fn row_walk_matches_the_recursive_oracle(
            jobs in proptest::collection::vec(
                (
                    (1usize..6, 0usize..12, proptest::collection::vec(
                        prop_oneof![1usize..6, 1usize..6, 1usize..6, 1usize..6, Just(0usize)],
                        2..9,
                    )),
                    (proptest::collection::vec(rugged_cost(), 1..24), 0u8..3, 0usize..8),
                    (
                        proptest::collection::vec(0usize..5, 5),
                        proptest::collection::vec(any_floor(), 0..6),
                        any_guide(),
                    ),
                ),
                1..6,
            ),
        ) {
            let mut scratch = SearchScratch::default();
            for ((horizon, x0, mut fan_out), (costs, switch, prev), (forecast, floors, (picks, skew))) in jobs {
                // The root always has a choice; a barren state fails the
                // search only if the walk reaches it.
                let x0 = x0 % fan_out.len();
                fan_out[x0] = fan_out[x0].max(1);
                let plant = Rugged::new(fan_out, costs, switch, floors).guided(picks, skew);
                let prev = (prev < 7).then_some(prev);
                let oracle = decide_recursive(horizon, &plant, &x0, prev.as_ref(), &forecast);
                let oracle_steps = plant.steps.replace(0);
                let oracle_expanded = plant.expanded.take();

                let controller = LookaheadController::new(horizon).unwrap();
                let walk = controller.decide_with(&plant, &x0, prev.as_ref(), &forecast, &mut scratch);
                prop_assert_eq!(plant.expanded.take(), oracle_expanded);
                match (oracle, walk) {
                    (Ok((cost, stats, sequence, guide_steps)), Ok((walk_cost, walk_stats))) => {
                        prop_assert_eq!(walk_cost.to_bits(), cost.to_bits());
                        prop_assert_eq!(scratch.sequence(), &sequence[..]);
                        prop_assert_eq!(walk_stats, stats);
                        prop_assert_eq!(plant.steps.get(), oracle_steps);
                        prop_assert_eq!(stats.states_explored + guide_steps, oracle_steps);
                    }
                    (Err(oracle), Err(walk)) => prop_assert_eq!(walk, oracle),
                    (oracle, walk) => prop_assert!(false, "{oracle:?} vs {walk:?}"),
                }
            }
        }

        /// Floors no higher than the cheapest cost the plant can charge
        /// change no decision: on plants without barren states (a floor
        /// may cut the node that would have failed the search), the walk
        /// returns the floorless recursion's cost bits and sequence, and
        /// explores no more than it.
        #[test]
        fn floors_under_every_cost_keep_the_decision(
            jobs in proptest::collection::vec(
                (
                    (1usize..6, 0usize..12, proptest::collection::vec(1usize..6, 2..9)),
                    (proptest::collection::vec(floored_cost(), 1..24), 0u8..3, 0usize..8),
                    (
                        proptest::collection::vec(0usize..5, 5),
                        proptest::collection::vec(prop_oneof![Just(1.0), Just(0.0), 0.0..1.0f64], 5),
                    ),
                ),
                1..6,
            ),
        ) {
            let mut scratch = SearchScratch::default();
            for ((horizon, x0, fan_out), (costs, switch, prev), (forecast, shares)) in jobs {
                let x0 = x0 % fan_out.len();
                let prev = (prev < 7).then_some(prev);
                // Every cost is a table entry plus a non-negative penalty.
                let cheapest = costs
                    .iter()
                    .filter(|c| !c.is_nan())
                    .fold(f64::INFINITY, |m, &c| m.min(c));
                // A share of it, at most all of it (0·∞ is no floor).
                let floors = shares.iter().map(|s| (s * cheapest).max(0.0)).collect();
                let floorless = Rugged::new(fan_out.clone(), costs.clone(), switch, Vec::new());
                let (cost, stats, sequence, _) =
                    decide_recursive(horizon, &floorless, &x0, prev.as_ref(), &forecast).unwrap();

                let plant = Rugged::new(fan_out, costs, switch, floors);
                let controller = LookaheadController::new(horizon).unwrap();
                let (walk_cost, walk_stats) = controller
                    .decide_with(&plant, &x0, prev.as_ref(), &forecast, &mut scratch)
                    .unwrap();
                prop_assert_eq!(walk_cost.to_bits(), cost.to_bits());
                prop_assert_eq!(scratch.sequence(), &sequence[..]);
                prop_assert!(walk_stats.states_explored <= stats.states_explored);
            }
        }

        /// A guide changes no decision: on plants without barren states or
        /// `NaN` costs, under floors no higher than the cheapest cost, the
        /// walk seeded from any admissible guide returns the unguided
        /// recursion's cost bits and sequence, and explores no more than
        /// it. Costs are small integers often enough that the guide's
        /// total ties the optimum exactly.
        #[test]
        fn any_admissible_guide_keeps_the_decision(
            jobs in proptest::collection::vec(
                (
                    (2usize..6, 0usize..12, proptest::collection::vec(1usize..6, 2..9)),
                    (proptest::collection::vec(ordered_cost(), 1..24), 0u8..3, 0usize..8),
                    (
                        proptest::collection::vec(0usize..5, 5),
                        proptest::collection::vec(prop_oneof![Just(1.0), Just(0.0), 0.0..1.0f64], 5),
                        proptest::collection::vec(0usize..8, 5),
                    ),
                ),
                1..6,
            ),
        ) {
            let mut scratch = SearchScratch::default();
            for ((horizon, x0, fan_out), (costs, switch, prev), (forecast, shares, picks)) in jobs {
                let x0 = x0 % fan_out.len();
                let prev = (prev < 7).then_some(prev);
                let cheapest = costs.iter().fold(f64::INFINITY, |m, &c| m.min(c));
                let floors: Vec<f64> = shares.iter().map(|s| (s * cheapest).max(0.0)).collect();
                let unguided = Rugged::new(fan_out.clone(), costs.clone(), switch, floors.clone());
                let (cost, stats, sequence, _) =
                    decide_recursive(horizon, &unguided, &x0, prev.as_ref(), &forecast).unwrap();

                let plant = Rugged::new(fan_out, costs, switch, floors).guided(picks, 0);
                let controller = LookaheadController::new(horizon).unwrap();
                let walk = controller.decide_with(&plant, &x0, prev.as_ref(), &forecast, &mut scratch);
                let Ok((walk_cost, walk_stats)) = walk else {
                    return Err(TestCaseError::fail(format!("{walk:?}, but the optimum is {cost}")));
                };
                prop_assert_eq!(walk_cost.to_bits(), cost.to_bits());
                prop_assert_eq!(scratch.sequence(), &sequence[..]);
                prop_assert!(walk_stats.states_explored <= stats.states_explored);
            }
        }
    }

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
