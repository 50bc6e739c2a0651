/// A controlled switching hybrid system, in the sense of the paper's
/// discrete-time state-space equation `x(k+1) = f(x(k), u(k), ω(k))`.
///
/// The plant exposes three things to the controller:
///
/// * the **admissible input set** `U(x)` — finite, possibly state-dependent;
/// * the **dynamic map** `f` predicting the next state given an input and an
///   (estimated) environment sample;
/// * the **cost** `J(x, u)` of landing in a state having applied an input,
///   optionally penalizing the change `Δu` relative to the previous input.
///
/// Implementations should be cheap to call: the lookahead search evaluates
/// `step` and `cost` `O(|U|^N)` times per decision.
pub trait Plant {
    /// System state `x(k)`.
    type State: Clone;
    /// Control input `u(k)`, drawn from a finite set.
    type Input: Clone + PartialEq;
    /// Environment parameters `ω(k)` (e.g. arrival rate, service time).
    type Env: Clone;

    /// The admissible input set `U(x)` in state `x`.
    ///
    /// Returning an empty vector causes the controller to fail with
    /// [`Error::EmptyInputSet`](crate::Error::EmptyInputSet).
    fn admissible(&self, x: &Self::State) -> Vec<Self::Input>;

    /// Write the admissible input set into `out` (cleared by the caller).
    ///
    /// The lookahead search calls this once per expanded node; the default
    /// delegates to [`Plant::admissible`], but plants with a
    /// state-independent input set should override it to skip the
    /// per-node allocation. Must enumerate the same inputs in the same
    /// order as `admissible` (tie-breaking depends on it).
    fn admissible_into(&self, x: &Self::State, out: &mut Vec<Self::Input>) {
        out.extend(self.admissible(x));
    }

    /// One-step prediction `x̂(k+1) = f(x(k), u(k), ω̂(k))`.
    fn step(&self, x: &Self::State, u: &Self::Input, w: &Self::Env) -> Self::State;

    /// Cost `J` of the *successor* state `x_next` reached by applying `u`.
    ///
    /// `prev` is the input applied at the previous step, enabling
    /// `‖Δu‖`-style switching penalties; it is `None` on the first step of
    /// the first decision.
    fn cost(&self, x_next: &Self::State, u: &Self::Input, prev: Option<&Self::Input>) -> f64;

    /// Floors under the cost of each step of the tree rooted at `x0`, and
    /// a path to try first.
    ///
    /// The lookahead search zero-fills `floors` (one per step of its
    /// horizon, `forecast[d]` being step `d`'s environment) and clears
    /// `guide` once per decision, and calls this before it expands
    /// anything; a one-step search has no steps below a node and does not
    /// ask. A plant may raise `floors[d]` to any value at most the cost of
    /// *every* node the search could reach at step `d` (depth `d + 1`): on
    /// any input path from `x0`, with any `prev`. The search then cuts a
    /// subtree once the cost along its path plus the floors of the steps
    /// still below it reaches the incumbent (see
    /// [`LookaheadController`](crate::LookaheadController)). A floor above
    /// some node's cost can cut the optimum away; the default leaves every
    /// floor at zero, which prunes exactly as a path-cost bound does.
    ///
    /// A plant may also push into `guide` one input per step: a path it
    /// expects to be cheap. If that path is admissible from `x0` and its
    /// total is finite, the search starts its incumbent just above that
    /// total instead of unset, so the floors cut from the first row on.
    /// Under valid floors and costs that are never `NaN`, any guide leaves
    /// the decision as it was, and a cheap one saves the most. The default
    /// leaves `guide` empty.
    fn cost_floors(
        &self,
        _x0: &Self::State,
        _forecast: &[Self::Env],
        _floors: &mut [f64],
        _guide: &mut Vec<Self::Input>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, LookaheadController};

    /// `x' = x + u + w`, cost `|x'|`.
    struct Drift;
    impl Plant for Drift {
        type State = f64;
        type Input = i8;
        type Env = f64;
        fn admissible(&self, _x: &f64) -> Vec<i8> {
            vec![-1, 0, 1]
        }
        fn step(&self, x: &f64, u: &i8, w: &f64) -> f64 {
            x + f64::from(*u) + w
        }
        fn cost(&self, x: &f64, _u: &i8, _prev: Option<&i8>) -> f64 {
            x.abs()
        }
    }

    #[test]
    fn forecast_validate_checks_length() {
        let c = LookaheadController::new(3).unwrap();
        assert!(c.decide(&Drift, &0.0, None, &[1.0, 2.0, 3.0]).is_ok());
        assert!(c.decide(&Drift, &0.0, None, &[1.0, 2.0, 3.0, 4.0]).is_ok());
        assert_eq!(
            c.decide(&Drift, &0.0, None, &[1.0, 2.0]).unwrap_err(),
            Error::ForecastTooShort {
                required: 3,
                available: 2
            }
        );
    }
}
