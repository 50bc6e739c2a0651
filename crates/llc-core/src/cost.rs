/// A weighted norm term of a cost function, e.g. `‖ε‖_Q` or `‖Δu‖_W`:
/// the paper's weights (Q = 100, R = 1, W = 8) scale same-order
/// quantities, so the norm is the absolute value, `w·|v|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Penalty {
    weight: f64,
}

impl Penalty {
    /// A linear penalty `w·|v|`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite: cost terms must be
    /// non-negative for branch-and-bound pruning to be admissible.
    pub fn abs(weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "penalty weight must be finite and non-negative, got {weight}"
        );
        Penalty { weight }
    }

    /// Evaluate the penalty for deviation `v`.
    pub fn eval(&self, v: f64) -> f64 {
        self.weight * v.abs()
    }
}

/// A set-point specification with a one-sided soft constraint.
///
/// The paper drives the system to a neighborhood of `x*` and penalizes
/// only *violations*: the slack variable
///
/// ```text
/// ε(k) = 0            if r(k) ≤ r*
///        r(k) − r*    otherwise
/// ```
///
/// is non-zero only when the response-time constraint is violated, and its
/// non-zero values are heavily penalized in the cost function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetPoint {
    target: f64,
}

impl SetPoint {
    /// A set-point at `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not finite.
    pub fn new(target: f64) -> Self {
        assert!(target.is_finite(), "set-point must be finite, got {target}");
        SetPoint { target }
    }

    /// One-sided slack `ε = max(0, value − target)`: positive only when the
    /// observed value *exceeds* the target (e.g. response time too high).
    pub fn slack_above(&self, value: f64) -> f64 {
        (value - self.target).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn abs_penalty() {
        let p = Penalty::abs(100.0);
        assert_eq!(p.eval(0.0), 0.0);
        assert_eq!(p.eval(1.5), 150.0);
        assert_eq!(p.eval(-1.5), 150.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = Penalty::abs(-1.0);
    }

    #[test]
    fn setpoint_slacks() {
        let sp = SetPoint::new(4.0);
        assert_eq!(sp.slack_above(3.0), 0.0);
        assert_eq!(sp.slack_above(4.0), 0.0);
        assert_eq!(sp.slack_above(5.5), 1.5);
    }

    proptest! {
        #[test]
        fn penalty_is_nonnegative(w in 0.0..1e6f64, v in -1e6..1e6f64) {
            prop_assert!(Penalty::abs(w).eval(v) >= 0.0);
        }

        #[test]
        fn penalty_is_even(w in 0.0..1e3f64, v in -1e3..1e3f64) {
            prop_assert_eq!(Penalty::abs(w).eval(v), Penalty::abs(w).eval(-v));
        }
    }
}
