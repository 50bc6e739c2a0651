use crate::Forecaster;

/// Exponentially-weighted moving-average filter.
///
/// The paper estimates per-request processing time with
/// `ĉ(k+1) = π·c(k) + (1−π)·ĉ(k)` using smoothing constant `π = 0.1`
/// (§4.3). Predictions at any horizon equal the current smoothed value —
/// the EWMA is a level-only model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    pi: f64,
    estimate: f64,
    observations: u64,
}

impl Ewma {
    /// A filter with smoothing constant `pi ∈ (0, 1]` — the weight of the
    /// *newest* sample.
    ///
    /// # Panics
    ///
    /// Panics if `pi` lies outside `(0, 1]`.
    pub fn new(pi: f64) -> Self {
        assert!(
            pi > 0.0 && pi <= 1.0,
            "smoothing constant must be in (0, 1], got {pi}"
        );
        Ewma {
            pi,
            estimate: 0.0,
            observations: 0,
        }
    }

    /// The paper's processing-time filter (`π = 0.1`).
    pub fn paper_default() -> Self {
        Ewma::new(0.1)
    }

    /// The smoothing constant π.
    pub fn smoothing(&self) -> f64 {
        self.pi
    }

    /// Current smoothed estimate (0.0 before any observation).
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

impl Forecaster for Ewma {
    fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.observations == 0 {
            self.estimate = value;
        } else {
            self.estimate = self.pi * value + (1.0 - self.pi) * self.estimate;
        }
        self.observations += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        vec![self.estimate; horizon]
    }

    fn predict_one(&self) -> f64 {
        self.estimate
    }

    fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_observation_initializes() {
        let mut e = Ewma::new(0.1);
        e.observe(15.0);
        assert_eq!(e.estimate(), 15.0);
    }

    #[test]
    fn smoothing_formula_matches_paper() {
        let mut e = Ewma::new(0.1);
        e.observe(10.0);
        e.observe(20.0);
        // 0.1 * 20 + 0.9 * 10 = 11
        assert!((e.estimate() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_constant() {
        let mut e = Ewma::paper_default();
        for _ in 0..300 {
            e.observe(17.5);
        }
        assert!((e.estimate() - 17.5).abs() < 1e-9);
    }

    #[test]
    fn predict_is_flat_at_estimate() {
        let mut e = Ewma::new(0.5);
        e.observe(4.0);
        e.observe(8.0);
        let p = e.predict(3);
        assert_eq!(p, vec![6.0, 6.0, 6.0]);
        assert_eq!(e.predict_one(), 6.0);
    }

    #[test]
    fn nonfinite_ignored() {
        let mut e = Ewma::new(0.2);
        e.observe(10.0);
        e.observe(f64::NAN);
        assert_eq!(e.estimate(), 10.0);
        assert_eq!(e.observations(), 1);
    }

    #[test]
    #[should_panic(expected = "smoothing constant")]
    fn invalid_pi_panics() {
        let _ = Ewma::new(1.5);
    }

    proptest! {
        #[test]
        fn estimate_bounded_by_input_range(
            values in proptest::collection::vec(5.0..25.0f64, 1..100)
        ) {
            // Processing times drawn from U(10,25) ms keep the EWMA inside
            // the sample range — a convexity invariant.
            let mut e = Ewma::paper_default();
            for v in &values {
                e.observe(*v);
            }
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(e.estimate() >= lo - 1e-9);
            prop_assert!(e.estimate() <= hi + 1e-9);
        }
    }
}
