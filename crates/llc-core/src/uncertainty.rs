/// The forecast uncertainty band `λ̂(q) ± δ(q)` used for chattering
/// mitigation (§4.2 of the paper).
///
/// Workload estimates within the prediction horizon carry an error band
/// whose half-width `δ` is the running average error between actual and
/// forecast values. The L1 controller evaluates every candidate action
/// against the three sampled arrival rates `λ̂−δ`, `λ̂` and `λ̂+δ` and uses
/// the *average* of the three costs, damping configuration flapping caused
/// by noisy forecasts.
///
/// `UncertaintyBand` tracks `δ` online from (actual, forecast) pairs; the
/// module controller builds the three samples around its own `λ̂` from
/// [`UncertaintyBand::delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyBand {
    /// Exponential smoothing factor for the running mean absolute error.
    smoothing: f64,
    /// Current half-width δ (mean absolute forecast error).
    delta: f64,
    /// Number of observations absorbed.
    observations: u64,
}

impl UncertaintyBand {
    /// A band updated by exponential smoothing with factor
    /// `smoothing ∈ (0, 1]` (weight of the newest error sample).
    ///
    /// # Panics
    ///
    /// Panics if `smoothing` is outside `(0, 1]`.
    pub fn new(smoothing: f64) -> Self {
        assert!(
            smoothing > 0.0 && smoothing <= 1.0,
            "smoothing must lie in (0, 1], got {smoothing}"
        );
        UncertaintyBand {
            smoothing,
            delta: 0.0,
            observations: 0,
        }
    }

    /// Record an (actual, forecast) pair, updating the mean absolute error.
    pub fn observe(&mut self, actual: f64, forecast: f64) {
        let err = (actual - forecast).abs();
        if self.observations == 0 {
            self.delta = err;
        } else {
            self.delta = self.smoothing * err + (1.0 - self.smoothing) * self.delta;
        }
        self.observations += 1;
    }

    /// The current half-width `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of error observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_observation_sets_delta() {
        let mut b = UncertaintyBand::new(0.2);
        assert_eq!(b.delta(), 0.0);
        b.observe(110.0, 100.0);
        assert!((b.delta() - 10.0).abs() < 1e-12);
        assert_eq!(b.observations(), 1);
    }

    #[test]
    fn delta_smooths_toward_recent_errors() {
        let mut b = UncertaintyBand::new(0.5);
        b.observe(10.0, 0.0); // err 10
        b.observe(0.0, 0.0); // err 0 -> delta 5
        assert!((b.delta() - 5.0).abs() < 1e-12);
        b.observe(0.0, 0.0); // -> 2.5
        assert!((b.delta() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "smoothing")]
    fn zero_smoothing_panics() {
        let _ = UncertaintyBand::new(0.0);
    }

    proptest! {
        #[test]
        fn delta_never_negative(errs in proptest::collection::vec(-1e3..1e3f64, 0..50)) {
            let mut b = UncertaintyBand::new(0.25);
            for e in errs {
                b.observe(e, 0.0);
                prop_assert!(b.delta() >= 0.0);
            }
        }

        #[test]
        fn delta_bounded_by_max_error(errs in proptest::collection::vec(0.0..1e3f64, 1..50)) {
            let mut b = UncertaintyBand::new(0.25);
            let mut max_err = 0.0f64;
            for e in &errs {
                b.observe(*e, 0.0);
                max_err = max_err.max(*e);
            }
            prop_assert!(b.delta() <= max_err + 1e-9);
        }
    }
}
