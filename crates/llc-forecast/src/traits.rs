/// Common interface of all workload forecasters.
///
/// Controllers consume forecasts through this trait so the concrete model
/// (Kalman trend, EWMA) is an implementation detail that can be swapped
/// per experiment.
pub trait Forecaster {
    /// Absorb the newest observation.
    fn observe(&mut self, value: f64);

    /// Predict the next `horizon` values, index 0 being one step ahead.
    ///
    /// Implementations must not mutate their state.
    fn predict(&self, horizon: usize) -> Vec<f64>;

    /// One-step-ahead prediction, equal to `predict(1)[0]`.
    ///
    /// Every controller's `λ̂` reads this once per sampling period, and
    /// the default pays for a `Vec` each time: implementors should
    /// override it with a form that allocates nothing.
    fn predict_one(&self) -> f64 {
        self.predict(1).first().copied().unwrap_or(f64::NAN)
    }

    /// Number of observations absorbed so far.
    fn observations(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial last-value forecaster for trait-level tests.
    struct Naive {
        last: f64,
        n: u64,
    }

    impl Forecaster for Naive {
        fn observe(&mut self, value: f64) {
            self.last = value;
            self.n += 1;
        }
        fn predict(&self, horizon: usize) -> Vec<f64> {
            vec![self.last; horizon]
        }
        fn observations(&self) -> u64 {
            self.n
        }
    }

    #[test]
    fn default_predict_one_uses_predict() {
        let mut f = Naive { last: 0.0, n: 0 };
        f.observe(7.0);
        assert_eq!(f.predict_one(), 7.0);
        assert_eq!(f.observations(), 1);
    }

    #[test]
    fn predict_zero_horizon_gives_nan_one_step() {
        let f = Naive { last: 3.0, n: 0 };
        assert_eq!(f.predict(0).len(), 0);
        assert_eq!(f.predict_one(), 3.0);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut f: Box<dyn Forecaster> = Box::new(Naive { last: 0.0, n: 0 });
        f.observe(1.5);
        assert_eq!(f.predict(2), vec![1.5, 1.5]);
    }
}
