/// Online forecast-accuracy accumulator: fig. 4's summary line.
///
/// Tracks mean absolute error, RMSE and mean absolute percentage error
/// over (actual, forecast) pairs, without storing the series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccuracyStats {
    n: u64,
    abs_sum: f64,
    sq_sum: f64,
    pct_sum: f64,
    pct_n: u64,
}

impl AccuracyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        AccuracyStats::default()
    }

    /// Record one (actual, forecast) pair. Non-finite pairs are ignored.
    pub fn record(&mut self, actual: f64, forecast: f64) {
        if !actual.is_finite() || !forecast.is_finite() {
            return;
        }
        let err = actual - forecast;
        self.n += 1;
        self.abs_sum += err.abs();
        self.sq_sum += err * err;
        if actual.abs() > 1e-12 {
            self.pct_sum += (err / actual).abs();
            self.pct_n += 1;
        }
    }

    /// Number of recorded pairs.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean absolute error, or 0.0 before any observation.
    pub fn mae(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.abs_sum / self.n as f64
        }
    }

    /// Root-mean-square error, or 0.0 before any observation.
    pub fn rmse(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sq_sum / self.n as f64).sqrt()
        }
    }

    /// Mean absolute percentage error over pairs with non-zero actuals,
    /// or 0.0 if there were none.
    pub fn mape(&self) -> f64 {
        if self.pct_n == 0 {
            0.0
        } else {
            self.pct_sum / self.pct_n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = AccuracyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mae(), 0.0);
        assert_eq!(s.rmse(), 0.0);
        assert_eq!(s.mape(), 0.0);
    }

    #[test]
    fn known_errors() {
        let mut s = AccuracyStats::new();
        s.record(10.0, 8.0); // err 2
        s.record(10.0, 14.0); // err -4
        assert_eq!(s.count(), 2);
        assert!((s.mae() - 3.0).abs() < 1e-12);
        assert!((s.rmse() - (10.0f64).sqrt()).abs() < 1e-12);
        assert!((s.mape() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_skips_mape_only() {
        let mut s = AccuracyStats::new();
        s.record(0.0, 5.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mape(), 0.0);
        assert_eq!(s.mae(), 5.0);
    }

    #[test]
    fn nonfinite_pairs_ignored() {
        let mut s = AccuracyStats::new();
        s.record(f64::NAN, 1.0);
        s.record(1.0, f64::INFINITY);
        assert_eq!(s.count(), 0);
    }

    proptest! {
        #[test]
        fn rmse_at_least_mae(pairs in proptest::collection::vec((0.1..1e3f64, 0.0..1e3f64), 1..50)) {
            // Jensen: RMSE >= MAE always.
            let mut s = AccuracyStats::new();
            for (a, f) in pairs {
                s.record(a, f);
            }
            prop_assert!(s.rmse() + 1e-9 >= s.mae());
        }
    }
}
