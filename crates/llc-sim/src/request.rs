/// A service request flowing through the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id (assigned in arrival order).
    pub(crate) id: u64,
    /// Simulation time at which the request arrived at the cluster.
    pub(crate) arrival: f64,
    /// Service demand in seconds *at full processor speed* — the paper's
    /// `c`, "the time required to process a request while operating at the
    /// maximum frequency".
    pub(crate) demand: f64,
}

impl Request {
    /// Build a request.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not strictly positive and finite, or if
    /// `arrival` is not finite.
    pub fn new(id: u64, arrival: f64, demand: f64) -> Self {
        assert!(arrival.is_finite(), "arrival time must be finite");
        assert!(
            demand.is_finite() && demand > 0.0,
            "service demand must be positive and finite, got {demand}"
        );
        Request {
            id,
            arrival,
            demand,
        }
    }

    /// Response time if the request completes at `completion`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `completion` precedes the arrival.
    pub(crate) fn response_time(&self, completion: f64) -> f64 {
        debug_assert!(
            completion >= self.arrival,
            "completion {completion} before arrival {}",
            self.arrival
        );
        completion - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_time_is_sojourn() {
        let r = Request::new(1, 10.0, 0.02);
        assert!((r.response_time(14.5) - 4.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "service demand")]
    fn zero_demand_rejected() {
        let _ = Request::new(1, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "arrival time")]
    fn nan_arrival_rejected() {
        let _ = Request::new(1, f64::NAN, 0.01);
    }
}
