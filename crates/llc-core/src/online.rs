//! Knobs of online (incremental) model correction.
//!
//! The paper's §6 outlook: "the abstraction maps … can be updated online
//! using the observed values" — instead of trusting the offline training
//! pass forever, each control period derives the *realized* outcome of
//! the decision that was taken (the load actually routed, the cost and
//! queue actually measured) and blends it into the learned models where
//! it is derived. This module holds the domain-agnostic half of that
//! loop: the [`OnlineConfig`] knobs governing how aggressively the
//! learned models chase those outcomes. The blending itself lives with
//! the cost map (`llc-approx`); the learner that drives
//! it — drift detector, rate switch, staleness sweep — with their
//! consumers (`llc-cluster`).

/// Knobs of the online learning loop shared by every model that absorbs
/// realized outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Floor of the per-update blend weight once a cell is seasoned
    /// (`0 < η ≤ 1`): the exponential forgetting rate that tracks drift.
    pub learning_rate: f64,
    /// Re-convergence blend-weight floor used while the drift detector
    /// reports [`crate::LearnRate::Fast`] (`learning_rate ≤ η_fast ≤ 1`):
    /// after a detected drift the learner chases outcomes aggressively
    /// for the detector's hold-off window, then falls back to the steady
    /// rate.
    pub fast_learning_rate: f64,
    /// Knobs of the per-stream Page–Hinkley drift detector that switches
    /// between the two rates (and raises the re-train recommendation).
    pub detector: crate::DetectorConfig,
    /// Pseudo-observations credited to the offline training pass: how
    /// much evidence a cell's trained value counts as before online
    /// outcomes start dominating it.
    pub prior_weight: f64,
    /// Staleness sweep: per-sweep multiplier on every cell's accumulated
    /// confidence (`1.0` disables decay).
    pub decay_factor: f64,
    /// Run the staleness sweep every this many learning passes
    /// (`0` disables the sweep entirely).
    pub decay_every: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            learning_rate: 0.25,
            fast_learning_rate: 0.6,
            detector: crate::DetectorConfig::default(),
            prior_weight: 4.0,
            decay_factor: 0.9,
            decay_every: 16,
        }
    }
}

impl OnlineConfig {
    /// Validate the knob ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (rate outside `(0, 1]`, negative
    /// prior, decay factor outside `[0, 1]`).
    pub fn validated(self) -> Self {
        assert!(
            self.learning_rate > 0.0 && self.learning_rate <= 1.0,
            "learning rate must lie in (0, 1]"
        );
        assert!(
            self.fast_learning_rate >= self.learning_rate && self.fast_learning_rate <= 1.0,
            "fast learning rate must lie in [learning_rate, 1]"
        );
        let _ = self.detector.validated();
        assert!(
            self.prior_weight >= 0.0 && self.prior_weight.is_finite(),
            "prior weight must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.decay_factor),
            "decay factor must lie in [0, 1]"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = OnlineConfig::default().validated();
        assert!(cfg.learning_rate > 0.0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn bad_decay_factor_rejected() {
        let _ = OnlineConfig {
            decay_factor: 1.5,
            ..OnlineConfig::default()
        }
        .validated();
    }
}
