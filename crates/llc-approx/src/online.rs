//! Online (incremental) update policy for trained cost maps.
//!
//! The paper's §6 outlook calls for updating the learned abstraction maps
//! from *observed* outcomes instead of relying solely on the offline
//! training pass. This module supplies the two ingredients of a write:
//! [`Blend`], the value-side contract (move a stored cell a fraction of
//! the way toward an observed target), and [`BlendConfig`], the
//! confidence-weighted learning-rate schedule. Where the cell lives, and
//! what happens to one never stored, is
//! [`DenseGrid::update`](crate::DenseGrid::update)'s half.

/// Values a cost-map cell can hold while supporting exponential blending
/// toward an observed target.
///
/// `blend(target, w)` must move `self` to `(1 − w)·self + w·target`
/// component-wise; `w = 0` is a no-op and `w = 1` replaces the cell.
pub trait Blend {
    /// Move `self` a fraction `w ∈ [0, 1]` of the way toward `target`.
    fn blend(&mut self, target: &Self, w: f64);
}

impl Blend for f64 {
    fn blend(&mut self, target: &Self, w: f64) {
        *self += w * (target - *self);
    }
}

/// Confidence-weighted blending schedule.
///
/// Every trained cell starts with `prior_weight` pseudo-observations (the
/// offline training pass) and accumulates one count per online update.
/// The blend weight for a cell holding `n` online counts is
///
/// ```text
/// w = max(learning_rate, 1 / (prior_weight + n + 1))
/// ```
///
/// — running-mean behaviour while a cell is fresh (fast convergence to
/// the first few observations), decaying into a constant-rate exponential
/// average (`learning_rate`) once the cell is seasoned, which is what
/// tracks *drift*: a plant that changes keeps moving the average, and old
/// outcomes are forgotten geometrically. The staleness sweep
/// ([`DenseGrid::decay_confidence`](crate::DenseGrid::decay_confidence))
/// shrinks `n` between bursts so cells that stop being visited become
/// quick to re-adapt when traffic returns to them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlendConfig {
    /// Floor of the blend weight once a cell is seasoned (`0 < η ≤ 1`).
    pub learning_rate: f64,
    /// Pseudo-count credited to the offline training pass (`≥ 0`): how
    /// many observations the first online update competes against.
    pub prior_weight: f64,
}

impl Default for BlendConfig {
    fn default() -> Self {
        BlendConfig {
            learning_rate: 0.25,
            prior_weight: 4.0,
        }
    }
}

impl BlendConfig {
    /// A schedule with the given floor rate and offline pseudo-count.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is outside `(0, 1]` or `prior_weight` is
    /// negative or non-finite.
    pub fn new(learning_rate: f64, prior_weight: f64) -> Self {
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must lie in (0, 1], got {learning_rate}"
        );
        assert!(
            prior_weight >= 0.0 && prior_weight.is_finite(),
            "prior weight must be finite and non-negative, got {prior_weight}"
        );
        BlendConfig {
            learning_rate,
            prior_weight,
        }
    }

    /// The blend weight applied to a cell holding `confidence` online
    /// counts.
    pub fn weight(&self, confidence: f64) -> f64 {
        self.learning_rate
            .max(1.0 / (self.prior_weight + confidence.max(0.0) + 1.0))
    }
}

/// A pair of blend schedules the online learner switches between under
/// drift detection: `steady` is the slow steady-state schedule (robust to
/// per-period noise), `fast` the aggressive re-convergence schedule run
/// for the detector's hold-off window after a drift fires. Keeping both
/// in one value makes the switching site a single branch instead of two
/// configs that can drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlendSchedule {
    /// The steady-state schedule.
    pub steady: BlendConfig,
    /// The re-convergence schedule (`fast.learning_rate ≥
    /// steady.learning_rate`).
    pub fast: BlendConfig,
}

impl BlendSchedule {
    /// A schedule pair over a shared prior weight.
    ///
    /// # Panics
    ///
    /// Panics if either rate is out of range (see [`BlendConfig::new`])
    /// or `fast_rate < steady_rate`.
    pub fn new(steady_rate: f64, fast_rate: f64, prior_weight: f64) -> Self {
        assert!(
            fast_rate >= steady_rate,
            "fast rate {fast_rate} must be at least the steady rate {steady_rate}"
        );
        BlendSchedule {
            steady: BlendConfig::new(steady_rate, prior_weight),
            fast: BlendConfig::new(fast_rate, prior_weight),
        }
    }

    /// The schedule to run at: `fast = true` selects the re-convergence
    /// schedule.
    pub fn select(&self, fast: bool) -> &BlendConfig {
        if fast {
            &self.fast
        } else {
            &self.steady
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_blend_is_lerp() {
        let mut v = 10.0;
        v.blend(&20.0, 0.25);
        assert!((v - 12.5).abs() < 1e-12);
        v.blend(&20.0, 1.0);
        assert_eq!(v, 20.0);
        v.blend(&0.0, 0.0);
        assert_eq!(v, 20.0);
    }

    #[test]
    fn weight_floors_at_learning_rate() {
        let cfg = BlendConfig::new(0.2, 3.0);
        // Fresh cell: 1 / (3 + 0 + 1) = 0.25 > floor.
        assert!((cfg.weight(0.0) - 0.25).abs() < 1e-12);
        // Seasoned cell: running-mean weight would be tiny, floor holds.
        assert!((cfg.weight(1000.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_rejected() {
        let _ = BlendConfig::new(0.0, 1.0);
    }

    #[test]
    fn schedule_selects_by_rate() {
        let s = BlendSchedule::new(0.2, 0.7, 4.0);
        assert_eq!(s.select(false).learning_rate, 0.2);
        assert_eq!(s.select(true).learning_rate, 0.7);
        assert_eq!(s.select(true).prior_weight, 4.0);
    }

    #[test]
    #[should_panic(expected = "fast rate")]
    fn inverted_schedule_rejected() {
        let _ = BlendSchedule::new(0.5, 0.2, 4.0);
    }
}
