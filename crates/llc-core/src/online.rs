//! Knobs of online (incremental) model correction.
//!
//! The paper's §6 outlook: "the abstraction maps … can be updated online
//! using the observed values" — instead of trusting the offline training
//! pass forever, each control period derives the *realized* outcome of
//! the decision that was taken (the load actually routed, the cost and
//! queue actually measured) and blends it into the learned models where
//! it is derived. This module holds the domain-agnostic half of that
//! loop: the [`OnlineConfig`] constants governing how aggressively the
//! learned models chase those outcomes. The blending itself lives with
//! the cost map (`llc-approx`); the learner that drives
//! it — drift detector, rate switch, staleness sweep — with their
//! consumers (`llc-cluster`).

/// The online learning loop shared by every model that absorbs realized
/// outcomes. Its rates are associated constants: every run blends at
/// the same schedule, so there is nothing to set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineConfig;

impl OnlineConfig {
    /// Floor of the per-update blend weight once a cell is seasoned
    /// (`0 < η ≤ 1`): the exponential forgetting rate that tracks drift.
    pub const LEARNING_RATE: f64 = 0.25;
    /// Re-convergence blend-weight floor used while the drift detector
    /// reports [`crate::LearnRate::Fast`] (`LEARNING_RATE ≤ η_fast ≤ 1`):
    /// after a detected drift the learner chases outcomes aggressively
    /// for the detector's hold-off window, then falls back to the steady
    /// rate.
    pub const FAST_LEARNING_RATE: f64 = 0.6;
    /// Pseudo-observations credited to the offline training pass: how
    /// much evidence a cell's trained value counts as before online
    /// outcomes start dominating it.
    pub const PRIOR_WEIGHT: f64 = 4.0;
    /// Staleness sweep: per-sweep multiplier on every cell's accumulated
    /// confidence.
    pub const DECAY_FACTOR: f64 = 0.9;
    /// Run the staleness sweep every this many learning passes.
    pub const DECAY_EVERY: u64 = 16;
}

const _: () = assert!(
    0.0 < OnlineConfig::LEARNING_RATE
        && OnlineConfig::LEARNING_RATE <= OnlineConfig::FAST_LEARNING_RATE
        && OnlineConfig::FAST_LEARNING_RATE <= 1.0,
    "rates must satisfy 0 < steady <= fast <= 1"
);
const _: () = assert!(OnlineConfig::PRIOR_WEIGHT >= 0.0);
const _: () = assert!(0.0 <= OnlineConfig::DECAY_FACTOR && OnlineConfig::DECAY_FACTOR <= 1.0);
const _: () = assert!(OnlineConfig::DECAY_EVERY >= 1);
