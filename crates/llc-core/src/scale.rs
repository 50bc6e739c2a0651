//! Online service-rate scale estimation — the drift-aware L0.
//!
//! The analytic queue model of eqns. (5)–(6) predicts a service rate of
//! `φ/ĉ`: frequency scaling over the measured per-request demand. Both
//! inputs are *demand-side* telemetry — they measure how much work a
//! request asks for, not how fast the machine actually delivers it. A
//! plant whose delivered capacity silently degrades (thermal throttling,
//! noisy neighbors, a machine coming back from a failure slow) keeps
//! reporting nominal demands, so a model built on `φ/ĉ` alone believes
//! in capacity that no longer exists. Under deep degradation the L0
//! limit-cycles on exactly this error: it picks a frequency the model
//! says is sufficient, the real queue grows, the backlog eventually
//! forces a flat-out drain the model thinks is overkill, and the cycle
//! repeats.
//!
//! [`ServiceScaleEstimator`] closes the gap from the *delivery* side. In
//! any window where the server stayed busy, the completions themselves
//! measure the true service rate `μ = completions / T`, and the ratio
//!
//! ```text
//! ŝ_obs = μ_measured / μ_model = completions · ĉ / (T · φ)
//! ```
//!
//! is a direct observation of the capacity scale the plant is actually
//! delivering. An EWMA over busy-window observations tracks it; the
//! model then serves `ŝ·φ/ĉ` (equivalently: an effective processing
//! time `ĉ/ŝ`), which removes the dominant non-local residual the drift
//! detectors otherwise flag. Idle-tail windows are rejected — when the
//! queue empties mid-window, `completions/T` measures *throughput* (λ),
//! not capacity, and would drag the estimate toward whatever the load
//! happens to be.

/// Switch of a [`ServiceScaleEstimator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleEstimatorConfig {
    /// Master switch. Disabled (the default) the estimator is inert and
    /// [`ServiceScaleEstimator::estimate`] pins 1.0, reproducing the
    /// drift-blind controllers bit for bit.
    pub enabled: bool,
}

impl ScaleEstimatorConfig {
    /// The estimator switched on.
    pub fn enabled() -> Self {
        ScaleEstimatorConfig { enabled: true }
    }
}

/// EWMA smoothing weight per accepted observation (`0 < α ≤ 1`).
const ALPHA: f64 = 0.2;
/// Lower clamp on the estimate (`> 0`): a window of pathological
/// telemetry must not collapse the modelled capacity to zero.
const MIN_SCALE: f64 = 0.1;
/// Upper clamp on the estimate: delivered capacity above nominal is
/// possible (conservative ĉ priors) but bounded.
const MAX_SCALE: f64 = 1.5;
/// Completions a window must contain before it counts as evidence — a
/// two-completion window's rate estimate is mostly noise.
const MIN_COMPLETIONS: u64 = 5;

const _: () = assert!(0.0 < ALPHA && ALPHA <= 1.0);
const _: () = assert!(0.0 < MIN_SCALE && MIN_SCALE <= MAX_SCALE);
const _: () = assert!(MIN_COMPLETIONS >= 1);

/// EWMA estimator of the delivered service-rate scale `ŝ` (1.0 =
/// nominal), fed one realized window at a time.
///
/// Feed [`ServiceScaleEstimator::observe_window`] every sampling period;
/// read [`ServiceScaleEstimator::estimate`] when building the predictive
/// model. The estimator is deliberately one-sided about evidence: only
/// windows that end backlogged (the server provably stayed busy to the
/// sampling instant) and completed at least `MIN_COMPLETIONS` requests
/// move the estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceScaleEstimator {
    cfg: ScaleEstimatorConfig,
    /// Current estimate; `None` until the first accepted observation.
    scale: Option<f64>,
    accepted: u64,
    rejected: u64,
}

impl ServiceScaleEstimator {
    /// An estimator, switched on or off by `cfg`.
    pub fn new(cfg: ScaleEstimatorConfig) -> Self {
        ServiceScaleEstimator {
            cfg,
            scale: None,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Absorb one realized window: `completions` finished over
    /// `window_secs` seconds at frequency factor `phi` with estimated
    /// full-speed demand `c_est`, and `busy` states whether the server
    /// still held a backlog at the sampling instant (the condition under
    /// which `completions / window_secs` measures capacity rather than
    /// throughput). Returns the scale observation absorbed, or `None`
    /// when the window was rejected as evidence.
    pub fn observe_window(
        &mut self,
        completions: u64,
        window_secs: f64,
        phi: f64,
        c_est: f64,
        busy: bool,
    ) -> Option<f64> {
        if !self.cfg.enabled {
            return None;
        }
        // NaN inputs fail these comparisons too, landing in the reject
        // branch rather than poisoning the estimate.
        let inputs_ok = window_secs > 0.0 && phi > 0.0 && c_est > 0.0;
        if !busy || completions < MIN_COMPLETIONS || !inputs_ok {
            self.rejected += 1;
            return None;
        }
        let observed =
            (completions as f64 * c_est / (window_secs * phi)).clamp(MIN_SCALE, MAX_SCALE);
        if !observed.is_finite() {
            self.rejected += 1;
            return None;
        }
        let next = match self.scale {
            // First accepted observation seeds the estimate outright: the
            // prior (1.0) is exactly the assumption being corrected.
            None => observed,
            Some(s) => s + ALPHA * (observed - s),
        };
        self.scale = Some(next.clamp(MIN_SCALE, MAX_SCALE));
        self.accepted += 1;
        Some(observed)
    }

    /// The current delivered-capacity scale `ŝ` (1.0 before any accepted
    /// observation, or while disabled).
    pub fn estimate(&self) -> f64 {
        if !self.cfg.enabled {
            return 1.0;
        }
        self.scale.unwrap_or(1.0)
    }

    /// Windows accepted as capacity evidence so far.
    #[cfg(test)]
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Windows rejected (idle tail, too few completions, broken inputs).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Completions a plant at true scale `s` produces over a busy window.
    fn busy_completions(s: f64, phi: f64, c: f64, window: f64, noise: f64) -> u64 {
        ((s * phi / c * window) * (1.0 + noise)).round().max(0.0) as u64
    }

    #[test]
    fn disabled_estimator_is_inert() {
        let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::default());
        assert_eq!(e.estimate(), 1.0);
        assert_eq!(e.observe_window(1000, 30.0, 0.5, 0.02, true), None);
        assert_eq!(e.estimate(), 1.0);
        assert_eq!(e.accepted(), 0);
    }

    #[test]
    fn idle_windows_are_rejected() {
        let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
        // Plenty of completions but the queue emptied: throughput, not
        // capacity — must not move the estimate.
        assert_eq!(e.observe_window(1000, 30.0, 1.0, 0.02, false), None);
        // Busy but almost nothing completed: noise — rejected too.
        assert_eq!(e.observe_window(2, 30.0, 1.0, 0.02, true), None);
        // Four completions are still too few; five count.
        assert_eq!(e.observe_window(4, 30.0, 1.0, 0.02, true), None);
        assert_eq!(e.estimate(), 1.0);
        assert_eq!(e.rejected(), 3);
        assert!(e.observe_window(5, 30.0, 1.0, 0.02, true).is_some());
        assert_eq!(e.accepted(), 1);
    }

    #[test]
    fn busy_windows_converge_on_the_true_scale() {
        let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
        let (phi, c, window) = (0.75, 0.02, 30.0);
        for _ in 0..30 {
            let n = busy_completions(0.5, phi, c, window, 0.0);
            e.observe_window(n, window, phi, c, true);
        }
        assert!(
            (e.estimate() - 0.5).abs() < 0.02,
            "ŝ = {} should track the injected 0.5 scale",
            e.estimate()
        );
        assert_eq!(e.accepted(), 30);
    }

    #[test]
    fn estimate_respects_clamps() {
        let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
        // An absurd telemetry glitch (10x nominal capacity) clamps at
        // MAX_SCALE instead of poisoning the model.
        e.observe_window(15_000, 30.0, 1.0, 0.02, true);
        assert!(e.estimate() <= MAX_SCALE + 1e-12);
        let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
        e.observe_window(6, 30.0, 1.0, 0.02, true);
        assert!(e.estimate() >= MIN_SCALE - 1e-12);
    }

    proptest! {
        /// Convergence: after a step to any true scale in [0.2, 1.2],
        /// the estimator lands within 5% of it inside 40 busy windows,
        /// from any starting scale, under bounded per-window noise.
        #[test]
        fn tracks_injected_scale_step(
            s_before in 0.4f64..1.0,
            s_after in 0.2f64..1.2,
            phi in 0.25f64..1.0,
            c in 0.012f64..0.03,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
            let window = 30.0;
            for _ in 0..20 {
                let noise = 0.02 * (rng.gen::<f64>() * 2.0 - 1.0);
                e.observe_window(busy_completions(s_before, phi, c, window, noise), window, phi, c, true);
            }
            // The plant steps to s_after (e.g. set_service_scale in the
            // simulator); the estimator must follow within 40 windows.
            for _ in 0..40 {
                let noise = 0.02 * (rng.gen::<f64>() * 2.0 - 1.0);
                e.observe_window(busy_completions(s_after, phi, c, window, noise), window, phi, c, true);
            }
            let err = (e.estimate() - s_after).abs() / s_after;
            prop_assert!(
                err < 0.05,
                "ŝ = {:.4} after step to {:.4} (rel err {:.3})",
                e.estimate(), s_after, err
            );
        }

        /// No-drift bias bound: under a stationary nominal plant with
        /// bounded window noise, ŝ stays within 3% of 1.0 — the
        /// estimator must not invent drift from noise.
        #[test]
        fn nominal_plant_keeps_unit_scale(
            phi in 0.25f64..1.0,
            c in 0.012f64..0.03,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5ca1e);
            let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
            let window = 30.0;
            for _ in 0..200 {
                let noise = 0.02 * (rng.gen::<f64>() * 2.0 - 1.0);
                e.observe_window(busy_completions(1.0, phi, c, window, noise), window, phi, c, true);
                let err = (e.estimate() - 1.0).abs();
                prop_assert!(err < 0.03, "ŝ drifted to {:.4} on a nominal plant", e.estimate());
            }
        }

        /// Gap immunity: a telemetry gap of any length and flavor — idle
        /// windows, blank windows, outright NaN inputs — must hold the
        /// estimate exactly where it was, keep it finite and inside the
        /// clamps, and leave the estimator able to track a genuine
        /// post-gap capacity shift.
        #[test]
        fn gap_streams_never_poison_the_estimate(
            s_before in 0.4f64..1.3,
            s_after in 0.4f64..1.3,
            phi in 0.25f64..1.0,
            c in 0.012f64..0.03,
            gap_len in 1usize..48,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6a9);
            let mut e = ServiceScaleEstimator::new(ScaleEstimatorConfig::enabled());
            let window = 30.0;
            for _ in 0..80 {
                let noise = 0.02 * (rng.gen::<f64>() * 2.0 - 1.0);
                e.observe_window(busy_completions(s_before, phi, c, window, noise), window, phi, c, true);
            }
            let held = e.estimate();
            prop_assert!(held.is_finite());

            // The blackout: cycle through every way a window goes bad.
            for k in 0..gap_len {
                let moved = match k % 4 {
                    // Idle tail — completions measure throughput, not capacity.
                    0 => e.observe_window(1000, window, phi, c, false),
                    // Dark machine — nothing completed at all.
                    1 => e.observe_window(0, window, phi, c, true),
                    // Corrupted demand estimate.
                    2 => e.observe_window(500, window, phi, f64::NAN, true),
                    // Corrupted clock.
                    _ => e.observe_window(500, f64::NAN, phi, c, true),
                };
                prop_assert_eq!(moved, None, "a gap window counted as evidence");
                let est = e.estimate();
                prop_assert!(est.is_finite(), "gap poisoned ŝ to {}", est);
                prop_assert!(
                    (MIN_SCALE..=MAX_SCALE).contains(&est),
                    "gap pushed ŝ out of clamp: {}", est
                );
            }
            prop_assert_eq!(e.estimate(), held, "the gap moved the estimate");

            // Recovery: post-gap evidence still converges on the new truth.
            for _ in 0..80 {
                let noise = 0.02 * (rng.gen::<f64>() * 2.0 - 1.0);
                e.observe_window(busy_completions(s_after, phi, c, window, noise), window, phi, c, true);
            }
            let err = (e.estimate() - s_after).abs() / s_after;
            prop_assert!(
                err < 0.05,
                "post-gap ŝ = {:.4}, wanted {:.4} (rel err {:.3})",
                e.estimate(), s_after, err
            );
        }
    }
}
