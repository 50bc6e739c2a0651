//! Drift *detection* on top of drift tracking.
//!
//! The online learning path (see [`crate::online`]) makes the learned
//! models chase realized outcomes at a fixed forgetting rate. That rate
//! is a compromise: fast enough to re-converge after the plant changes,
//! slow enough not to chase per-period noise in steady state. This module
//! removes the compromise with a Page–Hinkley test over the stream of
//! online residuals (`realized − predicted`, normalized): in steady state
//! the learner runs at a slow rate, and when the test flags a sustained
//! mean shift the learner switches to a fast re-convergence rate for a
//! hold-off window.
//!
//! The test is the classic two-sided Page–Hinkley/CUSUM form: cumulative
//! deviation of the residual from its running mean, less an
//! insensitivity margin `DELTA`, floored at zero; a drift is declared
//! when either side's accumulator exceeds `THRESHOLD`. Detection resets
//! the statistics so the test re-arms against the post-drift regime.

// The constants are tuned for *normalized* residual streams
// (`(realized − predicted)/max(1, |predicted|)`, the form every learner
// in this workspace feeds): stationary noise keeps the statistic near
// zero, while a sustained shift of ~0.15 — small enough that the
// steady-rate learner would quietly absorb it — still crosses the
// threshold within a few samples, before the blending masks it.

/// Page–Hinkley insensitivity margin: mean shifts smaller than this (in
/// residual units) are treated as noise and never accumulate.
const DELTA: f64 = 0.02;
/// Decision threshold `λ` on the cumulative deviation: larger values
/// trade detection delay for a lower false-positive rate.
const THRESHOLD: f64 = 0.3;
/// Samples to observe before the test is allowed to fire (the running
/// mean needs a warm-up before deviations from it are meaningful).
const MIN_SAMPLES: u64 = 8;
/// Samples the learner stays at the fast re-convergence rate after a
/// detection before falling back to the steady-state rate.
const FAST_HOLD: u64 = 24;

const _: () = assert!(DELTA >= 0.0 && THRESHOLD > 0.0 && MIN_SAMPLES >= 1);

/// Which blend rate the learner should run at:
/// [`OnlineConfig::LEARNING_RATE`](crate::OnlineConfig::LEARNING_RATE) or
/// [`OnlineConfig::FAST_LEARNING_RATE`](crate::OnlineConfig::FAST_LEARNING_RATE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnRate {
    /// Steady state: slow exponential forgetting, robust to noise.
    Steady,
    /// Re-convergence after a detected drift: aggressive blending.
    Fast,
}

/// Two-sided Page–Hinkley drift detector over a residual stream.
///
/// Feed one residual per learning update via [`DriftDetector::observe`];
/// consult [`DriftDetector::rate`] for the blend rate to use.
#[derive(Debug, Clone, Default)]
pub struct DriftDetector {
    /// Samples absorbed since the last reset.
    n: u64,
    /// Running mean of the residual since the last reset.
    mean: f64,
    /// Upward cumulative deviation (`max(0, Σ x − mean − δ)`).
    up: f64,
    /// Downward cumulative deviation (`max(0, Σ mean − x − δ)`).
    down: f64,
    /// Samples remaining at the fast rate.
    fast_left: u64,
    /// Lifetime samples observed.
    total: u64,
    /// Lifetime detections.
    detections: u64,
}

impl DriftDetector {
    /// A detector with no samples seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one residual. Returns `true` when this sample fired a
    /// drift detection (the statistics re-arm immediately after).
    pub fn observe(&mut self, residual: f64) -> bool {
        if !residual.is_finite() {
            return false; // a broken sample must not poison the test
        }
        self.total += 1;
        if self.fast_left > 0 {
            self.fast_left -= 1;
        }
        self.n += 1;
        self.mean += (residual - self.mean) / self.n as f64;
        self.up = (self.up + residual - self.mean - DELTA).max(0.0);
        self.down = (self.down + self.mean - residual - DELTA).max(0.0);

        let armed = self.n >= MIN_SAMPLES;
        let fired = armed && (self.up > THRESHOLD || self.down > THRESHOLD);
        if fired {
            self.detections += 1;
            self.fast_left = FAST_HOLD;
            // Re-arm against the post-drift regime: the old mean is
            // exactly what stopped being true.
            self.n = 0;
            self.mean = 0.0;
            self.up = 0.0;
            self.down = 0.0;
        }
        fired
    }

    /// The blend rate the learner should currently run at.
    pub fn rate(&self) -> LearnRate {
        if self.fast_left > 0 {
            LearnRate::Fast
        } else {
            LearnRate::Steady
        }
    }

    /// Lifetime drift detections.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Lifetime residuals observed.
    pub fn samples(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn noise(rng_seed: u64, n: usize, amplitude: f64) -> Vec<f64> {
        // Deterministic bounded noise stream (triangle-ish via two draws).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        (0..n)
            .map(|_| amplitude * (rng.gen::<f64>() + rng.gen::<f64>() - 1.0))
            .collect()
    }

    #[test]
    fn stationary_noise_does_not_fire() {
        let mut d = DriftDetector::new();
        for x in noise(7, 2000, 0.05) {
            d.observe(x);
        }
        assert_eq!(d.detections(), 0, "steady noise must not trip the test");
        assert_eq!(d.rate(), LearnRate::Steady);
    }

    #[test]
    fn step_is_detected_and_switches_rate() {
        let mut d = DriftDetector::new();
        for x in noise(11, 100, 0.05) {
            assert!(!d.observe(x));
        }
        // The plant drifts: residuals jump by 0.5.
        let mut delay = None;
        for (k, x) in noise(13, 50, 0.05).into_iter().enumerate() {
            if d.observe(x + 0.5) {
                delay = Some(k);
                break;
            }
        }
        let delay = delay.expect("step must be detected");
        assert!(delay <= 10, "detection delay {delay} too long");
        assert_eq!(d.rate(), LearnRate::Fast);
        assert_eq!(d.detections(), 1);
    }

    #[test]
    fn downward_shift_detected_too() {
        let mut d = DriftDetector::new();
        for x in noise(17, 100, 0.05) {
            d.observe(x);
        }
        let fired = noise(19, 50, 0.05).into_iter().any(|x| d.observe(x - 0.5));
        assert!(fired, "two-sided test must catch a downward shift");
    }

    #[test]
    fn fast_hold_expires_back_to_steady() {
        let mut d = DriftDetector::new();
        for x in noise(23, 60, 0.02) {
            d.observe(x);
        }
        for x in noise(29, 30, 0.02) {
            if d.observe(x + 1.0) {
                break;
            }
        }
        assert_eq!(d.rate(), LearnRate::Fast);
        // Post-drift the stream is stationary again (around the new
        // level, but the detector re-armed on it): the hold expires.
        for x in noise(31, FAST_HOLD as usize, 0.02) {
            d.observe(x + 1.0);
        }
        assert_eq!(d.rate(), LearnRate::Steady);
    }

    #[test]
    fn non_finite_residuals_ignored() {
        let mut d = DriftDetector::new();
        for _ in 0..50 {
            assert!(!d.observe(f64::NAN));
            assert!(!d.observe(f64::INFINITY));
        }
        assert_eq!(d.samples(), 0);
        assert_eq!(d.detections(), 0);
    }

    proptest! {
        /// False-positive bound: over 512 samples of stationary noise at
        /// any amplitude up to the insensitivity margin, the default
        /// detector fires at most once (~0.2% per-sample rate even at
        /// the worst amplitude).
        #[test]
        fn false_positive_rate_bounded(
            seed in 0u64..1000,
            amplitude in 0.005f64..0.05,
        ) {
            let mut d = DriftDetector::new();
            let mut fired = 0u32;
            for x in noise(seed, 512, amplitude) {
                if d.observe(x) {
                    fired += 1;
                }
            }
            prop_assert!(
                fired <= 1,
                "{fired} detections on stationary noise (amplitude {amplitude})"
            );
        }

        /// Detection-delay bound: a step of at least 6× the noise
        /// amplitude is caught within 12 samples of its onset.
        #[test]
        fn step_detected_within_bound(
            seed in 0u64..1000,
            amplitude in 0.01f64..0.05,
            step in 0.3f64..1.5,
        ) {
            let mut d = DriftDetector::new();
            for x in noise(seed, 64, amplitude) {
                d.observe(x);
            }
            let mut delay = None;
            for (k, x) in noise(seed ^ 0xabcd, 40, amplitude).into_iter().enumerate() {
                if d.observe(x + step) {
                    delay = Some(k);
                    break;
                }
            }
            prop_assert!(
                delay.is_some_and(|k| k <= 12),
                "step {step} not detected in time (delay {delay:?})"
            );
        }

        /// Gap immunity: a telemetry blackout shows up here as a run of
        /// non-finite residuals of any length. None of them may fire,
        /// count as samples, or poison the running statistics — and a
        /// genuine mean shift *after* the gap must still be caught
        /// within the ordinary detection-delay bound (the gap re-arms
        /// nothing and breaks nothing).
        #[test]
        fn gap_streams_rearm_cleanly(
            seed in 0u64..1000,
            amplitude in 0.01f64..0.05,
            step in 0.3f64..1.5,
            gap_len in 1usize..64,
        ) {
            let mut d = DriftDetector::new();
            for x in noise(seed, 64, amplitude) {
                d.observe(x);
            }
            let (samples, detections) = (d.samples(), d.detections());

            // The blackout: every flavor of broken residual.
            for k in 0..gap_len {
                let bad = match k % 3 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                };
                prop_assert!(!d.observe(bad), "a broken sample fired");
            }
            prop_assert_eq!(d.samples(), samples, "gap samples were counted");
            prop_assert_eq!(d.detections(), detections, "gap fired detections");

            // Post-gap shift still caught on time: the gap left the
            // statistics armed against the pre-gap regime.
            let mut delay = None;
            for (k, x) in noise(seed ^ 0x9a4, 40, amplitude).into_iter().enumerate() {
                if d.observe(x + step) {
                    delay = Some(k);
                    break;
                }
            }
            prop_assert!(
                delay.is_some_and(|k| k <= 12),
                "post-gap step {step} not detected in time (delay {delay:?})"
            );
        }
    }
}
