//! The online learner both slow levels hold: how one realized outcome
//! becomes a model update. [`crate::L1Controller`] keeps one slot per
//! member (over its abstraction maps), [`crate::L2Controller`] one per
//! module (over the residual layers of its cost models); the models
//! differ, the path from residual to blend does not.

use llc_approx::{BlendConfig, BlendSchedule};
use llc_core::{DriftDetector, LearnRate, OnlineConfig};

/// Knobs, rate schedules, one drift detector per learner slot and the
/// lifetime counters of one level's online learning.
#[derive(Debug, Clone)]
pub(crate) struct OnlineLearner {
    cfg: OnlineConfig,
    /// Steady-state vs fast re-convergence blend schedules; each slot's
    /// detector picks between them per update.
    schedule: BlendSchedule,
    /// One Page–Hinkley detector per slot over its normalized residual
    /// stream (`(realized − predicted) / max(1, |predicted|)`). Each
    /// also holds its slot's re-train latch.
    detectors: Vec<DriftDetector>,
    /// Learning passes run (drives the staleness-sweep cadence).
    passes: u64,
    /// Outcomes actually blended into a model (weight > 0).
    applied: u64,
    /// Outcomes blended at the fast re-convergence rate.
    fast_applied: u64,
}

impl OnlineLearner {
    /// A learner over `slots` independent models.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see [`OnlineConfig::validated`]).
    pub(crate) fn new(cfg: OnlineConfig, slots: usize) -> Self {
        let cfg = cfg.validated();
        OnlineLearner {
            cfg,
            schedule: BlendSchedule::new(
                cfg.learning_rate,
                cfg.fast_learning_rate,
                cfg.prior_weight,
            ),
            detectors: vec![DriftDetector::new(cfg.detector); slots],
            passes: 0,
            applied: 0,
            fast_applied: 0,
        }
    }

    /// Absorb one realized outcome of `slot`: feed the residual against
    /// `predicted` (the model's answer *before* this update) to the
    /// slot's detector, then run `blend` under the schedule the detector
    /// now selects — fast while a drift fired within its hold-off window,
    /// steady otherwise. `blend` returns the weight it applied; the
    /// outcome counts as absorbed when that is positive.
    pub(crate) fn absorb(
        &mut self,
        slot: usize,
        realized: f64,
        predicted: f64,
        blend: impl FnOnce(&BlendConfig) -> f64,
    ) -> bool {
        let detector = &mut self.detectors[slot];
        detector.observe((realized - predicted) / predicted.abs().max(1.0));
        let fast = detector.rate() == LearnRate::Fast;
        let applied = blend(self.schedule.select(fast)) > 0.0;
        if applied {
            self.applied += 1;
            if fast {
                self.fast_applied += 1;
            }
        }
        applied
    }

    /// Close a learning pass. Returns the confidence decay factor when
    /// the staleness sweep is due on this pass (every `decay_every`
    /// passes; never when that is 0).
    pub(crate) fn end_pass(&mut self) -> Option<f64> {
        self.passes += 1;
        (self.cfg.decay_every > 0 && self.passes.is_multiple_of(self.cfg.decay_every))
            .then_some(self.cfg.decay_factor)
    }

    /// Outcomes blended in so far (weight > 0).
    pub(crate) fn updates(&self) -> u64 {
        self.applied
    }

    /// Outcomes blended at the fast re-convergence rate so far.
    pub(crate) fn fast_updates(&self) -> u64 {
        self.fast_applied
    }

    /// Drift detections fired per slot.
    pub(crate) fn drift_detections(&self) -> impl Iterator<Item = u64> + '_ {
        self.detectors.iter().map(DriftDetector::detections)
    }

    /// The blend rate `slot`'s updates currently run at.
    pub(crate) fn rate(&self, slot: usize) -> LearnRate {
        self.detectors[slot].rate()
    }

    /// `true` once `slot`'s detector latched the re-train signal.
    pub(crate) fn retrain_recommended(&self, slot: usize) -> bool {
        self.detectors[slot].retrain_recommended()
    }

    /// `true` once any slot's detector latched the re-train signal.
    pub(crate) fn any_retrain_recommended(&self) -> bool {
        self.detectors
            .iter()
            .any(DriftDetector::retrain_recommended)
    }

    /// `slot`'s model was swapped: its detector restarts from a clean
    /// slate and releases the re-train latch (lifetime counters survive).
    pub(crate) fn rearm(&mut self, slot: usize) {
        self.detectors[slot].rearm();
    }
}
