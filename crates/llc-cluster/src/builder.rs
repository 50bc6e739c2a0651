//! One-stop construction of a fully configured [`HierarchicalPolicy`].
//!
//! The self-healing subsystems (closed-loop learning, the churn
//! watchdog, the retrain consumer, the drift-aware L0) are all switched
//! on here; [`PolicyBuilder`] is the only construction surface.

use crate::hierarchy::{FaultToleranceConfig, HierarchicalPolicy};
use crate::retrain::RetrainConfig;
use crate::ScenarioConfig;
use llc_core::OnlineConfig;

/// Fluent builder for a [`HierarchicalPolicy`] with any combination of
/// the optional subsystems: closed-loop learning (or its measure-only
/// outcome-tracking variant), the churn watchdog, the retrain consumer,
/// and the drift-aware L0.
///
/// ```no_run
/// use llc_cluster::{single_module, PolicyBuilder};
///
/// let policy = PolicyBuilder::new(single_module(4).with_coarse_learning())
///     .closed_loop(llc_core::OnlineConfig::default())
///     .fault_tolerance(llc_cluster::FaultToleranceConfig::default())
///     .retrain(llc_cluster::RetrainConfig::default())
///     .drift_aware_l0()
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct PolicyBuilder {
    scenario: ScenarioConfig,
    closed_loop: Option<OnlineConfig>,
    outcome_tracking: bool,
    fault_tolerance: Option<FaultToleranceConfig>,
    retrain: Option<RetrainConfig>,
    drift_aware_l0: bool,
}

impl PolicyBuilder {
    /// Start from a scenario, with every optional subsystem off — the
    /// paper's plain offline hierarchy.
    pub fn new(scenario: ScenarioConfig) -> Self {
        PolicyBuilder {
            scenario,
            closed_loop: None,
            outcome_tracking: false,
            fault_tolerance: None,
            retrain: None,
            drift_aware_l0: false,
        }
    }

    /// Close the loop in-hierarchy: derive realized outcomes from plant
    /// telemetry and absorb them into the learned models every period.
    /// Mutually exclusive with [`PolicyBuilder::outcome_tracking`]
    /// (last call wins).
    #[must_use]
    pub fn closed_loop(mut self, cfg: OnlineConfig) -> Self {
        self.closed_loop = Some(cfg);
        self.outcome_tracking = false;
        self
    }

    /// Derive realized outcomes and score the models against them
    /// without learning from them (the measure-only offline arm).
    /// Mutually exclusive with [`PolicyBuilder::closed_loop`] (last call
    /// wins).
    #[must_use]
    pub fn outcome_tracking(mut self) -> Self {
        self.outcome_tracking = true;
        self.closed_loop = None;
        self
    }

    /// Switch on the churn watchdog: death/rejoin tracking, safe-mode
    /// fallback under quorum loss, dead-member exclusion from planning.
    #[must_use]
    pub fn fault_tolerance(mut self, cfg: FaultToleranceConfig) -> Self {
        self.fault_tolerance = Some(cfg);
        self
    }

    /// Switch on the retrain consumer: background map/model rebuild
    /// with a deterministic hot-swap when the drift detectors latch.
    #[must_use]
    pub fn retrain(mut self, cfg: RetrainConfig) -> Self {
        self.retrain = Some(cfg);
        self
    }

    /// Make the L0 queue models drift-aware: delivered-capacity scale
    /// estimated online from realized completions.
    #[must_use]
    pub fn drift_aware_l0(mut self) -> Self {
        self.drift_aware_l0 = true;
        self
    }

    /// The scenario the policy will be built for (before the
    /// drift-aware L0 tweak, which does not affect the plant layout).
    pub fn scenario(&self) -> &ScenarioConfig {
        &self.scenario
    }

    /// Run the offline learning passes and wire up every configured
    /// subsystem.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs in any configured subsystem (see
    /// [`OnlineConfig::validated`], [`FaultToleranceConfig::validated`],
    /// [`RetrainConfig::validated`]).
    pub fn build(self) -> HierarchicalPolicy {
        let mut scenario = self.scenario;
        if self.drift_aware_l0 {
            scenario.l0.scale = llc_core::ScaleEstimatorConfig::enabled();
        }
        let mut policy = HierarchicalPolicy::build(&scenario);
        if let Some(cfg) = self.closed_loop {
            policy.set_closed_loop(cfg);
        }
        if self.outcome_tracking {
            policy.set_outcome_tracking();
        }
        if let Some(cfg) = self.fault_tolerance {
            policy.set_fault_tolerance(cfg);
        }
        if let Some(cfg) = self.retrain {
            policy.set_retrain(cfg);
        }
        policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_module;
    use crate::ClosedLoopMode;

    #[test]
    fn builder_wires_every_subsystem() {
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning())
            .closed_loop(OnlineConfig::default())
            .fault_tolerance(FaultToleranceConfig::default())
            .retrain(RetrainConfig::default())
            .drift_aware_l0()
            .build();
        assert_eq!(policy.closed_loop_mode(), ClosedLoopMode::Learn);
        assert!(policy.fault_tolerance_enabled());
        assert_eq!(policy.retrain_rebuilds(), 0);
        assert!(policy.l0(0).config().scale.enabled, "drift-aware L0 on");
    }

    #[test]
    fn closed_loop_and_tracking_are_exclusive() {
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning())
            .closed_loop(OnlineConfig::default())
            .outcome_tracking()
            .build();
        assert_eq!(policy.closed_loop_mode(), ClosedLoopMode::Observe);
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning())
            .outcome_tracking()
            .closed_loop(OnlineConfig::default())
            .build();
        assert_eq!(policy.closed_loop_mode(), ClosedLoopMode::Learn);
    }

    #[test]
    fn plain_build_matches_legacy() {
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning()).build();
        assert_eq!(policy.closed_loop_mode(), ClosedLoopMode::Off);
        assert!(!policy.fault_tolerance_enabled());
    }
}
