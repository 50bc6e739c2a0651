//! One-stop construction of a fully configured [`HierarchicalPolicy`].
//!
//! The self-healing subsystems (closed-loop learning, the churn
//! watchdog, the drift-aware L0) are all switched on here;
//! [`PolicyBuilder`] is the only construction surface.

use crate::hierarchy::{FaultToleranceConfig, HierarchicalPolicy};
use crate::ScenarioConfig;
use llc_core::OnlineConfig;

/// No-op until ROADMAP item 15: `benchmark/src/workloads.rs` passes it
/// to [`PolicyBuilder::retrain`]. Drift is healed by the drift-aware L0
/// and the online learner; nothing rebuilds maps in the background.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrainConfig;

/// Fluent builder for a [`HierarchicalPolicy`] with any combination of
/// the optional subsystems: closed-loop learning, the churn watchdog and
/// the drift-aware L0. Every build derives its realized outcomes and
/// tracks its maps' prediction error; only closed-loop learning writes
/// them into the maps.
///
/// ```no_run
/// use llc_cluster::{single_module, PolicyBuilder};
///
/// let policy = PolicyBuilder::new(single_module(4).with_coarse_learning())
///     .closed_loop(llc_core::OnlineConfig)
///     .fault_tolerance(llc_cluster::FaultToleranceConfig)
///     .drift_aware_l0()
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct PolicyBuilder {
    scenario: ScenarioConfig,
    closed_loop: bool,
    fault_tolerance: bool,
    drift_aware_l0: bool,
}

impl PolicyBuilder {
    /// Start from a scenario, with every optional subsystem off — the
    /// paper's plain offline hierarchy.
    pub fn new(scenario: ScenarioConfig) -> Self {
        PolicyBuilder {
            scenario,
            closed_loop: false,
            fault_tolerance: false,
            drift_aware_l0: false,
        }
    }

    /// Close the loop in-hierarchy: absorb the realized outcomes the
    /// hierarchy derives from plant telemetry into the L1s' maps every
    /// period, at [`OnlineConfig`]'s rates (the field-less argument is
    /// kept for `benchmark/src/workloads.rs` until ROADMAP item 15).
    #[must_use]
    pub fn closed_loop(mut self, _: OnlineConfig) -> Self {
        self.closed_loop = true;
        self
    }

    /// Switch on the churn watchdog: death/rejoin tracking, safe-mode
    /// fallback under quorum loss, dead-member exclusion from planning,
    /// at [`FaultToleranceConfig`]'s thresholds (the field-less argument
    /// is kept for `benchmark/src/workloads.rs`).
    #[must_use]
    pub fn fault_tolerance(mut self, _: FaultToleranceConfig) -> Self {
        self.fault_tolerance = true;
        self
    }

    /// No-op until ROADMAP item 15: `benchmark/src/workloads.rs` calls
    /// it.
    #[doc(hidden)]
    #[must_use]
    pub fn retrain(self, _: RetrainConfig) -> Self {
        self
    }

    /// Make the L0 queue models drift-aware: delivered-capacity scale
    /// estimated online from realized completions.
    #[must_use]
    pub fn drift_aware_l0(mut self) -> Self {
        self.drift_aware_l0 = true;
        self
    }

    /// Run the offline learning passes and wire up every configured
    /// subsystem.
    pub fn build(self) -> HierarchicalPolicy {
        let mut scenario = self.scenario;
        if self.drift_aware_l0 {
            scenario.l0.scale = llc_core::ScaleEstimatorConfig::enabled();
        }
        let mut policy = HierarchicalPolicy::build(&scenario);
        if self.closed_loop {
            policy.set_closed_loop();
        }
        if self.fault_tolerance {
            policy.set_fault_tolerance();
        }
        policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{single_module, ClusterPolicy};

    /// The L1s' drift detectors exist exactly while they learn.
    fn learns(policy: &HierarchicalPolicy) -> bool {
        !policy.metrics().map_drift_detections.concat().is_empty()
    }

    #[test]
    fn builder_wires_every_subsystem() {
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning())
            .closed_loop(OnlineConfig)
            .fault_tolerance(FaultToleranceConfig)
            .drift_aware_l0()
            .build();
        assert!(learns(&policy), "closed loop on");
        assert!(policy.fault_tolerance_enabled());
        assert!(policy.l0(0).config().scale.enabled, "drift-aware L0 on");
    }

    #[test]
    fn plain_build_matches_legacy() {
        let policy = PolicyBuilder::new(single_module(2).with_coarse_learning()).build();
        assert!(!learns(&policy), "a plain build learns nothing online");
        assert!(!policy.fault_tolerance_enabled());
    }
}
