//! Canonical run specifications shared by `llc-agent` and
//! `llc-controld` (and the integration tests): both ends of the wire
//! must instantiate *the same* cluster, workload and fault schedule
//! from nothing but the flags, or the handshake is the only thing that
//! will ever agree.
//!
//! The two families mirror the repo's golden-equivalence benches:
//! `closed-loop` (capacity-step drift under the in-hierarchy closed
//! loop) and `faults` (crash–restart schedule under the watchdog'd
//! closed loop).

use llc_cluster::{
    single_module, Experiment, FaultToleranceConfig, HierarchicalPolicy, PolicyBuilder,
    ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{drift_scenarios, fault_scenarios, Trace, VirtualStore};

/// Which bench family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Capacity-step drift, closed-loop hierarchy.
    ClosedLoop,
    /// Crash–restart faults, watchdog'd closed-loop hierarchy.
    Faults,
}

impl Family {
    /// Parse a `--scenario` flag value.
    ///
    /// # Errors
    ///
    /// The unrecognized name.
    pub fn parse(name: &str) -> Result<Family, String> {
        match name {
            "closed-loop" => Ok(Family::ClosedLoop),
            "faults" => Ok(Family::Faults),
            other => Err(format!(
                "unknown scenario '{other}' (expected closed-loop or faults)"
            )),
        }
    }
}

/// Everything both ends need to agree on, derived from flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Bench family.
    pub family: Family,
    /// Machines in the single module.
    pub members: usize,
    /// Trace buckets (one per `T_L1 = 120 s` interval).
    pub buckets: usize,
    /// Master seed (experiment, sampler and store).
    pub seed: u64,
}

impl RunSpec {
    /// The golden-test defaults for `family`.
    pub fn defaults(family: Family) -> RunSpec {
        match family {
            Family::ClosedLoop => RunSpec {
                family,
                members: 2,
                buckets: 40,
                seed: 0xBEEF,
            },
            Family::Faults => RunSpec {
                family,
                members: 4,
                buckets: 60,
                seed: 5,
            },
        }
    }

    /// The cluster scenario (topology, learning knobs).
    pub fn scenario_config(&self) -> ScenarioConfig {
        let mut sc = single_module(self.members).with_coarse_learning();
        if self.family == Family::ClosedLoop {
            sc.l1.min_active = self.members.min(2);
        }
        sc
    }

    fn capacity(&self) -> f64 {
        self.scenario_config().member_specs()[0]
            .iter()
            .map(|m| m.speed / m.c_prior)
            .sum()
    }

    /// The experiment (drift/fault schedule) and its workload trace.
    pub fn experiment_and_trace(&self) -> (Experiment, Trace) {
        match self.family {
            Family::ClosedLoop => {
                let scenario =
                    drift_scenarios(0xC105ED, self.buckets, 120.0, 0.55 * self.capacity())
                        .swap_remove(2);
                let exp = Experiment {
                    drift: Some(scenario.capacity),
                    ..Experiment::paper_default(self.seed)
                };
                (exp, scenario.trace)
            }
            Family::Faults => {
                let fs =
                    fault_scenarios(0xFA11, self.buckets, 120.0, self.capacity(), self.members)
                        .swap_remove(0);
                let exp = Experiment {
                    faults: Some(fs.plan),
                    ..Experiment::paper_default(self.seed)
                };
                (exp, fs.trace)
            }
        }
    }

    /// The request-body store both the sampler and the demand model
    /// draw from.
    pub fn store(&self) -> VirtualStore {
        VirtualStore::paper_default(self.seed)
    }

    /// The controller-side policy stack for this family.
    pub fn policy(&self) -> HierarchicalPolicy {
        let builder =
            PolicyBuilder::new(self.scenario_config()).closed_loop(OnlineConfig::default());
        match self.family {
            Family::ClosedLoop => builder.build(),
            Family::Faults => builder
                .fault_tolerance(FaultToleranceConfig::default())
                .build(),
        }
    }
}

/// Minimal `--flag value` extractor for the binaries: returns the value
/// following `name`, if present.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_families_build() {
        for family in [Family::ClosedLoop, Family::Faults] {
            let spec = RunSpec::defaults(family);
            let (exp, trace) = spec.experiment_and_trace();
            assert!(!trace.is_empty());
            assert_eq!(exp.seed, spec.seed);
            let _ = spec.policy();
        }
    }

    #[test]
    fn same_spec_same_run() {
        let spec = RunSpec::defaults(Family::Faults);
        let (a, ta) = spec.experiment_and_trace();
        let (b, tb) = spec.experiment_and_trace();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }
}
