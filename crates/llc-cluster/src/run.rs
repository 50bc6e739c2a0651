//! One description per named run: the paper's §4.3 module run, its §5.2
//! cluster run, and the drift and fault families of the benches and the
//! daemons, each built from the same few fields; a [`Preset`] names the
//! policy stack a run is scored under.

use crate::{
    paper_cluster_16, single_module, ClusterPolicy, Experiment, ExperimentLog,
    FaultToleranceConfig, HierarchicalPolicy, Plant, PolicyBuilder, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_sim::SimError;
use llc_workload::{
    deep_degradation_scenario, drift_scenarios, fault_scenarios, synthetic_paper_workload,
    wc98_like_fig6, Trace, VirtualStore, DRIFT_SCENARIO_NAMES, FAULT_SCENARIO_NAMES,
};

/// Which run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// §4.3: `single_module(members)` under `synthetic_paper_workload`,
    /// scaled by `members / 4` (the workload is sized for four machines).
    Module,
    /// §5.2: `paper_cluster_16` under `wc98_like_fig6`.
    Cluster,
    /// Drift scenario `i` of `drift_scenarios` (0–2; 3 is
    /// `deep_degradation_scenario`) on `single_module(members)` with up
    /// to two machines pinned on, peaking near 55 % of the module's
    /// nominal capacity (deep degradation: near all of it).
    ClosedLoop(usize),
    /// Fault scenario `i` (0–3) of `fault_scenarios` on
    /// `single_module(members)`.
    Faults(usize),
}

impl Family {
    /// The stack this family ships with. A drift-blind L0 under the
    /// drift family settles below the load it must serve.
    pub fn preset(self) -> Preset {
        match self {
            Family::Module | Family::Cluster => Preset::Paper,
            Family::ClosedLoop(_) => Preset::SelfHealing,
            Family::Faults(_) => Preset::SelfHealingFaultTolerant,
        }
    }
}

/// A named policy stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Offline-learned maps over a drift-blind L0, nothing online.
    Paper,
    /// The closed loop over the drift-blind L0.
    ClosedLoop,
    /// The drift-aware L0 with nothing online.
    DriftAware,
    /// The drift-aware L0 under the closed loop.
    SelfHealing,
    /// The closed loop with the churn watchdog.
    FaultTolerant,
    /// The drift-aware L0 under the closed loop, with the churn watchdog.
    SelfHealingFaultTolerant,
}

impl Preset {
    /// The builder for this stack over `scenario`.
    pub fn builder(self, scenario: ScenarioConfig) -> PolicyBuilder {
        let builder = PolicyBuilder::new(scenario);
        let closed = |b: PolicyBuilder| b.closed_loop(OnlineConfig);
        let tolerant = |b: PolicyBuilder| b.fault_tolerance(FaultToleranceConfig);
        match self {
            Preset::Paper => builder,
            Preset::ClosedLoop => closed(builder),
            Preset::DriftAware => builder.drift_aware_l0(),
            Preset::SelfHealing => closed(builder.drift_aware_l0()),
            Preset::FaultTolerant => tolerant(closed(builder)),
            Preset::SelfHealingFaultTolerant => tolerant(closed(builder.drift_aware_l0())),
        }
    }
}

/// Everything a run is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Which run.
    pub family: Family,
    /// Machines: in the single module, or 16 for [`Family::Cluster`].
    pub members: usize,
    /// Trace buckets of `T_L1 = 120 s`; the module and cluster traces
    /// are cut to their first `buckets` (at most 1600 and 600).
    pub buckets: usize,
    /// Experiment seed; also seeds the module and cluster workloads.
    pub seed: u64,
    /// Seed of the request-body store.
    pub store_seed: u64,
    /// Learn the maps and module models on the coarse grids.
    pub coarse_learning: bool,
}

impl RunSpec {
    /// `family` at its usual size and length, both seeds `seed`. The
    /// drift and fault families learn on the coarse grids.
    pub fn new(family: Family, seed: u64) -> RunSpec {
        let (members, buckets, coarse_learning) = match family {
            Family::Module => (4, 1600, false),
            Family::Cluster => (16, 600, false),
            Family::ClosedLoop(_) => (2, 40, true),
            Family::Faults(_) => (4, 60, true),
        };
        RunSpec {
            family,
            members,
            buckets,
            seed,
            store_seed: seed,
            coarse_learning,
        }
    }

    /// `family` at the seed its golden runs use: 2006 for the figure
    /// runs, `0xBEEF` for the drift family, 5 for the fault family.
    pub fn defaults(family: Family) -> RunSpec {
        let seed = match family {
            Family::Module | Family::Cluster => 2006,
            Family::ClosedLoop(_) => 0xBEEF,
            Family::Faults(_) => 5,
        };
        RunSpec::new(family, seed)
    }

    /// The cluster scenario (topology, learning knobs).
    pub fn scenario_config(&self) -> ScenarioConfig {
        let mut sc = match self.family {
            Family::Cluster => paper_cluster_16(),
            _ => single_module(self.members),
        };
        if self.coarse_learning {
            sc = sc.with_coarse_learning();
        }
        if let Family::ClosedLoop(_) = self.family {
            // Both machines of the default module stay on, so arms
            // compare map tracking under the same plant dynamics rather
            // than boot dead time.
            sc.l1.min_active = self.members.min(2);
        }
        sc
    }

    /// Seconds per trace bucket: the scenario's `T_L1`.
    fn bucket_s(&self) -> f64 {
        self.scenario_config().l1.period
    }

    fn capacity(&self) -> f64 {
        self.scenario_config().member_specs()[0]
            .iter()
            .map(|m| m.speed / m.c_prior)
            .sum()
    }

    /// The drift or fault scenario's name; `module` or `cluster`.
    pub fn name(&self) -> &'static str {
        match self.family {
            Family::Module => "module",
            Family::Cluster => "cluster",
            Family::ClosedLoop(i) => DRIFT_SCENARIO_NAMES[i],
            Family::Faults(i) => FAULT_SCENARIO_NAMES[i],
        }
    }

    /// The experiment (drift/fault schedule) and its workload trace.
    pub fn experiment_and_trace(&self) -> (Experiment, Trace) {
        let exp = Experiment::paper_default(self.seed);
        match self.family {
            Family::Module => {
                let trace = synthetic_paper_workload(self.seed)
                    .slice(0, self.buckets)
                    .scaled(self.members as f64 / 4.0);
                (exp, trace)
            }
            Family::Cluster => (exp, wc98_like_fig6(self.seed).slice(0, self.buckets)),
            Family::ClosedLoop(i) => {
                let (capacity, bucket_s) = (self.capacity(), self.bucket_s());
                let drift = if i == 3 {
                    deep_degradation_scenario(0xC105ED, self.buckets, bucket_s, capacity)
                } else {
                    drift_scenarios(0xC105ED, self.buckets, bucket_s, 0.55 * capacity)
                        .swap_remove(i)
                };
                let exp = Experiment {
                    drift: Some(drift.capacity_per_tick(exp.t_l0)),
                    ..exp
                };
                (exp, drift.trace)
            }
            Family::Faults(i) => {
                let fs = fault_scenarios(
                    0xFA11,
                    self.buckets,
                    self.bucket_s(),
                    self.capacity(),
                    self.members,
                )
                .swap_remove(i);
                let exp = Experiment {
                    faults: Some(fs.plan),
                    ..exp
                };
                (exp, fs.trace)
            }
        }
    }

    /// The request-body store both the sampler and the demand model
    /// draw from.
    pub fn store(&self) -> VirtualStore {
        VirtualStore::paper_default(self.store_seed)
    }

    /// `preset` over this run's scenario.
    pub fn policy(&self, preset: Preset) -> HierarchicalPolicy {
        preset.builder(self.scenario_config()).build()
    }

    /// The plant for this run, drawing request bodies from `store`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Plant::new`].
    pub fn plant<'a>(&self, store: &'a VirtualStore) -> Result<Plant<'a>, SimError> {
        let (exp, trace) = self.experiment_and_trace();
        Plant::new(self.scenario_config().to_sim_config(), &exp, &trace, store)
    }

    /// Run `policy` (a preset, a baseline, a probe wrapping either) over
    /// this run's plant.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run`], or earlier on a spec longer than its
    /// family's workload or with faults that do not fit its machines.
    pub fn run(&self, policy: &mut dyn ClusterPolicy) -> ExperimentLog {
        let (exp, trace) = self.experiment_and_trace();
        exp.run(
            self.scenario_config().to_sim_config(),
            policy,
            &trace,
            &self.store(),
        )
        .expect("a run spec builds a well-formed run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_at_its_defaults() {
        for family in [
            Family::Module,
            Family::Cluster,
            Family::ClosedLoop(0),
            Family::ClosedLoop(3),
            Family::Faults(3),
        ] {
            let spec = RunSpec::defaults(family);
            let (exp, trace) = spec.experiment_and_trace();
            assert_eq!(trace.len(), spec.buckets, "{family:?}");
            assert_eq!(exp.seed, spec.seed);
            assert_eq!(
                spec.scenario_config().num_computers(),
                spec.members,
                "{family:?}"
            );
        }
    }

    #[test]
    fn the_module_trace_scales_with_its_machines() {
        let four = RunSpec::new(Family::Module, 9).experiment_and_trace().1;
        let six = RunSpec {
            members: 6,
            ..RunSpec::new(Family::Module, 9)
        };
        let six = six.experiment_and_trace().1;
        assert_eq!(four, synthetic_paper_workload(9));
        for ((_, a), (_, b)) in four.iter().zip(six.iter()) {
            assert_eq!(b, a * 1.5);
        }
    }

    #[test]
    fn every_name_is_its_generators() {
        for i in 0..4 {
            let spec = RunSpec::defaults(Family::ClosedLoop(i));
            let (bucket_s, capacity) = (spec.bucket_s(), spec.capacity());
            let drift = if i == 3 {
                deep_degradation_scenario(0xC105ED, spec.buckets, bucket_s, capacity)
            } else {
                drift_scenarios(0xC105ED, spec.buckets, bucket_s, 0.55 * capacity).swap_remove(i)
            };
            assert_eq!(spec.name(), drift.name, "drift {i}");
            let spec = RunSpec::defaults(Family::Faults(i));
            let faults = fault_scenarios(
                0xFA11,
                spec.buckets,
                spec.bucket_s(),
                spec.capacity(),
                spec.members,
            );
            assert_eq!(spec.name(), faults[i].name, "faults {i}");
        }
        assert_eq!(RunSpec::defaults(Family::Module).name(), "module");
        assert_eq!(RunSpec::defaults(Family::Cluster).name(), "cluster");
    }

    #[test]
    fn the_diurnal_dip_is_stretched_to_ticks() {
        let spec = RunSpec::defaults(Family::ClosedLoop(1));
        let (bucket_s, capacity) = (spec.bucket_s(), spec.capacity());
        let drift =
            drift_scenarios(0xC105ED, spec.buckets, bucket_s, 0.55 * capacity).swap_remove(1);
        let exp = spec.experiment_and_trace().0;
        let plant = exp.drift.expect("a drift run drifts");
        let sc = spec.scenario_config();
        let ticks = sc.l0.ticks_per(sc.l1.period) as usize;
        for k in 0..spec.buckets {
            assert_eq!(plant.scale_at(ticks * k, 0), drift.capacity.scale_at(k, 0));
        }
    }
}
