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

use crate::controld::ControldCore;
use llc_cluster::{
    single_module, Experiment, FaultToleranceConfig, HierarchicalPolicy, Plant, PolicyBuilder,
    ScenarioConfig, MAX_SINGLE_MODULE,
};
use llc_core::OnlineConfig;
use llc_sim::SimError;
use llc_workload::{
    drift_scenarios, fault_scenarios, Trace, VirtualStore, MIN_FAULT_MACHINES, MIN_FAULT_TICKS,
};
use std::str::FromStr;
use std::time::Duration;

/// Seconds per trace bucket (`T_L1`).
const BUCKET_S: f64 = 120.0;

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

    /// The run both ends derive from the command line: the `--scenario`
    /// family's [`defaults`](RunSpec::defaults), overridden by
    /// `--members`, `--buckets` and `--seed`, and the `--pace-ms` wall
    /// clock per tick (`None`, lockstep, when absent or zero). Other
    /// arguments are left to the caller.
    ///
    /// # Errors
    ///
    /// A message naming the flag: an unknown scenario, a flag without
    /// its value, a value that is not an unsigned integer, or a run the
    /// family cannot build. Every family needs at least one bucket and
    /// at most [`MAX_SINGLE_MODULE`] members; the faults family needs
    /// [`MIN_FAULT_MACHINES`] members and [`MIN_FAULT_TICKS`] ticks
    /// (10 buckets).
    pub fn from_args(args: &[String]) -> Result<(RunSpec, Option<Duration>), String> {
        let family = match flag_value(args, "--scenario")? {
            Some(name) => Family::parse(name)?,
            None => Family::ClosedLoop,
        };
        let mut spec = RunSpec::defaults(family);
        spec.members = parsed(args, "--members")?.unwrap_or(spec.members);
        spec.buckets = parsed(args, "--buckets")?.unwrap_or(spec.buckets);
        spec.seed = parsed(args, "--seed")?.unwrap_or(spec.seed);
        let (min_members, min_ticks) = match family {
            Family::ClosedLoop => (1, 1),
            Family::Faults => (MIN_FAULT_MACHINES, MIN_FAULT_TICKS),
        };
        let t_l0 = Experiment::paper_default(spec.seed).t_l0;
        let min_buckets = (min_ticks as f64 * t_l0 / BUCKET_S).ceil() as usize;
        let members_fit = (min_members..=MAX_SINGLE_MODULE).contains(&spec.members);
        if !members_fit || spec.buckets < min_buckets {
            return Err(format!(
                "this scenario takes --members {min_members}..={MAX_SINGLE_MODULE} and \
                 --buckets {min_buckets} or more"
            ));
        }
        let pace_ms: u64 = parsed(args, "--pace-ms")?.unwrap_or(0);
        let pace = (pace_ms > 0).then(|| Duration::from_millis(pace_ms));
        Ok((spec, pace))
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
                    drift_scenarios(0xC105ED, self.buckets, BUCKET_S, 0.55 * self.capacity())
                        .swap_remove(2);
                let exp = Experiment {
                    drift: Some(scenario.capacity),
                    ..Experiment::paper_default(self.seed)
                };
                (exp, scenario.trace)
            }
            Family::Faults => {
                let fs = fault_scenarios(
                    0xFA11,
                    self.buckets,
                    BUCKET_S,
                    self.capacity(),
                    self.members,
                )
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

    /// The agent's plant for this run, drawing request bodies from
    /// `store` (this spec's [`store`](RunSpec::store)).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Plant::new`].
    pub fn plant<'a>(&self, store: &'a VirtualStore) -> Result<Plant<'a>, SimError> {
        let (exp, trace) = self.experiment_and_trace();
        Plant::new(self.scenario_config().to_sim_config(), &exp, &trace, store)
    }

    /// The controller for this run: the family's policy over the
    /// topology it was built for, for as many ticks as the agent's
    /// [`plant`](RunSpec::plant) runs.
    pub fn controller(&self) -> ControldCore<HierarchicalPolicy> {
        let (exp, trace) = self.experiment_and_trace();
        let total_ticks = trace
            .rebucket(exp.t_l0)
            .expect("the family's buckets are whole ticks")
            .len() as u64;
        let policy = self.policy();
        let members = policy.module_members().to_vec();
        ControldCore::new(policy, members, exp.t_l0, total_ticks)
    }

    /// The controller-side policy stack for this family: the
    /// drift-aware L0 under the closed loop. The closed-loop family
    /// drifts the plant's delivered capacity, and a drift-blind L0 there
    /// settles below the load it must serve and misses the response
    /// target.
    pub fn policy(&self) -> HierarchicalPolicy {
        let builder = PolicyBuilder::new(self.scenario_config())
            .drift_aware_l0()
            .closed_loop(OnlineConfig::default());
        match self.family {
            Family::ClosedLoop => builder.build(),
            Family::Faults => builder
                .fault_tolerance(FaultToleranceConfig::default())
                .build(),
        }
    }
}

/// Minimal `--flag value` extractor for the binaries: the value
/// following `name`, if the flag is given.
///
/// # Errors
///
/// The flag is given last, without a value.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} takes a value")),
    }
}

/// [`flag_value`] parsed as an unsigned integer.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} takes an unsigned integer, got '{v}'"))
        })
        .transpose()
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_override_the_family_defaults() {
        let (spec, pace) = RunSpec::from_args(&args(
            "--connect 127.0.0.1:7700 --scenario faults --members 3 --buckets 12 --seed 9 --pace-ms 50",
        ))
        .unwrap();
        assert_eq!(
            spec,
            RunSpec {
                family: Family::Faults,
                members: 3,
                buckets: 12,
                seed: 9,
            }
        );
        assert_eq!(pace, Some(Duration::from_millis(50)));
        assert_eq!(
            RunSpec::from_args(&args("--pace-ms 0")),
            Ok((RunSpec::defaults(Family::ClosedLoop), None))
        );
    }

    #[test]
    fn bad_flags_are_refused_not_panicked() {
        for line in [
            "--members 0",
            "--members 11",
            "--scenario faults --members 1",
            "--scenario faults --buckets 9",
            "--members two",
            "--buckets 0",
            "--buckets -3",
            "--seed -1",
            "--seed 1.5",
            "--pace-ms soon",
            "--scenario storm",
            "--seed",
        ] {
            let refused = RunSpec::from_args(&args(line));
            assert!(refused.is_err(), "{line}: {refused:?}");
        }
    }

    #[test]
    fn the_edges_of_the_accepted_flags_build_both_ends() {
        for line in [
            "--members 1 --buckets 1",
            "--members 10",
            "--scenario faults --members 2 --buckets 10",
            "--scenario faults --members 10",
        ] {
            let (spec, _) = RunSpec::from_args(&args(line)).unwrap();
            let store = spec.store();
            let plant = spec.plant(&store).unwrap();
            let controller = spec.controller();
            assert_eq!(controller.plane().members(), plant.members(), "{line}");
            assert_eq!(
                controller.hello().total_ticks,
                plant.total_ticks(),
                "{line}"
            );
        }
    }

    #[test]
    fn the_controller_manages_the_plant_the_agent_builds() {
        for family in [Family::ClosedLoop, Family::Faults] {
            let spec = RunSpec::defaults(family);
            let store = spec.store();
            let plant = spec.plant(&store).unwrap();
            let controller = spec.controller();
            assert_eq!(controller.plane().members(), plant.members());
            assert_eq!(controller.hello().total_ticks, plant.total_ticks());
            let hello = crate::codec::Hello::agent(&plant);
            assert_eq!(controller.check_agent_hello(&hello), Ok(()));
        }
    }

    #[test]
    fn the_closed_loop_family_meets_the_response_target() {
        // Halfway through, delivered capacity steps down to 65 %: the
        // shipped policy must hold r* through the step.
        let spec = RunSpec::defaults(Family::ClosedLoop);
        let (exp, trace) = spec.experiment_and_trace();
        let store = spec.store();
        let mut policy = spec.policy();
        let summary = exp
            .run(
                spec.scenario_config().to_sim_config(),
                &mut policy,
                &trace,
                &store,
            )
            .expect("well-formed run")
            .summary();
        assert!(
            summary.mean_response <= exp.response_target,
            "mean response {} s over the {} s target",
            summary.mean_response,
            exp.response_target
        );
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
