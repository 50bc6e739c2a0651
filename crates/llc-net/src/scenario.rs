//! The daemons' half of the run description: `llc-agent` and
//! `llc-controld` must instantiate *the same* cluster, workload and
//! fault schedule from nothing but the flags, or the handshake is the
//! only thing that will ever agree. Both parse their flags into an
//! [`llc_cluster::RunSpec`] here; the controller side then builds its
//! core with [`controller`].
//!
//! `--scenario` names one of two runs: `closed-loop` (the capacity step
//! of the drift family) and `faults` (the crash–restart schedule of the
//! fault family), each under its family's preset.

use crate::controld::ControldCore;
use llc_cluster::{Family, HierarchicalPolicy, RunSpec, MAX_SINGLE_MODULE};
use llc_workload::{MIN_FAULT_MACHINES, MIN_FAULT_TICKS};
use std::str::FromStr;
use std::time::Duration;

/// Base ticks (`T_L0 = 30 s`) per trace bucket (`T_L1 = 120 s`).
const TICKS_PER_BUCKET: u64 = 4;

/// The family a `--scenario` value names.
fn family(name: &str) -> Result<Family, String> {
    match name {
        "closed-loop" => Ok(Family::ClosedLoop(2)),
        "faults" => Ok(Family::Faults(0)),
        other => Err(format!(
            "unknown scenario '{other}' (expected closed-loop or faults)"
        )),
    }
}

/// The run both ends derive from the command line: the `--scenario`
/// family's [`RunSpec::defaults`], overridden by `--members`, `--buckets`
/// and `--seed` (which seeds the store too), and the `--pace-ms` wall
/// clock per tick (`None`, lockstep, when absent or zero). Other
/// arguments are left to the caller.
///
/// # Errors
///
/// A message naming the flag: an unknown scenario, a flag without its
/// value, a value that is not an unsigned integer, or a run the family
/// cannot build. Every family needs at least one bucket and at most
/// [`MAX_SINGLE_MODULE`] members; the faults family needs
/// [`MIN_FAULT_MACHINES`] members and [`MIN_FAULT_TICKS`] ticks
/// (10 buckets).
pub fn from_args(args: &[String]) -> Result<(RunSpec, Option<Duration>), String> {
    let family = match flag_value(args, "--scenario")? {
        Some(name) => family(name)?,
        None => Family::ClosedLoop(2),
    };
    let seed = parsed(args, "--seed")?.unwrap_or(RunSpec::defaults(family).seed);
    let mut spec = RunSpec::new(family, seed);
    spec.members = parsed(args, "--members")?.unwrap_or(spec.members);
    spec.buckets = parsed(args, "--buckets")?.unwrap_or(spec.buckets);
    let (min_members, min_ticks) = match family {
        Family::Faults(_) => (MIN_FAULT_MACHINES, MIN_FAULT_TICKS),
        _ => (1, 1),
    };
    let min_buckets = min_ticks.div_ceil(TICKS_PER_BUCKET) as usize;
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

/// The controller for `spec`: its family's preset over the topology it
/// was built for, for as many ticks as the agent's
/// [`plant`](RunSpec::plant) runs.
pub fn controller(spec: &RunSpec) -> ControldCore<HierarchicalPolicy> {
    let (exp, trace) = spec.experiment_and_trace();
    let total_ticks = trace
        .rebucket(exp.t_l0)
        .expect("the family's buckets are whole ticks")
        .len() as u64;
    let policy = spec.policy(spec.family.preset());
    let members = policy.module_members().to_vec();
    ControldCore::new(policy, members, exp.t_l0, total_ticks)
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
        for scenario in ["closed-loop", "faults"] {
            let (spec, _) = from_args(&args(&format!("--scenario {scenario}"))).unwrap();
            assert_eq!(spec, RunSpec::defaults(family(scenario).unwrap()));
            let (exp, trace) = spec.experiment_and_trace();
            assert!(!trace.is_empty());
            assert_eq!(exp.seed, spec.seed);
            let _ = controller(&spec);
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_override_the_family_defaults() {
        let (spec, pace) = from_args(&args(
            "--connect 127.0.0.1:7700 --scenario faults --members 3 --buckets 12 --seed 9 --pace-ms 50",
        ))
        .unwrap();
        assert_eq!(
            spec,
            RunSpec {
                members: 3,
                buckets: 12,
                ..RunSpec::new(Family::Faults(0), 9)
            }
        );
        assert_eq!(pace, Some(Duration::from_millis(50)));
        assert_eq!(
            from_args(&args("--pace-ms 0")),
            Ok((RunSpec::defaults(Family::ClosedLoop(2)), None))
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
            let refused = from_args(&args(line));
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
            let (spec, _) = from_args(&args(line)).unwrap();
            let store = spec.store();
            let plant = spec.plant(&store).unwrap();
            let controller = controller(&spec);
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
        for scenario in ["closed-loop", "faults"] {
            let spec = RunSpec::defaults(family(scenario).unwrap());
            let store = spec.store();
            let plant = spec.plant(&store).unwrap();
            let controller = controller(&spec);
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
        let spec = RunSpec::defaults(Family::ClosedLoop(2));
        let mut policy = spec.policy(spec.family.preset());
        let summary = spec.run(&mut policy).summary();
        let target = spec.experiment_and_trace().0.response_target;
        assert!(
            summary.mean_response <= target,
            "mean response {} s over the {target} s target",
            summary.mean_response,
        );
    }

    #[test]
    fn same_spec_same_run() {
        let spec = RunSpec::defaults(Family::Faults(0));
        let (a, ta) = spec.experiment_and_trace();
        let (b, tb) = spec.experiment_and_trace();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }
}
