//! `--check`: is what the measured run produced correct?
//!
//! * **prefix** — the product's canonical loop, `Experiment::run`, is run
//!   on the first [`CHECK_TICKS`] ticks of the same inputs with a freshly
//!   built policy; its directive log and per-window completions and mean
//!   responses must equal the measured run's prefix bit for bit, and (in
//!   process, where the loop can read the plant mid-run) so must the
//!   summary's energy, drops and switch-ons. The stack is causal, so a
//!   prefix of the full run is the truncated run; checking the measured
//!   run itself is stronger than checking a separate truncated one.
//! * **conservation** — injected = completed + dropped + still queued or
//!   in service.
//! * **clean transport / lossless reconciliation** — no decode error, no
//!   late or lost observation window, no dark-fill (the plant side
//!   reports every member every window, scheduled faults included), no
//!   superseded or duplicate directive; over tcp the agent's applied log
//!   equals the controller's emission log, in process their counts agree.
//! * **repeatability** — every further round, traced or not, reproduces
//!   the first one's outputs.

use crate::drive::{Outcome, Round};
use crate::report::{anomalies, response_quality};
use crate::stats::directive_hash;
use crate::workloads::{Inputs, CHECK_TICKS};
use llc_cluster::Directive;
use std::time::Instant;

fn prefix(log: &[Directive], ticks: u64) -> &[Directive] {
    let end = log.partition_point(|d| d.tick < ticks);
    &log[..end]
}

fn first_difference(a: &[Directive], b: &[Directive]) -> String {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("first difference at #{i}: {:?} vs {:?}", a[i], b[i]),
        None => format!("lengths {} vs {}", a.len(), b.len()),
    }
}

/// Replay the prefix through `Experiment::run` and compare. Returns how
/// long the policy it built took, seconds: one more set-up sample.
pub fn prefix_against_experiment(
    inputs: &Inputs,
    outcome: &Outcome,
    failures: &mut Vec<String>,
) -> Option<f64> {
    let ticks = CHECK_TICKS.min(outcome.ticks_done);
    if ticks == 0 {
        failures.push("prefix: the run committed no tick".into());
        return None;
    }
    let cut = inputs.truncated(ticks);
    let ticks = cut.ticks();
    let started = Instant::now();
    let mut policy = cut.build_policy();
    let build_s = Some(started.elapsed().as_secs_f64());
    let log = match cut.experiment.run(
        cut.scenario.to_sim_config(),
        &mut policy,
        &cut.trace,
        &cut.store(),
    ) {
        Ok(log) => log,
        Err(e) => {
            failures.push(format!("prefix: Experiment::run failed: {e}"));
            return build_s;
        }
    };

    for (what, ours) in [
        ("applied", Some(outcome.applied.as_slice())),
        ("emitted", outcome.emitted.as_deref()),
    ] {
        let Some(ours) = ours else { continue };
        let ours = prefix(ours, ticks);
        if ours != log.directives.as_slice() {
            failures.push(format!(
                "prefix: {what} directive log differs from Experiment::run over {ticks} ticks ({})",
                first_difference(ours, &log.directives)
            ));
        }
    }

    let windows = &outcome.windows[..(ticks as usize).min(outcome.windows.len())];
    for (record, ours) in log.ticks.iter().zip(windows) {
        let mean = (ours.completions > 0).then(|| ours.response_sum / ours.completions as f64);
        if record.completions != ours.completions || record.mean_response != mean {
            failures.push(format!(
                "prefix: window {} differs from Experiment::run: {} completions / {:?} s vs {} / {:?} s",
                record.tick, ours.completions, mean, record.completions, record.mean_response
            ));
            break;
        }
    }
    let summary = log.summary();
    let quality = response_quality(windows, cut.experiment.response_target);
    if windows.len() != log.ticks.len()
        || quality.completions != summary.total_completions
        || quality.mean_response_s != summary.mean_response
        || quality.violation_fraction != summary.violation_fraction
    {
        failures.push(format!(
            "prefix: response quality differs from ExperimentSummary: {quality:?} vs {summary:?}"
        ));
    }
    let at_cut = if outcome.ticks_done == ticks {
        Some(outcome.plant)
    } else {
        outcome.checkpoint
    };
    if let Some(plant) = at_cut {
        if plant.energy != summary.total_energy
            || plant.dropped != summary.total_dropped
            || plant.switch_ons != summary.total_switch_ons
        {
            failures.push(format!(
                "prefix: plant totals after {ticks} ticks differ from ExperimentSummary: {plant:?} vs {summary:?}"
            ));
        }
    }
    build_s
}

/// The checks that need nothing but the round itself.
pub fn round_invariants(inputs: &Inputs, round: &Round, failures: &mut Vec<String>) {
    let o = &round.outcome;
    if let Some(e) = &o.error {
        failures.push(format!("run aborted: {e}"));
    }
    if o.ticks_done != inputs.ticks() {
        failures.push(format!(
            "run committed {} of {} ticks",
            o.ticks_done,
            inputs.ticks()
        ));
    }

    let injected = inputs.requests_in(o.ticks_done);
    let completed: u64 = o.windows.iter().map(|w| w.completions).sum();
    let accounted = completed + o.plant.dropped + o.plant.in_system;
    if injected != accounted {
        failures.push(format!(
            "conservation: injected {injected} != completed {completed} + dropped {} + in system {}",
            o.plant.dropped, o.plant.in_system
        ));
    }

    for (what, count) in anomalies(o) {
        if count != 0 {
            failures.push(format!("{what}: {count} (expected 0)"));
        }
    }
    match &o.emitted {
        Some(emitted) if *emitted != o.applied => failures.push(format!(
            "agent-applied log differs from the controller's emission log ({})",
            first_difference(&o.applied, emitted)
        )),
        _ => {}
    }
    if o.metrics.directives_emitted != o.applied.len() as u64
        || o.reconcile.applied != o.applied.len() as u64
    {
        failures.push(format!(
            "directive counts disagree: emitted {}, reconciler applied {}, applied log {}",
            o.metrics.directives_emitted,
            o.reconcile.applied,
            o.applied.len()
        ));
    }
}

/// A further round of the same inputs must reproduce the first one.
pub fn same_outputs(what: &str, first: &Outcome, other: &Outcome, failures: &mut Vec<String>) {
    if first.applied != other.applied {
        failures.push(format!(
            "{what}: directive log differs from the first round ({})",
            first_difference(&first.applied, &other.applied)
        ));
    }
    if first.windows != other.windows || first.plant != other.plant {
        failures.push(format!(
            "{what}: plant outputs differ from the first round ({:?} vs {:?})",
            first.plant, other.plant
        ));
    }
}

/// What the all-workloads parent compares across two child processes:
/// `scale128_tcp` against `scale128_inproc`.
pub fn fingerprint(outcome: &Outcome) -> [(&'static str, u64); 6] {
    let mut windows = crate::stats::Fnv::new();
    for w in &outcome.windows {
        windows.u64(w.completions);
        windows.f64(w.response_sum);
    }
    [
        ("directives", directive_hash(outcome.emitted_or_applied())),
        ("applied", directive_hash(&outcome.applied)),
        ("windows", windows.finish()),
        ("energy", outcome.plant.energy.to_bits()),
        ("dropped", outcome.plant.dropped),
        ("switch_ons", outcome.plant.switch_ons),
    ]
}
