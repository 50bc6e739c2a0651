//! What every logged run must satisfy whatever its policy, read off its
//! `ExperimentLog`: request conservation on every tick, epochs that only
//! move forward per actuator, directives shaped to the plant they
//! address, and load splits on the simplex.
//!
//! The matrix checks every row's reference run (and so its `Workers4`
//! arm, which runs the same drive) against these before it compares the
//! row's hash: a pin says a run did not move, these say it is sound.

use llc_cluster::{DirectiveKind, ExperimentLog, ScenarioConfig};
use std::collections::BTreeMap;

/// Rows whose member splits are known to leave the simplex. A member
/// that cannot serve yet (one booting) gets its share zeroed and the rest
/// is not renormalised, so every run that boots a machine after its
/// first L1 decision emits member `Split`s summing to 0.15–0.95 (the
/// router scales the plan up by 1/Σ), and `faults2mod` sends its
/// all-crashed module splits of zeros. The check prints the sums on
/// these rows, and fails once they hold, so the exception goes with the
/// fix.
const OFF_SIMPLEX_ROWS: [&str; 8] = [
    "paper16",
    "adverse4",
    "closed2mod",
    "faults2mod",
    "faults0",
    "faults1",
    "faults2",
    "faults3",
];

/// How far a split's weights may sum from 1.
const SIMPLEX_TOLERANCE: f64 = 1e-9;

/// The actuator a directive writes: the reconciler keeps one book each,
/// and each is written by one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Actuator {
    Frequency(usize),
    Activation(usize),
    Split(Option<usize>),
    SafeMode(usize),
}

/// Check `log`, the reference run of the matrix row `row` over
/// `scenario`; panic with every violation found.
pub fn check(row: &str, log: &ExperimentLog, scenario: &ScenarioConfig) {
    let mut failures = Vec::new();

    // Request conservation: everything that arrived by a window's end was
    // served, dropped, or is still queued.
    let (mut arrived, mut completed) = (0u64, 0u64);
    for t in &log.ticks {
        arrived += t.arrivals;
        completed += t.completions;
        let queued: u64 = t.queues.iter().map(|&q| q as u64).sum();
        if arrived != completed + t.dropped + queued {
            failures.push(format!(
                "tick {}: {arrived} arrived but {completed} completed + {} dropped + {queued} queued",
                t.tick, t.dropped
            ));
        }
    }

    let tables: Vec<usize> = (scenario.member_specs().iter().flatten())
        .map(|spec| spec.phis.len())
        .collect();
    let mut epochs = BTreeMap::new();
    let mut off_simplex = Vec::new();
    for d in &log.directives {
        let actuator = match &d.kind {
            DirectiveKind::Frequency { computer, index } => {
                if tables.get(*computer).is_none_or(|&len| *index >= len) {
                    failures.push(format!("tick {}: {:?} is off its table", d.tick, d.kind));
                }
                Actuator::Frequency(*computer)
            }
            DirectiveKind::Activation { computer, .. } => Actuator::Activation(*computer),
            DirectiveKind::Split { module, weights } => {
                let targets = match module {
                    None => Some(scenario.num_modules()),
                    Some(m) => scenario.modules.get(*m).map(Vec::len),
                };
                if targets != Some(weights.len()) {
                    failures.push(format!(
                        "tick {}: a split of {} weights over {targets:?} targets",
                        d.tick,
                        weights.len()
                    ));
                }
                let sum: f64 = weights.iter().sum();
                if (sum - 1.0).abs() > SIMPLEX_TOLERANCE {
                    off_simplex.push(format!("tick {} module {module:?}: Σ = {sum:.3}", d.tick));
                }
                Actuator::Split(*module)
            }
            DirectiveKind::SafeMode { module, .. } => Actuator::SafeMode(*module),
        };
        if let Some(last) = epochs.insert(actuator, d.epoch) {
            if d.epoch <= last {
                failures.push(format!(
                    "tick {}: epoch {} after {last} on {actuator:?}",
                    d.tick, d.epoch
                ));
            }
        }
    }

    let family = row.split(['/', '@']).next().unwrap_or(row);
    if OFF_SIMPLEX_ROWS.contains(&family) {
        if off_simplex.is_empty() {
            failures.push(format!(
                "every split sums to 1 now: drop {family} from OFF_SIMPLEX_ROWS"
            ));
        } else {
            println!(
                "{row}: expected violation, {} splits off the simplex: {}",
                off_simplex.len(),
                off_simplex.join(", ")
            );
        }
    } else if !off_simplex.is_empty() {
        failures.push(format!(
            "splits off the simplex: {}",
            off_simplex.join(", ")
        ));
    }
    assert!(failures.is_empty(), "{row}: {}", failures.join("\n"));
}
