//! The headline comparison: hierarchical LLC vs the reactive threshold
//! heuristic (Pinheiro'01/Elnozahy'02 style) vs always-on/max-frequency,
//! on the synthetic module workload.
//!
//! The paper's claim to reproduce in shape: the LLC controller meets the
//! response-time goal while consuming substantially less energy than an
//! uncontrolled cluster, and manages switching more deliberately than a
//! threshold heuristic. The energy half of that is asserted: the run
//! exits non-zero unless energy(LLC) < energy(threshold) ≤
//! energy(always-max) with no request dropped.

use llc_bench::claims::{self, BaselineRow};
use llc_bench::figures::figure_spec;
use llc_bench::report::write_csv;
use llc_cluster::{AlwaysMaxPolicy, ClusterPolicy, Family, Preset, RunSpec, ThresholdPolicy};

fn run(spec: &RunSpec, policy: &mut dyn ClusterPolicy) -> BaselineRow {
    let log = spec.run(policy);
    let s = log.summary();
    BaselineRow {
        name: policy.name().to_string(),
        mean_response: s.mean_response,
        violations: s.violation_fraction,
        energy: s.total_energy,
        switch_ons: log.total_switch_ons(),
        dropped: s.total_dropped,
    }
}

fn main() {
    let spec = figure_spec(Family::Module, 250);
    let scenario = spec.scenario_config();

    let rows = [
        run(&spec, &mut spec.policy(Preset::Paper)),
        run(&spec, &mut ThresholdPolicy::for_scenario(&scenario)),
        run(&spec, &mut AlwaysMaxPolicy::for_scenario(&scenario)),
    ];

    println!("LLC vs baselines — synthetic module workload, r* = 4 s\n");
    println!(
        "{:<22} | {:>14} | {:>11} | {:>12} | {:>11} | {:>8}",
        "policy", "mean resp (s)", "violations", "energy", "switch-ons", "dropped"
    );
    println!("{}", "-".repeat(92));
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:<22} | {:>14.2} | {:>10.1}% | {:>12.0} | {:>11} | {:>8}",
            r.name,
            r.mean_response,
            r.violations * 100.0,
            r.energy,
            r.switch_ons,
            r.dropped
        );
        csv.push(format!(
            "{},{:.3},{:.4},{:.0},{},{}",
            r.name, r.mean_response, r.violations, r.energy, r.switch_ons, r.dropped
        ));
    }

    let llc = &rows[0];
    let always = &rows[2];
    println!();
    println!(
        "energy: LLC uses {:.0}% of always-max; shape check: LLC < threshold <= always-max \
         while holding r*.",
        100.0 * llc.energy / always.energy
    );

    let path = write_csv(
        "baseline_table.csv",
        "policy,mean_response_s,violation_fraction,energy,switch_ons,dropped",
        &csv,
    );
    println!("wrote {}", path.display());
    claims::enforce(
        "energy(LLC) < energy(threshold) <= energy(always-max), nothing dropped",
        claims::llc_saves_energy(&rows),
    );
}
