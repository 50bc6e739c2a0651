//! Ablation of the §4.2 chattering mitigation: run the module experiment
//! with the `{λ̂−δ, λ̂, λ̂+δ}` uncertainty band enabled vs disabled and
//! compare switching activity.
//!
//! "Such estimation errors may cause the L1 controller to chatter, i.e.,
//! switch computers on and off excessively within short time spans …
//! Clearly, excessive switching is undesirable since it reduces the
//! reliability of a computer."
//!
//! Asserted: the run exits non-zero if the banded controller switches
//! machines on more often than the ablated one. That holds at default
//! scale (82 vs 97 switch-ons); the `--quick` truncation to 250 buckets
//! on coarse grids does not reproduce it (15 vs 14) and fails.

use llc_bench::claims;
use llc_bench::figures::{figure_spec, FIGURE_SEED};
use llc_bench::report::write_csv;
use llc_cluster::{Family, HierarchicalPolicy};

fn run_with_band(band: bool) -> (u64, f64, f64, f64) {
    let spec = figure_spec(Family::Module, 250);
    let mut scenario = spec.scenario_config();
    scenario.l1.use_uncertainty_band = band;
    let (experiment, mut trace) = spec.experiment_and_trace();
    // Extra noise stresses the forecaster — chattering shows under noise.
    trace.add_gaussian_noise(0, trace.len(), 1200.0, FIGURE_SEED ^ 0xC4A7);
    let mut policy = HierarchicalPolicy::build(&scenario);
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &spec.store())
        .expect("well-formed scenario");
    let s = log.summary();
    (
        log.total_switch_ons(),
        s.mean_response,
        s.violation_fraction,
        s.total_energy,
    )
}

fn main() {
    println!("Ablation — §4.2 chattering mitigation (uncertainty band) on a noisy workload\n");
    let (sw_on, resp_on, viol_on, energy_on) = run_with_band(true);
    let (sw_off, resp_off, viol_off, energy_off) = run_with_band(false);

    println!(
        "{:<22} | {:>12} | {:>14} | {:>12} | {:>12}",
        "variant", "switch-ons", "mean resp (s)", "violations", "energy"
    );
    println!("{}", "-".repeat(84));
    println!(
        "{:<22} | {sw_on:>12} | {resp_on:>14.2} | {:>11.1}% | {energy_on:>12.0}",
        "band (paper)",
        viol_on * 100.0
    );
    println!(
        "{:<22} | {sw_off:>12} | {resp_off:>14.2} | {:>11.1}% | {energy_off:>12.0}",
        "no band (ablated)",
        viol_off * 100.0
    );
    println!();
    println!(
        "expected shape: the banded controller switches at most as often as the \
         ablated one\nunder forecast noise, at comparable QoS."
    );

    let rows = vec![
        format!("band,{sw_on},{resp_on:.3},{viol_on:.4},{energy_on:.0}"),
        format!("no_band,{sw_off},{resp_off:.3},{viol_off:.4},{energy_off:.0}"),
    ];
    let path = write_csv(
        "ablation_chatter.csv",
        "variant,switch_ons,mean_response_s,violation_fraction,energy",
        &rows,
    );
    println!("wrote {}", path.display());
    claims::enforce(
        "switch-ons with the uncertainty band <= without it",
        claims::band_switches_no_more(sw_on, sw_off),
    );
}
