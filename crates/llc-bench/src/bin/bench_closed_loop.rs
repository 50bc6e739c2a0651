//! Closed-loop trajectory: the full event-driven hierarchy against the
//! drifting simulated plant, in three arms per drift scenario —
//!
//! * **offline-only** — `Preset::Paper`, the train-once controller: like
//!   every hierarchy it derives realized outcomes and tracks its
//!   prequential prediction error, but it never learns from them;
//! * **closed-loop** — `PolicyBuilder::closed_loop` and *zero* harness
//!   code: the hierarchy absorbs its own outcomes in-loop;
//! * **drift** — the drift-aware L0 with no learning; the self-healing
//!   arm below is this arm plus the closed loop.
//!
//! Every arm reports what the plant got beside its tracking MAE: mean
//! response, the fraction of windows over the response target and
//! energy per injected request. No gate reads them.
//!
//! Tracking error is the prequential mean `|predicted − realized|` cost
//! over every derived per-member outcome, measured against the maps
//! before each outcome is absorbed — identical bookkeeping in both
//! arms, so the arms differ only in whether the loop is closed. All arms are
//! fully deterministic (seeded workload, seeded spread); each arm is run
//! three times and the median taken (MAEs agree across runs, wall-clock
//! medians de-noise the overhead numbers per the gate-calibration
//! policy).
//!
//! A fourth scenario, **deep-degradation** (capacity steps to half of
//! nominal while the load still fits the degraded plant), compares the
//! plain closed loop against the **self-healing** arm: the same closed
//! loop over a drift-aware L0 (`ServiceScaleEstimator` threaded through
//! the queue model). The drift arm runs there too.
//!
//! Emits machine-readable `BENCH_closed_loop.json` at the workspace
//! root; `--quick` shortens the run (no JSON rewrite); `--check` gates:
//! exit non-zero unless, on **every** drift scenario, closed-loop beats
//! offline-only tracking error — and, on deep degradation, self-healing strictly
//! beats the drift-blind closed loop's tracking MAE without flapping
//! frequencies more.

use llc_bench::report::{check_mode, quick_mode, runner_json};
use llc_cluster::{ClusterPolicy, Family, Preset, RunSpec};
use llc_core::OnlineConfig;
use std::time::Instant;

/// An arm's key in the JSON and the printed lines.
fn arm_name(arm: Preset) -> &'static str {
    match arm {
        Preset::Paper => "offline",
        Preset::ClosedLoop => "closed",
        Preset::SelfHealing => "selfheal",
        Preset::DriftAware => "drift",
        _ => unreachable!("{arm:?} is not an arm of this bench"),
    }
}

struct ArmResult {
    tracking_mae: f64,
    samples: u64,
    online_updates: u64,
    detections: u64,
    /// Frequency switches summed over computers — the deep-degradation
    /// limit-cycle metric (the φ decision variance of the gate).
    freq_switches: usize,
    /// Mean response over all completions (s).
    mean_response_s: f64,
    /// Fraction of windows whose mean response exceeded the target.
    violation_fraction: f64,
    /// Energy per injected request (power·s).
    energy_per_req: f64,
    run_ms: f64,
}

fn json_entry(scenario: &str, arm: &str, r: &ArmResult) -> String {
    format!(
        "    \"{scenario}:{arm}\": {{\n      \"tracking_mae\": {:.4},\n      \"mean_response_s\": {:.4},\n      \"violation_fraction\": {:.4},\n      \"energy_per_req\": {:.6},\n      \"samples\": {},\n      \"online_updates\": {},\n      \"drift_detections\": {},\n      \"freq_switches\": {},\n      \"run_ms\": {:.1}\n    }}",
        r.tracking_mae,
        r.mean_response_s,
        r.violation_fraction,
        r.energy_per_req,
        r.samples,
        r.online_updates,
        r.detections,
        r.freq_switches,
        r.run_ms,
    )
}

fn run_arm(spec: &RunSpec, arm: Preset) -> ArmResult {
    let mut policy = spec.policy(arm);
    let started = Instant::now();
    let log = spec.run(&mut policy);
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    let summary = log.summary();
    let metrics = policy.metrics();
    ArmResult {
        tracking_mae: metrics.tracking_error.expect("outcomes were derived"),
        samples: metrics.tracking_samples,
        online_updates: metrics.online_updates,
        detections: metrics.drift_detections(),
        freq_switches: log.frequency_switches(),
        mean_response_s: summary.mean_response,
        violation_fraction: summary.violation_fraction,
        energy_per_req: summary.total_energy / summary.total_arrivals.max(1) as f64,
        run_ms,
    }
}

/// One arm's result. Every column but `run_ms` is deterministic (seeded
/// workload, seeded spread), so one run suffices in check/quick mode. The
/// JSON-writing path runs the arm three times and takes the median so
/// the reported wall-clock (`run_ms`) is de-noised per the
/// gate-calibration policy.
fn run_median(spec: &RunSpec, arm: Preset, once: bool) -> ArmResult {
    if once {
        return run_arm(spec, arm);
    }
    let mut runs = vec![run_arm(spec, arm), run_arm(spec, arm), run_arm(spec, arm)];
    runs.sort_by(|a, b| a.run_ms.total_cmp(&b.run_ms));
    debug_assert!(
        (runs[0].tracking_mae - runs[2].tracking_mae).abs() < 1e-12,
        "tracking error must be deterministic"
    );
    runs.swap_remove(1)
}

/// One line per arm: its tracking MAE beside what the plant got.
fn print_outcomes(results: &[(Preset, ArmResult)]) {
    for (arm, r) in results {
        println!(
            "    {:<9} MAE {:>8.3}  resp {:>7.3} s  viol {:>5.3}  energy/req {:.5}",
            arm_name(*arm),
            r.tracking_mae,
            r.mean_response_s,
            r.violation_fraction,
            r.energy_per_req,
        );
    }
}

fn main() {
    let quick = quick_mode();
    let check = check_mode();
    let threads = llc_par::num_threads();
    let buckets = if quick { 60 } else { 150 };
    // The drift family peaks near 55% of the two-machine module's
    // nominal capacity: heavy enough that the 0.65–0.7× capacity drifts
    // bite, light enough that the plant stays inside the trained envelope
    // most of the run.
    let spec = |scenario| RunSpec {
        buckets,
        ..RunSpec::defaults(Family::ClosedLoop(scenario))
    };
    println!("closed-loop benchmark (threads = {threads}, quick = {quick}, periods = {buckets})");

    let mut lines = Vec::new();
    let mut offline_beaten = 0usize;
    for scenario in (0..3).map(spec) {
        let results: Vec<(Preset, ArmResult)> =
            [Preset::Paper, Preset::ClosedLoop, Preset::DriftAware]
                .into_iter()
                .map(|arm| (arm, run_median(&scenario, arm, check || quick)))
                .collect();
        let offline = &results[0].1;
        let closed = &results[1].1;
        println!(
            "{:<22} offline MAE {:>8.3}  closed MAE {:>8.3}  \
             ({:.1}x better than offline, {} updates, {} detections)",
            scenario.name(),
            offline.tracking_mae,
            closed.tracking_mae,
            offline.tracking_mae / closed.tracking_mae.max(1e-12),
            closed.online_updates,
            closed.detections,
        );
        print_outcomes(&results);
        if closed.tracking_mae < offline.tracking_mae {
            offline_beaten += 1;
        }
        for (arm, r) in &results {
            lines.push(json_entry(scenario.name(), arm_name(*arm), r));
        }
    }

    // --- Deep degradation: the self-healing stack (drift-aware L0 +
    // closed loop) against the drift-blind closed loop. The drift-blind
    // closed loop limit-cycles here: its queue model believes in
    // capacity the plant stopped delivering. ---
    let deep = spec(3);
    let deep_results: Vec<(Preset, ArmResult)> =
        [Preset::ClosedLoop, Preset::SelfHealing, Preset::DriftAware]
            .into_iter()
            .map(|arm| (arm, run_median(&deep, arm, check || quick)))
            .collect();
    let deep_closed = &deep_results[0].1;
    let deep_heal = &deep_results[1].1;
    println!(
        "{:<22} closed MAE {:>8.3} ({} switches)  selfheal MAE {:>8.3} ({} switches)  \
         ({:.1}x better)",
        deep.name(),
        deep_closed.tracking_mae,
        deep_closed.freq_switches,
        deep_heal.tracking_mae,
        deep_heal.freq_switches,
        deep_closed.tracking_mae / deep_heal.tracking_mae.max(1e-12),
    );
    print_outcomes(&deep_results);
    for (arm, r) in &deep_results {
        lines.push(json_entry(deep.name(), arm_name(*arm), r));
    }

    if check {
        // The acceptance invariant: with zero harness code the closed
        // loop must beat the train-once controller on every drift
        // scenario.
        let mut failed = false;
        if offline_beaten == 3 {
            println!("gate ok  closed-loop beats offline-only on 3/3 drift scenarios");
        } else {
            eprintln!(
                "REGRESSION closed-loop beats offline-only on only {offline_beaten}/3 scenarios"
            );
            failed = true;
        }
        // The self-healing invariants: on deep degradation the
        // drift-aware L0 must strictly beat the drift-blind closed loop's
        // tracking and must not flap frequencies more (no limit-cycle
        // regression).
        if deep_heal.tracking_mae < deep_closed.tracking_mae {
            println!(
                "gate ok  self-healing beats drift-blind closed loop on deep degradation \
                 ({:.3} < {:.3})",
                deep_heal.tracking_mae, deep_closed.tracking_mae
            );
        } else {
            eprintln!(
                "REGRESSION self-healing MAE {:.3} does not beat drift-blind {:.3}",
                deep_heal.tracking_mae, deep_closed.tracking_mae
            );
            failed = true;
        }
        if deep_heal.freq_switches <= deep_closed.freq_switches {
            println!(
                "gate ok  self-healing frequency decisions do not flap more ({} <= {})",
                deep_heal.freq_switches, deep_closed.freq_switches
            );
        } else {
            eprintln!(
                "REGRESSION self-healing flaps frequencies more ({} > {})",
                deep_heal.freq_switches, deep_closed.freq_switches
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if quick {
        println!("(quick mode: BENCH_closed_loop.json not rewritten)");
        return;
    }

    let json = format!(
        "{{\n  {runner},\n  \"config\": {{\n    \"cluster\": \"single_module(2), coarse learning\",\n    \"periods\": {buckets},\n    \"period_seconds\": 120,\n    \"learning_rate\": {lr},\n    \"fast_learning_rate\": {flr},\n    \"timing\": \"median of 3 runs per arm\"\n  }},\n  \"results\": {{\n{body}\n  }}\n}}\n",
        runner = runner_json(threads),
        lr = OnlineConfig::LEARNING_RATE,
        flr = OnlineConfig::FAST_LEARNING_RATE,
        body = lines.join(",\n"),
    );
    std::fs::write("BENCH_closed_loop.json", json).expect("cannot write BENCH_closed_loop.json");
    println!("wrote BENCH_closed_loop.json");
}
