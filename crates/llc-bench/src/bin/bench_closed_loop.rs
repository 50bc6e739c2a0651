//! Closed-loop trajectory: the full event-driven hierarchy against the
//! drifting simulated plant, in two arms per drift scenario —
//!
//! * **offline-only** — `PolicyBuilder::outcome_tracking`: the policy
//!   derives realized outcomes and tracks its prequential prediction
//!   error but never learns from them (the train-once controller);
//! * **closed-loop** — `PolicyBuilder::closed_loop` and *zero* harness
//!   code: the hierarchy absorbs its own outcomes in-loop.
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
//! the queue model).
//!
//! Emits machine-readable `BENCH_closed_loop.json` at the workspace
//! root; `--quick` shortens the run (no JSON rewrite); `--check` gates:
//! exit non-zero unless, on **every** drift scenario, closed-loop beats
//! offline-only tracking error — and, on deep degradation, self-healing strictly
//! beats the drift-blind closed loop's tracking MAE without flapping
//! frequencies more.

use llc_bench::report::{check_mode, quick_mode, runner_json};
use llc_cluster::{single_module, Experiment, PolicyBuilder, ScenarioConfig};
use llc_core::OnlineConfig;
use llc_workload::{
    deep_degradation_scenario, drift_scenarios, CapacityProfile, DriftScenario, VirtualStore,
};
use std::time::Instant;

/// The scenario capacity profiles are expressed over the drift trace's
/// 120 s buckets; the experiment ticks every `T_L0 = 30 s`. Fractional
/// profiles (ramp/step) are invariant under re-bucketing, but the
/// diurnal dip's period is in buckets and must be stretched by the
/// bucket/tick ratio or the capacity would cycle four times per arrival
/// hump.
fn profile_in_ticks(profile: CapacityProfile, ratio: f64) -> CapacityProfile {
    match profile {
        CapacityProfile::Diurnal {
            base,
            amplitude,
            period,
        } => CapacityProfile::Diurnal {
            base,
            amplitude,
            period: period * ratio,
        },
        other => other,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Offline,
    Closed,
    /// Drift-aware L0 + closed loop: the self-healing stack, benched on
    /// the deep-degradation scenario against the plain closed loop.
    SelfHeal,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Offline => "offline",
            Arm::Closed => "closed",
            Arm::SelfHeal => "selfheal",
        }
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
    run_ms: f64,
}

fn json_entry(scenario: &str, arm: &str, r: &ArmResult) -> String {
    format!(
        "    \"{scenario}:{arm}\": {{\n      \"tracking_mae\": {:.4},\n      \"samples\": {},\n      \"online_updates\": {},\n      \"drift_detections\": {},\n      \"freq_switches\": {},\n      \"run_ms\": {:.1}\n    }}",
        r.tracking_mae,
        r.samples,
        r.online_updates,
        r.detections,
        r.freq_switches,
        r.run_ms,
    )
}

fn scenario_config() -> ScenarioConfig {
    // `min_active = 2` pins both machines on so the arms compare *map
    // tracking* under identical plant dynamics rather than
    // boot-dead-time noise (the feed-forward test owns the transition
    // story).
    let mut sc = single_module(2).with_coarse_learning();
    sc.l1.min_active = 2;
    sc
}

fn run_arm(scenario: &DriftScenario, arm: Arm, seed: u64) -> ArmResult {
    let sc = scenario_config();
    let cfg = OnlineConfig::default().validated();
    let builder = PolicyBuilder::new(sc.clone());
    let mut policy = match arm {
        Arm::Offline => builder.outcome_tracking(),
        Arm::Closed => builder.closed_loop(cfg),
        Arm::SelfHeal => builder.drift_aware_l0().closed_loop(cfg),
    }
    .build();
    let ratio = scenario.trace.interval() / 30.0;
    let exp = Experiment {
        drift: Some(profile_in_ticks(scenario.capacity, ratio)),
        ..Experiment::paper_default(seed)
    };
    let store = VirtualStore::paper_default(seed);
    let started = Instant::now();
    let log = exp
        .run(sc.to_sim_config(), &mut policy, &scenario.trace, &store)
        .expect("well-formed scenario");
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    ArmResult {
        tracking_mae: policy.tracking_error().expect("outcomes were derived"),
        samples: policy.tracking_samples(),
        online_updates: policy.online_updates(),
        detections: (0..policy.num_modules())
            .map(|m| policy.l1(m).drift_detections())
            .sum(),
        freq_switches: log.frequency_switches(),
        run_ms,
    }
}

fn main() {
    let quick = quick_mode();
    let check = check_mode();
    let threads = llc_par::num_threads();
    let buckets = if quick { 60 } else { 150 };
    // Peak near 55% of the two-machine module's nominal capacity: heavy
    // enough that the 0.65–0.7× capacity drifts bite, light enough that
    // the plant stays inside the trained envelope most of the run.
    let sc = scenario_config();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenarios = drift_scenarios(0xC105ED, buckets, 120.0, 0.55 * capacity);
    println!("closed-loop benchmark (threads = {threads}, quick = {quick}, periods = {buckets})");

    let mut lines = Vec::new();
    let mut offline_beaten = 0usize;
    for scenario in &scenarios {
        let mut results: Vec<(Arm, ArmResult)> = Vec::new();
        for arm in [Arm::Offline, Arm::Closed] {
            // The gate consults only the tracking MAEs, which are fully
            // deterministic (seeded workload, seeded spread) — one run
            // suffices in check/quick mode. The JSON-writing path runs
            // each arm three times and takes the median so the reported
            // wall-clock (`run_ms`) is de-noised per the
            // gate-calibration policy.
            let result = if check || quick {
                run_arm(scenario, arm, 0xBEEF)
            } else {
                let mut runs = vec![
                    run_arm(scenario, arm, 0xBEEF),
                    run_arm(scenario, arm, 0xBEEF),
                    run_arm(scenario, arm, 0xBEEF),
                ];
                runs.sort_by(|a, b| a.run_ms.total_cmp(&b.run_ms));
                debug_assert!(
                    (runs[0].tracking_mae - runs[2].tracking_mae).abs() < 1e-12,
                    "tracking error must be deterministic"
                );
                runs.swap_remove(1)
            };
            results.push((arm, result));
        }
        let offline = &results[0].1;
        let closed = &results[1].1;
        println!(
            "{:<22} offline MAE {:>8.3}  closed MAE {:>8.3}  \
             ({:.1}x better than offline, {} updates, {} detections)",
            scenario.name,
            offline.tracking_mae,
            closed.tracking_mae,
            offline.tracking_mae / closed.tracking_mae.max(1e-12),
            closed.online_updates,
            closed.detections,
        );
        if closed.tracking_mae < offline.tracking_mae {
            offline_beaten += 1;
        }
        for (arm, r) in &results {
            lines.push(json_entry(scenario.name, arm.name(), r));
        }
    }

    // --- Deep degradation: the self-healing stack (drift-aware L0 +
    // closed loop) against the drift-blind closed loop. The drift-blind
    // closed loop limit-cycles here: its queue model believes in
    // capacity the plant stopped delivering. ---
    let deep = deep_degradation_scenario(0xC105ED, buckets, 120.0, capacity);
    let mut deep_results: Vec<(Arm, ArmResult)> = Vec::new();
    for arm in [Arm::Closed, Arm::SelfHeal] {
        let result = if check || quick {
            run_arm(&deep, arm, 0xBEEF)
        } else {
            let mut runs = vec![
                run_arm(&deep, arm, 0xBEEF),
                run_arm(&deep, arm, 0xBEEF),
                run_arm(&deep, arm, 0xBEEF),
            ];
            runs.sort_by(|a, b| a.run_ms.total_cmp(&b.run_ms));
            debug_assert!(
                (runs[0].tracking_mae - runs[2].tracking_mae).abs() < 1e-12,
                "tracking error must be deterministic"
            );
            runs.swap_remove(1)
        };
        deep_results.push((arm, result));
    }
    let deep_closed = &deep_results[0].1;
    let deep_heal = &deep_results[1].1;
    println!(
        "{:<22} closed MAE {:>8.3} ({} switches)  selfheal MAE {:>8.3} ({} switches)  \
         ({:.1}x better)",
        deep.name,
        deep_closed.tracking_mae,
        deep_closed.freq_switches,
        deep_heal.tracking_mae,
        deep_heal.freq_switches,
        deep_closed.tracking_mae / deep_heal.tracking_mae.max(1e-12),
    );
    for (arm, r) in &deep_results {
        lines.push(json_entry(deep.name, arm.name(), r));
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

    let cfg = OnlineConfig::default();
    let json = format!(
        "{{\n  {runner},\n  \"config\": {{\n    \"cluster\": \"single_module(2), coarse learning\",\n    \"periods\": {buckets},\n    \"period_seconds\": 120,\n    \"learning_rate\": {lr},\n    \"fast_learning_rate\": {flr},\n    \"timing\": \"median of 3 runs per arm\"\n  }},\n  \"results\": {{\n{body}\n  }}\n}}\n",
        runner = runner_json(threads),
        lr = cfg.learning_rate,
        flr = cfg.fast_learning_rate,
        body = lines.join(",\n"),
    );
    std::fs::write("BENCH_closed_loop.json", json).expect("cannot write BENCH_closed_loop.json");
    println!("wrote BENCH_closed_loop.json");
}
