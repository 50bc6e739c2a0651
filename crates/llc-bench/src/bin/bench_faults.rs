//! Fault tolerance: the churn-hardened hierarchy against the fault-blind
//! closed loop, across the four canonical fault scenarios of
//! `llc_workload::fault_scenarios` —
//!
//! * **crash-restart** — a member crashes (queue lost, telemetry dark)
//!   and comes back through the boot dead time;
//! * **rolling-blackout** — telemetry goes dark machine by machine while
//!   everything keeps serving;
//! * **flapping-member** — one member crash/restart-cycles three times;
//! * **stuck-actuator** — a wedged DVFS actuator plus noisy sensors.
//!
//! Both arms run the identical closed-loop hierarchy
//! (`PolicyBuilder::closed_loop`); the **fault-tolerant** arm additionally
//! enables the watchdog stack (`PolicyBuilder::fault_tolerance`): suspect
//! counting, dead-member exclusion from the L1 search, one-shot L2
//! hysteresis relaxation on membership change, telemetry-gated
//! estimators and the safe-mode fallback. The **fault-blind** arm takes
//! blank windows and crashed machines at face value.
//!
//! Tracking error is the prequential mean `|predicted − realized|` cost
//! over derived per-member outcomes, where the realized cost *prices
//! dropped traffic*: every request the dispatcher offered to a machine
//! that refused it is charged a client-timeout's worth of slack. Without
//! that charge a controller that routes traffic into a dead machine
//! would grade *better* — the drops vanish from the books and the
//! relieved survivors look beautifully modeled.
//!
//! **Recovery time** is measured per arm as the number of L1 periods
//! after the last scheduled fault until the trailing-3-period MAE
//! returns to within 1.5× the pre-fault steady-state MAE (median of the
//! per-period MAE before the first fault).
//!
//! Emits machine-readable `BENCH_faults.json` at the workspace root;
//! `--quick` shortens the run (no JSON rewrite); `--check` gates: exit
//! non-zero unless the fault-tolerant arm strictly beats the fault-blind
//! arm's tracking MAE on **every** scenario and recovers within
//! 20 L1 periods of the last fault. All arms are fully deterministic
//! (seeded workload, seeded spread, seeded faults) and independent of
//! the thread count — the map substrate is queried, never rebuilt, so
//! no parallel reduction order enters the trajectory.

use llc_bench::report::{check_mode, quick_mode, runner_json};
use llc_cluster::{
    single_module, Action, Cadence, ClusterPolicy, Experiment, FaultToleranceConfig,
    HierarchicalPolicy, Observations, PolicyBuilder, PolicyMetrics, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{fault_scenarios, FaultScenario, VirtualStore};
use std::time::Instant;

/// L1 periods allowed between the last scheduled fault and the tracking
/// error returning to within [`RECOVERY_FACTOR`]× of steady state. At
/// the paper's T_L1 = 120 s this is 40 minutes — enough for a restarted
/// machine to boot, rejoin and be re-planned over, with margin.
const RECOVERY_BOUND: u64 = 20;
/// Multiple of the pre-fault steady-state MAE the trailing error must
/// return under to count as recovered.
const RECOVERY_FACTOR: f64 = 1.5;
/// Base ticks per L1 period (T_L1 / T_L0 at paper defaults).
const L1_EVERY: u64 = 4;

/// Records the cumulative prequential error after every tick, so the
/// per-L1-period error trajectory (and hence recovery time) can be
/// reconstructed without touching the hierarchy's internals.
struct ErrProbe {
    inner: HierarchicalPolicy,
    /// `(tick, err_sum, err_n)` after each decide.
    history: Vec<(u64, f64, u64)>,
}

impl ClusterPolicy for ErrProbe {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        let actions = self.inner.decide(obs);
        let n = self.inner.tracking_samples();
        let sum = self.inner.tracking_error().unwrap_or(0.0) * n as f64;
        self.history.push((obs.tick, sum, n));
        actions
    }

    fn name(&self) -> &str {
        "hierarchical-llc-err-probe"
    }

    fn cadence(&self) -> Cadence {
        self.inner.cadence()
    }

    fn metrics(&self) -> PolicyMetrics {
        self.inner.metrics()
    }
}

/// Per-L1-period mean prediction error, from the cumulative history.
fn period_maes(history: &[(u64, f64, u64)]) -> Vec<(u64, f64, u64)> {
    let mut out = Vec::new();
    let (mut prev_sum, mut prev_n) = (0.0, 0u64);
    for &(tick, sum, n) in history {
        if tick % L1_EVERY != 0 {
            continue;
        }
        let dn = n - prev_n;
        if dn > 0 {
            out.push((tick / L1_EVERY, (sum - prev_sum) / dn as f64, dn));
        }
        prev_sum = sum;
        prev_n = n;
    }
    out
}

/// Recovery time in L1 periods: first period after `last_fault_period`
/// whose trailing-3-period aggregate MAE is within `RECOVERY_FACTOR`× of
/// the pre-fault steady state (median per-period MAE before the first
/// fault). `None` if the error never comes back down.
fn recovery_periods(
    periods: &[(u64, f64, u64)],
    first_fault_period: u64,
    last_fault_period: u64,
) -> Option<u64> {
    let mut pre: Vec<f64> = periods
        .iter()
        .filter(|&&(p, _, _)| p >= 2 && p < first_fault_period)
        .map(|&(_, mae, _)| mae)
        .collect();
    if pre.is_empty() {
        return None;
    }
    pre.sort_by(f64::total_cmp);
    let steady = pre[pre.len() / 2];
    let threshold = RECOVERY_FACTOR * steady;
    let post: Vec<&(u64, f64, u64)> = periods
        .iter()
        .filter(|&&(p, _, _)| p > last_fault_period)
        .collect();
    for w in post.windows(3) {
        let err: f64 = w.iter().map(|&&(_, mae, dn)| mae * dn as f64).sum();
        let n: u64 = w.iter().map(|&&(_, _, dn)| dn).sum();
        if n > 0 && err / n as f64 <= threshold {
            return Some(w[2].0 - last_fault_period);
        }
    }
    None
}

struct ArmResult {
    tracking_mae: f64,
    samples: u64,
    dropped: u64,
    mean_response: f64,
    violation_fraction: f64,
    deaths: u64,
    recoveries: u64,
    safe_mode_periods: u64,
    recovery_periods: Option<u64>,
    run_ms: f64,
}

fn json_entry(scenario: &str, arm: &str, r: &ArmResult) -> String {
    format!(
        "    \"{scenario}:{arm}\": {{\n      \"tracking_mae\": {:.4},\n      \"samples\": {},\n      \"dropped\": {},\n      \"mean_response_s\": {:.4},\n      \"violation_fraction\": {:.4},\n      \"member_deaths\": {},\n      \"member_recoveries\": {},\n      \"safe_mode_periods\": {},\n      \"recovery_l1_periods\": {},\n      \"run_ms\": {:.1}\n    }}",
        r.tracking_mae,
        r.samples,
        r.dropped,
        r.mean_response,
        r.violation_fraction,
        r.deaths,
        r.recoveries,
        r.safe_mode_periods,
        r.recovery_periods
            .map_or("null".to_string(), |p| p.to_string()),
        r.run_ms,
    )
}

fn scenario_config() -> ScenarioConfig {
    single_module(4).with_coarse_learning()
}

fn run_arm(fs: &FaultScenario, tolerant: bool, seed: u64) -> ArmResult {
    let sc = scenario_config();
    let mut builder =
        PolicyBuilder::new(sc.clone()).closed_loop(OnlineConfig::default().validated());
    if tolerant {
        builder = builder.fault_tolerance(FaultToleranceConfig::default());
    }
    let policy = builder.build();
    let exp = Experiment {
        faults: Some(fs.plan.clone()),
        ..Experiment::paper_default(seed)
    };
    let store = VirtualStore::paper_default(5);
    let started = Instant::now();
    let mut probe = ErrProbe {
        inner: policy,
        history: Vec::new(),
    };
    let log = exp
        .run(sc.to_sim_config(), &mut probe, &fs.trace, &store)
        .expect("well-formed scenario");
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    let policy = probe.inner;
    let summary = log.summary();
    let periods = period_maes(&probe.history);
    let first_fault = fs.plan.events().first().expect("plans are non-empty").tick / L1_EVERY;
    let last_fault = fs.plan.last_fault_tick().expect("plans are non-empty") / L1_EVERY;
    ArmResult {
        tracking_mae: policy.tracking_error().expect("outcomes were derived"),
        samples: policy.tracking_samples(),
        dropped: summary.total_dropped,
        mean_response: summary.mean_response,
        violation_fraction: summary.violation_fraction,
        deaths: policy.member_deaths(),
        recoveries: policy.member_recoveries(),
        safe_mode_periods: policy.safe_mode_periods(),
        recovery_periods: recovery_periods(&periods, first_fault, last_fault),
        run_ms,
    }
}

fn main() {
    let quick = quick_mode();
    let check = check_mode();
    let threads = llc_par::num_threads();
    // The fault schedules are laid out over the run's fraction marks, so
    // shortening the run squeezes the faults together and thins the
    // post-fault recovery window; 90 periods keeps every scenario's
    // margin comfortable and still runs in seconds, so quick mode keeps
    // the full horizon and only skips the median-of-3 timing runs.
    let buckets = 90;
    let sc = scenario_config();
    let capacity: f64 = sc.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    let scenarios = fault_scenarios(0xFA11, buckets, 120.0, capacity, 4);
    println!("fault benchmark (threads = {threads}, quick = {quick}, periods = {buckets})");

    let mut lines = Vec::new();
    let mut blind_beaten = 0usize;
    let mut recovered = 0usize;
    for fs in &scenarios {
        let mut arms: Vec<ArmResult> = Vec::new();
        for tolerant in [false, true] {
            // The gate consults only tracking MAEs and recovery times,
            // which are fully deterministic (seeded workload, spread and
            // faults) — one run suffices in check/quick mode. The
            // JSON-writing path runs each arm three times and takes the
            // wall-clock median so `run_ms` is de-noised.
            let result = if check || quick {
                run_arm(fs, tolerant, 0xBEEF)
            } else {
                let mut runs = vec![
                    run_arm(fs, tolerant, 0xBEEF),
                    run_arm(fs, tolerant, 0xBEEF),
                    run_arm(fs, tolerant, 0xBEEF),
                ];
                runs.sort_by(|a, b| a.run_ms.total_cmp(&b.run_ms));
                debug_assert!(
                    (runs[0].tracking_mae - runs[2].tracking_mae).abs() < 1e-12,
                    "tracking error must be deterministic"
                );
                runs.swap_remove(1)
            };
            arms.push(result);
        }
        let blind = &arms[0];
        let tol = &arms[1];
        println!(
            "{:<17} blind MAE {:>9.3} ({:>6} drops)  tolerant MAE {:>9.3} ({:>6} drops)  \
             {:.2}x better, {} deaths/{} rejoins, recovery {} periods",
            fs.name,
            blind.tracking_mae,
            blind.dropped,
            tol.tracking_mae,
            tol.dropped,
            blind.tracking_mae / tol.tracking_mae.max(1e-12),
            tol.deaths,
            tol.recoveries,
            tol.recovery_periods
                .map_or("—".to_string(), |p| p.to_string()),
        );
        if tol.tracking_mae < blind.tracking_mae {
            blind_beaten += 1;
        }
        if tol.recovery_periods.is_some_and(|p| p <= RECOVERY_BOUND) {
            recovered += 1;
        }
        lines.push(json_entry(fs.name, "blind", blind));
        lines.push(json_entry(fs.name, "tolerant", tol));
    }

    let total = scenarios.len();
    if check {
        let mut failed = false;
        if blind_beaten == total {
            println!("gate ok  fault-tolerant beats fault-blind on {total}/{total} scenarios");
        } else {
            eprintln!(
                "REGRESSION fault-tolerant beats fault-blind on only {blind_beaten}/{total} \
                 scenarios"
            );
            failed = true;
        }
        if recovered == total {
            println!(
                "gate ok  tracking recovers within {RECOVERY_BOUND} L1 periods of the last \
                 fault on {total}/{total} scenarios"
            );
        } else {
            eprintln!(
                "REGRESSION tracking recovers within {RECOVERY_BOUND} L1 periods on only \
                 {recovered}/{total} scenarios"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if quick {
        println!("(quick mode: BENCH_faults.json not rewritten)");
        return;
    }

    let ft = FaultToleranceConfig::default();
    let json = format!(
        "{{\n  {runner},\n  \"config\": {{\n    \"cluster\": \"single_module(4), coarse learning\",\n    \"periods\": {buckets},\n    \"period_seconds\": 120,\n    \"suspect_after\": {sa},\n    \"telemetry_quorum\": {tq},\n    \"recovery_bound_l1_periods\": {RECOVERY_BOUND},\n    \"recovery_factor\": {RECOVERY_FACTOR},\n    \"timing\": \"median of 3 runs per arm\"\n  }},\n  \"results\": {{\n{body}\n  }}\n}}\n",
        runner = runner_json(threads),
        sa = ft.suspect_after,
        tq = ft.telemetry_quorum,
        body = lines.join(",\n"),
    );
    std::fs::write("BENCH_faults.json", json).expect("cannot write BENCH_faults.json");
    println!("wrote BENCH_faults.json");
}
