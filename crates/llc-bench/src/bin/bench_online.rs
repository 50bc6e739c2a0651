//! Online-learning trajectory under drift: offline-only vs
//! online-updated abstraction maps across the three canonical drift
//! scenarios (`llc_workload::drift_scenarios`). For each control period
//! the map is queried at the operating point the controller would see
//! (nominal ĉ — capacity drift is invisible to demand telemetry), the
//! *drifted* plant generates the realized outcome,
//! and the online map absorbs it prequentially (error measured before the
//! update). Emits machine-readable `BENCH_online.json` at the workspace
//! root; `--quick` shortens the run (no JSON rewrite); `--check` gates:
//! exit non-zero unless online tracking error beats offline-only on at
//! least two scenarios.

use llc_bench::report::{check_mode, quick_mode, runner_json};
use llc_cluster::{
    AbstractionMap, FrequencyProfile, GEntry, L0Config, L0Controller, LearnSpec, MemberSpec,
};
use llc_core::OnlineConfig;
use llc_workload::{drift_scenarios, DriftScenario};
use std::time::Instant;

/// Tracking comparison over one scenario.
struct RunResult {
    offline_mae: f64,
    online_mae: f64,
    update_ns: f64,
    updates_applied: usize,
    periods: usize,
}

impl RunResult {
    fn improvement(&self) -> f64 {
        if self.online_mae > 0.0 {
            self.offline_mae / self.online_mae
        } else {
            f64::INFINITY
        }
    }
}

/// Replay one drift scenario: every bucket is one L1 period. The plant's
/// realized outcome comes from the analytic L0 model at the *drifted*
/// effective service time `ĉ / scale` (a machine at 70% capacity takes
/// 1/0.7 longer per request); both maps are queried at the nominal key.
fn run_scenario(
    scenario: &DriftScenario,
    spec: &MemberSpec,
    learn: LearnSpec,
    cfg: &OnlineConfig,
) -> RunResult {
    let l0 = L0Config::paper_default();
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    let offline = AbstractionMap::learn(&l0, &spec.phis, c_range, lambda_max, q_max, learn);
    let mut online = offline.clone();
    let c_nom = spec.c_prior;
    let steps_per_period = 4;
    let mut q = 0.0f64;
    let (mut off_err, mut on_err) = (0.0, 0.0);
    let mut update_time = std::time::Duration::ZERO;
    let mut applied = 0usize;
    let periods = scenario.trace.len();
    for k in 0..periods {
        let lambda = scenario.trace.rate(k);
        let scale = scenario.scale_at(k);
        let (cost, power, final_q) = L0Controller::simulate_model(
            &l0,
            &spec.phis,
            q,
            lambda,
            c_nom / scale,
            steps_per_period,
        );
        let truth = GEntry {
            cost,
            power,
            final_q,
        };
        off_err += (offline.query(lambda, c_nom, q).cost - truth.cost).abs();
        on_err += (online.query(lambda, c_nom, q).cost - truth.cost).abs();
        let started = Instant::now();
        let w = online.update_online(lambda, c_nom, q, truth, cfg);
        update_time += started.elapsed();
        if w > 0.0 {
            applied += 1;
        }
        if cfg.decay_every > 0 && (k as u64 + 1).is_multiple_of(cfg.decay_every) {
            online.decay_confidence(cfg.decay_factor);
        }
        q = truth.final_q;
    }
    RunResult {
        offline_mae: off_err / periods as f64,
        online_mae: on_err / periods as f64,
        update_ns: update_time.as_secs_f64() * 1e9 / periods as f64,
        updates_applied: applied,
        periods,
    }
}

fn main() {
    let quick = quick_mode();
    let check = check_mode();
    let threads = llc_par::num_threads();
    let spec = MemberSpec::paper_default(FrequencyProfile::TallEight);
    let learn = if quick {
        LearnSpec::coarse()
    } else {
        LearnSpec::default()
    };
    let buckets = if quick { 150 } else { 600 };
    let cfg = OnlineConfig::default().validated();
    // Peak near 45% of the machine's nominal capacity: stable throughout
    // the drift range, so queries stay inside the trained grid.
    let peak_rate = 0.45 / spec.c_prior;
    let scenarios = drift_scenarios(0xD21F7, buckets, 120.0, peak_rate);
    println!(
        "online-learning benchmark (threads = {threads}, quick = {quick}, periods = {buckets})"
    );

    let mut lines = Vec::new();
    let mut wins = 0usize;
    for scenario in &scenarios {
        let r = run_scenario(scenario, &spec, learn, &cfg);
        println!(
            "{:<22}  offline MAE {:>8.3}  online MAE {:>8.3}  ({:.1}x better, \
             {:.0} ns/update, {}/{} applied)",
            scenario.name,
            r.offline_mae,
            r.online_mae,
            r.improvement(),
            r.update_ns,
            r.updates_applied,
            r.periods,
        );
        if r.online_mae < r.offline_mae {
            wins += 1;
        }
        lines.push(format!(
            "    \"{}\": {{\n      \"offline_mae\": {:.4},\n      \"online_mae\": {:.4},\n      \"improvement\": {:.3},\n      \"update_ns\": {:.1},\n      \"updates_applied\": {},\n      \"periods\": {}\n    }}",
            scenario.name,
            r.offline_mae,
            r.online_mae,
            r.improvement(),
            r.update_ns,
            r.updates_applied,
            r.periods,
        ));
    }

    if check {
        // The acceptance invariant this repo commits to: online tracking
        // beats offline-only on at least two drift scenarios.
        if wins < 2 {
            eprintln!("REGRESSION: online beats offline on only {wins}/3 drift scenarios (need 2)");
            std::process::exit(1);
        }
        println!("gate ok: online beats offline on {wins}/3 drift scenarios");
        return;
    }
    if quick {
        println!("(quick mode: BENCH_online.json not rewritten)");
        return;
    }

    let json = format!(
        "{{\n  {runner},\n  \"config\": {{\n    \"learning_rate\": {lr},\n    \"prior_weight\": {pw},\n    \"decay_factor\": {df},\n    \"decay_every\": {de},\n    \"periods\": {buckets},\n    \"period_seconds\": 120\n  }},\n  \"results\": {{\n{body}\n  }}\n}}\n",
        runner = runner_json(threads),
        lr = cfg.learning_rate,
        pw = cfg.prior_weight,
        df = cfg.decay_factor,
        de = cfg.decay_every,
        body = lines.join(",\n"),
    );
    std::fs::write("BENCH_online.json", json).expect("cannot write BENCH_online.json");
    println!("wrote BENCH_online.json");
}
