//! The paper's evaluation as one table of rows, run in the order of
//! [`ROWS`] (the crate docs say which artifact each reproduces). Every
//! row prints its rendering and notes and writes its CSVs under
//! `results/`; the last seven also judge a claim ([`llc_bench::claims`]).
//! The bin prints each verdict, runs every row, and exits 1 after the
//! last one if any claim failed. Positional arguments name the rows to
//! run (all by default); `--quick` shortens the runs (coarse learning
//! grids, truncated traces).
//!
//! A hierarchy run executes once per spec and scenario, and every row
//! that asks for it reads the same policy and log: at default scale one
//! module run serves `fig4`, `fig5`, `ablation_horizon`'s N = 3 arm and
//! `baseline_table`'s LLC arm, and one cluster run serves `fig6` and
//! `fig7`. The last three rows run their own arms: `online_maps` a bare
//! map pair, `closed_loop` and `fault_tolerance` the drift and fault
//! families of `RunSpec`.

use llc_bench::centralized::{joint_candidate_count, CentralizedPolicy};
use llc_bench::claims::{self, BaselineRow, ComplexityRow};
use llc_bench::report::{ascii_plot, ascii_plot_multi, ms, quick_mode, write_csv};
use llc_cluster::{
    AbstractionMap, AccuracyStats, AlwaysMaxPolicy, Cadence, ClusterPolicy, ComputerProfile,
    DirectiveKind, ExperimentLog, ExperimentSummary, Family, FrequencyProfile, GEntry,
    HierarchicalPolicy, L0Config, L0Controller, L1Config, LearnSpec, LocalLinearTrend, MemberSpec,
    Observations, PolicyMetrics, Preset, RunSpec, ScenarioConfig, ThresholdPolicy,
};
use llc_core::OnlineConfig;
use llc_workload::{drift_scenarios, wc98_like_day, DriftScenario};
use std::time::Duration;

/// Master seed of every row's workload and experiment.
const FIGURE_SEED: u64 = 2006;

/// `family` (the §4.3 module run behind Figs. 4 and 5, or the §5.2
/// cluster run behind Figs. 6 and 7) at [`FIGURE_SEED`]; in `--quick`
/// mode on the coarse learning grids and cut to `quick_buckets`.
fn figure_spec(family: Family, quick_buckets: usize) -> RunSpec {
    let spec = RunSpec::new(family, FIGURE_SEED);
    if !quick_mode() {
        return spec;
    }
    RunSpec {
        buckets: quick_buckets,
        coarse_learning: true,
        ..spec
    }
}

/// A finished hierarchy run: the policy (its statistics) and the log.
struct Run {
    policy: HierarchicalPolicy,
    log: ExperimentLog,
}

/// The hierarchy runs the rows asked for, each executed once.
#[derive(Default)]
struct Runs(Vec<(RunSpec, ScenarioConfig, Run)>);

impl Runs {
    /// The hierarchy built for `scenario`, run over `spec`'s plant.
    fn hierarchy(&mut self, spec: RunSpec, scenario: ScenarioConfig) -> &Run {
        let seen = self
            .0
            .iter()
            .position(|(s, sc, _)| (s, sc) == (&spec, &scenario));
        let i = seen.unwrap_or_else(|| {
            let mut policy = HierarchicalPolicy::build(&scenario);
            let log = spec.run(&mut policy);
            self.0.push((spec, scenario, Run { policy, log }));
            self.0.len() - 1
        });
        &self.0[i].2
    }

    /// The paper's stack (`Preset::Paper`) over `spec`.
    fn paper(&mut self, spec: RunSpec) -> &Run {
        self.hierarchy(spec, spec.scenario_config())
    }
}

/// A claim row's claim and its verdict; `None` from a figure row.
type Verdict = Option<(&'static str, Result<(), String>)>;

/// A row: renders its artifact, reading the runs it needs.
type Row = fn(&mut Runs) -> Verdict;

/// The rows, in the order they run.
const ROWS: [(&str, Row); 13] = [
    ("fig1b", fig1b),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablation_horizon", ablation_horizon),
    ("ablation_chatter", ablation_chatter),
    ("baseline_table", baseline_table),
    ("overhead_centralized", overhead_centralized),
    ("online_maps", online_maps),
    ("closed_loop", closed_loop),
    ("fault_tolerance", fault_tolerance),
];

fn main() {
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = wanted.iter().find(|w| ROWS.iter().all(|(n, _)| n != w)) {
        let names = ROWS.map(|(n, _)| n).join(" ");
        eprintln!("unknown row `{unknown}`; rows: {names} [--quick]");
        std::process::exit(2);
    }
    let mut runs = Runs::default();
    let mut violated = false;
    for (_, row) in ROWS
        .iter()
        .filter(|(n, _)| wanted.is_empty() || wanted.contains(&n.to_string()))
    {
        match row(&mut runs) {
            Some((claim, Ok(()))) => println!("claim holds: {claim}"),
            Some((claim, Err(why))) => {
                eprintln!("CLAIM VIOLATED: {claim} — {why}");
                violated = true;
            }
            None => {}
        }
    }
    if violated {
        std::process::exit(1);
    }
}

/// Fig. 1(b): a sample WC'98 day — HTTP requests at 2-minute buckets.
fn fig1b(_: &mut Runs) -> Verdict {
    let trace = wc98_like_day(FIGURE_SEED);
    let series: Vec<(f64, f64)> = trace.iter().map(|(t, c)| (t / 3600.0, c)).collect();

    plot(
        "Fig. 1(b) — WC'98-like day (requests per 2-minute bucket vs hour of day)",
        &series,
        20,
    );
    println!("buckets:         {}", trace.len());
    println!("bucket width:    {} s", trace.interval());
    println!("total requests:  {:.0}", trace.total());
    println!("peak bucket:     {:.0} requests", trace.peak());
    println!("mean bucket:     {:.0} requests", trace.mean());
    println!(
        "peak / trough:   {:.1}x",
        trace.peak()
            / trace
                .counts()
                .iter()
                .fold(f64::INFINITY, |a, &c| a.min(c))
                .max(1.0)
    );
    println!("\npaper: strong time-of-day variation, 2-minute granularity, one day.");

    let rows: Vec<String> = trace.iter().map(|(t, c)| format!("{t},{c:.0}")).collect();
    let path = write_csv("fig1b_wc98_day.csv", "time_secs,requests", &rows);
    println!("wrote {}", path.display());
    None
}

/// Fig. 3: the discrete operating frequencies of each computer in the
/// four-computer module.
fn fig3(_: &mut Runs) -> Verdict {
    println!("Fig. 3 — operating frequencies available within each computer\n");
    println!("(the printed table in the paper is an image; we model the cited");
    println!(" parts — AMD K6-2+: 8 settings, Pentium M: 6-10 settings — with");
    println!(" heterogeneous round-valued sets; C4 reaches 2.0 GHz as Fig. 5 shows)\n");

    let mut rows = Vec::new();
    for (i, profile) in FrequencyProfile::module_set().into_iter().enumerate() {
        let cp = ComputerProfile::paper_default(profile);
        let mhz: Vec<String> = profile
            .frequencies()
            .iter()
            .map(|f| format!("{:.0}", f / 1e6))
            .collect();
        println!(
            "C{} ({:?}, speed {:.2}): {} MHz",
            i + 1,
            profile,
            cp.speed,
            mhz.join(", ")
        );
        for f in profile.frequencies() {
            rows.push(format!("C{},{}", i + 1, f));
        }
    }
    let path = write_csv("fig3_frequencies.csv", "computer,frequency_hz", &rows);
    println!("\nwrote {}", path.display());
    None
}

/// Plot points `(x, y)`.
type Points = Vec<(f64, f64)>;

/// Print `series` as a 100-column ASCII plot `height` rows tall.
fn plot(title: &str, series: &[(f64, f64)], height: usize) {
    println!("{}", ascii_plot(title, series, 100, height));
}

/// Machines on at each L1 tick of `run`: with the tick, and as plot
/// points against the L1 tick count.
fn machines_on(run: &Run, sc: &ScenarioConfig) -> (Vec<(u64, usize)>, Points) {
    let per_l1 = sc.l0.ticks_per(sc.l1.period);
    let on = run.log.machines_on(per_l1);
    let points = on
        .iter()
        .map(|&(tick, a)| (tick as f64 / per_l1 as f64, a as f64))
        .collect();
    (on, points)
}

/// The L1's arrival-rate forecast replayed from `log`: the (actual,
/// predicted) rate of every L1 period the run observed, and the filter as
/// the L1 left it. The L1 observes an empty window at tick 0 and then,
/// each `T_L1`, the arrivals of the period just ended; its last period is
/// never observed. Equal to the L1's own forecast only for a single-module
/// run with no faults: there an L2 would feed its split forward in place
/// of the forecast.
fn replay_l1_forecast(
    log: &ExperimentLog,
    sc: &ScenarioConfig,
) -> (Vec<(f64, f64)>, LocalLinearTrend) {
    let per_l1 = sc.l0.ticks_per(sc.l1.period) as usize;
    let mut forecast = LocalLinearTrend::with_default_noise();
    forecast.observe(0.0);
    let observed = log.ticks.len().saturating_sub(1) / per_l1;
    let pairs = log
        .ticks
        .chunks_exact(per_l1)
        .take(observed)
        .map(|period| {
            let arrivals: u64 = period.iter().map(|t| t.arrivals).sum();
            let rate = arrivals as f64 / sc.l1.period;
            let predicted = forecast.predict_one();
            forecast.observe(rate);
            (rate, predicted)
        })
        .collect();
    (pairs, forecast)
}

/// Fig. 4: the synthetic workload with its Kalman predictions (top) and
/// the number of computers operated by the L1 controller (bottom).
fn fig4(runs: &mut Runs) -> Verdict {
    let spec = figure_spec(Family::Module, 200);
    let sc = spec.scenario_config();
    let run = runs.paper(spec);
    let t_l1 = sc.l1.period;

    // Top panel: actual vs predicted arrivals per L1 period.
    let (history, _) = replay_l1_forecast(&run.log, &sc);
    let (actual, predicted): (Vec<_>, Vec<_>) = history
        .iter()
        .enumerate()
        .map(|(k, (a, p))| ((k as f64, a * t_l1), (k as f64, p * t_l1)))
        .unzip();
    println!(
        "{}",
        ascii_plot_multi(
            "Fig. 4 (top) — synthetic workload: actual (a) vs Kalman-predicted (p) \
             requests per 2-minute period",
            &[("a", &actual), ("p", &predicted)],
            100,
            18,
        )
    );

    // Forecast accuracy summary.
    let mut stats = AccuracyStats::new();
    for &(a, p) in &history {
        stats.record(a, p);
    }
    println!(
        "forecast: n={} MAE={:.1} req/s RMSE={:.1} req/s MAPE={:.1}%\n",
        stats.count(),
        stats.mae(),
        stats.rmse(),
        stats.mape() * 100.0
    );

    // Bottom panel: computers operated per L1 tick.
    let (on, active) = machines_on(run, &sc);
    plot(
        "Fig. 4 (bottom) — computers operated by the L1 controller (per 2-minute tick)",
        &active,
        8,
    );

    let s = run.log.summary();
    println!("run summary: {s:?}\n");
    println!("paper: the L1 controller sets α in anticipation of workload fluctuations;");
    println!(
        "measured: active count spans {}..{} computers over the day",
        active.iter().map(|(_, a)| *a as usize).min().unwrap_or(0),
        active.iter().map(|(_, a)| *a as usize).max().unwrap_or(0)
    );

    let rows: Vec<String> = history
        .iter()
        .enumerate()
        .map(|(k, (a, p))| format!("{k},{:.1},{:.1}", a * t_l1, p * t_l1))
        .collect();
    let p1 = write_csv(
        "fig4_workload_forecast.csv",
        "l1_tick,actual,predicted",
        &rows,
    );
    let rows: Vec<String> = on.iter().map(|(tick, a)| format!("{tick},{a}")).collect();
    let p2 = write_csv("fig4_computers_operated.csv", "l0_tick,active", &rows);
    println!("wrote {} and {}", p1.display(), p2.display());
    None
}

/// Fig. 5: the operating frequencies selected by the L0 controller for
/// computer C4 (top) and the achieved response times (bottom).
fn fig5(runs: &mut Runs) -> Verdict {
    let spec = figure_spec(Family::Module, 200);
    let sc = spec.scenario_config();
    let Run { policy, log } = runs.paper(spec);
    let t_l0 = sc.l0.period;
    let c4 = 3; // TallEight — the 2 GHz machine, as in the paper's Fig. 5
    let table = FrequencyProfile::TallEight.frequencies();

    let freq_hz: Vec<(f64, f64)> = log
        .frequency_series(c4)
        .into_iter()
        .map(|(t, idx)| (t / t_l0, table[idx]))
        .collect();
    plot(
        "Fig. 5 (top) — C4 operating frequency (Hz) per 30-second tick",
        &freq_hz,
        14,
    );

    let responses: Vec<(f64, f64)> = log
        .response_series(c4)
        .into_iter()
        .filter_map(|(t, r)| r.map(|r| (t / t_l0, r)))
        .collect();
    plot(
        "Fig. 5 (bottom) — C4 achieved response time (s) per 30-second tick",
        &responses,
        14,
    );

    let target = log.response_target;
    let within = responses.iter().filter(|(_, r)| *r <= target).count();
    println!(
        "response windows within r* = {target} s: {}/{} ({:.1}%)",
        within,
        responses.len(),
        100.0 * within as f64 / responses.len().max(1) as f64
    );
    println!(
        "frequency range exercised: {:.2e}..{:.2e} Hz (table spans {:.2e}..{:.2e})",
        freq_hz.iter().fold(f64::INFINITY, |lo, &(_, f)| lo.min(f)),
        freq_hz.iter().fold(0.0_f64, |hi, &(_, f)| hi.max(f)),
        table[0],
        table[table.len() - 1],
    );
    println!(
        "L0 lookahead: mean {:.0} states explored per decision (horizon {}, {} settings)",
        policy.l0(c4).mean_states_explored(),
        sc.l0.horizon,
        table.len(),
    );

    let rows: Vec<String> = log
        .frequency_series(c4)
        .iter()
        .zip(log.response_series(c4))
        .map(|((t, idx), (_, r))| {
            format!(
                "{t},{},{}",
                table[*idx],
                r.map(|r| format!("{r:.4}")).unwrap_or_default()
            )
        })
        .collect();
    let path = write_csv(
        "fig5_c4_frequency_response.csv",
        "time_secs,frequency_hz,response_s",
        &rows,
    );
    println!("wrote {}", path.display());
    None
}

/// Fig. 6: the WC'98 workload trace and the number of computers operated
/// by the control hierarchy (16 computers in 4 modules).
fn fig6(runs: &mut Runs) -> Verdict {
    let spec = figure_spec(Family::Cluster, 120);
    let sc = spec.scenario_config();
    let run = runs.paper(spec);

    let (_, trace) = spec.experiment_and_trace();
    let workload: Vec<(f64, f64)> = trace.iter().map(|(t, c)| (t / sc.l1.period, c)).collect();
    plot(
        "Fig. 6 (top) — WC'98-like request arrivals per 2-minute bucket",
        &workload,
        16,
    );

    let (on, active) = machines_on(run, &sc);
    plot(
        "Fig. 6 (bottom) — computers operated (of 16) per 2-minute tick",
        &active,
        10,
    );

    let log = &run.log;
    let s = log.summary();
    let min_on = active.iter().map(|(_, a)| *a as usize).min().unwrap_or(0);
    let max_on = active.iter().map(|(_, a)| *a as usize).max().unwrap_or(0);
    println!("run summary: {s:?}");
    println!(
        "active range {min_on}..{max_on} of 16; mean response {:.2} s vs r* = {} s; \
         violation fraction {:.1}%",
        s.mean_response,
        log.response_target,
        s.violation_fraction * 100.0
    );
    println!(
        "paper: 'the desired response time r* = 4 was achieved throughout' with the \
         machine count tracking the workload."
    );

    let rows: Vec<String> = on.iter().map(|(tick, a)| format!("{tick},{a}")).collect();
    let p1 = write_csv("fig6_computers_operated.csv", "l0_tick,active", &rows);
    let rows: Vec<String> = trace.iter().map(|(t, c)| format!("{t},{c:.0}")).collect();
    let p2 = write_csv("fig6_workload.csv", "time_secs,requests", &rows);
    println!("wrote {} and {}", p1.display(), p2.display());
    None
}

/// Fig. 7: the load distribution factor γ_i decided by the L2 controller
/// for each of the four modules.
fn fig7(runs: &mut Runs) -> Verdict {
    let spec = figure_spec(Family::Cluster, 120);
    let sc = spec.scenario_config();
    let run = runs.paper(spec);
    let history = run.log.module_splits();
    assert!(!history.is_empty(), "L2 must have decided at least once");
    let p = history[0].1.len();
    let per_l1 = sc.l0.ticks_per(sc.l1.period) as f64;

    for module in 0..p {
        let series: Vec<(f64, f64)> = history
            .iter()
            .map(|(tick, gamma)| (*tick as f64 / per_l1, gamma[module]))
            .collect();
        plot(
            &format!(
                "Fig. 7 — module {} load fraction γ (per 2-minute L2 tick)",
                module + 1
            ),
            &series,
            8,
        );
        let mean: f64 = series.iter().map(|(_, g)| g).sum::<f64>() / series.len() as f64;
        let lo = series.iter().fold(f64::INFINITY, |lo, &(_, g)| lo.min(g));
        let hi = series.iter().fold(0.0_f64, |hi, &(_, g)| hi.max(g));
        println!(
            "  γ_{}: mean {mean:.2}, range {lo:.1}..{hi:.1}\n",
            module + 1
        );
    }

    // Sanity: every decided split sums to 1.
    for (tick, gamma) in &history {
        let total: f64 = gamma.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "tick {tick}: split sums to {total}"
        );
    }
    if let Some(l2) = run.policy.l2() {
        println!(
            "L2 evaluated {:.0} candidate splits per decision ({} quantum over {p} modules)",
            l2.mean_states_evaluated(),
            sc.l2.gamma_quantum
        );
    }
    println!("paper: fractions quantized at 0.1, adapting with module states while Σγ_i = 1.");

    let rows: Vec<String> = history
        .iter()
        .map(|(tick, gamma)| {
            let cells: Vec<String> = gamma.iter().map(|g| format!("{g:.2}")).collect();
            format!("{tick},{}", cells.join(","))
        })
        .collect();
    let cols: Vec<String> = (1..=p).map(|i| format!("gamma_{i}")).collect();
    let header = format!("l0_tick,{}", cols.join(","));
    let path = write_csv("fig7_module_gammas.csv", &header, &rows);
    println!("wrote {}", path.display());
    None
}

/// Ablation of the L0 prediction horizon: sweep `N_L0 ∈ {1, 2, 3, 4}`
/// (the paper uses 3) on the single-module experiment and report QoS,
/// energy and search cost. The expected trade-off: longer horizons
/// explore exponentially more states for marginal QoS gains.
/// Claim: the L0 states explored per decision grow at least 1.5× with
/// each step of `N` (7 / 15 / 26 / 55 at default scale).
fn ablation_horizon(runs: &mut Runs) -> Verdict {
    println!("Ablation — L0 prediction horizon sweep (paper: N_L0 = 3)\n");
    println!(
        "{:>3} | {:>14} | {:>12} | {:>12} | {:>14}",
        "N", "mean resp (s)", "violations", "energy", "L0 states/dec"
    );
    println!("{}", "-".repeat(70));

    let mut rows = Vec::new();
    let mut search_cost = Vec::new();
    for horizon in [1usize, 2, 3, 4] {
        let spec = figure_spec(Family::Module, 250);
        let mut scenario = spec.scenario_config();
        scenario.l0.horizon = horizon;
        let run = runs.hierarchy(spec, scenario);
        let s = run.log.summary();
        // Mean over the members' lookahead stats.
        let states: f64 = (0..spec.members)
            .map(|i| run.policy.l0(i).mean_states_explored())
            .sum::<f64>()
            / spec.members as f64;
        println!(
            "{horizon:>3} | {:>14.2} | {:>11.1}% | {:>12.0} | {states:>14.0}",
            s.mean_response,
            s.violation_fraction * 100.0,
            s.total_energy,
        );
        rows.push(format!(
            "{horizon},{:.3},{:.4},{:.0},{states:.0}",
            s.mean_response, s.violation_fraction, s.total_energy
        ));
        search_cost.push((horizon, states));
    }

    println!("\nexpected shape: states/decision grows ~|U|^N; QoS plateaus by N = 3.");
    let path = write_csv(
        "ablation_horizon.csv",
        "horizon,mean_response_s,violation_fraction,energy,l0_states_per_decision",
        &rows,
    );
    println!("wrote {}", path.display());
    Some((
        "L0 states per decision grow at least 1.5× with each step of the horizon",
        claims::lookahead_cost_grows_with_horizon(&search_cost),
    ))
}

/// One noisy module run with the uncertainty band on or off: its
/// switch-ons and summary.
fn run_with_band(band: bool) -> (u64, ExperimentSummary) {
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
    (log.total_switch_ons(), log.summary())
}

/// Ablation of the §4.2 chattering mitigation: run the module experiment
/// with the `{λ̂−δ, λ̂, λ̂+δ}` uncertainty band enabled vs disabled and
/// compare switching activity.
///
/// "Such estimation errors may cause the L1 controller to chatter, i.e.,
/// switch computers on and off excessively within short time spans …
/// Clearly, excessive switching is undesirable since it reduces the
/// reliability of a computer."
///
/// Claim: the banded controller switches machines on at most as often as
/// the ablated one. That holds at default scale (82 vs 97 switch-ons);
/// the `--quick` truncation to 250 buckets on coarse grids does not
/// reproduce it (15 vs 14) and fails.
fn ablation_chatter(_: &mut Runs) -> Verdict {
    println!("Ablation — §4.2 chattering mitigation (uncertainty band) on a noisy workload\n");
    let (sw_on, on) = run_with_band(true);
    let (sw_off, off) = run_with_band(false);

    println!(
        "{:<22} | {:>12} | {:>14} | {:>12} | {:>12}",
        "variant", "switch-ons", "mean resp (s)", "violations", "energy"
    );
    println!("{}", "-".repeat(84));
    let mut rows = Vec::new();
    for (variant, name, switch_ons, s) in [
        ("band (paper)", "band", sw_on, on),
        ("no band (ablated)", "no_band", sw_off, off),
    ] {
        let (resp, viol, energy) = (s.mean_response, s.violation_fraction, s.total_energy);
        println!(
            "{variant:<22} | {switch_ons:>12} | {resp:>14.2} | {:>11.1}% | {energy:>12.0}",
            viol * 100.0
        );
        rows.push(format!(
            "{name},{switch_ons},{resp:.3},{viol:.4},{energy:.0}"
        ));
    }
    println!();
    println!(
        "expected shape: the banded controller switches at most as often as the \
         ablated one\nunder forecast noise, at comparable QoS."
    );

    let path = write_csv(
        "ablation_chatter.csv",
        "variant,switch_ons,mean_response_s,violation_fraction,energy",
        &rows,
    );
    println!("wrote {}", path.display());
    Some((
        "switch-ons with the uncertainty band <= without it",
        claims::band_switches_no_more(sw_on, sw_off),
    ))
}

/// The row `baseline_table` prints for one policy's run.
fn baseline_row(log: &ExperimentLog) -> BaselineRow {
    let s = log.summary();
    BaselineRow {
        name: log.policy.clone(),
        mean_response: s.mean_response,
        violations: s.violation_fraction,
        energy: s.total_energy,
        switch_ons: log.total_switch_ons(),
        dropped: s.total_dropped,
    }
}

/// The headline comparison: hierarchical LLC vs the reactive threshold
/// heuristic (Pinheiro'01/Elnozahy'02 style) vs always-on/max-frequency,
/// on the synthetic module workload.
///
/// The paper's claim to reproduce in shape: the LLC controller meets the
/// response-time goal while consuming substantially less energy than an
/// uncontrolled cluster, and manages switching more deliberately than a
/// threshold heuristic. The energy half of that is the claim:
/// energy(LLC) < energy(threshold) ≤ energy(always-max) with no request
/// dropped.
fn baseline_table(runs: &mut Runs) -> Verdict {
    let spec = figure_spec(Family::Module, 250);
    let scenario = spec.scenario_config();
    let baseline = |policy: &mut dyn ClusterPolicy| baseline_row(&spec.run(policy));

    let rows = [
        baseline_row(&runs.paper(spec).log),
        baseline(&mut ThresholdPolicy::for_scenario(&scenario)),
        baseline(&mut AlwaysMaxPolicy::for_scenario(&scenario)),
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

    println!(
        "\nenergy: LLC uses {:.0}% of always-max; shape check: LLC < threshold <= always-max \
         while holding r*.",
        100.0 * rows[0].energy / rows[2].energy
    );

    let path = write_csv(
        "baseline_table.csv",
        "policy,mean_response_s,violation_fraction,energy,switch_ons,dropped",
        &csv,
    );
    println!("wrote {}", path.display());
    Some((
        "energy(LLC) < energy(threshold) <= energy(always-max), nothing dropped",
        claims::llc_saves_energy(&rows),
    ))
}

/// The paper's §3 dimensionality argument, measured: a centralized
/// controller jointly deciding `{α, γ, u}` for every computer vs the
/// hierarchical decomposition, on the same module scenario.
///
/// "Where a centralized controller must decide the variables {γ, α, u}
/// for each of the n computers in the cluster, in our method, the L2
/// controller only decides a single-dimensional variable {γ} for k
/// modules … Similarly, the L1 controller decides control variables only
/// for those computers within its module."
///
/// Claim: as the row's claim text says (620 → 14 790 centralized vs
/// 59 → 139 hierarchical states at default scale). The `--quick`
/// truncation to 200 buckets barely leaves the m = 4 start-up (4 → 46
/// hierarchical states) and fails the growth leg.
fn overhead_centralized(runs: &mut Runs) -> Verdict {
    println!("§3 — centralized vs hierarchical decision complexity\n");

    // Analytic joint-candidate counts (γ quantum 0.1): the curse of
    // dimensionality in one column.
    println!(
        "{:>3} | {:>26} | {:>16}",
        "m", "centralized candidates", "hierarchy (≈)"
    );
    println!("{}", "-".repeat(56));
    for m in [2usize, 4, 6, 8, 10, 16] {
        // The hierarchy's L1 evaluates candidate-α (≈ m + pairs) × γ
        // neighborhood rounds — hundreds, independent of 2^m.
        println!(
            "{m:>3} | {:>26} | {:>16}",
            joint_candidate_count(m, 10),
            "~10^2 - 10^3"
        );
    }

    // Measured head-to-head on m = 4 and m = 6.
    println!("\nmeasured (same workload, same plant):\n");
    println!(
        "{:<18} | {:>3} | {:>14} | {:>13} | {:>12} | {:>12}",
        "policy", "m", "states/dec", "decision", "mean resp", "energy"
    );
    println!("{}", "-".repeat(90));

    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for m in [4usize, 6] {
        // The workload scaled to m machines, cut to its first 600
        // buckets (200 under --quick).
        let spec = figure_spec(Family::Module, 200);
        let spec = RunSpec {
            members: m,
            buckets: spec.buckets.min(600),
            ..spec
        };

        let mut report = |policy: &str, states: f64, decide: Duration, s: ExperimentSummary| {
            println!(
                "{policy:<18} | {m:>3} | {states:>14.0} | {:>13} | {:>12.2} | {:>12.0}",
                ms(decide),
                s.mean_response,
                s.total_energy
            );
            rows.push(format!(
                "{policy},{m},{states:.0},{:.6},{:.3},{:.0}",
                decide.as_secs_f64(),
                s.mean_response,
                s.total_energy
            ));
        };

        // Hierarchical.
        let h = runs.paper(spec);
        let h_states = h.policy.l1(0).mean_states_evaluated();
        let h_decide = h.policy.metrics().level_overhead[1].mean();
        report("hierarchical", h_states, h_decide, h.log.summary());

        // Centralized.
        let scenario = spec.scenario_config();
        let mut c = CentralizedPolicy::new(&scenario);
        let log_c = spec.run(&mut c);
        // Decide time of the joint decisions alone, as the hierarchy's
        // L1 overhead is: the ticks between them only refresh filters.
        let joint_every = scenario.l0.ticks_per(scenario.l1.period);
        let joint: Vec<Duration> = log_c
            .ticks
            .iter()
            .filter(|t| t.tick.is_multiple_of(joint_every))
            .map(|t| t.decision_time)
            .collect();
        let c_decide = joint.iter().sum::<Duration>() / joint.len().max(1) as u32;
        let c_states = c.mean_states_evaluated();
        report("centralized", c_states, c_decide, log_c.summary());
        measured.push(ComplexityRow {
            m,
            hier_states: h_states,
            hier_decide_s: h_decide.as_secs_f64(),
            cent_states: c_states,
            cent_decide_s: c_decide.as_secs_f64(),
        });
    }

    println!("\nshape to observe: centralized candidates grow exponentially in m while");
    println!("the hierarchy stays near-constant; both meet QoS at small m, only the");
    println!("hierarchy remains viable at cluster scale.");
    let path = write_csv(
        "overhead_centralized.csv",
        "policy,m,states_per_decision,decision_s,mean_response_s,energy",
        &rows,
    );
    println!("wrote {}", path.display());
    Some((
        "centralized states/decision grow >= 10x from m = 4 to 6, the hierarchy's < 4x, \
         and the hierarchy decides faster at both",
        claims::hierarchy_scales_better(&measured),
    ))
}

/// One drift scenario's map comparison: tracking MAE of the offline-only
/// and the online-updated map, and how many online updates applied.
struct MapTracking {
    offline_mae: f64,
    online_mae: f64,
    updates_applied: usize,
}

/// Replay one drift scenario on a bare map pair: every bucket is one L1
/// period. The plant's realized outcome comes from the analytic L0 model
/// at the *drifted* effective service time `ĉ / scale` (a machine at 70%
/// capacity takes 1/0.7 longer per request); both maps are queried at
/// the nominal key, since capacity drift is invisible to demand
/// telemetry, and the online map absorbs the outcome after its error is
/// counted.
fn track_drift(scenario: &DriftScenario, spec: &MemberSpec, learn: LearnSpec) -> MapTracking {
    let l0 = L0Config::paper_default();
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    let steps_per_period = l0.ticks_per(L1Config::paper_default().period) as usize;
    let offline = AbstractionMap::learn(
        &l0,
        steps_per_period,
        &spec.phis,
        c_range,
        lambda_max,
        q_max,
        learn,
    );
    let mut online = offline.clone();
    let c_nom = spec.c_prior;
    let mut q = 0.0f64;
    let (mut off_err, mut on_err) = (0.0, 0.0);
    let mut updates_applied = 0usize;
    let periods = scenario.trace.len();
    for k in 0..periods {
        let lambda = scenario.trace.rate(k);
        let (cost, power, final_q) = L0Controller::simulate_model(
            &l0,
            &spec.phis,
            q,
            lambda,
            c_nom / scenario.scale_at(k),
            steps_per_period,
        );
        let truth = GEntry {
            cost,
            power,
            final_q,
        };
        off_err += (offline.query(lambda, c_nom, q).cost - truth.cost).abs();
        on_err += (online.query(lambda, c_nom, q).cost - truth.cost).abs();
        if online.update_online(lambda, c_nom, q, truth, &OnlineConfig) > 0.0 {
            updates_applied += 1;
        }
        q = truth.final_q;
    }
    MapTracking {
        offline_mae: off_err / periods as f64,
        online_mae: on_err / periods as f64,
        updates_applied,
    }
}

/// Online learning under drift, on the map alone: an offline-only and an
/// online-updated abstraction map track one machine through the three
/// canonical drift scenarios (`llc_workload::drift_scenarios`), 600 L1
/// periods each (150 on the coarse grids under `--quick`).
/// Claim: the online map tracks better on at least two of the three.
fn online_maps(_: &mut Runs) -> Verdict {
    let quick = quick_mode();
    let spec = MemberSpec::paper_default(FrequencyProfile::TallEight);
    let learn = if quick {
        LearnSpec::coarse()
    } else {
        LearnSpec::default()
    };
    let buckets = if quick { 150 } else { 600 };
    // Peak near 45% of the machine's nominal capacity: stable throughout
    // the drift range, so queries stay inside the trained grid.
    let peak_rate = 0.45 / spec.c_prior;
    println!("Online maps — offline-only vs online-updated map under drift ({buckets} periods)\n");
    let mut maes = Vec::new();
    let mut rows = Vec::new();
    for scenario in drift_scenarios(0xD21F7, buckets, 120.0, peak_rate) {
        let r = track_drift(&scenario, &spec, learn);
        println!(
            "{:<22}  offline MAE {:>8.3}  online MAE {:>8.3}  ({:.1}x better, {}/{} applied)",
            scenario.name,
            r.offline_mae,
            r.online_mae,
            r.offline_mae / r.online_mae,
            r.updates_applied,
            buckets,
        );
        rows.push(format!(
            "{},{:.4},{:.4},{},{buckets}",
            scenario.name, r.offline_mae, r.online_mae, r.updates_applied
        ));
        maes.push((r.offline_mae, r.online_mae));
    }
    let path = write_csv(
        "online_maps.csv",
        "scenario,offline_mae,online_mae,updates_applied,periods",
        &rows,
    );
    println!("wrote {}", path.display());
    Some((
        "online-updated maps track drift better than offline-only on at least 2 of 3 scenarios",
        claims::online_maps_beat_offline(&maes),
    ))
}

/// A `closed_loop` arm's name in the printed lines and the CSV.
fn arm_name(arm: Preset) -> &'static str {
    match arm {
        Preset::Paper => "offline",
        Preset::ClosedLoop => "closed",
        Preset::SelfHealing => "selfheal",
        Preset::DriftAware => "drift",
        _ => unreachable!("{arm:?} is not an arm of the closed_loop row"),
    }
}

/// One `closed_loop` arm's run.
struct TrackedArm {
    preset: Preset,
    tracking_mae: f64,
    samples: u64,
    online_updates: u64,
    detections: u64,
    /// Frequency switches summed over computers — the deep-degradation
    /// limit-cycle measure.
    freq_switches: usize,
    mean_response_s: f64,
    violation_fraction: f64,
    /// Energy per injected request (power·s).
    energy_per_req: f64,
}

fn run_tracked(spec: &RunSpec, preset: Preset) -> TrackedArm {
    let mut policy = spec.policy(preset);
    let log = spec.run(&mut policy);
    let summary = log.summary();
    let metrics = policy.metrics();
    TrackedArm {
        preset,
        tracking_mae: metrics.tracking_error.expect("outcomes were derived"),
        samples: metrics.tracking_samples,
        online_updates: metrics.online_updates,
        detections: metrics.drift_detections(),
        freq_switches: log.frequency_switches(),
        mean_response_s: summary.mean_response,
        violation_fraction: summary.violation_fraction,
        energy_per_req: summary.total_energy / summary.total_arrivals.max(1) as f64,
    }
}

/// One indented line per arm of `spec` (its tracking MAE beside what the
/// plant got) and one CSV row each.
fn report_arms(spec: &RunSpec, arms: &[TrackedArm], csv: &mut Vec<String>) {
    for r in arms {
        println!(
            "    {:<9} MAE {:>8.3}  resp {:>7.3} s  viol {:>5.3}  energy/req {:.5}",
            arm_name(r.preset),
            r.tracking_mae,
            r.mean_response_s,
            r.violation_fraction,
            r.energy_per_req,
        );
        csv.push(format!(
            "{},{},{:.4},{:.4},{:.4},{:.6},{},{},{},{}",
            spec.name(),
            arm_name(r.preset),
            r.tracking_mae,
            r.mean_response_s,
            r.violation_fraction,
            r.energy_per_req,
            r.samples,
            r.online_updates,
            r.detections,
            r.freq_switches,
        ));
    }
}

/// The full hierarchy closed over the drifting plant, in three arms per
/// drift scenario of `RunSpec::defaults(Family::ClosedLoop(_))`, 150 L1
/// periods each (60 under `--quick`):
///
/// * **offline** — `Preset::Paper`, the train-once controller: it derives
///   realized outcomes and tracks its prequential prediction error like
///   every hierarchy, but never learns from them;
/// * **closed** — `Preset::ClosedLoop`: the hierarchy absorbs its own
///   outcomes in-loop, with zero harness code;
/// * **drift** — the drift-aware L0 with no learning.
///
/// A fourth scenario, deep degradation (capacity steps to half of
/// nominal while the load still fits the degraded plant), runs the
/// closed loop against **selfheal** (`Preset::SelfHealing`: the same
/// loop over the drift-aware L0), and the drift arm. Every arm prints
/// mean response, violation fraction and energy per request beside its
/// tracking MAE; the claim reads only the MAEs and switch counts.
/// Claim: the closed loop tracks better than offline on every drift
/// scenario, and self-healing tracks strictly better than the drift-blind
/// closed loop on deep degradation without switching frequencies more.
fn closed_loop(_: &mut Runs) -> Verdict {
    let buckets = if quick_mode() { 60 } else { 150 };
    // The drift family peaks near 55% of the two-machine module's
    // nominal capacity: heavy enough that the 0.65–0.7× capacity drifts
    // bite, light enough that the plant stays inside the trained envelope
    // most of the run.
    let spec = |scenario| RunSpec {
        buckets,
        ..RunSpec::defaults(Family::ClosedLoop(scenario))
    };
    println!(
        "Closed loop — offline-only vs in-hierarchy learning under drift ({buckets} periods)\n"
    );
    let mut csv = Vec::new();
    let mut drift = Vec::new();
    for scenario in (0..3).map(spec) {
        let arms = [Preset::Paper, Preset::ClosedLoop, Preset::DriftAware]
            .map(|preset| run_tracked(&scenario, preset));
        let (offline, closed) = (&arms[0], &arms[1]);
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
        report_arms(&scenario, &arms, &mut csv);
        drift.push((offline.tracking_mae, closed.tracking_mae));
    }

    // Deep degradation: the drift-blind closed loop limit-cycles here,
    // its queue model believing in capacity the plant stopped delivering.
    let deep = spec(3);
    let arms = [Preset::ClosedLoop, Preset::SelfHealing, Preset::DriftAware]
        .map(|preset| run_tracked(&deep, preset));
    let (closed, heal) = (&arms[0], &arms[1]);
    println!(
        "{:<22} closed MAE {:>8.3} ({} switches)  selfheal MAE {:>8.3} ({} switches)  \
         ({:.1}x better)",
        deep.name(),
        closed.tracking_mae,
        closed.freq_switches,
        heal.tracking_mae,
        heal.freq_switches,
        closed.tracking_mae / heal.tracking_mae.max(1e-12),
    );
    report_arms(&deep, &arms, &mut csv);
    let path = write_csv(
        "closed_loop.csv",
        "scenario,arm,tracking_mae,mean_response_s,violation_fraction,energy_per_req,\
         samples,online_updates,drift_detections,freq_switches",
        &csv,
    );
    println!("wrote {}", path.display());
    Some((
        "the closed loop tracks better than offline-only on 3 of 3 drift scenarios; on deep \
         degradation self-healing tracks strictly better with no more frequency switches",
        claims::closed_loop_beats_offline(
            &drift,
            [
                (closed.tracking_mae, closed.freq_switches),
                (heal.tracking_mae, heal.freq_switches),
            ],
        ),
    ))
}
/// Records the cumulative prequential error after every L1 tick — the
/// only ticks that derive outcomes — so the per-L1-period error
/// trajectory (and hence recovery time) can be reconstructed without
/// touching the hierarchy's internals.
struct ErrProbe {
    inner: HierarchicalPolicy,
    /// `(tick, err_sum, err_n)` after each L1 decide.
    history: Vec<(u64, f64, u64)>,
}

impl ClusterPolicy for ErrProbe {
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        let kinds = self.inner.decide(obs);
        if self.inner.cadence().is_l1_tick(obs.tick) {
            let metrics = self.inner.metrics();
            let n = metrics.tracking_samples;
            let sum = metrics.tracking_error.unwrap_or(0.0) * n as f64;
            self.history.push((obs.tick, sum, n));
        }
        kinds
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

/// One `fault_tolerance` arm's run.
struct FaultArm {
    tracking_mae: f64,
    samples: u64,
    dropped: u64,
    mean_response_s: f64,
    violation_fraction: f64,
    deaths: u64,
    recoveries: u64,
    safe_mode_periods: u64,
    recovery_periods: Option<u64>,
}

/// `preset` over the fault run `spec`, its recovery measured from the
/// first and last scheduled fault.
fn run_faulted(spec: &RunSpec, preset: Preset) -> FaultArm {
    let sc = spec.scenario_config();
    let l1_every = sc.l0.ticks_per(sc.l1.period);
    let plan = spec.experiment_and_trace().0.faults.expect("a fault run");
    let first_fault = plan.events().first().expect("plans are non-empty").tick / l1_every;
    let last_fault = plan.last_fault_tick().expect("plans are non-empty") / l1_every;
    let mut probe = ErrProbe {
        inner: spec.policy(preset),
        history: Vec::new(),
    };
    let log = spec.run(&mut probe);
    let metrics = probe.inner.metrics();
    let summary = log.summary();
    FaultArm {
        tracking_mae: metrics.tracking_error.expect("outcomes were derived"),
        samples: metrics.tracking_samples,
        dropped: summary.total_dropped,
        mean_response_s: summary.mean_response,
        violation_fraction: summary.violation_fraction,
        deaths: metrics.member_deaths,
        recoveries: metrics.member_recoveries,
        safe_mode_periods: metrics.safe_mode_periods,
        recovery_periods: claims::recovery_periods(
            &probe.history,
            l1_every,
            first_fault,
            last_fault,
        ),
    }
}

/// The churn-hardened hierarchy against the fault-blind closed loop on
/// the four canonical fault scenarios of `llc_workload::fault_scenarios`
/// (crash-restart, rolling blackout, flapping member, stuck actuator
/// with noisy sensors), at experiment seed `0xBEEF` over the fault
/// family's store seed. Both arms run the closed loop; the **tolerant**
/// arm (`Preset::FaultTolerant`) adds the watchdog stack — suspect
/// counting, dead-member exclusion from the L1 search, a one-shot L2
/// hysteresis relaxation on membership change, telemetry-gated
/// estimators and the safe-mode fallback — while the **blind** arm
/// takes blank windows and crashed machines at face value.
///
/// The realized cost behind the tracking MAE prices dropped traffic:
/// every request a machine refused is charged a client timeout's worth
/// of slack, or a controller that routes into a dead machine would
/// grade better. Recovery is [`claims::recovery_periods`] of the
/// tolerant arm. The schedules are laid out over the run's fraction
/// marks, so a shorter run would squeeze the faults together and thin
/// the recovery window: the row runs 90 L1 periods at either scale.
/// Claim: the tolerant arm tracks better on every scenario and recovers
/// within 20 L1 periods of the last fault.
fn fault_tolerance(_: &mut Runs) -> Verdict {
    let buckets = 90;
    println!("Fault tolerance — fault-blind vs fault-tolerant closed loop ({buckets} periods)\n");
    let mut csv = Vec::new();
    let mut verdicts = Vec::new();
    for spec in (0..4).map(|i| RunSpec {
        seed: 0xBEEF,
        buckets,
        ..RunSpec::defaults(Family::Faults(i))
    }) {
        let arms = [Preset::ClosedLoop, Preset::FaultTolerant].map(|p| run_faulted(&spec, p));
        let [blind, tol] = &arms;
        println!(
            "{:<17} blind MAE {:>9.3} ({:>6} drops)  tolerant MAE {:>9.3} ({:>6} drops)  \
             {:.2}x better, {} deaths/{} rejoins, recovery {} periods",
            spec.name(),
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
        for (arm, r) in ["blind", "tolerant"].into_iter().zip(&arms) {
            csv.push(format!(
                "{},{arm},{:.4},{},{},{:.4},{:.4},{},{},{},{}",
                spec.name(),
                r.tracking_mae,
                r.samples,
                r.dropped,
                r.mean_response_s,
                r.violation_fraction,
                r.deaths,
                r.recoveries,
                r.safe_mode_periods,
                r.recovery_periods.map_or(String::new(), |p| p.to_string()),
            ));
        }
        verdicts.push((blind.tracking_mae, tol.tracking_mae, tol.recovery_periods));
    }
    let path = write_csv(
        "fault_tolerance.csv",
        "scenario,arm,tracking_mae,samples,dropped,mean_response_s,violation_fraction,\
         member_deaths,member_recoveries,safe_mode_periods,recovery_l1_periods",
        &csv,
    );
    println!("wrote {}", path.display());
    Some((
        "fault-tolerant tracks better than fault-blind on 4 of 4 fault scenarios and recovers \
         within 20 L1 periods of the last fault",
        claims::fault_tolerance_recovers(&verdicts),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replayed_forecast_ends_where_the_l1s_does() {
        // 50 buckets: an error in the replay's start has not washed out.
        let spec = RunSpec {
            buckets: 50,
            coarse_learning: true,
            ..RunSpec::new(Family::Module, FIGURE_SEED)
        };
        let sc = spec.scenario_config();
        let mut policy = HierarchicalPolicy::build(&sc);
        let log = spec.run(&mut policy);
        let (pairs, forecast) = replay_l1_forecast(&log, &sc);
        assert_eq!(pairs.len(), 49);
        assert_eq!(
            forecast.predict_one().to_bits(),
            policy.l1(0).lambda_estimate().to_bits()
        );
    }
}
