//! Fig. 4: the synthetic workload with its Kalman predictions (top) and
//! the number of computers operated by the L1 controller (bottom).

use llc_bench::figures::figure_spec;
use llc_bench::report::{ascii_plot, ascii_plot_multi, write_csv};
use llc_cluster::{Family, Preset};

fn main() {
    let spec = figure_spec(Family::Module, 200);
    let mut policy = spec.policy(Preset::Paper);
    let log = spec.run(&mut policy);
    let t_l1 = spec.scenario_config().l1.period;

    // Top panel: actual vs predicted arrivals per L1 period.
    let history = policy.l1(0).forecast_history();
    let actual: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .map(|(k, (a, _))| (k as f64, a * t_l1))
        .collect();
    let predicted: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .map(|(k, (_, p))| (k as f64, p * t_l1))
        .collect();
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
    let mut stats = llc_forecast::AccuracyStats::new();
    for &(a, p) in history {
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
    let active: Vec<(f64, f64)> = policy
        .active_history()
        .iter()
        .map(|&(tick, a)| (tick as f64 / 4.0, a as f64))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Fig. 4 (bottom) — computers operated by the L1 controller (per 2-minute tick)",
            &active,
            100,
            8,
        )
    );

    let s = log.summary();
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
    let rows: Vec<String> = policy
        .active_history()
        .iter()
        .map(|(tick, a)| format!("{tick},{a}"))
        .collect();
    let p2 = write_csv("fig4_computers_operated.csv", "l0_tick,active", &rows);
    println!("wrote {} and {}", p1.display(), p2.display());
}
