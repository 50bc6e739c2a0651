//! Fig. 6: the WC'98 workload trace and the number of computers operated
//! by the control hierarchy (16 computers in 4 modules).

use llc_bench::figures::figure_spec;
use llc_bench::report::{ascii_plot, write_csv};
use llc_cluster::{Family, Preset};

fn main() {
    let spec = figure_spec(Family::Cluster, 120);
    let mut policy = spec.policy(Preset::Paper);
    let log = spec.run(&mut policy);

    let (_, trace) = spec.experiment_and_trace();
    let workload: Vec<(f64, f64)> = trace.iter().map(|(t, c)| (t / 120.0, c)).collect();
    println!(
        "{}",
        ascii_plot(
            "Fig. 6 (top) — WC'98-like request arrivals per 2-minute bucket",
            &workload,
            100,
            16,
        )
    );

    let active: Vec<(f64, f64)> = policy
        .active_history()
        .iter()
        .map(|&(tick, a)| (tick as f64 / 4.0, a as f64))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Fig. 6 (bottom) — computers operated (of 16) per 2-minute tick",
            &active,
            100,
            10,
        )
    );

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

    let rows: Vec<String> = policy
        .active_history()
        .iter()
        .map(|(tick, a)| format!("{tick},{a}"))
        .collect();
    let p1 = write_csv("fig6_computers_operated.csv", "l0_tick,active", &rows);
    let rows: Vec<String> = trace.iter().map(|(t, c)| format!("{t},{c:.0}")).collect();
    let p2 = write_csv("fig6_workload.csv", "time_secs,requests", &rows);
    println!("wrote {} and {}", p1.display(), p2.display());
}
