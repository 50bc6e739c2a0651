//! Fig. 7: the load distribution factor γ_i decided by the L2 controller
//! for each of the four modules.

use llc_bench::figures::figure_spec;
use llc_bench::report::{ascii_plot, write_csv};
use llc_cluster::{Family, Preset};

fn main() {
    let spec = figure_spec(Family::Cluster, 120);
    let mut policy = spec.policy(Preset::Paper);
    spec.run(&mut policy);
    let history = policy.gamma_module_history();
    assert!(!history.is_empty(), "L2 must have decided at least once");
    let p = history[0].1.len();

    for module in 0..p {
        let series: Vec<(f64, f64)> = history
            .iter()
            .map(|(tick, gamma)| (*tick as f64 / 4.0, gamma[module]))
            .collect();
        println!(
            "{}",
            ascii_plot(
                &format!(
                    "Fig. 7 — module {} load fraction γ (per 2-minute L2 tick)",
                    module + 1
                ),
                &series,
                100,
                8,
            )
        );
        let mean: f64 = series.iter().map(|(_, g)| g).sum::<f64>() / series.len() as f64;
        let lo = series.iter().map(|(_, g)| *g).fold(f64::INFINITY, f64::min);
        let hi = series.iter().map(|(_, g)| *g).fold(0.0, f64::max);
        println!(
            "  γ_{}: mean {mean:.2}, range {lo:.1}..{hi:.1}\n",
            module + 1
        );
    }

    // Sanity: every decided split sums to 1.
    for (tick, gamma) in history {
        let total: f64 = gamma.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "tick {tick}: split sums to {total}"
        );
    }
    if let Some(l2) = policy.l2() {
        println!(
            "L2 evaluated {:.0} candidate splits per decision (0.1 quantum over {p} modules)",
            l2.mean_states_evaluated()
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
    let header = {
        let cols: Vec<String> = (1..=p).map(|i| format!("gamma_{i}")).collect();
        format!("l0_tick,{}", cols.join(","))
    };
    let path = write_csv("fig7_module_gammas.csv", &header, &rows);
    println!("wrote {}", path.display());
}
