//! Fig. 5: the operating frequencies selected by the L0 controller for
//! computer C4 (top) and the achieved response times (bottom).

use llc_bench::figures::figure_spec;
use llc_bench::report::{ascii_plot, write_csv};
use llc_cluster::FrequencyProfile;
use llc_cluster::{Family, Preset};

fn main() {
    let spec = figure_spec(Family::Module, 200);
    let mut policy = spec.policy(Preset::Paper);
    let log = spec.run(&mut policy);
    let c4 = 3; // TallEight — the 2 GHz machine, as in the paper's Fig. 5
    let table = FrequencyProfile::TallEight.frequencies();

    let freq_hz: Vec<(f64, f64)> = log
        .frequency_series(c4)
        .into_iter()
        .map(|(t, idx)| (t / 30.0, table[idx]))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Fig. 5 (top) — C4 operating frequency (Hz) per 30-second tick",
            &freq_hz,
            100,
            14,
        )
    );

    let responses: Vec<(f64, f64)> = log
        .response_series(c4)
        .into_iter()
        .filter_map(|(t, r)| r.map(|r| (t / 30.0, r)))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Fig. 5 (bottom) — C4 achieved response time (s) per 30-second tick",
            &responses,
            100,
            14,
        )
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
        freq_hz
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::INFINITY, f64::min),
        freq_hz.iter().map(|(_, f)| *f).fold(0.0, f64::max),
        table[0],
        table[table.len() - 1],
    );
    println!(
        "L0 lookahead: mean {:.0} states explored per decision (horizon {}, {} settings)",
        policy.l0(c4).mean_states_explored(),
        spec.scenario_config().l0.horizon,
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
}
