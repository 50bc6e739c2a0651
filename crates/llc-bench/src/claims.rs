//! The paper claims four figure binaries end on, as functions over
//! their result rows: `baseline_table`, `ablation_chatter`,
//! `ablation_horizon` and `overhead_centralized` call [`enforce`] on one
//! of these after printing their table, so a refactor that silently
//! breaks a claim turns CI red instead of changing a number nobody reads.

/// One `baseline_table` policy run.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Policy name.
    pub name: String,
    /// Mean response time over the run (seconds).
    pub mean_response: f64,
    /// Fraction of completions above the response target.
    pub violations: f64,
    /// Total energy over the run.
    pub energy: f64,
    /// Machines switched on over the run.
    pub switch_ons: u64,
    /// Requests dropped over the run.
    pub dropped: u64,
}

/// One `overhead_centralized` module size, both policies measured on it.
#[derive(Debug, Clone, Copy)]
pub struct ComplexityRow {
    /// Computers in the module.
    pub m: usize,
    /// Mean states the hierarchy's L1 evaluates per decision.
    pub hier_states: f64,
    /// Mean wall time of one hierarchical L1 decision (seconds).
    pub hier_decide_s: f64,
    /// Mean states the centralized controller evaluates per decision.
    pub cent_states: f64,
    /// Mean wall time of one centralized decision (seconds).
    pub cent_decide_s: f64,
}

/// `baseline_table`: energy(LLC) < energy(threshold) ≤ energy(always-max)
/// and no policy drops a request. `rows` is `[LLC, threshold, always-max]`.
pub fn llc_saves_energy(rows: &[BaselineRow; 3]) -> Result<(), String> {
    let [llc, threshold, always_max] = rows;
    if let Some(r) = rows.iter().find(|r| r.dropped > 0) {
        return Err(format!("{} dropped {} requests", r.name, r.dropped));
    }
    if llc.energy < threshold.energy && threshold.energy <= always_max.energy {
        Ok(())
    } else {
        Err(format!(
            "energy not ordered LLC < threshold <= always-max: {:.0}, {:.0}, {:.0}",
            llc.energy, threshold.energy, always_max.energy
        ))
    }
}

/// `ablation_chatter`: with the §4.2 uncertainty band the controller
/// switches machines on at most as often as without it.
pub fn band_switches_no_more(with_band: u64, without_band: u64) -> Result<(), String> {
    if with_band <= without_band {
        Ok(())
    } else {
        Err(format!(
            "{with_band} switch-ons with the band > {without_band} without it"
        ))
    }
}

/// `ablation_horizon`: the L0 lookahead's search cost grows with its
/// horizon — states explored per decision strictly increase in `N`, each
/// at least 1.5× the previous. `rows` is `(N, states per decision)` in
/// ascending `N`.
pub fn lookahead_cost_grows_with_horizon(rows: &[(usize, f64)]) -> Result<(), String> {
    if rows.len() < 2 {
        return Err("need at least two horizons".to_string());
    }
    match rows
        .windows(2)
        .find(|w| !(w[1].0 > w[0].0 && w[1].1 >= 1.5 * w[0].1 && w[1].1 > w[0].1))
    {
        Some(w) => Err(format!(
            "L0 states per decision went {:.0} at N = {} to {:.0} at N = {} \
             (must grow at least 1.5× as N grows)",
            w[0].1, w[0].0, w[1].1, w[1].0
        )),
        None => Ok(()),
    }
}

/// `overhead_centralized`: from the smallest to the largest module the
/// centralized states per decision grow at least 10× while the
/// hierarchy's grow less than 4×, and the hierarchy decides faster at
/// every size.
pub fn hierarchy_scales_better(rows: &[ComplexityRow]) -> Result<(), String> {
    let (small, large) = match rows {
        [small, .., large] => (small, large),
        _ => return Err("need at least two module sizes".to_string()),
    };
    let cent_growth = large.cent_states / small.cent_states;
    let hier_growth = large.hier_states / small.hier_states;
    if cent_growth < 10.0 {
        return Err(format!(
            "centralized states/decision grew only {cent_growth:.1}x from m = {} to m = {}",
            small.m, large.m
        ));
    }
    if hier_growth >= 4.0 {
        return Err(format!(
            "hierarchical states/decision grew {hier_growth:.1}x from m = {} to m = {}",
            small.m, large.m
        ));
    }
    match rows.iter().find(|r| r.hier_decide_s >= r.cent_decide_s) {
        Some(r) => Err(format!(
            "hierarchy decides no faster than centralized at m = {}: {:.3} ms vs {:.3} ms",
            r.m,
            r.hier_decide_s * 1e3,
            r.cent_decide_s * 1e3
        )),
        None => Ok(()),
    }
}

/// Print the verdict on `claim` and exit non-zero if it was violated.
pub fn enforce(claim: &str, verdict: Result<(), String>) {
    match verdict {
        Ok(()) => println!("claim holds: {claim}"),
        Err(why) => {
            eprintln!("CLAIM VIOLATED: {claim} — {why}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(energies: [f64; 3], dropped: [u64; 3]) -> [BaselineRow; 3] {
        let row = |i: usize| BaselineRow {
            name: ["llc", "threshold", "always-max"][i].to_string(),
            mean_response: 1.0,
            violations: 0.0,
            energy: energies[i],
            switch_ons: 0,
            dropped: dropped[i],
        };
        [row(0), row(1), row(2)]
    }

    #[test]
    fn energy_claim_fires_on_disorder_and_drops() {
        let today = baseline([632_623.0, 656_052.0, 899_054.0], [0; 3]);
        assert!(llc_saves_energy(&today).is_ok());
        let llc_worse = baseline([700_000.0, 656_052.0, 899_054.0], [0; 3]);
        assert!(llc_saves_energy(&llc_worse).is_err());
        let threshold_above_max = baseline([632_623.0, 900_000.0, 899_054.0], [0; 3]);
        assert!(llc_saves_energy(&threshold_above_max).is_err());
        let dropping = baseline([632_623.0, 656_052.0, 899_054.0], [3, 0, 0]);
        assert!(llc_saves_energy(&dropping).is_err());
    }

    #[test]
    fn chatter_claim_fires_when_the_band_switches_more() {
        assert!(band_switches_no_more(82, 97).is_ok());
        assert!(band_switches_no_more(14, 14).is_ok());
        assert!(band_switches_no_more(15, 14).is_err());
    }

    #[test]
    fn horizon_claim_fires_when_the_search_stops_growing() {
        let today = [(1, 7.0), (2, 15.0), (3, 26.0), (4, 55.0)];
        assert!(lookahead_cost_grows_with_horizon(&today).is_ok());
        let flattening = [(1, 7.0), (2, 15.0), (3, 26.0), (4, 30.0)];
        assert!(lookahead_cost_grows_with_horizon(&flattening).is_err());
        let shrinking = [(1, 7.0), (2, 15.0), (3, 26.0), (4, 25.0)];
        assert!(lookahead_cost_grows_with_horizon(&shrinking).is_err());
        let idle = [(1, 0.0), (2, 0.0)];
        assert!(lookahead_cost_grows_with_horizon(&idle).is_err());
        assert!(lookahead_cost_grows_with_horizon(&today[..1]).is_err());
    }

    #[test]
    fn complexity_claim_fires_on_each_leg() {
        let row = |m, hier_states, hier_ms: f64, cent_states, cent_ms: f64| ComplexityRow {
            m,
            hier_states,
            hier_decide_s: hier_ms / 1e3,
            cent_states,
            cent_decide_s: cent_ms / 1e3,
        };
        let today = [
            row(4, 59.0, 0.077, 620.0, 3.1),
            row(6, 139.0, 0.128, 14_790.0, 13.9),
        ];
        assert!(hierarchy_scales_better(&today).is_ok());
        let centralized_flat = [today[0], row(6, 139.0, 0.128, 3_000.0, 13.9)];
        assert!(hierarchy_scales_better(&centralized_flat).is_err());
        let hierarchy_explodes = [today[0], row(6, 240.0, 0.128, 14_790.0, 13.9)];
        assert!(hierarchy_scales_better(&hierarchy_explodes).is_err());
        let hierarchy_slower = [row(4, 59.0, 3.2, 620.0, 3.1), today[1]];
        assert!(hierarchy_scales_better(&hierarchy_slower).is_err());
        assert!(hierarchy_scales_better(&today[..1]).is_err());
    }
}
