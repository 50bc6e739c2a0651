//! The claims seven rows of the `paper` binary end on, as functions
//! over their result rows: `ablation_horizon`, `ablation_chatter`,
//! `baseline_table`, `overhead_centralized`, `online_maps`,
//! `closed_loop` and `fault_tolerance` return one of these verdicts
//! after printing their table, and the binary exits non-zero if any
//! failed, so a refactor that silently breaks a claim turns CI red
//! instead of changing a number nobody reads.

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

/// `online_maps`: online-updated maps track the drifting plant strictly
/// better than the offline-only maps on at least two of the scenarios.
/// `maes` is `(offline, online)` tracking MAE per drift scenario.
pub fn online_maps_beat_offline(maes: &[(f64, f64)]) -> Result<(), String> {
    let wins = maes
        .iter()
        .filter(|(offline, online)| online < offline)
        .count();
    if wins >= 2 {
        Ok(())
    } else {
        Err(format!(
            "online beats offline on only {wins}/{} drift scenarios (need 2)",
            maes.len()
        ))
    }
}

/// `closed_loop`: the closed loop tracks strictly better than the
/// offline-only arm on every drift scenario, and on deep degradation the
/// self-healing arm tracks strictly better than the drift-blind closed
/// loop without switching frequencies more. `drift` is `(offline,
/// closed)` tracking MAE per drift scenario; `deep` is `[closed,
/// self-healing]` as (tracking MAE, frequency switches).
pub fn closed_loop_beats_offline(
    drift: &[(f64, f64)],
    deep: [(f64, usize); 2],
) -> Result<(), String> {
    let wins = drift
        .iter()
        .filter(|(offline, closed)| closed < offline)
        .count();
    if drift.is_empty() || wins < drift.len() {
        return Err(format!(
            "closed loop beats offline-only on only {wins}/{} drift scenarios",
            drift.len()
        ));
    }
    let [(closed_mae, closed_switches), (heal_mae, heal_switches)] = deep;
    if heal_mae >= closed_mae {
        return Err(format!(
            "self-healing MAE {heal_mae:.3} does not beat drift-blind {closed_mae:.3}"
        ));
    }
    if heal_switches > closed_switches {
        return Err(format!(
            "self-healing switches frequencies more ({heal_switches} > {closed_switches})"
        ));
    }
    Ok(())
}

/// L1 periods allowed between the last scheduled fault and the tracking
/// error returning to within [`RECOVERY_FACTOR`]× of steady state. At
/// the paper's T_L1 = 120 s this is 40 minutes — enough for a restarted
/// machine to boot, rejoin and be re-planned over, with margin.
const RECOVERY_BOUND: u64 = 20;
/// Multiple of the pre-fault steady-state MAE the trailing error must
/// return under to count as recovered.
const RECOVERY_FACTOR: f64 = 1.5;

/// Per-L1-period mean prediction error `(period, MAE, samples)`, from a
/// run's cumulative `(tick, error sum, samples)` after each L1 decide,
/// the L1 deciding every `l1_every` ticks. Periods that derived no
/// outcome are skipped.
fn period_maes(history: &[(u64, f64, u64)], l1_every: u64) -> Vec<(u64, f64, u64)> {
    let mut out = Vec::new();
    let (mut prev_sum, mut prev_n) = (0.0, 0u64);
    for &(tick, sum, n) in history {
        assert_eq!(tick % l1_every, 0, "history of an L1 tick only");
        let dn = n - prev_n;
        if dn > 0 {
            out.push((tick / l1_every, (sum - prev_sum) / dn as f64, dn));
        }
        prev_sum = sum;
        prev_n = n;
    }
    out
}

/// Recovery time in L1 periods of a run that recorded its cumulative
/// `(tick, error sum, samples)` in `history` after each L1 decide, every
/// `l1_every` ticks: the first period after
/// `last_fault_period` whose trailing-3-period aggregate MAE is within
/// `RECOVERY_FACTOR` (1.5)× of the pre-fault steady state (the median
/// per-period MAE from period 2 to before the first fault). `None` if
/// the error never comes back down, or no period falls before the first
/// fault.
pub fn recovery_periods(
    history: &[(u64, f64, u64)],
    l1_every: u64,
    first_fault_period: u64,
    last_fault_period: u64,
) -> Option<u64> {
    let periods = period_maes(history, l1_every);
    let mut pre: Vec<f64> = periods
        .iter()
        .filter(|&&(p, _, _)| p >= 2 && p < first_fault_period)
        .map(|&(_, mae, _)| mae)
        .collect();
    if pre.is_empty() {
        return None;
    }
    pre.sort_by(f64::total_cmp);
    let threshold = RECOVERY_FACTOR * pre[pre.len() / 2];
    let post: Vec<&(u64, f64, u64)> = periods
        .iter()
        .filter(|&&(p, _, _)| p > last_fault_period)
        .collect();
    post.windows(3).find_map(|w| {
        let err: f64 = w.iter().map(|&&(_, mae, dn)| mae * dn as f64).sum();
        let n: u64 = w.iter().map(|&&(_, _, dn)| dn).sum();
        (n > 0 && err / n as f64 <= threshold).then(|| w[2].0 - last_fault_period)
    })
}

/// `fault_tolerance`: on every fault scenario the fault-tolerant arm
/// tracks strictly better than the fault-blind one and recovers within
/// `RECOVERY_BOUND` (20) L1 periods of the last fault. `arms` is (blind
/// MAE, tolerant MAE, tolerant [`recovery_periods`]) per scenario.
pub fn fault_tolerance_recovers(arms: &[(f64, f64, Option<u64>)]) -> Result<(), String> {
    let total = arms.len();
    let beaten = arms.iter().filter(|(blind, tol, _)| tol < blind).count();
    let recovered = arms
        .iter()
        .filter(|(_, _, rec)| rec.is_some_and(|p| p <= RECOVERY_BOUND))
        .count();
    if total == 0 || beaten < total {
        Err(format!(
            "fault-tolerant beats fault-blind on only {beaten}/{total} scenarios"
        ))
    } else if recovered < total {
        Err(format!(
            "tracking recovers within {RECOVERY_BOUND} L1 periods on only \
             {recovered}/{total} scenarios"
        ))
    } else {
        Ok(())
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

    #[test]
    fn online_claim_fires_below_two_wins() {
        let today = [(0.072, 0.007), (0.085, 0.023), (0.089, 0.020)];
        assert!(online_maps_beat_offline(&today).is_ok());
        let one_lost = [(0.072, 0.007), (0.085, 0.023), (0.089, 0.090)];
        assert!(online_maps_beat_offline(&one_lost).is_ok());
        let tie_and_loss = [(0.072, 0.007), (0.085, 0.085), (0.089, 0.090)];
        assert!(online_maps_beat_offline(&tie_and_loss).is_err());
        assert!(online_maps_beat_offline(&today[..1]).is_err());
    }

    #[test]
    fn closed_loop_claim_fires_on_each_leg() {
        let drift = [(187.126, 128.657), (370.787, 267.224), (566.377, 233.901)];
        let deep = [(691.039, 162), (53.983, 63)];
        assert!(closed_loop_beats_offline(&drift, deep).is_ok());
        let one_tie = [drift[0], (370.787, 370.787), drift[2]];
        assert!(closed_loop_beats_offline(&one_tie, deep).is_err());
        assert!(closed_loop_beats_offline(&[], deep).is_err());
        let heal_ties = [(691.039, 162), (691.039, 63)];
        assert!(closed_loop_beats_offline(&drift, heal_ties).is_err());
        let heal_flaps = [(691.039, 162), (53.983, 163)];
        assert!(closed_loop_beats_offline(&drift, heal_flaps).is_err());
        let heal_switches_as_often = [(691.039, 162), (53.983, 162)];
        assert!(closed_loop_beats_offline(&drift, heal_switches_as_often).is_ok());
    }

    #[test]
    fn fault_claim_fires_on_each_leg() {
        let today = [
            (1500.694, 369.904, Some(11)),
            (641.622, 151.233, Some(4)),
            (719.602, 589.226, Some(9)),
            (271.240, 119.047, Some(3)),
        ];
        assert!(fault_tolerance_recovers(&today).is_ok());
        let mut tie = today;
        tie[2].1 = tie[2].0;
        assert!(fault_tolerance_recovers(&tie).is_err());
        let mut at_bound = today;
        at_bound[0].2 = Some(RECOVERY_BOUND);
        assert!(fault_tolerance_recovers(&at_bound).is_ok());
        let mut late = today;
        late[0].2 = Some(RECOVERY_BOUND + 1);
        assert!(fault_tolerance_recovers(&late).is_err());
        let mut never = today;
        never[3].2 = None;
        assert!(fault_tolerance_recovers(&never).is_err());
        assert!(fault_tolerance_recovers(&[]).is_err());
    }

    #[test]
    fn period_maes_difference_the_cumulative_error() {
        // L1 every 4 ticks; period 1 derives nothing.
        let history = [(0, 0.0, 0), (4, 0.0, 0), (8, 6.0, 3), (12, 10.0, 5)];
        assert_eq!(period_maes(&history, 4), vec![(2, 2.0, 3), (3, 2.0, 2)],);
    }

    /// The cumulative history of a run whose L1 (every 4 ticks) derived
    /// `(MAE, samples)` in period `p` for `p = 0..periods.len()`.
    fn history(periods: &[(f64, u64)]) -> Vec<(u64, f64, u64)> {
        let (mut sum, mut n) = (0.0, 0);
        (0u64..)
            .zip(periods)
            .map(|(p, &(mae, dn))| {
                sum += mae * dn as f64;
                n += dn;
                (4 * p, sum, n)
            })
            .collect()
    }

    /// [`history`] with one sample per period.
    fn ones(maes: &[f64]) -> Vec<(u64, f64, u64)> {
        history(&maes.iter().map(|&m| (m, 1)).collect::<Vec<_>>())
    }

    #[test]
    fn recovery_is_the_first_trailing_window_back_near_steady_state() {
        // Steady state: the median of periods 2..5 (period 0 and 1 are
        // start-up), 1.0; the bound is 1.5. Faults in periods 5..=7.
        let run = ones(&[
            9.0, 9.0, 1.0, 0.5, 1.2, 8.0, 8.0, 8.0, 3.0, 1.0, 1.0, 1.0, 1.0,
        ]);
        // Windows after period 7: {8,9,10} averages 5/3 > 1.5, {9,10,11}
        // averages 1.0 and ends in period 11, 4 periods after the fault.
        assert_eq!(recovery_periods(&run, 4, 5, 7), Some(4));
        // At exactly 1.5× the steady state it counts as recovered.
        let at_bound = ones(&[9.0, 9.0, 1.0, 1.0, 1.0, 8.0, 1.5, 1.5, 1.5]);
        assert_eq!(recovery_periods(&at_bound, 4, 5, 5), Some(3));
        // Samples weigh the trailing window, and a period without samples
        // is skipped: one heavy good period wins.
        let weighted = history(&[
            (0.0, 0),
            (0.0, 0),
            (1.0, 1),
            (1.0, 1),
            (0.0, 0),
            (4.0, 1),
            (4.0, 1),
            (1.0, 10),
        ]);
        assert_eq!(recovery_periods(&weighted, 4, 4, 4), Some(3));
    }

    #[test]
    fn recovery_is_none_when_the_error_stays_up() {
        let run = ones(&[9.0, 9.0, 1.0, 1.0, 1.0, 8.0, 8.0, 2.0, 2.0, 2.0]);
        assert_eq!(recovery_periods(&run, 4, 5, 6), None);
        // Fewer than three periods after the last fault: no window.
        assert_eq!(recovery_periods(&run[..8], 4, 5, 5), None);
    }

    #[test]
    fn recovery_is_none_without_a_pre_fault_period() {
        // Faults from period 2: periods 0 and 1 are start-up, not steady
        // state, so nothing measures it.
        let run = ones(&[1.0, 1.0, 8.0, 1.0, 1.0, 1.0]);
        assert_eq!(recovery_periods(&run, 4, 2, 2), None);
        assert_eq!(recovery_periods(&[], 4, 5, 7), None);
    }
}
