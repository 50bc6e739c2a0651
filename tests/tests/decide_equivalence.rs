//! Golden equivalence: the pruned branch-and-bound decision core is a
//! pure optimization, never a decision change.
//!
//! The closed-loop hierarchy is run twice over the exact scenario
//! configurations of the two committed bench families —
//! `bench_closed_loop`'s drift scenarios and `bench_faults`'s fault
//! schedules — once with the shipping pruned search and once with
//! `pruned_search = false` (every candidate γ-searched). The two runs
//! must emit *identical* directive logs, tick for tick: every power
//! order, every frequency index, every γ split, every safe-mode
//! transition, over the whole trajectory. Because each decision feeds the next period's plant
//! state, a single pruned-away optimum anywhere in the run would
//! diverge the remaining trajectory and fail the comparison.
//!
//! A property test backs the golden runs: the bound the search prunes
//! on (switch-on penalty + backlog drain) is *admissible* — it never
//! exceeds the candidate's true total cost — because the γ-search term
//! it omits is a band average of map costs, and map costs are
//! non-negative by construction (absolute-value penalties over slack
//! and power). The test checks the non-negativity lemma directly on
//! randomized map probes and the end-to-end consequence (bit-identical
//! decisions) on randomized module states.
//!
//! A third oracle pins the lane-batched evaluator itself: a scalar
//! reference implementation of one decide (allocating simplex walk, one
//! `AbstractionMap::query` per probe, the pre-PR-9 path) must agree with
//! the shipping controller, pruned and exhaustive, to the bit over a
//! load sweep through steady load, overload, shed and recovery.

use llc_approx::SimplexGrid;
use llc_cluster::{
    cluster_of, AbstractionMap, Directive, Family, L0Config, L1Config, L1Controller, LearnSpec,
    MemberSpec, Preset, RunSpec, ScenarioConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Assert two runs' directive logs agree, naming the first directive
/// they differ at. `f64`-carrying splits compare by value, which for the
/// quantized γ grid means exact-grid-point equality.
fn assert_directives_equal(pruned: &[Directive], exhaustive: &[Directive], label: &str) {
    if let Some((k, (p, e))) = pruned
        .iter()
        .zip(exhaustive)
        .enumerate()
        .find(|(_, (p, e))| p != e)
    {
        panic!(
            "{label}: directive {k} diverged at tick {} — pruning changed a decision:\n  \
             pruned     {p:?}\n  exhaustive {e:?}",
            p.tick.min(e.tick)
        );
    }
    assert_eq!(
        pruned.len(),
        exhaustive.len(),
        "{label}: one run emitted more directives (the other stopped at tick {:?})",
        pruned.last().or(exhaustive.last()).map(|d| d.tick)
    );
}

/// Run `spec` under `preset` twice, pruned and exhaustive, and assert
/// the two runs decide alike.
fn assert_pruning_is_exact(spec: &RunSpec, preset: Preset) {
    let mut logs = Vec::new();
    for pruned in [true, false] {
        let mut sc = spec.scenario_config();
        sc.l1.pruned_search = pruned;
        let mut policy = preset.builder(sc).build();
        logs.push(spec.run(&mut policy));
    }
    assert_eq!(logs[0].ticks.len(), logs[1].ticks.len(), "{}", spec.name());
    assert_directives_equal(&logs[0].directives, &logs[1].directives, spec.name());
}

/// The closed-loop bench family (`bench_closed_loop --quick`):
/// single_module(2) with both machines pinned on, over the three seeded
/// drift scenarios.
#[test]
fn pruned_search_matches_exhaustive_on_closed_loop_scenarios() {
    for scenario in 0..3 {
        let spec = RunSpec {
            buckets: 60, // the bench's --quick horizon
            ..RunSpec::defaults(Family::ClosedLoop(scenario))
        };
        assert_pruning_is_exact(&spec, Preset::ClosedLoop);
    }
}

/// The fault bench family (`bench_faults`): single_module(4)
/// under the four seeded fault schedules, with the watchdog stack on —
/// so the comparison also covers `decide_excluding` with dead members,
/// the safe-mode fallback and post-rejoin recruiting.
#[test]
fn pruned_search_matches_exhaustive_on_fault_scenarios() {
    for scenario in 0..4 {
        let spec = RunSpec {
            seed: 0xBEEF,
            buckets: 90, // the bench horizon (quick keeps it too)
            ..RunSpec::defaults(Family::Faults(scenario))
        };
        assert_pruning_is_exact(&spec, Preset::FaultTolerant);
    }
}

/// Trained maps for the property tests, learned once (coarse grid) and
/// shared across cases.
fn learned_module() -> &'static (Vec<MemberSpec>, Vec<Arc<AbstractionMap>>) {
    static FIXTURE: OnceLock<(Vec<MemberSpec>, Vec<Arc<AbstractionMap>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = ScenarioConfig {
            modules: cluster_of(1),
            ..llc_cluster::paper_cluster_16()
        };
        let members: Vec<MemberSpec> = scenario.member_specs().remove(0);
        let maps: Vec<Arc<AbstractionMap>> = members
            .iter()
            .map(|s| {
                let (c_range, lambda_max, q_max) = s.learn_envelope();
                Arc::new(AbstractionMap::learn(
                    &L0Config::paper_default(),
                    scenario.l0.ticks_per(scenario.l1.period) as usize,
                    &s.phis,
                    c_range,
                    lambda_max,
                    q_max,
                    LearnSpec::coarse(),
                ))
            })
            .collect();
        (members, maps)
    })
}

/// One decision of the scalar evaluation path the lane core replaced:
/// per-candidate `SimplexGrid` allocation, `Vec<f64>`-materializing
/// neighbor enumeration, scalar `query` per probe behind an `in_table`
/// check, and a per-decision out-of-grid replay memo. `prev_gamma` is
/// threaded by the caller exactly like the controller threads its own.
#[allow(clippy::too_many_arguments)]
fn reference_decide(
    config: &L1Config,
    members: &[MemberSpec],
    maps: &[Arc<AbstractionMap>],
    cs: &[f64],
    queues: &[usize],
    active: &[bool],
    prev_gamma: &[f64],
    lambda_hat: f64,
    delta: f64,
) -> (Vec<bool>, Vec<f64>, f64) {
    let m = members.len();
    let min_active = config.min_active.min(m);
    let samples = [
        (lambda_hat - delta).max(0.0),
        lambda_hat,
        lambda_hat + delta,
    ];
    let quantum = config.gamma_quantum;
    let mut memo: HashMap<(usize, usize, i64), f64> = HashMap::new();
    let drain_costs: Vec<f64> = (0..m)
        .map(|j| {
            if queues[j] > 0 {
                maps[j].query(0.0, cs[j], queues[j] as f64).cost
            } else {
                0.0
            }
        })
        .collect();

    let base: Vec<bool> = active.to_vec();
    let mut candidates: Vec<Vec<bool>> = vec![base.clone()];
    for j in 0..m {
        let mut alt = base.clone();
        alt[j] = !alt[j];
        if alt.iter().filter(|&&a| a).count() >= min_active {
            candidates.push(alt);
        }
    }
    let off: Vec<usize> = (0..m).filter(|&j| !base[j]).collect();
    for (i, &a) in off.iter().enumerate() {
        for &b in &off[i + 1..] {
            let mut alt = base.clone();
            alt[a] = true;
            alt[b] = true;
            candidates.push(alt);
        }
    }
    if off.len() > 2 {
        candidates.push(vec![true; m]);
    }

    let mut best: Option<(f64, Vec<bool>, Vec<f64>)> = None;
    for alpha in candidates {
        let active_idx: Vec<usize> = (0..m).filter(|&j| alpha[j]).collect();
        if active_idx.is_empty() {
            continue;
        }
        let switch_cost =
            config.switch_on_penalty * (0..m).filter(|&j| alpha[j] && !active[j]).count() as f64;
        let drain_cost: f64 = (0..m)
            .filter(|&j| !alpha[j] && queues[j] > 0)
            .map(|j| drain_costs[j])
            .sum();
        let grid = SimplexGrid::with_quantum(active_idx.len(), quantum);
        let total_capacity: f64 = active_idx.iter().map(|&j| members[j].speed / cs[j]).sum();
        let weights: Vec<f64> = active_idx
            .iter()
            .map(|&j| {
                if prev_gamma[j] > 0.0 {
                    prev_gamma[j]
                } else {
                    members[j].speed / cs[j] / total_capacity
                }
            })
            .collect();
        let mut split = grid.snap(&weights);
        let mut evaluate = |gamma_active: &Vec<f64>| -> f64 {
            let mut total = 0.0;
            for (s, &lambda_s) in samples.iter().enumerate() {
                // Per-sample subtotal folded into the band total: the
                // comparison is on cost bits, so even the floating-point
                // grouping must match the controller's.
                let mut sample_cost = 0.0;
                for (pos, &j) in active_idx.iter().enumerate() {
                    let units = (gamma_active[pos] / quantum).round() as i64;
                    let lambda_j = units as f64 * quantum * lambda_s;
                    let q_j = queues[j] as f64;
                    let in_table = lambda_j.max(0.0) <= maps[j].trained_lambda_max()
                        && q_j.max(0.0) <= maps[j].trained_q_max();
                    sample_cost += if in_table {
                        maps[j].query(lambda_j, cs[j], q_j).cost
                    } else {
                        *memo
                            .entry((j, s, units))
                            .or_insert_with(|| maps[j].query(lambda_j, cs[j], q_j).cost)
                    };
                }
                total += sample_cost;
            }
            total / samples.len() as f64
        };
        // Best-improvement hill-climb: each round moves to the strictly
        // cheapest neighbor, first in `neighbors` order; the evaluation
        // budget is checked before every evaluation.
        let mut cost = evaluate(&split);
        let (mut evaluations, mut rounds) = (1, 0);
        while rounds < config.search_rounds && evaluations < config.search_evals {
            rounds += 1;
            let mut round_best: Option<(Vec<f64>, f64)> = None;
            for next in grid.neighbors(&split) {
                if evaluations >= config.search_evals {
                    break;
                }
                let next_cost = evaluate(&next);
                evaluations += 1;
                if next_cost < round_best.as_ref().map_or(cost, |best| best.1) {
                    round_best = Some((next, next_cost));
                }
            }
            match round_best {
                Some((next, next_cost)) => (split, cost) = (next, next_cost),
                None => break,
            }
        }
        let total_cost = cost + switch_cost + drain_cost;
        if best.as_ref().is_none_or(|(c, _, _)| total_cost < *c) {
            let mut gamma_full = vec![0.0; m];
            for (pos, &j) in active_idx.iter().enumerate() {
                gamma_full[j] = split[pos];
            }
            best = Some((total_cost, alpha, gamma_full));
        }
    }
    let (cost, alpha, gamma) = best.expect("at least the base candidate");
    (alpha, gamma, cost)
}

/// Both shipping arms and the scalar reference driven through one load
/// sweep — ramp to overload with deep backlogs, shed to idle, recover,
/// the plant following each directive so switch regimes compound — and
/// compared directive for directive, bit for bit.
#[test]
fn shipping_matches_scalar_reference_over_load_sweep() {
    // Arrival multipliers per period: ramp → overload → idle → recover.
    let schedule: [f64; 12] = [0.6, 0.9, 1.2, 1.6, 2.0, 1.2, 0.4, 0.1, 0.1, 0.5, 1.0, 1.4];
    let base_arrivals = 60.0 * 120.0; // 60 req/s over a 120-tick L1 period
    let (members, maps) = learned_module();
    let m = members.len();
    let demands = vec![Some(0.0175); m];
    let pruned_cfg = L1Config::paper_default();
    let exhaustive_cfg = L1Config {
        pruned_search: false,
        ..pruned_cfg
    };
    let mut pruned = L1Controller::new_shared(pruned_cfg, members.clone(), maps.clone());
    let mut exhaustive = L1Controller::new_shared(exhaustive_cfg, members.clone(), maps.clone());
    for _ in 0..6 {
        pruned.observe(base_arrivals as u64, &demands);
        exhaustive.observe(base_arrivals as u64, &demands);
    }
    let mut ref_prev_gamma = vec![0.0; m];
    let mut active = vec![true; m];
    let mut pruned_candidates = 0;
    for (step, mult) in schedule.iter().enumerate() {
        let arrivals = (base_arrivals * mult) as u64;
        pruned.observe(arrivals, &demands);
        exhaustive.observe(arrivals, &demands);
        // Queues grow with overload and vary across members so drain
        // costs (and with them the pruning bounds) are non-trivial.
        let queues: Vec<usize> = (0..m)
            .map(|j| ((mult * 6.0) as usize + j * step) % 40)
            .collect();
        // The reference decides against the same λ̂/δ/ĉ the shipping
        // controller is about to use.
        let (r_alpha, r_gamma, r_cost) = reference_decide(
            &exhaustive_cfg,
            members,
            maps,
            &pruned.c_estimates(),
            &queues,
            &active,
            &ref_prev_gamma,
            pruned.lambda_estimate(),
            pruned.delta(),
        );
        let r_bits: Vec<u64> = r_gamma.iter().map(|g| g.to_bits()).collect();
        for (arm, d) in [
            ("pruned", pruned.decide(&queues, &active)),
            ("exhaustive", exhaustive.decide(&queues, &active)),
        ] {
            assert_eq!(d.alpha, r_alpha, "step {step}: {arm} α ≠ reference");
            assert_eq!(
                d.gamma.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                r_bits,
                "step {step}: {arm} γ ≠ reference"
            );
            assert_eq!(
                d.expected_cost.to_bits(),
                r_cost.to_bits(),
                "step {step}: {arm} cost {} ≠ reference {r_cost}",
                d.expected_cost
            );
            if arm == "pruned" {
                pruned_candidates += d.candidates_pruned;
            }
        }
        ref_prev_gamma = r_gamma;
        active = r_alpha;
    }
    assert!(
        pruned_candidates > 0,
        "the bound never pruned: the sweep did not reach a shed or recovery regime"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lemma the bound's admissibility rests on: every abstraction-map
    /// cost is non-negative (penalties are absolute values), so the
    /// γ-search term the bound omits can only add to switch + drain.
    #[test]
    fn map_costs_are_non_negative(
        member in 0usize..4,
        lambda in 0.0..400.0f64,
        c in 0.001..0.2f64,
        q0 in 0.0..60.0f64,
    ) {
        let (_, maps) = learned_module();
        let e = maps[member].query(lambda, c, q0);
        prop_assert!(
            e.cost >= 0.0,
            "map cost {} < 0 at (λ={lambda}, c={c}, q₀={q0}) — the pruning bound is inadmissible",
            e.cost
        );
    }

    /// End-to-end admissibility: if the bound ever exceeded a candidate's
    /// true cost, the pruned search could skip the exhaustive winner and
    /// the two decisions would differ somewhere in this state space.
    #[test]
    fn pruned_decision_matches_exhaustive_on_random_states(
        queues in proptest::collection::vec(0usize..40, 4),
        active_bits in 0u32..16,
        arrivals in 100u64..20_000,
        warmups in 1usize..5,
    ) {
        let active: Vec<bool> = (0..4).map(|j| active_bits & (1 << j) != 0).collect();
        let (members, maps) = learned_module();
        let pruned_cfg = L1Config::paper_default();
        let exhaustive_cfg = L1Config { pruned_search: false, ..pruned_cfg };
        let mut pruned = L1Controller::new_shared(pruned_cfg, members.clone(), maps.clone());
        let mut exhaustive =
            L1Controller::new_shared(exhaustive_cfg, members.clone(), maps.clone());
        let demands = vec![Some(0.0175); members.len()];
        for _ in 0..warmups {
            pruned.observe(arrivals, &demands);
            exhaustive.observe(arrivals, &demands);
        }
        let dp = pruned.decide(&queues, &active);
        let de = exhaustive.decide(&queues, &active);
        prop_assert_eq!(&dp.alpha, &de.alpha, "pruning changed the on/off vector");
        prop_assert_eq!(
            dp.gamma.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            de.gamma.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            "pruning changed the γ split"
        );
        prop_assert_eq!(
            dp.expected_cost.to_bits(),
            de.expected_cost.to_bits(),
            "pruning changed the expected cost"
        );
    }
}
