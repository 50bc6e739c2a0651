//! The flat joint controller the paper argues against, kept beside its
//! one caller (`overhead_centralized`).

use llc_approx::SimplexGrid;
use llc_cluster::{
    ClusterPolicy, DirectiveKind, L0Config, MemberSpec, Observations, QueueModel, ScenarioConfig,
};
use llc_core::{Penalty, ServiceScaleEstimator, SetPoint};
use llc_forecast::{Ewma, LocalLinearTrend};
use llc_sim::PowerState;

/// Load-fraction quantum of the joint γ enumeration, coarse enough to
/// keep the enumeration finite.
const GAMMA_QUANTUM: f64 = 0.1;

/// The flat controller the paper argues *against* (§3): one optimizer
/// jointly deciding `{α, γ, u}` for every computer in the module by
/// exhaustive enumeration over the α subsets and the quantized γ simplex,
/// with the per-computer frequency chosen optimally for each candidate
/// (frequencies are separable given `(α, γ)`, so this is the exact joint
/// optimum of the same fluid model the hierarchy approximates).
///
/// Its decision cost grows as `Σ_α C(levels + k − 1, k − 1) · Σ_j |U_j|`
/// — exponential in the module size — which is precisely the paper's
/// dimensionality argument for hierarchical decomposition. See
/// [`joint_candidate_count`] for the combinatorial count without running
/// the search.
#[derive(Debug, Clone)]
pub struct CentralizedPolicy {
    /// `T_L0`, the weights `Q`, `R`, `a`, `r*` and the drift-aware switch.
    l0: L0Config,
    /// Switch-on penalty `W`.
    switch_on_penalty: f64,
    /// Base ticks per joint decision, and fluid-model steps evaluated per
    /// candidate: `T_L1 / T_L0`.
    period_ticks: u64,
    members: Vec<MemberSpec>,
    lambda_forecast: LocalLinearTrend,
    c_filters: Vec<Ewma>,
    /// Per-computer delivered-capacity estimators (inert unless the
    /// scenario's `l0.scale.enabled`) — the same drift correction the
    /// hierarchy's L0s run, so the dimensionality comparison is not
    /// confounded by one side seeing the plant and the other not.
    scales: Vec<ServiceScaleEstimator>,
    arrivals_acc: u64,
    states_total: u64,
    decisions: u64,
    last_freq: Vec<usize>,
}

impl CentralizedPolicy {
    /// Build for `scenario`'s one module, with its L0 weights, its
    /// switch-on penalty, its L1 cadence and its drift-aware switch.
    ///
    /// # Panics
    ///
    /// Panics unless `scenario` has exactly one module.
    pub fn new(scenario: &ScenarioConfig) -> Self {
        assert_eq!(scenario.num_modules(), 1, "single-module policy");
        let members = scenario.member_specs().remove(0);
        let m = members.len();
        CentralizedPolicy {
            l0: scenario.l0,
            switch_on_penalty: scenario.l1.switch_on_penalty,
            period_ticks: scenario.l0.ticks_per(scenario.l1.period),
            members,
            lambda_forecast: LocalLinearTrend::with_default_noise(),
            c_filters: vec![Ewma::paper_default(); m],
            scales: vec![ServiceScaleEstimator::new(scenario.l0.scale); m],
            arrivals_acc: 0,
            states_total: 0,
            decisions: 0,
            last_freq: vec![0; m],
        }
    }

    /// Mean joint candidates evaluated per decision.
    pub fn mean_states_evaluated(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.states_total as f64 / self.decisions as f64
        }
    }

    fn c_estimate(&self, j: usize) -> f64 {
        let c = self.c_filters[j].estimate();
        if c > 0.0 {
            c
        } else {
            self.members[j].c_prior
        }
    }

    /// Best frequency index and its fluid-model cost for one computer
    /// under `(λ_j, ĉ_j, q_j)` over the horizon, at the computer's
    /// estimated delivered-capacity scale.
    fn best_frequency(&self, j: usize, lambda: f64, q0: f64) -> (usize, f64) {
        let model = QueueModel::with_scale(self.l0.period, self.scales[j].estimate());
        let response = SetPoint::new(self.l0.response_target);
        let q_pen = Penalty::abs(self.l0.q_weight);
        let r_pen = Penalty::abs(self.l0.r_weight);
        let c = self.c_estimate(j);
        let mut best = (0usize, f64::INFINITY);
        for (idx, &phi) in self.members[j].phis.iter().enumerate() {
            let mut q = q0;
            let mut cost = 0.0;
            for _ in 0..self.period_ticks {
                let (qn, rn) = model.step(q, lambda, c, phi);
                cost += q_pen.eval(response.slack_above(rn))
                    + r_pen.eval(self.l0.base_cost + phi * phi);
                q = qn;
            }
            if cost < best.1 {
                best = (idx, cost);
            }
        }
        best
    }
}

/// The number of joint `{α, γ}` candidates a centralized controller must
/// score for a module of `m` computers at γ quantum `1/levels` — the
/// paper's dimensionality argument, computable without enumerating:
/// `Σ_{k=1..m} C(m, k) · C(levels + k − 1, k − 1)`.
pub fn joint_candidate_count(m: usize, levels: usize) -> u128 {
    fn binom(n: u128, k: u128) -> u128 {
        let k = k.min(n - k.min(n));
        let mut acc: u128 = 1;
        for i in 0..k {
            acc = acc * (n - i) / (i + 1);
        }
        acc
    }
    (1..=m as u128)
        .map(|k| binom(m as u128, k) * binom(levels as u128 + k - 1, k - 1))
        .sum()
}

impl ClusterPolicy for CentralizedPolicy {
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        let m = self.members.len();
        debug_assert_eq!(obs.computers.len(), m, "single-module policy");
        for (j, comp) in obs.computers.iter().enumerate() {
            if let Some(c) = comp.window.mean_demand() {
                self.c_filters[j].observe(c);
            }
            let busy =
                comp.queue > 0 && matches!(comp.state, PowerState::On | PowerState::Draining);
            let phis = &self.members[j].phis;
            let phi = phis[comp.frequency_index.min(phis.len() - 1)];
            let c = self.c_estimate(j);
            self.scales[j].observe_window(comp.window.completions, self.l0.period, phi, c, busy);
        }
        self.arrivals_acc += obs.module_arrivals.iter().sum::<u64>();

        let mut actions = Vec::new();
        if obs.tick == 0 {
            actions.push(DirectiveKind::Split {
                module: None,
                weights: vec![1.0],
            });
        }

        if !obs.tick.is_multiple_of(self.period_ticks) {
            // Frequency refresh between joint decisions (same cadence as
            // the hierarchy's L0 layer).
            for (j, comp) in obs.computers.iter().enumerate() {
                if matches!(comp.state, PowerState::Off) {
                    continue;
                }
                let lambda_j = comp.window.arrivals as f64 / self.l0.period;
                let (index, _) = self.best_frequency(j, lambda_j, comp.queue as f64);
                if index != comp.frequency_index {
                    actions.push(DirectiveKind::Frequency { computer: j, index });
                }
            }
            return actions;
        }

        let window = self.period_ticks as f64 * self.l0.period;
        self.lambda_forecast
            .observe(self.arrivals_acc as f64 / window);
        self.arrivals_acc = 0;
        let lambda = self.lambda_forecast.predict_one();

        let active: Vec<bool> = obs
            .computers
            .iter()
            .map(|c| !matches!(c.state, PowerState::Off))
            .collect();
        let queues: Vec<f64> = obs.computers.iter().map(|c| c.queue as f64).collect();

        // Exhaustive joint enumeration: α over all non-empty subsets, γ
        // over the quantized simplex of the active set, frequencies
        // optimal per computer (separable).
        // (cost, alpha, gamma, frequency indices)
        #[allow(clippy::type_complexity)]
        let mut best: Option<(f64, Vec<bool>, Vec<f64>, Vec<usize>)> = None;
        let mut states = 0u64;
        for mask in 1u32..(1u32 << m) {
            let alpha: Vec<bool> = (0..m).map(|j| mask & (1 << j) != 0).collect();
            let active_idx: Vec<usize> = (0..m).filter(|&j| alpha[j]).collect();
            let switch_cost =
                self.switch_on_penalty * active_idx.iter().filter(|&&j| !active[j]).count() as f64;
            let grid = SimplexGrid::with_quantum(active_idx.len(), GAMMA_QUANTUM);
            for gamma_active in grid.enumerate() {
                states += 1;
                let mut cost = switch_cost;
                let mut freqs = self.last_freq.clone();
                for (pos, &j) in active_idx.iter().enumerate() {
                    let (idx, c_j) = self.best_frequency(j, gamma_active[pos] * lambda, queues[j]);
                    cost += c_j / self.period_ticks as f64;
                    freqs[j] = idx;
                }
                // Off computers with backlog still pay to drain.
                for j in (0..m).filter(|&j| !alpha[j] && queues[j] > 0.0) {
                    let (_, drain) = self.best_frequency(j, 0.0, queues[j]);
                    cost += drain / self.period_ticks as f64;
                }
                if best.as_ref().is_none_or(|(b, ..)| cost < *b) {
                    let mut gamma_full = vec![0.0; m];
                    for (pos, &j) in active_idx.iter().enumerate() {
                        gamma_full[j] = gamma_active[pos];
                    }
                    best = Some((cost, alpha.clone(), gamma_full, freqs));
                }
            }
        }
        let (_, alpha, gamma, freqs) = best.expect("non-empty subsets exist");
        self.states_total += states;
        self.decisions += 1;

        for j in 0..m {
            let draining = matches!(obs.computers[j].state, PowerState::Draining);
            if alpha[j] && (!active[j] || draining) {
                actions.push(DirectiveKind::Activation {
                    computer: j,
                    on: true,
                });
            } else if !alpha[j] && active[j] && !draining {
                actions.push(DirectiveKind::Activation {
                    computer: j,
                    on: false,
                });
            }
            if alpha[j] && freqs[j] != obs.computers[j].frequency_index {
                actions.push(DirectiveKind::Frequency {
                    computer: j,
                    index: freqs[j],
                });
            }
        }
        // Boot-aware routing, as in the hierarchy.
        let mut routed = gamma.clone();
        let mut any = false;
        for j in 0..m {
            let can_serve = alpha[j]
                && matches!(
                    obs.computers[j].state,
                    PowerState::On | PowerState::Draining
                );
            if can_serve && routed[j] > 0.0 {
                any = true;
            } else if !can_serve {
                routed[j] = 0.0;
            }
        }
        if !any {
            routed = gamma;
        }
        actions.push(DirectiveKind::Split {
            module: Some(0),
            weights: routed,
        });
        self.last_freq = freqs;
        actions
    }

    fn name(&self) -> &str {
        "centralized-llc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cluster::{single_module, Experiment};
    use llc_core::ScaleEstimatorConfig;
    use llc_workload::{CapacityProfile, Trace, VirtualStore};

    #[test]
    fn joint_count_matches_hand_computation() {
        // m = 2, levels = 10: k=1: 2·C(10,0)=2; k=2: 1·C(11,1)=11 -> 13.
        assert_eq!(joint_candidate_count(2, 10), 13);
        // Counts explode with m — the paper's argument.
        assert!(joint_candidate_count(10, 10) > 1_000_000);
        assert!(joint_candidate_count(16, 10) > joint_candidate_count(10, 10) * 100);
    }

    #[test]
    fn centralized_controller_manages_a_small_module() {
        let scenario = single_module(3).with_coarse_learning();
        let mut policy = CentralizedPolicy::new(&scenario);
        let trace = Trace::new(30.0, vec![40.0 * 30.0; 40]).unwrap();
        let store = VirtualStore::paper_default(9);
        let log = Experiment::paper_default(9)
            .run(scenario.to_sim_config(), &mut policy, &trace, &store)
            .unwrap();
        let s = log.summary();
        assert_eq!(s.total_dropped, 0);
        assert!(
            s.mean_response < 4.0,
            "centralized control should hold r*: {:.2}",
            s.mean_response
        );
        assert!(policy.mean_states_evaluated() > 0.0);
    }

    #[test]
    fn centralized_sheds_machines_under_light_load() {
        let scenario = single_module(3).with_coarse_learning();
        let mut policy = CentralizedPolicy::new(&scenario);
        let trace = Trace::new(30.0, vec![5.0 * 30.0; 40]).unwrap();
        let store = VirtualStore::paper_default(10);
        let log = Experiment::paper_default(10)
            .run(scenario.to_sim_config(), &mut policy, &trace, &store)
            .unwrap();
        let active_late = log
            .ticks
            .last()
            .unwrap()
            .active_flags
            .iter()
            .filter(|&&a| a)
            .count();
        assert!(
            active_late <= 2,
            "light load should shed machines, kept {active_late}"
        );
    }

    /// The scenario's drift-aware switch reaches the joint controller's
    /// estimators: on a plant whose capacity halves, ŝ tracks the half
    /// when the scenario asks for it and stays at 1.0 when it does not.
    #[test]
    fn a_drift_aware_scenario_moves_the_scale_estimate() {
        let run = |drift_aware: bool| {
            let mut scenario = single_module(3).with_coarse_learning();
            if drift_aware {
                scenario.l0.scale = ScaleEstimatorConfig::enabled();
            }
            let mut policy = CentralizedPolicy::new(&scenario);
            let trace = Trace::new(30.0, vec![60.0 * 30.0; 40]).unwrap();
            let exp = Experiment {
                drift: Some(CapacityProfile::Step {
                    at: 0.25,
                    before: 1.0,
                    after: 0.5,
                }),
                ..Experiment::paper_default(11)
            };
            exp.run(
                scenario.to_sim_config(),
                &mut policy,
                &trace,
                &VirtualStore::paper_default(11),
            )
            .unwrap();
            policy
                .scales
                .iter()
                .map(ServiceScaleEstimator::estimate)
                .collect::<Vec<f64>>()
        };
        let aware = run(true);
        assert!(
            aware.iter().all(|s| (0.3..=0.7).contains(s)),
            "a drift-aware scenario must track the halved plant: ŝ = {aware:?}"
        );
        assert_eq!(
            run(false),
            vec![1.0; 3],
            "a drift-blind scenario stays nominal"
        );
    }
}
