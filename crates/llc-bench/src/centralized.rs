//! The flat joint controller the paper argues against, kept beside its
//! one caller (`overhead_centralized`).

use llc_approx::SimplexGrid;
use llc_cluster::{Action, ClusterPolicy, MemberSpec, Observations, QueueModel};
use llc_core::{Penalty, ScaleEstimatorConfig, ServiceScaleEstimator, SetPoint};
use llc_forecast::{Ewma, Forecaster, LocalLinearTrend};
use llc_sim::PowerState;

/// Configuration of the centralized (non-hierarchical) controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralizedConfig {
    /// Decide every this many base ticks (match `T_L1` for fairness).
    pub period_ticks: u64,
    /// Load-fraction quantum for the joint γ enumeration.
    pub gamma_quantum: f64,
    /// Fluid-model steps evaluated per candidate (l = T_L1/T_L0).
    pub horizon_steps: usize,
    /// Base sampling period `T_L0` in seconds.
    pub step_period: f64,
    /// Switch-on penalty `W`.
    pub switch_on_penalty: f64,
    /// Response-time target `r*`.
    pub response_target: f64,
    /// Response-violation weight `Q`.
    pub q_weight: f64,
    /// Power weight `R`.
    pub r_weight: f64,
    /// Base operating cost `a`.
    pub base_cost: f64,
    /// Drift-aware service-rate scale estimation (see
    /// [`llc_core::ServiceScaleEstimator`]); disabled in the paper
    /// defaults so the baseline comparison stays capacity-blind on both
    /// sides unless a scenario opts in.
    pub scale: ScaleEstimatorConfig,
}

impl CentralizedConfig {
    /// Paper-aligned parameters (same weights as the hierarchy, γ
    /// quantized at 0.1 to keep the joint enumeration finite).
    pub fn paper_default() -> Self {
        CentralizedConfig {
            period_ticks: 4,
            gamma_quantum: 0.1,
            horizon_steps: 4,
            step_period: 30.0,
            switch_on_penalty: 8.0,
            response_target: 4.0,
            q_weight: 100.0,
            r_weight: 1.0,
            base_cost: 0.75,
            scale: ScaleEstimatorConfig::default(),
        }
    }
}

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
    config: CentralizedConfig,
    members: Vec<MemberSpec>,
    lambda_forecast: LocalLinearTrend,
    c_filters: Vec<Ewma>,
    /// Per-computer delivered-capacity estimators (inert unless
    /// `config.scale.enabled`) — the same drift correction the
    /// hierarchy's L0s run, so the dimensionality comparison is not
    /// confounded by one side seeing the plant and the other not.
    scales: Vec<ServiceScaleEstimator>,
    arrivals_acc: u64,
    states_total: u64,
    decisions: u64,
    last_freq: Vec<usize>,
}

impl CentralizedPolicy {
    /// Build for a single module of `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(config: CentralizedConfig, members: Vec<MemberSpec>) -> Self {
        assert!(!members.is_empty(), "need at least one computer");
        let m = members.len();
        CentralizedPolicy {
            members,
            lambda_forecast: LocalLinearTrend::with_default_noise().with_floor(0.0),
            c_filters: vec![Ewma::paper_default(); m],
            scales: vec![ServiceScaleEstimator::new(config.scale); m],
            config,
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
        let model = QueueModel::with_scale(self.config.step_period, self.scales[j].estimate());
        let response = SetPoint::new(self.config.response_target);
        let q_pen = Penalty::abs(self.config.q_weight);
        let r_pen = Penalty::abs(self.config.r_weight);
        let c = self.c_estimate(j);
        let mut best = (0usize, f64::INFINITY);
        for (idx, &phi) in self.members[j].phis.iter().enumerate() {
            let mut q = q0;
            let mut cost = 0.0;
            for _ in 0..self.config.horizon_steps {
                let (qn, rn) = model.step(q, lambda, c, phi);
                cost += q_pen.eval(response.slack_above(rn))
                    + r_pen.eval(self.config.base_cost + phi * phi);
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
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        let m = self.members.len();
        debug_assert_eq!(obs.computers.len(), m, "single-module policy");
        for comp in &obs.computers {
            if let Some(c) = comp.mean_demand() {
                self.c_filters[comp.index].observe(c);
            }
            let busy =
                comp.queue > 0 && matches!(comp.state, PowerState::On | PowerState::Draining);
            let phi = self.members[comp.index].phis[comp
                .frequency_index
                .min(self.members[comp.index].phis.len() - 1)];
            let c = self.c_estimate(comp.index);
            self.scales[comp.index].observe_window(
                comp.window.completions,
                self.config.step_period,
                phi,
                c,
                busy,
            );
        }
        self.arrivals_acc += obs.modules.iter().map(|mo| mo.arrivals).sum::<u64>();

        let mut actions = Vec::new();
        if obs.tick == 0 {
            actions.push(Action::SetModuleWeights(vec![1.0]));
        }

        if !obs.tick.is_multiple_of(self.config.period_ticks) {
            // Frequency refresh between joint decisions (same cadence as
            // the hierarchy's L0 layer).
            for comp in &obs.computers {
                if matches!(comp.state, PowerState::Off) {
                    continue;
                }
                let lambda_j = comp.arrivals() as f64 / self.config.step_period;
                let (idx, _) = self.best_frequency(comp.index, lambda_j, comp.queue as f64);
                if idx != comp.frequency_index {
                    actions.push(Action::SetFrequency(comp.index, idx));
                }
            }
            return actions;
        }

        let window = self.config.period_ticks as f64 * self.config.step_period;
        self.lambda_forecast
            .observe(self.arrivals_acc as f64 / window);
        self.arrivals_acc = 0;
        let lambda = self.lambda_forecast.predict_one().max(0.0);

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
            let switch_cost = self.config.switch_on_penalty
                * active_idx.iter().filter(|&&j| !active[j]).count() as f64;
            let grid = SimplexGrid::with_quantum(active_idx.len(), self.config.gamma_quantum);
            for gamma_active in grid.enumerate() {
                states += 1;
                let mut cost = switch_cost;
                let mut freqs = self.last_freq.clone();
                for (pos, &j) in active_idx.iter().enumerate() {
                    let (idx, c_j) = self.best_frequency(j, gamma_active[pos] * lambda, queues[j]);
                    cost += c_j / self.config.horizon_steps as f64;
                    freqs[j] = idx;
                }
                // Off computers with backlog still pay to drain.
                for j in (0..m).filter(|&j| !alpha[j] && queues[j] > 0.0) {
                    let (_, drain) = self.best_frequency(j, 0.0, queues[j]);
                    cost += drain / self.config.horizon_steps as f64;
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
                actions.push(Action::PowerOn(j));
            } else if !alpha[j] && active[j] && !draining {
                actions.push(Action::PowerOff(j));
            }
            if alpha[j] && freqs[j] != obs.computers[j].frequency_index {
                actions.push(Action::SetFrequency(j, freqs[j]));
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
        actions.push(Action::SetComputerWeights(0, routed));
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
    use llc_workload::{Trace, VirtualStore};

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
        let members: Vec<MemberSpec> = scenario.member_specs().remove(0);
        let mut policy = CentralizedPolicy::new(CentralizedConfig::paper_default(), members);
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
        let members: Vec<MemberSpec> = scenario.member_specs().remove(0);
        let mut policy = CentralizedPolicy::new(CentralizedConfig::paper_default(), members);
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
}
