use crate::policy::{Action, ClusterPolicy, Observations};
use crate::ScenarioConfig;
use llc_forecast::Ewma;
use llc_sim::PowerState;

/// Utilization above which another computer is switched on.
const RHO_HI: f64 = 0.75;
/// Utilization below which a computer is switched off.
const RHO_LO: f64 = 0.35;
/// Headroom factor when picking a DVFS setting (φ chosen so that
/// capacity ≥ `MARGIN` · offered load).
const MARGIN: f64 = 1.2;

const _: () = assert!(0.0 < RHO_LO && RHO_LO < RHO_HI && MARGIN >= 1.0);

/// The reactive threshold heuristic the paper argues against (§1 cites
/// Pinheiro et al. and Elnozahy et al.): "the number of computers and
/// their speeds are increased (decreased) if processor utilization
/// exceeds (falls below) specified threshold values."
///
/// Per module, once per L1 period (matching the hierarchy's L1 keeps the
/// comparison fair): estimate the offered load from the last window,
/// compute utilization against active capacity, switch one computer
/// on/off across the thresholds, split load proportional to capacity,
/// and set each active computer's frequency to the smallest setting with
/// `MARGIN` headroom. Purely reactive — no forecasting, no lookahead, no
/// switching cost.
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    /// Base ticks between actions.
    period_ticks: u64,
    /// Seconds those ticks span.
    window: f64,
    /// (speed, phis) per computer, grouped by module.
    members: Vec<Vec<(f64, Vec<f64>)>>,
    /// Global index of each module's first computer.
    module_base: Vec<usize>,
    c_filter: Ewma,
    module_arrivals: Vec<u64>,
    global_arrivals: u64,
}

impl ThresholdPolicy {
    /// Build for `scenario`'s layout, acting once per its L1 period.
    pub fn for_scenario(scenario: &ScenarioConfig) -> Self {
        let members = scenario
            .member_specs()
            .into_iter()
            .map(|module| module.into_iter().map(|m| (m.speed, m.phis)).collect())
            .collect();
        let period_ticks = scenario.l0.ticks_per(scenario.l1.period);
        Self::new(
            members,
            period_ticks,
            period_ticks as f64 * scenario.l0.period,
        )
    }

    /// Build for a cluster layout (per module, per computer
    /// `(speed, φ-table)`), acting every `period_ticks` base ticks that
    /// together span `window` seconds.
    ///
    /// # Panics
    ///
    /// Panics on an empty layout.
    fn new(members: Vec<Vec<(f64, Vec<f64>)>>, period_ticks: u64, window: f64) -> Self {
        assert!(
            !members.is_empty() && members.iter().all(|m| !m.is_empty()),
            "layout must be non-empty"
        );
        let num_modules = members.len();
        let module_base = {
            let mut acc = 0;
            members
                .iter()
                .map(|m| {
                    let base = acc;
                    acc += m.len();
                    base
                })
                .collect()
        };
        ThresholdPolicy {
            period_ticks,
            window,
            members,
            module_base,
            c_filter: Ewma::paper_default(),
            module_arrivals: vec![0; num_modules],
            global_arrivals: 0,
        }
    }

    fn c_estimate(&self) -> f64 {
        let c = self.c_filter.estimate();
        if c > 0.0 {
            c
        } else {
            0.0175
        }
    }
}

impl ClusterPolicy for ThresholdPolicy {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        // Track service times (reference demand) and arrivals.
        for comp in &obs.computers {
            if let Some(c) = comp.mean_demand() {
                // mean_demand is machine-local; re-reference by speed.
                let j = comp.index - self.module_base[comp.module];
                let speed = self.members[comp.module][j].0;
                self.c_filter.observe(c * speed);
            }
        }
        for module in &obs.modules {
            self.module_arrivals[module.index] += module.arrivals;
            self.global_arrivals += module.arrivals;
        }
        if !obs.tick.is_multiple_of(self.period_ticks) {
            return Vec::new();
        }

        let mut actions = Vec::new();
        let c_ref = self.c_estimate();
        let window = self.window;

        // Global split proportional to module capacity (the heuristic has
        // no cost model to do better).
        let module_capacity: Vec<f64> = self
            .members
            .iter()
            .map(|m| m.iter().map(|(s, _)| s / c_ref).sum())
            .collect();
        actions.push(Action::SetModuleWeights(module_capacity.clone()));

        let module_arrivals = std::mem::take(&mut self.module_arrivals);
        self.module_arrivals = vec![0; module_arrivals.len()];
        for (m, module_members) in self.members.iter().enumerate() {
            let lambda = module_arrivals[m] as f64 / window;
            let base = self.module_base[m];

            let mut active: Vec<bool> = (0..module_members.len())
                .map(|j| !matches!(obs.computers[base + j].state, PowerState::Off))
                .collect();
            let capacity = |act: &[bool]| -> f64 {
                act.iter()
                    .zip(module_members)
                    .filter(|(&a, _)| a)
                    .map(|(_, (s, _))| s / c_ref)
                    .sum::<f64>()
            };

            let mut cap = capacity(&active);
            let rho = if cap > 0.0 {
                lambda / cap
            } else {
                f64::INFINITY
            };

            if rho > RHO_HI {
                // Switch on the fastest inactive computer.
                if let Some(j) = (0..module_members.len())
                    .filter(|&j| !active[j])
                    .max_by(|&a, &b| module_members[a].0.total_cmp(&module_members[b].0))
                {
                    active[j] = true;
                    actions.push(Action::PowerOn(base + j));
                }
            } else if rho < RHO_LO && active.iter().filter(|&&a| a).count() > 1 {
                // Switch off the slowest active computer.
                if let Some(j) = (0..module_members.len())
                    .filter(|&j| active[j])
                    .min_by(|&a, &b| module_members[a].0.total_cmp(&module_members[b].0))
                {
                    active[j] = false;
                    actions.push(Action::PowerOff(base + j));
                }
            }
            cap = capacity(&active);

            // Split proportional to capacity; DVFS with margin headroom.
            let weights: Vec<f64> = active
                .iter()
                .zip(module_members)
                .map(|(&a, (s, _))| if a { s / c_ref } else { 0.0 })
                .collect();
            actions.push(Action::SetComputerWeights(m, weights.clone()));

            for (j, (speed, phis)) in module_members.iter().enumerate() {
                if !active[j] {
                    continue;
                }
                let share = if cap > 0.0 {
                    (speed / c_ref) / cap
                } else {
                    0.0
                };
                let lambda_j = lambda * share;
                // Local demand on this machine.
                let c_local = c_ref / speed;
                let needed_phi = (lambda_j * c_local * MARGIN).min(1.0);
                let index = phis
                    .iter()
                    .position(|&p| p >= needed_phi)
                    .unwrap_or(phis.len() - 1);
                actions.push(Action::SetFrequency(base + j, index));
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "threshold-heuristic"
    }
}

/// The null baseline: every computer on at maximum frequency, load split
/// proportional to capacity. Maximum performance, maximum energy.
#[derive(Debug, Clone)]
pub struct AlwaysMaxPolicy {
    /// (speed, table length) per computer, grouped by module.
    members: Vec<Vec<(f64, usize)>>,
    initialized: bool,
}

impl AlwaysMaxPolicy {
    /// Build for `scenario`'s layout.
    pub fn for_scenario(scenario: &ScenarioConfig) -> Self {
        Self::new(
            scenario
                .member_specs()
                .iter()
                .map(|module| module.iter().map(|m| (m.speed, m.phis.len())).collect())
                .collect(),
        )
    }

    /// Build for a cluster layout: per module, per computer
    /// `(speed, number_of_frequency_settings)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty layout.
    pub fn new(members: Vec<Vec<(f64, usize)>>) -> Self {
        assert!(
            !members.is_empty() && members.iter().all(|m| !m.is_empty()),
            "layout must be non-empty"
        );
        AlwaysMaxPolicy {
            members,
            initialized: false,
        }
    }
}

impl ClusterPolicy for AlwaysMaxPolicy {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        if self.initialized {
            // Re-assert power-on for anything found off (e.g. drained).
            return obs
                .computers
                .iter()
                .filter(|c| matches!(c.state, PowerState::Off))
                .map(|c| Action::PowerOn(c.index))
                .collect();
        }
        self.initialized = true;
        let mut actions = Vec::new();
        let module_caps: Vec<f64> = self
            .members
            .iter()
            .map(|m| m.iter().map(|(s, _)| *s).sum())
            .collect();
        actions.push(Action::SetModuleWeights(module_caps));
        let mut index = 0usize;
        for (m, module) in self.members.iter().enumerate() {
            let weights: Vec<f64> = module.iter().map(|(s, _)| *s).collect();
            actions.push(Action::SetComputerWeights(m, weights));
            for (_, table_len) in module {
                actions.push(Action::PowerOn(index));
                actions.push(Action::SetFrequency(index, table_len - 1));
                index += 1;
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "always-max"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ComputerObs, ModuleObs};

    fn layout() -> Vec<Vec<(f64, Vec<f64>)>> {
        vec![vec![
            (1.0, vec![0.5, 1.0]),
            (0.8, vec![0.25, 0.5, 0.75, 1.0]),
        ]]
    }

    fn obs(tick: u64, arrivals: u64, states: Vec<PowerState>) -> Observations {
        let computers = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| ComputerObs {
                index: i,
                module: 0,
                queue: 0,
                window: llc_sim::WindowStats {
                    arrivals: arrivals / 2,
                    completions: 10,
                    response_sum: 5.0,
                    demand_sum: 0.175,
                    dropped: 0,
                    energy: 0.0,
                },
                state,
                frequency_index: 0,
                telemetry_ok: true,
                rejected: 0,
            })
            .collect();
        Observations {
            tick,
            time: tick as f64 * 30.0,
            computers,
            modules: vec![ModuleObs {
                index: 0,
                arrivals,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn threshold_scales_up_under_load() {
        let mut p = ThresholdPolicy::new(layout(), 4, 120.0);
        // Huge arrival window -> utilization far above rho_hi.
        let o = obs(0, 120 * 120, vec![PowerState::On, PowerState::Off]);
        let actions = p.decide(&o);
        assert!(
            actions.contains(&Action::PowerOn(1)),
            "must recruit the off computer: {actions:?}"
        );
    }

    #[test]
    fn threshold_scales_down_when_idle() {
        let mut p = ThresholdPolicy::new(layout(), 4, 120.0);
        let o = obs(0, 10, vec![PowerState::On, PowerState::On]);
        let actions = p.decide(&o);
        assert!(
            actions.iter().any(|a| matches!(a, Action::PowerOff(_))),
            "must shed a computer: {actions:?}"
        );
    }

    #[test]
    fn threshold_acts_only_on_period() {
        let mut p = ThresholdPolicy::new(layout(), 4, 120.0);
        let o = obs(1, 1000, vec![PowerState::On, PowerState::On]);
        assert!(
            p.decide(&o).is_empty(),
            "off-period ticks are observation-only"
        );
    }

    #[test]
    fn always_max_turns_everything_on_once() {
        let mut p = AlwaysMaxPolicy::new(vec![vec![(1.0, 2), (0.8, 4)]]);
        let o = obs(0, 100, vec![PowerState::Off, PowerState::Off]);
        let actions = p.decide(&o);
        assert!(actions.contains(&Action::PowerOn(0)));
        assert!(actions.contains(&Action::PowerOn(1)));
        assert!(actions.contains(&Action::SetFrequency(0, 1)));
        assert!(actions.contains(&Action::SetFrequency(1, 3)));
        // Second call with everything on: nothing to do.
        let o2 = obs(1, 100, vec![PowerState::On, PowerState::On]);
        assert!(p.decide(&o2).is_empty());
    }
}
