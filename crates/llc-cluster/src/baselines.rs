use crate::control::DirectiveKind;
use crate::policy::{ClusterPolicy, Observations};
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
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        // Track service times (reference demand) and arrivals. Modules
        // are contiguous global ranges, so this walks the computers in
        // global index order.
        for (module, &base) in self.members.iter().zip(&self.module_base) {
            for ((speed, _), comp) in module.iter().zip(&obs.computers[base..]) {
                if let Some(c) = comp.window.mean_demand() {
                    // mean_demand is machine-local; re-reference by speed.
                    self.c_filter.observe(c * speed);
                }
            }
        }
        for (acc, &arrivals) in self.module_arrivals.iter_mut().zip(&obs.module_arrivals) {
            *acc += arrivals;
            self.global_arrivals += arrivals;
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
        actions.push(DirectiveKind::Split {
            module: None,
            weights: module_capacity.clone(),
        });

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
                    actions.push(DirectiveKind::Activation {
                        computer: base + j,
                        on: true,
                    });
                }
            } else if rho < RHO_LO && active.iter().filter(|&&a| a).count() > 1 {
                // Switch off the slowest active computer.
                if let Some(j) = (0..module_members.len())
                    .filter(|&j| active[j])
                    .min_by(|&a, &b| module_members[a].0.total_cmp(&module_members[b].0))
                {
                    active[j] = false;
                    actions.push(DirectiveKind::Activation {
                        computer: base + j,
                        on: false,
                    });
                }
            }
            cap = capacity(&active);

            // Split proportional to capacity; DVFS with margin headroom.
            let weights: Vec<f64> = active
                .iter()
                .zip(module_members)
                .map(|(&a, (s, _))| if a { s / c_ref } else { 0.0 })
                .collect();
            actions.push(DirectiveKind::Split {
                module: Some(m),
                weights: weights.clone(),
            });

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
                actions.push(DirectiveKind::Frequency {
                    computer: base + j,
                    index,
                });
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
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        if self.initialized {
            // Re-assert power-on for anything found off (e.g. drained).
            return obs
                .computers
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.state, PowerState::Off))
                .map(|(computer, _)| DirectiveKind::Activation { computer, on: true })
                .collect();
        }
        self.initialized = true;
        let mut actions = Vec::new();
        let module_caps: Vec<f64> = self
            .members
            .iter()
            .map(|m| m.iter().map(|(s, _)| *s).sum())
            .collect();
        actions.push(DirectiveKind::Split {
            module: None,
            weights: module_caps,
        });
        let mut computer = 0usize;
        for (m, module) in self.members.iter().enumerate() {
            let weights: Vec<f64> = module.iter().map(|(s, _)| *s).collect();
            actions.push(DirectiveKind::Split {
                module: Some(m),
                weights,
            });
            for (_, table_len) in module {
                actions.push(DirectiveKind::Activation { computer, on: true });
                actions.push(DirectiveKind::Frequency {
                    computer,
                    index: table_len - 1,
                });
                computer += 1;
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
    use crate::control::MemberTelemetry;

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
            .map(|(member, state)| MemberTelemetry {
                member,
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
            computers,
            module_arrivals: vec![arrivals],
        }
    }

    #[test]
    fn threshold_scales_up_under_load() {
        let mut p = ThresholdPolicy::new(layout(), 4, 120.0);
        // Huge arrival window -> utilization far above rho_hi.
        let o = obs(0, 120 * 120, vec![PowerState::On, PowerState::Off]);
        let actions = p.decide(&o);
        assert!(
            actions.contains(&DirectiveKind::Activation {
                computer: 1,
                on: true
            }),
            "must recruit the off computer: {actions:?}"
        );
    }

    #[test]
    fn threshold_scales_down_when_idle() {
        let mut p = ThresholdPolicy::new(layout(), 4, 120.0);
        let o = obs(0, 10, vec![PowerState::On, PowerState::On]);
        let actions = p.decide(&o);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DirectiveKind::Activation { on: false, .. })),
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
        for (computer, index) in [(0, 1), (1, 3)] {
            assert!(actions.contains(&DirectiveKind::Activation { computer, on: true }));
            assert!(actions.contains(&DirectiveKind::Frequency { computer, index }));
        }
        // Second call with everything on: nothing to do.
        let o2 = obs(1, 100, vec![PowerState::On, PowerState::On]);
        assert!(p.decide(&o2).is_empty());
    }
}
