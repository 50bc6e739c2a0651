//! The four workloads: every input derived from the seed.
//!
//! | name | plant | stack | transport |
//! |---|---|---|---|
//! | `paper16_day` | 16 machines / 4 modules, dense maps | paper-blind | in-process |
//! | `adverse4` | 4 machines / 1 module, hash maps | drift-aware L0 + closed loop + retrain + fault tolerance, under capacity drift and a fault plan | in-process |
//! | `scale128_inproc` | 128 machines / 32 modules, dense maps | paper-blind | in-process |
//! | `scale128_tcp` | the same run | the same | loopback TCP |
//!
//! All run 30 s base ticks against `r* = 4 s`
//! (`Experiment::paper_default`).

use llc_cluster::{
    cluster_of, paper_cluster_16, single_module, Experiment, FaultToleranceConfig,
    HierarchicalPolicy, PolicyBuilder, RetrainConfig, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{
    derive_seed, drift_scenarios, wc98_like_fig6, CapacityProfile, FaultEvent, FaultKind,
    FaultPlan, Trace, VirtualStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order the all-workloads run takes them.
pub const NAMES: [&str; 4] = ["paper16_day", "adverse4", "scale128_inproc", "scale128_tcp"];

/// Ticks of the prefix that `--check` replays through `Experiment::run`.
pub const CHECK_TICKS: u64 = 240;

/// Crest utilisation of the `scale128_*` trace: the peak 120 s bucket
/// carries this share of `Σ speed/c_prior`. The plant's share of the wall
/// time of these workloads (72 % here, 85 % at the issue's 0.25) scales
/// with the request count while the controller path (32 observations in,
/// 32 L1 decides, the L2 search, the directives out) does not, so the crest
/// is set where two rounds with their set-up fit the time the acceptance
/// procedure allows per run.
const SCALE128_CREST_UTILISATION: f64 = 0.06;

/// L2 split quantum on `scale128_*`. The paper's 0.1 can give load to at
/// most ten modules; with 32 that strands two thirds of the cluster (see
/// README, "Sidestepped defects").
const SCALE128_L2_QUANTUM: f64 = 1.0 / 128.0;

/// What one round — set-up and every tick — takes on the runner the
/// workloads were sized on (2 cores of a 2.1 GHz Xeon), seconds. They turn
/// `--seconds` into a number of rounds; see [`Inputs::rounds_in`].
const PAPER16_ROUND_SECONDS: f64 = 8.0;
const ADVERSE4_ROUND_SECONDS: f64 = 7.0;
const SCALE128_ROUND_SECONDS: f64 = 11.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The paper's offline hierarchy: no online writes, no watchdog.
    PaperBlind,
    /// Every adaptation feature on.
    FullyAdaptive,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    Tcp,
}

/// Everything one workload feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub name: &'static str,
    pub seed: u64,
    pub scenario: ScenarioConfig,
    pub stack: Stack,
    pub transport: Transport,
    pub experiment: Experiment,
    /// Arrival counts at the generator's native 120 s buckets.
    pub trace: Trace,
}

fn capacity_rate(scenario: &ScenarioConfig) -> f64 {
    scenario
        .member_specs()
        .iter()
        .flatten()
        .map(|m| m.speed / m.c_prior)
        .sum()
}

/// One fault episode every 480 ticks, rotating crash→restart, telemetry
/// blackout, sensor noise and a stuck actuator over the four members.
/// The seed picks which member leads the rotation and where in the first
/// 200 ticks of its slot each episode starts, so the first one always
/// falls inside the `--check` prefix.
fn adverse_fault_plan(seed: u64, ticks: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xFA07));
    let lead = rng.gen_range(0..4usize);
    let mut events = Vec::new();
    for episode in 0..ticks / 480 {
        let start = episode * 480 + rng.gen_range(96..192u64);
        let computer = (lead + (episode + episode / 4) as usize) % 4;
        let (on, off, len) = match episode % 4 {
            0 => (FaultKind::Crash { requeue: false }, FaultKind::Restart, 24),
            1 => (FaultKind::BlackoutStart, FaultKind::BlackoutEnd, 20),
            2 => (
                FaultKind::NoiseStart { sigma: 0.5 },
                FaultKind::NoiseEnd,
                40,
            ),
            _ => (FaultKind::StickActuator, FaultKind::UnstickActuator, 40),
        };
        for (tick, kind) in [(start, on), (start + len, off)] {
            events.push(FaultEvent {
                tick,
                computer,
                kind,
            });
        }
    }
    FaultPlan::new(events)
}

impl Inputs {
    /// Generate workload `name` from `seed`, truncated to the first
    /// `ticks_scale` of its ticks (1.0 = the full workload).
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn generate(name: &str, seed: u64, ticks_scale: f64) -> Result<Inputs, String> {
        let experiment = Experiment::paper_default(seed);
        let inputs = match name {
            "paper16_day" => Inputs {
                name: NAMES[0],
                seed,
                scenario: paper_cluster_16(),
                stack: Stack::PaperBlind,
                transport: Transport::InProcess,
                experiment,
                trace: wc98_like_fig6(seed),
            },
            "adverse4" => {
                let scenario = single_module(4).with_coarse_learning().with_hash_maps();
                let buckets = 2400;
                let drift = drift_scenarios(seed, buckets, 120.0, 0.55 * capacity_rate(&scenario))
                    .swap_remove(1);
                // The diurnal dip's period is in 120 s buckets; the plant
                // evaluates it per 30 s tick.
                let capacity = match drift.capacity {
                    CapacityProfile::Diurnal {
                        base,
                        amplitude,
                        period,
                    } => CapacityProfile::Diurnal {
                        base,
                        amplitude,
                        period: period * 4.0,
                    },
                    other => other,
                };
                Inputs {
                    name: NAMES[1],
                    seed,
                    scenario,
                    stack: Stack::FullyAdaptive,
                    transport: Transport::InProcess,
                    experiment: Experiment {
                        drift: Some(capacity),
                        faults: Some(adverse_fault_plan(seed, buckets as u64 * 4)),
                        ..experiment
                    },
                    trace: drift.trace,
                }
            }
            "scale128_inproc" | "scale128_tcp" => {
                let mut scenario = paper_cluster_16();
                scenario.modules = cluster_of(32);
                scenario.l2.gamma_quantum = SCALE128_L2_QUANTUM;
                let window = wc98_like_fig6(seed).slice(344, 600);
                let crest = SCALE128_CREST_UTILISATION * capacity_rate(&scenario) * 120.0;
                let tcp = name == "scale128_tcp";
                Inputs {
                    name: if tcp { NAMES[3] } else { NAMES[2] },
                    seed,
                    scenario,
                    stack: Stack::PaperBlind,
                    transport: if tcp {
                        Transport::Tcp
                    } else {
                        Transport::InProcess
                    },
                    experiment,
                    trace: window.scaled(crest / window.peak()),
                }
            }
            other => {
                return Err(format!(
                    "unknown workload '{other}' (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        let buckets = ((inputs.trace.len() as f64 * ticks_scale).round() as usize)
            .clamp(1, inputs.trace.len());
        Ok(inputs.truncated(buckets as u64 * 4))
    }

    /// The same inputs cut to their first `ticks` ticks (whole 120 s
    /// buckets). The controllers and the plant are causal and the drift
    /// and fault schedules are keyed by absolute tick, so a truncated run
    /// is a prefix of the full one.
    pub fn truncated(&self, ticks: u64) -> Inputs {
        let buckets = (ticks.div_ceil(4) as usize).min(self.trace.len());
        Inputs {
            trace: self.trace.slice(0, buckets),
            ..self.clone()
        }
    }

    /// Whole rounds a run of about `seconds` makes: a fixed number for a
    /// workload, whatever the host is doing, because each tick is reported
    /// at the quietest of its rounds and the count of rounds is part of
    /// that estimate. Never fewer than two, so that every tick is seen
    /// twice. (The caller stops at two on a host where those two have
    /// already used up `seconds`.)
    pub fn rounds_in(&self, seconds: f64) -> usize {
        let nominal = match self.name {
            "paper16_day" => PAPER16_ROUND_SECONDS,
            "adverse4" => ADVERSE4_ROUND_SECONDS,
            _ => SCALE128_ROUND_SECONDS,
        };
        ((seconds / nominal).round() as usize).max(2)
    }

    /// Run length in 30 s ticks.
    pub fn ticks(&self) -> u64 {
        self.trace.len() as u64 * 4
    }

    /// Requests per tick, as every drive loop injects them.
    pub fn arrivals_per_tick(&self) -> Vec<u64> {
        let per_tick = self
            .trace
            .rebucket(self.experiment.t_l0)
            .expect("120 s buckets split into 30 s ticks");
        per_tick
            .counts()
            .iter()
            .map(|c| c.round().max(0.0) as u64)
            .collect()
    }

    /// Requests the first `ticks` ticks inject.
    pub fn requests_in(&self, ticks: u64) -> u64 {
        self.arrivals_per_tick().iter().take(ticks as usize).sum()
    }

    /// The request-body store the sampler draws from.
    pub fn store(&self) -> VirtualStore {
        VirtualStore::paper_default(self.seed)
    }

    /// Run the offline learning passes and wire the workload's stack.
    pub fn build_policy(&self) -> HierarchicalPolicy {
        let builder = PolicyBuilder::new(self.scenario.clone());
        match self.stack {
            Stack::PaperBlind => builder,
            Stack::FullyAdaptive => builder
                .drift_aware_l0()
                .closed_loop(OnlineConfig::default())
                .retrain(RetrainConfig::default())
                .fault_tolerance(FaultToleranceConfig::default()),
        }
        .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_tcp_equals_inproc() {
        for name in NAMES {
            let a = Inputs::generate(name, 7, 1.0).unwrap();
            let b = Inputs::generate(name, 7, 1.0).unwrap();
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.experiment, b.experiment);
            let c = Inputs::generate(name, 8, 1.0).unwrap();
            assert_ne!(a.trace, c.trace, "{name}: the seed moves the inputs");
        }
        let inproc = Inputs::generate("scale128_inproc", 7, 1.0).unwrap();
        let tcp = Inputs::generate("scale128_tcp", 7, 1.0).unwrap();
        assert_eq!(inproc.trace, tcp.trace);
        assert_eq!(inproc.scenario, tcp.scenario);
        assert_eq!(inproc.ticks(), 1024);
    }

    #[test]
    fn fault_episodes_stay_inside_their_slots() {
        let plan = adverse_fault_plan(3, 9600);
        assert_eq!(plan.events().len(), 40);
        for pair in plan.events().chunks(2) {
            assert_eq!(pair[0].tick / 480, pair[1].tick / 480);
            assert_eq!(pair[0].computer, pair[1].computer);
        }
        assert!(plan.events()[1].tick < CHECK_TICKS);
    }
}
