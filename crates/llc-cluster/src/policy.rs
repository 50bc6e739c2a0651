use crate::control::{Cadence, PolicyMetrics};
use llc_sim::{PowerState, WindowStats};

/// Per-computer observation for one base (`T_L0`) tick.
///
/// The realized window carries everything the plant measured between
/// samples — arrivals, completions, response and demand sums, *and the
/// energy actually drawn* — so the closed-loop hierarchy can reconstruct
/// per-member realized outcomes (cost, power, end queue) without any
/// harness-side bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputerObs {
    /// Global computer index.
    pub index: usize,
    /// Module the computer belongs to.
    pub module: usize,
    /// Queue length at the sampling instant (queued + in service).
    pub queue: usize,
    /// The realized stats of the window that just ended (arrivals,
    /// completions, response/demand sums, energy drawn).
    pub window: WindowStats,
    /// Power state at the sampling instant.
    pub state: PowerState,
    /// Current frequency index.
    pub frequency_index: usize,
    /// `false` when this window's telemetry was lost (blackout, or a
    /// crashed machine gone silent): the window stats and queue reading
    /// arrive blank and must not be treated as evidence, and `state` /
    /// `frequency_index` are frozen at the last values the management
    /// plane saw before the lights went out — crash-stop is
    /// indistinguishable from a partition, so ground truth is not
    /// available either.
    pub telemetry_ok: bool,
    /// Requests the module dispatcher offered to this computer during
    /// the window that the computer refused (crashed, or no admissible
    /// operating state). Measured at the *dispatcher*, not the machine,
    /// so it remains valid through telemetry blackouts — a router always
    /// knows its own failed sends. A refused request never completes:
    /// the closed loop charges it the worst-case slack in the realized
    /// cost, which is what stops a controller that routes traffic into a
    /// dead machine from looking *better* (relieved survivors, clean
    /// models) than one that re-plans around it.
    pub rejected: u64,
}

impl ComputerObs {
    /// Requests routed to this computer during the window.
    pub fn arrivals(&self) -> u64 {
        self.window.arrivals
    }

    /// Mean response time of completions in the window (seconds).
    pub fn mean_response(&self) -> Option<f64> {
        self.window.mean_response()
    }

    /// Mean full-speed demand of completions in the window (seconds).
    pub fn mean_demand(&self) -> Option<f64> {
        self.window.mean_demand()
    }
}

/// Per-module observation for one base tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleObs {
    /// Module index.
    pub index: usize,
    /// Requests dispatched to the module during the window.
    pub arrivals: u64,
    /// Requests dropped at/inside the module during the window.
    pub dropped: u64,
}

/// Everything a policy sees at a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Observations {
    /// Base tick index (multiples of `T_L0`).
    pub tick: u64,
    /// Simulation time in seconds.
    pub time: f64,
    /// Per-computer windows, in global index order.
    pub computers: Vec<ComputerObs>,
    /// Per-module windows, in module order.
    pub modules: Vec<ModuleObs>,
}

/// An actuation command against the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Order computer `i` on (incurs the boot dead time).
    PowerOn(usize),
    /// Order computer `i` off (drains first if busy).
    PowerOff(usize),
    /// Set computer `i`'s frequency-table index.
    SetFrequency(usize, usize),
    /// Set the global module split `{γ_i}`.
    SetModuleWeights(Vec<f64>),
    /// Set module `m`'s computer split `{γ_ij}`.
    SetComputerWeights(usize, Vec<f64>),
}

/// A cluster management policy: fed observations every base tick, returns
/// actuation commands. Implemented by [`HierarchicalPolicy`] (the paper's
/// controller) and by the baselines.
///
/// [`HierarchicalPolicy`]: crate::HierarchicalPolicy
pub trait ClusterPolicy {
    /// Decide the actions for this tick.
    fn decide(&mut self, obs: &Observations) -> Vec<Action>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The tick cadence of the policy's slow levels, used by the
    /// control-plane driver to stamp directive epochs. A flat policy
    /// (the default) decides everything every base tick.
    fn cadence(&self) -> Cadence {
        Cadence::base()
    }

    /// The policy's operational counters for the metrics surface. The
    /// default reports nothing — appropriate for baselines with no
    /// learners or watchdogs.
    fn metrics(&self) -> PolicyMetrics {
        PolicyMetrics::default()
    }
}

/// Forwarding impl so a control plane can borrow a policy it does not
/// own (e.g. [`crate::Experiment`] driving `&mut dyn ClusterPolicy`
/// through a [`crate::ControlPlane`]).
impl<T: ClusterPolicy + ?Sized> ClusterPolicy for &mut T {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        (**self).decide(obs)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn cadence(&self) -> Cadence {
        (**self).cadence()
    }
    fn metrics(&self) -> PolicyMetrics {
        (**self).metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;
    impl ClusterPolicy for Null {
        fn decide(&mut self, _obs: &Observations) -> Vec<Action> {
            Vec::new()
        }
        fn name(&self) -> &str {
            "null"
        }
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let mut p: Box<dyn ClusterPolicy> = Box::new(Null);
        let obs = Observations {
            tick: 0,
            time: 0.0,
            computers: Vec::new(),
            modules: Vec::new(),
        };
        assert!(p.decide(&obs).is_empty());
        assert_eq!(p.name(), "null");
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::PowerOn(1), Action::PowerOn(1));
        assert_ne!(Action::PowerOn(1), Action::PowerOff(1));
        assert_eq!(
            Action::SetModuleWeights(vec![0.5, 0.5]),
            Action::SetModuleWeights(vec![0.5, 0.5])
        );
    }
}
