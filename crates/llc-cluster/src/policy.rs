use crate::control::{Cadence, DirectiveKind, MemberTelemetry, PolicyMetrics};

/// Everything a policy sees at a tick: the telemetry the control plane
/// ingested for it, one slot per computer.
///
/// Each computer's realized window carries everything the plant measured
/// between samples — arrivals, completions, response and demand sums,
/// *and the energy actually drawn* — so the closed-loop hierarchy can
/// reconstruct per-member realized outcomes (cost, power, end queue)
/// without any harness-side bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Observations {
    /// Base tick index (multiples of `T_L0`).
    pub tick: u64,
    /// Per-computer telemetry in global index order; each entry's
    /// `member` is its position within its module. A computer that sent
    /// nothing for the tick is dark-filled (blank window,
    /// `telemetry_ok = false`, state and frequency as last reported).
    pub computers: Vec<MemberTelemetry>,
    /// Requests dispatched to each module during the window, in module
    /// order.
    pub module_arrivals: Vec<u64>,
}

/// The policy output's old name, kept until ROADMAP item 15 because
/// `benchmark/src/drive.rs` names it in its probe's signature.
#[doc(hidden)]
pub type Action = DirectiveKind;

/// A cluster management policy: fed observations every base tick, returns
/// the directive kinds to emit, in actuation order. Implemented by
/// [`HierarchicalPolicy`] (the paper's controller) and by the baselines.
///
/// [`HierarchicalPolicy`]: crate::HierarchicalPolicy
pub trait ClusterPolicy {
    /// Decide this tick's directives. The driver stamps each with the
    /// tick, its [`DirectiveKind::level`] and that level's epoch.
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind>;

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
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
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
        fn decide(&mut self, _obs: &Observations) -> Vec<DirectiveKind> {
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
            computers: Vec::new(),
            module_arrivals: Vec::new(),
        };
        assert!(p.decide(&obs).is_empty());
        assert_eq!(p.name(), "null");
    }
}
