//! The node-agent side of the distributed loop: a locally-instantiated
//! plant shard plus the directive [`Reconciler`].
//!
//! [`AgentCore`] owns exactly the plant half of `Experiment::run` — a
//! [`Plant`]: the [`SimAdapter`], the rebucketed trace, the request
//! sampler and the arrival-spreading RNG — and exposes it one window at
//! a time: render observations, stage whatever directives the
//! wire delivered, commit the window (reconcile → actuate → inject
//! arrivals → advance the plant). Driven in lockstep over a lossless
//! link it reproduces the in-process loop *bit for bit*, which is what
//! the golden equivalence test pins.
//!
//! The [`Reconciler`] is what makes the loop safe when the wire is not
//! lossless: directives are keyed by actuator, the latest epoch wins,
//! exact re-deliveries are skipped (idempotent re-apply), and a
//! frequency directive the plant silently ignored (a wedged actuator)
//! is detected by read-back and reported upstream in the agent
//! heartbeat. A directive that decodes but names a computer, module,
//! frequency index or split the shard does not have is refused where it
//! enters ([`AgentCore::stage`]) and counted, never actuated.

use crate::codec::{Heartbeat, Hello, Role};
use llc_cluster::{Directive, DirectiveKind, Experiment, Plant, SimAdapter};
use llc_sim::{ClusterConfig, SimError};
use llc_workload::{Trace, VirtualStore};

/// Outcome of reconciling one window's staged directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconcileReport {
    /// Directives applied to the plant (or recorded, for informational
    /// kinds).
    pub applied: u64,
    /// Directives skipped because a later epoch already owns the
    /// actuator.
    pub superseded: u64,
    /// Exact re-deliveries skipped (same actuator, same epoch, same
    /// value).
    pub duplicates: u64,
    /// Directives refused at [`AgentCore::stage`] because they do not fit
    /// the shard's topology (unknown computer or module, frequency index
    /// past the table, split of the wrong length or with negative or
    /// non-finite weights).
    pub rejected: u64,
}

/// Per-actuator book entry: the epoch and value last applied.
#[derive(Debug, Clone, PartialEq)]
struct Book<V> {
    epoch: u64,
    value: V,
}

enum Verdict {
    Apply,
    Superseded,
    Duplicate,
}

fn judge<V: PartialEq + Clone>(book: &mut Option<Book<V>>, epoch: u64, value: &V) -> Verdict {
    match book {
        Some(b) if epoch < b.epoch => Verdict::Superseded,
        Some(b) if epoch == b.epoch && *value == b.value => Verdict::Duplicate,
        _ => {
            *book = Some(Book {
                epoch,
                value: value.clone(),
            });
            Verdict::Apply
        }
    }
}

/// Orders incoming directives into a safe actuation sequence.
///
/// Keys: `Frequency` and `Activation` per computer, member `Split` per
/// module, the cluster-wide module `Split`, and `SafeMode` per module.
/// A directive is applied iff its epoch is newer than the book's for
/// that key, or equal with a different value (a correction); an exact
/// re-delivery is a no-op, an older epoch is superseded. Over a
/// lossless ordered link every directive is fresh, so the applied
/// sequence equals the emission sequence — the property the golden test
/// relies on.
///
/// Directives must fit the `num_computers` × `num_modules` plant the
/// reconciler was built for; [`AgentCore::stage`] refuses peer input that
/// does not before it gets here.
#[derive(Debug)]
pub struct Reconciler {
    staged: Vec<Directive>,
    freq: Vec<Option<Book<usize>>>,
    act: Vec<Option<Book<bool>>>,
    member_split: Vec<Option<Book<Vec<f64>>>>,
    module_split: Option<Book<Vec<f64>>>,
    safe_mode: Vec<Option<Book<bool>>>,
    report: ReconcileReport,
}

impl Reconciler {
    /// A fresh reconciler for a plant of `num_computers` computers in
    /// `num_modules` modules.
    pub fn new(num_computers: usize, num_modules: usize) -> Reconciler {
        Reconciler {
            staged: Vec::new(),
            freq: vec![None; num_computers],
            act: vec![None; num_computers],
            member_split: vec![None; num_modules],
            module_split: None,
            safe_mode: vec![None; num_modules],
            report: ReconcileReport::default(),
        }
    }

    /// Queue one incoming directive for the next [`drain`].
    ///
    /// [`drain`]: Reconciler::drain
    pub fn stage(&mut self, directive: Directive) {
        self.staged.push(directive);
    }

    /// Resolve the staged directives against the books, in arrival
    /// order: returns the sequence to actuate.
    pub fn drain(&mut self) -> Vec<Directive> {
        let staged = std::mem::take(&mut self.staged);
        let mut apply = Vec::with_capacity(staged.len());
        for d in staged {
            let verdict = match &d.kind {
                DirectiveKind::Frequency { computer, index } => {
                    judge(&mut self.freq[*computer], d.epoch, index)
                }
                DirectiveKind::Activation { computer, on } => {
                    judge(&mut self.act[*computer], d.epoch, on)
                }
                DirectiveKind::Split {
                    module: Some(m),
                    weights,
                } => judge(&mut self.member_split[*m], d.epoch, weights),
                DirectiveKind::Split {
                    module: None,
                    weights,
                } => judge(&mut self.module_split, d.epoch, weights),
                DirectiveKind::SafeMode { module, active } => {
                    judge(&mut self.safe_mode[*module], d.epoch, active)
                }
            };
            match verdict {
                Verdict::Apply => {
                    self.report.applied += 1;
                    apply.push(d);
                }
                Verdict::Superseded => self.report.superseded += 1,
                Verdict::Duplicate => self.report.duplicates += 1,
            }
        }
        apply
    }

    /// Cumulative reconciliation counters.
    pub fn report(&self) -> ReconcileReport {
        self.report
    }
}

/// The agent's whole state machine, transport-free: the session loop
/// (or a test playing scheduler) moves frames, `AgentCore` moves the
/// plant.
///
/// The borrow on the [`VirtualStore`] mirrors `Experiment::run`'s
/// sampler lifetime.
pub struct AgentCore<'a> {
    plant: Plant<'a>,
    reconciler: Reconciler,
    t_l0: f64,
    tick: u64,
    total_ticks: u64,
    last_epoch: u64,
    wedged_events: u64,
    wedged_members: Vec<bool>,
    applied_log: Vec<Directive>,
}

impl std::fmt::Debug for AgentCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentCore")
            .field("tick", &self.tick)
            .field("total_ticks", &self.total_ticks)
            .field("wedged_events", &self.wedged_events)
            .finish_non_exhaustive()
    }
}

impl<'a> AgentCore<'a> {
    /// Instantiate the plant shard exactly as `Experiment::run` would:
    /// same adapter, same prewarm, same sampler and spreading streams
    /// for the same seed.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Plant::new`]: a trace window past
    /// its bound, or prewarming.
    ///
    /// # Panics
    ///
    /// Panics if the trace's bucket width is incompatible with the
    /// experiment's `t_l0`.
    pub fn new(
        sim_config: ClusterConfig,
        experiment: &Experiment,
        trace: &Trace,
        store: &'a VirtualStore,
    ) -> Result<AgentCore<'a>, SimError> {
        let plant = Plant::new(sim_config, experiment, trace, store)?;
        let num_computers = plant.adapter.sim().num_computers();
        let num_modules = plant.adapter.members().len();
        Ok(AgentCore {
            reconciler: Reconciler::new(num_computers, num_modules),
            t_l0: experiment.t_l0,
            tick: 0,
            total_ticks: plant.total_ticks() as u64,
            plant,
            last_epoch: 0,
            wedged_events: 0,
            wedged_members: vec![false; num_computers],
            applied_log: Vec::new(),
        })
    }

    /// The handshake frame describing this shard.
    pub fn hello(&self) -> Hello {
        Hello {
            role: Role::Agent,
            tick: self.tick,
            epoch: self.last_epoch,
            t_l0: self.t_l0,
            total_ticks: self.total_ticks,
            members_per_module: self
                .members()
                .iter()
                .map(|m| u32::try_from(m.len()).expect("module size fits u32"))
                .collect(),
        }
    }

    /// The end-of-window heartbeat: "every observation for
    /// [`tick`](AgentCore::tick) has been sent", carrying the
    /// cumulative wedged-actuation count.
    pub fn heartbeat(&self) -> Heartbeat {
        Heartbeat {
            role: Role::Agent,
            tick: self.tick,
            epoch: self.last_epoch,
            wedged: u32::try_from(self.wedged_events).unwrap_or(u32::MAX),
        }
    }

    /// The next window awaiting a decision.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Run length in base ticks.
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Whether every window has been committed.
    pub fn finished(&self) -> bool {
        self.tick >= self.total_ticks
    }

    /// Module topology (global computer indices per module).
    pub fn members(&self) -> &[Vec<usize>] {
        self.plant.adapter.members()
    }

    /// The plant adapter (read-only; the core owns mutation).
    pub fn adapter(&self) -> &SimAdapter {
        &self.plant.adapter
    }

    /// Cumulative wedged-actuation events detected by read-back.
    pub fn wedged_events(&self) -> u64 {
        self.wedged_events
    }

    /// Which computers most recently failed a frequency read-back.
    pub fn wedged_members(&self) -> &[bool] {
        &self.wedged_members
    }

    /// Reconciliation counters.
    pub fn reconcile_report(&self) -> ReconcileReport {
        self.reconciler.report()
    }

    /// Every directive applied to the plant so far, in actuation order.
    pub fn applied_directives(&self) -> &[Directive] {
        &self.applied_log
    }

    /// Render the current tick's observations (one per module), exactly
    /// as the in-process loop would.
    pub fn observations(&mut self) -> Vec<llc_cluster::ModuleObservation> {
        self.plant.adapter.observe(self.tick)
    }

    /// Stage one incoming directive for the next
    /// [`commit_window`](AgentCore::commit_window). The directive is peer
    /// input: one that does not fit this shard is refused and counted in
    /// [`ReconcileReport::rejected`] — it moves neither the plant nor the
    /// epoch the heartbeat reports.
    pub fn stage(&mut self, directive: Directive) {
        if !self.fits_shard(&directive) {
            self.reconciler.report.rejected += 1;
            return;
        }
        self.last_epoch = self.last_epoch.max(directive.epoch);
        self.reconciler.stage(directive);
    }

    /// Whether every index and vector `directive` carries is one the
    /// reconciler's books and the plant's actuation calls can take.
    fn fits_shard(&self, directive: &Directive) -> bool {
        let sim = self.plant.adapter.sim();
        let members = self.members();
        let is_split_over = |weights: &[f64], n: usize| {
            weights.len() == n && weights.iter().all(|w| *w >= 0.0 && w.is_finite())
        };
        match &directive.kind {
            DirectiveKind::Frequency { computer, index } => {
                *computer < sim.num_computers()
                    && *index < sim.computer(*computer).frequencies().len()
            }
            DirectiveKind::Activation { computer, .. } => *computer < sim.num_computers(),
            DirectiveKind::Split {
                module: Some(m),
                weights,
            } => members
                .get(*m)
                .is_some_and(|module| is_split_over(weights, module.len())),
            DirectiveKind::Split {
                module: None,
                weights,
            } => is_split_over(weights, members.len()),
            DirectiveKind::SafeMode { module, .. } => *module < members.len(),
        }
    }

    /// Close the current window: reconcile and actuate the staged
    /// directives (with wedge read-back on frequency sets), inject the
    /// window's arrivals, advance the plant, move to the next tick.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from actuation or arrival scheduling.
    pub fn commit_window(&mut self) -> Result<(), SimError> {
        let tick = self.tick;

        // Apply one directive at a time so the frequency read-back sees
        // exactly the post-apply state — the sim-call sequence is
        // identical to a batch `actuate`.
        for d in self.reconciler.drain() {
            self.plant.adapter.actuate(std::slice::from_ref(&d))?;
            if let DirectiveKind::Frequency { computer, index } = &d.kind {
                let realized = self
                    .plant
                    .adapter
                    .sim()
                    .computer(*computer)
                    .frequency_index();
                let wedged = realized != *index;
                if wedged {
                    self.wedged_events += 1;
                }
                self.wedged_members[*computer] = wedged;
            }
            self.applied_log.push(d);
        }

        self.plant.inject_window(tick)?;
        self.tick += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cluster::Level;

    fn directive(epoch: u64, kind: DirectiveKind) -> Directive {
        Directive {
            tick: epoch,
            time: epoch as f64 * 30.0,
            level: Level::L0,
            epoch,
            kind,
        }
    }

    #[test]
    fn latest_epoch_wins_per_actuator() {
        let mut r = Reconciler::new(2, 1);
        r.stage(directive(
            3,
            DirectiveKind::Frequency {
                computer: 0,
                index: 2,
            },
        ));
        // Older epoch for the same actuator: superseded.
        r.stage(directive(
            1,
            DirectiveKind::Frequency {
                computer: 0,
                index: 0,
            },
        ));
        // Different actuator at an old epoch: fresh book, applies.
        r.stage(directive(
            1,
            DirectiveKind::Frequency {
                computer: 1,
                index: 1,
            },
        ));
        let applied = r.drain();
        assert_eq!(applied.len(), 2);
        assert_eq!(r.report().superseded, 1);
    }

    #[test]
    fn exact_redelivery_is_idempotent() {
        let mut r = Reconciler::new(1, 1);
        let d = directive(
            5,
            DirectiveKind::Activation {
                computer: 0,
                on: true,
            },
        );
        r.stage(d.clone());
        r.stage(d.clone());
        assert_eq!(r.drain().len(), 1);
        assert_eq!(r.report().duplicates, 1);
        // Re-delivery in a *later* window is still a duplicate: the
        // book persists across drains.
        r.stage(d);
        assert!(r.drain().is_empty());
        assert_eq!(r.report().duplicates, 2);
    }

    #[test]
    fn equal_epoch_correction_applies() {
        let mut r = Reconciler::new(1, 2);
        r.stage(directive(
            4,
            DirectiveKind::Split {
                module: Some(1),
                weights: vec![0.5, 0.5],
            },
        ));
        r.stage(directive(
            4,
            DirectiveKind::Split {
                module: Some(1),
                weights: vec![0.7, 0.3],
            },
        ));
        assert_eq!(r.drain().len(), 2, "same epoch, different value: apply");
        assert_eq!(r.report().duplicates, 0);
    }

    #[test]
    fn module_and_member_splits_use_separate_books() {
        let mut r = Reconciler::new(1, 1);
        r.stage(directive(
            2,
            DirectiveKind::Split {
                module: None,
                weights: vec![1.0],
            },
        ));
        r.stage(directive(
            2,
            DirectiveKind::Split {
                module: Some(0),
                weights: vec![1.0],
            },
        ));
        assert_eq!(r.drain().len(), 2);
    }

    #[test]
    fn a_trace_window_past_the_plant_bound_is_refused_at_construction() {
        use crate::scenario::{Family, RunSpec};
        let spec = RunSpec::defaults(Family::ClosedLoop);
        let (exp, _) = spec.experiment_and_trace();
        let store = spec.store();
        let trace = Trace::new(exp.t_l0, vec![100.0, 1e15]).expect("finite counts");
        let refused = AgentCore::new(spec.scenario_config().to_sim_config(), &exp, &trace, &store)
            .expect_err("an unbounded window");
        assert!(matches!(refused, SimError::WindowTooLarge { tick: 1, .. }));
    }

    /// Peer input that decodes but does not fit the two-machine,
    /// one-module shard: each kind is refused and counted, the window
    /// still commits, and the plant and the reported epoch stay where an
    /// undisturbed twin's are.
    #[test]
    fn malformed_directives_are_refused_at_stage() {
        use crate::scenario::{Family, RunSpec};
        let spec = RunSpec::defaults(Family::ClosedLoop);
        let (exp, trace) = spec.experiment_and_trace();
        let store = spec.store();
        let new_agent = || {
            AgentCore::new(spec.scenario_config().to_sim_config(), &exp, &trace, &store)
                .expect("well-formed plant")
        };
        let mut agent = new_agent();
        let mut twin = new_agent();
        let table = agent.adapter().sim().computer(0).frequencies().len();
        let malformed = [
            DirectiveKind::Frequency {
                computer: 2,
                index: 0,
            },
            DirectiveKind::Frequency {
                computer: 0,
                index: table,
            },
            DirectiveKind::Activation {
                computer: usize::MAX,
                on: true,
            },
            DirectiveKind::Split {
                module: Some(1),
                weights: vec![0.5, 0.5],
            },
            DirectiveKind::Split {
                module: Some(0),
                weights: vec![1.0],
            },
            DirectiveKind::Split {
                module: Some(0),
                weights: vec![f64::NAN, 0.5],
            },
            DirectiveKind::Split {
                module: Some(0),
                weights: vec![1.5, -0.5],
            },
            DirectiveKind::Split {
                module: None,
                weights: vec![0.5, 0.5],
            },
            DirectiveKind::Split {
                module: None,
                weights: vec![f64::INFINITY],
            },
            DirectiveKind::SafeMode {
                module: 1,
                active: true,
            },
        ];
        for (n, kind) in malformed.into_iter().enumerate() {
            agent.stage(directive(1_000 + n as u64, kind));
            assert_eq!(agent.reconcile_report().rejected, n as u64 + 1);
        }
        agent
            .commit_window()
            .expect("nothing staged, nothing fails");
        twin.commit_window().expect("clean window");
        assert_eq!(agent.reconcile_report().applied, 0);
        assert!(agent.applied_directives().is_empty());
        assert_eq!(agent.heartbeat(), twin.heartbeat(), "epoch and tick");
        assert_eq!(agent.observations(), twin.observations(), "plant");

        // The shard still takes a well-formed directive afterwards.
        agent.stage(directive(
            1,
            DirectiveKind::Frequency {
                computer: 1,
                index: table - 1,
            },
        ));
        agent.commit_window().expect("in-topology directive");
        assert_eq!(agent.reconcile_report().applied, 1);
        assert_eq!(
            agent.adapter().sim().computer(1).frequency_index(),
            table - 1
        );
    }
}
