//! The plant half of the control loop: [`Plant`], the one window
//! machine every driver steps, and the directive [`Reconciler`] every
//! actuation passes through. [`Experiment::run`] steps it by function
//! call and the node agent of `llc-net` over a wire; over a lossless
//! link the two are equal *bit for bit*, which is what the golden
//! equivalence test pins. Over a lossy one the reconciler keeps
//! actuation safe: the latest epoch wins per actuator, exact
//! re-deliveries are skipped, a frequency the plant silently ignored (a
//! wedged actuator) is caught by read-back, and a directive that does
//! not fit the plant is refused at [`Plant::stage`] and counted.
//!
//! [`Experiment::run`]: crate::Experiment::run

use crate::control::{Directive, DirectiveKind, ModuleObservation};
use crate::experiment::{Experiment, SimAdapter};
use llc_sim::{ClusterConfig, SimError};
use llc_workload::{
    derive_seed, spread_arrivals_into, RequestSampler, SpreadScratch, Trace, VirtualStore,
};
use rand::SeedableRng;

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
    /// Directives refused at [`Plant::stage`] because they do not fit
    /// the plant's topology (unknown computer or module, frequency index
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
/// reconciler was built for; [`Plant::stage`] refuses peer input that
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

/// The plant half of the control loop, the one window machine every
/// driver steps: a [`SimAdapter`] over a fresh cluster (prewarmed if the
/// experiment says so), the trace rebucketed to ticks, the two seeded
/// streams — request bodies and arrival instants — that turn a tick's
/// bucket count into scheduled requests, and the [`Reconciler`] between
/// the directives and the plant. [`Experiment::run`], the node agent and
/// `examples/control_plane.rs` all step it through
/// [`observations`](Plant::observations) → [`stage`](Plant::stage) →
/// [`commit_window`](Plant::commit_window), so for one seed they feed
/// the plant identical requests and actuate it identically.
///
/// The adapter is readable through [`adapter`](Plant::adapter) and
/// mutable through the window protocol only. The borrow on the
/// [`VirtualStore`] is the request sampler's.
///
/// [`Experiment::run`]: crate::Experiment::run
#[derive(Debug)]
pub struct Plant<'a> {
    adapter: SimAdapter,
    t_l0: f64,
    ticks_trace: Trace,
    sampler: RequestSampler<'a>,
    spread_rng: rand::rngs::StdRng,
    /// The spread's working storage and the window's arrival instants,
    /// kept so that no window but the run's largest allocates them.
    spread: SpreadScratch,
    instants: Vec<f64>,
    reconciler: Reconciler,
    tick: u64,
    last_epoch: u64,
    wedged_events: u64,
    wedged_members: Vec<bool>,
    applied_log: Vec<Directive>,
}

/// Most arrivals [`Plant::new`] accepts in one tick of its trace. A
/// window's arrivals are materialised — instants, then requests, about
/// 90 bytes each — on the tick they occur, so a trace file with one
/// absurd bucket would otherwise abort the run when it got there. Eight
/// times the ~1 M a window of the 1000-machine scale arm carries, and
/// far inside the `u32` bucket ids of [`spread_arrivals_into`].
pub const MAX_WINDOW_ARRIVALS: usize = 1 << 23;

impl<'a> Plant<'a> {
    /// A cluster built from `sim_config` under `experiment`'s drift and
    /// fault schedule, to be driven by `trace` (arrivals per bucket;
    /// rebucketed to the tick length) with request bodies drawn from
    /// `store`.
    ///
    /// # Errors
    ///
    /// [`SimError::WindowTooLarge`] if a tick of the rebucketed trace
    /// carries more than [`MAX_WINDOW_ARRIVALS`]; propagates [`SimError`]
    /// from prewarming (cannot occur for a well-formed cluster).
    ///
    /// # Panics
    ///
    /// Panics if the trace's bucket width is incompatible with `t_l0`.
    pub fn new(
        sim_config: ClusterConfig,
        experiment: &Experiment,
        trace: &Trace,
        store: &'a VirtualStore,
    ) -> Result<Self, SimError> {
        let ticks_trace = trace
            .rebucket(experiment.t_l0)
            .expect("trace bucket width must be an integer ratio of t_l0");
        let too_large = |&(_, &count): &(usize, &f64)| count.round() > MAX_WINDOW_ARRIVALS as f64;
        if let Some((tick, &arrivals)) = ticks_trace.counts().iter().enumerate().find(too_large) {
            return Err(SimError::WindowTooLarge {
                tick,
                arrivals,
                max: MAX_WINDOW_ARRIVALS,
            });
        }
        let mut adapter = SimAdapter::new(sim_config, experiment, ticks_trace.len());
        if experiment.prewarmed {
            adapter.prewarm()?;
        }
        let num_computers = adapter.sim().num_computers();
        let num_modules = adapter.members().len();
        Ok(Plant {
            adapter,
            t_l0: experiment.t_l0,
            ticks_trace,
            sampler: RequestSampler::paper_default(store, experiment.seed),
            spread_rng: rand::rngs::StdRng::seed_from_u64(derive_seed(experiment.seed, 0xA121)),
            spread: SpreadScratch::default(),
            instants: Vec::new(),
            reconciler: Reconciler::new(num_computers, num_modules),
            tick: 0,
            last_epoch: 0,
            wedged_events: 0,
            wedged_members: vec![false; num_computers],
            applied_log: Vec::new(),
        })
    }

    /// The next window awaiting a decision.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Run length in base ticks.
    pub fn total_ticks(&self) -> u64 {
        self.ticks_trace.len() as u64
    }

    /// Whether every window has been committed.
    pub fn finished(&self) -> bool {
        self.tick >= self.total_ticks()
    }

    /// Base tick length `T_L0` in seconds.
    pub fn t_l0(&self) -> f64 {
        self.t_l0
    }

    /// The newest epoch staged so far (what the agent's handshake and
    /// heartbeat report).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Module topology (global computer indices per module).
    pub fn members(&self) -> &[Vec<usize>] {
        self.adapter.members()
    }

    /// The plant adapter, read-only: only [`commit_window`] moves it.
    ///
    /// [`commit_window`]: Plant::commit_window
    pub fn adapter(&self) -> &SimAdapter {
        &self.adapter
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

    /// Render the current tick's observations (one per module) through
    /// the drift and fault injectors: [`SimAdapter::observe`].
    pub fn observations(&mut self) -> Vec<ModuleObservation> {
        self.adapter.observe(self.tick)
    }

    /// Stage one incoming directive for the next
    /// [`commit_window`](Plant::commit_window). The directive is peer
    /// input: one that does not fit this plant is refused and counted in
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
        let sim = self.adapter.sim();
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
    /// Returns the number of arrivals injected.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from actuation or arrival scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the run is [`finished`](Plant::finished).
    pub fn commit_window(&mut self) -> Result<usize, SimError> {
        let tick = self.tick;

        // Apply one directive at a time so the frequency read-back sees
        // exactly the post-apply state — the sim-call sequence is
        // identical to a batch `actuate`.
        for d in self.reconciler.drain() {
            self.adapter.actuate(std::slice::from_ref(&d))?;
            if let DirectiveKind::Frequency { computer, index } = &d.kind {
                let realized = self.adapter.sim().computer(*computer).frequency_index();
                let wedged = realized != *index;
                if wedged {
                    self.wedged_events += 1;
                }
                self.wedged_members[*computer] = wedged;
            }
            self.applied_log.push(d);
        }

        let count = self.inject_window(tick)?;
        self.tick += 1;
        Ok(count)
    }

    /// Inject tick `tick`'s arrivals and run the plant through its
    /// window: the trace's bucket count spread uniformly over the
    /// window, one request body per arrival, then
    /// [`SimAdapter::advance_window`]. Returns the number of arrivals
    /// injected.
    fn inject_window(&mut self, tick: u64) -> Result<usize, SimError> {
        let count = self.ticks_trace.count(tick as usize).round().max(0.0) as usize;
        let t_l0 = self.t_l0;
        let start = tick as f64 * t_l0;
        spread_arrivals_into(
            &mut self.spread_rng,
            start,
            t_l0,
            count,
            &mut self.spread,
            &mut self.instants,
        );
        for &at in &self.instants {
            let (_, demand) = self.sampler.next_request();
            self.adapter.schedule_arrival(at, demand)?;
        }
        self.adapter.advance_window(tick)?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::single_module;
    use crate::control::Level;

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

    /// A two-machine, one-module plant under the paper's driver.
    fn two_machines() -> (ClusterConfig, Experiment, VirtualStore) {
        let sim_config = single_module(2).to_sim_config();
        (
            sim_config,
            Experiment::paper_default(0xBEEF),
            VirtualStore::paper_default(0xBEEF),
        )
    }

    #[test]
    fn a_trace_window_past_the_plant_bound_is_refused_at_construction() {
        let (sim_config, exp, store) = two_machines();
        let trace = Trace::new(exp.t_l0, vec![100.0, 1e15]).expect("finite counts");
        let refused =
            Plant::new(sim_config, &exp, &trace, &store).expect_err("an unbounded window");
        assert!(matches!(refused, SimError::WindowTooLarge { tick: 1, .. }));
    }

    /// Peer input that decodes but does not fit the two-machine,
    /// one-module plant: each kind is refused and counted, the window
    /// still commits, and the plant and the reported epoch stay where an
    /// undisturbed twin's are.
    #[test]
    fn malformed_directives_are_refused_at_stage() {
        let (sim_config, exp, store) = two_machines();
        let trace = Trace::new(exp.t_l0, vec![60.0; 8]).expect("finite counts");
        let new_agent =
            || Plant::new(sim_config.clone(), &exp, &trace, &store).expect("well-formed plant");
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
        let heartbeat = |p: &Plant| (p.tick(), p.last_epoch(), p.wedged_events());
        assert_eq!(heartbeat(&agent), heartbeat(&twin), "epoch and tick");
        assert_eq!(agent.observations(), twin.observations(), "plant");

        // The plant still takes a well-formed directive afterwards.
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
