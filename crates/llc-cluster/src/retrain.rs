//! The retrain consumer: turning the latched `retrain_recommended()`
//! signal into an actual background map rebuild with an atomic hot-swap.
//!
//! PR 3's drift detectors latch a re-train recommendation when residual
//! firings stop being local — incremental cell blending is patching a
//! model that is wrong *everywhere*, and only an offline re-learn fixes
//! that. Until now nothing consumed the signal. [`RetrainManager`]
//! closes the last open loop:
//!
//! 1. **detect** — any member map / module model detector latches;
//! 2. **latch** — `HierarchicalPolicy::retrain_recommended()` goes true;
//! 3. **rebuild** — the manager snapshots drift-corrected telemetry
//!    (effective processing times `ĉ/ŝ` from the L1 filters and the
//!    drift-aware L0 scale estimators) and spawns a *background* thread
//!    that re-learns the affected modules' abstraction maps over
//!    envelopes centered on those fresh ranges (fanning out over
//!    `llc-par`), re-seeds the measured cells of the old maps into the
//!    new ones, and — in multi-module clusters — re-fits the module cost
//!    models on top;
//! 4. **hot-swap** — exactly one L1 period after the trigger the
//!    hierarchy joins the thread (long finished by then; the join is the
//!    deterministic swap point, so runs reproduce bit for bit) and
//!    atomically installs the `Arc`-shared maps and models;
//! 5. **reset** — the swapped controllers' drift detectors re-arm and
//!    the latch releases, so the *next* global drift episode can trigger
//!    the *next* rebuild — subject to a cooldown and a lifetime budget
//!    that keep a persistently noisy plant from thrashing rebuilds.

use crate::l1::{AbstractionMap, L1Config, LearnSpec, MemberSpec};
use crate::l2::{ModuleCostModel, ModuleLearnSpec};
use crate::L0Config;
use llc_approx::BlendConfig;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Knobs of the [`RetrainManager`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainConfig {
    /// Minimum L1 periods between consecutive rebuild *triggers* (a
    /// rebuild is also never triggered while one is in flight). Keeps a
    /// plant that drifts continuously from thrashing rebuilds: between
    /// rebuilds the incremental learner carries the load.
    pub cooldown_periods: u64,
    /// Lifetime rebuild budget; once spent, further latches fall back to
    /// incremental learning only. `0` disables retraining outright.
    pub max_rebuilds: usize,
    /// Online observations a cell of the *old* map must hold before it
    /// is re-seeded into the rebuilt map (measured truth carried across
    /// the swap).
    pub reseed_min_confidence: f64,
    /// Blend rate for re-seeded cells against the rebuilt offline prior.
    pub reseed_learning_rate: f64,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            cooldown_periods: 8,
            max_rebuilds: 4,
            reseed_min_confidence: 2.0,
            reseed_learning_rate: 0.5,
        }
    }
}

impl RetrainConfig {
    /// Validate the knob ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs.
    pub fn validated(self) -> Self {
        assert!(
            self.reseed_min_confidence >= 0.0 && self.reseed_min_confidence.is_finite(),
            "reseed_min_confidence must be finite and non-negative"
        );
        assert!(
            self.reseed_learning_rate > 0.0 && self.reseed_learning_rate <= 1.0,
            "reseed_learning_rate must lie in (0, 1]"
        );
        self
    }
}

/// One module's share of a background rebuild: the drift-corrected specs
/// to learn over and the old maps whose measured cells are carried
/// across.
pub(crate) struct ModuleRebuildJob {
    pub(crate) module: usize,
    /// Member specs with `c_prior` re-centered on the *effective*
    /// processing time `ĉ/ŝ` at trigger time, so the rebuilt envelope
    /// covers the capacity actually being delivered.
    pub(crate) specs: Vec<MemberSpec>,
    /// Per-member learning envelopes `(c_range, λ_max, q_max)`,
    /// re-estimated from the ranges the absorbed outcomes *actually
    /// visited* (with headroom and safety floors) rather than the
    /// static [`MemberSpec::learn_envelope`] — the same grid resolution
    /// then concentrates on live traffic.
    pub(crate) envelopes: Vec<((f64, f64), f64, f64)>,
    pub(crate) old_maps: Vec<Arc<AbstractionMap>>,
    /// Re-fit this module's L2 cost model on the fresh maps.
    pub(crate) rebuild_model: bool,
}

/// The offline-learning knobs a rebuild replays — a snapshot of the
/// configuration the hierarchy was originally built with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RebuildContext {
    pub(crate) l0: L0Config,
    pub(crate) l1: L1Config,
    pub(crate) learn: LearnSpec,
    pub(crate) module_learn: ModuleLearnSpec,
}

/// What a background rebuild hands back for the hot-swap.
pub(crate) struct RebuildOutput {
    /// Fresh, re-seeded abstraction maps per affected module.
    pub(crate) maps: Vec<(usize, Vec<Arc<AbstractionMap>>)>,
    /// Fresh module cost models (multi-module clusters only).
    pub(crate) models: Vec<(usize, ModuleCostModel)>,
}

/// One completed rebuild, for reporting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildRecord {
    /// Base tick at which the latch triggered the rebuild.
    pub trigger_tick: u64,
    /// Base tick at which the fresh maps were hot-swapped in.
    pub swap_tick: u64,
    /// Modules whose maps (and models, if any) were replaced.
    pub modules: Vec<usize>,
}

struct PendingRebuild {
    handle: JoinHandle<RebuildOutput>,
    trigger_tick: u64,
    /// First base tick at which the swap may land (one L1 period after
    /// the trigger — deterministic, and comfortably after the background
    /// thread finishes).
    ready_tick: u64,
    modules: Vec<usize>,
}

/// The retrain consumer owned by `HierarchicalPolicy` (see the module
/// docs for the detect → latch → rebuild → hot-swap → reset lifecycle).
pub struct RetrainManager {
    cfg: RetrainConfig,
    pending: Option<PendingRebuild>,
    history: Vec<RebuildRecord>,
    /// Tick of the last trigger (drives the cooldown).
    last_trigger: Option<u64>,
}

impl std::fmt::Debug for RetrainManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrainManager")
            .field("cfg", &self.cfg)
            .field("pending", &self.pending.as_ref().map(|p| p.trigger_tick))
            .field("history", &self.history)
            .finish()
    }
}

impl RetrainManager {
    /// A manager with the given knobs.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see [`RetrainConfig::validated`]).
    pub fn new(cfg: RetrainConfig) -> Self {
        RetrainManager {
            cfg: cfg.validated(),
            pending: None,
            history: Vec::new(),
            last_trigger: None,
        }
    }

    /// The knobs in force.
    pub fn config(&self) -> &RetrainConfig {
        &self.cfg
    }

    /// Rebuilds completed and hot-swapped so far.
    pub fn rebuilds(&self) -> usize {
        self.history.len()
    }

    /// Rebuild triggers fired so far: completed rebuilds plus one in
    /// flight, if any. A trigger without a matching rebuild means a
    /// background job is still running toward its swap point.
    pub fn triggers(&self) -> u64 {
        self.history.len() as u64 + u64::from(self.pending.is_some())
    }

    /// The completed rebuilds, oldest first.
    pub fn history(&self) -> &[RebuildRecord] {
        &self.history
    }

    /// `true` while a background rebuild is in flight.
    pub fn pending(&self) -> bool {
        self.pending.is_some()
    }

    /// `true` when a latch observed at `tick` may trigger a rebuild:
    /// budget left, nothing in flight, cooldown expired.
    pub(crate) fn can_trigger(&self, tick: u64, cooldown_ticks: u64) -> bool {
        self.pending.is_none()
            && self.history.len() < self.cfg.max_rebuilds
            && self
                .last_trigger
                .is_none_or(|t| tick.saturating_sub(t) >= cooldown_ticks)
    }

    /// Spawn the background rebuild for `jobs` under the original build
    /// knobs in `ctx`, to be swapped in at `ready_tick`.
    pub(crate) fn spawn(
        &mut self,
        jobs: Vec<ModuleRebuildJob>,
        ctx: RebuildContext,
        trigger_tick: u64,
        ready_tick: u64,
    ) {
        debug_assert!(self.pending.is_none(), "one rebuild in flight at a time");
        let modules: Vec<usize> = jobs.iter().map(|j| j.module).collect();
        let reseed = BlendConfig::new(self.cfg.reseed_learning_rate, 0.0);
        let min_conf = self.cfg.reseed_min_confidence;
        let handle = std::thread::spawn(move || {
            let mut maps_out = Vec::with_capacity(jobs.len());
            let mut models_out = Vec::new();
            for job in jobs {
                // One offline pass per member, fanned out over llc-par —
                // the same deterministic learning pipeline build() runs,
                // but over the re-estimated (visited-range) envelopes.
                debug_assert_eq!(job.specs.len(), job.envelopes.len());
                let fresh: Vec<AbstractionMap> = llc_par::par_map_range(job.specs.len(), |i| {
                    let spec = &job.specs[i];
                    let (c_range, lambda_max, q_max) = job.envelopes[i];
                    AbstractionMap::learn(
                        &ctx.l0, &spec.phis, c_range, lambda_max, q_max, ctx.learn,
                    )
                });
                let maps: Vec<Arc<AbstractionMap>> = fresh
                    .into_iter()
                    .zip(&job.old_maps)
                    .map(|(mut map, old)| {
                        map.reseed_online_from(old, min_conf, &reseed);
                        Arc::new(map)
                    })
                    .collect();
                if job.rebuild_model {
                    let capacity: f64 = job.specs.iter().map(|m| m.speed / m.c_prior).sum();
                    models_out.push((
                        job.module,
                        ModuleCostModel::learn(
                            &ctx.l1,
                            &job.specs,
                            &maps,
                            capacity * 1.3,
                            ctx.module_learn,
                        ),
                    ));
                }
                maps_out.push((job.module, maps));
            }
            RebuildOutput {
                maps: maps_out,
                models: models_out,
            }
        });
        self.pending = Some(PendingRebuild {
            handle,
            trigger_tick,
            ready_tick,
            modules,
        });
        self.last_trigger = Some(trigger_tick);
    }

    /// Join and return the finished rebuild once `tick` reached its swap
    /// point; `None` while nothing is ready. The caller installs the
    /// output and the swap is recorded against `tick`.
    pub(crate) fn take_ready(&mut self, tick: u64) -> Option<RebuildOutput> {
        if self.pending.as_ref().is_none_or(|p| tick < p.ready_tick) {
            return None;
        }
        let pending = self.pending.take().expect("checked above");
        let output = pending
            .handle
            .join()
            .expect("background rebuild must not panic");
        self.history.push(RebuildRecord {
            trigger_tick: pending.trigger_tick,
            swap_tick: tick,
            modules: pending.modules,
        });
        Some(output)
    }
}
