//! The control plane: observation-ingest / directive-emit API.
//!
//! The paper specifies the hierarchy as an *online* controller — each
//! level consumes streamed operating-condition estimates and emits
//! directives on its own period — but the policy used to be drivable
//! only through [`Experiment`]'s synchronous sim callbacks. This module
//! splits decision-making from the drive loop:
//!
//! * plant telemetry arrives as [`ModuleObservation`]s through the
//!   [`ObservationIngest`] trait — timestamped, per-module, tolerant of
//!   out-of-order delivery and missing members;
//! * decisions leave as typed [`Directive`]s through the
//!   [`DirectiveEmit`] trait, each stamped with the level, tick and
//!   epoch that produced it;
//! * [`ControlPlane`] owns the L2/L1/L0 tick cadence on a virtual
//!   clock, assembles per-tick [`Observations`] for any
//!   [`ClusterPolicy`], and exposes a [`MetricsSnapshot`] combining its
//!   own driver counters (ingest, reordering, decide latency) with the
//!   policy's [`PolicyMetrics`] (drift detections per learner, retrain
//!   triggers/rebuilds, member deaths/recoveries, safe-mode periods,
//!   feed-forward events).
//!
//! [`Experiment`] is one client of this API (its sim adapter translates
//! plant state into observations and directives into actuation);
//! `examples/control_plane.rs` is another, running the hierarchy as a
//! long-lived loop fed by a channel with no `Experiment` at all.
//!
//! ## Observe vs Learn at the API boundary
//!
//! The closed-loop mode of the policy behind the plane decides what an
//! ingested observation *does*: in `Learn` mode the hierarchy derives
//! realized outcomes from the stream and absorbs them into its own
//! models (the plane's client supplies telemetry and nothing else); in
//! `Observe` mode outcomes are derived and scored against the models
//! but never learned from. The ingest surface is identical in both —
//! the mode is a property of the policy, not of the transport.
//!
//! [`Experiment`]: crate::Experiment

#![deny(missing_docs)]

use crate::hierarchy::LevelOverhead;
use crate::policy::{Action, ClusterPolicy, ComputerObs, ModuleObs, Observations};
use crate::{L0Config, L1Config, L2Config};
use llc_sim::{PowerState, WindowStats};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// A hierarchy level, from fastest (per-computer DVFS) to slowest
/// (cluster-wide split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Per-computer frequency control (every base tick, `T_L0`).
    L0,
    /// Per-module on/off and load-split control (`T_L1`).
    L1,
    /// Cluster-wide module-split control (`T_L2`).
    L2,
}

/// The tick cadence of the two slow levels, in base (`T_L0`) ticks: the
/// period bookkeeping that used to live inline in the hierarchy and now
/// belongs to the driver. An L1 decision fires on ticks divisible by
/// `l1_every`, an L2 decision on ticks divisible by `l2_every`; epochs
/// count those firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Base ticks per L1 period (`T_L1 / T_L0`, at least 1).
    pub l1_every: u64,
    /// Base ticks per L2 period (`T_L2 / T_L0`, at least 1).
    pub l2_every: u64,
}

impl Cadence {
    /// The flat cadence: every level fires every base tick (what a
    /// non-hierarchical policy reports).
    pub fn base() -> Self {
        Cadence {
            l1_every: 1,
            l2_every: 1,
        }
    }

    /// Derive the cadence from the three level configurations (periods
    /// rounded to whole base ticks, floored at one).
    pub fn from_configs(l0: &L0Config, l1: &L1Config, l2: &L2Config) -> Self {
        Cadence {
            l1_every: l0.ticks_per(l1.period),
            l2_every: l0.ticks_per(l2.period),
        }
    }

    /// `true` when an L1 decision fires at `tick`.
    pub fn is_l1_tick(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.l1_every)
    }

    /// `true` when an L2 decision fires at `tick`.
    pub fn is_l2_tick(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.l2_every)
    }

    /// The epoch of `level` at `tick`: how many of that level's periods
    /// have started up to and including the tick. Directives carry it so
    /// a consumer can tell which decision round produced them.
    pub fn epoch(&self, level: Level, tick: u64) -> u64 {
        match level {
            Level::L0 => tick,
            Level::L1 => tick / self.l1_every,
            Level::L2 => tick / self.l2_every,
        }
    }

    /// The wall-clock period of `level` in seconds, given the base tick
    /// length.
    pub fn period_of(&self, level: Level, t_l0: f64) -> f64 {
        match level {
            Level::L0 => t_l0,
            Level::L1 => self.l1_every as f64 * t_l0,
            Level::L2 => self.l2_every as f64 * t_l0,
        }
    }
}

/// One member's telemetry for one base tick, as reported over the
/// ingest surface. `member` is the position within the module (not the
/// global computer index — the plane owns the topology and does the
/// translation).
///
/// When `telemetry_ok` is `false` the reporter lost this window
/// (blackout, crash-stop silence): `window` and `queue` arrive blank
/// and `state`/`frequency_index` should be *frozen at the last healthy
/// values the reporter saw* — crash-stop is indistinguishable from a
/// partition, so ground truth is unavailable. `rejected` is measured at
/// the module dispatcher, not the machine, and therefore stays valid
/// through darkness.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberTelemetry {
    /// Position of the member within its module.
    pub member: usize,
    /// Queue length at the sampling instant (queued + in service).
    pub queue: usize,
    /// Realized stats of the window that just ended.
    pub window: WindowStats,
    /// Power state at the sampling instant (last healthy value when
    /// `telemetry_ok` is `false`).
    pub state: PowerState,
    /// Frequency-table index (last healthy value when `telemetry_ok` is
    /// `false`).
    pub frequency_index: usize,
    /// `false` when this window's telemetry was lost.
    pub telemetry_ok: bool,
    /// Dispatcher-side refused sends to this member during the window.
    pub rejected: u64,
}

/// One module's observation for one base tick: the unit of ingest.
///
/// A module reports all the members it heard from; members it omits are
/// dark-filled by the plane (blank window, `telemetry_ok = false`,
/// state frozen at the plane's last record) — absence of telemetry must
/// never stall or crash the controller, because the fault-tolerance
/// path already models exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleObservation {
    /// Module index.
    pub module: usize,
    /// Base tick the window ended at (the plane's virtual clock).
    pub tick: u64,
    /// Telemetry for the members the reporter heard from.
    pub members: Vec<MemberTelemetry>,
    /// Requests dispatched to the module during the window.
    pub arrivals: u64,
    /// Requests dropped at/inside the module during the window.
    pub dropped: u64,
}

/// A typed decision leaving the control plane.
///
/// Every directive is stamped with the base `tick` and virtual `time`
/// it was decided at, the [`Level`] that decided it, and that level's
/// `epoch` — the count of decision rounds the level has run. Two
/// directives with the same level and epoch came from the same decision
/// round; a consumer reconciling against a slow transport can use the
/// epoch to drop superseded directives (a later epoch at the same level
/// always wins).
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// Base tick the decision was taken at.
    pub tick: u64,
    /// Virtual time in seconds (`tick · T_L0`).
    pub time: f64,
    /// The hierarchy level that produced the decision.
    pub level: Level,
    /// The producing level's decision-round counter at `tick`.
    pub epoch: u64,
    /// What to do.
    pub kind: DirectiveKind,
}

/// The payload of a [`Directive`].
#[derive(Debug, Clone, PartialEq)]
pub enum DirectiveKind {
    /// Set a computer's frequency-table index (L0).
    Frequency {
        /// Global computer index.
        computer: usize,
        /// Frequency-table index to run at.
        index: usize,
    },
    /// Power a computer on or off (L1's α decision).
    Activation {
        /// Global computer index.
        computer: usize,
        /// `true` = power on (incurs boot dead time), `false` = drain
        /// and power off.
        on: bool,
    },
    /// Install a load split (L1's per-module γ over members when
    /// `module` is set; L2's cluster-wide split over modules when it is
    /// `None`).
    Split {
        /// The module whose member split this is, or `None` for the
        /// cluster-wide module split.
        module: Option<usize>,
        /// The weights, summing to 1 over live targets.
        weights: Vec<f64>,
    },
    /// A module entered or left safe mode (uniform split over live
    /// members, models distrusted). Informational: it accompanies the
    /// `Split`/`Activation` directives that enact the posture, so it
    /// maps to no plant action — consumers use it to raise or clear an
    /// operator-facing alarm.
    SafeMode {
        /// Module index.
        module: usize,
        /// `true` on entry, `false` on exit.
        active: bool,
    },
}

/// Why an observation was refused at the ingest surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The observation names a module the plane does not manage.
    UnknownModule {
        /// The offending module index.
        module: usize,
        /// Modules managed.
        modules: usize,
    },
    /// The observation names a member position outside its module.
    UnknownMember {
        /// The module reported for.
        module: usize,
        /// The offending member position.
        member: usize,
        /// Members in that module.
        members: usize,
    },
    /// The observation's tick was already decided: the plane never
    /// revisits a decided tick, so late telemetry is dropped (and
    /// counted) rather than buffered.
    Stale {
        /// The observation's tick.
        tick: u64,
        /// The earliest tick still accepted.
        next_tick: u64,
    },
    /// The observation's tick lies at or beyond the ingest horizon
    /// ([`INGEST_HORIZON_TICKS`] past the next undecided tick): buffering
    /// it would let a peer grow the pending map without bound, so it is
    /// dropped (and counted) instead.
    Future {
        /// The observation's tick.
        tick: u64,
        /// The first tick not accepted yet.
        horizon_end: u64,
    },
    /// A member's window carries a `response_sum`, `demand_sum` or
    /// `energy` that is NaN, infinite or negative. These feed the cost
    /// the online learners blend into the abstraction maps, where one
    /// NaN would stay for good; the observation is refused whole and the
    /// module dark-filled for the tick.
    NonFinite {
        /// The module reported for.
        module: usize,
        /// The member position whose window is unusable.
        member: usize,
    },
}

/// How far ahead of the next undecided tick the ingest surface buffers.
/// `Experiment::run` and lockstep sessions lead the clock by at most one
/// window, and a paced agent runs ahead of a stalled controller by about
/// one window per missed deadline — so the bound is hundreds of ticks: a
/// stall it would cut short has long since failed its deadlines, and the
/// pending map it caps stays at `INGEST_HORIZON_TICKS × modules` slots.
pub const INGEST_HORIZON_TICKS: u64 = 512;

/// How many emitted directives a [`ControlPlane`] holds for a drain. A
/// client that drains after every step holds one tick's worth (at most
/// a frequency and an activation per machine, a split and a safe-mode
/// flag per module and one cluster split: ~2 500 for 1000 machines in
/// 250 modules), so the bound is tens of ticks of a client that stopped
/// draining. Past it the oldest directive goes, counted in
/// [`MetricsSnapshot::dropped_directives`]: actuators apply the latest
/// epoch, so a newer directive to the same actuator supersedes it anyway.
pub const OUTBOX_CAPACITY: usize = 1 << 16;

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownModule { module, modules } => {
                write!(f, "unknown module {module} (plane manages {modules})")
            }
            IngestError::UnknownMember {
                module,
                member,
                members,
            } => write!(
                f,
                "unknown member {member} in module {module} ({members} members)"
            ),
            IngestError::Stale { tick, next_tick } => write!(
                f,
                "stale observation for tick {tick} (next undecided tick is {next_tick})"
            ),
            IngestError::Future { tick, horizon_end } => write!(
                f,
                "observation for tick {tick} is beyond the ingest horizon \
                 (ticks before {horizon_end} are accepted)"
            ),
            IngestError::NonFinite { module, member } => write!(
                f,
                "non-finite or negative window sums for member {member} of module {module}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// The observation-ingest surface of a control plane.
///
/// # Ordering guarantees
///
/// * Observations may arrive in **any order** across modules and across
///   future ticks: the plane buffers them by tick and assembles each
///   tick's view when it is decided, so a reordering transport needs no
///   client-side resequencing.
/// * Within one `(tick, module)` pair, the **last observation wins** —
///   a retransmission simply replaces the buffered one.
/// * An observation for a tick **already decided** is refused with
///   [`IngestError::Stale`]: the virtual clock never rewinds, and a
///   decision, once taken, is never revised.
/// * An observation [`INGEST_HORIZON_TICKS`] or more ahead of the next
///   undecided tick is refused with [`IngestError::Future`]: the buffer
///   of undecided ticks is bounded, and what the bound drops is counted.
/// * **Missing data never blocks the clock**: a tick may be decided
///   with whole modules or individual members absent — they are treated
///   as dark (blank window, `telemetry_ok = false`), which is exactly
///   the condition the policy's fault-tolerance path models.
pub trait ObservationIngest {
    /// Feed one module's telemetry for one tick.
    ///
    /// # Errors
    ///
    /// Refuses observations naming unknown modules/members or carrying
    /// non-finite window sums, observations for already-decided ticks,
    /// and observations beyond the ingest horizon (see [`IngestError`]).
    fn ingest(&mut self, observation: ModuleObservation) -> Result<(), IngestError>;
}

/// The directive-emit surface of a control plane: decisions accumulate
/// in an internal queue, bounded at [`OUTBOX_CAPACITY`] for
/// [`ControlPlane`], and are drained by the transport that delivers them
/// to the plant.
pub trait DirectiveEmit {
    /// Take every directive emitted since the last drain, oldest first.
    /// Within one tick the order is the policy's actuation order and
    /// must be preserved by the consumer (a frequency directive may
    /// assume the activation before it has been applied).
    fn drain_directives(&mut self) -> Vec<Directive>;
}

/// Decide-latency accounting: wall-clock time spent inside the policy's
/// `decide`, excluding observation assembly and directive translation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Decisions timed.
    pub decisions: u64,
    /// Total time across all decisions.
    pub total: Duration,
    /// The slowest single decision.
    pub max: Duration,
    /// Search effort behind the latencies: candidate α configurations
    /// whose γ search actually ran across the policy's L1 decisions.
    pub candidates_evaluated: u64,
    /// Candidate α configurations skipped by the branch-and-bound
    /// admissible lower bound — work the decide path *didn't* do. The
    /// pruned fraction explains a latency shift without a profiler.
    pub candidates_pruned: u64,
}

impl LatencyStats {
    fn record(&mut self, elapsed: Duration) {
        self.decisions += 1;
        self.total += elapsed;
        self.max = self.max.max(elapsed);
    }

    /// Mean decide latency, or zero before any decision.
    pub fn mean(&self) -> Duration {
        mean_duration(self.total, self.decisions)
    }
}

/// `total / count`, rounded down to the nanosecond, or zero for a zero
/// `count`. Divides in `u128` nanoseconds: a count past `u32::MAX` (a
/// thousand machines' L0 decisions in about four years) must neither
/// truncate nor divide by zero.
pub(crate) fn mean_duration(total: Duration, count: u64) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    if count == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / u128::from(count);
    // At most `total`, so its whole seconds fit `total`'s `u64`.
    Duration::new(
        (nanos / NANOS_PER_SEC) as u64,
        (nanos % NANOS_PER_SEC) as u32,
    )
}

/// The operational counters a [`ClusterPolicy`] exposes through the
/// metrics surface. Everything here used to be buried in private
/// counters across three structs with three access idioms
/// (`HierarchicalPolicy`, its watchdog, its retrain manager); the
/// control plane surfaces them all in one place via
/// [`MetricsSnapshot`]. A policy without a given subsystem reports
/// zeros/empties — the defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyMetrics {
    /// Observations blended into learned models so far (all levels).
    pub online_updates: u64,
    /// Drift detections fired per L1 learner: one inner vector per
    /// module, one counter per member abstraction map. Empty while
    /// online learning is off.
    pub map_drift_detections: Vec<Vec<u64>>,
    /// Drift detections fired per L2 learner (one counter per module
    /// cost model). Empty without an L2 or while online learning is
    /// off.
    pub model_drift_detections: Vec<u64>,
    /// Mean prequential tracking error (`|predicted − realized|` cost),
    /// or `None` before any outcome was derived.
    pub tracking_error: Option<f64>,
    /// Realized outcomes derived so far.
    pub tracking_samples: u64,
    /// Background rebuilds triggered so far (completed plus in flight).
    pub retrain_triggers: u64,
    /// Background rebuilds completed and hot-swapped so far.
    pub rebuilds: u64,
    /// `true` while a background rebuild is in flight.
    pub retrain_pending: bool,
    /// Members declared dead so far (cumulative).
    pub member_deaths: u64,
    /// Dead members that rejoined so far.
    pub member_recoveries: u64,
    /// Which members the watchdog currently considers dead, by global
    /// computer index. Empty without fault tolerance.
    pub members_dead: Vec<bool>,
    /// Module-periods spent in safe mode so far.
    pub safe_mode_periods: u64,
    /// Which modules are in safe mode right now. Empty without fault
    /// tolerance.
    pub safe_mode_active: Vec<bool>,
    /// L2→L1 feed-forward events (decided split pushed into a module's
    /// λ forecast) so far.
    pub feed_forward_events: u64,
    /// Per-level wall-clock decide overhead, indexed `[L0, L1, L2]`.
    pub level_overhead: [LevelOverhead; 3],
    /// Candidate α configurations γ-searched across all L1 decisions.
    pub l1_candidates_evaluated: u64,
    /// Candidate α configurations pruned by the L1 branch-and-bound.
    pub l1_candidates_pruned: u64,
}

impl PolicyMetrics {
    /// Total drift detections across every learner at every level.
    pub fn drift_detections(&self) -> u64 {
        let maps: u64 = self.map_drift_detections.iter().flatten().sum();
        maps + self.model_drift_detections.iter().sum::<u64>()
    }
}

/// Transport-layer counters for a control plane that talks to its
/// plant over a real wire (the `llc-net` node-agent/controller split).
/// The in-process [`ControlPlane`] has no transport and reports the
/// all-zero default; a networked driver fills this section into the
/// [`MetricsSnapshot`] it serves, so one endpoint explains both the
/// decisions and the link they rode on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportMetrics {
    /// Frames received and successfully decoded.
    pub frames_in: u64,
    /// Frames encoded and sent.
    pub frames_out: u64,
    /// Wire bytes received (framing included).
    pub bytes_in: u64,
    /// Wire bytes sent (framing included).
    pub bytes_out: u64,
    /// Frames refused by the decoder (truncated, corrupted, version-
    /// skewed). A refused frame is dropped whole — never partially
    /// applied.
    pub decode_errors: u64,
    /// Observations that arrived after their tick was already decided
    /// and were therefore rejected at ingest (the transport-lateness
    /// face of `stale_observations`).
    pub late_observations: u64,
    /// Module-windows decided without that module's observation — the
    /// deadline fired first and the members were dark-filled.
    pub lost_observation_windows: u64,
    /// Accepted agent connections beyond the first (session
    /// re-establishment after a drop).
    pub reconnects: u64,
    /// Wedged-actuator reports received from agents: directives the
    /// agent applied whose actuator did not take the commanded value.
    pub wedged_reports: u64,
}

/// Everything observable about a control plane at one instant: the
/// driver's own ingest/emit/latency counters plus the policy's
/// [`PolicyMetrics`]. This is the one metrics surface — the counters
/// that used to require knowing which struct owned them
/// (`member_deaths` on the policy, `rebuilds` on the retrain manager,
/// per-learner detections on each controller) are all reachable from
/// here.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The next undecided tick of the virtual clock.
    pub next_tick: u64,
    /// Ticks decided so far.
    pub ticks_decided: u64,
    /// Observations accepted at the ingest surface.
    pub observations_ingested: u64,
    /// Accepted observations that arrived after an observation for a
    /// later tick (genuine transport reordering).
    pub out_of_order_observations: u64,
    /// Observations refused because their tick was already decided.
    pub stale_observations: u64,
    /// Observations refused because their tick lay at or beyond the
    /// ingest horizon ([`INGEST_HORIZON_TICKS`]).
    pub future_observations: u64,
    /// Member-windows dark-filled because no telemetry arrived for them
    /// at a decided tick.
    pub dark_filled_members: u64,
    /// Directives emitted so far.
    pub directives_emitted: u64,
    /// Emitted directives dropped undrained, oldest first, to keep the
    /// outbox at [`OUTBOX_CAPACITY`].
    pub dropped_directives: u64,
    /// Decide-latency accounting.
    pub decide: LatencyStats,
    /// The policy's own operational counters.
    pub policy: PolicyMetrics,
    /// Wire-transport counters, all zero for an in-process plane (see
    /// [`TransportMetrics`]).
    pub transport: TransportMetrics,
}

impl MetricsSnapshot {
    /// Members declared dead so far (cumulative).
    pub fn member_deaths(&self) -> u64 {
        self.policy.member_deaths
    }

    /// Dead members that rejoined so far.
    pub fn member_recoveries(&self) -> u64 {
        self.policy.member_recoveries
    }

    /// Module-periods spent in safe mode so far.
    pub fn safe_mode_periods(&self) -> u64 {
        self.policy.safe_mode_periods
    }

    /// Background rebuilds completed and hot-swapped so far.
    pub fn rebuilds(&self) -> u64 {
        self.policy.rebuilds
    }

    /// Total drift detections across every learner at every level.
    pub fn drift_detections(&self) -> u64 {
        self.policy.drift_detections()
    }
}

/// What one [`ControlPlane::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// The tick decided.
    pub tick: u64,
    /// Virtual time of the decision (seconds).
    pub time: f64,
    /// Wall-clock time spent inside the policy's `decide`.
    pub decide_time: Duration,
    /// Directives emitted by this step.
    pub directives: usize,
}

/// The driver that runs a [`ClusterPolicy`] as a control plane: it owns
/// the virtual clock and the level cadence, buffers ingested
/// observations by tick, assembles each tick's [`Observations`] (dark-
/// filling missing members), times the decision, and translates actions
/// into stamped [`Directive`]s.
///
/// The plane is transport-agnostic: [`Experiment`] drives it in
/// lockstep against the simulator, `examples/control_plane.rs` drives
/// it from a channel. Both produce bit-identical directive sequences
/// for the same telemetry stream, because the plane itself is
/// deterministic — all wall-clock measurement is confined to the
/// latency metrics.
///
/// [`Experiment`]: crate::Experiment
#[derive(Debug)]
pub struct ControlPlane<P: ClusterPolicy> {
    policy: P,
    /// Global computer indices per module (the topology).
    members: Vec<Vec<usize>>,
    /// Reverse topology: module of each global computer index.
    computer_module: Vec<usize>,
    t_l0: f64,
    cadence: Cadence,
    next_tick: u64,
    /// Buffered observations for undecided ticks, one slot per module.
    pending: BTreeMap<u64, Vec<Option<ModuleObservation>>>,
    /// Emitted directives awaiting a drain, at most [`OUTBOX_CAPACITY`].
    out: VecDeque<Directive>,
    /// Last known state/frequency per computer, used to dark-fill
    /// members that sent no telemetry at all.
    last_state: Vec<PowerState>,
    last_frequency: Vec<usize>,
    /// The observations each step hands the policy, refilled in place.
    frame: Observations,
    /// Per computer: named by an observation of the tick being assembled.
    heard: Vec<bool>,
    /// Safe-mode posture per module at the previous L1 tick (diffed to
    /// emit `SafeMode` directives on transitions).
    safe_mode_prev: Vec<bool>,
    ingested: u64,
    out_of_order: u64,
    stale: u64,
    future: u64,
    dark_filled: u64,
    emitted: u64,
    dropped_directives: u64,
    decide: LatencyStats,
}

impl<P: ClusterPolicy> ControlPlane<P> {
    /// A plane driving `policy` over the topology `members` (global
    /// computer indices per module) with base tick length `t_l0`
    /// seconds. The cadence is taken from the policy.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty, `t_l0` is not positive, or the
    /// member indices do not form a dense `0..n` cover (every global
    /// computer index in exactly one module).
    pub fn new(policy: P, members: Vec<Vec<usize>>, t_l0: f64) -> Self {
        assert!(t_l0 > 0.0, "base tick length must be positive");
        assert!(
            !members.is_empty(),
            "topology must have at least one module"
        );
        let num_computers: usize = members.iter().map(|m| m.len()).sum();
        let mut computer_module = vec![usize::MAX; num_computers];
        for (m, module) in members.iter().enumerate() {
            for &i in module {
                assert!(
                    i < num_computers && computer_module[i] == usize::MAX,
                    "member indices must form a dense 0..{num_computers} cover"
                );
                computer_module[i] = m;
            }
        }
        let cadence = policy.cadence();
        let num_modules = members.len();
        ControlPlane {
            policy,
            members,
            computer_module,
            t_l0,
            cadence,
            next_tick: 0,
            pending: BTreeMap::new(),
            out: VecDeque::new(),
            last_state: vec![PowerState::Off; num_computers],
            last_frequency: vec![0; num_computers],
            frame: Observations {
                tick: 0,
                time: 0.0,
                computers: Vec::with_capacity(num_computers),
                modules: Vec::with_capacity(num_modules),
            },
            heard: vec![false; num_computers],
            safe_mode_prev: vec![false; num_modules],
            ingested: 0,
            out_of_order: 0,
            stale: 0,
            future: 0,
            dark_filled: 0,
            emitted: 0,
            dropped_directives: 0,
            decide: LatencyStats::default(),
        }
    }

    /// The topology: global computer indices per module.
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The level cadence in force.
    pub fn cadence(&self) -> Cadence {
        self.cadence
    }

    /// The next undecided tick of the virtual clock.
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// The policy behind the plane.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy behind the plane.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Dissolve the plane and hand the policy back.
    pub fn into_policy(self) -> P {
        self.policy
    }

    /// `true` when every module has reported for the next tick — the
    /// natural "step now" signal for an event-driven client. Stepping
    /// without it is allowed (missing reporters are dark-filled).
    pub fn ready(&self) -> bool {
        self.pending
            .get(&self.next_tick)
            .is_some_and(|slot| slot.iter().all(Option::is_some))
    }

    /// How many modules have reported for the next undecided tick. A
    /// deadline-driven transport reads this before forcing a [`step`]
    /// to count the module-windows it is about to dark-fill.
    ///
    /// [`step`]: ControlPlane::step
    pub fn reported_modules(&self) -> usize {
        self.pending
            .get(&self.next_tick)
            .map_or(0, |slot| slot.iter().filter(|o| o.is_some()).count())
    }

    /// Decide the next tick from whatever has been ingested for it,
    /// dark-filling missing members, and queue the resulting
    /// directives. Advances the virtual clock by one base tick.
    pub fn step(&mut self) -> StepReport {
        let tick = self.next_tick;
        let time = tick as f64 * self.t_l0;
        let frame = &mut self.frame;
        frame.tick = tick;
        frame.time = time;
        // Dark-fill every member first: blank window, and the state and
        // frequency last reported for it.
        frame.computers.clear();
        frame
            .computers
            .extend((0..self.computer_module.len()).map(|i| ComputerObs {
                index: i,
                module: self.computer_module[i],
                queue: 0,
                window: WindowStats::default(),
                state: self.last_state[i],
                frequency_index: self.last_frequency[i],
                telemetry_ok: false,
                rejected: 0,
            }));
        frame.modules.clear();
        frame
            .modules
            .extend((0..self.members.len()).map(|index| ModuleObs {
                index,
                arrivals: 0,
                dropped: 0,
            }));
        self.heard.fill(false);

        // Then overwrite the members reported, the last report of a
        // member winning.
        let mut dark_filled = self.heard.len() as u64;
        let slot = self.pending.remove(&tick).unwrap_or_default();
        for (m, entry) in slot.into_iter().enumerate() {
            let Some(observation) = entry else { continue };
            frame.modules[m].arrivals = observation.arrivals;
            frame.modules[m].dropped = observation.dropped;
            for t in observation.members {
                let i = self.members[m][t.member];
                // The reporter freezes state/frequency at its last
                // healthy values when telemetry is lost; the plane
                // passes them through and remembers them for
                // dark-filling members that stop reporting entirely.
                self.last_state[i] = t.state;
                self.last_frequency[i] = t.frequency_index;
                frame.computers[i] = ComputerObs {
                    index: i,
                    module: m,
                    queue: t.queue,
                    window: t.window,
                    state: t.state,
                    frequency_index: t.frequency_index,
                    telemetry_ok: t.telemetry_ok,
                    rejected: t.rejected,
                };
                if !std::mem::replace(&mut self.heard[i], true) {
                    dark_filled -= 1;
                }
            }
        }
        self.dark_filled += dark_filled;

        let started = Instant::now();
        let actions = self.policy.decide(&self.frame);
        let decide_time = started.elapsed();
        self.decide.record(decide_time);

        let mut emitted = 0usize;
        for action in actions {
            let (level, kind) = match action {
                Action::SetFrequency(computer, index) => {
                    (Level::L0, DirectiveKind::Frequency { computer, index })
                }
                Action::PowerOn(computer) => {
                    (Level::L1, DirectiveKind::Activation { computer, on: true })
                }
                Action::PowerOff(computer) => (
                    Level::L1,
                    DirectiveKind::Activation {
                        computer,
                        on: false,
                    },
                ),
                Action::SetComputerWeights(m, weights) => (
                    Level::L1,
                    DirectiveKind::Split {
                        module: Some(m),
                        weights,
                    },
                ),
                Action::SetModuleWeights(weights) => (
                    Level::L2,
                    DirectiveKind::Split {
                        module: None,
                        weights,
                    },
                ),
            };
            self.queue(Directive {
                tick,
                time,
                level,
                epoch: self.cadence.epoch(level, tick),
                kind,
            });
            emitted += 1;
        }

        // Safe mode is an L1-period posture: diff it at L1 ticks and
        // emit transitions as informational directives.
        if self.cadence.is_l1_tick(tick) {
            let safe_now = self.policy.metrics().safe_mode_active;
            if safe_now.len() == self.safe_mode_prev.len() {
                for (m, &is) in safe_now.iter().enumerate() {
                    if self.safe_mode_prev[m] != is {
                        self.queue(Directive {
                            tick,
                            time,
                            level: Level::L1,
                            epoch: self.cadence.epoch(Level::L1, tick),
                            kind: DirectiveKind::SafeMode {
                                module: m,
                                active: is,
                            },
                        });
                        emitted += 1;
                    }
                }
                self.safe_mode_prev = safe_now;
            }
        }
        self.emitted += emitted as u64;
        self.next_tick += 1;
        StepReport {
            tick,
            time,
            decide_time,
            directives: emitted,
        }
    }

    /// Queue `directive` for the next drain. A full outbox drops its
    /// oldest directive first, and counts it.
    fn queue(&mut self, directive: Directive) {
        if self.out.len() == OUTBOX_CAPACITY {
            self.out.pop_front();
            self.dropped_directives += 1;
        }
        self.out.push_back(directive);
    }

    /// Step every tick whose window has fully elapsed by virtual time
    /// `now` (seconds), returning one report per decision. The idle
    /// form of the drive loop: feed observations as they arrive, then
    /// let the clock catch up.
    pub fn advance_to(&mut self, now: f64) -> Vec<StepReport> {
        let mut reports = Vec::new();
        while self.next_tick as f64 * self.t_l0 <= now + 1e-9 {
            reports.push(self.step());
        }
        reports
    }

    /// Snapshot every operational counter: the driver's and the
    /// policy's.
    pub fn metrics(&self) -> MetricsSnapshot {
        let policy = self.policy.metrics();
        // The decide-latency stats carry the policy's search-effort
        // counters alongside the wall-clock numbers, so one read
        // explains the other.
        let mut decide = self.decide;
        decide.candidates_evaluated = policy.l1_candidates_evaluated;
        decide.candidates_pruned = policy.l1_candidates_pruned;
        MetricsSnapshot {
            next_tick: self.next_tick,
            ticks_decided: self.next_tick,
            observations_ingested: self.ingested,
            out_of_order_observations: self.out_of_order,
            stale_observations: self.stale,
            future_observations: self.future,
            dark_filled_members: self.dark_filled,
            directives_emitted: self.emitted,
            dropped_directives: self.dropped_directives,
            decide,
            policy,
            transport: TransportMetrics::default(),
        }
    }
}

impl<P: ClusterPolicy> ObservationIngest for ControlPlane<P> {
    fn ingest(&mut self, observation: ModuleObservation) -> Result<(), IngestError> {
        let m = observation.module;
        if m >= self.members.len() {
            return Err(IngestError::UnknownModule {
                module: m,
                modules: self.members.len(),
            });
        }
        let module_len = self.members[m].len();
        if let Some(bad) = observation.members.iter().find(|t| t.member >= module_len) {
            return Err(IngestError::UnknownMember {
                module: m,
                member: bad.member,
                members: module_len,
            });
        }
        let usable = |x: f64| x.is_finite() && x >= 0.0;
        if let Some(bad) = observation.members.iter().find(|t| {
            !(usable(t.window.response_sum)
                && usable(t.window.demand_sum)
                && usable(t.window.energy))
        }) {
            return Err(IngestError::NonFinite {
                module: m,
                member: bad.member,
            });
        }
        if observation.tick < self.next_tick {
            self.stale += 1;
            return Err(IngestError::Stale {
                tick: observation.tick,
                next_tick: self.next_tick,
            });
        }
        let horizon_end = self.next_tick.saturating_add(INGEST_HORIZON_TICKS);
        if observation.tick >= horizon_end {
            self.future += 1;
            return Err(IngestError::Future {
                tick: observation.tick,
                horizon_end,
            });
        }
        if self
            .pending
            .keys()
            .next_back()
            .is_some_and(|&latest| latest > observation.tick)
        {
            self.out_of_order += 1;
        }
        let modules = self.members.len();
        let slot = self
            .pending
            .entry(observation.tick)
            .or_insert_with(|| vec![None; modules]);
        slot[m] = Some(observation);
        self.ingested += 1;
        Ok(())
    }
}

impl<P: ClusterPolicy> DirectiveEmit for ControlPlane<P> {
    fn drain_directives(&mut self) -> Vec<Directive> {
        self.out.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy that powers everything on at tick 0 and re-splits at
    /// its (fake) L1 cadence.
    struct Probe {
        cadence: Cadence,
        seen: Vec<u64>,
        dark_seen: usize,
    }

    impl ClusterPolicy for Probe {
        fn decide(&mut self, obs: &Observations) -> Vec<Action> {
            self.seen.push(obs.tick);
            self.dark_seen += obs.computers.iter().filter(|c| !c.telemetry_ok).count();
            let mut actions = Vec::new();
            if obs.tick == 0 {
                actions.push(Action::PowerOn(0));
                actions.push(Action::SetFrequency(1, 2));
            }
            if self.cadence.is_l1_tick(obs.tick) {
                actions.push(Action::SetComputerWeights(0, vec![0.5, 0.5]));
            }
            actions
        }
        fn name(&self) -> &str {
            "probe"
        }
        fn cadence(&self) -> Cadence {
            self.cadence
        }
    }

    fn plane() -> ControlPlane<Probe> {
        ControlPlane::new(
            Probe {
                cadence: Cadence {
                    l1_every: 4,
                    l2_every: 4,
                },
                seen: Vec::new(),
                dark_seen: 0,
            },
            vec![vec![0, 1]],
            30.0,
        )
    }

    fn telemetry(member: usize) -> MemberTelemetry {
        MemberTelemetry {
            member,
            queue: 1,
            window: WindowStats::default(),
            state: PowerState::On,
            frequency_index: 1,
            telemetry_ok: true,
            rejected: 0,
        }
    }

    fn observation(tick: u64, members: Vec<MemberTelemetry>) -> ModuleObservation {
        ModuleObservation {
            module: 0,
            tick,
            members,
            arrivals: 10,
            dropped: 0,
        }
    }

    #[test]
    fn directives_carry_level_and_epoch() {
        let mut plane = plane();
        plane
            .ingest(observation(0, vec![telemetry(0), telemetry(1)]))
            .unwrap();
        assert!(plane.ready());
        let report = plane.step();
        assert_eq!(report.tick, 0);
        let directives = plane.drain_directives();
        assert_eq!(report.directives, directives.len());
        let freq = directives
            .iter()
            .find(|d| matches!(d.kind, DirectiveKind::Frequency { .. }))
            .expect("frequency directive");
        assert_eq!(freq.level, Level::L0);
        assert_eq!(freq.epoch, 0);
        let split = directives
            .iter()
            .find(|d| matches!(d.kind, DirectiveKind::Split { .. }))
            .expect("split directive");
        assert_eq!(split.level, Level::L1);
        assert_eq!(
            split.kind,
            DirectiveKind::Split {
                module: Some(0),
                weights: vec![0.5, 0.5]
            }
        );
    }

    #[test]
    fn out_of_order_and_stale_ingest() {
        let mut plane = plane();
        plane
            .ingest(observation(1, vec![telemetry(0), telemetry(1)]))
            .unwrap();
        // Tick 0 arrives after tick 1: accepted, counted as reordered.
        plane
            .ingest(observation(0, vec![telemetry(0), telemetry(1)]))
            .unwrap();
        let _ = plane.step();
        let _ = plane.step();
        // Tick 0 again: already decided.
        let err = plane
            .ingest(observation(0, vec![telemetry(0)]))
            .unwrap_err();
        assert!(matches!(err, IngestError::Stale { tick: 0, .. }));
        let m = plane.metrics();
        assert_eq!(m.out_of_order_observations, 1);
        assert_eq!(m.stale_observations, 1);
        assert_eq!(m.ticks_decided, 2);
        assert_eq!(m.observations_ingested, 2);
    }

    #[test]
    fn far_future_ingest_is_refused_and_counted() {
        let mut plane = plane();
        let _ = plane.step(); // the horizon slides with the clock
        let horizon_end = 1 + INGEST_HORIZON_TICKS;
        for k in 0..9_999u64 {
            let tick = horizon_end + k * 1_000_003;
            let err = plane
                .ingest(observation(tick, vec![telemetry(0)]))
                .unwrap_err();
            assert_eq!(err, IngestError::Future { tick, horizon_end });
        }
        // The 10 000th: the horizon's own arithmetic must not overflow.
        assert!(plane
            .ingest(observation(u64::MAX, vec![telemetry(0)]))
            .is_err());
        assert!(plane.pending.is_empty(), "refused ticks are not buffered");
        assert_eq!(plane.metrics().future_observations, 10_000);
        // The last tick inside the horizon is still accepted.
        plane
            .ingest(observation(horizon_end - 1, vec![telemetry(0)]))
            .unwrap();
        assert_eq!(plane.pending.len(), 1);
        assert_eq!(plane.metrics().observations_ingested, 1);
    }

    #[test]
    fn an_undrained_outbox_stays_at_its_bound_and_counts_the_rest() {
        /// Eight frequency directives a tick.
        struct Chatty;
        impl ClusterPolicy for Chatty {
            fn decide(&mut self, obs: &Observations) -> Vec<Action> {
                (0..8)
                    .map(|i| Action::SetFrequency(i % 2, obs.tick as usize % 3))
                    .collect()
            }
            fn name(&self) -> &str {
                "chatty"
            }
        }
        let mut plane = ControlPlane::new(Chatty, vec![vec![0, 1]], 30.0);
        for _ in 0..10_000 {
            plane.step();
            assert!(plane.out.len() <= OUTBOX_CAPACITY);
        }
        let m = plane.metrics();
        assert_eq!(m.directives_emitted, 80_000);
        assert_eq!(m.dropped_directives, 80_000 - OUTBOX_CAPACITY as u64);
        // The oldest went: the newest are left, in emit order.
        let left = plane.drain_directives();
        assert_eq!(left.len(), OUTBOX_CAPACITY);
        let first_kept = (80_000 - OUTBOX_CAPACITY as u64) / 8;
        for (directives, tick) in left.chunks_exact(8).zip(first_kept..) {
            assert!(directives.iter().all(|d| d.tick == tick), "tick {tick}");
        }
        assert_eq!(left.last().map(|d| d.tick), Some(9_999));
    }

    #[test]
    fn missing_members_are_dark_filled() {
        let mut plane = plane();
        // Member 1 healthy at tick 0 so the plane learns its state.
        plane
            .ingest(observation(0, vec![telemetry(0), telemetry(1)]))
            .unwrap();
        let _ = plane.step();
        // Tick 1: member 1 missing entirely. Readiness is per-module —
        // the reporter spoke, so the tick counts as reported; the
        // omitted member is dark-filled at assembly.
        plane.ingest(observation(1, vec![telemetry(0)])).unwrap();
        assert!(plane.ready());
        let _ = plane.step();
        assert_eq!(plane.metrics().dark_filled_members, 1);
        assert_eq!(plane.policy().dark_seen, 1);
        // The dark fill froze the last known state.
        assert_eq!(plane.last_state[1], PowerState::On);
        assert_eq!(plane.last_frequency[1], 1);
    }

    /// Keeps a copy of every frame it is handed.
    struct Recorder(Vec<Observations>);

    impl ClusterPolicy for Recorder {
        fn decide(&mut self, obs: &Observations) -> Vec<Action> {
            self.0.push(obs.clone());
            Vec::new()
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    #[test]
    fn a_member_silent_after_a_report_is_dark_filled_not_repeated() {
        let mut plane = ControlPlane::new(Recorder(Vec::new()), vec![vec![0, 1]], 30.0);
        let loud = MemberTelemetry {
            member: 0,
            queue: 7,
            window: WindowStats {
                arrivals: 40,
                completions: 38,
                response_sum: 9.5,
                demand_sum: 0.7,
                dropped: 2,
                energy: 51.0,
            },
            state: PowerState::Draining,
            frequency_index: 3,
            telemetry_ok: true,
            rejected: 4,
        };
        plane
            .ingest(observation(0, vec![loud.clone(), telemetry(1)]))
            .unwrap();
        plane.step();
        plane.ingest(observation(1, vec![telemetry(1)])).unwrap();
        plane.step();
        plane.step();

        let frames = &plane.policy().0;
        assert_eq!(frames[0].computers[0].window, loud.window);
        let dark = ComputerObs {
            index: 0,
            module: 0,
            queue: 0,
            window: WindowStats::default(),
            state: PowerState::Draining,
            frequency_index: 3,
            telemetry_ok: false,
            rejected: 0,
        };
        assert_eq!(frames[1].computers[0], dark);
        assert!(frames[1].computers[1].telemetry_ok);
        // A tick nobody reported for: every member dark, the module blank.
        assert_eq!((frames[2].tick, frames[2].time), (2, 60.0));
        assert_eq!(frames[2].computers[0], dark);
        assert!(!frames[2].computers[1].telemetry_ok);
        assert_eq!(frames[2].computers[1].queue, 0);
        assert_eq!(
            frames[2].modules,
            vec![ModuleObs {
                index: 0,
                arrivals: 0,
                dropped: 0
            }]
        );
        assert_eq!(plane.metrics().dark_filled_members, 1 + 2);
    }

    #[test]
    fn a_member_named_twice_counts_once_and_the_last_report_wins() {
        let mut plane = ControlPlane::new(Recorder(Vec::new()), vec![vec![0, 1, 2]], 30.0);
        let second = MemberTelemetry {
            queue: 9,
            frequency_index: 0,
            state: PowerState::Off,
            ..telemetry(0)
        };
        plane
            .ingest(observation(0, vec![telemetry(0), second, telemetry(2)]))
            .unwrap();
        plane.step();
        let frame = &plane.policy().0[0];
        assert_eq!(frame.computers[0].queue, 9);
        assert_eq!(frame.computers[0].state, PowerState::Off);
        assert!(!frame.computers[1].telemetry_ok);
        assert_eq!(plane.metrics().dark_filled_members, 1);
        assert_eq!(plane.last_state[0], PowerState::Off);
        assert_eq!(plane.last_frequency[0], 0);
    }

    #[test]
    fn means_hold_past_u32_max_decisions() {
        let total = Duration::from_secs(1 << 32);
        for (decisions, mean) in [
            (1u64 << 32, Duration::from_secs(1)),
            ((1 << 32) + 1, Duration::from_nanos(999_999_999)),
        ] {
            let latency = LatencyStats {
                decisions,
                total,
                ..LatencyStats::default()
            };
            assert_eq!(latency.mean(), mean, "{decisions} decisions");
            let level = LevelOverhead { total, decisions };
            assert_eq!(level.mean(), mean, "{decisions} decisions");
        }
        assert_eq!(LatencyStats::default().mean(), Duration::ZERO);
        // One decision may take longer than `u64::MAX` nanoseconds.
        assert_eq!(mean_duration(Duration::MAX, 1), Duration::MAX);
    }

    #[test]
    fn advance_to_steps_the_virtual_clock() {
        let mut plane = plane();
        let reports = plane.advance_to(90.0);
        assert_eq!(reports.len(), 4, "ticks 0,1,2,3 elapsed by t=90s");
        assert_eq!(plane.next_tick(), 4);
        // No telemetry at all: everything dark-filled, decisions still
        // taken (absence of telemetry must not stall the controller).
        assert_eq!(plane.metrics().dark_filled_members, 8);
    }

    #[test]
    fn rejects_unknown_topology_references() {
        let mut plane = plane();
        let err = plane
            .ingest(ModuleObservation {
                module: 3,
                tick: 0,
                members: vec![],
                arrivals: 0,
                dropped: 0,
            })
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownModule { module: 3, .. }));
        let err = plane
            .ingest(observation(0, vec![telemetry(7)]))
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownMember { member: 7, .. }));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_topology_panics() {
        let _ = ControlPlane::new(
            Probe {
                cadence: Cadence::base(),
                seen: Vec::new(),
                dark_seen: 0,
            },
            vec![vec![0, 2]],
            30.0,
        );
    }

    #[test]
    fn cadence_epochs() {
        let c = Cadence {
            l1_every: 4,
            l2_every: 8,
        };
        assert!(c.is_l1_tick(0) && c.is_l1_tick(4) && !c.is_l1_tick(3));
        assert!(c.is_l2_tick(8) && !c.is_l2_tick(4));
        assert_eq!(c.epoch(Level::L0, 7), 7);
        assert_eq!(c.epoch(Level::L1, 7), 1);
        assert_eq!(c.epoch(Level::L2, 7), 0);
        assert_eq!(c.period_of(Level::L2, 30.0), 240.0);
    }
}
