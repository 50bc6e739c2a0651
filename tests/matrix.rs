//! The behaviour matrix: every run the workspace pins, each hashed and
//! compared with the committed `tests/fingerprints.txt`, and every other
//! drive of the control loop, each of which must reproduce its shape's
//! run exactly. This is the one place a run is pinned; the tests that
//! check it each name the rows they own and the arms that run on them.
//! Every reference run's log is first held to `crate::invariants`.
//!
//! **One row format**, read off the product's own loop,
//! `Experiment::run`. A row is FNV-1a chained tick by tick over the
//! directives the plant applied at that tick (each field, floats by bit
//! pattern) and the window that followed: its completions, its mean
//! response (`u64::MAX` for a window without completions), and the
//! cumulative energy and drops. After the last tick the chain takes in
//! the policy's final counters: online updates, drift detections per
//! member map, tracking samples and error, member deaths and recoveries,
//! and safe-mode periods. The file keeps the final hash, the directive
//! count and, per tick, the low 32 bits of the running hash, so that a
//! mismatch names the first tick that diverges and prints what the run
//! did there.
//!
//! A change that means to move behaviour rewrites every row with
//!
//! ```text
//! LLC_REBLESS=1 cargo test -p llc-tests --test fingerprints
//! ```
//!
//! and its diff shows old → new per row.
//!
//! **Shapes.** A row is named `shape/seed`; a run under another preset
//! than its family's own names it after an `@`. Every shape learns on
//! the coarse grids, so that the whole matrix stays seconds of a debug
//! build:
//!
//! | shape | plant | stack | seeds | checked by |
//! |---|---|---|---|---|
//! | `paper16` | 16 machines / 4 modules, the §5.2 day's crest, 6 × 120 s | paper | 2006, 3101, 3102 | `fingerprints.rs` |
//! | `adverse4` | 4 machines / 1 module, 208 ticks, capacity drift and a fault plan | self-healing, fault-tolerant | 2006, 3101, 3102 | `fingerprints.rs` |
//! | `scale128` | 128 machines / 32 modules, split quantum 1/128, 16 ticks | paper | 2006, 3101, 3102 | `fingerprints.rs` |
//! | `closed2mod` | 2 × 4 machines, a 1.0 → 0.7 capacity ramp, 48 ticks | closed loop | 31 | `closed_loop.rs` |
//! | `faults2mod` | the same modules and ramp, 160 ticks: module 1 all crashed, a quorum-loss blackout in module 0, then a lone crash | self-healing, fault-tolerant | 41 | `closed_loop.rs` |
//! | `module`, `cluster` | `RunSpec { buckets: 12, coarse_learning: true, .. }` | the family's; `module` under every `Preset` | 2006 | `run_spec.rs` |
//! | `closedloop0`–`3`, `faults0`–`3` | the drift and fault families at `RunSpec::defaults` | the family's | 48879, 5 | `run_spec.rs`; `closedloop2`, `faults0` also `distributed_golden.rs` |
//! | `closedloop2@ClosedLoop`, `faults0@FaultTolerant` | the same two runs under the stacks the hand loop was written against | as named | 48879, 5 | `control_plane.rs` |
//!
//! **Arms** are the other drives of the loop. An arm has no row: its run
//! must equal its shape's reference run, and a mismatch names the arm,
//! the row and the first diverging tick.
//!
//! | arm | drive | on |
//! |---|---|---|
//! | `Pipe` | agent and controller cores through the wire codec over an in-memory `PipeLink`, this thread playing scheduler | `scale128` |
//! | `Tcp` | `serve_controller` and `run_agent` in lockstep over loopback TCP on two threads: both ends' directive logs, the controller's counters and the plant's final totals (the agent owns its loop, so the windows go unseen), and a clean transport | `closedloop2`, `faults0` |
//! | `Adapter` | a hand loop over a bare `SimAdapter`: no `Plant`, so no reconciler | `closedloop2@ClosedLoop`, `faults0@FaultTolerant` |
//! | `Workers4` | the reference drive with four offline-learning and plant-sweep workers, where the rows are written from one | `faults2mod` |

use llc_cluster::{
    cluster_of, paper_cluster_16, single_module, ControlPlane, Directive, DirectiveEmit,
    Experiment, Family, HierarchicalPolicy, ObservationIngest, Plant, PolicyMetrics, Preset,
    RunSpec, ScenarioConfig, SimAdapter,
};
use llc_net::{
    decode_directive, encode_directive, encode_heartbeat, encode_observation, run_agent,
    serve_controller, ControldCore, FrameKind, FrameTransport, Heartbeat, PipeLink, TcpLink,
};
use llc_workload::{
    derive_seed, drift_scenarios, spread_arrivals, wc98_like_fig6, CapacityProfile, FaultEvent,
    FaultKind, FaultPlan, RequestSampler, Trace, VirtualStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::Fnv;

const SEEDS: [u64; 3] = [2006, 3101, 3102];

/// A window as the plant closed it, floats by bit pattern: completions,
/// mean response (`u64::MAX` for a window without completions), and
/// cumulative energy and drops.
type Window = [u64; 4];

fn window(completions: u64, mean_response: Option<f64>, energy: f64, dropped: u64) -> Window {
    let response = mean_response.map_or(u64::MAX, f64::to_bits);
    [completions, response, energy.to_bits(), dropped]
}

/// The window `adapter` just advanced through, as `Experiment::run`
/// records it.
fn window_of(adapter: &SimAdapter) -> Window {
    let stats = adapter.window_stats();
    let completions: u64 = stats.iter().map(|w| w.completions).sum();
    let response_sum: f64 = stats.iter().map(|w| w.response_sum).sum();
    let mean_response = (completions > 0).then(|| response_sum / completions as f64);
    let (energy, dropped) = (adapter.sim().total_energy(), adapter.sim().dropped());
    window(completions, mean_response, energy, dropped)
}

/// The policy's final counters a row hashes, as words.
fn counters(m: &PolicyMetrics) -> Vec<u64> {
    let mut words = vec![m.online_updates, m.map_drift_detections.len() as u64];
    for module in &m.map_drift_detections {
        words.push(module.len() as u64);
        words.extend(module);
    }
    words.extend([
        m.tracking_samples,
        m.tracking_error.map_or(u64::MAX, f64::to_bits),
        m.member_deaths,
        m.member_recoveries,
        m.safe_mode_periods,
    ]);
    words
}

/// What one drive of the loop did.
struct Run {
    /// Every directive actuated, in order, each stamped with its tick.
    directives: Vec<Directive>,
    /// One per tick, or the last alone for a drive that sees no other.
    windows: Vec<Window>,
    counters: Vec<u64>,
}

impl Run {
    fn directives_at(&self, tick: u64) -> Vec<&Directive> {
        self.directives.iter().filter(|d| d.tick == tick).collect()
    }

    /// Tick `tick` of the run, for a mismatch report.
    fn describe(&self, tick: u64) -> String {
        let mut at = format!("  window: {:?}", self.windows.get(tick as usize));
        for d in self.directives_at(tick) {
            write!(at, "\n  {d:?}").unwrap();
        }
        at
    }
}

/// A run's row of the matrix: final hash, directive count and the
/// running hash's low 32 bits after each tick.
#[derive(Debug, PartialEq)]
struct Row {
    hash: u64,
    directives: usize,
    chain: Vec<u32>,
}

impl Row {
    fn of(run: &Run) -> Row {
        let mut h = Fnv::default();
        let mut directives = run.directives.iter().peekable();
        let chain = (0..)
            .zip(&run.windows)
            .map(|(tick, w)| {
                while let Some(d) = directives.next_if(|d| d.tick <= tick) {
                    h.directive(d);
                }
                w.iter().for_each(|&b| h.eat(b));
                h.0 as u32
            })
            .collect();
        directives.for_each(|d| h.directive(d));
        run.counters.iter().for_each(|&c| h.eat(c));
        let directives = run.directives.len();
        Row {
            hash: h.0,
            directives,
            chain,
        }
    }

    /// The row's hash, directive count and length.
    fn head(&self) -> String {
        let (hash, n) = (self.hash, self.directives);
        format!("{hash:016x} ({n} directives, {} ticks)", self.chain.len())
    }

    fn render(&self, name: &str) -> String {
        let mut line = format!("{name} {:016x} {}", self.hash, self.directives);
        for link in &self.chain {
            write!(line, " {link:08x}").unwrap();
        }
        line
    }

    fn parse(line: &str) -> Option<(String, Row)> {
        let mut fields = line.split_whitespace();
        let name = fields.next()?.to_string();
        let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
        let directives = fields.next()?.parse().ok()?;
        let chain = fields.map(|f| u32::from_str_radix(f, 16).ok());
        let chain = chain.collect::<Option<_>>()?;
        Some((
            name,
            Row {
                hash,
                directives,
                chain,
            },
        ))
    }
}

const MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt");

const HEADER: &str = "\
# The behaviour matrix of tests/tests/fingerprints.rs: one row per run,
# `shape/seed  hash  directives  per-tick chain`. Rewrite it with
# LLC_REBLESS=1 cargo test -p llc-tests --test fingerprints
";

/// The committed rows, by name.
fn committed() -> BTreeMap<String, Row> {
    let text = std::fs::read_to_string(MATRIX).unwrap_or_default();
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| Row::parse(line).unwrap_or_else(|| panic!("malformed row: {line}")))
        .collect()
}

/// Whether `LLC_REBLESS=1` asks the matrix's test to rewrite the file.
pub fn reblessing() -> bool {
    std::env::var_os("LLC_REBLESS").is_some_and(|v| v == "1")
}

/// Rewrite `tests/fingerprints.txt` from every shape's reference run,
/// each learning on one worker inside `llc_par::par_map`.
pub fn rebless() {
    let shapes = shapes();
    let rows = llc_par::par_map(&shapes, |s| (s.name.clone(), Row::of(&reference(s))));
    let rows: BTreeMap<String, Row> = rows.into_iter().collect();
    let mut text = HEADER.to_string();
    for (name, row) in &rows {
        writeln!(text, "{}", row.render(name)).unwrap();
    }
    std::fs::write(MATRIX, text).expect("write tests/fingerprints.txt");
}

/// Panics unless the committed rows are exactly the shapes' rows.
pub fn assert_every_row_is_a_shape() {
    let want = committed();
    let names: Vec<String> = shapes().into_iter().map(|s| s.name).collect();
    let mut failures: Vec<String> = (want.keys())
        .filter(|name| !names.contains(name))
        .map(|name| format!("{name}: committed, but no longer a shape (rebless to drop it)"))
        .collect();
    failures.extend(
        (names.iter())
            .filter(|name| !want.contains_key(*name))
            .map(|name| format!("{name}: no committed row (rebless to add it)")),
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// How `run`, whose row is `got`, departs from the row it must
/// reproduce, or `None` where it does not.
fn mismatch(name: &str, got: &Row, want: &Row, run: &Run) -> Option<String> {
    let at = match want.chain.iter().zip(&got.chain).position(|(a, b)| a != b) {
        Some(tick) => format!(
            "first diverging tick {tick}, where the run did\n{}",
            run.describe(tick as u64)
        ),
        None => format!("no tick diverges; the final counters: {:?}", run.counters),
    };
    let (got_head, want_head) = (got.head(), want.head());
    (got != want).then(|| format!("{name}: fingerprint {got_head}, expected {want_head}; {at}"))
}

/// Everything a run is built from.
struct Shape {
    name: String,
    scenario: ScenarioConfig,
    preset: Preset,
    exp: Experiment,
    trace: Trace,
    store_seed: u64,
}

impl Shape {
    fn store(&self) -> VirtualStore {
        VirtualStore::paper_default(self.store_seed)
    }

    fn plant<'a>(&self, store: &'a VirtualStore) -> Plant<'a> {
        let config = self.scenario.to_sim_config();
        Plant::new(config, &self.exp, &self.trace, store).expect("well-formed plant")
    }

    fn policy(&self) -> HierarchicalPolicy {
        self.preset.builder(self.scenario.clone()).build()
    }
}

/// A drive of the control loop: the reference, or an arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `Experiment::run`, whose run is the row.
    Reference,
    /// Agent and controller cores through the wire codec over a `PipeLink`.
    Pipe,
    /// `serve_controller` and `run_agent` over loopback TCP.
    Tcp,
    /// A hand loop over a bare `SimAdapter`.
    Adapter,
    /// The reference drive with four workers.
    Workers4,
}

impl Drive {
    fn run(self, s: &Shape) -> Run {
        match self {
            Drive::Reference | Drive::Workers4 => reference(s),
            Drive::Pipe => over_pipe(s),
            Drive::Tcp => over_tcp(s),
            Drive::Adapter => by_hand(s),
        }
    }
}

/// The reference drive: `Experiment::run`.
fn reference(s: &Shape) -> Run {
    let config = s.scenario.to_sim_config();
    let log = s.exp.run(config, &mut s.policy(), &s.trace, &s.store());
    let log = log.expect("well-formed run");
    crate::invariants::check(&s.name, &log, &s.scenario);
    Run {
        windows: (log.ticks.iter())
            .map(|t| window(t.completions, t.mean_response, t.energy, t.dropped))
            .collect(),
        counters: counters(&log.metrics.policy),
        directives: log.directives,
    }
}

/// The plant's side of a finished run.
fn plant_run(plant: &Plant<'_>, windows: Vec<Window>, counters: Vec<u64>) -> Run {
    let directives = plant.applied_directives().to_vec();
    Run {
        directives,
        windows,
        counters,
    }
}

/// The `Pipe` arm: agent and controller cores through the wire codec
/// over an in-memory pipe, this thread playing scheduler.
fn over_pipe(s: &Shape) -> Run {
    let store = s.store();
    let mut agent = s.plant(&store);
    let members = agent.members().to_vec();
    let mut ctrl = ControldCore::new(s.policy(), members, s.exp.t_l0, agent.total_ticks());
    let (mut ctrl_link, mut agent_link) = PipeLink::pair();
    let mut windows = Vec::new();
    while !agent.finished() {
        for observation in agent.observations() {
            let frame = encode_observation(&observation);
            agent_link.send(FrameKind::Observation, frame).unwrap();
        }
        let heartbeat = encode_heartbeat(&Heartbeat::agent(&agent));
        agent_link.send(FrameKind::Heartbeat, heartbeat).unwrap();
        while let Some(frame) = ctrl_link.recv(None).unwrap() {
            ctrl.handle_frame(&frame).unwrap();
        }
        for d in &ctrl.decide_next().1 {
            let frame = encode_directive(d);
            ctrl_link.send(FrameKind::Directive, frame).unwrap();
        }
        while let Some(frame) = agent_link.recv(None).unwrap() {
            agent.stage(decode_directive(&frame.payload).unwrap());
        }
        agent.commit_window().unwrap();
        windows.push(window_of(agent.adapter()));
    }
    plant_run(&agent, windows, counters(&ctrl.plane().metrics().policy))
}

/// The `Tcp` arm: the daemons' session loops in lockstep over loopback
/// TCP, the controller served on a second thread.
fn over_tcp(s: &Shape) -> Run {
    let store = s.store();
    let mut plant = s.plant(&store);
    let (members, ticks) = (plant.members().to_vec(), plant.total_ticks());
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound");
    let (emitted, metrics, controller_link, agent_link) = std::thread::scope(|scope| {
        let controller = scope.spawn(|| {
            let mut core = ControldCore::new(s.policy(), members, s.exp.t_l0, ticks);
            let mut link = TcpLink::new(listener.accept().expect("agent connects").0).unwrap();
            serve_controller(&mut core, &mut link, None).expect("controller: lockstep session");
            let metrics = core.metrics(&link.counters());
            (core.directives_log().to_vec(), metrics, link.counters())
        });
        let mut link = TcpLink::new(TcpStream::connect(addr).expect("listening")).unwrap();
        run_agent(&mut plant, &mut link, None).expect("agent: lockstep session");
        let agent_link = link.counters();
        let (emitted, metrics, controller_link) = controller.join().expect("controller");
        (emitted, metrics, controller_link, agent_link)
    });

    // A lossless lockstep session has a clean transport section: every
    // frame decoded, nothing late, nothing dark-filled at a deadline,
    // nothing wedged. The link moves a window in one write: per side,
    // one per tick plus the handshake (and the controller's closing
    // metrics), while every frame is still sent and counted one by one.
    let t = &metrics.transport;
    assert_eq!(metrics.next_tick, ticks);
    assert_eq!(emitted, plant.applied_directives(), "applied as emitted");
    assert_eq!(
        (t.decode_errors, t.late_observations, t.reconnects),
        (0, 0, 0)
    );
    assert_eq!((t.lost_observation_windows, plant.wedged_events()), (0, 0));
    assert!(t.bytes_in > 0 && t.bytes_out > 0);
    let modules = plant.members().len() as u64;
    assert_eq!(agent_link.frames_out, 1 + ticks * (modules + 1));
    let directives = emitted.len() as u64;
    assert_eq!(controller_link.frames_out, 1 + directives + ticks + 1);
    assert_eq!(agent_link.frames_in, controller_link.frames_out);
    assert_eq!(controller_link.frames_in, agent_link.frames_out);
    for link in [agent_link, controller_link] {
        assert!((ticks..=ticks + 2).contains(&link.writes_out), "{link:?}");
    }
    let last = vec![window_of(plant.adapter())];
    plant_run(&plant, last, counters(&metrics.policy))
}

/// The `Adapter` arm: the ingest/emit API driven by hand over a bare
/// `SimAdapter`, with no `Plant` and so no reconciler, against the same
/// workload and injectors `Experiment::run` uses.
fn by_hand(s: &Shape) -> Run {
    let store = s.store();
    let ticks_trace = s.trace.rebucket(s.exp.t_l0).expect("whole ticks");
    let total_ticks = ticks_trace.len();
    let mut adapter = SimAdapter::new(s.scenario.to_sim_config(), &s.exp, total_ticks);
    if s.exp.prewarmed {
        adapter.prewarm().expect("well-formed cluster");
    }
    let mut sampler = RequestSampler::paper_default(&store, s.exp.seed);
    let mut spread_rng = StdRng::seed_from_u64(derive_seed(s.exp.seed, 0xA121));
    let mut policy = s.policy();
    let mut plane = ControlPlane::new(&mut policy, adapter.members().to_vec(), s.exp.t_l0);
    let (mut directives, mut windows) = (Vec::new(), Vec::new());
    for tick in 0..total_ticks as u64 {
        for observation in adapter.observe(tick) {
            plane.ingest(observation).expect("fresh in-order stream");
        }
        plane.step();
        let drained = plane.drain_directives();
        adapter.actuate(&drained).expect("well-formed directives");
        directives.extend(drained);
        let t = tick as f64 * s.exp.t_l0;
        let count = ticks_trace.count(tick as usize).round().max(0.0) as usize;
        for at in spread_arrivals(&mut spread_rng, t, s.exp.t_l0, count) {
            let (_, demand) = sampler.next_request();
            adapter.schedule_arrival(at, demand).expect("in-window");
        }
        adapter.advance_window(tick).expect("well-formed run");
        windows.push(window_of(&adapter));
    }
    Run {
        directives,
        windows,
        counters: counters(&plane.metrics().policy),
    }
}

/// Coarse learning, with half its module-model arrival steps: learning
/// the module models is most of what a multi-module build costs.
fn coarsest(scenario: ScenarioConfig) -> ScenarioConfig {
    let mut scenario = scenario.with_coarse_learning();
    scenario.module_learn.lambda_steps = 8;
    scenario
}

fn capacity_rate(scenario: &ScenarioConfig) -> f64 {
    let members = scenario.member_specs().into_iter().flatten();
    members.map(|m| m.speed / m.c_prior).sum()
}

/// A shape of the paper's stack at `seed`.
fn paper(name: &str, scenario: ScenarioConfig, trace: Trace, seed: u64) -> Shape {
    Shape {
        name: format!("{name}/{seed}"),
        scenario,
        preset: Preset::Paper,
        exp: Experiment::paper_default(seed),
        trace,
        store_seed: seed,
    }
}

/// The §5.2 day's crest on the paper's sixteen machines, 6 × 120 s.
fn paper16(seed: u64) -> Shape {
    let trace = wc98_like_fig6(seed).slice(340, 346);
    paper("paper16", coarsest(paper_cluster_16()), trace, seed)
}

/// 128 machines in 32 modules over the day's rising edge, scaled so its
/// crest loads the cluster to 6 % (the benchmark's crest), 4 × 120 s.
fn scale128(seed: u64) -> Shape {
    let mut scenario = coarsest(paper_cluster_16());
    scenario.modules = cluster_of(32);
    scenario.l2.gamma_quantum = 1.0 / 128.0;
    let crest = 0.06 * capacity_rate(&scenario) * 120.0;
    let window = wc98_like_fig6(seed).slice(340, 344);
    let trace = window.scaled(crest / window.peak());
    paper("scale128", scenario, trace, seed)
}

fn event(tick: u64, computer: usize, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        tick,
        computer,
        kind,
    }
}

/// One fault episode of each kind, rotating over the four members from
/// one the seed picks, each starting at a seeded tick of its own 16-tick
/// slot.
fn adverse_fault_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xFA07));
    let lead = rng.gen_range(0..4usize);
    let episodes = [
        (FaultKind::Crash { requeue: false }, FaultKind::Restart, 8),
        (FaultKind::BlackoutStart, FaultKind::BlackoutEnd, 6),
        (FaultKind::NoiseStart { sigma: 0.5 }, FaultKind::NoiseEnd, 8),
        (FaultKind::StickActuator, FaultKind::UnstickActuator, 8),
    ];
    let mut events = Vec::new();
    for (slot, (on, off, len)) in episodes.into_iter().enumerate() {
        let start = 4 + slot as u64 * 16 + rng.gen_range(0..4u64);
        let computer = (lead + slot) % 4;
        for (tick, kind) in [(start, on), (start + len, off)] {
            events.push(event(tick, computer, kind));
        }
    }
    FaultPlan::new(events)
}

/// Four machines under a diurnal capacity dip and a fault plan, with every
/// adaptive feature on, 52 × 120 s: 208 ticks, so each L0's arrival
/// forecaster runs well past the fixed point its covariance reaches after
/// 177 observations.
fn adverse4(seed: u64) -> Shape {
    let scenario = single_module(4).with_coarse_learning();
    let drift = drift_scenarios(seed, 52, 120.0, 0.55 * capacity_rate(&scenario)).swap_remove(1);
    let profile = drift.capacity_per_tick(Experiment::paper_default(seed).t_l0);
    let mut shape = paper("adverse4", scenario, drift.trace, seed);
    shape.preset = Preset::SelfHealingFaultTolerant;
    shape.exp.drift = Some(profile);
    shape.exp.faults = Some(adverse_fault_plan(seed));
    shape
}

/// Two of the paper's modules at a constant `load` of their capacity
/// for `buckets` × 30 s, on a plant whose capacity ramps from 1.0 to
/// 0.7, under `preset`.
fn two_modules(name: &str, load: f64, buckets: usize, seed: u64, preset: Preset) -> Shape {
    let mut scenario = paper_cluster_16().with_coarse_learning();
    scenario.modules.truncate(2);
    let bucket = load * capacity_rate(&scenario) * 30.0;
    let trace = Trace::new(30.0, vec![bucket; buckets]).expect("well-formed trace");
    let mut shape = paper(name, scenario, trace, seed);
    shape.exp.drift = Some(CapacityProfile::Ramp { from: 1.0, to: 0.7 });
    shape.preset = preset;
    shape
}

/// The closed loop beside an L2, 48 ticks at half load: the single-module
/// shapes never run an L2 beside learning L1s.
fn closed2mod() -> Shape {
    two_modules("closed2mod", 0.5, 48, 31, Preset::ClosedLoop)
}

/// The L1 phase under everything the fault-tolerant stack can throw at
/// it, 160 ticks at 45 % load: all of module 1 crashed (`live_count ==
/// 0`), three of module 0's four members blacked out (quorum-loss safe
/// mode), then one member crashed alone (a decide over three survivors).
/// The worker count governs offline learning and the plant sweep;
/// neither may move a directive, which the `Workers4` arm holds.
fn faults2mod() -> Shape {
    let preset = Preset::SelfHealingFaultTolerant;
    let mut shape = two_modules("faults2mod", 0.45, 160, 41, preset);
    let mut events = Vec::new();
    for c in 4..8 {
        events.push(event(24, c, FaultKind::Crash { requeue: false }));
        events.push(event(48, c, FaultKind::Restart));
    }
    for c in 1..4 {
        events.push(event(80, c, FaultKind::BlackoutStart));
        events.push(event(96, c, FaultKind::BlackoutEnd));
    }
    events.push(event(120, 2, FaultKind::Crash { requeue: true }));
    events.push(event(140, 2, FaultKind::Restart));
    shape.exp.faults = Some(FaultPlan::new(events));
    shape
}

/// A run description's row under `preset`.
fn family(spec: RunSpec, preset: Preset) -> Shape {
    let mut name = match spec.family {
        Family::Module => "module".to_string(),
        Family::Cluster => "cluster".to_string(),
        Family::ClosedLoop(i) => format!("closedloop{i}"),
        Family::Faults(i) => format!("faults{i}"),
    };
    if preset != spec.family.preset() {
        write!(name, "@{preset:?}").unwrap();
    }
    let (exp, trace) = spec.experiment_and_trace();
    Shape {
        name: format!("{name}/{}", spec.seed),
        scenario: spec.scenario_config(),
        preset,
        exp,
        trace,
        store_seed: spec.store_seed,
    }
}

/// Every family of the run descriptions: the module run under every
/// preset and the cluster run, cut to 12 buckets on the coarse grids;
/// the drift and fault families at their defaults; and, under the
/// stacks the hand loop was written against, the two runs the daemons
/// serve.
fn families() -> Vec<Shape> {
    let short = |family| RunSpec {
        buckets: 12,
        coarse_learning: true,
        ..RunSpec::defaults(family)
    };
    let mut shapes: Vec<Shape> = [
        Preset::Paper,
        Preset::ClosedLoop,
        Preset::DriftAware,
        Preset::SelfHealing,
        Preset::FaultTolerant,
        Preset::SelfHealingFaultTolerant,
    ]
    .map(|preset| family(short(Family::Module), preset))
    .into();
    shapes.push(family(short(Family::Cluster), Preset::Paper));
    for i in 0..4 {
        for spec in [Family::ClosedLoop(i), Family::Faults(i)].map(RunSpec::defaults) {
            shapes.push(family(spec, spec.family.preset()));
        }
    }
    let by_hand = |f, preset| family(RunSpec::defaults(f), preset);
    shapes.push(by_hand(Family::ClosedLoop(2), Preset::ClosedLoop));
    shapes.push(by_hand(Family::Faults(0), Preset::FaultTolerant));
    shapes
}

/// Every shape the matrix holds, each named as its row.
fn shapes() -> Vec<Shape> {
    let mut shapes: Vec<Shape> = SEEDS.map(scale128).into();
    shapes.extend(SEEDS.map(paper16));
    shapes.extend(SEEDS.map(adverse4));
    shapes.extend([closed2mod(), faults2mod()]);
    shapes.extend(families());
    shapes
}

/// Run each named shape's reference drive and each arm given with it;
/// panic unless every reference run reproduces its committed row and
/// every arm its shape's reference run. The runs share the cores
/// through `par_map`, each learning on one worker where there are
/// several (a `par_map` inside a worker runs inline); then the
/// `Workers4` arms run with four. Rows are written from one-worker
/// runs, so a `Workers4` arm that matches holds one worker against four.
pub fn assert_matches<N: AsRef<str>>(checks: &[(N, &[Drive])]) {
    let mut all = shapes();
    let mut shapes = Vec::new();
    for (name, arms) in checks {
        let name = name.as_ref();
        let at = all.iter().position(|s| s.name == name);
        let at = at.unwrap_or_else(|| panic!("{name}: no such shape"));
        shapes.push((all.swap_remove(at), *arms));
    }
    let mut jobs = Vec::new();
    for (s, arms) in &shapes {
        jobs.push((s, Drive::Reference));
        jobs.extend(arms.iter().map(|&d| (s, d)));
    }
    let (wide, narrow): (Vec<_>, Vec<_>) = jobs.iter().partition(|(_, d)| *d == Drive::Workers4);
    let run = |job: &&(&Shape, Drive)| catch_unwind(AssertUnwindSafe(|| job.1.run(job.0)));
    let mut runs = llc_par::par_map(&narrow, run);
    runs.extend(llc_par::with_threads(4, || {
        wide.iter().map(run).collect::<Vec<_>>()
    }));

    let (mut references, mut arms, mut failures) = (BTreeMap::new(), Vec::new(), Vec::new());
    for (&&(shape, drive), run) in narrow.iter().chain(&wide).zip(runs) {
        match run {
            Err(panic) => {
                let why = panic
                    .downcast::<String>()
                    .map_or("see above".into(), |s| *s);
                failures.push(format!("{drive:?} on {} panicked: {why}", shape.name));
            }
            Ok(run) if drive == Drive::Reference => {
                references.insert(&shape.name, run);
            }
            Ok(run) => arms.push((shape, drive, run)),
        }
    }
    for (shape, drive, mut run) in arms {
        let Some(reference) = references.get(&shape.name) else {
            continue;
        };
        // The `Tcp` arm sees its last window alone, since the agent owns
        // the loop: it takes the reference's before it.
        let unseen = reference.windows.len().saturating_sub(run.windows.len());
        run.windows
            .splice(0..0, reference.windows[..unseen].iter().copied());
        let name = format!("{drive:?} arm on {}", shape.name);
        failures.extend(mismatch(&name, &Row::of(&run), &Row::of(reference), &run));
    }
    let want = committed();
    for (name, run) in &references {
        let Some(want) = want.get(*name) else {
            failures.push(format!("{name}: no committed row (rebless to add it)"));
            continue;
        };
        failures.extend(mismatch(name, &Row::of(run), want, run));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
