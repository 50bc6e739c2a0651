//! The behaviour matrix: four workload shapes at three seeds, each run
//! hashed and compared with the committed `tests/fingerprints.txt`.
//!
//! A run's fingerprint is FNV-1a over, tick by tick, every directive the
//! plant received (each field, floats by bit pattern) and the window that
//! followed: completions and response sum of the window, cumulative energy
//! and drops, floats by bit pattern. The file keeps the final hash and, per
//! tick, the low 32 bits of the running hash, so that a mismatch names the
//! first tick that diverges and prints what the run did there.
//!
//! A change that means to move behaviour rewrites the file with
//!
//! ```text
//! LLC_REBLESS=1 cargo test -p llc-tests --test fingerprints
//! ```
//!
//! and its diff shows old → new per row. The shapes are the closed-loop
//! benchmark's, shortened and learned coarsely so that the whole matrix
//! stays a few seconds of a debug build:
//!
//! | row | plant | stack | transport |
//! |---|---|---|---|
//! | `paper16` | 16 machines / 4 modules, the §5.2 day's crest | paper-blind | function call |
//! | `adverse4` | 4 machines / 1 module, 208 ticks, capacity drift and a fault plan | drift-aware L0, closed loop, fault tolerance | function call |
//! | `scale128` | 128 machines / 32 modules, split quantum 1/128 | paper-blind | function call |
//! | `scale128_pipe` | the same run | the same | codec over an in-memory `PipeLink` |

use llc_cluster::{
    cluster_of, paper_cluster_16, single_module, ControlPlane, Directive, DirectiveEmit,
    Experiment, FaultToleranceConfig, HierarchicalPolicy, ObservationIngest, Plant, PolicyBuilder,
    ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_net::{
    decode_directive, encode_directive, encode_heartbeat, encode_observation, ControldCore,
    FrameKind, FrameTransport, Heartbeat, PipeLink,
};
use llc_tests::Fnv;
use llc_workload::{
    derive_seed, drift_scenarios, wc98_like_fig6, FaultEvent, FaultKind, FaultPlan, Trace,
    VirtualStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [2006, 3101, 3102];

/// One tick of a run as the plant saw it.
struct Tick {
    /// The directives applied before the window, in arrival order.
    directives: Vec<Directive>,
    completions: u64,
    response_sum: f64,
    /// Energy and drops, cumulative over the run.
    energy: f64,
    dropped: u64,
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
    fn of(ticks: &[Tick]) -> Row {
        let mut h = Fnv::default();
        let chain = ticks
            .iter()
            .map(|t| {
                t.directives.iter().for_each(|d| h.directive(d));
                h.eat(t.completions);
                h.eat(t.response_sum.to_bits());
                h.eat(t.energy.to_bits());
                h.eat(t.dropped);
                h.0 as u32
            })
            .collect();
        Row {
            hash: h.0,
            directives: ticks.iter().map(|t| t.directives.len()).sum(),
            chain,
        }
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
        let chain = fields
            .map(|f| u32::from_str_radix(f, 16).ok())
            .collect::<Option<_>>()?;
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

fn matrix_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fingerprints.txt")
}

const HEADER: &str = "\
# The behaviour matrix of tests/tests/fingerprints.rs: one row per run,
# `shape/seed  hash  directives  per-tick chain`. Rewrite it with
# LLC_REBLESS=1 cargo test -p llc-tests --test fingerprints
";

/// The committed rows, by run name.
fn committed() -> BTreeMap<String, Row> {
    let text = std::fs::read_to_string(matrix_path()).unwrap_or_default();
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| Row::parse(line).unwrap_or_else(|| panic!("malformed row: {line}")))
        .collect()
}

/// A run's name (`shape/seed`) and what it did.
type Run = (String, Vec<Tick>);

/// Compare the runs with their committed rows, or rewrite the file from
/// them under `LLC_REBLESS=1`.
fn check(runs: Vec<Run>) {
    let runs: BTreeMap<String, (Row, Vec<Tick>)> = runs
        .into_iter()
        .map(|(name, ticks)| (name, (Row::of(&ticks), ticks)))
        .collect();
    if std::env::var_os("LLC_REBLESS").is_some_and(|v| v == "1") {
        let mut text = HEADER.to_string();
        for (name, (row, _)) in &runs {
            writeln!(text, "{}", row.render(name)).unwrap();
        }
        std::fs::write(matrix_path(), text).expect("write tests/fingerprints.txt");
        return;
    }
    let rows = committed();
    let mut failures: Vec<String> = rows
        .keys()
        .filter(|name| !runs.contains_key(*name))
        .map(|name| format!("{name}: committed, but no longer run (rebless to drop it)"))
        .collect();
    for (name, (row, ticks)) in &runs {
        let Some(want) = rows.get(name) else {
            failures.push(format!("{name}: no committed row (rebless to add it)"));
            continue;
        };
        if want == row {
            continue;
        }
        let first = want
            .chain
            .iter()
            .zip(&row.chain)
            .position(|(a, b)| a != b)
            .unwrap_or(want.chain.len().min(row.chain.len()));
        let at = ticks.get(first).map_or_else(
            || "  nothing: the committed run is longer".to_string(),
            |t| {
                let mut at = format!(
                    "  window: {} completions, response sum {}, energy {}, {} dropped",
                    t.completions, t.response_sum, t.energy, t.dropped
                );
                for d in &t.directives {
                    write!(at, "\n  {d:?}").unwrap();
                }
                at
            },
        );
        failures.push(format!(
            "{name}: fingerprint {:016x} ({} directives, {} ticks), committed {:016x} \
             ({} directives, {} ticks); first diverging tick {first}, where the run did\n{at}",
            row.hash,
            row.directives,
            row.chain.len(),
            want.hash,
            want.directives,
            want.chain.len(),
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Window `tick` as the agent just committed it.
fn window(core: &Plant, directives: Vec<Directive>) -> Tick {
    let stats = core.adapter().window_stats();
    let sim = core.adapter().sim();
    Tick {
        directives,
        completions: stats.iter().map(|w| w.completions).sum(),
        response_sum: stats.iter().map(|w| w.response_sum).sum(),
        energy: sim.total_energy(),
        dropped: sim.dropped(),
    }
}

/// The product's agent wired to a control plane by function call.
fn run_in_process(
    policy: HierarchicalPolicy,
    scenario: &ScenarioConfig,
    exp: &Experiment,
    trace: &Trace,
) -> Vec<Tick> {
    let store = VirtualStore::paper_default(exp.seed);
    let mut core = Plant::new(scenario.to_sim_config(), exp, trace, &store).unwrap();
    let mut plane = ControlPlane::new(policy, core.members().to_vec(), exp.t_l0);
    let mut ticks = Vec::new();
    while !core.finished() {
        for observation in core.observations() {
            plane.ingest(observation).unwrap();
        }
        plane.step();
        let directives = plane.drain_directives();
        for d in &directives {
            core.stage(d.clone());
        }
        core.commit_window().unwrap();
        ticks.push(window(&core, directives));
    }
    ticks
}

/// The same loop through the wire codec: agent and controller cores over
/// an in-memory pipe, this thread playing scheduler. The directives
/// hashed are the ones the agent decoded.
fn run_over_pipe(
    policy: HierarchicalPolicy,
    scenario: &ScenarioConfig,
    exp: &Experiment,
    trace: &Trace,
) -> Vec<Tick> {
    let store = VirtualStore::paper_default(exp.seed);
    let mut agent = Plant::new(scenario.to_sim_config(), exp, trace, &store).unwrap();
    let mut ctrl = ControldCore::new(
        policy,
        agent.members().to_vec(),
        exp.t_l0,
        agent.total_ticks(),
    );
    let (mut ctrl_link, mut agent_link) = PipeLink::pair();
    let mut ticks = Vec::new();
    while !agent.finished() {
        for observation in agent.observations() {
            agent_link
                .send(FrameKind::Observation, encode_observation(&observation))
                .unwrap();
        }
        agent_link
            .send(
                FrameKind::Heartbeat,
                encode_heartbeat(&Heartbeat::agent(&agent)),
            )
            .unwrap();
        while let Some(frame) = ctrl_link.recv(None).unwrap() {
            ctrl.handle_frame(&frame).unwrap();
        }
        let (_report, directives) = ctrl.decide_next();
        for d in &directives {
            ctrl_link
                .send(FrameKind::Directive, encode_directive(d))
                .unwrap();
        }
        let mut received = Vec::new();
        while let Some(frame) = agent_link.recv(None).unwrap() {
            assert_eq!(frame.kind, FrameKind::Directive);
            let d = decode_directive(&frame.payload).unwrap();
            agent.stage(d.clone());
            received.push(d);
        }
        agent.commit_window().unwrap();
        ticks.push(window(&agent, received));
    }
    ticks
}

/// Coarse learning, with half its module-model arrival steps: learning
/// the module models is most of what a multi-module build costs.
fn coarsest(scenario: ScenarioConfig) -> ScenarioConfig {
    let mut scenario = scenario.with_coarse_learning();
    scenario.module_learn.lambda_steps = 8;
    scenario
}

fn capacity_rate(scenario: &ScenarioConfig) -> f64 {
    scenario
        .member_specs()
        .iter()
        .flatten()
        .map(|m| m.speed / m.c_prior)
        .sum()
}

/// The §5.2 day's crest on the paper's sixteen machines, 6 × 120 s.
fn paper16() -> Vec<Run> {
    let scenario = coarsest(paper_cluster_16());
    SEEDS
        .iter()
        .map(|&seed| {
            let trace = wc98_like_fig6(seed).slice(340, 346);
            let policy = PolicyBuilder::new(scenario.clone()).build();
            let exp = Experiment::paper_default(seed);
            let ticks = run_in_process(policy, &scenario, &exp, &trace);
            (format!("paper16/{seed}"), ticks)
        })
        .collect()
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
            events.push(FaultEvent {
                tick,
                computer,
                kind,
            });
        }
    }
    FaultPlan::new(events)
}

/// Four machines under a diurnal capacity dip and a fault plan, with every
/// adaptive feature on, 52 × 120 s: 208 ticks, so each L0's arrival
/// forecaster runs well past the fixed point its covariance reaches after
/// 177 observations.
fn adverse4() -> Vec<Run> {
    let scenario = single_module(4).with_coarse_learning();
    SEEDS
        .iter()
        .map(|&seed| {
            let drift =
                drift_scenarios(seed, 52, 120.0, 0.55 * capacity_rate(&scenario)).swap_remove(1);
            let exp = Experiment::paper_default(seed);
            let exp = Experiment {
                drift: Some(drift.capacity_per_tick(exp.t_l0)),
                faults: Some(adverse_fault_plan(seed)),
                ..exp
            };
            let policy = PolicyBuilder::new(scenario.clone())
                .drift_aware_l0()
                .closed_loop(OnlineConfig)
                .fault_tolerance(FaultToleranceConfig)
                .build();
            let ticks = run_in_process(policy, &scenario, &exp, &drift.trace);
            (format!("adverse4/{seed}"), ticks)
        })
        .collect()
}

/// How a shape's runs are driven.
type Drive = fn(HierarchicalPolicy, &ScenarioConfig, &Experiment, &Trace) -> Vec<Tick>;

/// 128 machines in 32 modules over the day's rising edge, scaled so its
/// crest loads the cluster to 6 % (the benchmark's crest), 4 × 120 s,
/// driven by `drive` and named `shape`.
fn scale128_by(shape: &str, drive: Drive) -> Vec<Run> {
    let mut scenario = coarsest(paper_cluster_16());
    scenario.modules = cluster_of(32);
    scenario.l2.gamma_quantum = 1.0 / 128.0;
    let crest = 0.06 * capacity_rate(&scenario) * 120.0;
    SEEDS
        .iter()
        .map(|&seed| {
            let window = wc98_like_fig6(seed).slice(340, 344);
            let trace = window.scaled(crest / window.peak());
            let policy = PolicyBuilder::new(scenario.clone()).build();
            let exp = Experiment::paper_default(seed);
            let ticks = drive(policy, &scenario, &exp, &trace);
            (format!("{shape}/{seed}"), ticks)
        })
        .collect()
}

fn scale128() -> Vec<Run> {
    scale128_by("scale128", run_in_process)
}

fn scale128_pipe() -> Vec<Run> {
    scale128_by("scale128_pipe", run_over_pipe)
}

/// Every shape at every seed against its committed row. The shapes run
/// side by side, a thread each, so their offline learning runs on one
/// worker apiece.
#[test]
fn every_run_matches_the_matrix() {
    let shapes: [fn() -> Vec<Run>; 4] = [paper16, adverse4, scale128, scale128_pipe];
    let runs = llc_par::with_threads(1, || {
        std::thread::scope(|scope| {
            let shapes = shapes.map(|shape| scope.spawn(shape));
            shapes
                .into_iter()
                .flat_map(|shape| shape.join().expect("a shape's runs panicked"))
                .collect()
        })
    });
    check(runs);
}
