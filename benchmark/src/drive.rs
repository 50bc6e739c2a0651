//! The drive loops: one closed loop, one client, the next window sent
//! only after the previous commit.
//!
//! The plant half of an untraced run is always the product's own
//! [`AgentCore`]. In process it is wired by function call to a
//! [`ControlPlane`]; over tcp the product's session loops `run_agent` /
//! `serve_controller` run it against a [`ControldCore`] in lockstep over
//! a loopback [`TcpLink`] — agent on the calling thread, controller on
//! one spawned thread, one connection. The traced in-process run spells
//! the same loop out over [`SimAdapter`] + [`Reconciler`] so that every
//! span is one public call (or one loop of the same call).

use crate::alloc;
use crate::links::{AgentTap, ControllerTap, WindowTotals};
use crate::spans::{Recorder, Span, ROOT};
use crate::workloads::{Inputs, CHECK_TICKS};
use llc_cluster::{
    Action, Cadence, ClusterPolicy, ControlPlane, Directive, DirectiveEmit, HierarchicalPolicy,
    MetricsSnapshot, ObservationIngest, Observations, PolicyMetrics, SimAdapter,
};
use llc_net::{
    run_agent, serve_controller, AgentCore, ControldCore, FrameTransport, LinkCounters,
    ReconcileReport, Reconciler, TcpLink,
};
use llc_sim::ClusterSim;
use llc_workload::{derive_seed, spread_arrivals, RequestSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// One `decide` as the probe saw it.
#[derive(Debug, Clone, Copy)]
pub struct Decide {
    pub span: (Instant, Instant),
    /// `(allocations, bytes)` counted inside the call.
    pub allocs: (u64, u64),
}

/// The policy behind every plane of the benchmark: forwards to the
/// hierarchy, and in a traced run stamps each `decide` from outside —
/// the one boundary inside `ControlPlane::step` a caller can reach.
#[derive(Debug)]
pub struct Probe {
    inner: HierarchicalPolicy,
    timed: bool,
    pub decides: Vec<Decide>,
}

impl Probe {
    pub fn hierarchy(&self) -> &HierarchicalPolicy {
        &self.inner
    }
}

impl ClusterPolicy for Probe {
    fn decide(&mut self, obs: &Observations) -> Vec<Action> {
        if !self.timed {
            return self.inner.decide(obs);
        }
        let before = alloc::snapshot();
        let start = Instant::now();
        let actions = self.inner.decide(obs);
        let end = Instant::now();
        let after = alloc::snapshot();
        self.decides.push(Decide {
            span: (start, end),
            allocs: (after.0 - before.0, after.1 - before.1),
        });
        actions
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cadence(&self) -> Cadence {
        self.inner.cadence()
    }

    fn metrics(&self) -> PolicyMetrics {
        self.inner.metrics()
    }
}

/// Set-up time by part, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `PolicyBuilder::build`: the offline learning passes.
    pub policy_build_s: f64,
    /// Request store, plant (`AgentCore::new` / `SimAdapter::new` +
    /// prewarm) and the plane around the policy.
    pub plant_build_s: f64,
    /// Loopback bind, connect and accept (tcp only).
    pub connect_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.policy_build_s + self.plant_build_s + self.connect_s
    }
}

/// Cumulative plant counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantTotals {
    pub energy: f64,
    pub dropped: u64,
    pub switch_ons: u64,
    /// Requests queued or in service.
    pub in_system: u64,
}

impl PlantTotals {
    fn of(sim: &ClusterSim) -> PlantTotals {
        let computers = 0..sim.num_computers();
        PlantTotals {
            energy: sim.total_energy(),
            dropped: sim.dropped(),
            switch_ons: computers
                .clone()
                .map(|i| sim.computer(i).switch_ons())
                .sum(),
            in_system: computers
                .map(|i| sim.computer(i).queue_length() as u64)
                .sum(),
        }
    }
}

fn window_totals(adapter: &SimAdapter) -> WindowTotals {
    let mut totals = WindowTotals::default();
    for w in adapter.window_stats() {
        totals.completions += w.completions;
        totals.response_sum += w.response_sum;
    }
    totals
}

/// Everything a round produced that is a function of the seed alone.
#[derive(Debug)]
pub struct Outcome {
    /// Ticks committed before the run ended or aborted.
    pub ticks_done: u64,
    /// Per plant window, in tick order.
    pub windows: Vec<WindowTotals>,
    /// The controller's emission log (tcp; in process the applied log
    /// stands for it, see [`Outcome::emitted_or_applied`]).
    pub emitted: Option<Vec<Directive>>,
    /// Every directive the agent side applied, in actuation order.
    pub applied: Vec<Directive>,
    pub plant: PlantTotals,
    /// Plant counters after tick `CHECK_TICKS - 1` (in process only: the
    /// tcp session loop owns the agent between handshake and metrics).
    pub checkpoint: Option<PlantTotals>,
    pub metrics: MetricsSnapshot,
    pub reconcile: ReconcileReport,
    /// The agent link's counters (tcp).
    pub agent_link: Option<LinkCounters>,
    /// Observation payloads the agent tap could not decode (tcp).
    pub tap_decode_failures: u64,
    /// The error that aborted the run, if one surfaced.
    pub error: Option<String>,
}

impl Outcome {
    /// The directive sequence of the run. In process the plane's outbox is
    /// staged by value, so the agent's applied log *is* the emission log
    /// whenever the reconciler skipped nothing — which `--check` asserts.
    pub fn emitted_or_applied(&self) -> &[Directive] {
        self.emitted.as_deref().unwrap_or(&self.applied)
    }
}

/// Extra recordings of a traced round.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    /// Per window (tcp): time inside the agent link's `send` / `recv`.
    pub agent_send_ns: Vec<u64>,
    pub agent_wait_ns: Vec<u64>,
    /// Per window (tcp): agent heartbeat in → commit heartbeat out.
    pub controld_busy_ns: Vec<u64>,
    /// Payload samples for the codec replay (tcp).
    pub observation_payloads: Vec<Vec<u8>>,
    pub directive_payloads: Vec<Vec<u8>>,
}

/// One run of a workload, first set-up call to last commit.
#[derive(Debug)]
pub struct Round {
    pub setup: Setup,
    /// First tick to last commit, seconds.
    pub wall_s: f64,
    /// Reaction time per tick.
    pub react_ns: Vec<u64>,
    /// Wall time per tick, telemetry rendered to window committed; they
    /// add up to `wall_s`.
    pub tick_ns: Vec<u64>,
    pub outcome: Outcome,
    /// The policy as a traced run left it, with the probe's stamps; an
    /// untraced round drops it with the rest of the loop's state, so that
    /// the process's peak memory is one loop's.
    pub policy: Option<Probe>,
    pub traced: Option<Traced>,
}

fn build_policy(inputs: &Inputs, timed: bool, setup: &mut Setup) -> Probe {
    let started = Instant::now();
    let inner = inputs.build_policy();
    setup.policy_build_s = started.elapsed().as_secs_f64();
    Probe {
        inner,
        timed,
        decides: Vec::new(),
    }
}

/// Untraced in-process round: `AgentCore` ⇄ `ControlPlane` by function
/// call, two `Instant`s per tick around ingest → step → drain → stage.
pub fn run_in_process(inputs: &Inputs) -> Round {
    let mut setup = Setup::default();
    let policy = build_policy(inputs, false, &mut setup);
    let started = Instant::now();
    let store = inputs.store();
    let mut core = AgentCore::new(
        inputs.scenario.to_sim_config(),
        &inputs.experiment,
        &inputs.trace,
        &store,
    )
    .expect("a well-formed plant prewarms");
    let mut plane = ControlPlane::new(policy, core.members().to_vec(), inputs.experiment.t_l0);
    setup.plant_build_s = started.elapsed().as_secs_f64();

    let ticks = core.total_ticks() as usize;
    let mut react_ns = Vec::with_capacity(ticks);
    let mut tick_ns = Vec::with_capacity(ticks);
    let mut windows = Vec::with_capacity(ticks);
    let mut checkpoint = None;
    let mut error = None;
    let loop_started = Instant::now();
    let mut tick_started = loop_started;
    'run: while !core.finished() {
        let tick = core.tick();
        let observations = core.observations();
        let react_started = Instant::now();
        for observation in observations {
            if let Err(e) = plane.ingest(observation) {
                error = Some(format!("tick {tick}: ingest: {e}"));
                break 'run;
            }
        }
        plane.step();
        for directive in plane.drain_directives() {
            core.stage(directive);
        }
        react_ns.push(react_started.elapsed().as_nanos() as u64);
        if let Err(e) = core.commit_window() {
            error = Some(format!("tick {tick}: commit: {e}"));
            break 'run;
        }
        windows.push(window_totals(core.adapter()));
        if tick + 1 == CHECK_TICKS {
            checkpoint = Some(PlantTotals::of(core.adapter().sim()));
        }
        let now = Instant::now();
        tick_ns.push((now - tick_started).as_nanos() as u64);
        tick_started = now;
    }
    let wall_s = (tick_started - loop_started).as_secs_f64();

    let outcome = Outcome {
        ticks_done: core.tick(),
        windows,
        emitted: None,
        applied: core.applied_directives().to_vec(),
        plant: PlantTotals::of(core.adapter().sim()),
        checkpoint,
        metrics: plane.metrics(),
        reconcile: core.reconcile_report(),
        agent_link: None,
        tap_decode_failures: 0,
        error,
    };
    Round {
        setup,
        wall_s,
        react_ns,
        tick_ns,
        outcome,
        policy: None,
        traced: None,
    }
}

/// Traced in-process round: what `AgentCore` does per window, spelled out
/// over `SimAdapter` + `Reconciler` so each layer boundary gets a span.
/// It generates a window's requests before injecting them (the product
/// interleaves the two; the sampler and the plant share no state, so the
/// streams are the same) and skips the wedged-actuator read-back, which
/// only feeds a counter.
pub fn run_in_process_traced(inputs: &Inputs) -> Round {
    let exp = &inputs.experiment;
    let mut setup = Setup::default();
    let policy = build_policy(inputs, true, &mut setup);
    let started = Instant::now();
    let store = inputs.store();
    let arrivals = inputs.arrivals_per_tick();
    let mut adapter = SimAdapter::new(inputs.scenario.to_sim_config(), exp, arrivals.len());
    if exp.prewarmed {
        adapter.prewarm().expect("a well-formed plant prewarms");
    }
    let mut sampler = RequestSampler::paper_default(&store, exp.seed);
    let mut spread_rng = StdRng::seed_from_u64(derive_seed(exp.seed, 0xA121));
    let mut reconciler = Reconciler::new(adapter.sim().num_computers(), adapter.members().len());
    let mut plane = ControlPlane::new(policy, adapter.members().to_vec(), exp.t_l0);
    setup.plant_build_s = started.elapsed().as_secs_f64();

    let mut react_ns = Vec::with_capacity(arrivals.len());
    let mut tick_ns = Vec::with_capacity(arrivals.len());
    let mut windows = Vec::with_capacity(arrivals.len());
    let mut applied = Vec::new();
    let mut checkpoint = None;
    let mut error = None;
    let mut ticks_done = 0;
    alloc::set_counting(true);
    let loop_started = Instant::now();
    let mut rec = Recorder::new(loop_started);
    for (tick, &count) in arrivals.iter().enumerate() {
        let tick = tick as u64;
        rec.set_tick(tick);
        let tick_span = rec.enter("tick");
        let mut run_tick = || -> Result<(), String> {
            let observations = rec.scope("adapter.observe", || adapter.observe(tick));
            let react_span = rec.enter("react");
            rec.scope("plane.ingest", || {
                observations
                    .into_iter()
                    .try_for_each(|observation| plane.ingest(observation))
            })
            .map_err(|e| format!("ingest: {e}"))?;
            let step_span = rec.enter("plane.step");
            plane.step();
            rec.exit(step_span);
            let decide = *plane.policy().decides.last().expect("step decides once");
            rec.push_stamped("policy.decide", decide.span, step_span, tick, decide.allocs);
            let directives = rec.scope("plane.drain", || plane.drain_directives());
            rec.scope("reconciler.stage", || {
                for directive in directives {
                    reconciler.stage(directive);
                }
            });
            rec.exit(react_span);
            react_ns.push(rec.spans()[react_span as usize].ns());

            let apply = rec.scope("reconciler.drain", || reconciler.drain());
            rec.scope("adapter.actuate", || {
                // One directive at a time, as the agent applies them.
                apply
                    .iter()
                    .try_for_each(|d| adapter.actuate(std::slice::from_ref(d)))
            })
            .map_err(|e| format!("actuate: {e}"))?;
            applied.extend(apply);

            let start = tick as f64 * exp.t_l0;
            let requests: Vec<(f64, f64)> = rec.scope("workload.gen", || {
                spread_arrivals(&mut spread_rng, start, exp.t_l0, count as usize)
                    .into_iter()
                    .map(|at| (at, sampler.next_request().1))
                    .collect()
            });
            rec.scope("sim.inject", || {
                requests
                    .into_iter()
                    .try_for_each(|(at, demand)| adapter.schedule_arrival(at, demand))
            })
            .map_err(|e| format!("inject: {e}"))?;
            rec.scope("sim.advance", || adapter.advance_window(tick))
                .map_err(|e| format!("advance: {e}"))?;
            Ok(())
        };
        if let Err(e) = run_tick() {
            error = Some(format!("tick {tick}: {e}"));
            break;
        }
        windows.push(window_totals(&adapter));
        if tick + 1 == CHECK_TICKS {
            checkpoint = Some(PlantTotals::of(adapter.sim()));
        }
        ticks_done = tick + 1;
        rec.exit(tick_span);
        tick_ns.push(rec.spans()[tick_span as usize].ns());
    }
    let wall_s = loop_started.elapsed().as_secs_f64();
    alloc::set_counting(false);

    let outcome = Outcome {
        ticks_done,
        windows,
        emitted: None,
        applied,
        plant: PlantTotals::of(adapter.sim()),
        checkpoint,
        metrics: plane.metrics(),
        reconcile: reconciler.report(),
        agent_link: None,
        tap_decode_failures: 0,
        error,
    };
    Round {
        setup,
        wall_s,
        react_ns,
        tick_ns,
        outcome,
        policy: Some(plane.into_policy()),
        traced: Some(Traced {
            spans: rec.into_spans(),
            ..Traced::default()
        }),
    }
}

/// tcp round, traced or not: the product's session loops over loopback.
/// The benchmark sees the run through the two link taps only.
pub fn run_tcp(inputs: &Inputs, traced: bool) -> Round {
    let exp = &inputs.experiment;
    let mut setup = Setup::default();
    let policy = build_policy(inputs, traced, &mut setup);
    let started = Instant::now();
    let store = inputs.store();
    let mut core = AgentCore::new(inputs.scenario.to_sim_config(), exp, &inputs.trace, &store)
        .expect("a well-formed plant prewarms");
    let mut controld = ControldCore::new(
        policy,
        core.members().to_vec(),
        exp.t_l0,
        core.total_ticks(),
    );
    setup.plant_build_s = started.elapsed().as_secs_f64();

    // Both ends are connected here, before the controller thread exists:
    // a loopback connect completes against the listen backlog, so nothing
    // can block with the other side not yet started.
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let address = listener.local_addr().expect("bound socket has an address");
    let agent_stream = TcpStream::connect(address).expect("loopback connect");
    let (controller_stream, _) = listener.accept().expect("loopback accept");
    let mut agent_link = AgentTap::new(
        TcpLink::new(agent_stream).expect("agent link options"),
        traced,
    );
    let mut controller_link = ControllerTap::new(
        TcpLink::new(controller_stream).expect("controller link options"),
        traced,
    );
    setup.connect_s = started.elapsed().as_secs_f64();

    if traced {
        alloc::set_counting(true);
    }
    let session_started = Instant::now();
    let (agent_result, agent, after_last_commit, controller_result) = std::thread::scope(|scope| {
        let controller =
            scope.spawn(|| serve_controller(&mut controld, &mut controller_link, None));
        let agent_result = run_agent(&mut core, &mut agent_link, None);
        let after_last_commit = Instant::now();
        // Dissolving the tap closes the agent's socket, so a controller
        // still waiting on an agent that gave up sees `Closed` and
        // returns instead of blocking the join.
        let agent = agent_link.into_record();
        let controller_result = controller.join().expect("controller thread panicked");
        (agent_result, agent, after_last_commit, controller_result)
    });
    alloc::set_counting(false);

    let error = match (&agent_result, &controller_result) {
        (Err(e), _) => Some(format!("agent session: {e}")),
        (_, Err(e)) => Some(format!("controller session: {e}")),
        (Ok(None), Ok(())) => Some("the controller's closing Metrics frame never arrived".into()),
        (Ok(Some(_)), Ok(())) => None,
    };
    // The loop runs from the first observation handed to the link to the
    // last commit: the return of `run_agent` less its closing wait for the
    // controller's `Metrics` frame.
    let first = agent.reactions.first().map_or(session_started, |r| r.0);
    let last_commit = after_last_commit - agent.closing_wait;
    let wall_s = last_commit.saturating_duration_since(first).as_secs_f64();

    // Window `t`'s totals were reported by the observations of tick
    // `t + 1`; the last window is still in the adapter.
    let mut windows: Vec<WindowTotals> = agent.reported.iter().skip(1).copied().collect();
    if core.tick() > 0 {
        windows.push(window_totals(core.adapter()));
    }
    let react_ns: Vec<u64> = agent
        .reactions
        .iter()
        .map(|(start, end)| (*end - *start).as_nanos() as u64)
        .collect();
    // A window runs until the next one's first observation is handed over.
    let tick_ns: Vec<u64> = (0..agent.reactions.len())
        .map(|tick| {
            let next = agent.reactions.get(tick + 1).map_or(last_commit, |r| r.0);
            next.saturating_duration_since(agent.reactions[tick].0)
                .as_nanos() as u64
        })
        .collect();

    let outcome = Outcome {
        ticks_done: core.tick(),
        windows,
        emitted: Some(controld.directives_log().to_vec()),
        applied: core.applied_directives().to_vec(),
        plant: PlantTotals::of(core.adapter().sim()),
        checkpoint: None,
        metrics: controld.metrics(&controller_link.counters()),
        reconcile: core.reconcile_report(),
        agent_link: Some(agent.counters),
        tap_decode_failures: agent.decode_failures.len() as u64,
        error,
    };

    let traced = traced.then(|| {
        let mut rec = Recorder::new(first);
        let decides = &controld.plane().policy().decides;
        for (tick, &(start, end)) in agent.reactions.iter().enumerate() {
            let next = agent.reactions.get(tick + 1).map_or(last_commit, |r| r.0);
            let tick_id = tick as u64;
            let tick_span = rec.push_stamped("tick", (start, next), ROOT, tick_id, (0, 0));
            let react_span = rec.push_stamped("react", (start, end), tick_span, tick_id, (0, 0));
            if let Some(&busy) = controller_link.busy.get(tick) {
                let busy_span =
                    rec.push_stamped("controld.busy", busy, react_span, tick_id, (0, 0));
                if let Some(d) = decides.get(tick) {
                    rec.push_stamped("policy.decide", d.span, busy_span, tick_id, d.allocs);
                }
            }
            // Commit the window, then render the next one's observations.
            rec.push_stamped("agent.window", (end, next), tick_span, tick_id, (0, 0));
        }
        Traced {
            spans: rec.into_spans(),
            agent_send_ns: agent.send_ns_per_window,
            agent_wait_ns: agent.wait_ns_per_window,
            controld_busy_ns: controller_link
                .busy
                .iter()
                .map(|(start, end)| (*end - *start).as_nanos() as u64)
                .collect(),
            observation_payloads: agent.observation_payloads,
            directive_payloads: agent.directive_payloads,
        }
    });

    Round {
        setup,
        wall_s,
        react_ns,
        tick_ns,
        outcome,
        policy: traced.is_some().then(|| controld.into_policy()),
        traced,
    }
}
