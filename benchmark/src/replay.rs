//! Offline replays of a traced run: the layers a closed loop only ever
//! exercises a few calls at a time (map probes and updates, the frame
//! codec, the reconciler) timed over the run's own recorded inputs, and
//! the two offline learners that dominate set-up timed once each.

use crate::drive::Round;
use crate::workloads::Inputs;
use llc_cluster::{AbstractionMap, Directive, FrequencyProfile, MemberSpec, ModuleCostModel};
use llc_core::OnlineConfig;
use llc_net::{
    decode_directive, decode_observation, encode_directive, encode_observation, Reconciler,
};
use llc_workload::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Points probed and updated on the run's final map.
const MAP_POINTS: usize = 10_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `AbstractionMap::query` / `update_online` on member 0 of module
    /// 0's final map, over seeded points inside its trained envelope.
    pub probe_ns: f64,
    pub update_ns: f64,
    /// Per message, over the payloads the agent link carried (tcp).
    pub enc_obs_ns: f64,
    pub dec_obs_ns: f64,
    pub enc_dir_ns: f64,
    pub dec_dir_ns: f64,
    /// `Reconciler::stage` + `drain` over the run's directive log.
    pub reconciler_ns_per_directive: f64,
    /// Mean `AbstractionMap::learn_for_member` over the scenario's
    /// distinct frequency profiles.
    pub map_learn_ms: f64,
    /// One `ModuleCostModel::learn` (module 0; zero without an L2).
    pub module_model_ms: f64,
}

fn per_item_ns(started: Instant, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        started.elapsed().as_nanos() as f64 / items as f64
    }
}

fn replay_map(inputs: &Inputs, round: &Round, out: &mut Replays) {
    let Some(policy) = &round.policy else { return };
    let l1 = policy.hierarchy().l1(0);
    let map = l1.map(0);
    let (c_range, _, _) = l1.member_specs()[0].learn_envelope();
    let mut rng = StdRng::seed_from_u64(derive_seed(inputs.seed, 0x3A9));
    let points: Vec<(f64, f64, f64)> = (0..MAP_POINTS)
        .map(|_| {
            (
                rng.gen::<f64>() * map.trained_lambda_max(),
                rng.gen_range(c_range.0..c_range.1),
                rng.gen::<f64>() * map.trained_q_max(),
            )
        })
        .collect();

    let started = Instant::now();
    let entries: Vec<_> = points
        .iter()
        .map(|&(lambda, c, q0)| map.query(black_box(lambda), c, q0))
        .collect();
    out.probe_ns = per_item_ns(started, points.len());

    // Writes go to a copy; each point is fed its own current answer, so
    // the surface stays where the run left it.
    let mut scratch = map.clone();
    let cfg = OnlineConfig::default();
    let started = Instant::now();
    for (&(lambda, c, q0), &entry) in points.iter().zip(&entries) {
        black_box(scratch.update_online(lambda, c, q0, entry, &cfg));
    }
    out.update_ns = per_item_ns(started, points.len());
}

fn replay_codec(round: &Round, out: &mut Replays) {
    let Some(traced) = &round.traced else { return };
    let started = Instant::now();
    let observations: Vec<_> = traced
        .observation_payloads
        .iter()
        .filter_map(|p| decode_observation(black_box(p)).ok())
        .collect();
    out.dec_obs_ns = per_item_ns(started, traced.observation_payloads.len());
    let started = Instant::now();
    for observation in &observations {
        black_box(encode_observation(black_box(observation)));
    }
    out.enc_obs_ns = per_item_ns(started, observations.len());

    let started = Instant::now();
    let directives: Vec<_> = traced
        .directive_payloads
        .iter()
        .filter_map(|p| decode_directive(black_box(p)).ok())
        .collect();
    out.dec_dir_ns = per_item_ns(started, traced.directive_payloads.len());
    let started = Instant::now();
    for directive in &directives {
        black_box(encode_directive(black_box(directive)));
    }
    out.enc_dir_ns = per_item_ns(started, directives.len());
}

fn replay_reconciler(inputs: &Inputs, log: &[Directive], out: &mut Replays) {
    let computers = inputs.scenario.num_computers();
    let modules = inputs.scenario.num_modules();
    // The clones are made up front so that only stage + drain is timed.
    let mut windows: Vec<Vec<Directive>> = Vec::new();
    for directive in log {
        match windows.last_mut() {
            Some(w) if w[0].tick == directive.tick => w.push(directive.clone()),
            _ => windows.push(vec![directive.clone()]),
        }
    }
    let mut reconciler = Reconciler::new(computers, modules);
    let started = Instant::now();
    for window in windows {
        for directive in window {
            reconciler.stage(directive);
        }
        black_box(reconciler.drain());
    }
    out.reconciler_ns_per_directive = per_item_ns(started, log.len());
}

fn time_learners(inputs: &Inputs, out: &mut Replays) {
    let scenario = &inputs.scenario;
    let mut learned: Vec<(FrequencyProfile, Arc<AbstractionMap>)> = Vec::new();
    let mut learn_ms = 0.0;
    for computer in scenario.modules.iter().flatten() {
        if learned.iter().any(|(p, _)| *p == computer.profile) {
            continue;
        }
        let spec = MemberSpec::paper_default(computer.profile);
        let started = Instant::now();
        let map = AbstractionMap::learn_for_member(
            &scenario.l0,
            &spec,
            scenario.learn,
            scenario.map_backend,
        );
        learn_ms += started.elapsed().as_secs_f64() * 1e3;
        learned.push((computer.profile, Arc::new(map)));
    }
    out.map_learn_ms = learn_ms / learned.len() as f64;

    if scenario.num_modules() > 1 {
        let specs = &scenario.member_specs()[0];
        let maps: Vec<Arc<AbstractionMap>> = scenario.modules[0]
            .iter()
            .map(|c| {
                let (_, map) = learned
                    .iter()
                    .find(|(p, _)| *p == c.profile)
                    .expect("every profile was learned above");
                Arc::clone(map)
            })
            .collect();
        let capacity: f64 = specs.iter().map(|m| m.speed / m.c_prior).sum();
        let started = Instant::now();
        black_box(ModuleCostModel::learn(
            &scenario.l1,
            specs,
            &maps,
            capacity * 1.3,
            scenario.module_learn,
        ));
        out.module_model_ms = started.elapsed().as_secs_f64() * 1e3;
    }
}

/// Run every replay for a traced round.
pub fn run(inputs: &Inputs, round: &Round) -> Replays {
    let mut out = Replays::default();
    replay_map(inputs, round, &mut out);
    replay_codec(round, &mut out);
    replay_reconciler(inputs, round.outcome.emitted_or_applied(), &mut out);
    time_learners(inputs, &mut out);
    out
}
