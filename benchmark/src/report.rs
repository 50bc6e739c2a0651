//! Metric definitions and how each is computed from the rounds of a run.

use crate::drive::{Outcome, Round, Traced};
use crate::links::WindowTotals;
use crate::replay::Replays;
use crate::spans;
use crate::stats::{median, percentile};
use crate::workloads::Inputs;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; also the cap on the
    /// run-to-run spread `(q3 − q1) / median` that `--repeat` enforces on
    /// host-time metrics. Zero where neither applies.
    pub bound: f64,
    /// A function of the seed alone: must repeat exactly.
    pub simulated: bool,
    /// Listed in `BENCHMARK.json` (never zero, defined on every
    /// workload) and so part of the driver's result line.
    pub contract: bool,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
    contract: bool,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
        simulated,
        contract,
    }
}

/// The end-to-end metrics, in print order: the issue's twelve plus
/// `served_frac`.
///
/// `BENCHMARK.json` carries the five marked `contract`. Its rules want
/// metrics that are never zero, present on every workload, and whose
/// spread over ten *different* seeds stays inside a bound of at most 0.25.
/// `dropped_frac` and `fail_frac` are zero on a healthy run (the first
/// travels as its complement `served_frac`, the second as the result
/// line's `attempted`/`failed`), `switch_ons` is zero on `scale128_*` and
/// `track_mae` exists on `adverse4` only. `react_us_p99`, `resp_mean_s`
/// and `viol_frac` follow the control regime a seed lands in — on
/// `paper16_day` the mean response is 2.4 s on one seed and 9.5 s on the
/// next, and the slow ticks cost twice as much in the bad regime — and
/// `peak_rss_mb` follows the backlog the plant holds in that regime
/// (12 MB or 16 MB), so no admissible bound holds them; they are printed
/// here and repeated in the ledger (`e2e.*`).
pub const END_TO_END: [Spec; 13] = [
    spec("setup_s", "s", Better::Lower, 0.25, false, true),
    spec(
        "sim_s_per_wall_s",
        "sim-s/wall-s",
        Better::Higher,
        0.25,
        false,
        true,
    ),
    spec("react_us_p50", "us", Better::Lower, 0.25, false, true),
    spec("react_us_p99", "us", Better::Lower, 0.25, false, false),
    spec("resp_mean_s", "s", Better::Lower, 0.0, true, false),
    spec("viol_frac", "fraction", Better::Lower, 0.0, true, false),
    spec(
        "energy_per_req",
        "power.s/req",
        Better::Lower,
        0.25,
        true,
        true,
    ),
    spec("dropped_frac", "fraction", Better::Lower, 0.0, true, false),
    spec("served_frac", "fraction", Better::Higher, 0.01, true, true),
    spec("switch_ons", "count", Better::Lower, 0.0, true, false),
    spec("track_mae", "cost", Better::Lower, 0.0, true, false),
    spec("peak_rss_mb", "MB", Better::Lower, 0.25, false, false),
    spec("fail_frac", "fraction", Better::Lower, 0.0, true, false),
];

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

/// Response quality of a run, computed exactly as
/// `ExperimentLog::summary` computes it (per-window means re-weighted by
/// completions), so `--check` can compare the two bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseQuality {
    pub completions: u64,
    pub mean_response_s: f64,
    /// Share of the windows that completed anything whose mean response
    /// exceeded the target.
    pub violation_fraction: f64,
}

pub fn response_quality(windows: &[WindowTotals], target_s: f64) -> ResponseQuality {
    let mut completions = 0u64;
    let mut weighted = 0.0f64;
    let mut served_windows = 0usize;
    let mut violations = 0usize;
    for w in windows.iter().filter(|w| w.completions > 0) {
        let mean = w.response_sum / w.completions as f64;
        completions += w.completions;
        weighted += mean * w.completions as f64;
        served_windows += 1;
        violations += usize::from(mean > target_s);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    ResponseQuality {
        completions,
        mean_response_s: ratio(weighted, completions as f64),
        violation_fraction: ratio(violations as f64, served_windows as f64),
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What must be zero on a healthy run, and no scheduled fault explains
/// when it is not: the plant side reports every member every window (dark
/// ones included), so the plane never has to dark-fill or decide without a
/// module; the link is lossless and ordered, so every frame decodes and
/// the reconciler skips nothing.
pub fn anomalies(o: &Outcome) -> [(&'static str, u64); 9] {
    let t = &o.metrics.transport;
    [
        ("controller decode errors", t.decode_errors),
        (
            "agent link decode errors",
            o.agent_link.map_or(0, |c| c.decode_errors),
        ),
        ("agent tap decode failures", o.tap_decode_failures),
        ("late observations", t.late_observations),
        ("lost observation windows", t.lost_observation_windows),
        ("stale observations", o.metrics.stale_observations),
        ("dark-filled members", o.metrics.dark_filled_members),
        ("superseded directives", o.reconcile.superseded),
        ("duplicate directives", o.reconcile.duplicates),
    ]
}

/// Ticks of a round that failed: the ones an abort left unrun, plus one
/// for every anomaly.
pub fn failed_ticks(inputs: &Inputs, round: &Round) -> u64 {
    let o = &round.outcome;
    let anomalies: u64 = anomalies(o).iter().map(|(_, count)| count).sum();
    let unrun = inputs.ticks() - o.ticks_done;
    (unrun + anomalies).min(inputs.ticks())
}

/// Per tick, the least disturbed of the rounds' measurements of it.
///
/// Every round of a run does bit for bit the same work, so tick `i` of
/// one round and tick `i` of the next time the same computation; what
/// differs is what else the host was doing. On a shared host that
/// disturbance only ever adds time, so the smallest of the readings is
/// the best estimate of what the tick costs, and a busy spell has to
/// cover the same tick in every round to get into the result.
fn quietest(rounds: &[Round], per_tick: impl Fn(&Round) -> &[u64]) -> Vec<u64> {
    let ticks = rounds.iter().map(|r| per_tick(r).len()).max().unwrap_or(0);
    (0..ticks)
        .filter_map(|tick| rounds.iter().filter_map(|r| per_tick(r).get(tick)).min())
        .copied()
        .collect()
}

/// The end-to-end metrics of an untraced run of one or more rounds.
/// Host-time metrics of the loop are read off its ticks, each tick at
/// the [`quietest`] of its rounds; set-up time is the median of
/// `setups_s`, every set-up timed; simulated ones are read off the first
/// round — `--check` holds the others equal to it.
pub fn end_to_end(
    inputs: &Inputs,
    rounds: &[Round],
    setups_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let first = &rounds[0];
    let ticks = inputs.ticks();
    let injected = inputs.requests_in(ticks);
    let quality = response_quality(&first.outcome.windows, inputs.experiment.response_target);
    let dropped_frac = first.outcome.plant.dropped as f64 / injected.max(1) as f64;

    let tick_ns = quietest(rounds, |r| &r.tick_ns);
    let wall_s = tick_ns.iter().sum::<u64>() as f64 / 1e9;
    let react_us = sorted_us(quietest(rounds, |r| &r.react_ns));
    let react = |p| percentile_or_zero(&react_us, p);

    let failed: u64 = rounds.iter().map(|r| failed_ticks(inputs, r)).sum();
    let value_of = |name: &str| -> Option<f64> {
        Some(match name {
            "setup_s" => median(setups_s),
            "sim_s_per_wall_s" => tick_ns.len() as f64 * inputs.experiment.t_l0 / wall_s.max(1e-9),
            "react_us_p50" => react(0.50),
            "react_us_p99" => react(0.99),
            "resp_mean_s" => quality.mean_response_s,
            "viol_frac" => quality.violation_fraction,
            "energy_per_req" => first.outcome.plant.energy / injected.max(1) as f64,
            "dropped_frac" => dropped_frac,
            "served_frac" => 1.0 - dropped_frac,
            "switch_ons" => first.outcome.plant.switch_ons as f64,
            "track_mae" => first.outcome.metrics.policy.tracking_error?,
            "peak_rss_mb" => peak_rss_mb,
            "fail_frac" => failed as f64 / (ticks * rounds.len() as u64).max(1) as f64,
            other => unreachable!("no definition for end-to-end metric {other}"),
        })
    };
    END_TO_END
        .iter()
        .filter_map(|s| {
            Some(Metric {
                name: s.name,
                unit: s.unit,
                value: value_of(s.name)?,
                samples: s.name.starts_with("react_").then_some(react_us.len()),
            })
        })
        .collect()
}

/// Nearest-rank percentile of sorted samples, zero when there are none (a
/// ledger line of a layer the workload does not run).
fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p)
    }
}

/// Nanosecond samples as sorted microseconds.
fn sorted_us(ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    let mut us: Vec<f64> = ns.into_iter().map(|ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().sum::<u64>() as f64 / 1e3 / ns.len() as f64
    }
}

/// The per-layer ledger of a traced round. Every name is printed on every
/// workload; a layer the workload does not run, or that cannot be reached
/// from outside on it, reads zero (the session loops hide the plant side
/// of `scale128_tcp`; the link, codec and `controld` lines exist on it
/// alone).
pub fn per_layer(
    inputs: &Inputs,
    untraced_wall_s: f64,
    untraced_peak_rss_mb: f64,
    round: &Round,
    traced: &Traced,
    replays: &Replays,
) -> Vec<Metric> {
    let layers = spans::by_layer(&traced.spans);
    let o = &round.outcome;
    let ticks = (o.ticks_done.max(1)) as f64;
    let total_ns = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64;
    let per_tick = |name: &str| total_ns(name) / 1e3 / ticks;
    let allocs = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| layers.get(n).map_or(0, |l| l.allocs))
            .sum::<u64>() as f64
            / ticks
    };
    let injected = inputs.requests_in(o.ticks_done);
    let quality = response_quality(&o.windows, inputs.experiment.response_target);

    let decide_us = sorted_us(
        round
            .policy
            .iter()
            .flat_map(|p| &p.decides)
            .map(|d| (d.span.1 - d.span.0).as_nanos() as u64),
    );
    let decide = |name, p| Metric {
        samples: Some(decide_us.len()),
        ..metric(name, "us", percentile_or_zero(&decide_us, p))
    };

    let policy = &o.metrics.policy;
    let level = |i: usize| {
        let l = policy.level_overhead[i];
        (l.mean().as_nanos() as f64 / 1e3, l.decisions as f64)
    };
    let (l0_us, l0_n) = level(0);
    let (l1_us, l1_n) = level(1);
    let (l2_us, l2_n) = level(2);
    let candidates = policy.l1_candidates_evaluated + policy.l1_candidates_pruned;

    // tcp: what the wire adds is the reaction the agent saw minus the
    // time the controller was busy on the same window.
    let wire_us = sorted_us(
        round
            .react_ns
            .iter()
            .zip(&traced.controld_busy_ns)
            .map(|(&react, &busy)| react.saturating_sub(busy)),
    );
    // The median too, so that busy + wire reads against `react_us_p50`.
    let busy_us = sorted_us(traced.controld_busy_ns.iter().copied());
    let link = o.agent_link.unwrap_or_default();

    // The direct children of a tick: their sum against the traced wall
    // says how much of the loop the ledger accounts for.
    let covered: f64 = [
        "adapter.observe",
        "react",
        "reconciler.drain",
        "adapter.actuate",
        "workload.gen",
        "sim.inject",
        "sim.advance",
        "agent.window",
    ]
    .iter()
    .map(|n| total_ns(n))
    .sum();

    let react_us = sorted_us(round.react_ns.iter().copied());

    let m = metric;
    vec![
        // End-to-end metrics no admissible bound holds across seeds (see
        // `END_TO_END`), as the traced round read them.
        Metric {
            samples: Some(react_us.len()),
            ..m(
                "e2e.react_us_p99",
                "us",
                percentile_or_zero(&react_us, 0.99),
            )
        },
        m("e2e.resp_mean_s", "s", quality.mean_response_s),
        m("e2e.viol_frac", "fraction", quality.violation_fraction),
        m(
            "e2e.dropped_frac",
            "fraction",
            o.plant.dropped as f64 / injected.max(1) as f64,
        ),
        m("e2e.switch_ons", "count", o.plant.switch_ons as f64),
        m("e2e.peak_rss_mb", "MB", untraced_peak_rss_mb),
        m("workload.gen_us", "us", per_tick("workload.gen")),
        m("workload.requests", "count", injected as f64),
        m("sim.inject_us", "us", per_tick("sim.inject")),
        m("sim.advance_us", "us", per_tick("sim.advance")),
        m(
            "sim.ns_per_request",
            "ns",
            (total_ns("sim.inject") + total_ns("sim.advance")) / injected.max(1) as f64,
        ),
        m("sim.completions", "count", quality.completions as f64),
        m("sim.dropped", "count", o.plant.dropped as f64),
        m("adapter.observe_us", "us", per_tick("adapter.observe")),
        m("adapter.actuate_us", "us", per_tick("adapter.actuate")),
        m("agent.window_us", "us", per_tick("agent.window")),
        m("plane.ingest_us", "us", per_tick("plane.ingest")),
        m(
            "plane.step_self_us",
            "us",
            layers
                .get("plane.step")
                .map_or(0.0, |l| l.self_ns as f64 / 1e3 / ticks),
        ),
        m("plane.drain_us", "us", per_tick("plane.drain")),
        m(
            "plane.observations",
            "count",
            o.metrics.observations_ingested as f64,
        ),
        m(
            "plane.directives",
            "count",
            o.metrics.directives_emitted as f64,
        ),
        m(
            "plane.dark_filled",
            "count",
            o.metrics.dark_filled_members as f64,
        ),
        decide("policy.decide_us_p50", 0.50),
        decide("policy.decide_us_p99", 0.99),
        m(
            "policy.online_updates",
            "count",
            policy.online_updates as f64,
        ),
        m(
            "policy.drift_detections",
            "count",
            policy.drift_detections() as f64,
        ),
        m("policy.retrain_rebuilds", "count", policy.rebuilds as f64),
        m("policy.member_deaths", "count", policy.member_deaths as f64),
        m(
            "policy.member_recoveries",
            "count",
            policy.member_recoveries as f64,
        ),
        m(
            "policy.safe_mode_periods",
            "count",
            policy.safe_mode_periods as f64,
        ),
        m(
            "policy.track_mae",
            "cost",
            policy.tracking_error.unwrap_or(0.0),
        ),
        m("l0.decide_us", "us", l0_us),
        m("l0.decisions", "count", l0_n),
        m("l1.decide_us", "us", l1_us),
        m("l1.decisions", "count", l1_n),
        m(
            "l1.candidates_evaluated",
            "count",
            policy.l1_candidates_evaluated as f64,
        ),
        m(
            "l1.pruned_frac",
            "fraction",
            policy.l1_candidates_pruned as f64 / candidates.max(1) as f64,
        ),
        m("l2.decide_us", "us", l2_us),
        m("l2.decisions", "count", l2_n),
        m("approx.probe_ns", "ns", replays.probe_ns),
        m("approx.update_ns", "ns", replays.update_ns),
        m("codec.enc_obs_ns", "ns", replays.enc_obs_ns),
        m("codec.dec_obs_ns", "ns", replays.dec_obs_ns),
        m("codec.enc_dir_ns", "ns", replays.enc_dir_ns),
        m("codec.dec_dir_ns", "ns", replays.dec_dir_ns),
        m("link.agent_send_us", "us", mean_us(&traced.agent_send_ns)),
        m("link.agent_wait_us", "us", mean_us(&traced.agent_wait_ns)),
        m(
            "link.frames_per_tick",
            "count",
            (link.frames_in + link.frames_out) as f64 / ticks,
        ),
        m(
            "link.bytes_per_tick",
            "bytes",
            (link.bytes_in + link.bytes_out) as f64 / ticks,
        ),
        m(
            "link.decode_errors",
            "count",
            (link.decode_errors + o.metrics.transport.decode_errors) as f64,
        ),
        m("controld.busy_us", "us", percentile_or_zero(&busy_us, 0.50)),
        m("wire.us_p50", "us", percentile_or_zero(&wire_us, 0.50)),
        m(
            "reconciler.ns_per_directive",
            "ns",
            replays.reconciler_ns_per_directive,
        ),
        m("reconciler.applied", "count", o.reconcile.applied as f64),
        m(
            "reconciler.superseded",
            "count",
            o.reconcile.superseded as f64,
        ),
        m(
            "reconciler.duplicates",
            "count",
            o.reconcile.duplicates as f64,
        ),
        m("setup.policy_build_s", "s", round.setup.policy_build_s),
        m("setup.plant_build_s", "s", round.setup.plant_build_s),
        m("setup.map_learn_ms", "ms", replays.map_learn_ms),
        m("setup.module_model_ms", "ms", replays.module_model_ms),
        m("alloc.react_count", "count", allocs(&["react"])),
        m(
            "alloc.react_bytes",
            "bytes",
            layers.get("react").map_or(0, |l| l.alloc_bytes) as f64 / ticks,
        ),
        m("alloc.decide_count", "count", allocs(&["policy.decide"])),
        m(
            "alloc.plant_count",
            "count",
            allocs(&[
                "adapter.observe",
                "adapter.actuate",
                "workload.gen",
                "sim.inject",
                "sim.advance",
            ]),
        ),
        m(
            "trace.overhead_frac",
            "fraction",
            (round.wall_s - untraced_wall_s) / untraced_wall_s.max(1e-9),
        ),
        m(
            "trace.coverage_frac",
            "fraction",
            covered / 1e9 / round.wall_s.max(1e-9),
        ),
    ]
}

/// Human-readable table of metrics.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n = {n})"));
        let _ = writeln!(
            out,
            "  {:<28} {:>16} {}{}",
            m.name,
            format_value(m.value),
            m.unit,
            samples
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// The driver's result line: one JSON object, every digit of every value.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Shortest decimal that round-trips (`Display` for `f64`), with
/// non-finite values — which JSON cannot carry — as null.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` restates the contract rows of [`END_TO_END`] and
    /// the workload names; this holds the two copies together.
    #[test]
    fn benchmark_json_restates_the_contract_metrics() {
        let file: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for s in END_TO_END.iter().filter(|s| s.contract) {
            let better = match s.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                s.name, s.unit, s.bound
            );
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = file.matches("\"bound\":").count();
        assert_eq!(listed, END_TO_END.iter().filter(|s| s.contract).count());
        for name in crate::workloads::NAMES {
            assert!(file.contains(&format!("{{\"name\":\"{name}\",\"why\":")));
        }
    }
}
