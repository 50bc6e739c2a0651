//! Closed-loop benchmark of the hierarchical LLC stack: the hierarchy,
//! the plant and the wire measured together, from outside, through public
//! functions only. See `README.md` beside this package for the metric
//! glossary and for what each ledger line is expected to move.
//!
//! ```text
//! llc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--no-check] [--repeat N] [--ticks-scale F]
//! ```
//!
//! With `--workload` the process runs that one workload and ends its
//! output with a one-line JSON result. Without it, it runs every workload
//! in a child process of its own (so that peak memory is per workload)
//! and cross-checks the tcp run against the in-process one.

mod affinity;
mod alloc;
mod check;
mod drive;
mod links;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use drive::Round;
use report::{Metric, END_TO_END};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Transport};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measure for about this long: as many whole untraced rounds as fit
    /// (see `Inputs::rounds_in`). Without it, one round.
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    repeat: usize,
    ticks_scale: f64,
    /// Where a child leaves its results for the parent.
    emit: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2006,
        seconds: None,
        trace: false,
        check: true,
        repeat: 1,
        ticks_scale: 1.0,
        emit: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read '{text}' as a number"))
    }
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = Some(value(&mut i, flag)?),
            "--seed" => args.seed = number(flag, &value(&mut i, flag)?)?,
            "--seconds" => args.seconds = Some(number(flag, &value(&mut i, flag)?)?),
            "--repeat" => args.repeat = number(flag, &value(&mut i, flag)?)?,
            "--ticks-scale" => args.ticks_scale = number(flag, &value(&mut i, flag)?)?,
            "--emit" => args.emit = Some(PathBuf::from(value(&mut i, flag)?)),
            "--check" => args.check = true,
            "--no-check" => args.check = false,
            "--trace" => {
                // `--trace` alone switches tracing on; the acceptance
                // driver spells it `--trace 0` / `--trace 1`.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if args.ticks_scale.is_nan() || args.ticks_scale <= 0.0 || args.ticks_scale > 1.0 {
        return Err("--ticks-scale must be in (0, 1]".into());
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_round(inputs: &Inputs, traced: bool) -> Round {
    match (inputs.transport, traced) {
        (Transport::InProcess, false) => drive::run_in_process(inputs),
        (Transport::InProcess, true) => drive::run_in_process_traced(inputs),
        (Transport::Tcp, traced) => drive::run_tcp(inputs, traced),
    }
}

/// Run one workload in this process. Returns whether its outputs were
/// correct.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    // One CPU, one `llc-par` worker: see `affinity.rs`.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = affinity::pin_to_one_cpu();
    llc_par::set_threads(1);
    let inputs = Inputs::generate(name, args.seed, args.ticks_scale)?;
    let pinned = pinned.map_or("not pinned to one".into(), |cpu| {
        format!("pinned to cpu {cpu}")
    });
    println!(
        "== {} · seed {} · {} ticks · runner: 1 llc-par worker, {} of {} cores, {}, {} ==",
        inputs.name,
        inputs.seed,
        inputs.ticks(),
        pinned,
        cores,
        cpu_model(),
        std::env::consts::OS
    );

    // Untraced rounds first: they are the end-to-end measurement. A
    // traced run measures one of them, for the overhead of tracing, and
    // then the traced round.
    let untraced = if args.trace {
        1
    } else {
        args.seconds.map_or(1, |s| inputs.rounds_in(s))
    };
    // On a host so slow that two rounds have used up `--seconds`, stop at
    // two: the acceptance procedure caps the time of all its runs together.
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::with_capacity(untraced);
    while rounds.len() < untraced {
        if rounds.len() >= 2
            && args
                .seconds
                .is_some_and(|s| started.elapsed().as_secs_f64() >= s)
        {
            break;
        }
        rounds.push(run_round(&inputs, false));
    }
    // What the untraced rounds peaked at: a traced round holds every span
    // in memory on top.
    let peak_rss_mb = report::peak_rss_mb();
    let traced_round = args.trace.then(|| run_round(&inputs, true));

    // Every set-up is timed and the median reported. A cheap set-up is too
    // short to time a few times only: measure it again, on runs of one
    // bucket, until a second of set-up has been seen or twenty samples
    // taken.
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.total_s()).collect();
    while setups.len() < 20 && setups.iter().sum::<f64>() < 1.0 {
        setups.push(run_round(&inputs.truncated(4), false).setup.total_s());
    }

    let mut failures = Vec::new();
    if args.check {
        let first = &rounds[0].outcome;
        for (i, round) in rounds.iter().chain(&traced_round).enumerate() {
            check::round_invariants(&inputs, round, &mut failures);
            if i > 0 {
                let what = if i < rounds.len() {
                    format!("round {}", i + 1)
                } else {
                    "traced round".into()
                };
                check::same_outputs(&what, first, &round.outcome, &mut failures);
            }
        }
        // The check builds a policy of its own: one more set-up timed
        // (the plant and the connection are under a millisecond of it).
        setups.extend(check::prefix_against_experiment(
            &inputs,
            first,
            &mut failures,
        ));
    }

    let end_to_end = report::end_to_end(&inputs, &rounds, &setups, peak_rss_mb);
    print!(
        "{}",
        report::table(
            &format!("end to end ({} untraced round(s))", rounds.len()),
            &end_to_end
        )
    );
    let mut ledger = Vec::new();
    if let Some(round) = &traced_round {
        let traced = round.traced.as_ref().expect("a traced round records");
        let replays = replay::run(&inputs, round);
        ledger = report::per_layer(
            &inputs,
            rounds[0].wall_s,
            peak_rss_mb,
            round,
            traced,
            &replays,
        );
        print!("{}", report::table("per layer (traced round)", &ledger));
        print!("{}", layer_table(traced, round.wall_s));
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", inputs.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    spans::to_json(inputs.name, inputs.seed, &traced.spans),
                )
            })
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
        let value = |name: &str| {
            ledger
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        // Two runs of seconds each differ by a few percent on a shared
        // host whatever tracing costs, so the overhead is reported, not
        // held against the run.
        if value("trace.overhead_frac") >= 0.05 {
            println!(
                "WARNING: the traced round took {:.3} longer than the untraced one (target < 0.05)",
                value("trace.overhead_frac")
            );
        }
        if args.check && value("trace.coverage_frac") < 0.97 {
            failures.push(format!(
                "traced spans cover {:.3} of the traced wall time (limit 0.97)",
                value("trace.coverage_frac")
            ));
        }
    }

    let all_rounds = || rounds.iter().chain(&traced_round);
    let attempted = inputs.ticks() * all_rounds().count() as u64;
    let failed: u64 = all_rounds().map(|r| report::failed_ticks(&inputs, r)).sum();
    let correct = failures.is_empty() && failed == 0;
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }
    if args.check && correct {
        println!("checks passed");
    }

    if let Some(path) = &args.emit {
        let mut tsv = format!("correct\t{}\n", u8::from(correct));
        for m in &end_to_end {
            let _ = writeln!(tsv, "metric\t{}\t{:016x}", m.name, m.value.to_bits());
        }
        for (what, hash) in check::fingerprint(&rounds[0].outcome) {
            let _ = writeln!(tsv, "fingerprint\t{what}\t{hash:016x}");
        }
        std::fs::write(path, tsv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        // The result line carries exactly the metrics BENCHMARK.json
        // lists: the contract's end-to-end ones untraced, the ledger
        // traced.
        let contract: Vec<Metric> = if args.trace {
            ledger
        } else {
            end_to_end
                .into_iter()
                .filter(|m| END_TO_END.iter().any(|s| s.name == m.name && s.contract))
                .collect()
        };
        println!(
            "{}",
            report::result_line(correct, attempted, failed, &contract)
        );
    }
    Ok(correct)
}

/// Self time per span name: where the traced wall time went.
fn layer_table(traced: &drive::Traced, wall_s: f64) -> String {
    let mut out =
        String::from("spans (traced round)\n  name                    calls      total ms       self ms   self/wall\n");
    for (name, layer) in spans::by_layer(&traced.spans) {
        let _ = writeln!(
            out,
            "  {:<20} {:>8} {:>13.2} {:>13.2} {:>10.4}",
            name,
            layer.calls,
            layer.total_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e9 / wall_s.max(1e-9)
        );
    }
    out
}

/// What a child left for the parent.
#[derive(Debug, Default)]
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    fingerprints: BTreeMap<String, u64>,
}

fn read_result(path: &Path) -> Result<ChildResult, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut result = ChildResult::default();
    for line in text.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{line}: {e}"));
        match fields.as_slice() {
            ["correct", v] => result.correct = *v == "1",
            ["metric", name, bits] => {
                result
                    .metrics
                    .insert((*name).into(), f64::from_bits(hex(bits)?));
            }
            ["fingerprint", what, hash] => {
                result.fingerprints.insert((*what).into(), hex(hash)?);
            }
            _ => return Err(format!("{}: unexpected line '{line}'", path.display())),
        }
    }
    Ok(result)
}

/// Run the selected workloads, one child process each, `--repeat` times;
/// cross-check `scale128_tcp` against `scale128_inproc`; with repeats,
/// print the spread of every end-to-end metric and hold it to its bound.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    let mut results: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    for repeat in 0..args.repeat {
        if args.repeat > 1 {
            println!("#### repeat {} of {} ####", repeat + 1, args.repeat);
        }
        for &name in &names {
            let emit = dir.join(format!("result-{name}.tsv"));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--ticks-scale", &args.ticks_scale.to_string()])
                .arg(if args.check { "--check" } else { "--no-check" })
                .arg("--emit")
                .arg(&emit);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.trace {
                child.arg("--trace");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("starting the {name} child: {e}"))?;
            let result = read_result(&emit)?;
            ok &= status.success() && (result.correct || !args.check);
            results.entry(name).or_default().push(result);
        }
        if let (Some(inproc), Some(tcp)) = (
            results.get("scale128_inproc").and_then(|r| r.last()),
            results.get("scale128_tcp").and_then(|r| r.last()),
        ) {
            if inproc.fingerprints == tcp.fingerprints {
                println!("scale128_tcp == scale128_inproc: directive log, applied log, windows and plant totals bit-identical");
            } else {
                ok = false;
                println!(
                    "CHECK FAILED: scale128_tcp differs from scale128_inproc: {:x?} vs {:x?}",
                    tcp.fingerprints, inproc.fingerprints
                );
            }
        }
    }
    if args.repeat > 1 {
        ok &= print_spread(&results);
    }
    Ok(ok)
}

/// Per workload × end-to-end metric over the repeats: median, quartiles,
/// relative spread. A simulated metric must not move at all; a host-time
/// metric's spread must stay within its bound.
fn print_spread(results: &BTreeMap<&str, Vec<ChildResult>>) -> bool {
    let mut ok = true;
    for (name, runs) in results {
        println!("== {name}: spread over {} runs ==", runs.len());
        println!("  metric                   better        median            q1            q3    spread     bound");
        for spec in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(spec.name).copied())
                .collect();
            if values.is_empty() {
                continue;
            }
            let median = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((median, median));
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            };
            let verdict = if spec.simulated {
                if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
                    "exact"
                } else {
                    ok = false;
                    "MOVED (simulated metrics must repeat exactly)"
                }
            } else if spread > spec.bound {
                ok = false;
                "SPREAD OVER BOUND"
            } else {
                ""
            };
            let better = match spec.better {
                report::Better::Lower => "lower",
                report::Better::Higher => "higher",
            };
            println!(
                "  {:<24} {:<6} {:>13.4} {:>13.4} {:>13.4} {:>9.4} {:>9.2}  {}",
                spec.name, better, median, q1, q3, spread, spec.bound, verdict
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("llc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.repeat) {
        (Some(name), 1) => run_workload(&args, name),
        _ => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("llc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
