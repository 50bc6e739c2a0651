//! Mega-cluster plant throughput: how fast the struct-of-arrays,
//! shard-stepped `ClusterSim` chews through simulated time as the cluster
//! grows to 1000+ machines.
//!
//! For each cluster size the bench drives the same windowed workload
//! through the plant twice — once pinned to one worker thread, once at
//! the runner's full thread count — scheduling every request with its
//! own `schedule_arrival` call, as `Plant` does, and reports simulated
//! seconds per wall-clock second for both arms. (What the decision plane
//! costs at scale is the `l1.decide_us` line of `benchmark/`'s ledger,
//! what a per-request arrival costs its `sim.ns_per_request`.) Traffic
//! is a constant-rate synthetic stream by default; `--trace wc98`
//! switches the size sweep to a WC'98-like match-evening crest replay,
//! and the gated path always replays that crest on the small cluster so
//! the trace loader stays exercised in CI.
//!
//! A `hierarchy_build` section puts the controller's set-up beside the
//! plant: wall time of `HierarchicalPolicy::build` at each size, and how
//! many distinct abstraction maps the built policy actually holds. The
//! sizes differ in machine count, not in the kinds of machine, so the
//! 1000-machine build must cost about what the 16-machine build does.
//!
//! A `hierarchy_tick` section then closes each built hierarchy over its
//! plant through `Experiment::run` for twenty windows and reports what a
//! decision costs per level, and — the number the L2 is judged by — per
//! split it weighed: a split is a sum of per-module prices worked out
//! once per decision, so that cost must not grow with the module count.
//! Nor may an L0 decision's: each machine searches its own lookahead
//! tree, whatever the size of the cluster around it. The states an L0
//! search explored per decision are recorded beside its time, not gated.
//!
//! Emits `BENCH_scale.json` at the workspace root (full runs). Pass
//! `--quick` for a fast smoke run, `--check` for the CI regression gate:
//! bit-identical sharding determinism, sim-rate floors against the
//! committed baseline, the build-time ratio and map count of the
//! hierarchy at 1000 machines, and of the closed loop the L2's cost per
//! split at 128 machines against 16, an L0 decision at 1000 machines
//! against 16, and the share of requests served at 16 and 128. The
//! sharded-faster-than-serial comparison is only *gated* on a runner
//! with at least four cores: with one core both arms run the same serial
//! code path, and a two-core container shares its second core with
//! whatever else the host runs — the same binary has measured 1.8x and
//! 0.98x there within a minute (the numbers are still recorded, honestly
//! labeled).

use llc_bench::report::{
    self, check_mode, gate_ratio, json_number, median3, quick_mode, runner_json,
};
use llc_cluster::{
    cluster_of, paper_cluster_16, AbstractionMap, Experiment, HierarchicalPolicy, ScenarioConfig,
};
use llc_sim::{ClusterConfig, ClusterSim, WindowStats};
use llc_workload::{wc98_like_day, Trace, VirtualStore};
use std::time::Instant;

/// Controller window width (the paper's 30-second L1 period).
const WINDOW_S: f64 = 30.0;
/// Mean request demand in reference-seconds (the paper's 17.5 ms).
const DEMAND_S: f64 = 0.0175;
/// Synthetic-arm target utilization.
const RHO: f64 = 0.6;

/// Gate tolerances for the sim-rate floors. Unlike the substrate gate,
/// these floors are *absolute* wall-clock throughput, and shared or
/// virtualized runners swing well beyond the 10% same-class headroom
/// with co-tenant load — the same container has measured 25% apart an
/// hour apart. The floors exist to catch structural regressions (an
/// accidental O(requests) path would cost 10x, not 1.3x), so they get
/// generous headroom.
const SCALE_CLASS_TOLERANCE: f64 = 0.30;
const SCALE_FALLBACK_TOLERANCE: f64 = 0.40;

/// Cores below which the sharded-faster gate is skipped.
const MIN_CORES_FOR_SHARDED_GATE: usize = 4;

/// The 1000-machine hierarchy may cost at most this multiple of the
/// 16-machine build. By construction it is ~1.25x (five module
/// compositions against four, the same four machine profiles); a build
/// that learns per member again costs ~60x.
const MAX_BUILD_RATIO: f64 = 3.0;
/// Distinct abstraction maps a `cluster_of` hierarchy may hold: one per
/// `FrequencyProfile`.
const MAX_DISTINCT_MAPS: usize = 4;

/// Windows the closed loop of the `hierarchy_tick` section runs for, quick
/// or not: five L1/L2 periods.
const TICK_WINDOWS: usize = 20;
/// Its offered load, as a share of the cluster's full-speed capacity.
const TICK_RHO: f64 = 0.3;
/// An L2 split weighed at 128 machines may cost at most this multiple of
/// one weighed at 16 — both measured in this process, so the ratio holds
/// on a shared runner. The 16-machine figure is mostly the decision's
/// fixed cost spread over 13 splits (400-700 ns each), so even a search
/// that prices every module again for every split reads only 1.4x or so
/// (~1050 ns over 993 splits); one that sums memoised prices reads ~0.1x.
const MAX_SPLIT_COST_RATIO: f64 = 1.0;
/// An L0 decision at 1000 machines may cost at most this multiple of one
/// at 16 — the per-machine half of "decide µs per machine does not grow
/// with the cluster" (ROADMAP item 7(d)), both measured in this process.
/// Every machine runs the same horizon-3 search over its own queue, so
/// what can move the ratio is memory the search touches, not its work.
const MAX_L0_DECIDE_RATIO: f64 = 2.0;
/// Share of the requests offered that the closed loop must serve at the
/// gated sizes.
const MIN_SERVED_FRAC: f64 = 0.99;

/// One cluster size of the sweep: `modules` heterogeneous modules of
/// four computers each (the §5.2 composition patterns).
struct Size {
    modules: usize,
}

impl Size {
    fn machines(&self) -> usize {
        self.modules * 4
    }

    fn key(&self) -> String {
        format!("scale_{}", self.machines())
    }

    fn sim_config(&self) -> ClusterConfig {
        self.scenario().to_sim_config()
    }

    /// The paper's controller knobs over this size's machines (default
    /// learning resolution, dense maps — what `benchmark/` builds).
    fn scenario(&self) -> ScenarioConfig {
        let mut scenario = paper_cluster_16();
        scenario.modules = cluster_of(self.modules);
        scenario
    }

    /// Sum of relative machine speeds — cluster capacity in
    /// reference-demand units per second is `speed_sum / DEMAND_S`.
    fn speed_sum(&self) -> f64 {
        cluster_of(self.modules)
            .iter()
            .flatten()
            .map(|c| c.speed)
            .sum()
    }
}

/// Everything one plant run produces, for timing and for bit-exact
/// comparison across thread counts.
struct RunOutcome {
    wall_s: f64,
    sim_s: f64,
    arrivals: u64,
    completions: u64,
    dropped: u64,
    energy: f64,
    /// Per-window, per-machine drained stats — the determinism witness.
    windows: Vec<Vec<WindowStats>>,
    module_arrivals: Vec<u64>,
}

fn fresh_sim(size: &Size) -> ClusterSim {
    let mut sim = ClusterSim::new(size.sim_config());
    let p = sim.num_modules();
    for i in 0..sim.num_computers() {
        sim.force_on(i);
    }
    sim.set_module_weights(&vec![1.0; p]).expect("p modules");
    for m in 0..p {
        sim.set_computer_weights(m, &[1.0, 1.0, 1.0, 1.0])
            .expect("4 members");
    }
    sim
}

/// Drive `counts[w]` arrivals, spaced evenly across window `w`, through
/// the plant at the given worker-thread count.
fn run_plant(size: &Size, counts: &[u64], threads: usize) -> RunOutcome {
    llc_par::with_threads(threads, || {
        let mut sim = fresh_sim(size);
        let started = Instant::now();
        let mut windows = Vec::with_capacity(counts.len());
        let mut module_arrivals = vec![0u64; sim.num_modules()];
        let mut completions = 0u64;
        for (w, &count) in counts.iter().enumerate() {
            let t0 = w as f64 * WINDOW_S;
            let spacing = WINDOW_S / count as f64;
            for k in 0..count {
                sim.schedule_arrival(t0 + k as f64 * spacing, DEMAND_S)
                    .expect("monotone windows");
            }
            sim.run_until(t0 + WINDOW_S).expect("monotone windows");
            let stats = sim.drain_computer_stats();
            completions += stats.iter().map(|s| s.completions).sum::<u64>();
            for (m, s) in sim.drain_module_stats().iter().enumerate() {
                module_arrivals[m] += s.arrivals;
            }
            windows.push(stats);
        }
        RunOutcome {
            wall_s: started.elapsed().as_secs_f64(),
            sim_s: sim.now(),
            arrivals: counts.iter().sum(),
            completions,
            dropped: sim.dropped(),
            energy: sim.total_energy(),
            windows,
            module_arrivals,
        }
    })
}

/// Synthetic constant-rate schedule: `windows` windows at `RHO`
/// utilization of the cluster's full-speed capacity.
fn synthetic_counts(size: &Size, windows: usize) -> Vec<u64> {
    let per_window = (RHO * WINDOW_S * size.speed_sum() / DEMAND_S).round() as u64;
    vec![per_window; windows]
}

/// WC'98-like match-evening crest, rebucketed to controller windows and
/// scaled so the crest's peak window sits at ~0.9 utilization of this
/// cluster — the trace's *shape* replayed at the plant's scale.
fn wc98_counts(size: &Size, windows: usize) -> Vec<u64> {
    let day = wc98_like_day(0xC98);
    // 2-minute buckets 540..660 cover 18:00-22:00 — the crest.
    let crest = day.slice(540, 660).rebucket(WINDOW_S).expect("120/30");
    let peak_per_window = crest.peak();
    let capacity_per_window = WINDOW_S * size.speed_sum() / DEMAND_S;
    let scaled = crest.scaled(0.9 * capacity_per_window / peak_per_window);
    scaled
        .counts()
        .iter()
        .take(windows)
        .map(|&c| c.round() as u64)
        .collect()
}

/// Median-of-three wall time (seconds) for one plant arm.
fn time_arm(size: &Size, counts: &[u64], threads: usize) -> f64 {
    median3(|| run_plant(size, counts, threads).wall_s)
}

/// Build the paper-default hierarchy over this size's machines: median of
/// three wall times in seconds, and the number of distinct abstraction
/// maps the built policy's L1 controllers consult.
fn time_hierarchy_build(size: &Size) -> (f64, usize) {
    let scenario = size.scenario();
    let mut distinct_maps = 0;
    let build_s = median3(|| {
        let started = Instant::now();
        let policy = HierarchicalPolicy::build(&scenario);
        let wall_s = started.elapsed().as_secs_f64();
        let mut maps: Vec<*const AbstractionMap> = (0..size.modules)
            .flat_map(|m| {
                let l1 = policy.l1(m);
                (0..l1.num_members()).map(move |j| std::ptr::from_ref(l1.map(j)))
            })
            .collect();
        maps.sort();
        maps.dedup();
        distinct_maps = maps.len();
        wall_s
    });
    (build_s, distinct_maps)
}

/// What `TICK_WINDOWS` windows of the closed loop cost and delivered.
struct TickOutcome {
    /// Mean decide time per level, L0 first, microseconds.
    level_us: [f64; 3],
    /// Mean L2 decide time over the mean number of splits it weighed.
    l2_ns_per_split: f64,
    /// States an L0 lookahead explored per decision, over every machine.
    l0_states: f64,
    served_frac: f64,
    mean_response_s: f64,
}

/// Close the built hierarchy over its plant, request by request, under a
/// steady `TICK_RHO` of capacity. The split quantum is a quarter of an
/// even share (what `scale128_*` hand-sets): the paper's 0.1 can hand
/// load to ten modules at most.
fn run_hierarchy_tick(size: &Size) -> TickOutcome {
    let mut scenario = size.scenario();
    scenario.l2.gamma_quantum = 1.0 / size.machines() as f64;
    let mut policy = HierarchicalPolicy::build(&scenario);
    let per_window = (TICK_RHO * WINDOW_S * size.speed_sum() / DEMAND_S).round();
    let trace = Trace::new(WINDOW_S, vec![per_window; TICK_WINDOWS]).expect("positive counts");
    let store = VirtualStore::paper_default(0x71C);
    let log = Experiment::paper_default(0x71C)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .expect("well-formed run");
    let summary = log.summary();
    let level_us = log
        .metrics
        .policy
        .level_overhead
        .map(|level| level.mean().as_secs_f64() * 1e6);
    let splits = policy
        .l2()
        .expect("every size has several modules")
        .mean_states_evaluated();
    let (states, decisions) = (0..policy.num_computers()).map(|i| policy.l0(i)).fold(
        (0.0, 0),
        |(states, decisions), l0| {
            (
                states + l0.mean_states_explored() * l0.decisions() as f64,
                decisions + l0.decisions(),
            )
        },
    );
    TickOutcome {
        level_us,
        l2_ns_per_split: level_us[2] * 1e3 / splits,
        l0_states: states / decisions as f64,
        served_frac: 1.0 - summary.total_dropped as f64 / summary.total_arrivals as f64,
        mean_response_s: summary.mean_response,
    }
}

/// `true` when two runs produced bit-identical per-window stats, drops
/// and energy — the sharding determinism contract.
fn identical(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.windows == b.windows
        && a.dropped == b.dropped
        && a.energy.to_bits() == b.energy.to_bits()
        && a.module_arrivals == b.module_arrivals
}

fn main() {
    let check = check_mode();
    let quick = quick_mode() || check;
    let threads = llc_par::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trace_mode = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2).any(|w| w[0] == "--trace" && w[1] == "wc98")
    };
    let windows = if quick { 6 } else { 20 };
    let sizes = [
        Size { modules: 4 },   // 16 machines — the paper's §5.2 cluster
        Size { modules: 32 },  // 128 machines
        Size { modules: 250 }, // 1000 machines
    ];
    println!(
        "scale benchmark (threads = {threads}, cores = {cores}, quick = {quick}, \
         check = {check}, traffic = {})",
        if trace_mode {
            "wc98 crest"
        } else {
            "synthetic"
        }
    );

    // --- Size sweep: serial vs sharded plant. -------------------------
    let mut size_rows = Vec::new();
    let sharded_threads = threads.max(2);
    for size in &sizes {
        let counts = if trace_mode {
            wc98_counts(size, windows)
        } else {
            synthetic_counts(size, windows)
        };
        let serial_s = time_arm(size, &counts, 1);
        let sharded_s = time_arm(size, &counts, sharded_threads);
        let outcome = run_plant(size, &counts, 1);
        let sim_s = outcome.sim_s;
        let serial_rate = sim_s / serial_s;
        let sharded_rate = sim_s / sharded_s;
        println!(
            "{:>4} machines: {:>11} arrivals over {sim_s:.0} sim-s | \
             serial {serial_rate:>9.0} sim-s/wall-s | \
             {sharded_threads} threads {sharded_rate:>9.0} sim-s/wall-s ({:.2}x)",
            size.machines(),
            outcome.arrivals,
            serial_s / sharded_s,
        );
        size_rows.push((size, counts, serial_s, sharded_s, outcome));
    }

    // --- Sharding determinism: 1 vs 2 vs 8 workers, bit-identical. ----
    let det_size = &sizes[1];
    let det_counts = synthetic_counts(det_size, windows.min(6));
    let det1 = run_plant(det_size, &det_counts, 1);
    let det2 = run_plant(det_size, &det_counts, 2);
    let det8 = run_plant(det_size, &det_counts, 8);
    let deterministic = identical(&det1, &det2) && identical(&det1, &det8);
    println!(
        "sharding determinism (128 machines, 1/2/8 workers): {}",
        if deterministic {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );

    // --- Gated WC'98 replay on the small cluster (trace loader path). -
    let small = &sizes[0];
    let wc98_small_counts = wc98_counts(small, windows);
    let wc98_small = run_plant(small, &wc98_small_counts, 1);
    let wc98_rate = wc98_small.sim_s / wc98_small.wall_s;
    println!(
        "wc98 crest replay (16 machines): {} arrivals, {} dropped, \
         {wc98_rate:.0} sim-s/wall-s",
        wc98_small.arrivals, wc98_small.dropped
    );

    // --- Hierarchy set-up: learned once per kind, whatever the count. --
    let builds: Vec<(f64, usize)> = sizes.iter().map(time_hierarchy_build).collect();
    for (size, (build_s, distinct_maps)) in sizes.iter().zip(&builds) {
        println!(
            "hierarchy build ({:>4} machines): {build_s:.3} s, {distinct_maps} distinct maps",
            size.machines()
        );
    }
    let build_ratio = builds[builds.len() - 1].0 / builds[0].0;

    // --- The closed loop: what a decision costs as the cluster grows. ---
    let ticks: Vec<TickOutcome> = sizes.iter().map(run_hierarchy_tick).collect();
    for (size, tick) in sizes.iter().zip(&ticks) {
        println!(
            "hierarchy tick  ({:>4} machines): L0 {:.1} us ({:.1} states), L1 {:.1} us, \
             L2 {:.1} us ({:.0} ns per split), served {:.4}, mean response {:.2} s",
            size.machines(),
            tick.level_us[0],
            tick.l0_states,
            tick.level_us[1],
            tick.level_us[2],
            tick.l2_ns_per_split,
            tick.served_frac,
            tick.mean_response_s,
        );
    }
    let split_cost_ratio = ticks[1].l2_ns_per_split / ticks[0].l2_ns_per_split;
    let l0_decide_ratio = ticks[ticks.len() - 1].level_us[0] / ticks[0].level_us[0];

    if check {
        let mut failures = Vec::new();
        let verdict = format!(
            "an L2 split weighed at {} machines costs {split_cost_ratio:.2}x one at {} \
             (limit {MAX_SPLIT_COST_RATIO}x)",
            sizes[1].machines(),
            sizes[0].machines(),
        );
        if split_cost_ratio > MAX_SPLIT_COST_RATIO {
            failures.push(format!("REGRESSION {verdict}"));
        } else {
            println!("gate ok  {verdict}");
        }
        let verdict = format!(
            "an L0 decision at {} machines costs {l0_decide_ratio:.2}x one at {} \
             (limit {MAX_L0_DECIDE_RATIO}x)",
            sizes[sizes.len() - 1].machines(),
            sizes[0].machines(),
        );
        if l0_decide_ratio > MAX_L0_DECIDE_RATIO {
            failures.push(format!("REGRESSION {verdict}"));
        } else {
            println!("gate ok  {verdict}");
        }
        // The 1000-machine row is reported, not gated: an L2 decision
        // there still weighs 62 251 splits of 250 terms each.
        for (size, tick) in sizes.iter().zip(&ticks).take(2) {
            if tick.served_frac < MIN_SERVED_FRAC {
                failures.push(format!(
                    "REGRESSION hierarchy tick: served {:.4} of the requests offered at {} \
                     machines (floor {MIN_SERVED_FRAC})",
                    tick.served_frac,
                    size.machines()
                ));
            }
        }
        let verdict = format!(
            "hierarchy build at {} machines costs {build_ratio:.2}x the {}-machine build \
             (limit {MAX_BUILD_RATIO}x)",
            sizes[sizes.len() - 1].machines(),
            sizes[0].machines(),
        );
        if build_ratio > MAX_BUILD_RATIO {
            failures.push(format!("REGRESSION {verdict}"));
        } else {
            println!("gate ok  {verdict}");
        }
        for (size, (_, distinct_maps)) in sizes.iter().zip(&builds) {
            if *distinct_maps > MAX_DISTINCT_MAPS {
                failures.push(format!(
                    "REGRESSION hierarchy build: {distinct_maps} distinct maps at {} machines \
                     (limit {MAX_DISTINCT_MAPS})",
                    size.machines()
                ));
            }
        }
        if !deterministic {
            failures.push("REGRESSION sharding determinism: 1/2/8-worker runs differ".to_string());
        }
        if wc98_small.arrivals == 0 || wc98_small.completions == 0 {
            failures.push("REGRESSION wc98 replay: no traffic served".to_string());
        }
        // Sim-rate floors against the committed baseline (per-class when
        // this runner has a snapshot, workspace-root fallback otherwise).
        let (committed, tolerance, source) = match report::load_class_baseline("scale", threads) {
            Some(json) => (
                Some(json),
                SCALE_CLASS_TOLERANCE,
                format!("class baseline {}", report::runner_class(threads)),
            ),
            None => (
                std::fs::read_to_string("BENCH_scale.json").ok(),
                SCALE_FALLBACK_TOLERANCE,
                "workspace-root BENCH_scale.json".to_string(),
            ),
        };
        match committed {
            Some(committed) => {
                println!("gating against {source} at {:.0}%", tolerance * 100.0);
                for (size, _, serial_s, sharded_s, outcome) in &size_rows {
                    let measured = outcome.sim_s / serial_s.min(*sharded_s);
                    if let Some(baseline) =
                        json_number(&committed, &size.key(), "best_sim_s_per_wall_s")
                    {
                        if let Err(e) = gate_ratio(
                            &format!("{} machines sim rate", size.machines()),
                            measured,
                            baseline,
                            tolerance,
                        ) {
                            failures.push(e);
                        }
                    } else {
                        println!(
                            "note: no {} baseline in {source}; skipping its floor",
                            size.key()
                        );
                    }
                }
            }
            None => println!("note: no committed baseline found; sim-rate floors skipped"),
        }
        // The multi-core claim is only checkable on hardware with cores
        // to spare (see the module docs).
        if cores >= MIN_CORES_FOR_SHARDED_GATE {
            let (_, _, serial_s, sharded_s, _) = &size_rows[size_rows.len() - 1];
            if sharded_s >= serial_s {
                failures.push(format!(
                    "REGRESSION sharded arm not faster on largest size: \
                     {sharded_s:.2}s (x{sharded_threads}) vs {serial_s:.2}s serial \
                     on a {cores}-core runner"
                ));
            } else {
                println!(
                    "gate ok  sharded arm faster on largest size \
                     ({sharded_s:.2}s < {serial_s:.2}s, {cores} cores)"
                );
            }
        } else {
            println!(
                "note: {cores}-core runner — sharded-faster gate skipped below \
                 {MIN_CORES_FOR_SHARDED_GATE} cores; determinism gate covers the \
                 sharding discipline"
            );
        }
        if failures.is_empty() {
            println!("bench gate passed: scale plant deterministic and fast enough");
            return;
        }
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
    if quick {
        println!("(quick mode: BENCH_scale.json not rewritten)");
        return;
    }

    // --- Full run: emit BENCH_scale.json. -----------------------------
    let mut sections = String::new();
    for (size, counts, serial_s, sharded_s, outcome) in &size_rows {
        let best = serial_s.min(*sharded_s);
        sections.push_str(&format!(
            "  \"{key}\": {{\n    \"machines\": {machines},\n    \"modules\": {modules},\n    \
             \"windows\": {w},\n    \"sim_seconds\": {sim:.0},\n    \"arrivals\": {arr},\n    \
             \"completions\": {comp},\n    \"dropped\": {drop},\n    \
             \"serial_wall_s\": {serial_s:.3},\n    \"serial_sim_s_per_wall_s\": {sr:.0},\n    \
             \"sharded_threads\": {st},\n    \"sharded_wall_s\": {sharded_s:.3},\n    \
             \"sharded_sim_s_per_wall_s\": {shr:.0},\n    \
             \"best_sim_s_per_wall_s\": {br:.0},\n    \
             \"sharded_over_serial\": {sos:.3}\n  }},\n",
            key = size.key(),
            machines = size.machines(),
            modules = size.modules,
            w = counts.len(),
            sim = outcome.sim_s,
            arr = outcome.arrivals,
            comp = outcome.completions,
            drop = outcome.dropped,
            sr = outcome.sim_s / serial_s,
            st = sharded_threads,
            shr = outcome.sim_s / sharded_s,
            br = outcome.sim_s / best,
            sos = serial_s / sharded_s,
        ));
    }
    let mut build_rows = String::new();
    for (size, (build_s, distinct_maps)) in sizes.iter().zip(&builds) {
        build_rows.push_str(&format!(
            "    \"build_s_{machines}\": {build_s:.3},\n    \
             \"distinct_maps_{machines}\": {distinct_maps},\n",
            machines = size.machines(),
        ));
    }
    let mut tick_rows = String::new();
    for (size, tick) in sizes.iter().zip(&ticks) {
        tick_rows.push_str(&format!(
            "    \"l0_decide_us_{machines}\": {l0:.2},\n    \
             \"l0_states_per_decide_{machines}\": {l0_states:.1},\n    \
             \"l1_decide_us_{machines}\": {l1:.2},\n    \
             \"l2_decide_us_{machines}\": {l2:.2},\n    \
             \"l2_ns_per_split_{machines}\": {per_split:.1},\n    \
             \"served_frac_{machines}\": {served:.4},\n    \
             \"mean_response_s_{machines}\": {response:.3},\n",
            machines = size.machines(),
            l0 = tick.level_us[0],
            l0_states = tick.l0_states,
            l1 = tick.level_us[1],
            l2 = tick.level_us[2],
            per_split = tick.l2_ns_per_split,
            served = tick.served_frac,
            response = tick.mean_response_s,
        ));
    }
    let json = format!(
        "{{\n  {runner},\n  \"timing\": \"median of 3 runs per arm\",\n  \
         \"traffic\": \"{traffic}\",\n  \
         \"note\": \"sharded arm recorded at {sharded_threads} workers on a {cores}-core \
         runner; below {MIN_CORES_FOR_SHARDED_GATE} cores the ratio is not gated — the \
         determinism gate (1/2/8 workers bit-identical) is what certifies the sharding \
         discipline there\",\n\
         {sections}  \"wc98_replay\": {{\n    \"machines\": {wm},\n    \"windows\": {ww},\n    \
         \"arrivals\": {wa},\n    \"dropped\": {wd},\n    \
         \"sim_s_per_wall_s\": {wr:.0}\n  }},\n  \
         \"hierarchy_build\": {{\n    \"scenario\": \"paper_cluster_16 knobs over cluster_of(p), \
         default learning resolution, dense maps\",\n{build_rows}    \
         \"largest_over_smallest\": {build_ratio:.3}\n  }},\n  \
         \"hierarchy_tick\": {{\n    \"scenario\": \"the built hierarchy closed over its plant \
         through Experiment::run, {TICK_WINDOWS} windows at rho {TICK_RHO}, \
         l2.gamma_quantum = 1/machines\",\n{tick_rows}    \
         \"l2_ns_per_split_{mid}_over_{sm}\": {split_cost_ratio:.3}\n  }},\n  \
         \"determinism\": \"{det}\"\n}}\n",
        runner = runner_json(threads),
        traffic = if trace_mode {
            "wc98 crest replay"
        } else {
            "synthetic constant-rate at rho 0.6"
        },
        mid = sizes[1].machines(),
        sm = small.machines(),
        wm = small.machines(),
        ww = wc98_small_counts.len(),
        wa = wc98_small.arrivals,
        wd = wc98_small.dropped,
        wr = wc98_rate,
        det = if deterministic {
            "1/2/8-worker runs bit-identical (128 machines)"
        } else {
            "MISMATCH"
        },
    );
    std::fs::write("BENCH_scale.json", &json).expect("cannot write BENCH_scale.json");
    println!("wrote BENCH_scale.json");
    if let Some(class_path) = report::write_class_baseline("scale", threads, &json) {
        println!("wrote {} (runner-class baseline)", class_path.display());
    }
}
