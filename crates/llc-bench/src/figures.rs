//! Shared experiment setups behind the figure binaries.

use crate::report::quick_mode;
use llc_cluster::{
    paper_cluster_16, single_module, Experiment, ExperimentLog, HierarchicalPolicy, ScenarioConfig,
};
use llc_workload::{synthetic_paper_workload, wc98_like_fig6, Trace, VirtualStore};

/// A completed hierarchical run plus everything the plots need.
pub struct FigureRun {
    /// The workload used (at its native bucket width).
    pub trace: Trace,
    /// Per-tick simulation log.
    pub log: ExperimentLog,
    /// The controller (carries forecast/γ/active histories and overhead).
    pub policy: HierarchicalPolicy,
    /// The scenario that was run.
    pub scenario: ScenarioConfig,
}

/// Default master seed used by the figure binaries.
pub const FIGURE_SEED: u64 = 2006;

/// The §4.3 module experiment behind Figs. 4 and 5: four heterogeneous
/// computers under the synthetic workload, `r* = 4 s`.
///
/// In quick mode the trace is truncated to 200 buckets and the learning
/// grids are coarse.
pub fn module_experiment(seed: u64) -> FigureRun {
    let mut scenario = single_module(4);
    let mut trace = synthetic_paper_workload(seed);
    if quick_mode() {
        scenario = scenario.with_coarse_learning();
        trace = trace.slice(0, 200);
    }
    run(scenario, trace, seed)
}

/// The §5.2 cluster experiment behind Figs. 6 and 7: sixteen computers in
/// four modules under the WC'98-like trace.
pub fn cluster_experiment(seed: u64) -> FigureRun {
    let mut scenario = paper_cluster_16();
    let mut trace = wc98_like_fig6(seed);
    if quick_mode() {
        scenario = scenario.with_coarse_learning();
        trace = trace.slice(0, 120);
    }
    run(scenario, trace, seed)
}

fn run(scenario: ScenarioConfig, trace: Trace, seed: u64) -> FigureRun {
    let store = VirtualStore::paper_default(seed);
    let mut policy = HierarchicalPolicy::build(&scenario);
    let experiment = Experiment::paper_default(seed);
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .expect("experiment configuration is well-formed");
    FigureRun {
        trace,
        log,
        policy,
        scenario,
    }
}
