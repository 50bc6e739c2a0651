//! Run-to-run determinism: the whole stack — workload generation, offline
//! learning, controllers, event simulation — must be bit-reproducible for
//! a fixed seed.

use llc_cluster::{single_module, Directive, Experiment, HierarchicalPolicy};
use llc_workload::{synthetic_paper_workload, Trace, VirtualStore};

#[allow(clippy::type_complexity)] // (completions, responses, energy, directives)
fn run_once(seed: u64) -> (Vec<u64>, Vec<Option<f64>>, f64, Vec<Directive>) {
    let scenario = single_module(4).with_coarse_learning();
    let mut policy = HierarchicalPolicy::build(&scenario);
    let trace = synthetic_paper_workload(seed).slice(100, 160);
    let store = VirtualStore::paper_default(seed);
    let log = Experiment::paper_default(seed)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    (
        log.ticks.iter().map(|t| t.completions).collect(),
        log.ticks.iter().map(|t| t.mean_response).collect(),
        log.ticks.last().unwrap().energy,
        log.directives,
    )
}

#[test]
fn same_seed_reproduces_exactly() {
    let a = run_once(31);
    let b = run_once(31);
    assert_eq!(a.0, b.0, "completions differ between identical runs");
    assert_eq!(a.1, b.1, "responses differ between identical runs");
    assert_eq!(a.2, b.2, "energy differs between identical runs");
    assert_eq!(
        a.3, b.3,
        "controller decisions differ between identical runs"
    );
}

#[test]
fn different_seed_changes_the_run() {
    let a = run_once(31);
    let c = run_once(32);
    assert_ne!(
        (a.0, a.2),
        (c.0, c.2),
        "distinct seeds should produce distinct trajectories"
    );
}

#[test]
fn workload_generators_are_seed_deterministic() {
    assert_eq!(synthetic_paper_workload(5), synthetic_paper_workload(5));
    let t = Trace::new(30.0, vec![1.0, 2.0]).unwrap();
    assert_eq!(t, Trace::from_csv(&t.to_csv()).unwrap());
}
