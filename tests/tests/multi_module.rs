//! Cross-crate integration of the full three-level hierarchy on a
//! multi-module cluster (the §5.2 structure at test scale).

use llc_cluster::{paper_cluster_16, Experiment, HierarchicalPolicy, ScenarioConfig};
use llc_workload::{wc98_like_fig6, Trace, VirtualStore};

fn small_cluster() -> ScenarioConfig {
    // Two modules of four — enough to exercise the L2 path.
    let mut scenario = paper_cluster_16().with_coarse_learning();
    scenario.modules.truncate(2);
    scenario
}

#[test]
fn two_module_cluster_meets_target_under_moderate_load() {
    let scenario = small_cluster();
    let mut policy = HierarchicalPolicy::build(&scenario);
    assert_eq!(policy.num_modules(), 2);
    assert_eq!(policy.num_computers(), 8);
    assert!(policy.l2().is_some(), "multi-module scenario builds an L2");

    // ~180 req/s against ~420 req/s full capacity.
    let trace = Trace::new(30.0, vec![180.0 * 30.0; 80]).unwrap();
    let store = VirtualStore::paper_default(21);
    let log = Experiment::paper_default(21)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let s = log.summary();

    assert_eq!(s.total_dropped, 0);
    assert!(
        s.mean_response < 4.0,
        "mean response {:.2} must hold r* = 4 s",
        s.mean_response
    );
    // Both modules receive load.
    let splits = log.module_splits();
    let last_gamma = splits.last().unwrap().1;
    assert!(
        last_gamma.iter().all(|&g| g > 0.0),
        "steady state should use both modules: {last_gamma:?}"
    );
}

#[test]
fn l2_splits_always_sum_to_one() {
    let scenario = small_cluster();
    let mut policy = HierarchicalPolicy::build(&scenario);
    let trace = wc98_like_fig6(3)
        .slice(0, 40)
        .rebucket(30.0)
        .unwrap()
        .scaled(0.4);
    let store = VirtualStore::paper_default(22);
    let log = Experiment::paper_default(22)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let splits = log.module_splits();
    assert!(!splits.is_empty());
    for (tick, gamma) in splits {
        let total: f64 = gamma.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "tick {tick}: γ sums to {total}");
        assert!(gamma.iter().all(|&g| g >= -1e-12));
    }
}

#[test]
fn conservation_arrivals_equal_completions_plus_queue() {
    let scenario = small_cluster();
    let mut policy = HierarchicalPolicy::build(&scenario);
    let trace = Trace::new(30.0, vec![120.0 * 30.0; 40]).unwrap();
    let store = VirtualStore::paper_default(23);
    let log = Experiment::paper_default(23)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let s = log.summary();
    let final_queue: u64 = log.ticks.last().unwrap().queue_total as u64;
    assert_eq!(
        s.total_arrivals,
        s.total_completions + final_queue + s.total_dropped,
        "requests must be conserved"
    );
}
