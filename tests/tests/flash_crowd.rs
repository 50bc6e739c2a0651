//! Flash-crowd stress: the workload triples within six minutes — the
//! "changes quite significantly and quickly" regime that motivates
//! proactive control. The controller must recruit machines, absorb the
//! spike without losing requests, and settle back down afterwards.

use llc_cluster::{single_module, Experiment, HierarchicalPolicy};
use llc_workload::{FlashCrowd, Trace, VirtualStore};

#[test]
fn flash_crowd_is_absorbed_without_drops() {
    let scenario = single_module(4).with_coarse_learning();
    let mut policy = HierarchicalPolicy::build(&scenario);

    // Base: steady 40 req/s. Flash: ×3 at bucket 30, 3-bucket rise,
    // decaying over ~10 buckets.
    let base = Trace::new(120.0, vec![40.0 * 120.0; 80]).unwrap();
    let crowd = FlashCrowd {
        start: 30,
        magnitude: 3.0,
        rise: 3,
        decay: 10.0,
    };
    let trace = crowd.apply(&base);
    let store = VirtualStore::paper_default(55);
    let log = Experiment::paper_default(55)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let s = log.summary();

    assert_eq!(s.total_dropped, 0, "the spike must not shed requests");
    assert!(
        s.total_completions as f64 > 0.98 * s.total_arrivals as f64,
        "completed {} of {}",
        s.total_completions,
        s.total_arrivals
    );

    // The controller must have recruited during the spike...
    let active = log.machines_on(scenario.l0.ticks_per(scenario.l1.period));
    let before = active
        .iter()
        .filter(|(t, _)| (60..120).contains(t)) // pre-spike steady state
        .map(|(_, a)| *a)
        .max()
        .unwrap();
    let during = active
        .iter()
        .filter(|(t, _)| (120..200).contains(t))
        .map(|(_, a)| *a)
        .max()
        .unwrap();
    assert!(
        during > before,
        "spike must recruit machines: before {before}, during {during}"
    );

    // ... and released capacity once the crowd decayed.
    let after = active
        .iter()
        .filter(|(t, _)| *t >= 280)
        .map(|(_, a)| *a)
        .min()
        .unwrap();
    assert!(
        after < during,
        "machines must be released after the spike: after {after}, during {during}"
    );

    // Tail: responses back at target.
    let tail: Vec<f64> = log
        .ticks
        .iter()
        .filter(|t| t.tick >= 280)
        .filter_map(|t| t.mean_response)
        .collect();
    let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    assert!(tail_mean < 4.0, "post-spike mean response {tail_mean:.2}");
}
