//! End-to-end smoke test: the full three-level hierarchy drives a
//! single-module cluster through a load swing.

use llc_cluster::{single_module, Experiment, HierarchicalPolicy};
use llc_workload::{Trace, VirtualStore};

#[test]
fn hierarchy_single_module_smoke() {
    let scenario = single_module(4).with_coarse_learning();
    let mut policy = HierarchicalPolicy::build(&scenario);
    // 40 ticks of 30 s: 20 req/s, a 5× step up, then back down. The step
    // is deliberately brutal — it exercises recruitment under overload.
    let counts: Vec<f64> = (0..40)
        .map(|k| {
            let rate = if k < 10 {
                20.0
            } else if k < 25 {
                100.0
            } else {
                25.0
            };
            rate * 30.0
        })
        .collect();
    let trace = Trace::new(30.0, counts).unwrap();
    let store = VirtualStore::paper_default(3);
    let exp = Experiment::paper_default(17);
    let log = exp
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    let s = log.summary();

    assert_eq!(s.total_dropped, 0, "nothing should be dropped");
    assert!(
        s.total_completions > s.total_arrivals * 9 / 10,
        "{} of {} completed",
        s.total_completions,
        s.total_arrivals
    );

    // The controller must react to the step: more machines during the
    // surge than in the light-load phase.
    let active = log.machines_on(scenario.l0.ticks_per(scenario.l1.period));
    let light: usize = active
        .iter()
        .filter(|(t, _)| (4..10).contains(t))
        .map(|(_, a)| *a)
        .min()
        .unwrap();
    let surge: usize = active
        .iter()
        .filter(|(t, _)| (12..26).contains(t))
        .map(|(_, a)| *a)
        .max()
        .unwrap();
    assert!(
        surge > light,
        "surge must recruit machines: light {light}, surge {surge}"
    );

    // After the surge drains (last 10 ticks), responses are back at the
    // target.
    let late: Vec<f64> = log
        .ticks
        .iter()
        .filter(|t| t.tick >= 30)
        .filter_map(|t| t.mean_response)
        .collect();
    let late_mean = late.iter().sum::<f64>() / late.len() as f64;
    assert!(
        late_mean < 4.0,
        "steady state must satisfy r* = 4 s, got {late_mean:.2}"
    );

    // The transient is bounded: the worst window mean stays below the
    // backlog-hoarding regime we would get without boot-aware routing.
    let worst = log
        .ticks
        .iter()
        .filter_map(|t| t.mean_response)
        .fold(0.0, f64::max);
    assert!(worst < 40.0, "worst transient window {worst:.1}");
}
