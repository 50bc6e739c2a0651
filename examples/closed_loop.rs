//! The closed loop end to end: the full event-driven hierarchy against
//! the simulated plant losing 35% of its capacity mid-run, with zero
//! harness-side learning code — `PolicyBuilder::closed_loop` makes the policy
//! derive realized per-member outcomes from its own telemetry, absorb
//! them into its abstraction maps, and switch its learning rate when the
//! drift detector fires.
//!
//! Run with: `cargo run --release -p llc-examples --example closed_loop`

use llc_cluster::{single_module, Experiment, PolicyBuilder};
use llc_core::OnlineConfig;
use llc_workload::{CapacityProfile, DiurnalShape, SyntheticBuilder, VirtualStore};

fn main() {
    let scenario = single_module(2).with_coarse_learning();
    let capacity: f64 = scenario.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum();
    // Steady traffic at 55% of nominal capacity, 80 L1 periods.
    let buckets = 80;
    let trace = SyntheticBuilder::new(DiurnalShape::new(0.55 * capacity * 120.0), buckets, 120.0)
        .build(0xC1);
    let store = VirtualStore::paper_default(5);
    let drift = CapacityProfile::Step {
        at: 0.4,
        before: 1.0,
        after: 0.65,
    };

    let mut arms = Vec::new();
    for closed in [false, true] {
        let builder = PolicyBuilder::new(scenario.clone());
        let mut policy = if closed {
            builder.closed_loop(OnlineConfig::default())
        } else {
            builder.outcome_tracking()
        }
        .build();
        let exp = Experiment {
            drift: Some(drift),
            ..Experiment::paper_default(9)
        };
        let log = exp
            .run(scenario.to_sim_config(), &mut policy, &trace, &store)
            .expect("well-formed scenario");
        let s = log.summary();
        println!(
            "{:<12}  tracking MAE {:>8.3} over {:>3} outcomes | mean response {:.3} s, \
             violations {:.1}%, energy {:.0}, {} online updates, {} drift detections{}",
            if closed {
                "closed-loop"
            } else {
                "offline-only"
            },
            policy.tracking_error().unwrap_or(f64::NAN),
            policy.tracking_samples(),
            s.mean_response,
            100.0 * s.violation_fraction,
            s.total_energy,
            policy.online_updates(),
            policy.l1(0).drift_detections(),
            if policy.retrain_recommended() {
                ", retrain recommended"
            } else {
                ""
            },
        );
        arms.push(policy.tracking_error().unwrap_or(f64::NAN));
    }
    println!(
        "\nclosed loop tracks the degraded plant {:.1}x more accurately — with no \
         learner calls anywhere in this file.",
        arms[0] / arms[1].max(1e-12),
    );
}
