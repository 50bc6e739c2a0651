//! Drift integration: when delivered capacity degrades mid-run, an
//! online-updated abstraction map tracks the plant better than the
//! offline-only one, through the full L1 record/learn wiring.

use llc_cluster::{
    AbstractionMap, FrequencyProfile, GEntry, L0Config, L0Controller, L1Config, L1Controller,
    LearnSpec, MemberSpec,
};
use llc_core::OnlineConfig;
use llc_workload::{drift_scenarios, DriftScenario};

fn member() -> MemberSpec {
    MemberSpec::paper_default(FrequencyProfile::TallEight)
}

fn learn_map(spec: &MemberSpec) -> AbstractionMap {
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    AbstractionMap::learn(
        &L0Config::paper_default(),
        4,
        &spec.phis,
        c_range,
        lambda_max,
        q_max,
        LearnSpec::coarse(),
    )
}

/// Prequential tracking error of offline-only vs online-updated maps
/// over one drift scenario (every bucket = one L1 period; truth from the
/// analytic L0 model at the drifted effective service time).
fn tracking_errors(scenario: &DriftScenario, spec: &MemberSpec) -> (f64, f64) {
    let l0 = L0Config::paper_default();
    let offline = learn_map(spec);
    let mut online = offline.clone();
    let steps = offline.steps_per_period();
    let c = spec.c_prior;
    let mut q = 0.0f64;
    let (mut off_err, mut on_err) = (0.0, 0.0);
    for k in 0..scenario.trace.len() {
        let lambda = scenario.trace.rate(k);
        let scale = scenario.scale_at(k);
        let (cost, power, final_q) =
            L0Controller::simulate_model(&l0, &spec.phis, q, lambda, c / scale, steps);
        let truth = GEntry {
            cost,
            power,
            final_q,
        };
        off_err += (offline.query(lambda, c, q).cost - truth.cost).abs();
        on_err += (online.query(lambda, c, q).cost - truth.cost).abs();
        online.update_online(lambda, c, q, truth, &OnlineConfig);
        q = truth.final_q;
    }
    let n = scenario.trace.len() as f64;
    (off_err / n, on_err / n)
}

#[test]
fn online_tracking_beats_offline_when_capacity_degrades_midrun() {
    let spec = member();
    let peak_rate = 0.45 / spec.c_prior;
    let scenarios = drift_scenarios(42, 120, 120.0, peak_rate);
    // The headline case: post-failure capacity step at mid-run. The
    // gradual ramp must hold too (two scenarios, per the acceptance bar).
    for name in ["post-failure-capacity", "gradual-degradation"] {
        let scenario = scenarios
            .iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let (offline_mae, online_mae) = tracking_errors(scenario, &spec);
        assert!(
            online_mae < offline_mae,
            "{name}: online MAE {online_mae:.4} must beat \
             offline MAE {offline_mae:.4}"
        );
    }
}

#[test]
fn l1_controller_wiring_adapts_its_maps_under_drift() {
    let spec = member();
    let l0 = L0Config::paper_default();
    let offline = learn_map(&spec);
    let mut l1 = L1Controller::new(
        L1Config::paper_default(),
        vec![spec.clone()],
        vec![offline.clone()],
    );
    l1.enable_online();
    let steps = offline.steps_per_period();
    let c = spec.c_prior;
    let lambda = 0.3 / c; // steady 30% of nominal capacity
    let scale = 0.65; // machine degraded post-failure
    let mut q = 0.0f64;
    for _ in 0..30 {
        l1.observe((lambda * 120.0) as u64, &[Some(c)]);
        let d = l1.decide(&[q.round() as usize], &[true]);
        let routed = d.gamma[0] * lambda;
        let (cost, power, final_q) =
            L0Controller::simulate_model(&l0, &spec.phis, q, routed, c / scale, steps);
        let realized = GEntry {
            cost,
            power,
            final_q,
        };
        assert_eq!(l1.absorb_outcomes(&[(0, routed, q, realized)]), 1);
        q = final_q;
    }
    assert_eq!(l1.online_updates(), 30);
    // After the adaptation loop, the *controller's own map* must predict
    // the degraded plant better than the untouched offline map does, at
    // the standing operating point the loop kept visiting.
    let (true_cost, _, _) =
        L0Controller::simulate_model(&l0, &spec.phis, q, lambda, c / scale, steps);
    let offline_err = (offline.query(lambda, c, q).cost - true_cost).abs();
    let adapted_err = (l1.map(0).query(lambda, c, q).cost - true_cost).abs();
    assert!(
        adapted_err < offline_err,
        "controller's adapted map (err {adapted_err:.4}) must beat the \
         offline map (err {offline_err:.4})"
    );
}
