//! Churn tolerance end to end through the experiment driver: scheduled
//! crashes, blackouts and wedged actuators hit the plant while the
//! watchdog'd hierarchy plans around them. These runs execute with debug
//! assertions on, so they also exercise the membership invariants
//! asserted inside `HierarchicalPolicy::decide` (live γ shares sum to
//! one, no directive ever targets a dead member).

use llc_cluster::{
    single_module, Experiment, FaultToleranceConfig, HierarchicalPolicy, PolicyBuilder,
};
use llc_core::OnlineConfig;
use llc_workload::{fault_scenarios, FaultEvent, FaultKind, FaultPlan, Trace, VirtualStore};

fn capacity(scenario: &llc_cluster::ScenarioConfig) -> f64 {
    scenario.member_specs()[0]
        .iter()
        .map(|m| m.speed / m.c_prior)
        .sum()
}

fn tolerant_policy(scenario: &llc_cluster::ScenarioConfig) -> HierarchicalPolicy {
    PolicyBuilder::new(scenario.clone())
        .closed_loop(OnlineConfig::default())
        .fault_tolerance(FaultToleranceConfig::default())
        .build()
}

/// The watchdog sees a crash, excludes the member, and re-admits it
/// after the restart — and the tracking books stay finite through the
/// whole churn.
#[test]
fn crash_and_restart_death_and_rejoin() {
    let scenario = single_module(4).with_coarse_learning();
    let rate = 0.6 * capacity(&scenario);
    let trace = Trace::new(30.0, vec![rate * 30.0; 60]).unwrap();
    let store = VirtualStore::paper_default(11);
    let mut policy = tolerant_policy(&scenario);
    let experiment = Experiment {
        faults: Some(FaultPlan::new(vec![
            FaultEvent {
                tick: 24,
                computer: 2,
                kind: FaultKind::Crash { requeue: true },
            },
            FaultEvent {
                tick: 36,
                computer: 2,
                kind: FaultKind::Restart,
            },
        ])),
        ..Experiment::paper_default(11)
    };
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    assert_eq!(policy.member_deaths(), 1);
    assert_eq!(policy.member_recoveries(), 1);
    assert!(!policy.member_dead(2), "rejoined by the end of the run");
    let mae = policy.tracking_error().expect("outcomes were derived");
    assert!(mae.is_finite(), "tracking error poisoned: {mae}");
    // The rejoined member serves again: it completes work after boot.
    let served_late = log
        .ticks
        .iter()
        .skip(44)
        .any(|t| t.queues[2] > 0 || t.active_flags[2]);
    assert!(served_late, "member 2 never came back into service");
}

/// Blacking out most of the module pushes the healthy-telemetry count
/// below the quorum: the L1 must fall back to safe mode (every live
/// member on, uniform split) instead of optimizing over blank windows.
#[test]
fn quorum_loss_triggers_safe_mode_and_clears() {
    let scenario = single_module(4).with_coarse_learning();
    let rate = 0.5 * capacity(&scenario);
    let trace = Trace::new(30.0, vec![rate * 30.0; 50]).unwrap();
    let store = VirtualStore::paper_default(13);
    let mut policy = tolerant_policy(&scenario);
    // Three of four machines go dark for 8 ticks (under the watchdog's
    // 3-window death threshold they *do* get declared dead — the healthy
    // fraction of the shrinking live set collapses either way).
    let mut events = Vec::new();
    for c in 0..3 {
        events.push(FaultEvent {
            tick: 20,
            computer: c,
            kind: FaultKind::BlackoutStart,
        });
        events.push(FaultEvent {
            tick: 28,
            computer: c,
            kind: FaultKind::BlackoutEnd,
        });
    }
    let experiment = Experiment {
        faults: Some(FaultPlan::new(events)),
        ..Experiment::paper_default(13)
    };
    let log = experiment
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();
    assert!(
        policy.safe_mode_periods() >= 1,
        "quorum loss never tripped safe mode"
    );
    // Everything recovers: members rejoin and the module keeps serving.
    assert_eq!(policy.member_deaths(), policy.member_recoveries());
    let s = log.summary();
    assert!(
        s.total_completions as f64 > 0.9 * s.total_arrivals as f64,
        "completed {} of {}",
        s.total_completions,
        s.total_arrivals
    );
}

/// Every canonical fault scenario runs to completion under the tolerant
/// hierarchy with the membership debug-asserts armed, finite tracking,
/// and every death matched by a rejoin (no member is lost forever).
#[test]
fn canonical_scenarios_survive_with_invariants_armed() {
    let scenario = single_module(4).with_coarse_learning();
    let cap = capacity(&scenario);
    // Short horizon to keep the debug-profile run fast — but long enough
    // (80 ticks) that every schedule finishes in-run: the rolling
    // blackout's last machine must get its lights back before the end,
    // or it can never rejoin.
    for fs in &fault_scenarios(0x7E57, 20, 120.0, cap, 4) {
        let mut policy = tolerant_policy(&scenario);
        let experiment = Experiment {
            faults: Some(fs.plan.clone()),
            ..Experiment::paper_default(17)
        };
        let log = experiment
            .run(
                scenario.to_sim_config(),
                &mut policy,
                &fs.trace,
                &store_for(fs.name),
            )
            .unwrap();
        let mae = policy.tracking_error().unwrap_or(0.0);
        assert!(mae.is_finite(), "{}: tracking poisoned ({mae})", fs.name);
        assert_eq!(
            policy.member_deaths(),
            policy.member_recoveries(),
            "{}: a member was never re-admitted",
            fs.name
        );
        assert!(
            log.summary().total_completions > 0,
            "{}: nothing served",
            fs.name
        );
    }
}

fn store_for(name: &str) -> VirtualStore {
    // Distinct stores per scenario keep the request streams independent.
    VirtualStore::paper_default(name.len() as u64)
}

/// The fault-tolerant arm must strictly beat the fault-blind closed loop
/// on tracking MAE when a member crashes — the bench gate's core claim,
/// pinned here at test scale.
#[test]
fn tolerant_tracks_better_than_blind_through_a_crash() {
    let scenario = single_module(4).with_coarse_learning();
    let rate = 0.7 * capacity(&scenario);
    let trace = Trace::new(30.0, vec![rate * 30.0; 60]).unwrap();
    let plan = FaultPlan::new(vec![
        FaultEvent {
            tick: 24,
            computer: 1,
            kind: FaultKind::Crash { requeue: false },
        },
        FaultEvent {
            tick: 40,
            computer: 1,
            kind: FaultKind::Restart,
        },
    ]);
    let mut maes = Vec::new();
    for tolerant in [false, true] {
        let mut builder = PolicyBuilder::new(scenario.clone()).closed_loop(OnlineConfig::default());
        if tolerant {
            builder = builder.fault_tolerance(FaultToleranceConfig::default());
        }
        let mut policy = builder.build();
        let experiment = Experiment {
            faults: Some(plan.clone()),
            ..Experiment::paper_default(19)
        };
        let store = VirtualStore::paper_default(19);
        experiment
            .run(scenario.to_sim_config(), &mut policy, &trace, &store)
            .unwrap();
        maes.push(policy.tracking_error().expect("outcomes were derived"));
    }
    assert!(
        maes[1] < maes[0],
        "tolerant MAE {:.3} must beat blind MAE {:.3}",
        maes[1],
        maes[0]
    );
}
