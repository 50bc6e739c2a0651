//! `HierarchicalPolicy::build` learns one abstraction map per *kind* of
//! machine and shares it. Two things must hold for that to change no
//! directive: the shared map is bit-for-bit the map a member would have
//! learned alone, shared with exactly the members of its kind; and a
//! member that learns online writes to its own copy, leaving the members
//! it shared with where they were — and members that never write still
//! share.

use llc_approx::GridSampler;
use llc_cluster::{
    cluster_of, paper_cluster_16, single_module, AbstractionMap, GEntry, HierarchicalPolicy,
    L0Config, L0Controller, L1Controller, LearnSpec, MemberSpec,
};
use std::sync::Arc;

/// Every point of `spec`'s learning grid, plus a handful of queries past
/// the trained arrival-rate and queue ceilings (answered by replaying the
/// analytic L0 model rather than by the table).
fn probes(spec: &MemberSpec, learn: LearnSpec) -> Vec<Vec<f64>> {
    let ((c_lo, c_hi), lambda_max, q_max) = spec.learn_envelope();
    let mut points = GridSampler::new(vec![
        (0.0, lambda_max, learn.lambda_steps),
        (c_lo, c_hi, learn.c_steps),
        (0.0, q_max, learn.q_steps),
    ])
    .points();
    points.extend([
        vec![1.5 * lambda_max, spec.c_prior, 0.0],
        vec![0.5 * lambda_max, spec.c_prior, q_max + 50.0],
        vec![2.2 * lambda_max, 1.3 * spec.c_prior, 1.5 * q_max],
        vec![1.01 * lambda_max, c_lo, q_max],
        vec![0.0, c_hi, 3.0 * q_max],
    ]);
    points
}

/// The map `spec` learns alone, over its standard envelope.
fn learn_solo(l0: &L0Config, spec: &MemberSpec, learn: LearnSpec) -> AbstractionMap {
    let (c_range, lambda_max, q_max) = spec.learn_envelope();
    AbstractionMap::learn(l0, &spec.phis, c_range, lambda_max, q_max, learn)
}

fn bits(e: GEntry) -> [u64; 3] {
    [e.cost.to_bits(), e.power.to_bits(), e.final_q.to_bits()]
}

fn assert_same_answers(a: &AbstractionMap, b: &AbstractionMap, probes: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: stored cell count");
    for p in probes {
        assert_eq!(
            bits(a.query(p[0], p[1], p[2])),
            bits(b.query(p[0], p[1], p[2])),
            "{what}: query {p:?}"
        );
    }
}

fn spec_bits(spec: &MemberSpec) -> Vec<u64> {
    spec.phis
        .iter()
        .chain([&spec.speed, &spec.c_prior])
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn built_maps_equal_a_solo_learn_and_are_shared_exactly_within_a_kind() {
    let mut scenario = paper_cluster_16().with_coarse_learning();
    scenario.modules = cluster_of(10);
    let policy = HierarchicalPolicy::build(&scenario);

    // (module, member, spec, installed map), in cluster order.
    let specs = scenario.member_specs();
    let installed: Vec<(usize, usize, &MemberSpec, &AbstractionMap)> = specs
        .iter()
        .enumerate()
        .flat_map(|(m, module)| {
            let l1 = policy.l1(m);
            module
                .iter()
                .enumerate()
                .map(move |(j, spec)| (m, j, spec, l1.map(j)))
        })
        .collect();
    assert_eq!(installed.len(), 40);

    for &(m, j, spec, map) in &installed {
        let solo = learn_solo(&scenario.l0, spec, scenario.learn);
        assert_same_answers(
            map,
            &solo,
            &probes(spec, scenario.learn),
            &format!("module {m} member {j}"),
        );
    }

    for &(ma, ja, spec_a, map_a) in &installed {
        for &(mb, jb, spec_b, map_b) in &installed {
            assert_eq!(
                std::ptr::eq(map_a, map_b),
                spec_bits(spec_a) == spec_bits(spec_b),
                "({ma}, {ja}) and ({mb}, {jb}) share a map iff their specs \
                 are bit-equal"
            );
        }
    }
    // `cluster_of`: module 0 is [MobileSix, WideEight, BusSeven,
    // TallEight], module 1 is [TallEight, TallEight, MobileSix,
    // WideEight].
    let map = |m: usize, j: usize| policy.l1(m).map(j);
    assert!(
        std::ptr::eq(map(0, 0), map(1, 2)),
        "one profile in two modules"
    );
    assert!(
        std::ptr::eq(map(1, 0), map(1, 1)),
        "one profile twice in a module"
    );
    assert!(
        !std::ptr::eq(map(0, 0), map(0, 1)),
        "MobileSix vs WideEight"
    );
    let mut distinct: Vec<*const AbstractionMap> = installed
        .iter()
        .map(|&(_, _, _, map)| map as *const _)
        .collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 4, "one map per profile");
}

/// The realized outcome the analytic model gives a machine that delivers
/// only `capacity` of its nominal speed.
fn degraded_outcome(
    scenario: &llc_cluster::ScenarioConfig,
    spec: &MemberSpec,
    lambda: f64,
    q0: f64,
    capacity: f64,
) -> GEntry {
    let (cost, power, final_q) = L0Controller::simulate_model(
        &scenario.l0,
        &spec.phis,
        q0,
        lambda,
        spec.c_prior / capacity,
        4,
    );
    GEntry {
        cost,
        power,
        final_q,
    }
}

#[test]
fn an_online_write_copies_the_shared_map_and_leaves_its_kin_untouched() {
    // Members 3 and 4 are both TallEight, 1 and 5 both WideEight.
    let scenario = single_module(6).with_coarse_learning();
    let specs = scenario.member_specs().remove(0);
    assert_eq!(spec_bits(&specs[3]), spec_bits(&specs[4]));
    assert_eq!(spec_bits(&specs[1]), spec_bits(&specs[5]));
    let learn = |j: usize| Arc::new(learn_solo(&scenario.l0, &specs[j], scenario.learn));
    let separate_maps: Vec<_> = (0..6).map(learn).collect();
    let kinds: Vec<_> = (0..4).map(learn).collect();
    let shared_maps: Vec<_> = [0, 1, 2, 3, 3, 1]
        .iter()
        .map(|&k| Arc::clone(&kinds[k]))
        .collect();
    drop(kinds);
    let mut shared = L1Controller::new_shared(scenario.l1, specs.clone(), shared_maps);
    let mut separate = L1Controller::new_shared(scenario.l1, specs.clone(), separate_maps);
    shared.enable_online();
    separate.enable_online();
    assert!(std::ptr::eq(shared.map(3), shared.map(4)));
    assert!(std::ptr::eq(shared.map(1), shared.map(5)));

    let member_probes: Vec<_> = specs.iter().map(|s| probes(s, scenario.learn)).collect();
    let assert_arms_agree = |shared: &L1Controller, separate: &L1Controller, when: &str| {
        for (j, member_probes) in member_probes.iter().enumerate() {
            assert_same_answers(
                shared.map(j),
                separate.map(j),
                member_probes,
                &format!("{when}, member {j}"),
            );
        }
    };

    let demands: Vec<Option<f64>> = specs.iter().map(|s| Some(s.c_prior)).collect();
    let active = [true; 6];
    let mut queues = [0usize; 6];
    // Member 3 runs at 60 % capacity throughout; from period 4 on its
    // kin and the WideEight pair report too.
    for period in 0..20 {
        let arrivals = 120 * (40 + 5 * (period % 4) as u64);
        let lambda_3 = 0.55 / specs[3].c_prior;
        let mut outcomes = vec![(
            3,
            lambda_3,
            queues[3] as f64,
            degraded_outcome(&scenario, &specs[3], lambda_3, queues[3] as f64, 0.6),
        )];
        if period >= 4 {
            for (j, capacity) in [(1, 0.8), (4, 1.0), (5, 0.5)] {
                let lambda = 0.4 / specs[j].c_prior;
                let q0 = queues[j] as f64;
                outcomes.push((
                    j,
                    lambda,
                    q0,
                    degraded_outcome(&scenario, &specs[j], lambda, q0, capacity),
                ));
            }
        }
        for l1 in [&mut shared, &mut separate] {
            l1.observe(arrivals, &demands);
        }
        assert_eq!(
            shared.absorb_outcomes(&outcomes),
            separate.absorb_outcomes(&outcomes),
            "period {period}: outcomes blended"
        );
        let (a, b) = (
            shared.decide(&queues, &active),
            separate.decide(&queues, &active),
        );
        assert_eq!(a.alpha, b.alpha, "period {period}: α");
        assert_eq!(
            a.gamma.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            b.gamma.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            "period {period}: γ"
        );
        assert_eq!(
            a.expected_cost.to_bits(),
            b.expected_cost.to_bits(),
            "period {period}: expected cost"
        );
        assert_arms_agree(&shared, &separate, &format!("after period {period}"));

        if period == 0 {
            // The first write: member 3 now owns a copy, member 4
            // kept the allocation and none of its cells moved.
            assert_eq!(shared.online_updates(), 1);
            assert!(!std::ptr::eq(shared.map(3), shared.map(4)));
            let q0 = queues[3] as f64;
            let c = specs[3].c_prior;
            assert!(shared.map(3).measured_at(lambda_3, c, q0));
            assert!(!shared.map(4).measured_at(lambda_3, c, q0));
            assert_ne!(
                bits(shared.map(3).query(lambda_3, c, q0)),
                bits(shared.map(4).query(lambda_3, c, q0)),
                "the write landed in member 3's map only"
            );
            let pristine = learn(4);
            assert_same_answers(
                shared.map(4),
                &pristine,
                &member_probes[4],
                "member 4 after member 3's first write",
            );
            assert!(
                std::ptr::eq(shared.map(1), shared.map(5)),
                "unwritten kin still share"
            );
        }
        // Backlogs for the next period's outcome keys.
        for (j, q) in queues.iter_mut().enumerate() {
            *q = (period + j) % 5;
        }
    }
    assert!(shared.online_updates() > 20);
    assert_eq!(shared.online_updates(), separate.online_updates());
    assert!(!std::ptr::eq(shared.map(1), shared.map(5)));
}

#[test]
fn kin_that_never_write_keep_sharing_while_another_member_learns() {
    // Members 1 and 5 are both WideEight and never report; member 3
    // reports every period, so every pass writes.
    let scenario = single_module(6).with_coarse_learning();
    let specs = scenario.member_specs().remove(0);
    assert_eq!(spec_bits(&specs[1]), spec_bits(&specs[5]));
    let kinds: Vec<_> = (0..4)
        .map(|j| Arc::new(learn_solo(&scenario.l0, &specs[j], scenario.learn)))
        .collect();
    let maps = [0, 1, 2, 3, 3, 1]
        .iter()
        .map(|&k| Arc::clone(&kinds[k]))
        .collect();
    drop(kinds);
    let mut l1 = L1Controller::new_shared(scenario.l1, specs.clone(), maps);
    l1.enable_online();
    let lambda = 0.55 / specs[3].c_prior;
    // A pass must touch no map but the ones it writes, however many
    // passes run.
    for period in 0..40 {
        let q0 = (period % 5) as f64;
        let outcome = degraded_outcome(&scenario, &specs[3], lambda, q0, 0.6);
        assert_eq!(
            l1.absorb_outcomes(&[(3, lambda, q0, outcome)]),
            1,
            "period {period}: member 3's outcome blended"
        );
        assert!(
            std::ptr::eq(l1.map(1), l1.map(5)),
            "period {period}: the silent WideEight pair still shares"
        );
    }
    assert!(
        !std::ptr::eq(l1.map(3), l1.map(4)),
        "the writer owns its copy"
    );
}
