//! Each run description pinned bit for bit as rows of the behaviour
//! matrix: every family at its preset, and the module run under every
//! preset. The module and cluster runs are cut to 12 buckets on the
//! coarse grids; the drift and fault families run at
//! `RunSpec::defaults`, the daemons' 40 and 60 buckets.

use llc_tests::matrix;

#[test]
fn the_module_run_matches_its_hand_built_setup_under_every_preset() {
    matrix::assert_matches(&[
        ("module/2006", &[]),
        ("module@ClosedLoop/2006", &[]),
        ("module@DriftAware/2006", &[]),
        ("module@SelfHealing/2006", &[]),
        ("module@FaultTolerant/2006", &[]),
        ("module@SelfHealingFaultTolerant/2006", &[]),
    ]);
}

#[test]
fn the_cluster_run_matches_its_hand_built_setup() {
    matrix::assert_matches(&[("cluster/2006", &[])]);
}

#[test]
fn the_drift_family_matches_the_closed_loop_bench() {
    let rows = (0..4).map(|i| (format!("closedloop{i}/48879"), &[][..]));
    matrix::assert_matches(&rows.collect::<Vec<_>>());
}

#[test]
fn the_fault_family_matches_the_fault_bench() {
    let rows = (0..4).map(|i| (format!("faults{i}/5"), &[][..]));
    matrix::assert_matches(&rows.collect::<Vec<_>>());
}
