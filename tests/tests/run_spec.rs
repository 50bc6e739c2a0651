//! Each run description against the setup it replaced: the first 48
//! ticks of every family at its preset, and of the module run under
//! every preset, pinned bit for bit — the applied directives (count and
//! FNV chain) and an FNV chain of each window's completions and mean
//! response.
//!
//! The pins were printed by the same hash over the hand-built setups
//! that `RunSpec` replaced, on the commit before it: `single_module(4)`
//! and `paper_cluster_16` on the coarse grids under the first 12 buckets
//! of `synthetic_paper_workload(2006)` / `wc98_like_fig6(2006)`;
//! `bench_closed_loop`'s module, drift scenarios and diurnal stretch at
//! the daemons' 40 buckets and seed `0xBEEF`; `bench_faults`'s module
//! and schedules at the daemons' 60 buckets and seed 5; each policy
//! built through `PolicyBuilder` as the bench arm or daemon that names
//! the preset built it.

use llc_cluster::{Family, Preset, RunSpec};
use llc_tests::Fnv;

const TICKS: u64 = 48;

/// `(directives, their FNV chain, the windows' FNV chain)` over the
/// first [`TICKS`] ticks of `spec` under `preset`.
fn pin(spec: &RunSpec, preset: Preset) -> (usize, u64, u64) {
    let log = spec.run(&mut spec.policy(preset));
    let mut directives = Fnv::default();
    let mut count = 0;
    for d in log.directives.iter().filter(|d| d.tick < TICKS) {
        directives.directive(d);
        count += 1;
    }
    let mut windows = Fnv::default();
    for t in log.ticks.iter().filter(|t| t.tick < TICKS) {
        windows.eat(t.completions);
        windows.eat(t.mean_response.map_or(u64::MAX, f64::to_bits));
    }
    (count, directives.0, windows.0)
}

/// The module and cluster runs cut to their first 48 ticks, on the
/// coarse grids.
fn short(family: Family) -> RunSpec {
    RunSpec {
        buckets: 12,
        coarse_learning: true,
        ..RunSpec::defaults(family)
    }
}

#[test]
fn the_module_run_matches_its_hand_built_setup_under_every_preset() {
    let quiet = (51, 7_216_171_984_092_612_054, 5_803_645_143_933_982_149);
    let closed = (28, 6_273_406_328_043_842_099, 14_650_832_802_553_872_917);
    let drift = (29, 11_993_163_477_626_926_823, 18_278_977_661_406_934_386);
    for (preset, want) in [
        (Preset::Paper, quiet),
        (Preset::ClosedLoop, closed),
        (Preset::DriftAware, drift),
        (Preset::SelfHealing, drift),
        (Preset::FaultTolerant, closed),
        (Preset::SelfHealingFaultTolerant, drift),
    ] {
        assert_eq!(pin(&short(Family::Module), preset), want, "{preset:?}");
    }
}

#[test]
fn the_cluster_run_matches_its_hand_built_setup() {
    let spec = short(Family::Cluster);
    assert_eq!(
        pin(&spec, spec.family.preset()),
        (119, 10_105_025_482_676_122_218, 5_317_269_249_573_194_923)
    );
}

#[test]
fn the_drift_family_matches_the_closed_loop_bench() {
    let want = [
        (27, 1_069_849_186_343_516_863, 14_923_014_627_765_718_876),
        (25, 15_969_054_610_981_711_384, 6_373_860_495_968_874_662),
        (27, 1_069_849_186_343_516_863, 18_022_185_680_504_244_940),
        (24, 2_675_250_071_787_925_640, 3_852_458_548_346_257_521),
    ];
    for (scenario, want) in want.into_iter().enumerate() {
        let spec = RunSpec::defaults(Family::ClosedLoop(scenario));
        assert_eq!(pin(&spec, spec.family.preset()), want, "{}", spec.name());
    }
}

#[test]
fn the_fault_family_matches_the_fault_bench() {
    let want = [
        (45, 11_082_409_951_572_382_713, 4_122_952_009_306_573_871),
        (49, 2_591_306_500_463_053_999, 2_195_936_497_226_237_038),
        (45, 595_613_630_674_475_757, 15_456_619_334_958_736_819),
        (49, 1_605_761_058_621_959_752, 13_109_241_320_620_469_254),
    ];
    for (scenario, want) in want.into_iter().enumerate() {
        let spec = RunSpec::defaults(Family::Faults(scenario));
        assert_eq!(pin(&spec, spec.family.preset()), want, "{}", spec.name());
    }
}
