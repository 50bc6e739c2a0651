//! Property tests for the online update path: `update` then `probe`
//! round-trips within the blend tolerance and measures the cell, and
//! repeated updates converge geometrically onto the observed target.

use llc_approx::{train_dense, DenseGrid, GridSampler};
use proptest::prelude::*;

/// A 2D grid trained from a fixed seed function.
fn trained(lo: f64, width: f64, steps: usize) -> (GridSampler, DenseGrid<f64>) {
    let sampler = GridSampler::new(vec![(lo, lo + width, steps), (0.0, 4.0, 3)]);
    let grid = train_dense(&sampler, |p| 3.0 * p[0] - p[1]);
    (sampler, grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One update moves the probed value to exactly
    /// `old + w · (target − old)`, where `w` is the weight the update
    /// reports — the rate it was given — for any in-grid point, and
    /// marks the cell measured.
    #[test]
    fn update_then_probe_roundtrips_within_blend_tolerance(
        lo in -50.0..50.0f64,
        width in 1.0..40.0f64,
        steps in 2..12usize,
        fx in 0.0..1.0f64,
        fy in 0.0..1.0f64,
        target in -1000.0..1000.0f64,
        rate in 0.05..1.0f64,
    ) {
        let (sampler, mut map) = trained(lo, width, steps);
        // An exact grid point: a trained cell.
        let (d0_lo, d0_hi, d0_steps) = sampler.dim(0);
        let i = (fx * (d0_steps - 1) as f64).round();
        let x = d0_lo + (d0_hi - d0_lo) * i / (d0_steps - 1) as f64;
        let y = (fy * 2.0).round() * 2.0;
        let point = [x, y];

        let before = *map.probe(&point);
        prop_assert!(!map.measured(&point), "a trained cell starts unmeasured");
        let w = map.update(&point, &target, rate);
        prop_assert_eq!(w, rate, "a trained cell blends at the rate given");
        let after = *map.probe(&point);
        let expect = before + w * (target - before);
        prop_assert!(
            (after - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
            "blend tolerance: after {after}, expect {expect} (w {w})"
        );
        prop_assert!(map.measured(&point));
    }

    /// `k` repeated updates with a constant target shrink the gap by at
    /// least `(1 − w_min)^k`: the geometric convergence both controllers
    /// rely on to track drift.
    #[test]
    fn repeated_updates_converge_geometrically(
        lo in -10.0..10.0f64,
        target in -500.0..500.0f64,
        rate in 0.1..0.9f64,
        reps in 5..30usize,
    ) {
        let (_, mut map) = trained(lo, 8.0, 5);
        let point = [lo + 4.0, 2.0];
        let before = *map.probe(&point);
        for _ in 0..reps {
            map.update(&point, &target, rate);
        }
        let after = *map.probe(&point);
        // Every step blends at `rate`, so the remaining gap is at most
        // (1 − rate)^reps of the original (plus float slack).
        let bound = (1.0 - rate).powi(reps as i32) * (before - target).abs() + 1e-9;
        prop_assert!(
            (after - target).abs() <= bound * (1.0 + 1e-9),
            "gap {} exceeds geometric bound {bound}",
            (after - target).abs()
        );
    }

    /// A write at a never-stored key past the trained box inserts at
    /// full weight and then answers with the measured value.
    #[test]
    fn out_of_region_policies_hold(
        lo in -10.0..10.0f64,
        offset in 5.0..50.0f64,
        target in -100.0..100.0f64,
    ) {
        let (sampler, mut map) = trained(lo, 4.0, 4);
        let (_, d0_hi, _) = sampler.dim(0);
        let outside = [d0_hi + offset, 2.0];

        prop_assert_eq!(map.update(&outside, &target, 0.25), 1.0);
        prop_assert_eq!(*map.probe(&outside), target);
        prop_assert_eq!(map.get_exact(&outside), Some(&target));
        prop_assert!(map.measured(&outside), "a grown cell is measured");
    }
}
