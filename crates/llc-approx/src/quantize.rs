/// A uniform scalar quantizer with a fixed step.
///
/// The hierarchical controllers quantize continuous quantities — load
/// fractions γ at 0.05/0.1, arrival rates and queue lengths into table
/// cells — so that finite search and hash-table lookup become possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Quantizer {
    step: f64,
}

impl Quantizer {
    /// A quantizer with the given step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive and finite.
    pub(crate) fn new(step: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "quantizer step must be positive and finite, got {step}"
        );
        Quantizer { step }
    }

    /// Index of the cell containing `v` (floor semantics; negative values
    /// land in negative cells).
    pub(crate) fn cell(&self, v: f64) -> i64 {
        (v / self.step).floor() as i64
    }

    /// Center value of cell `c`.
    pub(crate) fn center(&self, c: i64) -> f64 {
        (c as f64 + 0.5) * self.step
    }

    /// Snap `v` to the nearest multiple of the step.
    #[cfg(test)]
    pub(crate) fn snap(&self, v: f64) -> f64 {
        (v / self.step).round() * self.step
    }

    /// All multiples of the step within `[lo, hi]`, inclusive on both ends
    /// (after snapping the bounds outward by half a step of tolerance).
    #[cfg(test)]
    pub(crate) fn grid(&self, lo: f64, hi: f64) -> Vec<f64> {
        assert!(lo <= hi, "grid bounds inverted");
        let start = (lo / self.step).ceil() as i64;
        let end = (hi / self.step + 1e-9).floor() as i64;
        (start..=end).map(|k| k as f64 * self.step).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cell_and_center() {
        let q = Quantizer::new(0.05);
        assert_eq!(q.cell(0.0), 0);
        assert_eq!(q.cell(0.049), 0);
        assert_eq!(q.cell(0.05), 1);
        assert_eq!(q.cell(-0.01), -1);
        assert!((q.center(0) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn snap_rounds_to_nearest() {
        let q = Quantizer::new(0.1);
        assert!((q.snap(0.44) - 0.4).abs() < 1e-12);
        assert!((q.snap(0.45) - 0.5).abs() < 1e-12);
        assert!((q.snap(-0.26) + 0.3).abs() < 1e-12);
    }

    #[test]
    fn grid_enumerates_multiples() {
        let q = Quantizer::new(0.05);
        let g = q.grid(0.0, 0.2);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.0).abs() < 1e-12);
        assert!((g[4] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn grid_with_offset_bounds() {
        let q = Quantizer::new(1.0);
        assert_eq!(q.grid(0.5, 3.5), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = Quantizer::new(0.0);
    }

    proptest! {
        #[test]
        fn snap_is_idempotent(v in -1e4..1e4f64, step in 0.01..10.0f64) {
            let q = Quantizer::new(step);
            let s = q.snap(v);
            prop_assert!((q.snap(s) - s).abs() < 1e-9);
        }

        #[test]
        fn cell_contains_value(v in -1e4..1e4f64, step in 0.01..10.0f64) {
            let q = Quantizer::new(step);
            let c = q.cell(v);
            let lo = c as f64 * step;
            prop_assert!(v >= lo - 1e-9 && v < lo + step + 1e-9);
        }
    }
}
