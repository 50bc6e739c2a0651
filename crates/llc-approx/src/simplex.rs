/// The quantized probability simplex `{γ : Σγ_j = 1, γ_j ≥ 0, γ_j ∈ qZ}`.
///
/// L1 quantizes per-computer fractions at `q = 0.05`, L2 per-module
/// fractions at `q = 0.1`. The grid supports full enumeration (used by L2
/// over 4 modules: C(13,3) = 286 points at q = 0.1) and single-quantum
/// transfer neighborhoods (used by the bounded searches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexGrid {
    dims: usize,
    levels: usize,
}

impl SimplexGrid {
    /// The simplex over `dims` components with quantum `1/levels`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `levels == 0`.
    pub fn new(dims: usize, levels: usize) -> Self {
        assert!(dims > 0, "simplex needs at least one dimension");
        assert!(levels > 0, "quantum must be positive (levels >= 1)");
        SimplexGrid { dims, levels }
    }

    /// The simplex with quantum `q` (must divide 1 within tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `q` does not evenly divide 1.
    pub fn with_quantum(dims: usize, q: f64) -> Self {
        let levels = (1.0 / q).round();
        assert!(
            ((1.0 / q) - levels).abs() < 1e-9,
            "quantum {q} must divide 1 evenly"
        );
        SimplexGrid::new(dims, levels as usize)
    }

    /// The quantum `1/levels`.
    pub fn quantum(&self) -> f64 {
        1.0 / self.levels as f64
    }

    /// Number of grid points: `C(levels + dims - 1, dims - 1)`, saturating
    /// at `usize::MAX` — a caller deciding whether to
    /// [`enumerate`](SimplexGrid::enumerate) needs "too many", not a
    /// wrapped count.
    pub fn count(&self) -> usize {
        let n = self.levels + self.dims - 1;
        let k = self.dims - 1;
        // Each partial product is itself a binomial, so the division is
        // exact.
        let mut acc: u128 = 1;
        for i in 0..k {
            match acc.checked_mul((n - i) as u128) {
                Some(product) => acc = product / (i + 1) as u128,
                None => return usize::MAX,
            }
        }
        usize::try_from(acc).unwrap_or(usize::MAX)
    }

    /// Enumerate every grid point as a fraction vector.
    pub fn enumerate(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.count());
        let mut current = vec![0usize; self.dims];
        self.enumerate_rec(0, self.levels, &mut current, &mut out);
        out
    }

    fn enumerate_rec(
        &self,
        dim: usize,
        remaining: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<f64>>,
    ) {
        if dim == self.dims - 1 {
            current[dim] = remaining;
            let q = self.quantum();
            out.push(current.iter().map(|&u| u as f64 * q).collect());
            return;
        }
        for units in 0..=remaining {
            current[dim] = units;
            self.enumerate_rec(dim + 1, remaining - units, current, out);
        }
    }

    /// Snap an arbitrary non-negative vector onto the grid: proportional
    /// scaling to sum 1, floor to quanta, then distribute the leftover
    /// quanta to the components with the largest remainders (largest-
    /// remainder method).
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `dims` or all entries are
    /// zero/negative.
    pub fn snap(&self, v: &[f64]) -> Vec<f64> {
        let mut units = Vec::new();
        let mut rema = Vec::new();
        self.snap_units_into(v, &mut units, &mut rema);
        let q = self.quantum();
        units.into_iter().map(|u| u as f64 * q).collect()
    }

    /// Snap `v` onto the grid in integer-unit form, writing the chosen
    /// units into `out` (`rema` is remainder scratch, rewritten in
    /// place) — the allocation-free twin of [`SimplexGrid::snap`],
    /// selecting exactly the same grid point: `snap` yields
    /// `out[i] · quantum` component for component.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `dims` or all entries
    /// are zero/negative.
    pub fn snap_units_into(&self, v: &[f64], out: &mut Vec<i64>, rema: &mut Vec<(usize, f64)>) {
        assert_eq!(v.len(), self.dims, "dimension mismatch");
        let total: f64 = v.iter().sum();
        assert!(total > 0.0, "cannot snap a non-positive vector");
        out.clear();
        rema.clear();
        let mut assigned = 0usize;
        for (i, x) in v.iter().enumerate() {
            let scaled = (x.max(0.0) / total) * self.levels as f64;
            let floor = scaled.floor();
            out.push(floor as i64);
            assigned += floor as usize;
            rema.push((i, scaled - floor));
        }
        rema.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, _) in rema.iter().take(self.levels - assigned) {
            out[*i] += 1;
        }
    }

    /// All grid points one quantum-transfer away from `point`: move one
    /// quantum from a positive component to a different component. The
    /// neighborhood size is at most `dims·(dims−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `point` is not on the grid (wrong length or sum ≠ 1).
    pub fn neighbors(&self, point: &[f64]) -> Vec<Vec<f64>> {
        let q = self.quantum();
        let units: Vec<i64> = point.iter().map(|&x| (x / q).round() as i64).collect();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.for_each_neighbor_units(&units, &mut scratch, &mut |next| {
            out.push(next.iter().map(|&u| u as f64 * q).collect());
        });
        out
    }

    /// Visit every single-quantum-transfer neighbor of `units` (the
    /// integer form of a grid point: fraction / quantum), in exactly the
    /// order [`SimplexGrid::neighbors`] enumerates them. The visitor
    /// borrows `scratch`, which is rewritten in place between calls — the
    /// allocation-free twin for search inner loops that would otherwise
    /// pay a `Vec<Vec<f64>>` per hill-climb round.
    ///
    /// # Panics
    ///
    /// Panics if `units` is not on the grid (wrong length or sum ≠
    /// levels).
    pub fn for_each_neighbor_units(
        &self,
        units: &[i64],
        scratch: &mut Vec<i64>,
        f: &mut dyn FnMut(&[i64]),
    ) {
        assert_eq!(units.len(), self.dims, "dimension mismatch");
        assert_eq!(
            units.iter().sum::<i64>(),
            self.levels as i64,
            "point is not on the simplex grid"
        );
        scratch.clear();
        scratch.extend_from_slice(units);
        for from in 0..self.dims {
            if units[from] == 0 {
                continue;
            }
            scratch[from] -= 1;
            for to in 0..self.dims {
                if to == from {
                    continue;
                }
                scratch[to] += 1;
                f(scratch);
                scratch[to] -= 1;
            }
            scratch[from] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn count_matches_enumeration() {
        for (dims, levels) in [(2, 10), (3, 10), (4, 10), (4, 20), (2, 1)] {
            let g = SimplexGrid::new(dims, levels);
            assert_eq!(
                g.enumerate().len(),
                g.count(),
                "dims={dims} levels={levels}"
            );
        }
    }

    #[test]
    fn count_saturates_instead_of_wrapping() {
        // 32 modules at quantum 0.1: C(41, 10).
        assert_eq!(SimplexGrid::new(32, 10).count(), 1_121_099_408);
        // C(1999, 999) overflows any integer type.
        assert_eq!(SimplexGrid::new(1000, 1000).count(), usize::MAX);
    }

    #[test]
    fn l2_grid_size_matches_paper_setting() {
        // 4 modules at quantum 0.1: C(13, 3) = 286 candidate splits.
        let g = SimplexGrid::with_quantum(4, 0.1);
        assert_eq!(g.count(), 286);
    }

    #[test]
    fn every_point_sums_to_one() {
        let g = SimplexGrid::with_quantum(3, 0.05);
        for p in g.enumerate() {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{p:?}");
            assert!(p.iter().all(|&x| x >= -1e-12));
        }
    }

    fn approx_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn snap_recovers_exact_points() {
        let g = SimplexGrid::with_quantum(3, 0.1);
        let p = vec![0.3, 0.5, 0.2];
        assert!(approx_eq(&g.snap(&p), &p), "{:?}", g.snap(&p));
    }

    #[test]
    fn snap_normalizes_and_quantizes() {
        let g = SimplexGrid::with_quantum(2, 0.1);
        let snapped = g.snap(&[2.0, 1.0]);
        let s: f64 = snapped.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((snapped[0] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn neighbors_move_one_quantum() {
        let g = SimplexGrid::with_quantum(3, 0.1);
        let n = g.neighbors(&[0.5, 0.5, 0.0]);
        // Transfers: from comp 0 (to 1, to 2) and from comp 1 (to 0, to 2).
        assert_eq!(n.len(), 4);
        for p in &n {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(n.iter().any(|p| approx_eq(p, &[0.4, 0.6, 0.0])));
        assert!(n.iter().any(|p| approx_eq(p, &[0.5, 0.4, 0.1])));
    }

    #[test]
    fn corner_has_reduced_neighborhood() {
        let g = SimplexGrid::with_quantum(3, 0.1);
        let n = g.neighbors(&[1.0, 0.0, 0.0]);
        assert_eq!(n.len(), 2, "only the loaded component can give");
    }

    #[test]
    fn neighbor_visitor_matches_vec_enumeration() {
        let g = SimplexGrid::with_quantum(4, 0.05);
        let q = g.quantum();
        for point in [
            vec![0.25, 0.25, 0.25, 0.25],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.3, 0.2, 0.0],
        ] {
            let expect = g.neighbors(&point);
            let units: Vec<i64> = point.iter().map(|&x| (x / q).round() as i64).collect();
            let mut scratch = Vec::new();
            let mut got: Vec<Vec<f64>> = Vec::new();
            g.for_each_neighbor_units(&units, &mut scratch, &mut |n| {
                got.push(n.iter().map(|&u| u as f64 * q).collect());
            });
            assert_eq!(expect, got, "visitor must reproduce order for {point:?}");
            assert_eq!(scratch, units, "scratch restored between visits");
        }
    }

    #[test]
    fn snap_units_matches_snap() {
        let g = SimplexGrid::with_quantum(4, 0.05);
        let q = g.quantum();
        let mut units = Vec::new();
        let mut rema = Vec::new();
        for v in [
            vec![0.3, 0.5, 0.2, 0.1],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.013, 0.87, 0.11, 0.006],
            vec![5.0, 0.0, 0.0, 0.1],
        ] {
            let snapped = g.snap(&v);
            g.snap_units_into(&v, &mut units, &mut rema);
            let from_units: Vec<f64> = units.iter().map(|&u| u as f64 * q).collect();
            assert_eq!(snapped, from_units, "same grid point for {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not on the simplex grid")]
    fn off_grid_point_panics() {
        let g = SimplexGrid::with_quantum(2, 0.1);
        let _ = g.neighbors(&[0.55, 0.55]);
    }

    proptest! {
        #[test]
        fn snap_output_is_on_grid(
            raw in proptest::collection::vec(0.01..10.0f64, 2..6)
        ) {
            let g = SimplexGrid::with_quantum(raw.len(), 0.05);
            let snapped = g.snap(&raw);
            let s: f64 = snapped.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            for x in &snapped {
                let units = x / 0.05;
                prop_assert!((units - units.round()).abs() < 1e-6);
            }
        }

        #[test]
        fn neighbors_stay_on_grid(levels in 2usize..12, dims in 2usize..5) {
            let g = SimplexGrid::new(dims, levels);
            let points = g.enumerate();
            let p = &points[points.len() / 2];
            for n in g.neighbors(p) {
                let s: f64 = n.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
                prop_assert!(n.iter().all(|&x| x >= -1e-12));
            }
        }
    }
}
