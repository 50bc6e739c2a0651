use crate::DenseGrid;

/// A rectangular grid sampler over a continuous input domain: each
/// dimension is `(lo, hi, steps)` and the full cartesian product is
/// enumerated — the "quantized approximation of the domain of ω" the
/// paper trains its abstraction map over.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSampler {
    dims: Vec<(f64, f64, usize)>,
}

impl GridSampler {
    /// A sampler over the given `(lo, hi, steps)` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a dimension has `steps == 0` or `lo > hi`.
    pub fn new(dims: Vec<(f64, f64, usize)>) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        for &(lo, hi, steps) in &dims {
            assert!(steps >= 1, "each dimension needs at least one step");
            assert!(lo <= hi, "dimension bounds inverted");
        }
        GridSampler { dims }
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of grid points.
    pub fn count(&self) -> usize {
        self.dims.iter().map(|&(_, _, s)| s).product()
    }

    /// The `(lo, hi, steps)` description of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn dim(&self, d: usize) -> (f64, f64, usize) {
        self.dims[d]
    }

    /// Value of dimension `d` at step `i` (inclusive endpoints; a single
    /// step yields the midpoint).
    pub fn value(&self, d: usize, i: usize) -> f64 {
        let (lo, hi, steps) = self.dims[d];
        if steps == 1 {
            0.5 * (lo + hi)
        } else {
            lo + (hi - lo) * i as f64 / (steps - 1) as f64
        }
    }

    /// The grid pitch of dimension `d` — and therefore the *only* correct
    /// quantization cell width for a table trained over this sampler.
    ///
    /// A cell width differing from the point spacing leaves hole cells
    /// between trained points (queries then fall through to distant
    /// nearest-neighbors); deriving the width here, next to the sampler,
    /// keeps the two from ever desynchronizing. Degenerate dimensions
    /// (one step, or zero width) get a unit-width cell around their single
    /// value.
    pub fn spacing(&self, d: usize) -> f64 {
        let (lo, hi, steps) = self.dims[d];
        if steps <= 1 || hi <= lo {
            (hi - lo).max(1.0)
        } else {
            (hi - lo) / (steps - 1) as f64
        }
    }

    /// Per-dimension quantization cell widths matching the grid pitch.
    pub fn cell_steps(&self) -> Vec<f64> {
        (0..self.dims.len()).map(|d| self.spacing(d)).collect()
    }

    /// The grid point at flat index `idx` (dimension 0 varies fastest,
    /// matching the enumeration order of [`GridSampler::points`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.count()`.
    pub fn point_at(&self, mut idx: usize) -> Vec<f64> {
        assert!(idx < self.count(), "grid index out of range");
        (0..self.dims.len())
            .map(|d| {
                let steps = self.dims[d].2;
                let i = idx % steps;
                idx /= steps;
                self.value(d, i)
            })
            .collect()
    }

    /// Enumerate all grid points.
    pub fn points(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.count());
        let mut idx = vec![0usize; self.dims.len()];
        loop {
            out.push(
                idx.iter()
                    .enumerate()
                    .map(|(d, &i)| self.value(d, i))
                    .collect(),
            );
            // Odometer increment.
            let mut d = 0;
            loop {
                idx[d] += 1;
                if idx[d] < self.dims[d].2 {
                    break;
                }
                idx[d] = 0;
                d += 1;
                if d == self.dims.len() {
                    return out;
                }
            }
        }
    }
}

/// Train a [`DenseGrid`] by evaluating `f` at every grid point, in
/// parallel. The cell widths are derived from the sampler itself
/// ([`GridSampler::cell_steps`]), so grid pitch and quantization cannot
/// desynchronize.
pub fn train_dense<V: Send>(sampler: &GridSampler, f: impl Fn(&[f64]) -> V + Sync) -> DenseGrid<V> {
    DenseGrid::from_fn(sampler, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::train_table;

    #[test]
    fn grid_count_and_bounds() {
        let g = GridSampler::new(vec![(0.0, 1.0, 3), (10.0, 20.0, 2)]);
        assert_eq!(g.count(), 6);
        let pts = g.points();
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&vec![0.0, 10.0]));
        assert!(pts.contains(&vec![1.0, 20.0]));
        assert!(pts.contains(&vec![0.5, 10.0]));
    }

    #[test]
    fn single_step_dimension_uses_midpoint() {
        let g = GridSampler::new(vec![(2.0, 4.0, 1)]);
        assert_eq!(g.points(), vec![vec![3.0]]);
    }

    #[test]
    fn trained_table_answers_on_and_off_grid() {
        let g = GridSampler::new(vec![(0.0, 10.0, 11)]);
        let table = train_table(&g, &[1.0], |p| p[0] * 2.0);
        // On-grid exact.
        assert_eq!(table.get(&[4.0]), Some(&8.0));
        // Off-grid clamps/nearest.
        assert_eq!(table.get(&[100.0]), Some(&20.0));
        assert_eq!(table.len(), 11);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_bounds_panic() {
        let _ = GridSampler::new(vec![(1.0, 0.0, 5)]);
    }
}
