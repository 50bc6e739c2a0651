use crate::{Blend, BlendConfig, GridSampler, LookupTable, Quantizer};

/// The common surface of the dense-grid and hash-table substrates, so
/// controllers can stay substrate-agnostic: robust reads plus the online
/// (incremental) update path.
///
/// `probe` answers the *robust* query (clamped into the trained region),
/// returning `None` only when nothing has been trained. `update` is the
/// §6-outlook write path: blend the cell a realized outcome landed in
/// toward that outcome, so the map self-corrects under drift without an
/// offline retraining pass. The substrates differ on never-trained keys —
/// see each implementation.
pub trait CostMap<V> {
    /// Number of key dimensions.
    fn num_dims(&self) -> usize;
    /// Number of trained cells.
    fn len(&self) -> usize;
    /// `true` if nothing has been trained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Robust lookup for the cell containing `point`, clamping
    /// out-of-region queries to the trained boundary.
    fn probe(&self, point: &[f64]) -> Option<&V>;
    /// Blend the cell containing `point` toward an observed `target`
    /// outcome, with the weight from `cfg` and the cell's accumulated
    /// confidence. Returns the weight actually applied — `0.0` when the
    /// observation was skipped (see each substrate's out-of-region
    /// policy), `1.0` when it replaced the cell outright.
    fn update(&mut self, point: &[f64], target: &V, cfg: &BlendConfig) -> f64
    where
        V: Blend;
    /// Staleness sweep: multiply every cell's online confidence count by
    /// `factor ∈ [0, 1]`, so cells that stop being visited become quick
    /// to re-adapt when traffic returns to them.
    fn decay_confidence(&mut self, factor: f64);
    /// Online observations currently credited to the cell containing
    /// `point` (0.0 for never-updated or out-of-region cells).
    fn confidence(&self, point: &[f64]) -> f64;
    /// Visit every stored cell that has absorbed at least
    /// `min_confidence` online observations (and at least one), as
    /// `(cell center, value, confidence)` — the reseed surface of the
    /// retrain hot-swap: cells the plant has actually visited carry
    /// *measured* truth worth carrying into a freshly rebuilt map, while
    /// offline-only cells are exactly what the rebuild replaces.
    /// Iteration order is deterministic (slot order on the dense grid,
    /// sorted cell keys on the hash table), so re-applying the visited
    /// cells into another map is reproducible.
    fn for_each_confident(&self, min_confidence: f64, f: &mut dyn FnMut(&[f64], &V, f64));
}

impl<V: Clone> CostMap<V> for LookupTable<V> {
    fn num_dims(&self) -> usize {
        LookupTable::num_dims(self)
    }
    fn len(&self) -> usize {
        LookupTable::len(self)
    }
    fn probe(&self, point: &[f64]) -> Option<&V> {
        self.get(point)
    }
    /// Insert-or-blend: a key whose cell already exists blends toward the
    /// target; a never-trained cell (inside a hole, or beyond the trained
    /// ranges) is *inserted* at full weight — the hash substrate grows
    /// its coverage from observed traffic, which is what makes it the
    /// natural home for online learning over sparse or ragged domains.
    fn update(&mut self, point: &[f64], target: &V, cfg: &BlendConfig) -> f64
    where
        V: Blend,
    {
        LookupTable::update(self, point, target, cfg)
    }
    fn decay_confidence(&mut self, factor: f64) {
        LookupTable::decay_confidence(self, factor);
    }
    fn confidence(&self, point: &[f64]) -> f64 {
        LookupTable::confidence(self, point)
    }
    fn for_each_confident(&self, min_confidence: f64, f: &mut dyn FnMut(&[f64], &V, f64)) {
        LookupTable::for_each_confident(self, min_confidence, f);
    }
}

/// One axis of a [`DenseGrid`]: quantization, cell-to-slot mapping and
/// row-major stride.
///
/// Grid points land on cell boundaries, so floating-point rounding can
/// make two adjacent points share a cell (a collision) or skip one (a
/// hole) — exactly the behavior of [`LookupTable`] keys over the same
/// grid. Each axis therefore carries a tiny `slot_of_cell` array over its
/// trained cell range mapping every cell (stored or hole) to a value
/// slot: collisions share a slot (the later-trained point wins, matching
/// hash-insert overwrites) and holes resolve to the slot of the cell
/// below (matching the hash table's L1-nearest-neighbor fallback with its
/// lexicographic-smallest tie-break). Probes stay O(1) and allocation
/// free.
#[derive(Debug, Clone)]
struct DenseDim {
    quant: Quantizer,
    /// First trained cell along this axis.
    cell_min: i64,
    /// Value slot for each cell in `cell_min ..= cell_max`.
    slot_of_cell: Vec<u32>,
    /// Distinct trained cells, slot-indexed (for `iter`).
    cells: Vec<i64>,
    /// Distance between consecutive slots of this axis in `values`.
    stride: usize,
}

/// The abstraction map `g` as a dense rectangular table: flat `Vec<V>`
/// storage indexed by O(1) clamp + stride arithmetic.
///
/// [`LookupTable`] pays a heap-allocated `Vec<i64>` key plus a hash per
/// probe, and falls back to an O(n) nearest-neighbor scan for misses. A
/// grid trained from a rectangular [`GridSampler`] domain needs none of
/// that: with the cell width equal to the grid pitch (see
/// [`GridSampler::cell_steps`]) the trained region is a box in cell
/// space, so a probe is per-axis clamp + slot arithmetic over flat
/// storage. Cell collisions and holes from floating-point boundary
/// rounding are folded into per-axis slot tables at training time (see
/// `DenseDim`), reproducing the hash table's overwrite and
/// nearest-neighbor behavior exactly — the substrate-equivalence test
/// holds the two substrates to identical answers on every query.
///
/// Keep [`LookupTable`] for sparse or ragged domains; use `DenseGrid`
/// whenever the domain is a full rectangular grid (the paper's case).
#[derive(Debug, Clone)]
pub struct DenseGrid<V> {
    dims: Vec<DenseDim>,
    values: Vec<V>,
    /// Online observations absorbed per value slot (0.0 = offline prior
    /// only). Shrunk by the staleness sweep so idle cells re-adapt fast.
    confidence: Vec<f64>,
}

impl<V: Send> DenseGrid<V> {
    /// Train a grid by evaluating `f` at every point of `sampler`, in
    /// parallel (deterministic: each point's value lands in its own
    /// pre-computed slot, so the result is identical to a serial build —
    /// and to a [`train_table`](crate::train_table) pass over the same
    /// sampler, including its cell collisions and holes).
    pub fn from_fn(sampler: &GridSampler, f: impl Fn(&[f64]) -> V + Sync) -> Self {
        let nd = sampler.num_dims();
        let mut dims = Vec::with_capacity(nd);
        // Per dimension: the value slot of each *grid step* (pre-dedup),
        // so the commit loop below can turn a flat grid index into a slot
        // index with pure integer arithmetic.
        let mut step_slots: Vec<Vec<usize>> = Vec::with_capacity(nd);
        let mut stride = 1usize;
        for d in 0..nd {
            let (_, _, steps) = sampler.dim(d);
            let quant = Quantizer::new(sampler.spacing(d));
            let full: Vec<i64> = (0..steps)
                .map(|i| quant.cell(sampler.value(d, i)))
                .collect();
            assert!(
                full.windows(2).all(|w| w[0] <= w[1]),
                "grid cells of dimension {d} must be non-decreasing"
            );
            let mut cells = full.clone();
            cells.dedup();
            step_slots.push(
                full.iter()
                    .map(|c| cells.partition_point(|x| x < c))
                    .collect(),
            );
            let cell_min = cells[0];
            let cell_max = *cells.last().expect("at least one cell per dimension");
            let mut slot_of_cell = vec![0u32; (cell_max - cell_min + 1) as usize];
            let mut slot = 0usize;
            for (offset, entry) in slot_of_cell.iter_mut().enumerate() {
                let cell = cell_min + offset as i64;
                if slot + 1 < cells.len() && cells[slot + 1] <= cell {
                    slot += 1;
                }
                // A hole cell (between trained cells) keeps the previous
                // slot: the nearest stored neighbor below, which is what
                // the hash table's tie-broken nearest-neighbor scan picks.
                *entry = slot as u32;
            }
            dims.push(DenseDim {
                quant,
                cell_min,
                slot_of_cell,
                cells,
                stride,
            });
            stride *= dims[d].cells.len();
        }
        let volume = stride;

        // Evaluate every grid point in parallel, then commit the results
        // in grid-enumeration order so colliding cells resolve exactly
        // like repeated hash-table inserts (the later point wins). The
        // slot index is derived from the integer grid index directly — no
        // point reconstruction in the serial tail.
        let raw = llc_par::par_map_range(sampler.count(), |i| f(&sampler.point_at(i)));
        let mut values: Vec<Option<V>> = (0..volume).map(|_| None).collect();
        for (mut grid_idx, v) in raw.into_iter().enumerate() {
            let mut idx = 0usize;
            for (d, dim) in dims.iter().enumerate() {
                let steps = sampler.dim(d).2;
                idx += step_slots[d][grid_idx % steps] * dim.stride;
                grid_idx /= steps;
            }
            values[idx] = Some(v);
        }
        DenseGrid {
            dims,
            values: values
                .into_iter()
                .map(|slot| slot.expect("full grid fills every slot"))
                .collect(),
            confidence: vec![0.0; volume],
        }
    }
}

impl<V> DenseGrid<V> {
    /// Number of key dimensions.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored cells (the full grid volume).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the grid holds no cells (cannot happen via
    /// [`DenseGrid::from_fn`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flat index of the cell containing `point`, with each coordinate
    /// clamped into the trained box. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics on key dimension mismatch.
    #[inline]
    pub fn index_of(&self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.dims.len(), "key dimension mismatch");
        let mut idx = 0usize;
        for (v, dim) in point.iter().zip(&self.dims) {
            let cell = dim.quant.cell(*v);
            let offset = (cell - dim.cell_min).clamp(0, dim.slot_of_cell.len() as i64 - 1);
            idx += dim.slot_of_cell[offset as usize] as usize * dim.stride;
        }
        idx
    }

    /// The value for `point`, clamped into the trained box: O(1), no
    /// allocation, total (a dense grid has no holes).
    #[inline]
    pub fn get_clamped(&self, point: &[f64]) -> &V {
        &self.values[self.index_of(point)]
    }

    /// `true` when every coordinate of `point` falls inside the trained
    /// box (no clamping needed).
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dims.len(), "key dimension mismatch");
        point.iter().zip(&self.dims).all(|(v, dim)| {
            let cell = dim.quant.cell(*v);
            cell >= dim.cell_min && cell - dim.cell_min < dim.slot_of_cell.len() as i64
        })
    }

    /// Iterate stored `(cell_centers, value)` pairs (mirror of
    /// [`LookupTable::iter`]).
    pub fn iter(&self) -> impl Iterator<Item = (Vec<f64>, &V)> + '_ {
        self.values.iter().enumerate().map(move |(mut idx, v)| {
            let centers = self
                .dims
                .iter()
                .map(|dim| {
                    let slot = idx % dim.cells.len();
                    idx /= dim.cells.len();
                    dim.quant.center(dim.cells[slot])
                })
                .collect();
            (centers, v)
        })
    }
}

impl<V> CostMap<V> for DenseGrid<V> {
    fn num_dims(&self) -> usize {
        DenseGrid::num_dims(self)
    }
    fn len(&self) -> usize {
        DenseGrid::len(self)
    }
    fn probe(&self, point: &[f64]) -> Option<&V> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.get_clamped(point))
        }
    }
    /// In-box blending only: an outcome observed *outside* the trained
    /// box is dropped (weight 0.0) rather than blended into the edge cell
    /// it would clamp to — edge cells answer every clamped query, so
    /// corrupting them with out-of-region outcomes would poison the whole
    /// overload tail. The grid cannot grow; out-of-region adaptation is
    /// the hash substrate's trade (see `LookupTable`).
    fn update(&mut self, point: &[f64], target: &V, cfg: &BlendConfig) -> f64
    where
        V: Blend,
    {
        if self.values.is_empty() || !self.contains(point) {
            return 0.0;
        }
        let idx = self.index_of(point);
        let w = cfg.weight(self.confidence[idx]);
        self.values[idx].blend(target, w);
        self.confidence[idx] += 1.0;
        w
    }
    fn decay_confidence(&mut self, factor: f64) {
        let factor = factor.clamp(0.0, 1.0);
        for count in &mut self.confidence {
            *count *= factor;
        }
    }
    fn confidence(&self, point: &[f64]) -> f64 {
        if self.values.is_empty() || !self.contains(point) {
            0.0
        } else {
            self.confidence[self.index_of(point)]
        }
    }
    fn for_each_confident(&self, min_confidence: f64, f: &mut dyn FnMut(&[f64], &V, f64)) {
        let mut centers = vec![0.0; self.dims.len()];
        for (slot, (v, &conf)) in self.values.iter().zip(&self.confidence).enumerate() {
            if conf <= 0.0 || conf < min_confidence {
                continue;
            }
            let mut idx = slot;
            for (d, dim) in self.dims.iter().enumerate() {
                centers[d] = dim.quant.center(dim.cells[idx % dim.cells.len()]);
                idx /= dim.cells.len();
            }
            f(&centers, v, conf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_table;

    fn grid_2d() -> (GridSampler, DenseGrid<f64>) {
        let sampler = GridSampler::new(vec![(0.0, 4.0, 5), (10.0, 30.0, 3)]);
        let grid = DenseGrid::from_fn(&sampler, |p| p[0] * 100.0 + p[1]);
        (sampler, grid)
    }

    #[test]
    fn exact_points_roundtrip() {
        let (sampler, grid) = grid_2d();
        assert_eq!(grid.len(), 15);
        assert_eq!(grid.num_dims(), 2);
        for p in sampler.points() {
            assert_eq!(*grid.get_clamped(&p), p[0] * 100.0 + p[1]);
            assert!(grid.contains(&p));
        }
    }

    #[test]
    fn out_of_grid_clamps_to_edge() {
        let (_, grid) = grid_2d();
        assert_eq!(*grid.get_clamped(&[100.0, -5.0]), 410.0);
        assert_eq!(*grid.get_clamped(&[-3.0, 99.0]), 30.0);
        assert!(!grid.contains(&[100.0, -5.0]));
    }

    #[test]
    fn matches_hash_table_on_shared_domain() {
        let sampler = GridSampler::new(vec![(0.0, 10.0, 11), (0.5, 2.5, 5)]);
        let f = |p: &[f64]| p[0] * 7.0 - p[1];
        let dense = DenseGrid::from_fn(&sampler, f);
        let hash = train_table(&sampler, &sampler.cell_steps(), f);
        for p in sampler.points() {
            assert_eq!(hash.get_exact(&p), Some(dense.get_clamped(&p)));
        }
        // Off-grid queries agree through the clamp path.
        for q in [
            [-5.0, 1.0],
            [25.0, 1.7],
            [3.3, -9.0],
            [8.1, 99.0],
            [-1.0, -1.0],
            [99.0, 99.0],
        ] {
            assert_eq!(hash.get(&q), dense.probe(&q), "query {q:?}");
        }
    }

    #[test]
    fn single_step_dimension() {
        let sampler = GridSampler::new(vec![(2.0, 4.0, 1), (0.0, 1.0, 2)]);
        let grid = DenseGrid::from_fn(&sampler, |p| p[0] + p[1]);
        assert_eq!(grid.len(), 2);
        // The lone point of dim 0 is its midpoint, 3.0.
        assert_eq!(*grid.get_clamped(&[3.0, 0.0]), 3.0);
        assert_eq!(*grid.get_clamped(&[-10.0, 5.0]), 4.0);
    }

    #[test]
    fn iter_reports_cell_centers() {
        let sampler = GridSampler::new(vec![(0.0, 2.0, 3)]);
        let grid = DenseGrid::from_fn(&sampler, |p| p[0]);
        let items: Vec<(Vec<f64>, &f64)> = grid.iter().collect();
        assert_eq!(items.len(), 3);
        // Cells are [0,1), [1,2), [2,3): centers at 0.5, 1.5, 2.5.
        assert!((items[0].0[0] - 0.5).abs() < 1e-12);
        assert!((items[2].0[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_key_length_panics() {
        let (_, grid) = grid_2d();
        let _ = grid.get_clamped(&[1.0]);
    }

    #[test]
    fn update_blends_toward_target_with_confidence() {
        let (_, mut grid) = grid_2d();
        let cfg = BlendConfig::new(0.25, 3.0);
        let p = [2.0, 20.0];
        let before = *grid.get_clamped(&p);
        // Fresh cell: w = 1 / (3 + 0 + 1) = 0.25.
        let w = grid.update(&p, &1000.0, &cfg);
        assert!((w - 0.25).abs() < 1e-12);
        let after = *grid.get_clamped(&p);
        assert!((after - (before + 0.25 * (1000.0 - before))).abs() < 1e-9);
        assert_eq!(CostMap::confidence(&grid, &p), 1.0);
        // Repeated updates converge onto the target.
        for _ in 0..60 {
            grid.update(&p, &1000.0, &cfg);
        }
        assert!((grid.get_clamped(&p) - 1000.0).abs() < 1e-3);
        // Other cells untouched.
        assert_eq!(*grid.get_clamped(&[0.0, 10.0]), 10.0);
    }

    #[test]
    fn out_of_box_update_is_dropped() {
        let (_, mut grid) = grid_2d();
        let edge_before = *grid.get_clamped(&[100.0, 99.0]);
        let w = grid.update(&[100.0, 99.0], &1e9, &BlendConfig::default());
        assert_eq!(w, 0.0, "out-of-box outcomes must not corrupt edge cells");
        assert_eq!(*grid.get_clamped(&[100.0, 99.0]), edge_before);
        assert_eq!(CostMap::confidence(&grid, &[100.0, 99.0]), 0.0);
    }

    #[test]
    fn decay_shrinks_confidence() {
        let (_, mut grid) = grid_2d();
        let cfg = BlendConfig::default();
        let p = [1.0, 10.0];
        for _ in 0..4 {
            grid.update(&p, &5.0, &cfg);
        }
        assert_eq!(CostMap::confidence(&grid, &p), 4.0);
        grid.decay_confidence(0.5);
        assert!((CostMap::confidence(&grid, &p) - 2.0).abs() < 1e-12);
        grid.decay_confidence(0.0);
        assert_eq!(CostMap::confidence(&grid, &p), 0.0);
    }
}
