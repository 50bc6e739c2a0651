use crate::quantize::Quantizer;
use crate::{Blend, GridSampler};
use std::collections::BTreeMap;

/// Most key dimensions a [`DenseGrid`] takes: a cell key is an array of
/// this size on the stack, so no probe or write allocates one.
const MAX_DIMS: usize = 8;

/// Grown cells a grid holds at most, per trained cell. A new cell past
/// the bound is refused (weight 0.0), because every grown cell lengthens
/// the miss scan and every distinct far-out key a peer reports would be
/// one. No committed run comes near it: a 9600-tick `adverse4` day peaks
/// at ~90 grown cells beside 144 trained.
const GROWN_PER_TRAINED: usize = 4;

/// Integer cell coordinates, one per axis, zero beyond the grid's
/// dimensions — so array order is lexicographic order of the real key.
type CellKey = [i64; MAX_DIMS];

/// One axis of a [`DenseGrid`]: quantization, cell-to-slot mapping and
/// row-major stride.
///
/// Grid points land on cell boundaries, so floating-point rounding can
/// make two adjacent points share a cell (a collision) or skip one (a
/// hole). Each axis therefore carries a tiny `slot_of_cell` array over its
/// trained cell range mapping every cell (stored or hole) to a value
/// slot: collisions share a slot (the later-trained point wins) and a
/// hole resolves to the slot of the cell below — its nearest trained
/// cell, ties to the smaller key. Probes stay O(1) and allocation free.
#[derive(Debug, Clone)]
struct DenseDim {
    quant: Quantizer,
    /// First trained cell along this axis.
    cell_min: i64,
    /// Value slot for each cell in `cell_min ..= cell_max`.
    slot_of_cell: Vec<u32>,
    /// Distinct trained cells, slot-indexed.
    cells: Vec<i64>,
    /// Distance between consecutive slots of this axis in `values`.
    stride: usize,
    /// Smallest and largest cell stored along this axis, trained or
    /// grown: the box a missed key is clamped into.
    span: (i64, i64),
}

impl DenseDim {
    /// Slot of the trained cell nearest `cell`, and that cell.
    #[inline]
    fn nearest(&self, cell: i64) -> (usize, i64) {
        let offset = (cell - self.cell_min).clamp(0, self.slot_of_cell.len() as i64 - 1);
        let slot = self.slot_of_cell[offset as usize] as usize;
        (slot, self.cells[slot])
    }
}

/// The abstraction map `g` — the paper's "hash table" (§4.3), "updated
/// online using the observed values" (§6) — as a dense rectangular table
/// plus a sorted side-map of *grown* cells.
///
/// A grid trained from a rectangular [`GridSampler`] domain with the cell
/// width equal to the grid pitch is a
/// box in cell space: flat `Vec<V>` storage, and a probe is per-axis
/// clamp + slot arithmetic. Cell collisions and holes from floating-point
/// boundary rounding are folded into per-axis slot tables at training
/// time (see `DenseDim`).
///
/// A *grown* cell is one first written online by [`DenseGrid::update`]:
/// a hole inside the trained box, or a cell beyond it. It is inserted at
/// the observed value, measured from the start, and from then on blends
/// like a trained cell. A probe that hits neither kind answers with the
/// nearest stored cell, trained or grown, by L1 distance in cell units
/// after clamping the key into the bounding box of everything stored,
/// ties to the lexicographically smallest key. With nothing grown that
/// is the O(1) clamp-and-stride probe.
#[derive(Debug, Clone)]
pub struct DenseGrid<V> {
    dims: Vec<DenseDim>,
    values: Vec<V>,
    /// Per value slot: has an online observation been blended in
    /// (`false` = the offline value still stands untouched)?
    measured: Vec<bool>,
    /// Grown cells by cell key, in key order. Each was written online, so
    /// each is measured.
    grown: BTreeMap<CellKey, V>,
}

impl<V: Send> DenseGrid<V> {
    /// Train a grid by evaluating `f` at every point of `sampler`, in
    /// parallel (deterministic: each point's value lands in its own
    /// pre-computed slot, so the result is identical to a serial build
    /// that inserts the points in enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if the sampler has more than eight dimensions.
    pub(crate) fn from_fn(sampler: &GridSampler, f: impl Fn(&[f64]) -> V + Sync) -> Self {
        let nd = sampler.num_dims();
        assert!(
            nd <= MAX_DIMS,
            "a dense grid takes at most {MAX_DIMS} dimensions"
        );
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
                // slot: its nearest trained neighbor, ties to the smaller.
                *entry = slot as u32;
            }
            dims.push(DenseDim {
                quant,
                cell_min,
                slot_of_cell,
                cells,
                stride,
                span: (cell_min, cell_max),
            });
            stride *= dims[d].cells.len();
        }
        let volume = stride;

        // Evaluate every grid point in parallel, then commit the results
        // in grid-enumeration order so colliding cells resolve like
        // repeated inserts (the later point wins). The slot index is
        // derived from the integer grid index directly — no point
        // reconstruction in the serial tail.
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
            measured: vec![false; volume],
            grown: BTreeMap::new(),
        }
    }
}

impl<V> DenseGrid<V> {
    /// Number of key dimensions.
    #[cfg(test)]
    pub(crate) fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored cells, trained and grown.
    pub fn len(&self) -> usize {
        self.values.len() + self.grown.len()
    }

    /// `true` if the grid holds no cells (cannot happen via
    /// `DenseGrid::from_fn`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The cell containing `point`.
    ///
    /// # Panics
    ///
    /// Panics on key dimension mismatch.
    #[inline]
    fn key_of(&self, point: &[f64]) -> CellKey {
        assert_eq!(point.len(), self.dims.len(), "key dimension mismatch");
        let mut key = [0; MAX_DIMS];
        for ((k, v), dim) in key.iter_mut().zip(point).zip(&self.dims) {
            *k = dim.quant.cell(*v);
        }
        key
    }

    /// Flat index of the trained cell nearest `key`, and that cell's L1
    /// distance from `key`.
    #[inline]
    fn nearest_trained(&self, key: &CellKey) -> (usize, u64) {
        let (mut idx, mut dist) = (0, 0);
        for (&k, dim) in key.iter().zip(&self.dims) {
            let (slot, cell) = dim.nearest(k);
            idx += slot * dim.stride;
            dist += k.abs_diff(cell);
        }
        (idx, dist)
    }

    /// Value of the cell `key` itself, if it is stored, and whether it
    /// is measured.
    fn cell(&self, key: &CellKey) -> Option<(&V, bool)> {
        match self.nearest_trained(key) {
            (idx, 0) => Some((&self.values[idx], self.measured[idx])),
            _ => self.grown.get(key).map(|v| (v, true)),
        }
    }

    /// The cell centers of `key`, into `centers`.
    fn centers_into(&self, key: &CellKey, centers: &mut [f64]) {
        for ((c, &k), dim) in centers.iter_mut().zip(key).zip(&self.dims) {
            *c = dim.quant.center(k);
        }
    }

    /// The key of trained value slot `idx`.
    fn key_of_slot(&self, mut idx: usize) -> CellKey {
        let mut key = [0; MAX_DIMS];
        for (k, dim) in key.iter_mut().zip(&self.dims) {
            *k = dim.cells[idx % dim.cells.len()];
            idx /= dim.cells.len();
        }
        key
    }

    /// Iterate the trained `(cell_centers, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<f64>, &V)> + '_ {
        self.values.iter().enumerate().map(move |(idx, v)| {
            let mut centers = vec![0.0; self.dims.len()];
            self.centers_into(&self.key_of_slot(idx), &mut centers);
            (centers, v)
        })
    }

    /// Robust lookup: the cell containing `point` if it is stored, else
    /// the nearest stored cell (see the type docs). O(1) and allocation
    /// free on a trained cell, and on any key while nothing has grown.
    ///
    /// # Panics
    ///
    /// Panics on key dimension mismatch.
    #[inline]
    pub fn probe(&self, point: &[f64]) -> &V {
        let key = self.key_of(point);
        if self.grown.is_empty() {
            return &self.values[self.nearest_trained(&key).0];
        }
        match self.cell(&key) {
            Some((v, _)) => v,
            None => self.nearest_stored(key),
        }
    }

    /// The miss rule: the stored cell nearest `key` once clamped into the
    /// box of everything stored, ranked by (L1 distance, key).
    fn nearest_stored(&self, mut key: CellKey) -> &V {
        for (k, dim) in key.iter_mut().zip(&self.dims) {
            *k = (*k).clamp(dim.span.0, dim.span.1);
        }
        let (idx, dist) = self.nearest_trained(&key);
        let trained_rank = (dist, self.key_of_slot(idx));
        let nearest_grown = self
            .grown
            .iter()
            .map(|(cell, v)| {
                let dist: u64 = cell.iter().zip(&key).map(|(a, b)| a.abs_diff(*b)).sum();
                ((dist, *cell), v)
            })
            .min_by_key(|(rank, _)| *rank);
        match nearest_grown {
            Some((rank, v)) if rank < trained_rank => v,
            _ => &self.values[idx],
        }
    }

    /// Exact lookup of the cell containing `point`: `None` for a cell
    /// neither trained nor grown.
    pub fn get_exact(&self, point: &[f64]) -> Option<&V> {
        self.cell(&self.key_of(point)).map(|(v, _)| v)
    }

    /// `true` if the cell containing `point` has absorbed an online
    /// observation: a trained cell written since training, or any grown
    /// cell. Nothing unmeasures a cell.
    pub fn measured(&self, point: &[f64]) -> bool {
        self.cell(&self.key_of(point)).is_some_and(|(_, m)| m)
    }

    /// Insert-or-blend — the §6 write path. A stored cell blends toward
    /// the observed `target` at `rate` and is measured from then on, so
    /// the map self-corrects under drift without an offline learning
    /// pass; a cell never stored (a hole, or beyond the trained box) is
    /// *grown*: inserted at the target, weight 1.0. Returns the weight
    /// applied — 0.0 when a new cell was refused because the grid
    /// already holds its bound of grown cells.
    pub fn update(&mut self, point: &[f64], target: &V, rate: f64) -> f64
    where
        V: Blend + Clone,
    {
        debug_assert!(
            rate > 0.0 && rate <= 1.0,
            "blend rate must lie in (0, 1], got {rate}"
        );
        let key = self.key_of(point);
        let (idx, dist) = self.nearest_trained(&key);
        if dist == 0 {
            self.values[idx].blend(target, rate);
            self.measured[idx] = true;
            return rate;
        }
        if let Some(v) = self.grown.get_mut(&key) {
            v.blend(target, rate);
            return rate;
        }
        if self.grown.len() >= GROWN_PER_TRAINED * self.values.len() {
            return 0.0;
        }
        for (&k, dim) in key.iter().zip(&mut self.dims) {
            dim.span = (dim.span.0.min(k), dim.span.1.max(k));
        }
        self.grown.insert(key, target.clone());
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{train_table, LookupTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            assert_eq!(*grid.probe(&p), p[0] * 100.0 + p[1]);
        }
    }

    #[test]
    fn out_of_grid_clamps_to_edge() {
        let (_, grid) = grid_2d();
        assert_eq!(*grid.probe(&[100.0, -5.0]), 410.0);
        assert_eq!(*grid.probe(&[-3.0, 99.0]), 30.0);
    }

    /// A point per axis drawn from well past both edges of `sampler`, so
    /// clamping is exercised; `reach` is the overhang in axis widths.
    fn fuzz_point(rng: &mut StdRng, sampler: &GridSampler, reach: f64) -> Vec<f64> {
        (0..sampler.num_dims())
            .map(|d| {
                let (lo, hi, _) = sampler.dim(d);
                let w = hi - lo;
                rng.gen_range(lo - reach * w..hi + reach * w)
            })
            .collect()
    }

    fn weighted_sum(p: &[f64]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| v * (i as f64 + 1.5))
            .sum()
    }

    #[test]
    fn matches_hash_table_on_shared_domain() {
        // Deliberately awkward bounds: non-zero offsets and step counts
        // whose floating-point spacing rounds unevenly, so cell
        // collisions and holes (what the slot tables exist for) occur.
        let samplers = [
            GridSampler::new(vec![(0.0, 10.0, 11), (0.5, 2.5, 5)]),
            GridSampler::new(vec![(0.0, 104.76, 24), (0.0105, 0.028, 5), (0.0, 150.0, 6)]),
            GridSampler::new(vec![(0.3, 7.7, 13), (1.0, 1.0001, 1)]),
            GridSampler::new(vec![(-5.0, 5.0, 21)]),
        ];
        let mut rng = StdRng::seed_from_u64(0xE051);
        for (si, sampler) in samplers.iter().enumerate() {
            let hash = train_table(sampler, &sampler.cell_steps(), weighted_sum);
            let dense = DenseGrid::from_fn(sampler, weighted_sum);
            assert_eq!(hash.len(), dense.len(), "sampler {si}: trained cell count");
            for p in sampler.points() {
                let h = hash.get_exact(&p).expect("trained point present");
                assert_eq!(
                    h.to_bits(),
                    dense.probe(&p).to_bits(),
                    "sampler {si}: {p:?}"
                );
                assert_eq!(dense.get_exact(&p), Some(h));
            }
            // Inside, outside and straddling the grid.
            for _ in 0..4000 {
                let q = fuzz_point(&mut rng, sampler, 0.8);
                let h = hash.get(&q).expect("non-empty table");
                assert_eq!(
                    h.to_bits(),
                    dense.probe(&q).to_bits(),
                    "sampler {si}: {q:?}"
                );
                assert_eq!(
                    hash.get_exact(&q),
                    dense.get_exact(&q),
                    "sampler {si}: {q:?}"
                );
            }
        }
    }

    /// The differential that lets the hash table leave product code:
    /// interleaved online writes and reads answer
    /// bit-for-bit as [`LookupTable`] does, on grids whose λ axis
    /// collides (24 steps land in 20–21 cells), through growth of holes
    /// and of cells beyond the box.
    #[test]
    fn online_ops_match_the_hash_oracle() {
        let samplers = [
            GridSampler::new(vec![(0.0, 104.76, 24), (0.0105, 0.028, 5), (0.0, 150.0, 6)]),
            GridSampler::new(vec![(0.0, 110.0, 20), (0.0105, 0.028, 3), (0.0, 150.0, 3)]),
        ];
        for (si, sampler) in samplers.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xD1FF + si as u64);
            let mut hash: LookupTable<f64> =
                train_table(sampler, &sampler.cell_steps(), weighted_sum);
            let mut dense = DenseGrid::from_fn(sampler, weighted_sum);
            // Most writes revisit a pool of points, so cells blend.
            let pool: Vec<Vec<f64>> = (0..200)
                .map(|_| fuzz_point(&mut rng, sampler, 0.4))
                .collect();
            for step in 0..20_000 {
                let ctx = format!("sampler {si} step {step}");
                match rng.gen_range(0..20usize) {
                    0..=6 => {
                        let p = if rng.gen_range(0..5usize) == 0 {
                            fuzz_point(&mut rng, sampler, 0.4)
                        } else {
                            pool[rng.gen_range(0..pool.len())].clone()
                        };
                        let target = rng.gen_range(-500.0..500.0);
                        let rate = rng.gen_range(0.05..1.0);
                        let (h, d) = (
                            hash.update(&p, &target, rate),
                            dense.update(&p, &target, rate),
                        );
                        assert_eq!(h.to_bits(), d.to_bits(), "{ctx}: weight at {p:?}");
                    }
                    _ => {
                        let q = fuzz_point(&mut rng, sampler, 0.8);
                        let h = hash.get(&q).expect("non-empty table");
                        assert_eq!(h.to_bits(), dense.probe(&q).to_bits(), "{ctx}: {q:?}");
                        assert_eq!(hash.get_exact(&q), dense.get_exact(&q), "{ctx}: {q:?}");
                        assert_eq!(
                            hash.measured(&q),
                            dense.measured(&q),
                            "{ctx}: measured at {q:?}"
                        );
                    }
                }
            }
            assert_eq!(hash.len(), dense.len(), "sampler {si}: stored cells");
            assert!(dense.len() > dense.values.len() + 50, "sampler {si}: grew");
        }
    }

    #[test]
    fn single_step_dimension() {
        let sampler = GridSampler::new(vec![(2.0, 4.0, 1), (0.0, 1.0, 2)]);
        let grid = DenseGrid::from_fn(&sampler, |p| p[0] + p[1]);
        assert_eq!(grid.len(), 2);
        // The lone point of dim 0 is its midpoint, 3.0.
        assert_eq!(*grid.probe(&[3.0, 0.0]), 3.0);
        assert_eq!(*grid.probe(&[-10.0, 5.0]), 4.0);
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
        let _ = grid.probe(&[1.0]);
    }

    #[test]
    fn update_blends_toward_target_with_confidence() {
        let (_, mut grid) = grid_2d();
        let p = [2.0, 20.0];
        let before = *grid.probe(&p);
        assert!(!grid.measured(&p), "a trained cell starts unmeasured");
        let w = grid.update(&p, &1000.0, 0.25);
        assert_eq!(w, 0.25);
        let after = *grid.probe(&p);
        assert!((after - (before + 0.25 * (1000.0 - before))).abs() < 1e-9);
        assert!(grid.measured(&p));
        assert!(!grid.measured(&[0.0, 10.0]), "only the written cell");
        // Repeated updates converge onto the target.
        for _ in 0..60 {
            grid.update(&p, &1000.0, 0.25);
        }
        assert!((grid.probe(&p) - 1000.0).abs() < 1e-3);
        // Other cells untouched, and a stored cell grows nothing.
        assert_eq!(*grid.probe(&[0.0, 10.0]), 10.0);
        assert_eq!(grid.len(), 15);
    }

    #[test]
    fn out_of_box_update_grows_its_own_cell() {
        let (_, mut grid) = grid_2d();
        // Cells are 1 × 10 wide; the trained box is [0, 4] × [10, 30].
        let far = [9.5, 35.0];
        let edge = *grid.probe(&far);
        assert_eq!(grid.get_exact(&far), None);
        assert!(!grid.measured(&far));
        assert_eq!(grid.update(&far, &-7.0, 0.25), 1.0);
        assert_eq!(grid.len(), 16);
        assert_eq!(grid.get_exact(&far), Some(&-7.0), "the exact cell answers");
        assert!(grid.measured(&far));
        // A miss nearer the trained edge cell (4, 3) than the grown cell
        // (9, 3) still reads the edge; past half-way the grown cell is
        // the nearer one.
        assert_eq!(*grid.probe(&[6.5, 35.0]), edge);
        assert_eq!(*grid.probe(&[7.5, 35.0]), -7.0);
        assert_eq!(
            *grid.probe(&[50.0, 35.0]),
            -7.0,
            "clamped to what is stored"
        );
        // It blends from here on, like any stored cell.
        let w = grid.update(&far, &1.0, 0.5);
        assert_eq!(w, 0.5);
        assert_eq!(grid.get_exact(&far), Some(&-3.0));
        assert_eq!(grid.len(), 16);
    }

    #[test]
    fn grown_cells_stop_at_the_bound() {
        let (_, mut grid) = grid_2d();
        let bound = GROWN_PER_TRAINED * 15;
        for i in 0..bound + 40 {
            let w = grid.update(&[1000.0 + i as f64, 20.0], &1.0, 0.25);
            assert_eq!(
                w,
                if i < bound { 1.0 } else { 0.0 },
                "distinct far cell {i}"
            );
        }
        assert_eq!(grid.len(), 15 + bound);
        assert_eq!(grid.get_exact(&[1000.0 + bound as f64, 20.0]), None);
        // Trained and already-grown cells still blend.
        assert_eq!(grid.update(&[2.0, 20.0], &1.0, 0.25), 0.25);
        assert_eq!(grid.update(&[1000.0, 20.0], &5.0, 0.25), 0.25);
        assert_eq!(grid.get_exact(&[1000.0, 20.0]), Some(&2.0));
        assert!(!grid.measured(&[1000.0 + bound as f64, 20.0]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blend rate")]
    fn zero_learning_rate_rejected() {
        let (_, mut grid) = grid_2d();
        grid.update(&[2.0, 20.0], &1.0, 0.0);
    }
}
