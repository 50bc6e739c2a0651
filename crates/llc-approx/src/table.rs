use crate::{Blend, BlendConfig, GridSampler, Quantizer};
use std::collections::HashMap;

/// The abstraction map `g` as a quantized-key hash table — the paper's
/// literal substrate, kept as the test oracle [`DenseGrid`](crate::DenseGrid)
/// is held bit-equal to (`dense::tests`).
///
/// "The map g is initially obtained in off-line fashion by simulating the
/// L0 controller using various values from the input set … and a quantized
/// approximation of the domain" (§4.2); "the abstraction map g is obtained
/// off-line as a hash table" (§4.3).
///
/// Keys are points in a continuous input space; each dimension carries its
/// own [`Quantizer`] mapping coordinates to integer cells. Lookups that
/// miss (queries outside the trained grid) first clamp each coordinate to
/// the trained per-dimension range and re-probe; remaining holes fall back
/// to a nearest-neighbor scan in cell space, so the table always answers
/// once at least one entry exists.
#[derive(Debug, Clone)]
pub(crate) struct LookupTable<V> {
    dims: Vec<Quantizer>,
    map: HashMap<Vec<i64>, V>,
    /// Per-dimension [min, max] observed cell ranges.
    ranges: Vec<Option<(i64, i64)>>,
    /// Online observations absorbed per stored cell (absent = offline
    /// prior only). Shrunk by the staleness sweep.
    confidence: HashMap<Vec<i64>, f64>,
}

impl<V: Clone> LookupTable<V> {
    /// An empty table whose key space is quantized per-dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty.
    pub(crate) fn new(dims: Vec<Quantizer>) -> Self {
        assert!(!dims.is_empty(), "table needs at least one key dimension");
        let n = dims.len();
        LookupTable {
            dims,
            map: HashMap::new(),
            ranges: vec![None; n],
            confidence: HashMap::new(),
        }
    }

    /// Number of key dimensions.
    pub(crate) fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored cells.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing has been stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn cells_of(&self, point: &[f64]) -> Vec<i64> {
        assert_eq!(point.len(), self.dims.len(), "key dimension mismatch");
        point
            .iter()
            .zip(&self.dims)
            .map(|(&v, q)| q.cell(v))
            .collect()
    }

    /// Insert (or overwrite) the value for the cell containing `point`.
    ///
    /// This is the *offline* write path: it also resets the cell's online
    /// confidence, so a retrained cell behaves like a fresh prior.
    pub(crate) fn insert(&mut self, point: &[f64], value: V) {
        let cells = self.cells_of(point);
        for (i, &c) in cells.iter().enumerate() {
            self.ranges[i] = Some(match self.ranges[i] {
                None => (c, c),
                Some((lo, hi)) => (lo.min(c), hi.max(c)),
            });
        }
        self.confidence.remove(&cells);
        self.map.insert(cells, value);
    }

    /// Online insert-or-blend for the cell containing `point`: an
    /// existing cell blends toward `target` under `cfg`'s
    /// confidence-weighted schedule; a never-trained cell (inside a hole
    /// or beyond the trained ranges) is inserted at full weight, growing
    /// the table's coverage from observed traffic. Returns the weight
    /// applied (`1.0` for an insert).
    pub(crate) fn update(&mut self, point: &[f64], target: &V, cfg: &BlendConfig) -> f64
    where
        V: Blend,
    {
        let cells = self.cells_of(point);
        if let Some(cell) = self.map.get_mut(&cells) {
            let count = self.confidence.entry(cells).or_insert(0.0);
            let w = cfg.weight(*count);
            cell.blend(target, w);
            *count += 1.0;
            w
        } else {
            self.insert(point, target.clone());
            self.confidence.insert(cells, 1.0);
            1.0
        }
    }

    /// Staleness sweep: multiply every cell's online confidence by
    /// `factor ∈ [0, 1]`.
    pub(crate) fn decay_confidence(&mut self, factor: f64) {
        let factor = factor.clamp(0.0, 1.0);
        for count in self.confidence.values_mut() {
            *count *= factor;
        }
    }

    /// Online observations credited to the cell containing `point`.
    pub(crate) fn confidence(&self, point: &[f64]) -> f64 {
        self.confidence
            .get(&self.cells_of(point))
            .copied()
            .unwrap_or(0.0)
    }

    /// Exact lookup of the cell containing `point`.
    pub(crate) fn get_exact(&self, point: &[f64]) -> Option<&V> {
        self.map.get(&self.cells_of(point))
    }

    /// Robust lookup: exact, then range-clamped, then nearest stored cell
    /// by L1 distance in cell space. Returns `None` only when the table is
    /// empty.
    pub(crate) fn get(&self, point: &[f64]) -> Option<&V> {
        let cells = self.cells_of(point);
        if let Some(v) = self.map.get(&cells) {
            return Some(v);
        }
        // Clamp to the trained hyper-rectangle and re-probe.
        let clamped: Vec<i64> = cells
            .iter()
            .zip(&self.ranges)
            .map(|(&c, r)| match r {
                Some((lo, hi)) => c.clamp(*lo, *hi),
                None => c,
            })
            .collect();
        if let Some(v) = self.map.get(&clamped) {
            return Some(v);
        }
        // Nearest neighbor over stored keys (tables are trained over
        // moderate grids, so the scan is acceptable as a last resort).
        // Ties break on the lexicographically smallest key so lookups are
        // deterministic regardless of hash-map iteration order.
        self.map
            .iter()
            .min_by(|(ka, _), (kb, _)| {
                let da: u64 = ka
                    .iter()
                    .zip(&clamped)
                    .map(|(a, b)| (a - b).unsigned_abs())
                    .sum();
                let db: u64 = kb
                    .iter()
                    .zip(&clamped)
                    .map(|(a, b)| (a - b).unsigned_abs())
                    .sum();
                da.cmp(&db).then_with(|| ka.cmp(kb))
            })
            .map(|(_, v)| v)
    }

    /// Visit stored cells holding at least `min_confidence` online
    /// observations (and at least one) as `(cell center, value,
    /// confidence)`, in sorted cell-key order so the visit — and any map
    /// rebuilt from it — is deterministic regardless of hash iteration
    /// order.
    pub(crate) fn for_each_confident(
        &self,
        min_confidence: f64,
        f: &mut dyn FnMut(&[f64], &V, f64),
    ) {
        let mut cells: Vec<&Vec<i64>> = self
            .confidence
            .iter()
            .filter(|(cells, &conf)| {
                conf > 0.0 && conf >= min_confidence && self.map.contains_key(*cells)
            })
            .map(|(cells, _)| cells)
            .collect();
        cells.sort();
        let mut centers = vec![0.0; self.dims.len()];
        for key in cells {
            for (d, (&c, q)) in key.iter().zip(&self.dims).enumerate() {
                centers[d] = q.center(c);
            }
            f(&centers, &self.map[key], self.confidence[key]);
        }
    }
}

/// Train a [`LookupTable`] by inserting `f` at every grid point in
/// enumeration order; `cell_steps` quantizes the keys.
pub(crate) fn train_table<V: Clone>(
    sampler: &GridSampler,
    cell_steps: &[f64],
    mut f: impl FnMut(&[f64]) -> V,
) -> LookupTable<V> {
    assert_eq!(
        cell_steps.len(),
        sampler.num_dims(),
        "one cell step per grid dimension required"
    );
    let mut table = LookupTable::new(cell_steps.iter().map(|&s| Quantizer::new(s)).collect());
    for p in sampler.points() {
        let v = f(&p);
        table.insert(&p, v);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_2d() -> LookupTable<f64> {
        // 1.0-wide cells on both axes.
        let mut t = LookupTable::new(vec![Quantizer::new(1.0), Quantizer::new(1.0)]);
        for x in 0..5 {
            for y in 0..5 {
                t.insert(&[x as f64 + 0.5, y as f64 + 0.5], (x * 10 + y) as f64);
            }
        }
        t
    }

    #[test]
    fn exact_hit() {
        let t = table_2d();
        assert_eq!(t.get_exact(&[2.3, 4.9]), Some(&24.0));
        assert_eq!(t.len(), 25);
        assert_eq!(t.num_dims(), 2);
    }

    #[test]
    fn miss_outside_grid_clamps_to_edge() {
        let t = table_2d();
        // Far outside the trained range: clamped to cell (4, 0).
        assert_eq!(t.get(&[100.0, -50.0]), Some(&40.0));
        assert_eq!(t.get_exact(&[100.0, -50.0]), None);
    }

    #[test]
    fn hole_falls_back_to_nearest() {
        let mut t = LookupTable::new(vec![Quantizer::new(1.0)]);
        t.insert(&[0.5], 1.0);
        t.insert(&[5.5], 2.0);
        // Cell 2 is inside the range but was never trained: nearest is
        // cell 0 (distance 2) vs cell 5 (distance 3).
        assert_eq!(t.get(&[2.5]), Some(&1.0));
    }

    #[test]
    fn empty_table_returns_none() {
        let t: LookupTable<f64> = LookupTable::new(vec![Quantizer::new(0.5)]);
        assert_eq!(t.get(&[1.0]), None);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_overwrites_same_cell() {
        let mut t = LookupTable::new(vec![Quantizer::new(1.0)]);
        t.insert(&[0.1], 1.0);
        t.insert(&[0.9], 2.0); // same cell 0
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[0.5]), Some(&2.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_key_length_panics() {
        let t = table_2d();
        let _ = t.get(&[1.0]);
    }

    #[test]
    fn update_blends_existing_cell() {
        let mut t = table_2d();
        let cfg = BlendConfig::new(0.25, 3.0);
        let p = [2.5, 4.5];
        let before = *t.get_exact(&p).unwrap();
        let w = t.update(&p, &100.0, &cfg);
        assert!((w - 0.25).abs() < 1e-12, "fresh cell: 1/(3+0+1)");
        let after = *t.get_exact(&p).unwrap();
        assert!((after - (before + 0.25 * (100.0 - before))).abs() < 1e-9);
        assert_eq!(t.confidence(&p), 1.0);
        assert_eq!(t.len(), 25, "blend must not add cells");
    }

    #[test]
    fn update_inserts_unseen_cell_at_full_weight() {
        let mut t = table_2d();
        let outside = [40.0, 40.0];
        let w = t.update(&outside, &77.0, &BlendConfig::default());
        assert_eq!(w, 1.0);
        assert_eq!(t.get_exact(&outside), Some(&77.0));
        assert_eq!(t.confidence(&outside), 1.0);
        assert_eq!(t.len(), 26, "insert-or-blend grows coverage");
        // The grown range now clamps far queries to the new cell.
        assert_eq!(t.get(&[500.0, 500.0]), Some(&77.0));
    }

    #[test]
    fn offline_insert_resets_confidence() {
        let mut t = table_2d();
        let p = [1.5, 1.5];
        t.update(&p, &50.0, &BlendConfig::default());
        assert_eq!(t.confidence(&p), 1.0);
        t.insert(&p, 3.0);
        assert_eq!(t.confidence(&p), 0.0, "retrained cell is a fresh prior");
        t.decay_confidence(0.5);
        assert_eq!(t.confidence(&p), 0.0);
    }
}
