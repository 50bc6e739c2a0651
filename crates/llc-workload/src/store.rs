use crate::{derive_seed, Zipf};
use rand::{Rng, SeedableRng};

/// The paper's virtual store of web objects (§4.3):
///
/// * 10,000 objects whose request processing times are drawn uniformly
///   from (10, 25) ms at store-generation time;
/// * a **popular** partition of 1,000 objects receiving 90 % of all
///   requests and a **rare** partition (the remaining 9,000) receiving
///   10 %, with Zipf-ranked popularity inside each partition.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualStore {
    /// Full-speed processing time per object, seconds.
    demands: Vec<f64>,
    popular_count: usize,
    popular_share: f64,
    popular_zipf: Zipf,
    rare_zipf: Zipf,
}

impl VirtualStore {
    /// Build a store of `n_objects` with `popular_count` objects receiving
    /// `popular_share` of the traffic; processing times drawn uniformly
    /// from `[demand_lo, demand_hi]` seconds with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `popular_count` is 0 or ≥ `n_objects`, if `n_objects`
    /// exceeds `u32::MAX` (object ids are stored as `u32` by
    /// [`LocalityModel`](crate::LocalityModel)), if the share is outside
    /// `[0, 1]`, or if the demand range is invalid.
    pub fn new(
        n_objects: usize,
        popular_count: usize,
        popular_share: f64,
        demand_lo: f64,
        demand_hi: f64,
        seed: u64,
    ) -> Self {
        assert!(
            popular_count > 0 && popular_count < n_objects,
            "popular set must be a strict non-empty subset"
        );
        assert!(
            u32::try_from(n_objects).is_ok(),
            "store must hold at most u32::MAX objects, got {n_objects}"
        );
        assert!(
            (0.0..=1.0).contains(&popular_share),
            "popular share must be in [0, 1]"
        );
        assert!(
            demand_lo > 0.0 && demand_hi >= demand_lo && demand_hi.is_finite(),
            "demand range must satisfy 0 < lo <= hi"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x5702E));
        let demands = (0..n_objects)
            .map(|_| rng.gen_range(demand_lo..=demand_hi))
            .collect();
        VirtualStore {
            demands,
            popular_count,
            popular_share,
            popular_zipf: Zipf::new(popular_count, 1.0),
            rare_zipf: Zipf::new(n_objects - popular_count, 1.0),
        }
    }

    /// The paper's store: 10,000 objects, 1,000 popular receiving 90 %,
    /// processing times U(10, 25) ms.
    pub fn paper_default(seed: u64) -> Self {
        VirtualStore::new(10_000, 1_000, 0.9, 0.010, 0.025, seed)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` if the store holds no objects (never: constructor forbids).
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Size of the popular partition.
    pub fn popular_count(&self) -> usize {
        self.popular_count
    }

    /// Full-speed processing time of `object` in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn demand(&self, object: usize) -> f64 {
        self.demands[object]
    }

    /// Mean processing time over the whole store.
    pub fn mean_demand(&self) -> f64 {
        self.demands.iter().sum::<f64>() / self.demands.len() as f64
    }

    /// Sample an object id according to popularity (no temporal
    /// locality — see [`RequestSampler`](crate::RequestSampler) for the
    /// locality-aware stream). Popular objects occupy ids
    /// `0..popular_count`.
    pub fn sample_object<R: Rng>(&self, rng: &mut R) -> usize {
        if rng.gen::<f64>() < self.popular_share {
            self.popular_zipf.sample(rng)
        } else {
            self.popular_count + self.rare_zipf.sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_store_shape() {
        let s = VirtualStore::paper_default(1);
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.popular_count(), 1_000);
        assert!(s.demands.iter().all(|&d| (0.010..=0.025).contains(&d)));
        let m = s.mean_demand();
        assert!((m - 0.0175).abs() < 0.0005, "mean demand {m}");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "at most u32::MAX objects")]
    fn store_refuses_more_objects_than_u32_ids() {
        let _ = VirtualStore::new(u32::MAX as usize + 1, 1_000, 0.9, 0.010, 0.025, 1);
    }

    #[test]
    fn popular_partition_receives_its_share() {
        let s = VirtualStore::paper_default(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 50_000;
        let popular_hits = (0..n)
            .filter(|_| s.sample_object(&mut rng) < s.popular_count())
            .count();
        let share = popular_hits as f64 / n as f64;
        assert!((share - 0.9).abs() < 0.01, "popular share {share}");
    }

    #[test]
    fn zipf_head_dominates_within_popular_set() {
        let s = VirtualStore::paper_default(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut counts = vec![0u32; s.len()];
        for _ in 0..n {
            counts[s.sample_object(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = VirtualStore::paper_default(5);
        let b = VirtualStore::paper_default(5);
        assert_eq!(a, b);
        let c = VirtualStore::paper_default(6);
        assert_ne!(a.demands, c.demands);
    }

    #[test]
    #[should_panic(expected = "strict non-empty subset")]
    fn popular_set_must_be_proper() {
        let _ = VirtualStore::new(10, 10, 0.9, 0.01, 0.02, 1);
    }
}
