use crate::{derive_seed, LogNormal, VirtualStore};
use rand::{Rng, SeedableRng};

/// Lognormal temporal-locality model (§4.3: "in many web workloads,
/// temporal locality follows a lognormal distribution", after Barford &
/// Crovella).
///
/// An LRU stack of recently referenced objects is maintained. For each
/// request a stack distance `d` is drawn from a lognormal; if `d` lands
/// inside the current stack the object at that depth is re-referenced and
/// moved to the front, otherwise a fresh object is drawn from the
/// popularity distribution. Re-references therefore exhibit lognormal
/// stack distances while the miss stream follows the store's Zipf
/// popularity.
#[derive(Debug, Clone)]
pub struct LocalityModel {
    distance: LogNormal,
    /// The LRU stack, most recent reference at index 0. Contiguous, so a
    /// move-to-front is one `copy_within`; ids fit `u32` because
    /// [`VirtualStore::new`] refuses a larger store.
    stack: Vec<u32>,
    max_depth: usize,
}

impl LocalityModel {
    /// A model with lognormal(`mu`, `sigma`) stack distances and an LRU
    /// stack capped at `max_depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth == 0`, or on parameters [`LogNormal::new`]
    /// refuses.
    pub fn new(mu: f64, sigma: f64, max_depth: usize) -> Self {
        assert!(max_depth > 0, "stack depth must be positive");
        LocalityModel {
            distance: LogNormal::new(mu, sigma),
            stack: Vec::new(),
            max_depth,
        }
    }

    /// Defaults calibrated for the 10,000-object store: median
    /// re-reference distance 50, heavy tail reaching past the stack.
    pub fn paper_default() -> Self {
        LocalityModel::new(50.0_f64.ln(), 1.5, 4_096)
    }

    /// Current stack occupancy.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    /// Produce the next object reference: either a re-reference from the
    /// LRU stack (lognormal depth) or a fresh popularity draw from
    /// `store`.
    pub fn next_object<R: Rng>(&mut self, rng: &mut R, store: &VirtualStore) -> usize {
        let d = self.distance.sample(rng);
        let depth = d.floor() as usize;
        // Everything above the referenced entry — on a miss, above the
        // new bottom slot, or above the coldest entry of a full stack,
        // which is dropped — moves one place down to free the front.
        let (object, above) = if depth < self.stack.len() {
            (self.stack[depth], depth)
        } else {
            let object = u32::try_from(store.sample_object(rng))
                .expect("VirtualStore::new bounds object ids to u32");
            let len = self.stack.len();
            if len < self.max_depth {
                self.stack.push(object);
                (object, len)
            } else {
                (object, len - 1)
            }
        };
        self.stack.copy_within(..above, 1);
        self.stack[0] = object;
        object as usize
    }
}

/// A deterministic stream of `(object, demand)` requests combining the
/// virtual store's popularity with the temporal-locality model — what the
/// experiment driver draws from when spreading a trace bucket into
/// individual requests.
#[derive(Debug, Clone)]
pub struct RequestSampler<'a> {
    store: &'a VirtualStore,
    locality: LocalityModel,
    rng: rand::rngs::StdRng,
}

impl<'a> RequestSampler<'a> {
    /// A sampler over `store` with an explicit locality model and seed.
    pub fn new(store: &'a VirtualStore, locality: LocalityModel, seed: u64) -> Self {
        RequestSampler {
            store,
            locality,
            rng: rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x10CA1)),
        }
    }

    /// A sampler with the paper-default locality model.
    pub fn paper_default(store: &'a VirtualStore, seed: u64) -> Self {
        RequestSampler::new(store, LocalityModel::paper_default(), seed)
    }

    /// Draw the next request: object id and its full-speed demand in
    /// seconds.
    pub fn next_request(&mut self) -> (usize, f64) {
        let object = self.locality.next_object(&mut self.rng, self.store);
        (object, self.store.demand(object))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `LocalityModel` as it stood before the stack went contiguous: a
    /// `VecDeque` of `usize`, `remove` + `push_front` + `pop_back`.
    struct DequeLocality {
        distance: LogNormal,
        stack: std::collections::VecDeque<usize>,
        max_depth: usize,
    }

    impl DequeLocality {
        fn next_object<R: Rng>(&mut self, rng: &mut R, store: &VirtualStore) -> usize {
            let d = self.distance.sample(rng);
            let depth = d.floor() as usize;
            let object = if depth < self.stack.len() {
                self.stack.remove(depth).expect("depth checked")
            } else {
                store.sample_object(rng)
            };
            self.stack.push_front(object);
            while self.stack.len() > self.max_depth {
                self.stack.pop_back();
            }
            object
        }
    }

    #[test]
    fn contiguous_stack_matches_the_deque_reference() {
        let store = VirtualStore::paper_default(9);
        // The paper's stack is still warming up after 200 000 requests; the
        // small ones fill within hundreds, and from then on one request
        // in five (two in three at depth 1) misses past a full stack.
        for (mu, sigma, max_depth) in [
            (50.0_f64.ln(), 1.5, 4_096),
            (10.0_f64.ln(), 2.0, 64),
            (3.0_f64.ln(), 2.5, 1),
        ] {
            let mut model = LocalityModel::new(mu, sigma, max_depth);
            let mut reference = DequeLocality {
                distance: LogNormal::new(mu, sigma),
                stack: std::collections::VecDeque::new(),
                max_depth,
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(max_depth as u64);
            let mut reference_rng = rng.clone();
            for i in 0..200_000 {
                let object = model.next_object(&mut rng, &store);
                let want = reference.next_object(&mut reference_rng, &store);
                assert_eq!(object, want, "request {i}, depth {max_depth}");
                assert_eq!(store.demand(object), store.demand(want));
            }
            let stack: Vec<usize> = model.stack.iter().map(|&o| o as usize).collect();
            assert_eq!(stack, Vec::from(reference.stack), "depth {max_depth}");
            assert_eq!(stack.len() == max_depth, max_depth < 4_096);
        }
    }

    #[test]
    fn rereferences_have_short_distances() {
        let store = VirtualStore::paper_default(1);
        let mut model = LocalityModel::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Warm the stack.
        for _ in 0..1_000 {
            model.next_object(&mut rng, &store);
        }
        // A warmed model should frequently re-reference: the number of
        // distinct objects in a window must be well below the window size.
        let mut seen = std::collections::HashSet::new();
        let window = 2_000;
        for _ in 0..window {
            seen.insert(model.next_object(&mut rng, &store));
        }
        assert!(
            seen.len() < window * 3 / 4,
            "distinct {} of {window} — locality too weak",
            seen.len()
        );
    }

    #[test]
    fn stack_is_bounded() {
        let store = VirtualStore::paper_default(1);
        let mut model = LocalityModel::new(10.0_f64.ln(), 2.0, 64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            model.next_object(&mut rng, &store);
        }
        assert!(model.stack_len() <= 64);
    }

    #[test]
    fn sampler_demands_match_store() {
        let store = VirtualStore::paper_default(4);
        let mut sampler = RequestSampler::paper_default(&store, 5);
        for _ in 0..500 {
            let (obj, demand) = sampler.next_request();
            assert_eq!(demand, store.demand(obj));
            assert!((0.010..=0.025).contains(&demand));
        }
    }

    #[test]
    fn sampler_is_deterministic() {
        let store = VirtualStore::paper_default(4);
        let mut a = RequestSampler::paper_default(&store, 5);
        let mut b = RequestSampler::paper_default(&store, 5);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn popular_objects_still_dominate_with_locality() {
        let store = VirtualStore::paper_default(6);
        let mut sampler = RequestSampler::paper_default(&store, 7);
        let n = 20_000;
        let popular = (0..n)
            .filter(|_| sampler.next_request().0 < store.popular_count())
            .count();
        // Locality re-references mostly popular objects, so the share
        // should stay at or above the raw 90 %.
        assert!(
            popular as f64 / n as f64 > 0.85,
            "popular share {}",
            popular as f64 / n as f64
        );
    }
}
