use crate::{derive_seed, LogNormal, VirtualStore};
use rand::{RngCore, SeedableRng};

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
/// popularity. [`RequestSampler`] draws the distances and the fresh
/// objects; the model is the distance law and the stack.
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
    /// stack capped at `max_depth` entries, allocated here so that no
    /// request has to.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth == 0`, or on parameters [`LogNormal::new`]
    /// refuses.
    pub fn new(mu: f64, sigma: f64, max_depth: usize) -> Self {
        assert!(max_depth > 0, "stack depth must be positive");
        LocalityModel {
            distance: LogNormal::new(mu, sigma),
            stack: Vec::with_capacity(max_depth),
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

    /// Re-reference the entry at `depth`, moving it to the front; `None`
    /// (and an untouched stack) when `depth` is past the stack.
    fn rereference(&mut self, depth: usize) -> Option<u32> {
        let object = *self.stack.get(depth)?;
        self.stack.copy_within(..depth, 1);
        self.stack[0] = object;
        Some(object)
    }

    /// Put a fresh reference to `object` at the front; a full stack
    /// drops its coldest entry.
    fn insert(&mut self, object: u32) {
        if self.stack.len() < self.max_depth {
            self.stack.push(object);
        }
        let above = self.stack.len() - 1;
        self.stack.copy_within(..above, 1);
        self.stack[0] = object;
    }
}

/// Stack distances [`RequestSampler`] draws at a time. The curve is flat
/// from 16 to 256 (draw phase 27–29 ns a request, walk phase 20–22); at
/// 1024 a miss rate of 0.2 % throws away more than one draw per request.
const CHUNK: usize = 64;

/// A deterministic stream of `(object, demand)` requests combining the
/// virtual store's popularity with the temporal-locality model — what the
/// experiment driver draws from when spreading a trace bucket into
/// individual requests.
///
/// The sampler owns its generator, so it draws ahead: 64 stack
/// distances at a time, before it walks the LRU stack for any of them.
/// Interleaved one request at a time, the lognormal's libm calls and the
/// stack's `copy_within` stall each other (63–78 ns the pair, against
/// 49 ns apart). A miss needs the generator as it stood right after
/// that request's own distance draw, so it rewinds to there — the state
/// at the chunk's start, stepped past the distances already served —
/// takes the popularity draw, and drops the rest of the chunk: the
/// stream of requests is the one a draw-by-draw sampler gives, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct RequestSampler<'a> {
    store: &'a VirtualStore,
    locality: LocalityModel,
    /// Where the next chunk starts drawing from.
    rng: rand::rngs::StdRng,
    /// `rng` as it stood before the current chunk was drawn.
    chunk_start: rand::rngs::StdRng,
    /// The current chunk's stack depths, in draw order.
    depths: [usize; CHUNK],
    /// Entries of `depths` already served; `CHUNK` when none is left.
    served: usize,
}

/// Raw draws one stack distance takes: Box–Muller's two uniforms
/// (`distributions::tests::a_gaussian_sample_takes_two_raw_draws`).
const DRAWS_PER_DISTANCE: usize = 2;

impl<'a> RequestSampler<'a> {
    /// A sampler over `store` with an explicit locality model and seed.
    pub fn new(store: &'a VirtualStore, locality: LocalityModel, seed: u64) -> Self {
        let rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x10CA1));
        RequestSampler {
            store,
            locality,
            chunk_start: rng.clone(),
            rng,
            depths: [0; CHUNK],
            served: CHUNK,
        }
    }

    /// A sampler with the paper-default locality model.
    pub fn paper_default(store: &'a VirtualStore, seed: u64) -> Self {
        RequestSampler::new(store, LocalityModel::paper_default(), seed)
    }

    /// Draw the next request: object id and its full-speed demand in
    /// seconds.
    pub fn next_request(&mut self) -> (usize, f64) {
        if self.served == CHUNK {
            self.chunk_start = self.rng.clone();
            for depth in &mut self.depths {
                *depth = self.locality.distance.sample(&mut self.rng).floor() as usize;
            }
            self.served = 0;
        }
        let depth = self.depths[self.served];
        self.served += 1;
        let object = match self.locality.rereference(depth) {
            Some(object) => object,
            None => {
                self.rng = self.chunk_start.clone();
                for _ in 0..self.served * DRAWS_PER_DISTANCE {
                    self.rng.next_u64();
                }
                self.served = CHUNK;
                let object = u32::try_from(self.store.sample_object(&mut self.rng))
                    .expect("VirtualStore::new bounds object ids to u32");
                self.locality.insert(object);
                object
            }
        };
        (object as usize, self.store.demand(object as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The model as it stood before the stack went contiguous and the
    /// sampler drew ahead: a `VecDeque` of `usize`, `remove` +
    /// `push_front` + `pop_back`, one request's draws at a time.
    struct DequeLocality {
        distance: LogNormal,
        stack: std::collections::VecDeque<usize>,
        max_depth: usize,
        /// Whether the last request drew a fresh object.
        missed: bool,
    }

    impl DequeLocality {
        fn new(mu: f64, sigma: f64, max_depth: usize) -> Self {
            DequeLocality {
                distance: LogNormal::new(mu, sigma),
                stack: std::collections::VecDeque::new(),
                max_depth,
                missed: false,
            }
        }

        fn next_object<R: Rng>(&mut self, rng: &mut R, store: &VirtualStore) -> usize {
            let d = self.distance.sample(rng);
            let depth = d.floor() as usize;
            self.missed = depth >= self.stack.len();
            let object = if self.missed {
                store.sample_object(rng)
            } else {
                self.stack.remove(depth).expect("depth checked")
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
            let mut sampler = RequestSampler::new(
                &store,
                LocalityModel::new(mu, sigma, max_depth),
                max_depth as u64,
            );
            let mut reference = DequeLocality::new(mu, sigma, max_depth);
            let mut reference_rng = sampler.rng.clone();
            let mut missed_at = [false; CHUNK];
            for i in 0..200_000 {
                let offset = sampler.served % CHUNK;
                let (object, demand) = sampler.next_request();
                let want = reference.next_object(&mut reference_rng, &store);
                assert_eq!(object, want, "request {i}, depth {max_depth}");
                assert_eq!(demand.to_bits(), store.demand(want).to_bits());
                missed_at[offset] |= reference.missed;
            }
            let stack: Vec<usize> = sampler.locality.stack.iter().map(|&o| o as usize).collect();
            assert_eq!(stack, Vec::from(reference.stack), "depth {max_depth}");
            assert_eq!(stack.len() == max_depth, max_depth < 4_096);
            // A stack that misses one request in five rarely gets far into
            // a chunk; the paper's rewinds from every offset of one.
            let offsets = missed_at.iter().filter(|&&m| m).count();
            assert_eq!(offsets == CHUNK, max_depth == 4_096, "{offsets} offsets");
        }
    }

    #[test]
    fn a_sampler_cloned_mid_chunk_continues_as_its_original() {
        let store = VirtualStore::paper_default(4);
        let mut original =
            RequestSampler::new(&store, LocalityModel::new(10.0_f64.ln(), 2.0, 64), 5);
        for _ in 0..1_000 {
            original.next_request();
        }
        while original.served == CHUNK || original.served < 3 {
            original.next_request();
        }
        let mut clone = original.clone();
        for _ in 0..10_000 {
            assert_eq!(clone.next_request(), original.next_request());
        }
        assert_eq!(clone.locality.stack, original.locality.stack);
        assert_eq!(clone.rng.next_u64(), original.rng.next_u64());
    }

    #[test]
    fn rereferences_have_short_distances() {
        let store = VirtualStore::paper_default(1);
        let mut sampler = RequestSampler::paper_default(&store, 2);
        // Warm the stack.
        for _ in 0..1_000 {
            sampler.next_request();
        }
        // A warmed model should frequently re-reference: the number of
        // distinct objects in a window must be well below the window size.
        let mut seen = std::collections::HashSet::new();
        let window = 2_000;
        for _ in 0..window {
            seen.insert(sampler.next_request().0);
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
        let mut sampler =
            RequestSampler::new(&store, LocalityModel::new(10.0_f64.ln(), 2.0, 64), 3);
        for _ in 0..10_000 {
            sampler.next_request();
        }
        assert_eq!(sampler.locality.stack_len(), 64);
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
