use crate::distributions::box_muller_uniforms;
use crate::{derive_seed, LogNormal, VirtualStore};
use rand::{Rng, RngCore, SeedableRng};

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

    /// Fill `depths` with the stack depths of the next [`CHUNK`] distance
    /// draws from `rng`, each `floor(exp(y))` capped at `max_depth`, with
    /// `y = μ + σ·√(−2 ln u₁)·cos 2πu₂` Box–Muller's normal. A depth past
    /// the cap re-references nothing, as the cap does (`stack.len() ≤
    /// max_depth`). Returns how many draws took the libm chain.
    ///
    /// The depths are [`LogNormal::sample`]'s, floored, without calling
    /// its `ln` and `cos`. Three passes over the chunk:
    /// 1. the uniforms, two a depth in draw order;
    /// 2. `y` through [`ln_fast`] and [`cos_2pi_fast`], branch-free, so
    ///    the compiler runs it in vector lanes;
    /// 3. libm `exp(y)`, certified when it clears both integer boundaries
    ///    around it by a factor `1 ± m`: `y` is at least `m` clear of
    ///    `ln k` and `ln(k + 1)`, `m = MARGIN·(1 + |μ| + σ)`. An uncertain
    ///    draw (2 in 10⁶ on the paper default) runs libm's whole chain on
    ///    its own uniforms.
    ///
    /// Why a certified depth is libm's: libm's `ln`, `cos` and `exp` are
    /// within 1 ulp of exact, `sqrt` and the arithmetic are correctly
    /// rounded, and the kernels' distance from libm is measured by
    /// `kernels_stay_within_a_hundredth_of_the_margin` (at most 4·10⁻¹³
    /// in `y` at σ = 2.5 and the longest `√(−2 ln u₁)`, against 10⁻¹¹
    /// allowed). So the fast `y` is within `m/100` of libm's: the
    /// kernels' error scales with `σ`, the final roundings with `|μ|`.
    /// libm's `exp` then moves its value by at most 2⁻⁵² relative, far
    /// inside the factor the check leaves.
    fn draw_depths<R: Rng>(&self, rng: &mut R, depths: &mut [usize; CHUNK]) -> usize {
        let normal = self.distance.normal();
        let (mu, sigma) = (normal.mean(), normal.std_dev());
        let mut u1 = [0.0; CHUNK];
        let mut u2 = [0.0; CHUNK];
        for (a, b) in u1.iter_mut().zip(&mut u2) {
            (*a, *b) = box_muller_uniforms(rng);
        }
        let mut y = [0.0; CHUNK];
        for ((y, &a), &b) in y.iter_mut().zip(&u1).zip(&u2) {
            *y = mu + sigma * ((-2.0 * ln_fast(a)).sqrt() * cos_2pi_fast(b));
        }
        let margin = MARGIN * (1.0 + mu.abs() + sigma);
        let cap = self.max_depth as f64;
        let mut fallbacks = 0;
        for (i, (depth, &y)) in depths.iter_mut().zip(&y).enumerate() {
            let value = y.exp();
            let k = value.min(cap) as usize;
            let clear = value * (1.0 - margin) >= k as f64
                && (k == self.max_depth || value * (1.0 + margin) < (k + 1) as f64);
            *depth = if clear {
                k
            } else {
                fallbacks += 1;
                let value = normal.transform(u1[i], u2[i]).exp();
                (value.floor() as usize).min(self.max_depth)
            };
        }
        fallbacks
    }
}

/// How far the fast chain's `y` must clear an integer boundary `ln k`,
/// per unit of the draw's scale `1 + |μ| + σ`, to stand for libm's.
const MARGIN: f64 = 1e-9;

/// `ln x` for a normal positive `x`: the exponent split off, the mantissa
/// folded into `[√½, √2]`, then `ln m = 2·atanh f`, `f = (m − 1)/(m + 1)`,
/// by its odd series through `f¹⁷` (`|f| ≤ 0.172`, so the first term left
/// out is below 10⁻¹⁵ of the sum). The error is relative, as libm's is,
/// which `√(−2 ln u₁)` needs as `u₁ → 1`. Branch-free and libm-free.
fn ln_fast(x: f64) -> f64 {
    /// `1/(2n + 1)`, `n = 0..=8`.
    const ATANH: [f64; 9] = [
        1.0,
        1.0 / 3.0,
        1.0 / 5.0,
        1.0 / 7.0,
        1.0 / 9.0,
        1.0 / 11.0,
        1.0 / 13.0,
        1.0 / 15.0,
        1.0 / 17.0,
    ];
    const MANTISSA: u64 = (1 << 52) - 1;
    /// `2⁵²`: its bits with a biased exponent or-ed in read `2⁵² + e`.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let bits = x.to_bits();
    let m = f64::from_bits(bits & MANTISSA | 1.0_f64.to_bits());
    let e = f64::from_bits(TWO_52.to_bits() | bits >> 52) - (TWO_52 + 1023.0);
    let fold = m > std::f64::consts::SQRT_2;
    let (m, e) = if fold { (0.5 * m, e + 1.0) } else { (m, e) };
    let f = (m - 1.0) / (m + 1.0);
    e * std::f64::consts::LN_2 + 2.0 * f * polynomial(f * f, &ATANH)
}

/// `cos 2πu` for a `u ∈ [0, 1)` on rand's 2⁻⁵³ grid: folded onto the
/// quarter turn `b ∈ [0, ¼]` (`|u − ½|` and `½ − a` are exact on that
/// grid), then cosine's even Taylor series through `x¹⁸` at `x = 2πb ≤
/// π/2`, whose first term left out is below 4·10⁻¹⁵. Branch-free and
/// libm-free.
fn cos_2pi_fast(u: f64) -> f64 {
    /// `(−1)ⁿ/(2n)!`, `n = 0..=9`; every factorial is exact in `f64`.
    const COS: [f64; 10] = [
        1.0,
        -1.0 / 2.0,
        1.0 / 24.0,
        -1.0 / 720.0,
        1.0 / 40_320.0,
        -1.0 / 3_628_800.0,
        1.0 / 479_001_600.0,
        -1.0 / 87_178_291_200.0,
        1.0 / 20_922_789_888_000.0,
        -1.0 / 6_402_373_705_728_000.0,
    ];
    // cos 2πu = −cos 2πa, and cos 2πa = ±cos 2πb by the side of ¼ `a` is on.
    let a = (u - 0.5).abs();
    let b = a.min(0.5 - a);
    let x = std::f64::consts::TAU * b;
    let p = polynomial(x * x, &COS);
    if a > 0.25 {
        p
    } else {
        -p
    }
}

/// `Σ cₙ·wⁿ` by Horner's rule.
fn polynomial(w: f64, coefficients: &[f64]) -> f64 {
    coefficients.iter().rev().fold(0.0, |p, &c| p * w + c)
}

/// Stack distances [`RequestSampler`] draws at a time. On the paper
/// default (one pinned core of a Xeon) the draw phase costs 24–26 ns a
/// request from 16 to 64, 28 at 128 and 32 at 256, as misses throw away
/// more of a longer chunk; the walk phase costs 21–24 throughout. Drawn
/// through libm, the draw phase was 44–48 ns from 16 to 128.
const CHUNK: usize = 64;

/// A deterministic stream of `(object, demand)` requests combining the
/// virtual store's popularity with the temporal-locality model — what the
/// experiment driver draws from when spreading a trace bucket into
/// individual requests.
///
/// The sampler owns its generator, so it draws ahead: 64 stack distances
/// at a time, before it walks the LRU stack for any of them. The draw
/// takes the chunk's uniforms first, computes the lognormal's exponent
/// for all of them in vector lanes with polynomial `ln` and `cos`, and
/// certifies each depth against libm's, which it computes only for the
/// rare draw it cannot certify. Interleaved one request at a time, the
/// draw and the stack's `copy_within` would stall each other. A miss
/// needs the generator as it stood right after that request's own
/// distance draw, so it rewinds to there — the state at the chunk's
/// start, stepped past the distances already served — takes the
/// popularity draw, and drops the rest of the chunk: the stream of
/// requests is the one a draw-by-draw sampler gives, bit for bit.
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
            self.locality.draw_depths(&mut self.rng, &mut self.depths);
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

    /// The parameter sets of `contiguous_stack_matches_the_deque_reference`;
    /// the first is the paper default.
    fn parameter_sets() -> [LocalityModel; 3] {
        [
            LocalityModel::paper_default(),
            LocalityModel::new(10.0_f64.ln(), 2.0, 64),
            LocalityModel::new(3.0_f64.ln(), 2.5, 1),
        ]
    }

    /// Draw `chunks` chunks from `model` and a chunk's worth of libm
    /// depths (`LogNormal::sample`, floored, capped) from a clone of the
    /// generator beside each; every depth and the generators after every
    /// chunk must agree. Returns the fallbacks taken.
    fn assert_depths_match_the_libm_chain(
        model: &LocalityModel,
        seed: u64,
        chunks: usize,
    ) -> usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference = rng.clone();
        let mut depths = [0; CHUNK];
        let mut fallbacks = 0;
        for c in 0..chunks {
            fallbacks += model.draw_depths(&mut rng, &mut depths);
            for (i, &depth) in depths.iter().enumerate() {
                let value = model.distance.sample(&mut reference);
                let want = (value.floor() as usize).min(model.max_depth);
                assert_eq!(depth, want, "chunk {c} draw {i}, exp(y) = {value:e}");
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "chunk {c}");
        }
        fallbacks
    }

    #[test]
    fn sampler_depths_match_the_libm_chain() {
        for model in parameter_sets() {
            let draws = 1 << 20;
            let fallbacks = assert_depths_match_the_libm_chain(&model, 29, draws / CHUNK);
            // The fast path carries the stream; libm only stands in.
            assert!(fallbacks * 10_000 < draws, "{fallbacks} fallbacks");
        }
    }

    /// Run in release with `cargo test --release -p llc-workload --
    /// --ignored`; prints the fallbacks taken per parameter set.
    #[test]
    #[ignore = "10⁸ draws per parameter set, for a release build"]
    fn sampler_depths_match_the_libm_chain_over_1e8_draws() {
        for (seed, model) in parameter_sets().into_iter().enumerate() {
            let chunks = 100_000_000_usize.div_ceil(CHUNK);
            let fallbacks = assert_depths_match_the_libm_chain(&model, seed as u64, chunks);
            let normal = model.distance.normal();
            println!(
                "mu {:.4} sigma {} max_depth {}: {} draws, 0 mismatches, {fallbacks} fallbacks",
                normal.mean(),
                normal.std_dev(),
                model.max_depth,
                chunks * CHUNK,
            );
        }
    }

    /// Hands out a fixed list of raw draws.
    struct Script(std::vec::IntoIter<u64>);

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the script covers every draw")
        }
    }

    #[test]
    fn a_draw_on_a_boundary_takes_the_libm_chain() {
        let model = LocalityModel::paper_default();
        let normal = model.distance.normal();
        let (mu, sigma) = (normal.mean(), normal.std_dev());
        let margin = MARGIN * (1.0 + mu.abs() + sigma);
        // The raw draw whose uniform is `u`, rounded onto rand's grid.
        let raw = |u: f64| ((u * 2f64.powi(53)).round() as u64) << 11;
        let mut sides = std::collections::BTreeSet::new();
        // Above the median with `u₂ = 0` (cos = 1), below it with `u₂ = ½`
        // (cos = −1): `u₁ = exp(−s²/2)` puts `y = μ ± σ·s` on `ln k`.
        for (k, u2) in [(100.0_f64, 0.0), (7.0, 0.5)] {
            let s = (k.ln() - mu).abs() / sigma;
            let u1 = (-s * s / 2.0).exp();
            for nudge in -8_i64..=8 {
                let on_boundary = raw(u1).wrapping_add_signed(nudge << 11);
                let mut background = rand::rngs::StdRng::seed_from_u64(nudge as u64);
                let mut script: Vec<u64> = (0..2 * CHUNK).map(|_| background.next_u64()).collect();
                // Slot 37 of the chunk draws the boundary pair.
                script[74] = on_boundary;
                script[75] = raw(u2);
                let (u1, u2) =
                    box_muller_uniforms(&mut Script(vec![on_boundary, raw(u2)].into_iter()));
                let y = normal.transform(u1, u2);
                assert!((y - k.ln()).abs() < margin / 100.0, "y {y} is on ln {k}");
                let mut depths = [0; CHUNK];
                let fallbacks =
                    model.draw_depths(&mut Script(script.clone().into_iter()), &mut depths);
                assert_eq!(fallbacks, 1, "k {k} nudge {nudge}");
                let mut reference = Script(script.into_iter());
                for (i, &depth) in depths.iter().enumerate() {
                    let want = (model.distance.sample(&mut reference).floor() as usize)
                        .min(model.max_depth);
                    assert_eq!(depth, want, "k {k} nudge {nudge} draw {i}");
                }
                sides.insert(depths[37]);
            }
        }
        // The nudges straddle both boundaries: libm's chain lands either side.
        assert_eq!(sides.into_iter().collect::<Vec<_>>(), [6, 7, 99, 100]);
    }

    #[test]
    fn kernels_stay_within_a_hundredth_of_the_margin() {
        // The widest σ and the longest `√(−2 ln u₁)` (at the guard,
        // `u₁ = 10⁻³⁰⁰`) any draw in use meets.
        let sigma = 2.5;
        let longest = (-2.0 * 1e-300_f64.ln()).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2006);
        let grid = (0..1 << 20).map(|j| j as f64 / f64::from(1 << 20));
        let random: Vec<f64> = (0..1_000_000).map(|_| rng.gen::<f64>()).collect();
        let tails =
            (1..=1_024).flat_map(|j| [j as f64 / 2f64.powi(53), 1.0 - j as f64 / 2f64.powi(53)]);
        let points: Vec<f64> = grid.chain(random).chain(tails).collect();
        let (mut ln_worst, mut cos_worst) = (0.0_f64, 0.0_f64);
        for &u in &points {
            let u1 = u.max(1e-300);
            let s = |ln: f64| (-2.0 * ln).sqrt();
            ln_worst = ln_worst.max(sigma * (s(ln_fast(u1)) - s(u1.ln())).abs());
            let libm = (2.0 * std::f64::consts::PI * u).cos();
            cos_worst = cos_worst.max(sigma * longest * (cos_2pi_fast(u) - libm).abs());
        }
        assert!(ln_worst <= MARGIN / 100.0, "ln moves y by {ln_worst:e}");
        assert!(cos_worst <= MARGIN / 100.0, "cos moves y by {cos_worst:e}");
    }

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
