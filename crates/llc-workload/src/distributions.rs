use rand::Rng;

/// Derive an independent stream seed from a master seed and a stream id
/// (SplitMix64 finalizer). Separate components (noise, store, locality,
/// arrival jitter) get separate streams so ablations perturb one factor at
/// a time.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gaussian (normal) distribution sampled by the Box-Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// A normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is non-finite, or `std_dev` is negative or
    /// non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "standard deviation must be finite and >= 0, got {std_dev}"
        );
        Gaussian { mean, std_dev }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let (u1, u2) = box_muller_uniforms(rng);
        self.transform(u1, u2)
    }

    /// Box–Muller's sample at the uniforms [`box_muller_uniforms`] drew.
    pub(crate) fn transform(&self, u1: f64, u2: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// The two uniforms one Box–Muller sample takes, in draw order, the first
/// guarded away from 0.
pub(crate) fn box_muller_uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// The paper's temporal-locality model: "in many web workloads, temporal
/// locality follows a lognormal distribution" (Barford & Crovella).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Gaussian,
}

impl LogNormal {
    /// Lognormal with log-space mean `mu` and log-space std `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is non-finite, or `sigma` is negative or non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Gaussian::new(mu, sigma),
        }
    }

    /// The median of the distribution, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.normal.mean().exp()
    }

    /// Draw one sample (always positive).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }

    /// The normal whose exponential this is.
    pub(crate) fn normal(&self) -> Gaussian {
        self.normal
    }
}

/// Zipf distribution over ranks `1..=n`: `P(rank k) ∝ 1/k^s`.
///
/// Sampling is by inverse CDF over a precomputed table (O(log n) per
/// draw), sized for the virtual store's 10,000 objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s` (classic Zipf's law: `s = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf, exponent: s }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if there are no ranks (never: the constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds `len()`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "rank out of range");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Draw a 0-based rank (`0` = most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn derive_seed_differs_per_stream() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0), "deterministic");
    }

    #[test]
    #[should_panic(expected = "mean must be finite")]
    fn gaussian_refuses_a_non_finite_mean() {
        // A lognormal stack distance built on it would be NaN, and
        // `NaN as usize == 0` re-references the front of the stack for ever.
        let _ = LogNormal::new(f64::NAN, 1.5);
    }

    #[test]
    fn gaussian_moments() {
        let g = Gaussian::new(10.0, 2.0);
        let mut r = rng(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    /// Counts the raw draws taken from the generator it wraps.
    struct CountingRng(rand::rngs::StdRng, usize);

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn a_gaussian_sample_takes_two_raw_draws() {
        // `RequestSampler` rewinds its generator by counting on it.
        let mut r = CountingRng(rng(8), 0);
        for n in 1..=1_000 {
            LogNormal::new(50.0_f64.ln(), 1.5).sample(&mut r);
            assert_eq!(r.1, 2 * n);
        }
    }

    #[test]
    fn zero_std_gaussian_is_constant() {
        let g = Gaussian::new(5.0, 0.0);
        let mut r = rng(2);
        assert_eq!(g.sample(&mut r), 5.0);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let ln = LogNormal::new(3.0, 1.0);
        let mut r = rng(3);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| ln.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        assert!(
            (median - ln.median()).abs() / ln.median() < 0.1,
            "median {median} vs {}",
            ln.median()
        );
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng(4);
        let n = 50_000;
        let mut counts = vec![0usize; 1000];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        // With s=1 and n=1000, P(rank 1) = 1/H(1000) ≈ 0.1336.
        let p1 = counts[0] as f64 / n as f64;
        assert!((p1 - 0.1336).abs() < 0.01, "p1 = {p1}");
        // Monotone-ish decay over decades.
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[99]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(1) > z.pmf(2));
        assert_eq!(z.len(), 50);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn zipf_sample_in_range(n in 1usize..200, s in 0.0..2.5f64, seed in 0u64..100) {
            let z = Zipf::new(n, s);
            let mut r = rng(seed);
            for _ in 0..20 {
                prop_assert!(z.sample(&mut r) < n);
            }
        }

        #[test]
        fn gaussian_is_finite(mean in -1e6..1e6f64, std in 0.0..1e3f64, seed in 0u64..100) {
            let g = Gaussian::new(mean, std);
            let mut r = rng(seed);
            prop_assert!(g.sample(&mut r).is_finite());
        }
    }
}
