//! Offline stand-in for the `rand` crate.
//!
//! The build environment of this repository has no registry access, so the
//! subset of the `rand` API the workspace uses is provided in-tree:
//! [`RngCore`]/[`Rng`] with `gen`/`gen_range`, [`SeedableRng`] with
//! `seed_from_u64`, and [`rngs::StdRng`] backed by xoshiro256++ seeded via
//! SplitMix64. The streams differ from upstream `rand`'s ChaCha-based
//! `StdRng`, but every consumer in this workspace only relies on *seeded
//! determinism*, not on a specific stream. Swap the workspace `rand` entry
//! back to crates.io to use the real crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// A source of random `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable from the "standard" distribution of [`Rng::gen`].
pub trait StandardSample {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        lo + u * (hi - lo)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i32, i64);

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draw from the standard distribution (`f64` uniform on `[0, 1)`).
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draw uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::sample_standard(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not the upstream `rand::rngs::StdRng` stream — only seeded
    /// determinism is promised, which is all this workspace relies on.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen::<f64>().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen::<f64>().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            let v = r.gen_range(-2.0..5.0);
            assert!((-2.0..5.0).contains(&v));
            let w = r.gen_range(0.010..=0.025);
            assert!((0.010..=0.025).contains(&w));
            let k = r.gen_range(3usize..9);
            assert!((3..9).contains(&k));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(4);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
