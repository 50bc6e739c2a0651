//! Workload generation for the hierarchical LLC reproduction.
//!
//! The paper evaluates its controllers against two workloads:
//!
//! 1. **§4.3 synthetic workload** — an ISP HTTP trace (Arlitt & Williamson
//!    1996) denoised, scaled ×4, with segment-wise Gaussian noise of
//!    variance 200/300/500 arrivals per 30-second interval added back
//!    ([`synthetic_paper_workload`]).
//! 2. **WC'98** — HTTP requests to the France'98 World Cup site.
//!    The original HP Labs trace is not distributable, so
//!    [`wc98_like_day`] and [`wc98_like_fig6`] synthesize traces with the
//!    same qualitative features (strong diurnal swing, sharp match-time
//!    peak, 2-minute buckets); README's workspace layout notes the
//!    substitution.
//!
//! Request bodies are drawn from a **virtual store** of 10,000 objects
//! whose per-object processing times are uniform on (10, 25) ms, with a
//! popular set of 1,000 objects receiving 90 % of requests (Zipf-ranked
//! within each set) and lognormal **temporal locality** — all exactly the
//! §4.3 recipe.
//!
//! Every sampler is seeded and deterministic. Distributions (Gaussian,
//! Zipf, lognormal) are implemented in this crate on top of the
//! `rand` uniform source — no external statistics dependency.
//!
//! [`RequestSampler`] owns its generator and draws ahead: 64 stack
//! distances at a time, before it walks its LRU stack for any of them,
//! because the draw and the stack's move-to-front stall each other when
//! they alternate. The draw computes the lognormal's exponent for the
//! whole chunk with polynomial `ln` and `cos` in vector lanes, and takes
//! libm's `ln`/`cos`/`exp` chain only for a depth it cannot certify equal
//! to that chain's (two draws in a million on the paper default). The
//! stream cannot tell. Only a request that misses the stack takes further
//! draws, and it first rewinds the generator to where its own distance
//! draw left it and drops the rest of the chunk — every draw comes from
//! the state a sampler working one request at a time would take it from.
//! [`spread_arrivals_into`] is the arrival-instant half of a window, on
//! buffers its caller keeps.
//!
//! # Example
//!
//! ```
//! use llc_workload::{Trace, VirtualStore, RequestSampler, synthetic_paper_workload};
//!
//! let trace = synthetic_paper_workload(42);
//! assert_eq!(trace.len(), 1600);            // 1600 two-minute buckets
//! let store = VirtualStore::paper_default(7);
//! let mut sampler = RequestSampler::paper_default(&store, 11);
//! let (object, demand) = sampler.next_request();
//! assert!(object < 10_000);
//! assert!(demand >= 0.010 && demand <= 0.025);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod distributions;
mod drift;
mod faults;
mod flash;
mod locality;
mod store;
mod synthetic;
mod trace;
mod wc98;

pub use distributions::{derive_seed, Gaussian};
pub use drift::{
    deep_degradation_scenario, drift_scenarios, CapacityProfile, DriftScenario,
    DRIFT_SCENARIO_NAMES,
};
pub use faults::{
    fault_scenarios, FaultEvent, FaultKind, FaultPlan, FaultScenario, FAULT_SCENARIO_NAMES,
    MIN_FAULT_MACHINES, MIN_FAULT_TICKS,
};
pub use flash::FlashCrowd;
pub use locality::RequestSampler;
pub use store::VirtualStore;
pub use synthetic::{synthetic_paper_workload, DiurnalShape, SyntheticBuilder};
pub use trace::{Trace, TraceError};
pub use wc98::{wc98_like_day, wc98_like_fig6};

/// Working storage of [`spread_arrivals_into`], kept by a caller that
/// spreads window after window so that none but the largest allocates.
#[derive(Debug, Clone, Default)]
pub struct SpreadScratch {
    /// The draws, in draw order.
    draws: Vec<f64>,
    /// Each draw's bucket.
    buckets: Vec<u32>,
    /// Per bucket: one past the last output slot not yet filled.
    ends: Vec<u32>,
}

/// Spread `n` arrivals uniformly at random inside the window
/// `[start, start + width)`, returned sorted — the standard way of turning
/// a per-bucket count trace into individual arrival instants.
///
/// # Panics
///
/// As [`spread_arrivals_into`].
pub fn spread_arrivals<R: rand::Rng>(rng: &mut R, start: f64, width: f64, n: usize) -> Vec<f64> {
    let mut times = Vec::new();
    spread_arrivals_into(
        rng,
        start,
        width,
        n,
        &mut SpreadScratch::default(),
        &mut times,
    );
    times
}

/// [`spread_arrivals`] on the caller's buffers: `times` is overwritten
/// with the `n` sorted instants, and neither it nor `scratch` allocates
/// once it has held a window as large.
///
/// # Panics
///
/// Panics if `width` is not positive and finite, `start` is not finite,
/// or `n` exceeds `u32::MAX` (bucket ids are `u32`).
pub fn spread_arrivals_into<R: rand::Rng>(
    rng: &mut R,
    start: f64,
    width: f64,
    n: usize,
    scratch: &mut SpreadScratch,
    times: &mut Vec<f64>,
) {
    assert!(
        width > 0.0 && width.is_finite(),
        "window width must be positive and finite, got {width}"
    );
    assert!(
        start.is_finite(),
        "window start must be finite, got {start}"
    );
    assert!(
        u32::try_from(n).is_ok(),
        "a window holds at most u32::MAX arrivals, got {n}"
    );
    let SpreadScratch {
        draws,
        buckets,
        ends,
    } = scratch;
    draws.clear();
    draws.reserve(n);
    buckets.clear();
    buckets.reserve(n);
    ends.clear();
    ends.resize(n, 0);
    times.clear();
    times.resize(n, 0.0);
    // `n` uniform draws over `n` equal-width buckets leave about one per
    // bucket: a counting pass puts every draw within a few places of its
    // rank, and the insertion pass that finishes the order under
    // `total_cmp` (the order `sort_by(f64::total_cmp)` gives) has next to
    // nothing left to move. A draw is bucketed by its uniform, on which
    // its instant never decreases, so the buckets order the instants as
    // well as buckets of the instants would.
    for _ in 0..n {
        let u = rng.gen::<f64>();
        let t = start + u * width;
        let bucket = ((u * n as f64) as usize).min(n - 1);
        draws.push(t);
        buckets.push(bucket as u32);
        ends[bucket] += 1;
    }
    let mut filled = 0;
    for end in ends.iter_mut() {
        filled += *end;
        *end = filled;
    }
    for (&t, &bucket) in draws.iter().zip(buckets.iter()).rev() {
        let slot = &mut ends[bucket as usize];
        *slot -= 1;
        times[*slot as usize] = t;
    }
    for i in 1..n {
        let t = times[i];
        let mut j = i;
        while j > 0 && times[j - 1].total_cmp(&t).is_gt() {
            times[j] = times[j - 1];
            j -= 1;
        }
        times[j] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn spread_arrivals_sorted_within_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let times = spread_arrivals(&mut rng, 100.0, 30.0, 500);
        assert_eq!(times.len(), 500);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (100.0..130.0).contains(&t)));
    }

    #[test]
    fn spread_zero_arrivals_is_empty() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(spread_arrivals(&mut rng, 0.0, 1.0, 0).is_empty());
    }

    /// `spread_arrivals` as it stood before the bucket pass: a comparison
    /// sort of the draws.
    fn spread_reference<R: rand::Rng>(rng: &mut R, start: f64, width: f64, n: usize) -> Vec<f64> {
        let mut times: Vec<f64> = (0..n).map(|_| start + rng.gen::<f64>() * width).collect();
        times.sort_by(f64::total_cmp);
        times
    }

    /// A source with eight bits of entropy per draw, so a window of any
    /// size repeats instants.
    #[derive(Clone)]
    struct Coarse(rand::rngs::StdRng);

    impl RngCore for Coarse {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64() & (0xFF << 56)
        }
    }

    /// A source that hands out each raw draw twice in a row, so every
    /// window of two or more arrivals holds a duplicate uniform.
    #[derive(Clone)]
    struct Twice(rand::rngs::StdRng, Option<u64>);

    impl RngCore for Twice {
        fn next_u64(&mut self) -> u64 {
            match self.1.take() {
                Some(x) => x,
                None => *self.1.insert(self.0.next_u64()),
            }
        }
    }

    #[test]
    fn bucketed_spread_matches_the_comparison_sort() {
        let bits = |times: Vec<f64>| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        // Tick 9600 of a 30 s day is where the instants have the fewest
        // bits left for the offset inside the window.
        for start in [0.0, -45.0, 9_600.0 * 30.0, 1e15] {
            for width in [30.0, 120.0, 1e-3] {
                for n in [0, 1, 2, 3, 7_000] {
                    let mut a = Twice(rand::rngs::StdRng::seed_from_u64(n as u64 + 7), None);
                    let mut b = a.clone();
                    let got = spread_arrivals(&mut a, start, width, n);
                    if n >= 2 {
                        assert!(got.windows(2).any(|w| w[0] == w[1]), "draws repeat");
                    }
                    assert_eq!(
                        bits(got),
                        bits(spread_reference(&mut b, start, width, n)),
                        "duplicate draws, start {start} width {width} n {n}"
                    );
                    let mut a = rand::rngs::StdRng::seed_from_u64(n as u64 + 5);
                    let mut b = a.clone();
                    assert_eq!(
                        bits(spread_arrivals(&mut a, start, width, n)),
                        bits(spread_reference(&mut b, start, width, n)),
                        "start {start} width {width} n {n}"
                    );
                    assert_eq!(a.next_u64(), b.next_u64(), "same draws taken");
                    let mut a = Coarse(rand::rngs::StdRng::seed_from_u64(n as u64 + 6));
                    let mut b = Coarse(a.0.clone());
                    let got = spread_arrivals(&mut a, start, width, n);
                    if n == 7_000 {
                        assert!(got.windows(2).any(|w| w[0] == w[1]), "instants repeat");
                    }
                    assert_eq!(
                        bits(got),
                        bits(spread_reference(&mut b, start, width, n)),
                        "repeated draws, start {start} width {width} n {n}"
                    );
                }
            }
        }
    }

    /// One scratch through windows of changing size gives what a fresh
    /// [`spread_arrivals`] gives from a clone of the generator.
    fn carried_scratch_matches_fresh<R: RngCore + Clone>(mut a: R) {
        let bits = |times: &[f64]| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        let (mut scratch, mut times) = (SpreadScratch::default(), Vec::new());
        for start in [0.0, -45.0, 9_600.0 * 30.0, 1e15] {
            for width in [30.0, 120.0, 1e-3] {
                // Shrinking leaves stale entries behind every buffer's
                // length; growing back reads none of them.
                for n in [7_000, 0, 1, 2, 7_000, 3] {
                    let mut b = a.clone();
                    spread_arrivals_into(&mut a, start, width, n, &mut scratch, &mut times);
                    assert_eq!(
                        bits(&times),
                        bits(&spread_arrivals(&mut b, start, width, n)),
                        "start {start} width {width} n {n}"
                    );
                    assert_eq!(a.clone().next_u64(), b.next_u64(), "same draws taken");
                }
            }
        }
    }

    #[test]
    fn a_scratch_carried_across_windows_spreads_as_a_fresh_one() {
        carried_scratch_matches_fresh(rand::rngs::StdRng::seed_from_u64(11));
        carried_scratch_matches_fresh(Coarse(rand::rngs::StdRng::seed_from_u64(12)));
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX arrivals")]
    fn spread_refuses_more_arrivals_than_bucket_ids() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (mut scratch, mut times) = (SpreadScratch::default(), Vec::new());
        let n = u32::MAX as usize + 1;
        spread_arrivals_into(&mut rng, 0.0, 30.0, n, &mut scratch, &mut times);
    }

    #[test]
    #[should_panic(expected = "width must be positive and finite")]
    fn spread_refuses_an_infinite_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        spread_arrivals(&mut rng, 0.0, f64::INFINITY, 3);
    }

    #[test]
    #[should_panic(expected = "start must be finite")]
    fn spread_refuses_a_non_finite_start() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        spread_arrivals(&mut rng, f64::NAN, 30.0, 3);
    }
}
