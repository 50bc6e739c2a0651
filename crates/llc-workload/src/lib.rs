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
//!    peak, 2-minute buckets); DESIGN.md documents the substitution.
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

mod distributions;
mod drift;
mod faults;
mod flash;
mod locality;
mod store;
mod synthetic;
mod trace;
mod wc98;

pub use distributions::{derive_seed, Gaussian, LogNormal, Zipf};
pub use drift::{deep_degradation_scenario, drift_scenarios, CapacityProfile, DriftScenario};
pub use faults::{fault_scenarios, FaultEvent, FaultKind, FaultPlan, FaultScenario};
pub use flash::FlashCrowd;
pub use locality::{LocalityModel, RequestSampler};
pub use store::VirtualStore;
pub use synthetic::{synthetic_paper_workload, DiurnalShape, NoiseSegment, SyntheticBuilder};
pub use trace::{Trace, TraceError};
pub use wc98::{wc98_like_day, wc98_like_fig6};

/// Spread `n` arrivals uniformly at random inside the window
/// `[start, start + width)`, returned sorted — the standard way of turning
/// a per-bucket count trace into individual arrival instants.
///
/// # Panics
///
/// Panics if `width` is not positive and finite, or `start` is not finite.
pub fn spread_arrivals<R: rand::Rng>(rng: &mut R, start: f64, width: f64, n: usize) -> Vec<f64> {
    assert!(
        width > 0.0 && width.is_finite(),
        "window width must be positive and finite, got {width}"
    );
    assert!(
        start.is_finite(),
        "window start must be finite, got {start}"
    );
    let draws: Vec<f64> = (0..n).map(|_| start + rng.gen::<f64>() * width).collect();
    // `n` uniform draws over `n` equal-width buckets leave about one per
    // bucket: a counting pass puts every draw within a few places of its
    // rank, and the insertion pass that finishes the order under
    // `total_cmp` (the order `sort_by(f64::total_cmp)` gives) has next to
    // nothing left to move.
    let bucket = |t: f64| (((t - start) / width * n as f64) as usize).min(n - 1);
    let mut ends = vec![0usize; n];
    for &t in &draws {
        ends[bucket(t)] += 1;
    }
    let mut filled = 0;
    for end in &mut ends {
        filled += *end;
        *end = filled;
    }
    let mut times = vec![0.0; n];
    for &t in draws.iter().rev() {
        let slot = &mut ends[bucket(t)];
        *slot -= 1;
        times[*slot] = t;
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
    times
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
    struct Coarse(rand::rngs::StdRng);

    impl RngCore for Coarse {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64() & (0xFF << 56)
        }
    }

    #[test]
    fn bucketed_spread_matches_the_comparison_sort() {
        let bits = |times: Vec<f64>| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        // Tick 9600 of a 30 s day is where the instants have the fewest
        // bits left for the offset inside the window.
        for start in [0.0, -45.0, 9_600.0 * 30.0, 1e15] {
            for width in [30.0, 120.0, 1e-3] {
                for n in [0, 1, 2, 7_000] {
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
