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
/// Panics if `width` is not positive.
pub fn spread_arrivals<R: rand::Rng>(rng: &mut R, start: f64, width: f64, n: usize) -> Vec<f64> {
    assert!(width > 0.0, "window width must be positive");
    let mut times: Vec<f64> = (0..n).map(|_| start + rng.gen::<f64>() * width).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
}
