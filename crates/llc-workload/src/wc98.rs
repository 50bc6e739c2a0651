use crate::{derive_seed, Gaussian, Trace};
use rand::SeedableRng;

/// Catmull-Rom interpolation through control points (index, value),
/// evaluated at integer buckets `0..buckets`. Control points must cover
/// the full range.
fn interpolate(control: &[(f64, f64)], buckets: usize) -> Vec<f64> {
    assert!(control.len() >= 2, "need at least two control points");
    let mut out = Vec::with_capacity(buckets);
    for k in 0..buckets {
        let x = k as f64;
        // Find the segment [p1, p2] containing x.
        let seg = control
            .windows(2)
            .position(|w| x >= w[0].0 && x <= w[1].0)
            .unwrap_or(control.len() - 2);
        let p1 = control[seg];
        let p2 = control[seg + 1];
        let p0 = if seg == 0 { p1 } else { control[seg - 1] };
        let p3 = if seg + 2 < control.len() {
            control[seg + 2]
        } else {
            p2
        };
        let t = ((x - p1.0) / (p2.0 - p1.0)).clamp(0.0, 1.0);
        let t2 = t * t;
        let t3 = t2 * t;
        let v = 0.5
            * ((2.0 * p1.1)
                + (-p0.1 + p2.1) * t
                + (2.0 * p0.1 - 5.0 * p1.1 + 4.0 * p2.1 - p3.1) * t2
                + (-p0.1 + 3.0 * p1.1 - 3.0 * p2.1 + p3.1) * t3);
        out.push(v.max(0.0));
    }
    out
}

/// A WC'98-like full day at 2-minute buckets (720 buckets = 24 h),
/// matching the qualitative shape of Fig. 1(b): a quiet overnight floor,
/// a morning ramp, an afternoon plateau and a sharp evening (match-time)
/// crest, with multiplicative noise.
///
/// This is a **documented substitution** for the HP Labs WC'98 trace of
/// June 26, 1998, which is not redistributable; the controllers consume
/// only the count series, so shape fidelity is what matters.
pub fn wc98_like_day(seed: u64) -> Trace {
    // Control points: (bucket, requests per 2 min). Day starts at 00:00.
    let control = [
        (0.0, 9_000.0),    // midnight tail of the previous evening
        (90.0, 4_000.0),   // ~03:00 overnight floor
        (180.0, 3_500.0),  // ~06:00
        (270.0, 9_000.0),  // ~09:00 morning ramp
        (360.0, 17_000.0), // ~12:00
        (450.0, 22_000.0), // ~15:00 afternoon plateau
        (540.0, 40_000.0), // ~18:00 pre-match climb
        (600.0, 55_000.0), // ~20:00 match-time crest
        (660.0, 35_000.0), // ~22:00 decline
        (719.0, 15_000.0), // 23:58
    ];
    noisy_trace(&control, 720, seed)
}

/// The 600-bucket (20-hour) window used in Fig. 6 for the 16-computer
/// experiment: starts mid-morning, contains the full evening crest.
pub fn wc98_like_fig6(seed: u64) -> Trace {
    let control = [
        (0.0, 10_000.0),
        (80.0, 14_000.0),
        (160.0, 19_000.0),
        (260.0, 23_000.0),
        (350.0, 33_000.0),
        (430.0, 52_000.0), // crest
        (480.0, 45_000.0),
        (540.0, 30_000.0),
        (599.0, 18_000.0),
    ];
    noisy_trace(&control, 600, seed)
}

fn noisy_trace(control: &[(f64, f64)], buckets: usize, seed: u64) -> Trace {
    let base = interpolate(control, buckets);
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0xC98));
    let g = Gaussian::new(0.0, 1.0);
    let counts: Vec<f64> = base
        .iter()
        .map(|&b| {
            // ~6 % multiplicative noise — WC'98 "shows high variability
            // and noise" at minute scales.
            let noisy = b * (1.0 + 0.06 * g.sample(&mut rng));
            noisy.max(0.0)
        })
        .collect();
    Trace::new(120.0, counts).expect("counts are clamped non-negative")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_trace_dimensions() {
        let t = wc98_like_day(1);
        assert_eq!(t.len(), 720);
        assert_eq!(t.interval(), 120.0);
        assert!((t.duration() - 86_400.0).abs() < 1e-9);
    }

    #[test]
    fn day_trace_has_diurnal_swing_and_evening_peak() {
        let t = wc98_like_day(1);
        let overnight = t.slice(60, 120).mean(); // 02:00-04:00
        let evening = t.slice(570, 630).mean(); // 19:00-21:00
        assert!(
            evening > 6.0 * overnight,
            "evening {evening:.0} should dwarf overnight {overnight:.0}"
        );
        // Peak sits in the evening window.
        let peak = t.peak();
        let evening_peak = t.slice(540, 660).peak();
        assert!((peak - evening_peak).abs() < 1e-9);
    }

    #[test]
    fn fig6_trace_matches_papers_axis() {
        let t = wc98_like_fig6(1);
        assert_eq!(t.len(), 600);
        // Fig. 6's y-axis reaches ~6e4 requests per 2-minute bucket.
        assert!(t.peak() > 4.0e4, "peak {}", t.peak());
        assert!(t.peak() < 6.5e4, "peak {}", t.peak());
        // Rising from start toward the crest region.
        assert!(t.slice(400, 470).mean() > 2.0 * t.slice(0, 70).mean());
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        assert_eq!(wc98_like_day(5), wc98_like_day(5));
        assert_ne!(wc98_like_day(5).counts(), wc98_like_day(6).counts());
    }

    #[test]
    fn counts_nonnegative() {
        for seed in 0..5 {
            assert!(wc98_like_fig6(seed).counts().iter().all(|&c| c >= 0.0));
        }
    }

    #[test]
    fn interpolation_passes_near_control_points() {
        let control = [(0.0, 10.0), (5.0, 50.0), (10.0, 10.0)];
        let vals = interpolate(&control, 11);
        assert!((vals[0] - 10.0).abs() < 1e-9);
        assert!((vals[5] - 50.0).abs() < 1e-9);
        assert!((vals[10] - 10.0).abs() < 1e-9);
        // Smooth in between: strictly above the endpoints near the peak.
        assert!(vals[4] > 30.0 && vals[6] > 30.0);
    }
}
