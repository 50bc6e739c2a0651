use crate::Trace;

/// A smooth diurnal base curve: a baseline plus Gaussian-shaped humps,
/// mimicking the de-noised "underlying structure" the paper extracts from
/// the ISP workload of Arlitt & Williamson before re-adding noise.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalShape {
    baseline: f64,
    /// (amplitude, center bucket, width in buckets) per hump.
    humps: Vec<(f64, f64, f64)>,
}

impl DiurnalShape {
    /// A flat baseline with no humps.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is negative or non-finite.
    pub fn new(baseline: f64) -> Self {
        assert!(
            baseline.is_finite() && baseline >= 0.0,
            "baseline must be finite and >= 0"
        );
        DiurnalShape {
            baseline,
            humps: Vec::new(),
        }
    }

    /// Add a Gaussian hump of the given amplitude centered at bucket
    /// `center` with width (std dev) `width` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude < 0` or `width <= 0`.
    #[must_use]
    pub(crate) fn with_hump(mut self, amplitude: f64, center: f64, width: f64) -> Self {
        assert!(amplitude >= 0.0, "hump amplitude must be >= 0");
        assert!(width > 0.0, "hump width must be positive");
        self.humps.push((amplitude, center, width));
        self
    }

    /// Evaluate the curve at (fractional) bucket index `k`.
    pub fn eval(&self, k: f64) -> f64 {
        let mut v = self.baseline;
        for &(a, c, w) in &self.humps {
            let z = (k - c) / w;
            v += a * (-0.5 * z * z).exp();
        }
        v
    }
}

/// One noise segment: buckets `[start, end)` receive zero-mean Gaussian
/// noise of variance `var_per_30s` *per 30-second interval* (the paper's
/// unit). The builder converts to the trace's bucket width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NoiseSegment {
    /// First bucket of the segment.
    pub start: usize,
    /// One past the last bucket.
    pub(crate) end: usize,
    /// Noise variance per 30-second interval (arrivals²).
    pub(crate) var_per_30s: f64,
}

/// Builder for §4.3-style synthetic workloads: a smooth diurnal base
/// curve, a global scale factor, and segment-wise Gaussian noise.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticBuilder {
    shape: DiurnalShape,
    buckets: usize,
    interval: f64,
    scale: f64,
    segments: Vec<NoiseSegment>,
}

impl SyntheticBuilder {
    /// Start from a base shape sampled into `buckets` buckets of
    /// `interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `interval <= 0`.
    pub fn new(shape: DiurnalShape, buckets: usize, interval: f64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(interval > 0.0, "interval must be positive");
        SyntheticBuilder {
            shape,
            buckets,
            interval,
            scale: 1.0,
            segments: Vec::new(),
        }
    }

    /// Scale the whole curve ("scaled by a factor of four before adding
    /// noise").
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale must be >= 0");
        self.scale = factor;
        self
    }

    /// Add a noise segment.
    #[must_use]
    pub(crate) fn with_noise(mut self, segment: NoiseSegment) -> Self {
        assert!(segment.start <= segment.end, "segment range inverted");
        assert!(segment.end <= self.buckets, "segment out of range");
        assert!(segment.var_per_30s >= 0.0, "variance must be >= 0");
        self.segments.push(segment);
        self
    }

    /// Generate the trace deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Trace {
        let counts: Vec<f64> = (0..self.buckets)
            .map(|k| self.scale * self.shape.eval(k as f64))
            .collect();
        let mut trace = Trace::new(self.interval, counts)
            .expect("shape values are finite and non-negative by construction");
        // Independent per-30s noise aggregates over a w-second bucket with
        // variance var_per_30s · (w / 30).
        let per_bucket_factor = self.interval / 30.0;
        for seg in &self.segments {
            let std_dev = (seg.var_per_30s * per_bucket_factor).sqrt();
            trace.add_gaussian_noise(seg.start, seg.end, std_dev, seed);
        }
        trace
    }
}

/// The paper's §4.3 synthetic workload: 1600 two-minute buckets shaped
/// like the (denoised, ×4-scaled) ISP trace, with Gaussian noise of
/// variance 200 / 300 / 500 arrivals per 30-second interval over segments
/// `[0, 300]`, `[301, 1025]` and `[1026, 1600]`, peaking near 2·10⁴
/// requests per bucket as in Fig. 4.
pub fn synthetic_paper_workload(seed: u64) -> Trace {
    let shape = DiurnalShape::new(2500.0)
        .with_hump(8000.0, 420.0, 160.0) // first (smaller) daily crest
        .with_hump(15500.0, 1150.0, 200.0) // main crest, ~1.8e4 peak
        .with_hump(3000.0, 800.0, 300.0); // broad shoulder between crests
    SyntheticBuilder::new(shape, 1600, 120.0)
        .scaled(1.0) // the ×4 of the paper is already folded into amplitudes
        .with_noise(NoiseSegment {
            start: 0,
            end: 301,
            var_per_30s: 200.0,
        })
        .with_noise(NoiseSegment {
            start: 301,
            end: 1026,
            var_per_30s: 300.0,
        })
        .with_noise(NoiseSegment {
            start: 1026,
            end: 1600,
            var_per_30s: 500.0,
        })
        .build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_eval_sums_humps() {
        let s = DiurnalShape::new(100.0).with_hump(50.0, 10.0, 5.0);
        assert!(
            (s.eval(10.0) - 150.0).abs() < 1e-9,
            "peak = baseline + amplitude"
        );
        assert!(s.eval(0.0) < 150.0 && s.eval(0.0) >= 100.0);
        // Far from the hump, only the baseline remains.
        assert!((s.eval(1000.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn paper_workload_dimensions() {
        let t = synthetic_paper_workload(42);
        assert_eq!(t.len(), 1600);
        assert_eq!(t.interval(), 120.0);
    }

    #[test]
    fn paper_workload_peak_matches_fig4_scale() {
        let t = synthetic_paper_workload(42);
        // Fig. 4's y-axis tops out near 2e4 requests per 2-minute bucket.
        assert!(t.peak() > 1.4e4, "peak {}", t.peak());
        assert!(t.peak() < 2.2e4, "peak {}", t.peak());
        // Trough stays well below the crest (time-of-day variation).
        let early_mean = t.slice(0, 100).mean();
        let crest_mean = t.slice(1100, 1200).mean();
        assert!(crest_mean > 3.0 * early_mean);
    }

    #[test]
    fn paper_workload_noise_grows_by_segment() {
        // Estimate per-segment residual variance against the smooth base.
        let noisy = synthetic_paper_workload(1);
        let shape = DiurnalShape::new(2500.0)
            .with_hump(8000.0, 420.0, 160.0)
            .with_hump(15500.0, 1150.0, 200.0)
            .with_hump(3000.0, 800.0, 300.0);
        let clean = SyntheticBuilder::new(shape, 1600, 120.0).build(0);
        let seg_var = |a: usize, b: usize| {
            let diffs: Vec<f64> = (a..b).map(|k| noisy.count(k) - clean.count(k)).collect();
            let m = diffs.iter().sum::<f64>() / diffs.len() as f64;
            diffs.iter().map(|d| (d - m).powi(2)).sum::<f64>() / diffs.len() as f64
        };
        let v1 = seg_var(0, 300);
        let v3 = seg_var(1026, 1600);
        assert!(
            v3 > 1.5 * v1,
            "variance must grow between segment 1 ({v1:.0}) and segment 3 ({v3:.0})"
        );
        // Absolute level: segment 1 should be near 200 · (120/30) = 800.
        assert!(
            (v1 - 800.0).abs() / 800.0 < 0.35,
            "segment-1 variance {v1:.0}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        assert_eq!(synthetic_paper_workload(9), synthetic_paper_workload(9));
        assert_ne!(
            synthetic_paper_workload(9).counts(),
            synthetic_paper_workload(10).counts()
        );
    }

    #[test]
    #[should_panic(expected = "segment out of range")]
    fn out_of_range_segment_panics() {
        let _ = SyntheticBuilder::new(DiurnalShape::new(1.0), 10, 30.0).with_noise(NoiseSegment {
            start: 0,
            end: 11,
            var_per_30s: 1.0,
        });
    }

    #[test]
    fn all_counts_nonnegative() {
        let t = synthetic_paper_workload(3);
        assert!(t.counts().iter().all(|&c| c >= 0.0));
    }
}
