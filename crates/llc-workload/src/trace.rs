use crate::{derive_seed, Gaussian};
use rand::SeedableRng;
use std::fmt;

/// Errors from trace construction and I/O.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// The bucket interval must be positive and finite.
    InvalidInterval(f64),
    /// A bucket count was negative or non-finite.
    InvalidCount {
        /// Index of the offending bucket.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Rebucketing requires the new interval to be an integer multiple or
    /// divisor of the old one.
    IncompatibleInterval {
        /// Current bucket width (seconds).
        current: f64,
        /// Requested bucket width (seconds).
        requested: f64,
    },
    /// CSV parsing failed at the given line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidInterval(v) => {
                write!(f, "bucket interval must be positive and finite, got {v}")
            }
            TraceError::InvalidCount { index, value } => {
                write!(f, "bucket {index} has invalid count {value}")
            }
            TraceError::IncompatibleInterval { current, requested } => write!(
                f,
                "cannot rebucket from {current} s to {requested} s (not an integer ratio)"
            ),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// An arrival-count time series: `counts[k]` requests arrived during
/// bucket `k` of fixed width `interval` seconds.
///
/// This is the exchange format between workload generators, the plotting
/// binaries (the paper plots HTTP requests "at 2-minute intervals") and
/// the experiment driver, which spreads each bucket into individual
/// arrival instants.
// CSV (`to_csv`/`from_csv`) is the wire format; the build environment has
// no registry access for serde, whose derives were unused here.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    interval: f64,
    counts: Vec<f64>,
}

impl Trace {
    /// Build a trace from a bucket width (seconds) and per-bucket counts.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidInterval`] / [`TraceError::InvalidCount`].
    pub fn new(interval: f64, counts: Vec<f64>) -> Result<Self, TraceError> {
        if interval <= 0.0 || !interval.is_finite() {
            return Err(TraceError::InvalidInterval(interval));
        }
        for (index, &value) in counts.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::InvalidCount { index, value });
            }
        }
        Ok(Trace { interval, counts })
    }

    /// Bucket width in seconds.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if the trace has no buckets.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Count in bucket `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn count(&self, k: usize) -> f64 {
        self.counts[k]
    }

    /// Arrival rate of bucket `k` in requests/second.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn rate(&self, k: usize) -> f64 {
        self.counts[k] / self.interval
    }

    /// Total requests across the trace.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Largest bucket count (0.0 for an empty trace).
    pub fn peak(&self) -> f64 {
        self.counts.iter().copied().fold(0.0, f64::max)
    }

    /// Mean bucket count (0.0 for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total() / self.counts.len() as f64
        }
    }

    /// Total duration covered, in seconds.
    #[cfg(test)]
    pub(crate) fn duration(&self) -> f64 {
        self.interval * self.counts.len() as f64
    }

    /// Multiply every bucket by `factor` (the paper scales its base ISP
    /// workload "by a factor of four").
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Trace {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and >= 0"
        );
        Trace {
            interval: self.interval,
            counts: self.counts.iter().map(|c| c * factor).collect(),
        }
    }

    /// A sub-trace over bucket range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> Trace {
        assert!(
            start <= end && end <= self.counts.len(),
            "invalid slice range"
        );
        Trace {
            interval: self.interval,
            counts: self.counts[start..end].to_vec(),
        }
    }

    /// Add zero-mean Gaussian noise with the given standard deviation to
    /// buckets `[start, end)`, clamping at zero. The paper adds noise with
    /// variance 200/300/500 arrivals *per 30-second interval* to three
    /// segments of its synthetic workload; callers convert variances to
    /// the trace's bucket width before calling (independent noise scales
    /// linearly in the interval).
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or `std_dev < 0`.
    pub fn add_gaussian_noise(&mut self, start: usize, end: usize, std_dev: f64, seed: u64) {
        assert!(
            start <= end && end <= self.counts.len(),
            "invalid noise range"
        );
        let g = Gaussian::new(0.0, std_dev);
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, start as u64));
        for c in &mut self.counts[start..end] {
            *c = (*c + g.sample(&mut rng)).max(0.0);
        }
    }

    /// Re-bucket to a new interval. Aggregates when `new_interval` is an
    /// integer multiple of the current width (the final partial bucket is
    /// dropped); splits counts evenly when it is an integer divisor.
    ///
    /// # Errors
    ///
    /// [`TraceError::IncompatibleInterval`] when the ratio is not integral
    /// either way.
    pub fn rebucket(&self, new_interval: f64) -> Result<Trace, TraceError> {
        if new_interval <= 0.0 || !new_interval.is_finite() {
            return Err(TraceError::InvalidInterval(new_interval));
        }
        let ratio = new_interval / self.interval;
        let err = TraceError::IncompatibleInterval {
            current: self.interval,
            requested: new_interval,
        };
        if ratio >= 1.0 {
            let k = ratio.round();
            if (ratio - k).abs() > 1e-9 {
                return Err(err);
            }
            let k = k as usize;
            let counts = self
                .counts
                .chunks_exact(k)
                .map(|chunk| chunk.iter().sum())
                .collect();
            Ok(Trace {
                interval: new_interval,
                counts,
            })
        } else {
            let inv = (1.0 / ratio).round();
            if (1.0 / ratio - inv).abs() > 1e-9 {
                return Err(err);
            }
            let k = inv as usize;
            let mut counts = Vec::with_capacity(self.counts.len() * k);
            for &c in &self.counts {
                for _ in 0..k {
                    counts.push(c / k as f64);
                }
            }
            Ok(Trace {
                interval: new_interval,
                counts,
            })
        }
    }

    /// Iterate `(bucket_start_time_secs, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(k, &c)| (k as f64 * self.interval, c))
    }

    /// Serialize as two-column CSV (`time_secs,count`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_secs,count\n");
        for (t, c) in self.iter() {
            out.push_str(&format!("{t},{c}\n"));
        }
        out
    }

    /// Parse the CSV format produced by [`Trace::to_csv`]. The interval is
    /// inferred from the first two rows (a single-row trace gets interval
    /// 1.0).
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] on malformed input.
    pub fn from_csv(text: &str) -> Result<Trace, TraceError> {
        let mut times = Vec::new();
        let mut counts = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 && line.starts_with("time") {
                continue;
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let parse = |s: Option<&str>, what: &str| -> Result<f64, TraceError> {
                s.ok_or_else(|| TraceError::Parse {
                    line: i + 1,
                    message: format!("missing {what}"),
                })?
                .trim()
                .parse::<f64>()
                .map_err(|e| TraceError::Parse {
                    line: i + 1,
                    message: format!("bad {what}: {e}"),
                })
            };
            times.push(parse(parts.next(), "time")?);
            counts.push(parse(parts.next(), "count")?);
        }
        let interval = if times.len() >= 2 {
            times[1] - times[0]
        } else {
            1.0
        };
        Trace::new(interval, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn trace(counts: Vec<f64>) -> Trace {
        Trace::new(120.0, counts).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = trace(vec![10.0, 20.0, 30.0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.interval(), 120.0);
        assert_eq!(t.total(), 60.0);
        assert_eq!(t.peak(), 30.0);
        assert_eq!(t.mean(), 20.0);
        assert_eq!(t.duration(), 360.0);
        assert!((t.rate(1) - 20.0 / 120.0).abs() < 1e-12);
        assert!(!t.is_empty());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            Trace::new(0.0, vec![1.0]),
            Err(TraceError::InvalidInterval(_))
        ));
        assert!(matches!(
            Trace::new(1.0, vec![1.0, -2.0]),
            Err(TraceError::InvalidCount { index: 1, .. })
        ));
        assert!(matches!(
            Trace::new(1.0, vec![f64::NAN]),
            Err(TraceError::InvalidCount { index: 0, .. })
        ));
    }

    #[test]
    fn scaling_multiplies_counts() {
        let t = trace(vec![1.0, 2.0]).scaled(4.0);
        assert_eq!(t.counts(), &[4.0, 8.0]);
    }

    #[test]
    fn slicing() {
        let t = trace(vec![1.0, 2.0, 3.0, 4.0]);
        let s = t.slice(1, 3);
        assert_eq!(s.counts(), &[2.0, 3.0]);
        assert_eq!(s.interval(), 120.0);
    }

    #[test]
    fn rebucket_aggregate() {
        let t = Trace::new(30.0, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let agg = t.rebucket(60.0).unwrap();
        assert_eq!(agg.counts(), &[3.0, 7.0], "partial tail dropped");
        assert_eq!(agg.interval(), 60.0);
    }

    #[test]
    fn rebucket_split_conserves_total() {
        let t = Trace::new(120.0, vec![8.0, 4.0]).unwrap();
        let split = t.rebucket(30.0).unwrap();
        assert_eq!(split.len(), 8);
        assert!((split.total() - t.total()).abs() < 1e-12);
        assert_eq!(split.count(0), 2.0);
        assert_eq!(split.count(4), 1.0);
    }

    #[test]
    fn rebucket_incompatible_ratio_errors() {
        let t = trace(vec![1.0; 10]);
        assert!(matches!(
            t.rebucket(50.0),
            Err(TraceError::IncompatibleInterval { .. })
        ));
    }

    #[test]
    fn noise_clamps_at_zero_and_is_deterministic() {
        let mut a = trace(vec![5.0; 100]);
        let mut b = trace(vec![5.0; 100]);
        a.add_gaussian_noise(0, 100, 50.0, 7);
        b.add_gaussian_noise(0, 100, 50.0, 7);
        assert_eq!(a, b, "same seed, same noise");
        assert!(a.counts().iter().all(|&c| c >= 0.0));
        assert_ne!(a.counts(), trace(vec![5.0; 100]).counts());
    }

    #[test]
    fn noise_outside_range_untouched() {
        let mut t = trace(vec![5.0; 10]);
        t.add_gaussian_noise(2, 4, 100.0, 1);
        assert_eq!(t.count(0), 5.0);
        assert_eq!(t.count(9), 5.0);
    }

    #[test]
    fn csv_roundtrip() {
        let t = trace(vec![10.0, 20.5, 0.0]);
        let parsed = Trace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn csv_loader_reads_embedded_wc98_slice() {
        // A 12-bucket slice of a WC'98-like day around the evening
        // crest (2-minute buckets, requests per bucket) — the exact
        // wire format `bench_scale --trace wc98` replays.
        let slice = "\
time_secs,count
71280,39894
71400,41103
71520,42467
71640,43912
71760,45391
71880,46842
72000,48227
72120,49551
72240,50801
72360,51938
72480,52942
72600,53801
";
        let t = Trace::from_csv(slice).unwrap();
        assert_eq!(t.len(), 12);
        assert_eq!(t.interval(), 120.0, "interval inferred from rows");
        assert_eq!(t.count(0), 39894.0);
        assert_eq!(t.peak(), 53801.0);
        assert!((t.total() - 566_869.0).abs() < 1e-9);
        // The bench path rebuckets to 30 s controller windows and
        // scales to the plant's capacity; both must survive the load.
        let windows = t.rebucket(30.0).unwrap().scaled(0.5);
        assert_eq!(windows.len(), 48);
        assert!((windows.total() - 566_869.0 * 0.5).abs() < 1e-6);
    }

    #[test]
    fn csv_bad_line_reports_position() {
        let err = Trace::from_csv("time_secs,count\n0,1\n120,garbage\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 3, .. }));
    }

    proptest! {
        #[test]
        fn rebucket_aggregate_conserves_prefix_total(
            counts in proptest::collection::vec(0.0..100.0f64, 4..40),
            k in 2usize..5,
        ) {
            let t = Trace::new(10.0, counts.clone()).unwrap();
            let agg = t.rebucket(10.0 * k as f64).unwrap();
            let whole = (counts.len() / k) * k;
            let expected: f64 = counts[..whole].iter().sum();
            prop_assert!((agg.total() - expected).abs() < 1e-9);
        }
    }
}
