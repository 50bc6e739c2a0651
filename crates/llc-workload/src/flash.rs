use crate::Trace;

/// Parameters of a flash-crowd event superimposed on a trace.
///
/// The paper motivates proactive control with workloads that "change
/// quite significantly and quickly — usually in the order of a few
/// minutes"; a flash crowd is the extreme case: a sudden external event
/// multiplies traffic within minutes, then interest decays exponentially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Bucket index at which the ramp starts.
    pub start: usize,
    /// Peak multiplier over the base trace (≥ 1).
    pub magnitude: f64,
    /// Buckets from onset to peak (linear ramp; ≥ 1).
    pub rise: usize,
    /// Exponential decay constant after the peak, in buckets.
    pub decay: f64,
}

impl FlashCrowd {
    /// The multiplier applied to bucket `k`.
    pub(crate) fn multiplier(&self, k: usize) -> f64 {
        if k < self.start {
            return 1.0;
        }
        let peak_at = self.start + self.rise.max(1);
        if k < peak_at {
            // Linear climb 1 → magnitude.
            let frac = (k - self.start) as f64 / self.rise.max(1) as f64;
            1.0 + (self.magnitude - 1.0) * frac
        } else {
            // Exponential relaxation back to 1.
            let dt = (k - peak_at) as f64;
            1.0 + (self.magnitude - 1.0) * (-dt / self.decay.max(1e-9)).exp()
        }
    }

    /// Apply the event to a trace, returning the stressed trace.
    #[must_use]
    pub fn apply(&self, trace: &Trace) -> Trace {
        let counts: Vec<f64> = trace
            .counts()
            .iter()
            .enumerate()
            .map(|(k, &c)| c * self.multiplier(k))
            .collect();
        Trace::new(trace.interval(), counts)
            .expect("multiplying non-negative counts keeps them valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: usize) -> Trace {
        Trace::new(120.0, vec![1000.0; n]).unwrap()
    }

    #[test]
    fn multiplier_shape() {
        let f = FlashCrowd {
            start: 10,
            magnitude: 5.0,
            rise: 4,
            decay: 8.0,
        };
        assert_eq!(f.multiplier(0), 1.0);
        assert_eq!(f.multiplier(9), 1.0);
        assert!((f.multiplier(12) - 3.0).abs() < 1e-9, "halfway up the ramp");
        assert!((f.multiplier(14) - 5.0).abs() < 1e-9, "at the peak");
        assert!(f.multiplier(20) < 3.0, "decaying");
        assert!(f.multiplier(100) < 1.01, "eventually back to base");
    }

    #[test]
    fn apply_scales_counts() {
        let f = FlashCrowd {
            start: 5,
            magnitude: 3.0,
            rise: 2,
            decay: 4.0,
        };
        let stressed = f.apply(&flat(20));
        assert_eq!(stressed.count(0), 1000.0);
        assert!((stressed.count(7) - 3000.0).abs() < 1e-9);
        assert!(stressed.peak() <= 3000.0 + 1e-9);
        assert_eq!(stressed.len(), 20);
        assert_eq!(stressed.interval(), 120.0);
    }

    #[test]
    fn monotone_rise_then_monotone_decay() {
        let f = FlashCrowd {
            start: 0,
            magnitude: 10.0,
            rise: 5,
            decay: 6.0,
        };
        let t = f.apply(&flat(40));
        for k in 0..5 {
            assert!(t.count(k + 1) >= t.count(k), "rise must be monotone at {k}");
        }
        for k in 6..39 {
            assert!(
                t.count(k + 1) <= t.count(k) + 1e-9,
                "decay must be monotone at {k}"
            );
        }
    }
}
