//! Order statistics and the directive-log fingerprint.

use llc_cluster::{Directive, DirectiveKind, Level};

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `--repeat` reports the spread
/// the way the acceptance procedure computes it. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a directive sequence, bit-exact on every field: equal
/// logs hash equal, and the all-workloads parent compares the tcp run with
/// the in-process run across two child processes through it.
pub fn directive_hash(log: &[Directive]) -> u64 {
    let mut h = Fnv::new();
    h.u64(log.len() as u64);
    for d in log {
        h.u64(d.tick);
        h.f64(d.time);
        h.u64(match d.level {
            Level::L0 => 0,
            Level::L1 => 1,
            Level::L2 => 2,
        });
        h.u64(d.epoch);
        match &d.kind {
            DirectiveKind::Frequency { computer, index } => {
                h.u64(1);
                h.u64(*computer as u64);
                h.u64(*index as u64);
            }
            DirectiveKind::Activation { computer, on } => {
                h.u64(2);
                h.u64(*computer as u64);
                h.u64(u64::from(*on));
            }
            DirectiveKind::Split { module, weights } => {
                h.u64(3);
                h.u64(module.map_or(u64::MAX, |m| m as u64));
                h.u64(weights.len() as u64);
                for w in weights {
                    h.f64(*w);
                }
            }
            DirectiveKind::SafeMode { module, active } => {
                h.u64(4);
                h.u64(*module as u64);
                h.u64(u64::from(*active));
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
