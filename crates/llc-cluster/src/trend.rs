use std::sync::LazyLock;

/// A fixed-size row-major matrix; the kernel below is written over these
/// so a filter step touches the stack only.
type Mat<const R: usize, const C: usize> = [[f64; C]; R];

/// State transition of the level+slope model.
const F: Mat<2, 2> = [[1.0, 1.0], [0.0, 1.0]];
/// Observation model: the level is what is measured.
const H: Mat<1, 2> = [[1.0, 0.0]];
const IDENTITY: Mat<2, 2> = [[1.0, 0.0], [0.0, 1.0]];
/// Process noise of the level and of the slope: fast level adaptation,
/// slow slope adaptation, for web-workload arrival rates.
const PROCESS_NOISE: Mat<2, 2> = [[10.0, 0.0], [0.0, 0.1]];
/// Observation noise `r`.
const OBSERVATION_NOISE: Mat<1, 1> = [[100.0]];
/// Diffuse prior covariance: the first observations dominate.
const DIFFUSE: Mat<2, 2> = [[1e6, 0.0], [0.0, 1e6]];

// The helpers below perform, entry for entry, the floating-point
// operations of the general heap-backed `Matrix` this filter used to run
// on (now the test oracle in `matrix.rs`): the product skips zero left
// operands and starts every accumulation from `0.0 + a·b`. Forecasts feed
// a closed loop that amplifies one ulp into a different trajectory, so
// the order of operations is part of the contract; the differential
// tests below hold it to the bit.

fn matmul<const R: usize, const K: usize, const C: usize>(
    a: &Mat<R, K>,
    b: &Mat<K, C>,
) -> Mat<R, C> {
    let mut out = [[0.0; C]; R];
    for r in 0..R {
        for k in 0..K {
            let v = a[r][k];
            if v == 0.0 {
                continue;
            }
            for c in 0..C {
                out[r][c] += v * b[k][c];
            }
        }
    }
    out
}

fn zip_with<const R: usize, const C: usize>(
    a: &Mat<R, C>,
    b: &Mat<R, C>,
    op: impl Fn(f64, f64) -> f64,
) -> Mat<R, C> {
    let mut out = [[0.0; C]; R];
    for r in 0..R {
        for c in 0..C {
            out[r][c] = op(a[r][c], b[r][c]);
        }
    }
    out
}

fn plus<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>) -> Mat<R, C> {
    zip_with(a, b, |x, y| x + y)
}

fn minus<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>) -> Mat<R, C> {
    zip_with(a, b, |x, y| x - y)
}

fn transpose<const R: usize, const C: usize>(a: &Mat<R, C>) -> Mat<C, R> {
    let mut out = [[0.0; R]; C];
    for r in 0..R {
        for c in 0..C {
            out[c][r] = a[r][c];
        }
    }
    out
}

/// `(A + Aᵀ) · ½` — stops covariance drift over day-long runs.
fn symmetrize<const N: usize>(a: &Mat<N, N>) -> Mat<N, N> {
    zip_with(a, &transpose(a), |x, y| (x + y) * 0.5)
}

/// Equal bit for bit (`0.0` is not `-0.0`, and a NaN equals its own bits).
fn same_bits<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>) -> bool {
    a.iter()
        .flatten()
        .zip(b.iter().flatten())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The covariance half of a Kalman step from the posterior `p`: time
/// update, then measurement update (Joseph form, which keeps `P`
/// symmetric PSD). Returns the gain, the innovation variance
/// `H P Hᵀ + r` and the next posterior. It reads no data.
fn step_covariance(p: &Mat<2, 2>) -> (Mat<2, 1>, f64, Mat<2, 2>) {
    let h_t = transpose(&H);
    let prior = symmetrize(&plus(
        &matmul(&matmul(&F, p), &transpose(&F)),
        &PROCESS_NOISE,
    ));
    let s = plus(&matmul(&matmul(&H, &prior), &h_t), &OBSERVATION_NOISE)[0][0];
    let k = matmul(&matmul(&prior, &h_t), &[[1.0 / s]]);
    let i_kh = minus(&IDENTITY, &matmul(&k, &H));
    let a = matmul(&matmul(&i_kh, &prior), &transpose(&i_kh));
    let b = matmul(&matmul(&k, &OBSERVATION_NOISE), &transpose(&k));
    (k, s, symmetrize(&plus(&a, &b)))
}

/// `GAINS[n]` is the gain of a filter's step at `n` observations in; the
/// last entry is the gain of every later step too. The covariance
/// recursion never reads the data, so every filter runs the same one from
/// [`DIFFUSE`]: this is that recursion, run once, up to the step that
/// leaves the posterior bit for bit where it was — a fixed point, after
/// which every step returns the same gain (177 observations in).
static GAINS: LazyLock<Vec<Mat<2, 1>>> = LazyLock::new(|| {
    let mut p = DIFFUSE;
    let mut gains = Vec::new();
    loop {
        let (k, _, next) = step_covariance(&p);
        gains.push(k);
        if same_bits(&next, &p) {
            return gains;
        }
        p = next;
    }
});

/// Local-linear-trend forecaster — the paper's "ARIMA model, implemented
/// by a Kalman filter" for arrival-rate prediction.
///
/// Structural model (Harvey, *Forecasting, Structural Time Series Models
/// and the Kalman Filter*, the paper's ref. 16):
///
/// ```text
/// level(k+1) = level(k) + slope(k) + w_level
/// slope(k+1) = slope(k)            + w_slope
/// z(k)       = level(k)            + v
/// ```
///
/// Its reduced form is ARIMA(0,2,2), which tracks both the time-of-day
/// ramps and the level shifts of web workloads. The noise variances are
/// fixed at `(q_level, q_slope, r) = (10, 0.1, 100)`, and predictions are
/// arrival rates, floored at 0.
///
/// Every computer's L0 controller steps one of these each sampling
/// period, so a filter holds only its state and its count of finite
/// observations: the count indexes the shared gain table.
///
/// ```
/// use llc_cluster::LocalLinearTrend;
///
/// let mut f = LocalLinearTrend::with_default_noise();
/// for k in 0..50 {
///     f.observe(10.0 + 2.0 * k as f64); // a clean linear ramp
/// }
/// let ahead: Vec<f64> = f.predictions().take(3).collect();
/// assert!((ahead[0] - 110.0).abs() < 1.0);
/// assert!((ahead[2] - 114.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LocalLinearTrend {
    /// State estimate `[level, slope]ᵀ`.
    x: Mat<2, 1>,
    observations: u64,
}

impl LocalLinearTrend {
    /// A cold filter: zero state, diffuse prior.
    pub fn with_default_noise() -> Self {
        LocalLinearTrend {
            x: [[0.0], [0.0]],
            observations: 0,
        }
    }

    /// Absorb the newest observation. A non-finite sample is skipped, not
    /// counted: a forecast blackout should degrade, not crash, the
    /// controller.
    pub fn observe(&mut self, z: f64) {
        if !z.is_finite() {
            return;
        }
        let gains = &*GAINS;
        let k = gains[self.observations.min(gains.len() as u64 - 1) as usize];
        self.x = matmul(&F, &self.x);
        let y = minus(&[[z]], &matmul(&H, &self.x));
        self.x = plus(&self.x, &matmul(&k, &y));
        self.observations += 1;
    }

    /// The forecast as an endless iterator, one step ahead first, each
    /// value floored at 0.
    pub fn predictions(&self) -> impl Iterator<Item = f64> {
        let mut x = self.x;
        std::iter::repeat_with(move || {
            x = matmul(&F, &x);
            matmul(&H, &x)[0][0].max(0.0)
        })
    }

    /// The one-step-ahead forecast, floored at 0.
    pub fn predict_one(&self) -> f64 {
        self.predictions().next().expect("the forecast is endless")
    }

    /// Finite observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::KalmanFilter;
    use crate::matrix::Matrix;
    use proptest::prelude::*;

    /// What `LocalLinearTrend` was before it had a kernel: the same model
    /// run through the general heap-backed filter, covariance and all. The
    /// oracle.
    struct HeapTrend {
        kf: KalmanFilter,
        observations: u64,
    }

    impl HeapTrend {
        fn new() -> Self {
            let kf = KalmanFilter::new(
                Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
                Matrix::from_rows(&[&[1.0, 0.0]]),
                Matrix::diagonal(&[10.0, 0.1]),
                Matrix::diagonal(&[100.0]),
                Matrix::column(&[0.0, 0.0]),
                Matrix::diagonal(&[1e6, 1e6]),
            )
            .unwrap();
            HeapTrend {
                kf,
                observations: 0,
            }
        }

        fn observe(&mut self, value: f64) {
            if !value.is_finite() {
                return;
            }
            self.kf.step_scalar(value).unwrap();
            self.observations += 1;
        }

        fn predict(&self, horizon: usize) -> Vec<f64> {
            self.kf
                .forecast_observations(horizon)
                .into_iter()
                .map(|m| m.get(0, 0).max(0.0))
                .collect()
        }
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    /// Kernel and oracle agree on the bits of the state and of every
    /// forecast up to `horizons` steps.
    fn assert_same_state(kernel: &LocalLinearTrend, oracle: &HeapTrend, horizons: usize) {
        let state = oracle.kf.state();
        assert_eq!(kernel.x[0][0].to_bits(), state.get(0, 0).to_bits());
        assert_eq!(kernel.x[1][0].to_bits(), state.get(1, 0).to_bits());
        assert_eq!(kernel.observations(), oracle.observations);
        assert_eq!(
            kernel.predict_one().to_bits(),
            oracle.predict(1)[0].to_bits()
        );
        for h in 0..=horizons {
            assert_eq!(
                bits(kernel.predictions().take(h)),
                bits(oracle.predict(h)),
                "h={h}"
            );
        }
    }

    /// The posterior covariance of a filter `n` observations in.
    fn posterior_at(n: usize) -> Mat<2, 2> {
        (0..n).fold(DIFFUSE, |p, _| step_covariance(&p).2)
    }

    #[test]
    fn the_gain_table_settles_at_177_with_every_innovation_above_r() {
        // Each entry is its step's gain, the recursion is still moving
        // before the last one and stands still after it, and at r = 100
        // no innovation variance comes near 0, so every gain is defined.
        assert_eq!(GAINS.len(), 177);
        let mut p = DIFFUSE;
        for (n, gain) in GAINS.iter().enumerate() {
            let (k, s, next) = step_covariance(&p);
            assert_eq!(
                bits(k.iter().flatten().copied()),
                bits(gain.iter().flatten().copied())
            );
            assert!(s >= OBSERVATION_NOISE[0][0], "s = {s} at {n}");
            assert_eq!(same_bits(&next, &p), n + 1 == GAINS.len(), "at {n}");
            p = next;
        }
    }

    #[test]
    fn a_filter_is_its_state_and_a_count() {
        assert_eq!(std::mem::size_of::<LocalLinearTrend>(), 24);
    }

    /// Runs that stress the operation order: exact zeros (the product's
    /// zero-operand skip), repeats, a ramp down through the floor,
    /// ordinary noise, and samples the filter must ignore.
    fn segment() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            (1usize..30).prop_map(|n| vec![0.0; n]),
            (0.0..1e4f64, 1usize..30).prop_map(|(v, n)| vec![v; n]),
            (0.0..500.0f64, 1.0..80.0f64, 2usize..40)
                .prop_map(|(from, step, n)| (0..n).map(|k| from - step * k as f64).collect()),
            proptest::collection::vec(-50.0..1e5f64, 1..40),
            (0usize..3).prop_map(|k| vec![[f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k]]),
        ]
    }

    proptest! {
        #[test]
        fn kernel_matches_heap_filter_to_the_bit(
            segments in proptest::collection::vec(segment(), 1..12),
        ) {
            let mut kernel = LocalLinearTrend::with_default_noise();
            let mut oracle = HeapTrend::new();
            for z in segments.into_iter().flatten() {
                kernel.observe(z);
                oracle.observe(z);
                assert_same_state(&kernel, &oracle, 5);
            }
        }
    }

    #[test]
    fn kernel_matches_heap_filter_over_a_long_run() {
        // 10⁵ steps on a noisy diurnal wave: no drift between the table's
        // gains and the oracle's covariance recursion, however long.
        let mut kernel = LocalLinearTrend::with_default_noise();
        let mut oracle = HeapTrend::new();
        for k in 0..100_000usize {
            let noise = ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
            let z = (300.0 + 300.0 * (k as f64 / 1440.0).sin() + 120.0 * noise).max(0.0);
            kernel.observe(z);
            oracle.observe(z);
            assert_eq!(
                kernel.x[0][0].to_bits(),
                oracle.kf.state().get(0, 0).to_bits()
            );
            assert_eq!(
                kernel.x[1][0].to_bits(),
                oracle.kf.state().get(1, 0).to_bits()
            );
            if k % 1000 == 0 {
                assert_same_state(&kernel, &oracle, 5);
            }
        }
        assert_same_state(&kernel, &oracle, 5);
    }

    /// A thousand samples for a filter past its fixed point: exact zeros,
    /// a ramp down through the floor, noise, and every seventh one a
    /// sample the filter must skip.
    fn past_the_fixed_point() -> impl Iterator<Item = f64> {
        (0..1000usize).map(|k| match (k % 7, k / 250) {
            (3, _) => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k / 7 % 3],
            (_, 0 | 3) => 0.0,
            (_, 1) => 600.0 - 4.0 * (k - 250) as f64,
            _ => ((k * 2654435761) % 1000) as f64,
        })
    }

    #[test]
    fn a_settled_filter_steps_its_state_to_the_bit() {
        // A ramp up to the table's last entry, then past it, held to the
        // oracle after every sample.
        let mut kernel = LocalLinearTrend::with_default_noise();
        let mut oracle = HeapTrend::new();
        let ramp = (0..GAINS.len()).map(|k| 300.0 + 7.0 * k as f64);
        for z in ramp.chain(past_the_fixed_point()) {
            kernel.observe(z);
            oracle.observe(z);
            assert_same_state(&kernel, &oracle, 3);
        }
        assert_eq!(kernel.observations(), (GAINS.len() + 1000 - 143) as u64);
        // The oracle's full recursion stands where the table stopped it.
        let fixed = posterior_at(GAINS.len());
        let covariance = oracle.kf.covariance();
        for (r, row) in fixed.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), covariance.get(r, c).to_bits(), "P[{r}][{c}]");
            }
        }
    }

    #[test]
    fn tracks_linear_ramp() {
        let mut f = LocalLinearTrend::with_default_noise();
        for k in 0..100 {
            f.observe(5.0 * k as f64 + 20.0);
        }
        assert!((f.x[1][0] - 5.0).abs() < 0.5);
        let last = 5.0 * 99.0 + 20.0;
        for (i, v) in f.predictions().take(4).enumerate() {
            let expect = last + 5.0 * (i as f64 + 1.0);
            assert!((v - expect).abs() < 2.0, "step {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn tracks_constant_signal_with_near_zero_slope() {
        let mut f = LocalLinearTrend::with_default_noise();
        for _ in 0..200 {
            f.observe(400.0);
        }
        assert!((f.x[0][0] - 400.0).abs() < 1.0);
        assert!(f.x[1][0].abs() < 0.1);
    }

    #[test]
    fn floor_clamps_predictions() {
        let mut f = LocalLinearTrend::with_default_noise();
        // Steep downward ramp crossing zero.
        for k in 0..50 {
            f.observe(100.0 - 10.0 * k as f64);
        }
        let p: Vec<f64> = f.predictions().take(5).collect();
        assert!(p.iter().all(|&v| v >= 0.0));
        assert_eq!(p[4], 0.0, "deep extrapolation clamps to the floor");
    }

    #[test]
    fn nonfinite_observations_are_ignored() {
        let mut f = LocalLinearTrend::with_default_noise();
        for _ in 0..50 {
            f.observe(100.0);
        }
        let before = f.predict_one();
        f.observe(f64::NAN);
        f.observe(f64::INFINITY);
        assert_eq!(f.observations(), 50);
        assert!((f.predict_one() - before).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn predictions_are_finite(values in proptest::collection::vec(0.0..1e5f64, 10..80)) {
            let mut f = LocalLinearTrend::with_default_noise();
            for v in &values {
                f.observe(*v);
            }
            for p in f.predictions().take(5) {
                prop_assert!(p.is_finite());
            }
        }
    }
}
