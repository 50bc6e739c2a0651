use crate::Forecaster;

/// A fixed-size row-major matrix; the kernel below is written over these
/// so a filter step touches the stack only.
type Mat<const R: usize, const C: usize> = [[f64; C]; R];

/// State transition of the level+slope model.
const F: Mat<2, 2> = [[1.0, 1.0], [0.0, 1.0]];
/// Observation model: the level is what is measured.
const H: Mat<1, 2> = [[1.0, 0.0]];
const IDENTITY: Mat<2, 2> = [[1.0, 0.0], [0.0, 1.0]];

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
/// ramps and the level shifts of web workloads. Noise variances can be
/// given directly or tuned from a training prefix of the workload with
/// [`LocalLinearTrend::fit`], mirroring "parameters of the Kalman filter
/// were first tuned using an initial portion of the workload, and then
/// used to forecast the remainder".
///
/// Every computer's L0 controller steps one of these each sampling
/// period, so the filter is a fixed-size kernel: two states, a 2×2
/// covariance, no heap. The covariance recursion never reads the data, so
/// once a step leaves the posterior covariance bit for bit where it was,
/// every later step would too, with the same gain: from then on only the
/// state is stepped (177 observations in at the default noise).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalLinearTrend {
    /// State estimate `[level, slope]ᵀ`.
    x: Mat<2, 1>,
    /// Estimate covariance.
    p: Mat<2, 2>,
    /// The gain of the step that left `p` at its fixed point, once one has.
    steady_gain: Option<Mat<2, 1>>,
    q_level: f64,
    q_slope: f64,
    r: f64,
    observations: u64,
    /// Clamp predictions below at this value (arrival rates are >= 0).
    floor: Option<f64>,
}

impl LocalLinearTrend {
    /// Build with explicit noise variances.
    ///
    /// * `q_level`: process noise of the level component;
    /// * `q_slope`: process noise of the slope component;
    /// * `r`: observation noise.
    ///
    /// # Panics
    ///
    /// Panics if any variance is negative or non-finite, or if all three
    /// are zero (the filter would be degenerate).
    pub fn new(q_level: f64, q_slope: f64, r: f64) -> Self {
        for (name, v) in [("q_level", q_level), ("q_slope", q_slope), ("r", r)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and >= 0, got {v}"
            );
        }
        assert!(
            q_level > 0.0 || q_slope > 0.0 || r > 0.0,
            "at least one noise variance must be positive"
        );
        LocalLinearTrend {
            x: [[0.0], [0.0]],
            // Diffuse prior: the first observations dominate.
            p: [[1e6, 0.0], [0.0, 1e6]],
            steady_gain: None,
            q_level,
            q_slope,
            r,
            observations: 0,
            floor: None,
        }
    }

    /// Reasonable defaults for web-workload arrival counts: fast level
    /// adaptation, slow slope adaptation.
    pub fn with_default_noise() -> Self {
        LocalLinearTrend::new(10.0, 0.1, 100.0)
    }

    /// Clamp all predictions from below (e.g. at 0 for rates).
    #[must_use]
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = Some(floor);
        self
    }

    /// Grid-search noise variances minimizing one-step-ahead squared error
    /// on `training`, then return a fresh filter *already warmed up* on the
    /// training data.
    ///
    /// The observation variance is pinned to the sample variance of the
    /// one-step differences (a standard scale anchor) while the two process
    /// noises sweep a log grid around it.
    ///
    /// # Panics
    ///
    /// Panics if `training` has fewer than 8 points.
    pub fn fit(training: &[f64]) -> Self {
        let (q_level, q_slope, r) = tune(training, LocalLinearTrend::new);
        let mut fitted = LocalLinearTrend::new(q_level, q_slope, r);
        for &z in training {
            fitted.observe(z);
        }
        fitted
    }

    /// The current level estimate.
    pub fn level(&self) -> f64 {
        self.x[0][0]
    }

    /// The current slope estimate.
    pub fn slope(&self) -> f64 {
        self.x[1][0]
    }

    /// The forecast as an endless iterator — one step ahead first, floor
    /// applied — for callers that fill their own buffers;
    /// [`Forecaster::predict`] collects its head. Only the state is
    /// propagated: no forecast reads the covariance.
    pub fn predictions(&self) -> impl Iterator<Item = f64> + '_ {
        let mut x = self.x;
        std::iter::repeat_with(move || {
            x = matmul(&F, &x);
            let z = matmul(&H, &x)[0][0];
            match self.floor {
                Some(fl) => z.max(fl),
                None => z,
            }
        })
    }

    /// One Kalman step, time update then measurement update with `z`.
    ///
    /// # Panics
    ///
    /// Panics if the innovation variance `H P Hᵀ + r` has collapsed below
    /// `1e-12`, which takes `r = 0` and vanishing process noise: the gain
    /// is undefined there.
    fn step(&mut self, z: f64) {
        let k = match self.steady_gain {
            Some(k) => k,
            None => self.step_covariance(),
        };
        // The state reads the covariance only through `k`.
        self.x = matmul(&F, &self.x);
        let y = minus(&[[z]], &matmul(&H, &self.x));
        self.x = plus(&self.x, &matmul(&k, &y));
    }

    /// The covariance half of [`step`](Self::step): time update, then
    /// measurement update, returning the gain. `P → P'` is a function of
    /// the bits of `P` alone, so a step that leaves them unchanged is a
    /// fixed point and every later one would return this gain again: it
    /// is kept as the steady gain.
    fn step_covariance(&mut self) -> Mat<2, 1> {
        let q = [[self.q_level, 0.0], [0.0, self.q_slope]];
        let r = [[self.r]];
        let h_t = transpose(&H);
        let posterior = self.p;

        self.p = symmetrize(&plus(&matmul(&matmul(&F, &self.p), &transpose(&F)), &q));
        let s = plus(&matmul(&matmul(&H, &self.p), &h_t), &r)[0][0];
        if s.abs() < 1e-12 {
            panic!("innovation variance collapsed to {s}: no gain is defined");
        }
        let k = matmul(&matmul(&self.p, &h_t), &[[1.0 / s]]);
        let i_kh = minus(&IDENTITY, &matmul(&k, &H));
        // Joseph form keeps P symmetric PSD.
        let a = matmul(&matmul(&i_kh, &self.p), &transpose(&i_kh));
        let b = matmul(&matmul(&k, &r), &transpose(&k));
        self.p = symmetrize(&plus(&a, &b));
        if same_bits(&self.p, &posterior) {
            self.steady_gain = Some(k);
        }
        k
    }
}

/// The `(q_level, q_slope, r)` of [`LocalLinearTrend::fit`]'s grid search,
/// scored on filters made by `build`.
fn tune<T: Forecaster>(training: &[f64], build: impl Fn(f64, f64, f64) -> T) -> (f64, f64, f64) {
    assert!(training.len() >= 8, "need at least 8 training points");
    let diffs: Vec<f64> = training.windows(2).map(|w| w[1] - w[0]).collect();
    let mean_d = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let var_d = diffs.iter().map(|d| (d - mean_d).powi(2)).sum::<f64>() / diffs.len() as f64;
    let r = var_d.max(1e-6);

    let ratios = [1e-3, 1e-2, 1e-1, 1.0, 10.0];
    let mut best: Option<(f64, f64, f64)> = None; // (sse, q_level, q_slope)
    for &rl in &ratios {
        for &rs in &ratios {
            let q_level = rl * r;
            let q_slope = rs * r * 0.01;
            let mut f = build(q_level, q_slope, r);
            let mut sse = 0.0;
            for &z in training {
                if f.observations() >= 2 {
                    let pred = f.predict_one();
                    sse += (pred - z).powi(2);
                }
                f.observe(z);
            }
            if best.is_none_or(|(s, _, _)| sse < s) {
                best = Some((sse, q_level, q_slope));
            }
        }
    }
    let (_, q_level, q_slope) = best.expect("grid is non-empty");
    (q_level, q_slope, r)
}

impl Forecaster for LocalLinearTrend {
    fn observe(&mut self, value: f64) {
        // Ignore non-finite samples rather than poisoning the filter: a
        // forecast blackout should degrade, not crash, the controller.
        if !value.is_finite() {
            return;
        }
        self.step(value);
        self.observations += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        self.predictions().take(horizon).collect()
    }

    fn predict_one(&self) -> f64 {
        self.predictions().next().expect("the forecast is endless")
    }

    fn observations(&self) -> u64 {
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
    /// run through the general heap-backed filter. The oracle.
    struct HeapTrend {
        kf: KalmanFilter,
        observations: u64,
        floor: Option<f64>,
    }

    impl HeapTrend {
        fn new(q_level: f64, q_slope: f64, r: f64) -> Self {
            let kf = KalmanFilter::new(
                Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
                Matrix::from_rows(&[&[1.0, 0.0]]),
                Matrix::diagonal(&[q_level, q_slope]),
                Matrix::diagonal(&[r]),
                Matrix::column(&[0.0, 0.0]),
                Matrix::diagonal(&[1e6, 1e6]),
            )
            .unwrap();
            HeapTrend {
                kf,
                observations: 0,
                floor: None,
            }
        }
    }

    impl Forecaster for HeapTrend {
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
                .map(|m| m.get(0, 0))
                .map(|v| self.floor.map_or(v, |fl| v.max(fl)))
                .collect()
        }

        fn observations(&self) -> u64 {
            self.observations
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Kernel and oracle agree on the bits of everything a caller can read.
    fn assert_same_state(kernel: &LocalLinearTrend, oracle: &HeapTrend, horizons: usize) {
        let state = oracle.kf.state();
        assert_eq!(kernel.level().to_bits(), state.get(0, 0).to_bits());
        assert_eq!(kernel.slope().to_bits(), state.get(1, 0).to_bits());
        assert_eq!(kernel.observations(), oracle.observations());
        assert_eq!(
            kernel.predict_one().to_bits(),
            oracle.predict_one().to_bits()
        );
        for h in 0..=horizons {
            assert_eq!(bits(&kernel.predict(h)), bits(&oracle.predict(h)), "h={h}");
        }
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
            noise in (1e-3..1e3f64, 1e-3..1e3f64, 1e-3..1e3f64),
            zeroed in 0usize..4,
            floored in 0usize..2,
            segments in proptest::collection::vec(segment(), 1..12),
        ) {
            // `zeroed == 3` leaves all three variances positive.
            let v = |i: usize, x: f64| if zeroed == i { 0.0 } else { x };
            let (ql, qs, r) = (v(0, noise.0), v(1, noise.1), v(2, noise.2));
            let mut kernel = LocalLinearTrend::new(ql, qs, r);
            let mut oracle = HeapTrend::new(ql, qs, r);
            if floored == 1 {
                kernel = kernel.with_floor(0.0);
                oracle.floor = Some(0.0);
            }
            for z in segments.into_iter().flatten() {
                kernel.observe(z);
                oracle.observe(z);
                assert_same_state(&kernel, &oracle, 5);
            }
        }

        #[test]
        fn fit_matches_heap_filter(
            training in proptest::collection::vec(0.0..2e3f64, 8..60),
        ) {
            let tuned = tune(&training, HeapTrend::new);
            prop_assert_eq!(tune(&training, LocalLinearTrend::new), tuned);
            let fitted = LocalLinearTrend::fit(&training);
            prop_assert_eq!((fitted.q_level, fitted.q_slope, fitted.r), tuned);
            let mut oracle = HeapTrend::new(tuned.0, tuned.1, tuned.2);
            for &z in &training {
                oracle.observe(z);
            }
            assert_same_state(&fitted, &oracle, 5);
        }
    }

    #[test]
    fn kernel_matches_heap_filter_over_a_long_run() {
        // 10⁵ steps of the L0's own filter on a noisy diurnal wave: no
        // drift between the two covariance recursions, however long.
        let mut kernel = LocalLinearTrend::with_default_noise().with_floor(0.0);
        let mut oracle = HeapTrend::new(10.0, 0.1, 100.0);
        oracle.floor = Some(0.0);
        for k in 0..100_000usize {
            let noise = ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
            let z = (300.0 + 300.0 * (k as f64 / 1440.0).sin() + 120.0 * noise).max(0.0);
            kernel.observe(z);
            oracle.observe(z);
            assert_eq!(
                kernel.level().to_bits(),
                oracle.kf.state().get(0, 0).to_bits()
            );
            assert_eq!(
                kernel.slope().to_bits(),
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

    /// Kernel and oracle, floored at zero, over a ramp of `warm` samples
    /// and then [`past_the_fixed_point`], held to the bit after every
    /// sample. Returns the observation at which the kernel took its steady
    /// gain, if it did.
    fn settle_and_follow((ql, qs, r): (f64, f64, f64), warm: usize) -> Option<u64> {
        let mut kernel = LocalLinearTrend::new(ql, qs, r).with_floor(0.0);
        let mut oracle = HeapTrend::new(ql, qs, r);
        oracle.floor = Some(0.0);
        let mut settled_at = None;
        let ramp = (0..warm).map(|k| 300.0 + 7.0 * k as f64);
        for z in ramp.chain(past_the_fixed_point()) {
            kernel.observe(z);
            oracle.observe(z);
            assert_same_state(&kernel, &oracle, 3);
            if kernel.steady_gain.is_some() {
                settled_at.get_or_insert(kernel.observations());
            }
        }
        assert_eq!(kernel.observations(), (warm + 1000 - 143) as u64);
        // The recursion the kernel stopped running is still where the
        // oracle's full one is.
        let covariance = oracle.kf.covariance();
        for (r, row) in kernel.p.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), covariance.get(r, c).to_bits(), "P[{r}][{c}]");
            }
        }
        settled_at
    }

    #[test]
    fn a_settled_filter_steps_its_state_to_the_bit() {
        // The L0's own filter; and one whose gain still moves on the step
        // that settles its covariance, so reusing the step before's is off.
        assert_eq!(settle_and_follow((10.0, 0.1, 100.0), 177), Some(177));
        assert_eq!(settle_and_follow((1.0, 0.1, 10.0), 75), Some(75));
    }

    #[test]
    fn a_filter_that_never_settles_keeps_the_full_step() {
        // Without slope noise the slope variance shrinks like 1/n for ever;
        // at unit noise the covariance alternates between two values from
        // the 25th observation on.
        assert_eq!(settle_and_follow((10.0, 0.0, 100.0), 177), None);
        assert_eq!(settle_and_follow((1.0, 1.0, 1.0), 177), None);
    }

    #[test]
    fn tracks_linear_ramp() {
        let mut f = LocalLinearTrend::with_default_noise();
        for k in 0..100 {
            f.observe(5.0 * k as f64 + 20.0);
        }
        assert!((f.slope() - 5.0).abs() < 0.5);
        let p = f.predict(4);
        let last = 5.0 * 99.0 + 20.0;
        for (i, v) in p.iter().enumerate() {
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
        assert!((f.level() - 400.0).abs() < 1.0);
        assert!(f.slope().abs() < 0.1);
    }

    #[test]
    fn floor_clamps_predictions() {
        let mut f = LocalLinearTrend::with_default_noise().with_floor(0.0);
        // Steep downward ramp crossing zero.
        for k in 0..50 {
            f.observe(100.0 - 10.0 * k as f64);
        }
        let p = f.predict(5);
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

    #[test]
    fn fit_beats_default_on_noisy_ramp() {
        // Deterministic pseudo-noise so the test is stable.
        let noise = |k: usize| ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
        let series: Vec<f64> = (0..200)
            .map(|k| 1000.0 + 3.0 * k as f64 + 80.0 * noise(k))
            .collect();
        let fitted = LocalLinearTrend::fit(&series[..120]);
        let mut default = LocalLinearTrend::with_default_noise();
        for &z in &series[..120] {
            default.observe(z);
        }
        let mut err_fit = 0.0;
        let mut err_def = 0.0;
        let mut ff = fitted;
        let mut fd = default;
        for &z in &series[120..] {
            err_fit += (ff.predict_one() - z).powi(2);
            err_def += (fd.predict_one() - z).powi(2);
            ff.observe(z);
            fd.observe(z);
        }
        assert!(
            err_fit <= err_def * 1.5,
            "fitted ({err_fit:.1}) should not be much worse than default ({err_def:.1})"
        );
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn fit_needs_enough_data() {
        let _ = LocalLinearTrend::fit(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_variance_panics() {
        let _ = LocalLinearTrend::new(-1.0, 0.1, 1.0);
    }

    proptest! {
        #[test]
        fn predictions_are_finite(values in proptest::collection::vec(0.0..1e5f64, 10..80)) {
            let mut f = LocalLinearTrend::with_default_noise();
            for v in &values {
                f.observe(*v);
            }
            for p in f.predict(5) {
                prop_assert!(p.is_finite());
            }
        }
    }
}
