use crate::matrix::{Matrix, MatrixError};

/// A general linear-Gaussian Kalman filter.
///
/// Model:
///
/// ```text
/// x(k+1) = F x(k) + w,   w ~ N(0, Q)
/// z(k)   = H x(k) + v,   v ~ N(0, R)
/// ```
///
/// The covariance update uses the Joseph form
/// `P = (I−KH) P (I−KH)ᵀ + K R Kᵀ`, which preserves symmetry and positive
/// semi-definiteness over long runs — the filter tracks an entire day of
/// 30-second workload samples in the experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanFilter {
    f: Matrix,
    h: Matrix,
    q: Matrix,
    r: Matrix,
    x: Matrix,
    p: Matrix,
}

impl KalmanFilter {
    /// Build a filter from system matrices and the initial state/covariance.
    ///
    /// Dimensions: `F: n×n`, `H: m×n`, `Q: n×n`, `R: m×m`, `x0: n×1`,
    /// `P0: n×n`.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] if any shape disagrees.
    pub fn new(
        f: Matrix,
        h: Matrix,
        q: Matrix,
        r: Matrix,
        x0: Matrix,
        p0: Matrix,
    ) -> Result<Self, MatrixError> {
        let n = f.rows();
        let m = h.rows();
        if f.cols() != n
            || h.cols() != n
            || q.rows() != n
            || q.cols() != n
            || r.rows() != m
            || r.cols() != m
            || x0.rows() != n
            || x0.cols() != 1
            || p0.rows() != n
            || p0.cols() != n
        {
            return Err(MatrixError::DimensionMismatch);
        }
        Ok(KalmanFilter {
            f,
            h,
            q,
            r,
            x: x0,
            p: p0,
        })
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.f.rows()
    }

    /// Current state estimate `x̂`.
    pub fn state(&self) -> &Matrix {
        &self.x
    }

    /// Current estimate covariance `P`.
    pub fn covariance(&self) -> &Matrix {
        &self.p
    }

    /// Time update: propagate the estimate one step without a measurement.
    pub fn predict(&mut self) {
        self.x = &self.f * &self.x;
        self.p = (&(&self.f * &self.p) * &self.f.transpose())
            .plus(&self.q)
            .expect("shape");
        self.p = self.p.symmetrize();
    }

    /// Measurement update with observation vector `z` (m×1).
    ///
    /// # Errors
    ///
    /// * [`MatrixError::DimensionMismatch`] if `z` is not m×1;
    /// * [`MatrixError::Singular`] if the innovation covariance cannot be
    ///   inverted.
    pub fn update(&mut self, z: &Matrix) -> Result<(), MatrixError> {
        if z.rows() != self.h.rows() || z.cols() != 1 {
            return Err(MatrixError::DimensionMismatch);
        }
        let y = z.minus(&(&self.h * &self.x))?; // innovation
        let s = (&(&self.h * &self.p) * &self.h.transpose()).plus(&self.r)?;
        let k = &(&self.p * &self.h.transpose()) * &s.inverse()?;
        self.x = self.x.plus(&(&k * &y))?;
        let i_kh = &Matrix::identity(self.state_dim()) - &(&k * &self.h);
        // Joseph form keeps P symmetric PSD.
        let a = &(&i_kh * &self.p) * &i_kh.transpose();
        let b = &(&k * &self.r) * &k.transpose();
        self.p = a.plus(&b)?.symmetrize();
        Ok(())
    }

    /// Convenience: predict then update with a scalar observation.
    ///
    /// # Errors
    ///
    /// Same as [`KalmanFilter::update`]; additionally requires a scalar
    /// observation model (`m == 1`).
    pub fn step_scalar(&mut self, z: f64) -> Result<(), MatrixError> {
        if self.h.rows() != 1 {
            return Err(MatrixError::DimensionMismatch);
        }
        self.predict();
        self.update(&Matrix::column(&[z]))
    }

    /// Expected observation `H x̂` for the current state.
    pub fn observation(&self) -> Matrix {
        &self.h * &self.x
    }

    /// Forecast the next `horizon` observations by iterating the time
    /// update on a copy of the filter (the filter itself is unchanged).
    pub fn forecast_observations(&self, horizon: usize) -> Vec<Matrix> {
        let mut scratch = self.clone();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            scratch.predict();
            out.push(scratch.observation());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random-walk filter: F=H=[1], tracks a constant in noise.
    fn random_walk(q: f64, r: f64) -> KalmanFilter {
        KalmanFilter::new(
            Matrix::identity(1),
            Matrix::identity(1),
            Matrix::diagonal(&[q]),
            Matrix::diagonal(&[r]),
            Matrix::column(&[0.0]),
            Matrix::diagonal(&[100.0]),
        )
        .unwrap()
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut kf = random_walk(1e-4, 1.0);
        for _ in 0..200 {
            kf.step_scalar(42.0).unwrap();
        }
        assert!((kf.state().get(0, 0) - 42.0).abs() < 0.1);
    }

    #[test]
    fn covariance_shrinks_with_observations() {
        let mut kf = random_walk(1e-4, 1.0);
        let p0 = kf.covariance().get(0, 0);
        for _ in 0..10 {
            kf.step_scalar(5.0).unwrap();
        }
        assert!(kf.covariance().get(0, 0) < p0);
    }

    #[test]
    fn covariance_stays_symmetric_and_nonnegative() {
        // 2-state trend filter under alternating observations.
        let mut kf = KalmanFilter::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::diagonal(&[0.1, 0.01]),
            Matrix::diagonal(&[1.0]),
            Matrix::column(&[0.0, 0.0]),
            Matrix::diagonal(&[10.0, 10.0]),
        )
        .unwrap();
        for k in 0..500 {
            kf.step_scalar(if k % 2 == 0 { 10.0 } else { -10.0 })
                .unwrap();
            let p = kf.covariance();
            assert!((p.get(0, 1) - p.get(1, 0)).abs() < 1e-9, "symmetry");
            assert!(p.get(0, 0) >= 0.0 && p.get(1, 1) >= 0.0, "diagonal PSD");
            assert!((0..2).all(|r| (0..2).all(|c| p.get(r, c).is_finite())));
        }
    }

    #[test]
    fn forecast_extrapolates_trend() {
        let mut kf = KalmanFilter::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::diagonal(&[0.01, 0.001]),
            Matrix::diagonal(&[0.5]),
            Matrix::column(&[0.0, 0.0]),
            Matrix::diagonal(&[100.0, 100.0]),
        )
        .unwrap();
        for k in 0..100 {
            kf.step_scalar(3.0 * k as f64).unwrap(); // slope 3 ramp
        }
        let fc = kf.forecast_observations(3);
        assert_eq!(fc.len(), 3);
        let last_obs = 3.0 * 99.0;
        assert!((fc[0].get(0, 0) - (last_obs + 3.0)).abs() < 1.0);
        assert!((fc[2].get(0, 0) - (last_obs + 9.0)).abs() < 1.5);
        // Forecasting must not mutate the filter.
        assert!((kf.observation().get(0, 0) - last_obs).abs() < 1.0);
    }

    #[test]
    fn dimension_checks() {
        let bad = KalmanFilter::new(
            Matrix::identity(2),
            Matrix::from_rows(&[&[1.0]]), // H: 1x1 but n=2
            Matrix::identity(2),
            Matrix::identity(1),
            Matrix::column(&[0.0, 0.0]),
            Matrix::identity(2),
        );
        assert_eq!(bad.unwrap_err(), MatrixError::DimensionMismatch);

        let mut kf = random_walk(0.1, 1.0);
        let err = kf.update(&Matrix::column(&[1.0, 2.0])).unwrap_err();
        assert_eq!(err, MatrixError::DimensionMismatch);
    }
}
