//! Forecasting substrate for the hierarchical LLC framework.
//!
//! The paper estimates future environment inputs with two filters:
//!
//! * an **ARIMA model implemented by a Kalman filter** predicts request
//!   arrival rates `λ̂` at every level of the control hierarchy, and
//! * an **exponentially-weighted moving average (EWMA)** with smoothing
//!   constant `π = 0.1` predicts per-request processing times `ĉ`.
//!
//! This crate implements both from scratch — there is no external linear
//! algebra or statistics dependency:
//!
//! * [`LocalLinearTrend`]: a level+slope structural model (the state-space
//!   equivalent of ARIMA(0,2,2)) at fixed noise. Its covariance recursion
//!   reads no data, so it is run once per process into a gain table, and
//!   a filter holds only its state and its count of observations;
//! * [`Ewma`]: the processing-time filter, and the L1's running mean
//!   forecast error (the §4.2 band half-width `δ`);
//! * [`AccuracyStats`]: the MAE, RMSE and MAPE of fig. 4's forecast.
//!
//! # Example
//!
//! ```
//! use llc_forecast::LocalLinearTrend;
//!
//! let mut f = LocalLinearTrend::with_default_noise();
//! for k in 0..50 {
//!     f.observe(10.0 + 2.0 * k as f64); // a clean linear ramp
//! }
//! let ahead: Vec<f64> = f.predictions().take(3).collect();
//! assert!((ahead[0] - 110.0).abs() < 1.0);
//! assert!((ahead[2] - 114.0).abs() < 1.5);
//! ```
//!
//! The general linear-Gaussian filter over heap-backed matrices that the
//! trend model first ran on is not API: `kalman.rs` and `matrix.rs`
//! compile under `cfg(test)` only, as the oracle the kernel is held
//! bit-identical to (`trend::tests`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error_stats;
mod ewma;
#[cfg(test)]
mod kalman;
#[cfg(test)]
mod matrix;
mod trend;

pub use error_stats::AccuracyStats;
pub use ewma::Ewma;
pub use trend::LocalLinearTrend;
