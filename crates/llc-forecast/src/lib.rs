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
//!   equivalent of ARIMA(0,2,2)) stepped by a fixed-size, heap-free Kalman
//!   kernel (Joseph-form covariance update), with data-driven noise tuning
//!   mirroring the paper's "parameters of the Kalman filter were first
//!   tuned using an initial portion of the workload";
//! * [`Ewma`]: the processing-time filter;
//! * [`Forecaster`]: the common observe/predict interface consumed by the
//!   controllers, plus [`AccuracyStats`] for tracking forecast error (the
//!   source of the chattering-mitigation band `δ`).
//!
//! # Example
//!
//! ```
//! use llc_forecast::{Forecaster, LocalLinearTrend};
//!
//! let mut f = LocalLinearTrend::with_default_noise();
//! for k in 0..50 {
//!     f.observe(10.0 + 2.0 * k as f64); // a clean linear ramp
//! }
//! let ahead = f.predict(3);
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
mod traits;
mod trend;

pub use error_stats::AccuracyStats;
pub use ewma::Ewma;
pub use traits::Forecaster;
pub use trend::LocalLinearTrend;
