//! Generic limited-lookahead control (LLC) for switching hybrid systems.
//!
//! This crate implements the control-theoretic core of Kandasamy,
//! Abdelwahed & Khandekar, *"A Hierarchical Optimization Framework for
//! Autonomic Performance Management of Distributed Computing Systems"*
//! (ICDCS 2006): model-predictive control over a **finite** input set,
//! where at every sampling instant the controller
//!
//! 1. forecasts the environment over a limited prediction horizon,
//! 2. builds the tree of reachable future states under every admissible
//!    input sequence (or a bounded neighborhood of the current input),
//! 3. selects the sequence minimizing a cumulative cost, and
//! 4. applies only the first input of that sequence (receding horizon).
//!
//! The crate is deliberately domain-agnostic: the controlled system is
//! described by the [`Plant`] trait (dynamics, admissible inputs, cost),
//! the environment forecast by a slice with one `Plant::Env` per future
//! step, and the search by [`LookaheadController`] (exhaustive, with
//! branch-and-bound pruning).
//!
//! # Example
//!
//! A one-dimensional thermostat-like plant with three inputs:
//!
//! ```
//! use llc_core::{Plant, LookaheadController};
//!
//! struct Thermo;
//! impl Plant for Thermo {
//!     type State = f64;
//!     type Input = i8;          // -1: cool, 0: off, +1: heat
//!     type Env = f64;           // ambient drift
//!     fn admissible(&self, _x: &f64) -> Vec<i8> { vec![-1, 0, 1] }
//!     fn step(&self, x: &f64, u: &i8, w: &f64) -> f64 { x + f64::from(*u) + w }
//!     fn cost(&self, x: &f64, u: &i8, _prev: Option<&i8>) -> f64 {
//!         (x - 20.0).abs() + 0.1 * f64::from(u.abs())
//!     }
//! }
//!
//! # fn main() -> Result<(), llc_core::Error> {
//! let controller = LookaheadController::new(3)?;
//! let decision = controller.decide(&Thermo, &17.0, None, &[0.5, 0.5, 0.5])?;
//! assert_eq!(decision.input, 1); // heat towards the set-point
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cost;
mod detect;
mod error;
mod llc;
mod model;
mod online;
mod scale;

pub use cost::{Penalty, SetPoint};
pub use detect::{DriftDetector, LearnRate};
pub use error::Error;
pub use llc::{Decision, LookaheadController, SearchScratch, SearchStats};
pub use model::Plant;
pub use online::OnlineConfig;
pub use scale::{ScaleEstimatorConfig, ServiceScaleEstimator};
