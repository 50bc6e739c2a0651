//! Function-approximation substrate for hierarchical control.
//!
//! The paper lifts "the dual curses of dimensionality and modeling" by
//! approximating the behaviour of lower control levels instead of
//! modeling it exactly:
//!
//! * the L1 controller consults an **abstraction map `g`** — "obtained
//!   off-line as a hash table" — that predicts the cost and next state a
//!   L0-controlled computer achieves under given load: [`DenseGrid`],
//!   flat storage over a rectangular [`GridSampler`] domain with O(1)
//!   clamp + stride probes, plus a sorted side-map of the cells first
//!   written online;
//! * the L2 controller consults a **compact regression tree** trained from
//!   module simulations ([`RegressionTree`], classic CART with
//!   variance-reduction splits);
//! * both are trained by **simulation-based learning** over sampled input
//!   grids ([`GridSampler`], [`train_dense`]);
//! * the decision variables γ (load fractions) live on a quantized
//!   probability simplex ([`SimplexGrid`]: enumeration and neighborhood
//!   moves at quantum 0.05 / 0.1 as in the experiments);
//! * the map takes **online (incremental) updates** —
//!   [`DenseGrid::update`] blends realized outcomes into the stored cells
//!   at the caller's rate, marks each written cell measured, and grows a
//!   cell for an outcome no stored cell holds, the paper's §6
//!   drift-handling outlook.
//!
//! # Example
//!
//! ```
//! use llc_approx::{RegressionTree, TreeConfig};
//!
//! // Learn y = x0 + 10·[x1 > 0.5] from samples.
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 20) as f64 / 20.0, (i % 7) as f64 / 7.0])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] + if x[1] > 0.5 { 10.0 } else { 0.0 }).collect();
//! let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
//! let lo = tree.predict(&[0.5, 0.0]);
//! let hi = tree.predict(&[0.5, 1.0]);
//! assert!(hi - lo > 8.0, "tree must capture the step");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod learn;
mod online;
mod quantize;
mod regtree;
mod simplex;
#[cfg(test)]
mod table;

pub use dense::DenseGrid;
pub use learn::{train_dense, GridSampler};
pub use online::Blend;
pub use quantize::Quantizer;
pub use regtree::{RegressionTree, TreeConfig, TreeError};
pub use simplex::SimplexGrid;
