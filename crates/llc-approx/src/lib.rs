//! Function-approximation substrate for hierarchical control.
//!
//! The paper lifts "the dual curses of dimensionality and modeling" by
//! approximating the behaviour of lower control levels instead of
//! modeling it exactly:
//!
//! * the L1 controller consults an **abstraction map `g`** — "obtained
//!   off-line as a hash table" — that predicts the cost and next state a
//!   L0-controlled computer achieves under given load. Two substrates
//!   implement it behind the [`CostMap`] trait: [`DenseGrid`] (flat
//!   storage, O(1) clamp + stride probes — the default for rectangular
//!   [`GridSampler`] domains) and [`LookupTable`] (hash table keyed by
//!   [`Quantizer`] cells, for sparse or ragged domains);
//! * the L2 controller consults a **compact regression tree** trained from
//!   module simulations ([`RegressionTree`], classic CART with
//!   variance-reduction splits);
//! * both are trained by **simulation-based learning** over sampled input
//!   grids ([`GridSampler`], [`train_table`], [`train_dense`]);
//! * the decision variables γ (load fractions) live on a quantized
//!   probability simplex ([`SimplexGrid`]: enumeration and neighborhood
//!   moves at quantum 0.05 / 0.1 as in the experiments);
//! * both map substrates also take **online (incremental) updates** —
//!   [`CostMap::update`] blends realized outcomes into the trained cells
//!   under a confidence-weighted learning rate ([`BlendConfig`]), the
//!   paper's §6 drift-handling outlook: dense grids blend in place,
//!   hash tables insert-or-blend and grow their coverage.
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
mod table;

pub use dense::{CostMap, DenseGrid};
pub use learn::{train_dense, train_table, GridSampler};
pub use online::{Blend, BlendConfig, BlendSchedule};
pub use quantize::Quantizer;
pub use regtree::{RegressionTree, TreeConfig, TreeError};
pub use simplex::SimplexGrid;
pub use table::LookupTable;
