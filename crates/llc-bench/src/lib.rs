//! Benchmark harness regenerating every figure and table of the paper's
//! evaluation (README's "Performance and what CI gates" says what each
//! one asserts).
//!
//! Each `src/bin/*` binary reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1b` | Fig. 1(b) — sample WC'98 day at 2-minute buckets |
//! | `fig3` | Fig. 3 — per-computer frequency sets |
//! | `fig4` | Fig. 4 — synthetic workload, Kalman predictions, computers operated |
//! | `fig5` | Fig. 5 — C4 frequency choices and achieved response times |
//! | `fig6` | Fig. 6 — WC'98 trace and computers operated (16 machines) |
//! | `fig7` | Fig. 7 — per-module load fractions γ decided by L2 |
//! | `overhead_centralized` | §3 — centralized vs hierarchical decision complexity |
//! | `ablation_chatter` | §4.2 design choice — uncertainty band on/off |
//! | `ablation_horizon` | L0 horizon sweep (N = 1..4) |
//! | `baseline_table` | LLC vs threshold heuristic vs always-max |
//!
//! Binaries write CSV series under `results/` and print ASCII renderings
//! plus paper-vs-measured notes; run them in release mode. Pass `--quick`
//! for a shortened run (coarse learning grids, truncated traces).
//! `baseline_table`, `ablation_chatter`, `ablation_horizon` and
//! `overhead_centralized` end by asserting their claim ([`claims`]) and
//! exit non-zero when it fails; CI runs all ten at default scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod claims;
pub mod figures;
pub mod report;
