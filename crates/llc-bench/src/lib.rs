//! Benchmark harness regenerating every figure and table of the paper's
//! evaluation (README's "Performance and what CI gates" says what each
//! one asserts).
//!
//! The `paper` binary holds the evaluation as one table of rows, each
//! reproducing one artifact:
//!
//! | row | paper artifact |
//! |---|---|
//! | `fig1b` | Fig. 1(b) — sample WC'98 day at 2-minute buckets |
//! | `fig3` | Fig. 3 — per-computer frequency sets |
//! | `fig4` | Fig. 4 — synthetic workload, Kalman predictions, computers operated |
//! | `fig5` | Fig. 5 — C4 frequency choices and achieved response times |
//! | `fig6` | Fig. 6 — WC'98 trace and computers operated (16 machines) |
//! | `fig7` | Fig. 7 — per-module load fractions γ decided by L2 |
//! | `ablation_horizon` | L0 horizon sweep (N = 1..4) |
//! | `ablation_chatter` | §4.2 design choice — uncertainty band on/off |
//! | `baseline_table` | LLC vs threshold heuristic vs always-max |
//! | `overhead_centralized` | §3 — centralized vs hierarchical decision complexity |
//! | `online_maps` | online vs offline-only abstraction maps under drift |
//! | `closed_loop` | in-hierarchy learning and self-healing under drift |
//! | `fault_tolerance` | the watchdog stack vs the fault-blind loop under faults |
//!
//! Rows write CSV series under `results/` and print ASCII renderings
//! plus paper-vs-measured notes; run the binary in release mode, with
//! row names as arguments to run only those. Pass `--quick` for a
//! shortened run (coarse learning grids, truncated traces). The last
//! seven rows end on their claim ([`claims`]); the binary runs every
//! row and exits non-zero if any claim failed. CI runs it at default
//! scale, and the last three rows again under `--quick`. `bench_scale`
//! gates the plant's speed and determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod centralized;
pub mod claims;
pub mod report;
