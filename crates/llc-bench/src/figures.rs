//! The run behind the figure and claim binaries.

use crate::report::quick_mode;
use llc_cluster::{Family, RunSpec};

/// Default master seed used by the figure binaries.
pub const FIGURE_SEED: u64 = 2006;

/// `family` (the §4.3 module run behind Figs. 4 and 5, or the §5.2
/// cluster run behind Figs. 6 and 7) at [`FIGURE_SEED`]; in `--quick`
/// mode on the coarse learning grids and cut to `quick_buckets`.
pub fn figure_spec(family: Family, quick_buckets: usize) -> RunSpec {
    let spec = RunSpec::new(family, FIGURE_SEED);
    if !quick_mode() {
        return spec;
    }
    RunSpec {
        buckets: quick_buckets,
        coarse_learning: true,
        ..spec
    }
}
