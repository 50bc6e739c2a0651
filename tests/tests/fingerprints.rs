//! The behaviour matrix's own rows, and the file as a whole: the paper's
//! stack on `paper16`, `scale128` (with the `Pipe` arm) and `adverse4` at
//! three seeds each, and every committed row a shape of
//! `llc_tests::matrix`. The other rows are checked by the tests of what
//! they pin, as the matrix's module table lists.
//!
//! ```text
//! LLC_REBLESS=1 cargo test -p llc-tests --test fingerprints
//! ```
//!
//! rewrites every row of `tests/fingerprints.txt` in place of checking.

use llc_tests::matrix::{self, Drive};

#[test]
fn every_run_matches_the_matrix() {
    if matrix::reblessing() {
        matrix::rebless();
        return;
    }
    matrix::assert_every_row_is_a_shape();
    let mut checks: Vec<(String, &[Drive])> = Vec::new();
    for seed in [2006, 3101, 3102] {
        checks.push((format!("scale128/{seed}"), &[Drive::Pipe]));
        checks.push((format!("paper16/{seed}"), &[]));
        checks.push((format!("adverse4/{seed}"), &[]));
    }
    matrix::assert_matches(&checks);
}
