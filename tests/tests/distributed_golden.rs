//! Golden equivalence of the networked loop: the hierarchy driven over
//! a real loopback TCP socket in lockstep mode (the behaviour matrix's
//! `Tcp` arm) must produce *bit-identical* directive sequences, policy
//! counters and plant totals to the in-process `Experiment::run` loop,
//! on both golden bench families, over a clean transport.
//!
//! This is the payoff of two deliberate choices in `llc-net`: floats
//! travel as IEEE-754 bit patterns (the codec is bit-transparent), and
//! the lockstep session replays the exact observe → ingest → step →
//! actuate → advance ordering of the in-process loop.

use llc_tests::matrix::{self, Drive};

#[test]
fn networked_loop_is_bit_identical_closed_loop_family() {
    matrix::assert_matches(&[("closedloop2/48879", &[Drive::Tcp])]);
}

#[test]
fn networked_loop_is_bit_identical_faults_family() {
    matrix::assert_matches(&[("faults0/5", &[Drive::Tcp])]);
}
