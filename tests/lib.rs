//! Anchor library for the integration-test package; tests live in `tests/`
//! and share what is here.

use llc_cluster::{Directive, DirectiveKind};

pub mod invariants;
pub mod matrix;

/// A 64-bit FNV-1a hash, fed whole words, least significant byte first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hash in one word.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash in every field of `d`, floats by bit pattern.
    pub fn directive(&mut self, d: &Directive) {
        self.eat(d.tick);
        self.eat(d.time.to_bits());
        self.eat(d.level as u64);
        self.eat(d.epoch);
        match &d.kind {
            DirectiveKind::Frequency { computer, index } => {
                self.eat(1);
                self.eat(*computer as u64);
                self.eat(*index as u64);
            }
            DirectiveKind::Activation { computer, on } => {
                self.eat(2);
                self.eat(*computer as u64);
                self.eat(u64::from(*on));
            }
            DirectiveKind::Split { module, weights } => {
                self.eat(3);
                self.eat(module.map_or(u64::MAX, |m| m as u64));
                self.eat(weights.len() as u64);
                for w in weights {
                    self.eat(w.to_bits());
                }
            }
            DirectiveKind::SafeMode { module, active } => {
                self.eat(4);
                self.eat(*module as u64);
                self.eat(u64::from(*active));
            }
        }
    }
}
