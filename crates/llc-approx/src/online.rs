//! Online (incremental) update policy for trained cost maps.
//!
//! The paper's §6 outlook calls for updating the learned abstraction maps
//! from *observed* outcomes instead of relying solely on the offline
//! training pass. This module supplies the value side of a write:
//! [`Blend`], the contract that moves a stored cell a fraction of the way
//! toward an observed target. The rate is the caller's; where the cell
//! lives, and what happens to one never stored, is
//! [`DenseGrid::update`](crate::DenseGrid::update)'s half.

/// Values a cost-map cell can hold while supporting exponential blending
/// toward an observed target.
///
/// `blend(target, w)` must move `self` to `(1 − w)·self + w·target`
/// component-wise; `w = 0` is a no-op and `w = 1` replaces the cell.
pub trait Blend {
    /// Move `self` a fraction `w ∈ [0, 1]` of the way toward `target`.
    fn blend(&mut self, target: &Self, w: f64);
}

impl Blend for f64 {
    fn blend(&mut self, target: &Self, w: f64) {
        *self += w * (target - *self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_blend_is_lerp() {
        let mut v = 10.0;
        v.blend(&20.0, 0.25);
        assert!((v - 12.5).abs() < 1e-12);
        v.blend(&20.0, 1.0);
        assert_eq!(v, 20.0);
        v.blend(&0.0, 0.0);
        assert_eq!(v, 20.0);
    }
}
