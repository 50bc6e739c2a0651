/// The paper's processor power model.
///
/// An operating computer draws a constant **base cost** `a` (power supply,
/// disk, …) plus **dynamic power** `φ²` where `φ = u/u_max` is the
/// frequency scaling factor — the model of Sinha & Chandrakasan adopted in
/// eq. (7): `ψ̂ = a + φ²`. Power is in abstract units (the paper's cost
/// weights are calibrated against `a = 0.75`); energy is power integrated
/// over seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    base_cost: f64,
    boot_cost: f64,
}

impl PowerModel {
    /// A model with operating base cost `a` and booting draw `boot_cost`
    /// (power drawn during the switch-on dead time).
    ///
    /// # Panics
    ///
    /// Panics if either cost is negative or non-finite.
    pub fn new(base_cost: f64, boot_cost: f64) -> Self {
        assert!(
            base_cost.is_finite() && base_cost >= 0.0,
            "base cost must be finite and >= 0, got {base_cost}"
        );
        assert!(
            boot_cost.is_finite() && boot_cost >= 0.0,
            "boot cost must be finite and >= 0, got {boot_cost}"
        );
        PowerModel {
            base_cost,
            boot_cost,
        }
    }

    /// The paper's parameters: base cost `a = 0.75`; switching penalty
    /// `W = 8` doubles as the boot-time draw.
    pub fn paper_default() -> Self {
        PowerModel::new(0.75, 8.0)
    }

    /// Base operating cost `a`.
    pub(crate) fn base_cost(&self) -> f64 {
        self.base_cost
    }

    /// Power drawn while booting.
    pub(crate) fn boot_cost(&self) -> f64 {
        self.boot_cost
    }

    /// Instantaneous operating power `ψ(φ) = a + φ²`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `phi` is outside `(0, 1]`.
    pub(crate) fn operating(&self, phi: f64) -> f64 {
        debug_assert!(phi > 0.0 && phi <= 1.0, "φ must lie in (0, 1], got {phi}");
        self.base_cost + phi * phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let p = PowerModel::paper_default();
        assert_eq!(p.base_cost(), 0.75);
        assert_eq!(p.boot_cost(), 8.0);
        assert!((p.operating(1.0) - 1.75).abs() < 1e-12);
        assert!((p.operating(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_is_quadratic() {
        let p = PowerModel::new(0.0, 0.0);
        assert!((p.operating(0.8) - 0.64).abs() < 1e-12);
        // Halving frequency quarters dynamic power.
        assert!((p.operating(0.4) - 0.16).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "base cost")]
    fn negative_base_rejected() {
        let _ = PowerModel::new(-0.1, 0.0);
    }
}
