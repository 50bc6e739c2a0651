use llc_sim::{ComputerConfig, PowerModel};

/// A named processor frequency profile (the paper's Fig. 3 lists the
/// discrete operating frequencies of each computer in the module; the
/// printed table is an image, so we model the cited parts — the AMD
/// K6-2+ offers eight discrete settings, the Pentium M ten — with round
/// values spanning the same ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyProfile {
    /// 6 settings, 600 MHz – 1.6 GHz (Pentium-M-class laptop part).
    MobileSix,
    /// 8 settings, 300 MHz – 1.7 GHz (K6-2+-class part, wide range).
    WideEight,
    /// 7 settings, 533 MHz – 2.13 GHz (bus-multiple desktop part).
    BusSeven,
    /// 8 settings, 250 MHz – 2.0 GHz (the paper's C4: Fig. 5 shows its
    /// frequency axis reaching 2·10⁹ Hz).
    TallEight,
}

impl FrequencyProfile {
    /// The discrete frequency set in Hz, strictly ascending.
    pub fn frequencies(self) -> Vec<f64> {
        match self {
            FrequencyProfile::MobileSix => {
                vec![6.0e8, 8.0e8, 1.0e9, 1.2e9, 1.4e9, 1.6e9]
            }
            FrequencyProfile::WideEight => {
                vec![3.0e8, 5.0e8, 7.0e8, 9.0e8, 1.1e9, 1.3e9, 1.5e9, 1.7e9]
            }
            FrequencyProfile::BusSeven => {
                vec![5.33e8, 8.0e8, 1.066e9, 1.333e9, 1.6e9, 1.866e9, 2.133e9]
            }
            FrequencyProfile::TallEight => {
                vec![2.5e8, 5.0e8, 7.5e8, 1.0e9, 1.25e9, 1.5e9, 1.75e9, 2.0e9]
            }
        }
    }

    /// Number of discrete settings.
    pub fn len(self) -> usize {
        self.frequencies().len()
    }

    /// `true` if the profile has no settings (never).
    pub fn is_empty(self) -> bool {
        false
    }

    /// Maximum frequency in Hz.
    pub(crate) fn max_frequency(self) -> f64 {
        *self
            .frequencies()
            .last()
            .expect("profiles are non-empty by construction")
    }

    /// The four heterogeneous profiles of the paper's four-computer module
    /// (C1–C4), in order.
    pub fn module_set() -> [FrequencyProfile; 4] {
        [
            FrequencyProfile::MobileSix,
            FrequencyProfile::WideEight,
            FrequencyProfile::BusSeven,
            FrequencyProfile::TallEight,
        ]
    }
}

/// A complete computer description: frequency profile + power model +
/// boot dead time, convertible to the simulator's [`ComputerConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComputerProfile {
    /// Frequency profile.
    pub profile: FrequencyProfile,
    /// Relative full-speed capacity; the reference machine (speed 1.0)
    /// serves a demand of `c` seconds in `c` seconds at max frequency.
    pub speed: f64,
    /// Base operating cost `a`.
    pub(crate) base_cost: f64,
    /// Switch-on transient cost / boot draw `W`.
    pub(crate) boot_cost: f64,
    /// Boot dead time in seconds.
    pub boot_delay: f64,
}

impl ComputerProfile {
    /// Paper defaults (`a = 0.75`, `W = 8`, 2-minute boot) for a profile;
    /// speed scales with the profile's maximum frequency relative to the
    /// 2 GHz reference part.
    pub fn paper_default(profile: FrequencyProfile) -> Self {
        ComputerProfile {
            profile,
            speed: profile.max_frequency() / FrequencyProfile::TallEight.max_frequency(),
            base_cost: 0.75,
            boot_cost: 8.0,
            boot_delay: 120.0,
        }
    }

    /// Convert into the simulator's configuration.
    pub fn to_sim_config(&self) -> ComputerConfig {
        ComputerConfig::new(
            self.profile.frequencies(),
            PowerModel::new(self.base_cost, self.boot_cost),
            self.boot_delay,
        )
        .with_speed(self.speed)
    }

    /// All φ values, ascending; the L0 controller's input set.
    pub fn phis(&self) -> Vec<f64> {
        let freqs = self.profile.frequencies();
        let max = freqs[freqs.len() - 1];
        freqs.iter().map(|f| f / max).collect()
    }

    /// Peak service rate in requests/second for mean demand `c` (at the
    /// reference machine): `speed · 1/c`. Bounds the sensible γ range.
    #[cfg(test)]
    pub(crate) fn peak_service_rate(&self, c: f64) -> f64 {
        self.speed / c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ascending_and_in_range() {
        for p in FrequencyProfile::module_set() {
            let f = p.frequencies();
            assert!(f.windows(2).all(|w| w[0] < w[1]), "{p:?} not ascending");
            assert!(f[0] >= 2.0e8, "{p:?} floor too low");
            assert!(*f.last().unwrap() <= 2.2e9, "{p:?} ceiling too high");
            assert!(
                (6..=10).contains(&p.len()),
                "{p:?} has {} settings",
                p.len()
            );
        }
    }

    #[test]
    fn c4_reaches_2ghz_like_fig5() {
        assert_eq!(FrequencyProfile::TallEight.max_frequency(), 2.0e9);
        assert_eq!(FrequencyProfile::TallEight.len(), 8);
    }

    #[test]
    fn module_set_is_heterogeneous() {
        let profiles = FrequencyProfile::module_set();
        let lens: Vec<usize> = profiles.iter().map(|p| p.len()).collect();
        let maxes: Vec<f64> = profiles.iter().map(|p| p.max_frequency()).collect();
        // At least two distinct set sizes and two distinct max frequencies.
        let mut l = lens.clone();
        l.dedup();
        assert!(l.len() >= 2);
        assert!(maxes.iter().any(|&m| (m - 2.0e9).abs() > 1e6));
    }

    #[test]
    fn phis_end_at_one() {
        for p in FrequencyProfile::module_set() {
            let cp = ComputerProfile::paper_default(p);
            let phis = cp.phis();
            assert!((phis.last().unwrap() - 1.0).abs() < 1e-12);
            assert!(phis[0] > 0.0);
            assert_eq!(phis.len(), p.len());
        }
    }

    #[test]
    fn paper_default_parameters() {
        let c = ComputerProfile::paper_default(FrequencyProfile::MobileSix);
        assert_eq!(c.base_cost, 0.75);
        assert_eq!(c.boot_cost, 8.0);
        assert_eq!(c.boot_delay, 120.0);
        assert!((c.speed - 0.8).abs() < 1e-12, "1.6 GHz / 2.0 GHz");
    }

    #[test]
    fn sim_config_roundtrip() {
        let c = ComputerProfile::paper_default(FrequencyProfile::WideEight);
        let cfg = c.to_sim_config();
        assert_eq!(cfg.frequencies.len(), 8);
        assert_eq!(cfg.boot_delay, 120.0);
        assert!((cfg.speed - 0.85).abs() < 1e-12);
    }

    #[test]
    fn peak_service_rate_scales_with_speed() {
        let fast = ComputerProfile::paper_default(FrequencyProfile::TallEight);
        let slow = ComputerProfile::paper_default(FrequencyProfile::MobileSix);
        let c = 0.0175;
        assert!(fast.peak_service_rate(c) > slow.peak_service_rate(c));
        assert!((fast.peak_service_rate(c) - 1.0 / 0.0175).abs() < 1e-9);
    }
}
