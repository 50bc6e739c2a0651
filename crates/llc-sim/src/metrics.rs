/// Per-sampling-window observation accumulator.
///
/// The controllers sample the plant every `T_L0` seconds; between samples
/// the simulator accumulates what happened in the window. Draining the
/// stats resets them for the next window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Requests routed to this entity during the window.
    pub arrivals: u64,
    /// Requests completed during the window.
    pub completions: u64,
    /// Sum of response times of completed requests (seconds).
    pub response_sum: f64,
    /// Sum of full-speed demands of completed requests (seconds) — the
    /// observable behind the paper's processing-time estimate `c`.
    pub demand_sum: f64,
    /// Requests that could not be routed (no operating target).
    pub dropped: u64,
    /// Energy drawn during the window (power·seconds, in the paper's
    /// `a + φ²` units) — the realized-power observable the closed-loop
    /// hierarchy derives per-member abstraction-map outcomes from.
    /// Filled when the window is drained from a machine slab (the meter
    /// integrates up to the drain instant); zero for router-level module
    /// stats.
    pub energy: f64,
}

impl WindowStats {
    /// Average response time over the window, or `None` if nothing
    /// completed.
    pub fn mean_response(&self) -> Option<f64> {
        if self.completions == 0 {
            None
        } else {
            Some(self.response_sum / self.completions as f64)
        }
    }

    /// Average full-speed demand `c` of completed requests, or `None`.
    pub fn mean_demand(&self) -> Option<f64> {
        if self.completions == 0 {
            None
        } else {
            Some(self.demand_sum / self.completions as f64)
        }
    }

    /// Arrival rate over a window of `window_secs`, in requests/second.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `window_secs` is not positive.
    #[cfg(test)]
    pub(crate) fn arrival_rate(&self, window_secs: f64) -> f64 {
        debug_assert!(window_secs > 0.0);
        self.arrivals as f64 / window_secs
    }

    /// Merge another window into this one (used to aggregate computers
    /// into module-level stats, eq. (10)–(12) of the paper).
    pub fn absorb(&mut self, other: &WindowStats) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.response_sum += other.response_sum;
        self.demand_sum += other.demand_sum;
        self.dropped += other.dropped;
        self.energy += other.energy;
    }

    /// Mean power draw over a window of `window_secs`, in `a + φ²` units.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `window_secs` is not positive.
    pub fn mean_power(&self, window_secs: f64) -> f64 {
        debug_assert!(window_secs > 0.0);
        self.energy / window_secs
    }

    /// Take the current value and reset to zero.
    pub fn drain(&mut self) -> WindowStats {
        std::mem::take(self)
    }
}

/// Piecewise-constant power integrator.
///
/// Tracks a power level and integrates energy as time advances; every
/// power change must be preceded by advancing to the change instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnergyMeter {
    energy: f64,
    power: f64,
    last_update: f64,
}

impl EnergyMeter {
    /// A meter starting at time `now` drawing `power`.
    pub(crate) fn new(now: f64, power: f64) -> Self {
        EnergyMeter {
            energy: 0.0,
            power,
            last_update: now,
        }
    }

    /// Integrate up to `now` at the current power level.
    ///
    /// # Panics
    ///
    /// Panics (debug) if time runs backwards.
    pub(crate) fn advance(&mut self, now: f64) {
        debug_assert!(
            now >= self.last_update - 1e-9,
            "time ran backwards: {now} < {}",
            self.last_update
        );
        self.energy += self.power * (now - self.last_update).max(0.0);
        self.last_update = now;
    }

    /// Advance to `now`, then switch to a new power level.
    pub(crate) fn set_power(&mut self, power: f64, now: f64) {
        self.advance(now);
        self.power = power;
    }

    /// Total energy accumulated so far (power·seconds).
    pub(crate) fn energy(&self) -> f64 {
        self.energy
    }

    /// Current power draw.
    #[cfg(test)]
    pub(crate) fn power(&self) -> f64 {
        self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_window_has_no_means() {
        let w = WindowStats::default();
        assert_eq!(w.mean_response(), None);
        assert_eq!(w.mean_demand(), None);
        assert_eq!(w.arrival_rate(30.0), 0.0);
    }

    #[test]
    fn means_and_rates() {
        let w = WindowStats {
            arrivals: 60,
            completions: 2,
            response_sum: 5.0,
            demand_sum: 0.04,
            dropped: 0,
            energy: 52.5,
        };
        assert_eq!(w.mean_response(), Some(2.5));
        assert_eq!(w.mean_demand(), Some(0.02));
        assert_eq!(w.arrival_rate(30.0), 2.0);
        assert_eq!(w.mean_power(30.0), 1.75);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = WindowStats {
            arrivals: 1,
            completions: 2,
            response_sum: 3.0,
            demand_sum: 4.0,
            dropped: 5,
            energy: 6.0,
        };
        a.absorb(&a.clone());
        assert_eq!(a.arrivals, 2);
        assert_eq!(a.completions, 4);
        assert_eq!(a.response_sum, 6.0);
        assert_eq!(a.demand_sum, 8.0);
        assert_eq!(a.dropped, 10);
        assert_eq!(a.energy, 12.0);
    }

    #[test]
    fn drain_resets() {
        let mut a = WindowStats {
            arrivals: 7,
            ..Default::default()
        };
        let taken = a.drain();
        assert_eq!(taken.arrivals, 7);
        assert_eq!(a, WindowStats::default());
    }

    #[test]
    fn energy_integrates_piecewise_constant_power() {
        let mut m = EnergyMeter::new(0.0, 2.0);
        m.advance(3.0); // 6 J
        m.set_power(0.5, 3.0);
        m.advance(7.0); // + 2 J
        assert!((m.energy() - 8.0).abs() < 1e-12);
        assert_eq!(m.power(), 0.5);
    }

    #[test]
    fn zero_power_accumulates_nothing() {
        let mut m = EnergyMeter::new(5.0, 0.0);
        m.advance(100.0);
        assert_eq!(m.energy(), 0.0);
    }

    proptest! {
        #[test]
        fn energy_is_monotone(
            powers in proptest::collection::vec(0.0..10.0f64, 1..20),
            dts in proptest::collection::vec(0.0..5.0f64, 1..20),
        ) {
            let mut m = EnergyMeter::new(0.0, 1.0);
            let mut now = 0.0;
            let mut last_energy = 0.0;
            for (p, dt) in powers.iter().zip(&dts) {
                now += dt;
                m.set_power(*p, now);
                prop_assert!(m.energy() + 1e-12 >= last_energy);
                last_energy = m.energy();
            }
        }
    }
}
