//! Drift scenarios: workloads paired with plant-side model drift.
//!
//! The paper's §6 outlook motivates *online* map updates with exactly
//! these situations — the world the maps were trained on stops matching
//! the world being controlled. A [`DriftScenario`] bundles an arrival
//! trace with a [`CapacityProfile`] describing how the machines' real
//! delivered capacity departs from nominal over the run. The capacity
//! side is *invisible to telemetry*: request demands (what the
//! controllers' ĉ filters measure) stay nominal while service silently
//! stretches — the case a train-once controller cannot see coming. Feed
//! the profile to `llc_sim`'s `set_service_scale` drift hook, or divide
//! analytic service times by the scale when replaying queue models.
//!
//! Three canonical scenarios ship with [`drift_scenarios`]:
//!
//! 1. **gradual-degradation** — steady traffic, capacity ramping down
//!    linearly (aging heat-throttled hardware, creeping background load);
//! 2. **diurnal-shift** — a diurnal arrival swing whose *peak hours also
//!    slow the machines* (cache pressure, noisy neighbors), so the
//!    worst-case operating points are precisely where the offline maps
//!    are most wrong;
//! 3. **post-failure-capacity** — steady traffic with a sharp capacity
//!    step mid-run (a machine comes back from a failure degraded).

use crate::{DiurnalShape, SyntheticBuilder, Trace};

/// How delivered capacity (as a fraction of nominal, in `(0, 1]`) evolves
/// over a run of `len` buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityProfile {
    /// No drift: scale 1.0 throughout (the control arm).
    Nominal,
    /// Linear ramp from `from` at bucket 0 to `to` at the last bucket.
    Ramp {
        /// Scale at the start of the run.
        from: f64,
        /// Scale at the end of the run.
        to: f64,
    },
    /// Step change: `before` until `at` (fraction of the run in `[0, 1]`),
    /// `after` from there on.
    Step {
        /// Fraction of the run at which the step occurs.
        at: f64,
        /// Scale before the step.
        before: f64,
        /// Scale after the step.
        after: f64,
    },
    /// Sinusoidal dip tied to the diurnal cycle: scale
    /// `base − amplitude · sin²(π·k/period)` — deepest mid-cycle.
    Diurnal {
        /// Scale at the cycle troughs.
        base: f64,
        /// Depth of the mid-cycle dip (`base − amplitude > 0`).
        amplitude: f64,
        /// Cycle length in buckets.
        period: f64,
    },
}

impl CapacityProfile {
    /// Delivered-capacity scale during bucket `k` of a `len`-bucket run.
    /// Always in `(0, 1]` for well-formed profiles.
    pub fn scale_at(&self, k: usize, len: usize) -> f64 {
        let frac = if len <= 1 {
            0.0
        } else {
            k as f64 / (len - 1) as f64
        };
        let scale = match *self {
            CapacityProfile::Nominal => 1.0,
            CapacityProfile::Ramp { from, to } => from + (to - from) * frac,
            CapacityProfile::Step { at, before, after } => {
                if frac < at {
                    before
                } else {
                    after
                }
            }
            CapacityProfile::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let s = (std::f64::consts::PI * k as f64 / period.max(1.0)).sin();
                base - amplitude * s * s
            }
        };
        scale.clamp(1e-6, 1.0)
    }
}

/// An arrival trace plus the plant drift it runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScenario {
    /// Stable scenario identifier: the first column of the `paper` bin's
    /// `online_maps` row, in its printed lines and in `online_maps.csv`.
    pub name: &'static str,
    /// Arrival counts per bucket.
    pub trace: Trace,
    /// Delivered-capacity drift over the run.
    pub capacity: CapacityProfile,
}

impl DriftScenario {
    /// Capacity scale during bucket `k` of this scenario's trace.
    pub fn scale_at(&self, k: usize) -> f64 {
        self.capacity.scale_at(k, self.trace.len())
    }

    /// The drift for a plant ticking every `t_l0` seconds: the diurnal
    /// dip's period, counted in buckets, stretched by the bucket/tick
    /// ratio (ramps and steps are fractions of the run and carry over).
    pub fn capacity_per_tick(&self, t_l0: f64) -> CapacityProfile {
        match self.capacity {
            CapacityProfile::Diurnal {
                base,
                amplitude,
                period,
            } => CapacityProfile::Diurnal {
                base,
                amplitude,
                period: period * (self.trace.interval() / t_l0),
            },
            other => other,
        }
    }
}

/// Names of the drift scenarios: [`drift_scenarios`]' three in order,
/// then [`deep_degradation_scenario`].
pub const DRIFT_SCENARIO_NAMES: [&str; 4] = [
    "gradual-degradation",
    "diurnal-shift",
    "post-failure-capacity",
    "deep-degradation",
];

/// The three canonical drift scenarios over `buckets` buckets of
/// `interval` seconds, with arrival rates peaking near `peak_rate`
/// requests/second. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `buckets == 0`, `interval <= 0`, or `peak_rate <= 0`.
pub fn drift_scenarios(
    seed: u64,
    buckets: usize,
    interval: f64,
    peak_rate: f64,
) -> Vec<DriftScenario> {
    assert!(buckets > 0, "need at least one bucket");
    assert!(interval > 0.0, "interval must be positive");
    assert!(peak_rate > 0.0, "peak rate must be positive");
    let b = buckets as f64;
    // Steady traffic near 60% of peak, light noise.
    let steady = SyntheticBuilder::new(
        DiurnalShape::new(0.6 * peak_rate * interval),
        buckets,
        interval,
    )
    .with_noise(crate::synthetic::NoiseSegment {
        start: 0,
        end: buckets,
        var_per_30s: (0.02 * peak_rate * interval).powi(2) / (interval / 30.0),
    })
    .build(seed);
    // One diurnal cycle: quiet shoulders, a broad peak past mid-run.
    let diurnal = SyntheticBuilder::new(
        DiurnalShape::new(0.25 * peak_rate * interval).with_hump(
            0.7 * peak_rate * interval,
            0.6 * b,
            0.18 * b,
        ),
        buckets,
        interval,
    )
    .with_noise(crate::synthetic::NoiseSegment {
        start: 0,
        end: buckets,
        var_per_30s: (0.02 * peak_rate * interval).powi(2) / (interval / 30.0),
    })
    .build(seed ^ 0x5eed);
    vec![
        DriftScenario {
            name: DRIFT_SCENARIO_NAMES[0],
            trace: steady.clone(),
            capacity: CapacityProfile::Ramp { from: 1.0, to: 0.7 },
        },
        DriftScenario {
            name: DRIFT_SCENARIO_NAMES[1],
            trace: diurnal,
            capacity: CapacityProfile::Diurnal {
                base: 1.0,
                amplitude: 0.3,
                period: b,
            },
        },
        DriftScenario {
            name: DRIFT_SCENARIO_NAMES[2],
            trace: steady,
            capacity: CapacityProfile::Step {
                at: 0.5,
                before: 1.0,
                after: 0.65,
            },
        },
    ]
}

/// The *deep* degradation scenario the drift-aware L0 exists for: steady
/// traffic near 40% of peak while delivered capacity steps down to half
/// of nominal 30% into the run. The load still *fits* the degraded plant
/// — but only at frequencies well above what a capacity-blind queue
/// model believes necessary, which is exactly the regime where the
/// drift-blind L0 limit-cycles between too-low frequencies (queues grow
/// against the model's prediction) and flat-out backlog drains (the
/// model thinks they finish early). Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `buckets == 0`, `interval <= 0`, or `peak_rate <= 0`.
pub fn deep_degradation_scenario(
    seed: u64,
    buckets: usize,
    interval: f64,
    peak_rate: f64,
) -> DriftScenario {
    assert!(buckets > 0, "need at least one bucket");
    assert!(interval > 0.0, "interval must be positive");
    assert!(peak_rate > 0.0, "peak rate must be positive");
    let steady = SyntheticBuilder::new(
        DiurnalShape::new(0.4 * peak_rate * interval),
        buckets,
        interval,
    )
    .with_noise(crate::synthetic::NoiseSegment {
        start: 0,
        end: buckets,
        var_per_30s: (0.02 * peak_rate * interval).powi(2) / (interval / 30.0),
    })
    .build(seed ^ 0xdeeb);
    DriftScenario {
        name: DRIFT_SCENARIO_NAMES[3],
        trace: steady,
        capacity: CapacityProfile::Step {
            at: 0.3,
            before: 1.0,
            after: 0.5,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_stay_in_unit_interval() {
        let profiles = [
            CapacityProfile::Nominal,
            CapacityProfile::Ramp { from: 1.0, to: 0.5 },
            CapacityProfile::Step {
                at: 0.5,
                before: 1.0,
                after: 0.6,
            },
            CapacityProfile::Diurnal {
                base: 1.0,
                amplitude: 0.4,
                period: 100.0,
            },
        ];
        for p in profiles {
            for k in 0..200 {
                let s = p.scale_at(k, 200);
                assert!(s > 0.0 && s <= 1.0, "{p:?} at {k}: {s}");
            }
        }
    }

    #[test]
    fn ramp_hits_endpoints() {
        let p = CapacityProfile::Ramp { from: 1.0, to: 0.7 };
        assert!((p.scale_at(0, 101) - 1.0).abs() < 1e-12);
        assert!((p.scale_at(100, 101) - 0.7).abs() < 1e-12);
        assert!((p.scale_at(50, 101) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn step_switches_at_fraction() {
        let p = CapacityProfile::Step {
            at: 0.5,
            before: 1.0,
            after: 0.65,
        };
        assert_eq!(p.scale_at(0, 100), 1.0);
        assert_eq!(p.scale_at(49, 100), 1.0);
        assert_eq!(p.scale_at(50, 100), 0.65);
        assert_eq!(p.scale_at(99, 100), 0.65);
    }

    #[test]
    fn deep_degradation_is_deterministic_and_deep() {
        let a = deep_degradation_scenario(7, 120, 120.0, 50.0);
        let b = deep_degradation_scenario(7, 120, 120.0, 50.0);
        assert_eq!(a, b, "same seed, same scenario");
        assert_eq!(a.name, "deep-degradation");
        assert_eq!(a.trace.len(), 120);
        // Nominal before the step, half capacity after.
        assert!(a.scale_at(0) > 0.99);
        assert!((a.scale_at(119) - 0.5).abs() < 1e-12);
        // The post-step load still fits the degraded plant: ~40% of peak
        // against 50% of capacity — the limit-cycle regime, not pure
        // overload.
        let mean = a.trace.counts().iter().sum::<f64>() / a.trace.len() as f64 / 120.0;
        assert!(mean < 0.5 * 50.0, "mean rate {mean} must fit 50% capacity");
        assert!(mean > 0.3 * 50.0, "mean rate {mean} must stress the plant");
    }

    #[test]
    fn scenarios_are_deterministic_and_shaped() {
        let a = drift_scenarios(7, 200, 120.0, 50.0);
        let b = drift_scenarios(7, 200, 120.0, 50.0);
        assert_eq!(a, b, "same seed, same scenarios");
        assert_eq!(a.len(), 3);
        let names: Vec<&str> = a.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "gradual-degradation",
                "diurnal-shift",
                "post-failure-capacity"
            ]
        );
        for s in &a {
            assert_eq!(s.trace.len(), 200);
            assert!(
                s.trace.peak() <= 1.3 * 50.0 * 120.0,
                "{}: sane peak",
                s.name
            );
        }
        // The diurnal scenario actually swings.
        let d = &a[1];
        assert!(d.trace.peak() > 2.5 * d.trace.counts()[0].max(1.0));
        // Drift deepens mid-run for the diurnal capacity dip.
        assert!(d.scale_at(100) < 0.8);
        assert!(d.scale_at(0) > 0.95);
    }
}
