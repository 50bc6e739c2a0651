//! Fault plans: scheduled abrupt faults paired with workloads.
//!
//! [`crate::drift`] models *slow* plant change — capacity quietly
//! ramping away from the trained models. This module models the abrupt
//! faults a production fleet actually throws at an autonomic controller:
//! machines crashing mid-run and coming back through the boot dead time,
//! telemetry windows going dark, sensors reporting garbage, and
//! frequency actuators wedging. A [`FaultPlan`] is a deterministic
//! schedule of [`FaultEvent`]s keyed by control tick; the experiment
//! driver applies each event to the simulator (crash/restart/stuck
//! actuator) or to the observation stream (blackout/noise) at the start
//! of its tick, exactly like the capacity profiles of
//! [`crate::CapacityProfile`].
//!
//! Four canonical fault scenarios ship with [`fault_scenarios`]:
//!
//! 1. **crash-restart** — one member crashes with its queue lost and
//!    restarts after a dead window (the bread-and-butter churn case);
//! 2. **rolling-blackout** — telemetry windows go dark machine by
//!    machine while every machine keeps serving (the estimators must
//!    hold state, not poison it);
//! 3. **flapping-member** — one member crash/restart-cycles repeatedly
//!    (hysteresis and watchdog thresholds get stress-tested);
//! 4. **stuck-actuator** — one machine's DVFS actuator wedges at full
//!    speed while another's sensors turn noisy (actuation *and* sensing
//!    degrade at once).

use crate::{DiurnalShape, SyntheticBuilder, Trace};

/// One kind of injectable fault, applied to a single computer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Machine crash: queued and in-service work is ripped out
    /// instantly, the machine becomes unbootable until a
    /// [`FaultKind::Restart`], and it goes dark — telemetry stops
    /// (`telemetry_ok = false`) with its reported power state frozen at
    /// the last value seen, because crash-stop is indistinguishable
    /// from a partition. With `requeue = true` the lost work is
    /// re-dispatched through the module router at the crash instant;
    /// with `false` it is dropped.
    Crash {
        /// Re-dispatch the crashed-out work instead of dropping it.
        requeue: bool,
    },
    /// Repair a crashed machine and order it back on (normal
    /// Off→Booting boot dead time applies).
    Restart,
    /// The machine's telemetry goes dark: its observation window
    /// arrives blank (no arrivals/completions/queue visible) until
    /// [`FaultKind::BlackoutEnd`]. The machine itself keeps serving.
    BlackoutStart,
    /// Telemetry comes back.
    BlackoutEnd,
    /// The machine's sensors turn noisy: reported response-time and
    /// demand sums are corrupted by multiplicative Gaussian noise of
    /// relative standard deviation `sigma` until [`FaultKind::NoiseEnd`].
    NoiseStart {
        /// Relative standard deviation of the multiplicative corruption.
        sigma: f64,
    },
    /// Sensors return to clean readings.
    NoiseEnd,
    /// The machine's frequency actuator wedges: `SetFrequency`
    /// directives are silently ignored until
    /// [`FaultKind::UnstickActuator`].
    StickActuator,
    /// The frequency actuator frees up again.
    UnstickActuator,
}

/// One scheduled fault: `kind` hits `computer` at the start of control
/// tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Control tick (experiment base tick) at which the fault fires.
    pub tick: u64,
    /// Global computer index the fault applies to.
    pub computer: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events over a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Events sorted by tick (stable on ties: plan order).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from the given events (sorted by tick; same-tick events
    /// keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.tick);
        FaultPlan { events }
    }

    /// An empty plan (no faults — the control arm).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// All events, sorted by tick.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events that fire at control tick `tick`, in plan order.
    pub fn events_at(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// Tick of the last scheduled fault, if any — benches measure
    /// recovery time from here.
    pub fn last_fault_tick(&self) -> Option<u64> {
        self.events.last().map(|e| e.tick)
    }

    /// Largest computer index referenced by the plan, if any — drivers
    /// validate it against the cluster size.
    pub fn max_computer(&self) -> Option<usize> {
        self.events.iter().map(|e| e.computer).max()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// An arrival trace plus the fault schedule it runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Stable scenario identifier (used in benchmark JSON keys).
    pub name: &'static str,
    /// Arrival counts per bucket.
    pub trace: Trace,
    /// Scheduled faults over the run.
    pub plan: FaultPlan,
}

/// Steady trace near `load_frac` of peak with light noise (shared by all
/// fault scenarios: the faults, not the traffic, are the experiment).
fn steady_trace(seed: u64, buckets: usize, interval: f64, peak_rate: f64, load_frac: f64) -> Trace {
    SyntheticBuilder::new(
        DiurnalShape::new(load_frac * peak_rate * interval),
        buckets,
        interval,
    )
    .with_noise(crate::NoiseSegment {
        start: 0,
        end: buckets,
        var_per_30s: (0.02 * peak_rate * interval).powi(2) / (interval / 30.0),
    })
    .build(seed)
}

/// Fewest machines [`fault_scenarios`] takes: a crash needs a survivor.
pub const MIN_FAULT_MACHINES: usize = 2;
/// Fewest 30 s ticks a [`fault_scenarios`] run spans.
pub const MIN_FAULT_TICKS: u64 = 40;

/// The four canonical fault scenarios over `buckets` buckets of
/// `interval` seconds, with arrival rates near 55–70 % of `peak_rate`
/// requests/second (the load must still fit the survivors of a crash),
/// against a module of `machines` computers (global indices
/// `0..machines`). Fault ticks are laid out for the paper-default 30 s
/// control tick, i.e. over `buckets · interval / 30` experiment ticks.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `buckets == 0`, `interval <= 0`, `peak_rate <= 0`,
/// `machines < MIN_FAULT_MACHINES`, or the run spans fewer than
/// [`MIN_FAULT_TICKS`] ticks.
pub fn fault_scenarios(
    seed: u64,
    buckets: usize,
    interval: f64,
    peak_rate: f64,
    machines: usize,
) -> Vec<FaultScenario> {
    assert!(buckets > 0, "need at least one bucket");
    assert!(interval > 0.0, "interval must be positive");
    assert!(peak_rate > 0.0, "peak rate must be positive");
    assert!(machines >= MIN_FAULT_MACHINES, "no surviving peer");
    let ticks = (buckets as f64 * interval / 30.0).round() as u64;
    assert!(ticks >= MIN_FAULT_TICKS, "run too short for faults");
    let t = |frac: f64| (frac * ticks as f64).round() as u64;
    let trace =
        |salt: u64, load: f64| steady_trace(seed ^ salt, buckets, interval, peak_rate, load);

    // 1. One crash with the queue lost, restart after ~12 ticks dead.
    let crash_restart = FaultPlan::new(vec![
        FaultEvent {
            tick: t(0.35),
            computer: 1,
            kind: FaultKind::Crash { requeue: false },
        },
        FaultEvent {
            tick: t(0.35) + 12,
            computer: 1,
            kind: FaultKind::Restart,
        },
    ]);

    // 2. Telemetry goes dark machine by machine, ~10 ticks each,
    // sweeping the whole module while everything keeps serving.
    let mut rolling = Vec::new();
    for j in 0..machines {
        let start = t(0.3) + (j as u64) * 10;
        rolling.push(FaultEvent {
            tick: start,
            computer: j,
            kind: FaultKind::BlackoutStart,
        });
        rolling.push(FaultEvent {
            tick: start + 10,
            computer: j,
            kind: FaultKind::BlackoutEnd,
        });
    }
    let rolling_blackout = FaultPlan::new(rolling);

    // 3. One member flaps: three crash/restart cycles in a row, each
    // dead window shorter than the watchdog would like.
    let mut flapping = Vec::new();
    for cycle in 0..3u64 {
        let start = t(0.3) + cycle * 14;
        flapping.push(FaultEvent {
            tick: start,
            computer: 1,
            kind: FaultKind::Crash { requeue: true },
        });
        flapping.push(FaultEvent {
            tick: start + 6,
            computer: 1,
            kind: FaultKind::Restart,
        });
    }
    let flapping_member = FaultPlan::new(flapping);

    // 4. Machine 0's actuator wedges for the middle third of the run
    // while machine 1's sensors turn noisy over the same stretch.
    let stuck_actuator = FaultPlan::new(vec![
        FaultEvent {
            tick: t(1.0 / 3.0),
            computer: 0,
            kind: FaultKind::StickActuator,
        },
        FaultEvent {
            tick: t(1.0 / 3.0),
            computer: 1,
            kind: FaultKind::NoiseStart { sigma: 0.6 },
        },
        FaultEvent {
            tick: t(2.0 / 3.0),
            computer: 0,
            kind: FaultKind::UnstickActuator,
        },
        FaultEvent {
            tick: t(2.0 / 3.0),
            computer: 1,
            kind: FaultKind::NoiseEnd,
        },
    ]);

    vec![
        FaultScenario {
            name: "crash-restart",
            trace: trace(0xC4A5, 0.7),
            plan: crash_restart,
        },
        FaultScenario {
            name: "rolling-blackout",
            trace: trace(0xB1AC, 0.7),
            plan: rolling_blackout,
        },
        FaultScenario {
            name: "flapping-member",
            trace: trace(0xF1A9, 0.7),
            plan: flapping_member,
        },
        FaultScenario {
            name: "stuck-actuator",
            trace: trace(0x57CC, 0.7),
            plan: stuck_actuator,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_sorted_and_queryable() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                tick: 20,
                computer: 0,
                kind: FaultKind::Restart,
            },
            FaultEvent {
                tick: 5,
                computer: 0,
                kind: FaultKind::Crash { requeue: false },
            },
            FaultEvent {
                tick: 5,
                computer: 1,
                kind: FaultKind::BlackoutStart,
            },
        ]);
        assert_eq!(plan.events().len(), 3);
        assert!(plan.events().windows(2).all(|w| w[0].tick <= w[1].tick));
        assert_eq!(plan.events_at(5).count(), 2);
        assert_eq!(plan.events_at(6).count(), 0);
        assert_eq!(plan.last_fault_tick(), Some(20));
        assert_eq!(plan.max_computer(), Some(1));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().last_fault_tick(), None);
    }

    #[test]
    fn scenarios_are_deterministic_and_shaped() {
        let a = fault_scenarios(7, 120, 120.0, 50.0, 3);
        let b = fault_scenarios(7, 120, 120.0, 50.0, 3);
        assert_eq!(a, b, "same seed, same scenarios");
        let names: Vec<&str> = a.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "crash-restart",
                "rolling-blackout",
                "flapping-member",
                "stuck-actuator"
            ]
        );
        let ticks = 120 * 120 / 30;
        for s in &a {
            assert_eq!(s.trace.len(), 120);
            assert!(!s.plan.is_empty());
            assert!(
                s.plan.last_fault_tick().unwrap() < ticks * 9 / 10,
                "{}: faults must end early enough to measure recovery",
                s.name
            );
            assert!(s.plan.max_computer().unwrap() < 3);
            // Load fits the survivors: mean rate under peak capacity
            // with headroom for a one-machine crash.
            let mean = s.trace.counts().iter().sum::<f64>() / s.trace.len() as f64 / 120.0;
            assert!(mean < 0.8 * 50.0, "{}: mean rate {mean} too hot", s.name);
        }
        // The rolling blackout sweeps every machine.
        let blackout = &a[1];
        for j in 0..3 {
            assert!(blackout
                .plan
                .events()
                .iter()
                .any(|e| e.computer == j && e.kind == FaultKind::BlackoutStart));
        }
    }

    #[test]
    #[should_panic(expected = "surviving peer")]
    fn single_machine_rejected() {
        let _ = fault_scenarios(7, 120, 120.0, 50.0, 1);
    }
}
