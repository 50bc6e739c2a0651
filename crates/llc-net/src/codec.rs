//! Message codecs: one pure encoder and one pure decoder per message
//! kind, composed from the field primitives in [`frame`](crate::frame).
//!
//! The encoded types are the control-plane API types themselves
//! ([`ModuleObservation`], [`Directive`], [`MetricsSnapshot`]) plus the
//! two session messages ([`Hello`], [`Heartbeat`]). Every `f64` travels
//! as its bit pattern, so `decode(encode(x)) == x` holds *bit*-exactly
//! — the property the loopback golden test leans on — and every decoder
//! is total: malformed bytes yield `Err`, never a panic and never a
//! partially-built value escaping.

use crate::frame::{put_bool, put_f64, put_u32, put_u64, put_u8, put_usize, Reader, WireError};
use llc_cluster::{
    Directive, DirectiveKind, LatencyStats, Level, LevelOverhead, MemberTelemetry, MetricsSnapshot,
    ModuleObservation, PolicyMetrics, TransportMetrics,
};
use llc_sim::{PowerState, WindowStats};
use std::time::Duration;

/// Which end of the wire a session message comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The node agent: owns a plant shard, streams observations.
    Agent,
    /// The controller daemon: owns the `ControlPlane`.
    Controller,
}

impl Role {
    fn as_u8(self) -> u8 {
        match self {
            Role::Agent => 1,
            Role::Controller => 2,
        }
    }

    fn from_u8(b: u8) -> Result<Role, WireError> {
        match b {
            1 => Ok(Role::Agent),
            2 => Ok(Role::Controller),
            _ => Err(WireError::BadPayload("unknown role")),
        }
    }
}

/// Connection handshake. Each side sends one as its first frame; the
/// receiver checks the topology and clock base against its own before
/// exchanging anything else, so a mis-deployed pair fails loudly at
/// connect instead of silently mis-attributing members.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Who is speaking.
    pub role: Role,
    /// The speaker's current base tick (the agent's plant clock, or
    /// the controller's next undecided tick).
    pub tick: u64,
    /// The speaker's current L1 epoch (decision-round count) — an
    /// agent reconnecting mid-run advertises the last epoch it applied
    /// so the controller can see how stale it is.
    pub epoch: u64,
    /// Base tick length `T_L0` in seconds.
    pub t_l0: f64,
    /// Total base ticks in the planned run (0 = open-ended).
    pub total_ticks: u64,
    /// Member count per module — the topology fingerprint.
    pub members_per_module: Vec<u32>,
}

/// Liveness and progress marker.
///
/// Agent → controller: "every observation for `tick` has been sent",
/// plus the cumulative wedged-actuator count the reconciler has
/// detected. Controller → agent: "every directive decided at `tick`
/// has been sent" — the per-window commit marker the agent's
/// reconciler waits on (or times out of, on a lossy link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Who is speaking.
    pub role: Role,
    /// The base tick this marker closes.
    pub tick: u64,
    /// The speaker's L1 epoch at `tick`.
    pub epoch: u64,
    /// Cumulative wedged-actuator detections (agent → controller;
    /// zero from the controller).
    pub wedged: u32,
}

// ---------------------------------------------------------------------
// Hello / Heartbeat
// ---------------------------------------------------------------------

/// Encode a [`Hello`] payload.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(34 + 4 * h.members_per_module.len());
    put_u8(&mut out, h.role.as_u8());
    put_u64(&mut out, h.tick);
    put_u64(&mut out, h.epoch);
    put_f64(&mut out, h.t_l0);
    put_u64(&mut out, h.total_ticks);
    put_usize(&mut out, h.members_per_module.len());
    for &m in &h.members_per_module {
        put_u32(&mut out, m);
    }
    out
}

/// Decode a [`Hello`] payload.
///
/// # Errors
///
/// [`WireError::BadPayload`] on any schema violation.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, WireError> {
    let mut r = Reader::new(payload);
    let role = Role::from_u8(r.u8()?)?;
    let tick = r.u64()?;
    let epoch = r.u64()?;
    let t_l0 = r.f64()?;
    let total_ticks = r.u64()?;
    let n = r.count(4)?;
    let mut members_per_module = Vec::with_capacity(n);
    for _ in 0..n {
        members_per_module.push(r.u32()?);
    }
    r.finish()?;
    Ok(Hello {
        role,
        tick,
        epoch,
        t_l0,
        total_ticks,
        members_per_module,
    })
}

/// Encode a [`Heartbeat`] payload.
pub fn encode_heartbeat(h: &Heartbeat) -> Vec<u8> {
    let mut out = Vec::with_capacity(21);
    put_u8(&mut out, h.role.as_u8());
    put_u64(&mut out, h.tick);
    put_u64(&mut out, h.epoch);
    put_u32(&mut out, h.wedged);
    out
}

/// Decode a [`Heartbeat`] payload.
///
/// # Errors
///
/// [`WireError::BadPayload`] on any schema violation.
pub fn decode_heartbeat(payload: &[u8]) -> Result<Heartbeat, WireError> {
    let mut r = Reader::new(payload);
    let role = Role::from_u8(r.u8()?)?;
    let tick = r.u64()?;
    let epoch = r.u64()?;
    let wedged = r.u32()?;
    r.finish()?;
    Ok(Heartbeat {
        role,
        tick,
        epoch,
        wedged,
    })
}

// ---------------------------------------------------------------------
// ModuleObservation
// ---------------------------------------------------------------------

fn put_window(out: &mut Vec<u8>, w: &WindowStats) {
    put_u64(out, w.arrivals);
    put_u64(out, w.completions);
    put_f64(out, w.response_sum);
    put_f64(out, w.demand_sum);
    put_u64(out, w.dropped);
    put_f64(out, w.energy);
}

fn read_window(r: &mut Reader<'_>) -> Result<WindowStats, WireError> {
    Ok(WindowStats {
        arrivals: r.u64()?,
        completions: r.u64()?,
        response_sum: r.f64()?,
        demand_sum: r.f64()?,
        dropped: r.u64()?,
        energy: r.f64()?,
    })
}

fn put_power_state(out: &mut Vec<u8>, s: PowerState) {
    match s {
        PowerState::Off => put_u8(out, 0),
        PowerState::Booting { ready_at } => {
            put_u8(out, 1);
            put_f64(out, ready_at);
        }
        PowerState::On => put_u8(out, 2),
        PowerState::Draining => put_u8(out, 3),
    }
}

fn read_power_state(r: &mut Reader<'_>) -> Result<PowerState, WireError> {
    match r.u8()? {
        0 => Ok(PowerState::Off),
        1 => Ok(PowerState::Booting { ready_at: r.f64()? }),
        2 => Ok(PowerState::On),
        3 => Ok(PowerState::Draining),
        _ => Err(WireError::BadPayload("unknown power state")),
    }
}

/// Bytes of the fixed part of one encoded `MemberTelemetry` (used as
/// the reader's per-element floor when validating member counts).
const MEMBER_MIN_BYTES: usize = 8 + 8 + 48 + 1 + 8 + 1 + 8;

/// Encode a [`ModuleObservation`] payload.
pub fn encode_observation(o: &ModuleObservation) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + o.members.len() * (MEMBER_MIN_BYTES + 9));
    put_usize(&mut out, o.module);
    put_u64(&mut out, o.tick);
    put_u64(&mut out, o.arrivals);
    put_u64(&mut out, o.dropped);
    put_usize(&mut out, o.members.len());
    for t in &o.members {
        put_usize(&mut out, t.member);
        put_usize(&mut out, t.queue);
        put_window(&mut out, &t.window);
        put_power_state(&mut out, t.state);
        put_usize(&mut out, t.frequency_index);
        put_bool(&mut out, t.telemetry_ok);
        put_u64(&mut out, t.rejected);
    }
    out
}

/// Decode a [`ModuleObservation`] payload.
///
/// # Errors
///
/// [`WireError::BadPayload`] on any schema violation.
pub fn decode_observation(payload: &[u8]) -> Result<ModuleObservation, WireError> {
    let mut r = Reader::new(payload);
    let module = r.usize()?;
    let tick = r.u64()?;
    let arrivals = r.u64()?;
    let dropped = r.u64()?;
    let n = r.count(MEMBER_MIN_BYTES)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(MemberTelemetry {
            member: r.usize()?,
            queue: r.usize()?,
            window: read_window(&mut r)?,
            state: read_power_state(&mut r)?,
            frequency_index: r.usize()?,
            telemetry_ok: r.bool()?,
            rejected: r.u64()?,
        });
    }
    r.finish()?;
    Ok(ModuleObservation {
        module,
        tick,
        members,
        arrivals,
        dropped,
    })
}

// ---------------------------------------------------------------------
// Directive
// ---------------------------------------------------------------------

fn put_level(out: &mut Vec<u8>, level: Level) {
    put_u8(
        out,
        match level {
            Level::L0 => 0,
            Level::L1 => 1,
            Level::L2 => 2,
        },
    );
}

fn read_level(r: &mut Reader<'_>) -> Result<Level, WireError> {
    match r.u8()? {
        0 => Ok(Level::L0),
        1 => Ok(Level::L1),
        2 => Ok(Level::L2),
        _ => Err(WireError::BadPayload("unknown level")),
    }
}

/// Encode a [`Directive`] payload.
pub fn encode_directive(d: &Directive) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    put_u64(&mut out, d.tick);
    put_f64(&mut out, d.time);
    put_level(&mut out, d.level);
    put_u64(&mut out, d.epoch);
    match &d.kind {
        DirectiveKind::Frequency { computer, index } => {
            put_u8(&mut out, 1);
            put_usize(&mut out, *computer);
            put_usize(&mut out, *index);
        }
        DirectiveKind::Activation { computer, on } => {
            put_u8(&mut out, 2);
            put_usize(&mut out, *computer);
            put_bool(&mut out, *on);
        }
        DirectiveKind::Split { module, weights } => {
            put_u8(&mut out, 3);
            match module {
                Some(m) => {
                    put_u8(&mut out, 1);
                    put_usize(&mut out, *m);
                }
                None => put_u8(&mut out, 0),
            }
            put_usize(&mut out, weights.len());
            for &w in weights {
                put_f64(&mut out, w);
            }
        }
        DirectiveKind::SafeMode { module, active } => {
            put_u8(&mut out, 4);
            put_usize(&mut out, *module);
            put_bool(&mut out, *active);
        }
    }
    out
}

/// Decode a [`Directive`] payload.
///
/// # Errors
///
/// [`WireError::BadPayload`] on any schema violation.
pub fn decode_directive(payload: &[u8]) -> Result<Directive, WireError> {
    let mut r = Reader::new(payload);
    let tick = r.u64()?;
    let time = r.f64()?;
    let level = read_level(&mut r)?;
    let epoch = r.u64()?;
    let kind = match r.u8()? {
        1 => DirectiveKind::Frequency {
            computer: r.usize()?,
            index: r.usize()?,
        },
        2 => DirectiveKind::Activation {
            computer: r.usize()?,
            on: r.bool()?,
        },
        3 => {
            let module = match r.u8()? {
                0 => None,
                1 => Some(r.usize()?),
                _ => return Err(WireError::BadPayload("bad option tag")),
            };
            let n = r.count(8)?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(r.f64()?);
            }
            DirectiveKind::Split { module, weights }
        }
        4 => DirectiveKind::SafeMode {
            module: r.usize()?,
            active: r.bool()?,
        },
        _ => return Err(WireError::BadPayload("unknown directive kind")),
    };
    r.finish()?;
    Ok(Directive {
        tick,
        time,
        level,
        epoch,
        kind,
    })
}

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    // Nanoseconds saturate at u64::MAX ≈ 584 years — far beyond any
    // run, and saturation beats a lossy modulo on overflow.
    put_u64(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn read_duration(r: &mut Reader<'_>) -> Result<Duration, WireError> {
    Ok(Duration::from_nanos(r.u64()?))
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
    }
}

fn read_opt_f64(r: &mut Reader<'_>) -> Result<Option<f64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(WireError::BadPayload("bad option tag")),
    }
}

fn put_u64_vec(out: &mut Vec<u8>, v: &[u64]) {
    put_usize(out, v.len());
    for &x in v {
        put_u64(out, x);
    }
}

fn read_u64_vec(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.count(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.u64()?);
    }
    Ok(v)
}

fn put_bool_vec(out: &mut Vec<u8>, v: &[bool]) {
    put_usize(out, v.len());
    for &b in v {
        put_bool(out, b);
    }
}

fn read_bool_vec(r: &mut Reader<'_>) -> Result<Vec<bool>, WireError> {
    let n = r.count(1)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.bool()?);
    }
    Ok(v)
}

/// Encode a [`MetricsSnapshot`] payload — the full surface, transport
/// section included, so a remote operator tool sees exactly what an
/// in-process caller of `ControlPlane::metrics` sees.
pub fn encode_metrics(m: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u64(&mut out, m.next_tick);
    put_u64(&mut out, m.ticks_decided);
    put_u64(&mut out, m.observations_ingested);
    put_u64(&mut out, m.out_of_order_observations);
    put_u64(&mut out, m.stale_observations);
    put_u64(&mut out, m.future_observations);
    put_u64(&mut out, m.dark_filled_members);
    put_u64(&mut out, m.directives_emitted);
    put_u64(&mut out, m.dropped_directives);

    put_u64(&mut out, m.decide.decisions);
    put_duration(&mut out, m.decide.total);
    put_duration(&mut out, m.decide.max);
    put_u64(&mut out, m.decide.candidates_evaluated);
    put_u64(&mut out, m.decide.candidates_pruned);

    let p = &m.policy;
    put_u64(&mut out, p.online_updates);
    put_usize(&mut out, p.map_drift_detections.len());
    for inner in &p.map_drift_detections {
        put_u64_vec(&mut out, inner);
    }
    put_u64_vec(&mut out, &p.model_drift_detections);
    put_opt_f64(&mut out, p.tracking_error);
    put_u64(&mut out, p.tracking_samples);
    put_u64(&mut out, p.retrain_triggers);
    put_u64(&mut out, p.rebuilds);
    put_bool(&mut out, p.retrain_pending);
    put_u64(&mut out, p.member_deaths);
    put_u64(&mut out, p.member_recoveries);
    put_bool_vec(&mut out, &p.members_dead);
    put_u64(&mut out, p.safe_mode_periods);
    put_bool_vec(&mut out, &p.safe_mode_active);
    put_u64(&mut out, p.feed_forward_events);
    for level in &p.level_overhead {
        put_duration(&mut out, level.total);
        put_u64(&mut out, level.decisions);
    }
    put_u64(&mut out, p.l1_candidates_evaluated);
    put_u64(&mut out, p.l1_candidates_pruned);

    let t = &m.transport;
    put_u64(&mut out, t.frames_in);
    put_u64(&mut out, t.frames_out);
    put_u64(&mut out, t.bytes_in);
    put_u64(&mut out, t.bytes_out);
    put_u64(&mut out, t.decode_errors);
    put_u64(&mut out, t.late_observations);
    put_u64(&mut out, t.lost_observation_windows);
    put_u64(&mut out, t.reconnects);
    put_u64(&mut out, t.wedged_reports);
    out
}

/// Decode a [`MetricsSnapshot`] payload.
///
/// # Errors
///
/// [`WireError::BadPayload`] on any schema violation.
pub fn decode_metrics(payload: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut r = Reader::new(payload);
    let next_tick = r.u64()?;
    let ticks_decided = r.u64()?;
    let observations_ingested = r.u64()?;
    let out_of_order_observations = r.u64()?;
    let stale_observations = r.u64()?;
    let future_observations = r.u64()?;
    let dark_filled_members = r.u64()?;
    let directives_emitted = r.u64()?;
    let dropped_directives = r.u64()?;

    let decide = LatencyStats {
        decisions: r.u64()?,
        total: read_duration(&mut r)?,
        max: read_duration(&mut r)?,
        candidates_evaluated: r.u64()?,
        candidates_pruned: r.u64()?,
    };

    let online_updates = r.u64()?;
    let outer = r.count(8)?;
    let mut map_drift_detections = Vec::with_capacity(outer);
    for _ in 0..outer {
        map_drift_detections.push(read_u64_vec(&mut r)?);
    }
    let model_drift_detections = read_u64_vec(&mut r)?;
    let tracking_error = read_opt_f64(&mut r)?;
    let tracking_samples = r.u64()?;
    let retrain_triggers = r.u64()?;
    let rebuilds = r.u64()?;
    let retrain_pending = r.bool()?;
    let member_deaths = r.u64()?;
    let member_recoveries = r.u64()?;
    let members_dead = read_bool_vec(&mut r)?;
    let safe_mode_periods = r.u64()?;
    let safe_mode_active = read_bool_vec(&mut r)?;
    let feed_forward_events = r.u64()?;
    let mut level_overhead = [LevelOverhead::default(); 3];
    for level in &mut level_overhead {
        level.total = read_duration(&mut r)?;
        level.decisions = r.u64()?;
    }
    let l1_candidates_evaluated = r.u64()?;
    let l1_candidates_pruned = r.u64()?;

    let transport = TransportMetrics {
        frames_in: r.u64()?,
        frames_out: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        decode_errors: r.u64()?,
        late_observations: r.u64()?,
        lost_observation_windows: r.u64()?,
        reconnects: r.u64()?,
        wedged_reports: r.u64()?,
    };
    r.finish()?;
    Ok(MetricsSnapshot {
        next_tick,
        ticks_decided,
        observations_ingested,
        out_of_order_observations,
        stale_observations,
        future_observations,
        dark_filled_members,
        directives_emitted,
        dropped_directives,
        decide,
        policy: PolicyMetrics {
            online_updates,
            map_drift_detections,
            model_drift_detections,
            tracking_error,
            tracking_samples,
            retrain_triggers,
            rebuilds,
            retrain_pending,
            member_deaths,
            member_recoveries,
            members_dead,
            safe_mode_periods,
            safe_mode_active,
            feed_forward_events,
            level_overhead,
            l1_candidates_evaluated,
            l1_candidates_pruned,
        },
        transport,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_observation() -> ModuleObservation {
        ModuleObservation {
            module: 2,
            tick: 41,
            arrivals: 355,
            dropped: 3,
            members: vec![
                MemberTelemetry {
                    member: 0,
                    queue: 17,
                    window: WindowStats {
                        arrivals: 120,
                        completions: 118,
                        response_sum: 77.25,
                        demand_sum: 2.125,
                        dropped: 1,
                        energy: 51.5,
                    },
                    state: PowerState::On,
                    frequency_index: 3,
                    telemetry_ok: true,
                    rejected: 0,
                },
                MemberTelemetry {
                    member: 1,
                    queue: 0,
                    window: WindowStats::default(),
                    state: PowerState::Booting { ready_at: 512.75 },
                    frequency_index: 0,
                    telemetry_ok: false,
                    rejected: 9,
                },
                MemberTelemetry {
                    member: 2,
                    queue: 1,
                    window: WindowStats::default(),
                    state: PowerState::Draining,
                    frequency_index: 1,
                    telemetry_ok: true,
                    rejected: 0,
                },
            ],
        }
    }

    pub(crate) fn sample_directives() -> Vec<Directive> {
        vec![
            Directive {
                tick: 4,
                time: 120.0,
                level: Level::L0,
                epoch: 4,
                kind: DirectiveKind::Frequency {
                    computer: 7,
                    index: 2,
                },
            },
            Directive {
                tick: 4,
                time: 120.0,
                level: Level::L1,
                epoch: 1,
                kind: DirectiveKind::Activation {
                    computer: 3,
                    on: false,
                },
            },
            Directive {
                tick: 4,
                time: 120.0,
                level: Level::L1,
                epoch: 1,
                kind: DirectiveKind::Split {
                    module: Some(0),
                    weights: vec![0.25, 0.5, 0.25],
                },
            },
            Directive {
                tick: 8,
                time: 240.0,
                level: Level::L2,
                epoch: 1,
                kind: DirectiveKind::Split {
                    module: None,
                    weights: vec![0.625, 0.375],
                },
            },
            Directive {
                tick: 8,
                time: 240.0,
                level: Level::L1,
                epoch: 2,
                kind: DirectiveKind::SafeMode {
                    module: 1,
                    active: true,
                },
            },
        ]
    }

    pub(crate) fn sample_metrics() -> MetricsSnapshot {
        MetricsSnapshot {
            next_tick: 90,
            ticks_decided: 90,
            observations_ingested: 180,
            out_of_order_observations: 2,
            stale_observations: 5,
            future_observations: 7,
            dark_filled_members: 12,
            directives_emitted: 400,
            dropped_directives: 3,
            decide: LatencyStats {
                decisions: 90,
                total: Duration::from_micros(720),
                max: Duration::from_micros(31),
                candidates_evaluated: 900,
                candidates_pruned: 2048,
            },
            policy: PolicyMetrics {
                online_updates: 333,
                map_drift_detections: vec![vec![1, 0, 2, 0], vec![0, 3]],
                model_drift_detections: vec![1, 0],
                tracking_error: Some(0.03125),
                tracking_samples: 88,
                retrain_triggers: 2,
                rebuilds: 1,
                retrain_pending: true,
                member_deaths: 3,
                member_recoveries: 2,
                members_dead: vec![false, true, false, false],
                safe_mode_periods: 4,
                safe_mode_active: vec![true, false],
                feed_forward_events: 21,
                level_overhead: [
                    LevelOverhead {
                        total: Duration::from_micros(9),
                        decisions: 90,
                    },
                    LevelOverhead {
                        total: Duration::from_micros(61),
                        decisions: 22,
                    },
                    LevelOverhead {
                        total: Duration::from_micros(11),
                        decisions: 11,
                    },
                ],
                l1_candidates_evaluated: 900,
                l1_candidates_pruned: 2048,
            },
            transport: TransportMetrics {
                frames_in: 181,
                frames_out: 402,
                bytes_in: 40960,
                bytes_out: 20480,
                decode_errors: 1,
                late_observations: 5,
                lost_observation_windows: 3,
                reconnects: 1,
                wedged_reports: 2,
            },
        }
    }

    #[test]
    fn hello_round_trip() {
        let h = Hello {
            role: Role::Agent,
            tick: 17,
            epoch: 4,
            t_l0: 30.0,
            total_ticks: 360,
            members_per_module: vec![4, 3, 5],
        };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);
        let c = Hello {
            role: Role::Controller,
            members_per_module: vec![],
            ..h
        };
        assert_eq!(decode_hello(&encode_hello(&c)).unwrap(), c);
    }

    #[test]
    fn heartbeat_round_trip() {
        for role in [Role::Agent, Role::Controller] {
            let h = Heartbeat {
                role,
                tick: u64::MAX,
                epoch: 0,
                wedged: 7,
            };
            assert_eq!(decode_heartbeat(&encode_heartbeat(&h)).unwrap(), h);
        }
    }

    #[test]
    fn observation_round_trip_is_bit_exact() {
        let o = sample_observation();
        let back = decode_observation(&encode_observation(&o)).unwrap();
        assert_eq!(back, o);
        // Bit-exactness beyond PartialEq: the floats' bit patterns.
        assert_eq!(
            back.members[0].window.response_sum.to_bits(),
            o.members[0].window.response_sum.to_bits()
        );
    }

    #[test]
    fn directive_round_trip_every_kind() {
        for d in sample_directives() {
            assert_eq!(decode_directive(&encode_directive(&d)).unwrap(), d);
        }
    }

    #[test]
    fn metrics_round_trip() {
        let m = sample_metrics();
        assert_eq!(decode_metrics(&encode_metrics(&m)).unwrap(), m);
        let empty = MetricsSnapshot::default();
        assert_eq!(decode_metrics(&encode_metrics(&empty)).unwrap(), empty);
    }

    #[test]
    fn decoders_reject_trailing_bytes() {
        let mut bytes = encode_observation(&sample_observation());
        bytes.push(0);
        assert!(decode_observation(&bytes).is_err());
        let mut bytes = encode_directive(&sample_directives()[0]);
        bytes.push(0);
        assert!(decode_directive(&bytes).is_err());
        let mut bytes = encode_metrics(&sample_metrics());
        bytes.push(0);
        assert!(decode_metrics(&bytes).is_err());
    }

    #[test]
    fn decoders_reject_every_truncation() {
        let obs = encode_observation(&sample_observation());
        for cut in 0..obs.len() {
            assert!(decode_observation(&obs[..cut]).is_err(), "cut {cut}");
        }
        let m = encode_metrics(&sample_metrics());
        for cut in 0..m.len() {
            assert!(decode_metrics(&m[..cut]).is_err(), "cut {cut}");
        }
        for d in sample_directives() {
            let bytes = encode_directive(&d);
            for cut in 0..bytes.len() {
                assert!(decode_directive(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }
}
