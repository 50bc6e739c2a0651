//! The controller side of the distributed loop: [`ControldCore`] wraps
//! a [`ControlPlane`] with the transport bookkeeping a networked
//! deployment needs — payload decoding and dispatch, late/lost
//! observation accounting, reconnect counting — and surfaces it all
//! through the `transport` section of [`MetricsSnapshot`].
//!
//! The core is transport-free: the session loops in [`crate::session`]
//! (or a test playing scheduler) move frames; `ControldCore` decides.

use crate::codec::{decode_heartbeat, decode_hello, decode_observation, Heartbeat, Hello, Role};
use crate::frame::{Frame, FrameKind, WireError};
use crate::link::LinkCounters;
use llc_cluster::{
    Cadence, ClusterPolicy, ControlPlane, Directive, DirectiveEmit, IngestError, Level,
    MetricsSnapshot, ObservationIngest, StepReport, TransportMetrics,
};

/// What one incoming frame meant to the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlEvent {
    /// An observation was ingested for `(module, tick)`.
    Ingested {
        /// Reporting module.
        module: usize,
        /// Observation tick.
        tick: u64,
    },
    /// An observation arrived after its tick was decided; dropped whole
    /// and counted as late.
    Late {
        /// The stale tick.
        tick: u64,
    },
    /// An observation arrived for a tick beyond the plane's ingest
    /// horizon; dropped whole and counted by the plane
    /// (`MetricsSnapshot::future_observations`).
    Future {
        /// The too-early tick.
        tick: u64,
    },
    /// The agent's end-of-window heartbeat.
    AgentHeartbeat(Heartbeat),
    /// A (re-)handshake from the agent.
    AgentHello(Hello),
}

/// The controller's state machine: the control plane plus transport
/// counters.
#[derive(Debug)]
pub struct ControldCore<P: ClusterPolicy> {
    plane: ControlPlane<P>,
    num_modules: usize,
    t_l0: f64,
    total_ticks: u64,
    directives_log: Vec<Directive>,
    last_agent_heartbeat: Option<Heartbeat>,
    payload_errors: u64,
    late_observations: u64,
    lost_observation_windows: u64,
    reconnects: u64,
    wedged_reports: u64,
}

impl<P: ClusterPolicy> ControldCore<P> {
    /// Wrap `policy` in a control plane over the given topology, to be
    /// driven for `total_ticks` base ticks of `t_l0` seconds each.
    pub fn new(
        policy: P,
        members: Vec<Vec<usize>>,
        t_l0: f64,
        total_ticks: u64,
    ) -> ControldCore<P> {
        let num_modules = members.len();
        ControldCore {
            plane: ControlPlane::new(policy, members, t_l0),
            num_modules,
            t_l0,
            total_ticks,
            directives_log: Vec::new(),
            last_agent_heartbeat: None,
            payload_errors: 0,
            late_observations: 0,
            lost_observation_windows: 0,
            reconnects: 0,
            wedged_reports: 0,
        }
    }

    /// The policy's cadence (for epoch stamping).
    fn cadence(&self) -> Cadence {
        self.plane.policy().cadence()
    }

    /// The handshake frame describing this controller.
    pub fn hello(&self) -> Hello {
        let tick = self.plane.next_tick();
        Hello {
            role: Role::Controller,
            tick,
            epoch: self.cadence().epoch(Level::L1, tick),
            t_l0: self.t_l0,
            total_ticks: self.total_ticks,
            members_per_module: Vec::new(), // filled by check against the agent's
        }
    }

    /// Validate the agent's handshake against this plane's
    /// configuration.
    ///
    /// # Errors
    ///
    /// A human-readable mismatch description.
    pub fn check_agent_hello(&self, hello: &Hello) -> Result<(), String> {
        if hello.role != Role::Agent {
            return Err(format!(
                "peer announced role {:?}, expected Agent",
                hello.role
            ));
        }
        if hello.t_l0.to_bits() != self.t_l0.to_bits() {
            return Err(format!(
                "tick length mismatch: agent {} s, controller {} s",
                hello.t_l0, self.t_l0
            ));
        }
        if hello.total_ticks != self.total_ticks {
            return Err(format!(
                "run length mismatch: agent {} ticks, controller {}",
                hello.total_ticks, self.total_ticks
            ));
        }
        if hello.members_per_module.len() != self.num_modules {
            return Err(format!(
                "topology mismatch: agent has {} modules, controller {}",
                hello.members_per_module.len(),
                self.num_modules
            ));
        }
        Ok(())
    }

    /// The next undecided tick.
    pub fn next_tick(&self) -> u64 {
        self.plane.next_tick()
    }

    /// Base tick length in seconds.
    pub fn t_l0(&self) -> f64 {
        self.t_l0
    }

    /// Whether every tick has been decided.
    pub fn finished(&self) -> bool {
        self.plane.next_tick() >= self.total_ticks
    }

    /// Whether every module has reported for the next tick.
    pub fn ready(&self) -> bool {
        self.plane.ready()
    }

    /// The control plane (for policy/metrics introspection).
    pub fn plane(&self) -> &ControlPlane<P> {
        &self.plane
    }

    /// Dissolve the core and hand the policy back (for post-run
    /// inspection of learner state).
    pub fn into_policy(self) -> P {
        self.plane.into_policy()
    }

    /// Every directive emitted so far, in emission order.
    pub fn directives_log(&self) -> &[Directive] {
        &self.directives_log
    }

    /// The agent's most recent end-of-window heartbeat.
    pub fn last_agent_heartbeat(&self) -> Option<&Heartbeat> {
        self.last_agent_heartbeat.as_ref()
    }

    /// Record a transport reconnect (the binary calls this when it
    /// accepts a replacement connection).
    pub fn note_reconnect(&mut self) {
        self.reconnects += 1;
    }

    /// Decode and dispatch one incoming frame. On a payload decode
    /// failure the frame is dropped whole — nothing is partially
    /// applied — the error is counted, and returned for the session
    /// loop to decide whether to tolerate (paced) or abort (lockstep).
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload does not decode or the frame kind
    /// has no business arriving at a controller.
    pub fn handle_frame(&mut self, frame: &Frame) -> Result<CtrlEvent, WireError> {
        let fallible = |r: Result<CtrlEvent, WireError>, errs: &mut u64| {
            if r.is_err() {
                *errs += 1;
            }
            r
        };
        match frame.kind {
            FrameKind::Observation => {
                let observation = match decode_observation(&frame.payload) {
                    Ok(o) => o,
                    Err(e) => {
                        self.payload_errors += 1;
                        return Err(e);
                    }
                };
                let module = observation.module;
                let tick = observation.tick;
                match self.plane.ingest(observation) {
                    Ok(()) => Ok(CtrlEvent::Ingested { module, tick }),
                    Err(IngestError::Stale { tick, .. }) => {
                        self.late_observations += 1;
                        Ok(CtrlEvent::Late { tick })
                    }
                    Err(IngestError::Future { tick, .. }) => Ok(CtrlEvent::Future { tick }),
                    Err(IngestError::UnknownModule { .. } | IngestError::UnknownMember { .. }) => {
                        self.payload_errors += 1;
                        Err(WireError::BadPayload("observation names unknown topology"))
                    }
                    Err(IngestError::NonFinite { .. }) => {
                        self.payload_errors += 1;
                        Err(WireError::BadPayload(
                            "observation carries non-finite window sums",
                        ))
                    }
                }
            }
            FrameKind::Heartbeat => fallible(
                decode_heartbeat(&frame.payload).map(|hb| {
                    self.wedged_reports = u64::from(hb.wedged);
                    self.last_agent_heartbeat = Some(hb);
                    CtrlEvent::AgentHeartbeat(hb)
                }),
                &mut self.payload_errors,
            ),
            FrameKind::Hello => fallible(
                decode_hello(&frame.payload).map(CtrlEvent::AgentHello),
                &mut self.payload_errors,
            ),
            FrameKind::Directive | FrameKind::Metrics => {
                self.payload_errors += 1;
                Err(WireError::BadPayload(
                    "directive/metrics frames do not flow toward the controller",
                ))
            }
        }
    }

    /// Decide the next tick from whatever was ingested, dark-filling
    /// the rest, and return the step report with the directives to ship
    /// (also appended to the log).
    pub fn decide_next(&mut self) -> (StepReport, Vec<Directive>) {
        let missing = self.num_modules - self.plane.reported_modules();
        self.lost_observation_windows += missing as u64;
        let report = self.plane.step();
        let directives = self.plane.drain_directives();
        self.directives_log.extend(directives.iter().cloned());
        (report, directives)
    }

    /// Catch the plane up to wall-derived virtual time `now` (seconds),
    /// with the same `next_tick · T_L0 ≤ now` predicate as
    /// [`ControlPlane::advance_to`], counting the module-windows each
    /// forced step dark-fills. Never decides past the run length.
    pub fn advance_wall(&mut self, now: f64) -> Vec<(StepReport, Vec<Directive>)> {
        let mut out = Vec::new();
        while self.plane.next_tick() < self.total_ticks
            && self.plane.next_tick() as f64 * self.t_l0 <= now + 1e-9
        {
            out.push(self.decide_next());
        }
        out
    }

    /// The commit marker for `tick`: "every directive for `tick` has
    /// been sent".
    pub fn commit_heartbeat(&self, tick: u64) -> Heartbeat {
        Heartbeat {
            role: Role::Controller,
            tick,
            epoch: self.cadence().epoch(Level::L1, tick),
            wedged: u32::try_from(self.wedged_reports).unwrap_or(u32::MAX),
        }
    }

    /// The full metrics snapshot, with the transport section filled
    /// from the core's counters merged with the link's.
    pub fn metrics(&self, link: &LinkCounters) -> MetricsSnapshot {
        let mut m = self.plane.metrics();
        m.transport = TransportMetrics {
            frames_in: link.frames_in,
            frames_out: link.frames_out,
            bytes_in: link.bytes_in,
            bytes_out: link.bytes_out,
            decode_errors: link.decode_errors + self.payload_errors,
            late_observations: self.late_observations,
            lost_observation_windows: self.lost_observation_windows,
            reconnects: self.reconnects,
            wedged_reports: self.wedged_reports,
        };
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_observation;
    use llc_cluster::{AlwaysMaxPolicy, ModuleObservation, INGEST_HORIZON_TICKS};

    #[test]
    fn far_future_observation_is_a_counted_drop_and_the_session_continues() {
        let policy = AlwaysMaxPolicy::new(vec![vec![(1.0, 2)]]);
        let mut core = ControldCore::new(policy, vec![vec![0]], 30.0, 10);
        let frame = |tick| {
            let observation = ModuleObservation {
                module: 0,
                tick,
                members: Vec::new(),
                arrivals: 0,
                dropped: 0,
            };
            Frame::new(FrameKind::Observation, 0, encode_observation(&observation))
        };
        let tick = INGEST_HORIZON_TICKS;
        assert_eq!(
            core.handle_frame(&frame(tick)),
            Ok(CtrlEvent::Future { tick })
        );
        assert_eq!(
            core.handle_frame(&frame(0)),
            Ok(CtrlEvent::Ingested { module: 0, tick: 0 })
        );
        let m = core.metrics(&LinkCounters::default());
        assert_eq!(m.future_observations, 1);
        assert_eq!(m.observations_ingested, 1);
        assert_eq!(m.transport.decode_errors, 0);
    }
}
