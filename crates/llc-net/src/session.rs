//! Session loops: drive a node agent's [`Plant`] and a [`ControldCore`]
//! against each other over any [`FrameTransport`].
//!
//! Two pacing modes share one wire protocol:
//!
//! * **Lockstep** (`pace = None`) — the controller blocks until the
//!   agent's end-of-window heartbeat before deciding; the agent blocks
//!   on the controller's commit heartbeat before advancing the plant.
//!   Over a lossless ordered link this reproduces the in-process
//!   `Experiment::run` loop bit for bit (the golden equivalence test).
//! * **Paced** (`pace = Some(wall-clock per tick)`) — the controller
//!   holds each tick open until its wall deadline, then catches the
//!   plane up with `ControldCore::advance_wall`, dark-filling members
//!   whose observations missed the window; the agent likewise commits
//!   at its deadline with whatever directives arrived. Losing frames
//!   degrades the loop, it does not stop it.
//!
//! Protocol per window `T`: agent sends one `Observation` frame per
//! module, then an agent `Heartbeat` ("all observations for `T` sent",
//! carrying the cumulative wedged-actuation count); the controller
//! decides, sends the `Directive` frames, then a controller `Heartbeat`
//! (the commit marker). After the last window the controller sends one
//! `Metrics` frame — the full [`MetricsSnapshot`] including the
//! transport section.

use crate::codec::{
    decode_heartbeat, decode_hello, decode_metrics, encode_directive, encode_heartbeat,
    encode_hello, encode_metrics, encode_observation, Heartbeat, Hello, Role,
};
use crate::controld::ControldCore;
use crate::frame::{Frame, FrameKind, WireError};
use crate::link::{FrameTransport, LinkError};
use llc_cluster::{ClusterPolicy, MetricsSnapshot, Plant};
use llc_sim::SimError;
use std::fmt;
use std::time::{Duration, Instant};

/// Why a session ended abnormally.
#[derive(Debug)]
pub enum SessionError {
    /// Transport failure.
    Link(LinkError),
    /// A frame refused to decode (lockstep mode treats this as fatal;
    /// paced mode drops the frame and continues).
    Wire(WireError),
    /// The peer broke the protocol (bad handshake, wrong role, silence
    /// where lockstep requires progress).
    Protocol(String),
    /// The plant rejected an actuation or arrival.
    Sim(SimError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Link(e) => write!(f, "link: {e}"),
            SessionError::Wire(e) => write!(f, "wire: {e}"),
            SessionError::Protocol(msg) => write!(f, "protocol: {msg}"),
            SessionError::Sim(e) => write!(f, "sim: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<LinkError> for SessionError {
    fn from(e: LinkError) -> Self {
        SessionError::Link(e)
    }
}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> Self {
        SessionError::Wire(e)
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

/// Block until a `Hello` frame arrives (skipping nothing: anything else
/// before the handshake is a protocol error).
fn wait_for_hello<T: FrameTransport>(link: &mut T) -> Result<Hello, SessionError> {
    let frame = recv_blocking(link)?;
    if frame.kind != FrameKind::Hello {
        return Err(SessionError::Protocol(format!(
            "expected Hello, got {:?}",
            frame.kind
        )));
    }
    Ok(decode_hello(&frame.payload)?)
}

/// Blocking receive: a `None` from an infinite-timeout receive means
/// the transport cannot block (an in-memory pipe ran dry), which a
/// lockstep session treats as the peer going silent.
fn recv_blocking<T: FrameTransport>(link: &mut T) -> Result<Frame, SessionError> {
    link.recv(None)?
        .ok_or_else(|| SessionError::Protocol("peer went silent mid-lockstep".into()))
}

/// Run the controller side of a session to completion.
///
/// `pace = None` is lockstep; `Some(d)` holds each tick's window open
/// for `d` of wall clock. Returns nothing — the caller reads results
/// off the core ([`ControldCore::directives_log`],
/// [`ControldCore::metrics`]).
///
/// # Errors
///
/// [`SessionError`] on transport failure, handshake mismatch, or (in
/// lockstep mode) any undecodable frame.
pub fn serve_controller<P: ClusterPolicy, T: FrameTransport>(
    core: &mut ControldCore<P>,
    link: &mut T,
    pace: Option<Duration>,
) -> Result<(), SessionError> {
    link.send(FrameKind::Hello, encode_hello(&core.hello()))?;
    let hello = wait_for_hello(link)?;
    core.check_agent_hello(&hello)
        .map_err(SessionError::Protocol)?;

    match pace {
        None => serve_lockstep(core, link),
        Some(p) => serve_paced(core, link, p),
    }?;

    let metrics = core.metrics(&link.counters());
    link.send(FrameKind::Metrics, encode_metrics(&metrics))?;
    Ok(())
}

fn serve_lockstep<P: ClusterPolicy, T: FrameTransport>(
    core: &mut ControldCore<P>,
    link: &mut T,
) -> Result<(), SessionError> {
    while !core.finished() {
        let tick = core.next_tick();
        // Gather until the agent's heartbeat closes the window. TCP
        // ordering guarantees the observations it covers arrived first.
        loop {
            let frame = recv_blocking(link)?;
            if let crate::controld::CtrlEvent::AgentHeartbeat(hb) = core.handle_frame(&frame)? {
                if hb.tick >= tick {
                    break;
                }
            }
        }
        let (_report, directives) = core.decide_next();
        for d in &directives {
            link.send(FrameKind::Directive, encode_directive(d))?;
        }
        link.send(
            FrameKind::Heartbeat,
            encode_heartbeat(&core.commit_heartbeat(tick)),
        )?;
    }
    Ok(())
}

fn serve_paced<P: ClusterPolicy, T: FrameTransport>(
    core: &mut ControldCore<P>,
    link: &mut T,
    pace: Duration,
) -> Result<(), SessionError> {
    let start = Instant::now();
    while !core.finished() {
        let tick = core.next_tick();
        let deadline = start + pace.mul_f64((tick + 1) as f64);
        // Hold the window open until every module reported or the wall
        // deadline passes. Undecodable frames are dropped whole (and
        // counted by the core); the session keeps going.
        while !core.ready() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match link.recv(Some(deadline - now))? {
                Some(frame) => {
                    let _ = core.handle_frame(&frame);
                }
                None => break, // deadline
            }
        }
        // Catch the plane up. A window that closed early (every module
        // reported) is exactly one step. At the deadline, tick `t`'s
        // window ends at wall `(t+1)·pace`, so the due virtual time is
        // one window behind the wall: a controller stalled for several
        // paces decides several ticks here, each dark-filled.
        let elapsed = start.elapsed().as_secs_f64() / pace.as_secs_f64();
        let virtual_now = if core.ready() {
            tick as f64
        } else {
            (elapsed - 1.0).max(tick as f64)
        } * core.t_l0();
        for (_report, directives) in core.advance_wall(virtual_now) {
            for d in &directives {
                link.send(FrameKind::Directive, encode_directive(d))?;
            }
        }
        let decided = core.next_tick().saturating_sub(1);
        link.send(
            FrameKind::Heartbeat,
            encode_heartbeat(&core.commit_heartbeat(decided)),
        )?;
    }
    Ok(())
}

/// Run the agent side of a session to completion: step `core` through
/// its window protocol, staging the directives the wire delivers.
/// Returns the controller's final [`MetricsSnapshot`] if its `Metrics`
/// frame arrived.
///
/// # Errors
///
/// [`SessionError`] on transport failure, handshake mismatch, or (in
/// lockstep mode) any undecodable frame.
pub fn run_agent<T: FrameTransport>(
    core: &mut Plant<'_>,
    link: &mut T,
    pace: Option<Duration>,
) -> Result<Option<MetricsSnapshot>, SessionError> {
    let ours = Hello::agent(core);
    link.send(FrameKind::Hello, encode_hello(&ours))?;
    let hello = wait_for_hello(link)?;
    if hello.role != Role::Controller {
        return Err(SessionError::Protocol(format!(
            "peer announced role {:?}, expected Controller",
            hello.role
        )));
    }
    if hello.members_per_module != ours.members_per_module {
        return Err(SessionError::Protocol(format!(
            "topology mismatch: controller has members per module {:?}, agent {:?}",
            hello.members_per_module, ours.members_per_module
        )));
    }
    if hello.t_l0.to_bits() != core.t_l0().to_bits() || hello.total_ticks != core.total_ticks() {
        return Err(SessionError::Protocol(format!(
            "run shape mismatch: controller ({} s, {} ticks), agent ({} s, {} ticks)",
            hello.t_l0,
            hello.total_ticks,
            core.t_l0(),
            core.total_ticks()
        )));
    }

    while !core.finished() {
        let tick = core.tick();
        for observation in core.observations() {
            link.send(FrameKind::Observation, encode_observation(&observation))?;
        }
        link.send(
            FrameKind::Heartbeat,
            encode_heartbeat(&Heartbeat::agent(core)),
        )?;

        // Wait for the commit marker covering this tick; in paced mode
        // give up at the deadline and commit with whatever arrived.
        let deadline = pace.map(|p| Instant::now() + p.mul_f64(2.0));
        loop {
            let frame = match deadline {
                None => recv_blocking(link)?,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    match link.recv(Some(d - now))? {
                        Some(frame) => frame,
                        None => break, // deadline
                    }
                }
            };
            match frame.kind {
                FrameKind::Directive => {
                    match crate::codec::decode_directive(&frame.payload) {
                        Ok(d) => core.stage(d),
                        Err(e) if pace.is_some() => {
                            // Paced: drop the frame whole, keep going.
                            let _ = e;
                        }
                        Err(e) => return Err(SessionError::Wire(e)),
                    }
                }
                FrameKind::Heartbeat => {
                    let hb = decode_heartbeat(&frame.payload)?;
                    if hb.role == Role::Controller && hb.tick >= tick {
                        break;
                    }
                }
                FrameKind::Hello | FrameKind::Metrics | FrameKind::Observation => {
                    if pace.is_none() {
                        return Err(SessionError::Protocol(format!(
                            "unexpected {:?} frame mid-window",
                            frame.kind
                        )));
                    }
                }
            }
        }
        core.commit_window()?;
    }

    // The controller's closing metrics frame (best-effort: a lossy link
    // may have eaten it).
    let grace = pace.map_or(Duration::from_secs(5), |p| p.mul_f64(4.0));
    let deadline = Instant::now() + grace;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        match link.recv(Some(deadline - now)) {
            Ok(Some(frame)) if frame.kind == FrameKind::Metrics => {
                return Ok(Some(decode_metrics(&frame.payload)?));
            }
            Ok(Some(_)) => {} // stragglers from the last window
            Ok(None) => return Ok(None),
            Err(LinkError::Closed) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PipeLink;
    use llc_cluster::{AlwaysMaxPolicy, Family, RunSpec};

    #[test]
    fn a_mis_deployed_pair_fails_on_both_sides_before_any_observation() {
        // The agent runs three machines; the controller manages four.
        let spec = RunSpec {
            members: 3,
            ..RunSpec::defaults(Family::ClosedLoop(2))
        };
        let store = spec.store();
        let mut plant = spec.plant(&store).unwrap();
        let policy = AlwaysMaxPolicy::new(vec![vec![(1.0, 2); 4]]);
        let members = vec![vec![0, 1, 2, 3]];
        let mut core = ControldCore::new(policy, members, plant.t_l0(), plant.total_ticks());
        let (mut ctrl_link, mut agent_link) = PipeLink::pair();
        // Both ends speak first: the controller's Hello is in flight when
        // the agent reads (the session below sends it once more, unread).
        ctrl_link
            .send(FrameKind::Hello, encode_hello(&core.hello()))
            .unwrap();
        let agent = run_agent(&mut plant, &mut agent_link, None).map(|_| ());
        let controller = serve_controller(&mut core, &mut ctrl_link, None);
        for (side, ended) in [("agent", agent), ("controller", controller)] {
            let refused =
                matches!(&ended, Err(SessionError::Protocol(m)) if m.contains("topology"));
            assert!(refused, "{side}: {ended:?}");
        }
        assert_eq!(
            agent_link.counters().frames_out,
            1,
            "the agent's Hello alone"
        );
        assert_eq!(plant.tick(), 0);
    }
}
