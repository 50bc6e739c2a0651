//! Timing wrappers around the two ends of the tcp workload's link.
//!
//! The session loops `run_agent` / `serve_controller` own the window
//! protocol, so the only place the benchmark can stand is the
//! [`FrameTransport`] they are handed. The agent-side tap measures the
//! reaction time (first `Observation` of a window handed to the link →
//! the controller's commit `Heartbeat` received) on every run; with
//! `timed` set (the traced run) both taps also time each call into the
//! inner link.

use llc_net::{
    decode_observation, Frame, FrameKind, FrameTransport, LinkCounters, LinkError, WireError,
};
use std::time::{Duration, Instant};

/// Completions and response-time sum of one plant window, summed over
/// computers in global index order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowTotals {
    pub completions: u64,
    pub response_sum: f64,
}

/// Messages kept for the codec replay of a traced run.
const REPLAY_SAMPLE: usize = 4096;

/// What the agent-side tap recorded over a session.
#[derive(Debug, Default)]
pub struct AgentRecord {
    /// `(first observation handed over, commit heartbeat received)` per
    /// window.
    pub reactions: Vec<(Instant, Instant)>,
    /// What each window's observations reported: entry `t` is the plant
    /// window that ended at tick `t` (all zero for `t = 0`). Valid on a
    /// fault-free plant only — a dark or noisy member reports a blank or
    /// corrupted window.
    pub reported: Vec<WindowTotals>,
    /// Time inside the inner link's `send` / `recv` per window (timed).
    pub send_ns_per_window: Vec<u64>,
    pub wait_ns_per_window: Vec<u64>,
    /// First payloads of each kind, for the codec replay (timed).
    pub observation_payloads: Vec<Vec<u8>>,
    pub directive_payloads: Vec<Vec<u8>>,
    /// Observation payloads the tap itself failed to decode.
    pub decode_failures: Vec<WireError>,
    /// Time inside `recv` after the last window closed: the agent's wait
    /// for the controller's closing `Metrics` frame, which is not part of
    /// the loop.
    pub closing_wait: Duration,
    /// The inner link's counters when the tap was dissolved.
    pub counters: LinkCounters,
}

/// Wraps the agent's link.
pub struct AgentTap<T: FrameTransport> {
    inner: T,
    timed: bool,
    window_start: Option<Instant>,
    /// This window's `Observation` payloads, decoded into
    /// [`WindowTotals`] once the reaction clock has stopped.
    stash: Vec<Vec<u8>>,
    send_ns: u64,
    wait_ns: u64,
    record: AgentRecord,
}

impl<T: FrameTransport> AgentTap<T> {
    pub fn new(inner: T, timed: bool) -> AgentTap<T> {
        AgentTap {
            inner,
            timed,
            window_start: None,
            stash: Vec::new(),
            send_ns: 0,
            wait_ns: 0,
            record: AgentRecord::default(),
        }
    }

    /// Drop the inner link — closing the connection, which unblocks a
    /// peer still waiting on it — and hand the recordings over.
    pub fn into_record(mut self) -> AgentRecord {
        self.record.counters = self.inner.counters();
        self.record
    }

    fn close_window(&mut self, start: Instant, end: Instant) {
        let record = &mut self.record;
        record.reactions.push((start, end));
        let mut totals = WindowTotals::default();
        for payload in self.stash.drain(..) {
            match decode_observation(&payload) {
                Ok(observation) => {
                    for member in &observation.members {
                        totals.completions += member.window.completions;
                        totals.response_sum += member.window.response_sum;
                    }
                }
                Err(e) => record.decode_failures.push(e),
            }
            if self.timed && record.observation_payloads.len() < REPLAY_SAMPLE {
                record.observation_payloads.push(payload);
            }
        }
        record.reported.push(totals);
        if self.timed {
            record
                .send_ns_per_window
                .push(std::mem::take(&mut self.send_ns));
            record
                .wait_ns_per_window
                .push(std::mem::take(&mut self.wait_ns));
        }
    }
}

impl<T: FrameTransport> FrameTransport for AgentTap<T> {
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError> {
        if kind == FrameKind::Observation {
            if self.window_start.is_none() {
                self.window_start = Some(Instant::now());
            }
            self.stash.push(payload.clone());
        }
        if !self.timed {
            return self.inner.send(kind, payload);
        }
        let started = Instant::now();
        let sent = self.inner.send(kind, payload);
        self.send_ns += started.elapsed().as_nanos() as u64;
        sent
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, LinkError> {
        // Between windows the agent only ever receives while closing the
        // session: mid-run it sends a window's observations first.
        let closing = self.window_start.is_none() && !self.record.reactions.is_empty();
        let started = (self.timed || closing).then(Instant::now);
        let received = self.inner.recv(timeout);
        let now = Instant::now();
        if let Some(started) = started {
            if closing {
                self.record.closing_wait += now - started;
            } else {
                self.wait_ns += (now - started).as_nanos() as u64;
            }
        }
        if let Ok(Some(frame)) = &received {
            match frame.kind {
                FrameKind::Heartbeat => {
                    if let Some(start) = self.window_start.take() {
                        self.close_window(start, now);
                    }
                }
                FrameKind::Directive
                    if self.timed && self.record.directive_payloads.len() < REPLAY_SAMPLE =>
                {
                    self.record.directive_payloads.push(frame.payload.clone());
                }
                _ => {}
            }
        }
        received
    }

    fn counters(&self) -> LinkCounters {
        self.inner.counters()
    }
}

/// Wraps the controller's link. Untimed it only forwards.
pub struct ControllerTap<T: FrameTransport> {
    inner: T,
    timed: bool,
    heartbeat_in: Option<Instant>,
    /// `(agent heartbeat received, commit heartbeat sent)` per window.
    pub busy: Vec<(Instant, Instant)>,
}

impl<T: FrameTransport> ControllerTap<T> {
    pub fn new(inner: T, timed: bool) -> ControllerTap<T> {
        ControllerTap {
            inner,
            timed,
            heartbeat_in: None,
            busy: Vec::new(),
        }
    }
}

impl<T: FrameTransport> FrameTransport for ControllerTap<T> {
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError> {
        let sent = self.inner.send(kind, payload);
        if self.timed && kind == FrameKind::Heartbeat {
            if let Some(start) = self.heartbeat_in.take() {
                self.busy.push((start, Instant::now()));
            }
        }
        sent
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, LinkError> {
        let received = self.inner.recv(timeout);
        if self.timed {
            if let Ok(Some(frame)) = &received {
                if frame.kind == FrameKind::Heartbeat {
                    self.heartbeat_in = Some(Instant::now());
                }
            }
        }
        received
    }

    fn counters(&self) -> LinkCounters {
        self.inner.counters()
    }
}
