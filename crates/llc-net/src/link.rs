//! Frame transports: the seam between the codec and the world.
//!
//! [`FrameTransport`] is the one interface the session loops drive;
//! [`TcpLink`] implements it over a real socket (length-prefixed reads
//! with an internal reassembly buffer, per-call timeouts), [`PipeLink`]
//! implements it over in-process byte queues for deterministic
//! single-threaded tests, and [`LossyLink`] wraps any transport and
//! injects deterministic frame drops and delays *after encoding* — the
//! same bytes a real lossy network would mangle, which is what the
//! lossy-link integration test leans on.
//!
//! # `TcpLink` buffering
//!
//! A window is ~45 small frames; written one `write` each they cost more
//! than the controller that decides them. `TcpLink::send` therefore
//! encodes into a per-link write buffer and the link keeps three
//! invariants — there is no knob:
//!
//! 1. **It never blocks in `recv` holding unsent bytes.** The buffer is
//!    written out before any blocking `read`, so a peer is never waited
//!    on for an answer to something it has not been sent.
//! 2. **A frame that closes a protocol step is on the socket when `send`
//!    returns.** `Hello`, `Heartbeat` and `Metrics` are written at once,
//!    together with everything buffered before them; only `Observation`
//!    and `Directive` frames are ever deferred, and the `Heartbeat` that
//!    closes their window carries them out in the same `write`.
//! 3. **The buffer is capped.** Past a constant 64 KiB it is written
//!    through whatever the frame kind.
//!
//! Frames and bytes are counted when handed to `send`. A process that
//! dies loses the frames it had not yet written, as a host that dies
//! loses the frames in its kernel's send buffer: either way the peer sees
//! a window without its closing `Heartbeat`, which the session loops
//! already handle (lockstep ends with `Closed`, paced dark-fills at the
//! deadline).

use crate::frame::{
    decode_frame, encode_frame, encode_frame_into, Frame, FrameKind, WireError, VERSION,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Raw transport counters, shared by every link type. These feed the
/// `TransportMetrics` section of `MetricsSnapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkCounters {
    /// Frames received and decoded.
    pub frames_in: u64,
    /// Frames encoded and sent.
    pub frames_out: u64,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Frames the decoder refused (dropped whole, never partially
    /// applied).
    pub decode_errors: u64,
    /// Writes made to the underlying channel: the times a [`TcpLink`]
    /// wrote its buffer to the socket (one per window in a lockstep
    /// session), one per frame for a [`PipeLink`]. Local to this end —
    /// not part of `TransportMetrics`, never on the wire.
    pub writes_out: u64,
}

/// Why a link operation failed.
#[derive(Debug)]
pub enum LinkError {
    /// The peer closed the connection.
    Closed,
    /// Socket-level failure.
    Io(std::io::Error),
    /// The byte stream no longer frames correctly (bad magic, version
    /// skew, oversized length): the connection cannot be trusted past
    /// this point and must be re-established.
    Desync(WireError),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Closed => write!(f, "peer closed the connection"),
            LinkError::Io(e) => write!(f, "io error: {e}"),
            LinkError::Desync(e) => write!(f, "stream desync: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<std::io::Error> for LinkError {
    fn from(e: std::io::Error) -> Self {
        LinkError::Io(e)
    }
}

/// A bidirectional, ordered frame channel.
pub trait FrameTransport {
    /// Encode and send one frame (sequence numbers are assigned by the
    /// link).
    ///
    /// # Errors
    ///
    /// [`LinkError`] on transport failure.
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError>;

    /// Receive the next frame. `timeout = None` blocks until a frame
    /// arrives or the peer closes; `Some(d)` returns `Ok(None)` if no
    /// frame arrived within `d`.
    ///
    /// # Errors
    ///
    /// [`LinkError`] on transport failure or stream desync.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, LinkError>;

    /// Counter snapshot.
    fn counters(&self) -> LinkCounters;
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Unsent bytes a [`TcpLink`] holds before it writes them through
/// whatever the frame kind (buffering invariant 3). Several times a
/// 128-machine window's frames in one direction (~7 kB).
const WRITE_BUFFER_CAP: usize = 64 * 1024;

/// Bytes the reassembly buffer starts with; it grows only for a frame
/// larger than itself.
const READ_BUFFER_LEN: usize = 16 * 1024;

/// Whether a frame of `kind` ends a step of the session protocol — the
/// peer acts on it, and the sender may then wait for the answer — so it
/// must be on the socket when `send` returns (buffering invariant 2).
/// `Observation` and `Directive` frames are the body of a window: the
/// `Heartbeat` that closes it carries them out.
fn closes_step(kind: FrameKind) -> bool {
    match kind {
        FrameKind::Hello | FrameKind::Heartbeat | FrameKind::Metrics => true,
        FrameKind::Observation | FrameKind::Directive => false,
    }
}

/// The receive side of a [`TcpLink`]: bytes read off the stream and not
/// yet handed out as frames live in `buf[pos..end]`. Frames are decoded
/// by moving `pos`; the bytes move only when a frame at the tail is
/// incomplete (once, to the front, growing the buffer if the frame needs
/// it), and `pos`/`end` reset for free whenever the buffer runs dry.
#[derive(Debug)]
struct Reassembly {
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl Reassembly {
    fn new() -> Reassembly {
        Reassembly {
            buf: vec![0; READ_BUFFER_LEN],
            pos: 0,
            end: 0,
        }
    }

    /// The next whole frame, or `None` when more bytes are needed — in
    /// which case `buf[end..]` has room for at least the rest of the
    /// frame, so the caller can [`fill_from`](Reassembly::fill_from).
    fn next_frame(&mut self, counters: &mut LinkCounters) -> Result<Option<Frame>, LinkError> {
        match decode_frame(&self.buf[self.pos..self.end]) {
            Ok((frame, used)) => {
                self.pos += used;
                if self.pos == self.end {
                    self.pos = 0;
                    self.end = 0;
                }
                counters.frames_in += 1;
                Ok(Some(frame))
            }
            Err(WireError::Truncated { need, .. }) => {
                if self.pos > 0 {
                    self.buf.copy_within(self.pos..self.end, 0);
                    self.end -= self.pos;
                    self.pos = 0;
                }
                if self.buf.len() < need {
                    self.buf.resize(need, 0);
                }
                Ok(None)
            }
            Err(e) => {
                // Framing is length-prefixed: once the header lies, no
                // later byte boundary can be trusted.
                counters.decode_errors += 1;
                Err(LinkError::Desync(e))
            }
        }
    }

    /// One `read` into the free tail. `Ok(0)` is end of stream.
    fn fill_from(
        &mut self,
        source: &mut impl Read,
        counters: &mut LinkCounters,
    ) -> std::io::Result<usize> {
        let n = source.read(&mut self.buf[self.end..])?;
        self.end += n;
        counters.bytes_in += n as u64;
        Ok(n)
    }
}

/// A [`FrameTransport`] over a TCP stream. See the module docs for the
/// three buffering invariants.
#[derive(Debug)]
pub struct TcpLink {
    stream: TcpStream,
    incoming: Reassembly,
    /// Encoded frames not yet written to the socket.
    unsent: Vec<u8>,
    /// The read timeout the socket currently has.
    read_timeout: Option<Duration>,
    next_seq: u32,
    counters: LinkCounters,
}

impl TcpLink {
    /// Wrap a connected stream. `TCP_NODELAY` is enabled: what the link
    /// writes is a whole protocol step, and the peer is waiting for it.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn new(stream: TcpStream) -> Result<TcpLink, LinkError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        Ok(TcpLink {
            stream,
            incoming: Reassembly::new(),
            unsent: Vec::new(),
            read_timeout: None,
            next_seq: 0,
            counters: LinkCounters::default(),
        })
    }

    /// Put every unsent byte on the socket, in one write.
    fn flush(&mut self) -> Result<(), LinkError> {
        if self.unsent.is_empty() {
            return Ok(());
        }
        // On failure part of the buffer may be on the wire: the stream is
        // unusable past this point, so nothing is kept for a retry.
        let written = self.stream.write_all(&self.unsent);
        self.unsent.clear();
        self.counters.writes_out += 1;
        Ok(written?)
    }
}

impl FrameTransport for TcpLink {
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError> {
        let before = self.unsent.len();
        encode_frame_into(&mut self.unsent, VERSION, kind, self.next_seq, &payload);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.counters.frames_out += 1;
        self.counters.bytes_out += (self.unsent.len() - before) as u64;
        if closes_step(kind) || self.unsent.len() > WRITE_BUFFER_CAP {
            self.flush()?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, LinkError> {
        // One deadline for the whole call, however many reads the frame
        // takes: a peer dripping bytes cannot hold the caller past it.
        // Floored at 1 ms so that a zero timeout still polls the socket
        // once (the OS reads a zero timeout as "block forever").
        let deadline = timeout.map(|t| Instant::now() + t.max(Duration::from_millis(1)));
        loop {
            if let Some(frame) = self.incoming.next_frame(&mut self.counters)? {
                return Ok(Some(frame));
            }
            // About to block on the peer: it must have everything this
            // side has said (buffering invariant 1).
            self.flush()?;
            let wait = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => return Ok(None),
                left => left,
            };
            if wait != self.read_timeout {
                self.stream.set_read_timeout(wait)?;
                self.read_timeout = wait;
            }
            match self
                .incoming
                .fill_from(&mut self.stream, &mut self.counters)
            {
                Ok(0) => return Err(LinkError::Closed),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(LinkError::Io(e)),
            }
        }
    }

    fn counters(&self) -> LinkCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------
// In-process pipe (deterministic tests)
// ---------------------------------------------------------------------

type ByteQueue = Rc<RefCell<VecDeque<Vec<u8>>>>;

/// One end of an in-process frame pipe: the same encode→bytes→decode
/// path as [`TcpLink`], minus the socket. Single-threaded by design
/// (`Rc`), which is exactly what the deterministic lossy-link test
/// wants — the test plays scheduler.
#[derive(Debug)]
pub struct PipeLink {
    out: ByteQueue,
    inbox: ByteQueue,
    next_seq: u32,
    counters: LinkCounters,
}

impl PipeLink {
    /// A connected pair (a, b): what a sends, b receives, and vice
    /// versa.
    pub fn pair() -> (PipeLink, PipeLink) {
        let ab: ByteQueue = Rc::new(RefCell::new(VecDeque::new()));
        let ba: ByteQueue = Rc::new(RefCell::new(VecDeque::new()));
        (
            PipeLink {
                out: Rc::clone(&ab),
                inbox: Rc::clone(&ba),
                next_seq: 0,
                counters: LinkCounters::default(),
            },
            PipeLink {
                out: ba,
                inbox: ab,
                next_seq: 0,
                counters: LinkCounters::default(),
            },
        )
    }
}

impl FrameTransport for PipeLink {
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError> {
        let frame = Frame::new(kind, self.next_seq, payload);
        self.next_seq = self.next_seq.wrapping_add(1);
        let bytes = encode_frame(&frame);
        self.counters.frames_out += 1;
        self.counters.bytes_out += bytes.len() as u64;
        self.counters.writes_out += 1;
        self.out.borrow_mut().push_back(bytes);
        Ok(())
    }

    fn recv(&mut self, _timeout: Option<Duration>) -> Result<Option<Frame>, LinkError> {
        // A pipe never blocks: "nothing queued" is the timeout case.
        let Some(bytes) = self.inbox.borrow_mut().pop_front() else {
            return Ok(None);
        };
        self.counters.bytes_in += bytes.len() as u64;
        match decode_frame(&bytes) {
            Ok((frame, _)) => {
                self.counters.frames_in += 1;
                Ok(Some(frame))
            }
            Err(e) => {
                self.counters.decode_errors += 1;
                Err(LinkError::Desync(e))
            }
        }
    }

    fn counters(&self) -> LinkCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------
// Deterministic loss/delay injection
// ---------------------------------------------------------------------

/// A deterministic impairment rule, matched against a frame's kind and
/// the link's current tick (set by the driver via
/// [`LossyLink::set_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Impairment {
    /// Which frame kind the rule hits (`None` = every kind).
    pub kind: Option<FrameKind>,
    /// First tick the rule is active (inclusive).
    pub(crate) from_tick: u64,
    /// First tick the rule is no longer active (exclusive).
    pub(crate) to_tick: u64,
    /// `0` = drop the frame; `n > 0` = hold it and deliver when the
    /// link's tick reaches `current + n` (reordering included free of
    /// charge: later frames overtake held ones).
    pub(crate) delay_ticks: u64,
}

impl Impairment {
    /// Drop every `kind` frame sent while the tick is in
    /// `[from_tick, to_tick)`.
    pub fn drop(kind: FrameKind, from_tick: u64, to_tick: u64) -> Impairment {
        Impairment {
            kind: Some(kind),
            from_tick,
            to_tick,
            delay_ticks: 0,
        }
    }

    /// Delay every `kind` frame sent while the tick is in
    /// `[from_tick, to_tick)` by `delay_ticks` ticks.
    pub fn delay(kind: FrameKind, from_tick: u64, to_tick: u64, delay_ticks: u64) -> Impairment {
        Impairment {
            kind: Some(kind),
            from_tick,
            to_tick,
            delay_ticks,
        }
    }

    fn matches(&self, kind: FrameKind, tick: u64) -> bool {
        tick >= self.from_tick && tick < self.to_tick && self.kind.is_none_or(|k| k == kind)
    }
}

/// A lossy wrapper over any transport: applies [`Impairment`]s to
/// outbound frames *after* encoding, at the transport seam. Entirely
/// deterministic — the same rules and the same tick schedule impair the
/// same frames every run.
#[derive(Debug)]
pub struct LossyLink<T: FrameTransport> {
    inner: T,
    rules: Vec<Impairment>,
    tick: u64,
    held: Vec<(u64, FrameKind, Vec<u8>)>,
    dropped: u64,
    delayed: u64,
}

impl<T: FrameTransport> LossyLink<T> {
    /// Wrap `inner` with impairment `rules`.
    pub fn new(inner: T, rules: Vec<Impairment>) -> LossyLink<T> {
        LossyLink {
            inner,
            rules,
            tick: 0,
            held: Vec::new(),
            dropped: 0,
            delayed: 0,
        }
    }

    /// Advance the link's tick, releasing any held frame whose delivery
    /// tick has arrived (in hold order).
    ///
    /// # Errors
    ///
    /// Propagates send failures from the inner transport.
    pub fn set_tick(&mut self, tick: u64) -> Result<(), LinkError> {
        self.tick = tick;
        let due: Vec<(u64, FrameKind, Vec<u8>)> = {
            let mut due = Vec::new();
            self.held.retain_mut(|(at, kind, payload)| {
                if *at <= tick {
                    due.push((*at, *kind, std::mem::take(payload)));
                    false
                } else {
                    true
                }
            });
            due
        };
        for (_, kind, payload) in due {
            self.inner.send(kind, payload)?;
        }
        Ok(())
    }

    /// Frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames delayed so far.
    #[cfg(test)]
    pub(crate) fn delayed(&self) -> u64 {
        self.delayed
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: FrameTransport> FrameTransport for LossyLink<T> {
    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(), LinkError> {
        if let Some(rule) = self.rules.iter().find(|r| r.matches(kind, self.tick)) {
            if rule.delay_ticks == 0 {
                self.dropped += 1;
                return Ok(()); // the wire ate it
            }
            self.delayed += 1;
            self.held
                .push((self.tick + rule.delay_ticks, kind, payload));
            return Ok(());
        }
        self.inner.send(kind, payload)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, LinkError> {
        self.inner.recv(timeout)
    }

    fn counters(&self) -> LinkCounters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_LEN;

    #[test]
    fn pipe_delivers_in_order() {
        let (mut a, mut b) = PipeLink::pair();
        a.send(FrameKind::Hello, vec![1]).unwrap();
        a.send(FrameKind::Heartbeat, vec![2]).unwrap();
        let first = b.recv(None).unwrap().unwrap();
        let second = b.recv(None).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::Hello);
        assert_eq!(second.kind, FrameKind::Heartbeat);
        assert!(b.recv(None).unwrap().is_none(), "queue drained");
        assert_eq!(a.counters().frames_out, 2);
        assert_eq!(b.counters().frames_in, 2);
    }

    #[test]
    fn lossy_drop_and_delay_are_tick_scoped() {
        let (pipe, mut far) = PipeLink::pair();
        let mut lossy = LossyLink::new(
            pipe,
            vec![
                Impairment::drop(FrameKind::Observation, 5, 7),
                Impairment::delay(FrameKind::Directive, 5, 7, 3),
            ],
        );
        // Tick 4: clean.
        lossy.set_tick(4).unwrap();
        lossy.send(FrameKind::Observation, vec![4]).unwrap();
        assert!(far.recv(None).unwrap().is_some());
        // Ticks 5..7: observations vanish, directives are held.
        for t in 5..7 {
            lossy.set_tick(t).unwrap();
            lossy.send(FrameKind::Observation, vec![t as u8]).unwrap();
            lossy.send(FrameKind::Directive, vec![t as u8]).unwrap();
            assert!(far.recv(None).unwrap().is_none(), "tick {t} impaired");
        }
        assert_eq!(lossy.dropped(), 2);
        assert_eq!(lossy.delayed(), 2);
        // Tick 8: the tick-5 directive (due at 8) is released; the
        // tick-6 one (due at 9) is still held.
        lossy.set_tick(8).unwrap();
        let released = far.recv(None).unwrap().expect("tick-5 directive due");
        assert_eq!(released.payload, vec![5]);
        assert!(far.recv(None).unwrap().is_none());
        lossy.set_tick(9).unwrap();
        assert_eq!(far.recv(None).unwrap().unwrap().payload, vec![6]);
    }

    #[test]
    fn tcp_link_round_trips_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut link = TcpLink::new(stream).unwrap();
            link.send(FrameKind::Hello, vec![7; 100]).unwrap();
            let back = link.recv(None).unwrap().unwrap();
            assert_eq!(back.kind, FrameKind::Heartbeat);
            assert_eq!(back.payload, vec![9; 50_000], "big frame reassembled");
        });
        let (stream, _) = listener.accept().unwrap();
        let mut link = TcpLink::new(stream).unwrap();
        let hello = link.recv(None).unwrap().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        assert_eq!(hello.payload, vec![7; 100]);
        link.send(FrameKind::Heartbeat, vec![9; 50_000]).unwrap();
        client.join().unwrap();
        // Timeout path: nothing more is coming.
        assert!(matches!(
            link.recv(Some(Duration::from_millis(20))),
            Ok(None) | Err(LinkError::Closed)
        ));
    }

    /// A connected loopback pair (connect completes against the listen
    /// backlog, so no second thread is needed).
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    fn linked() -> (TcpLink, TcpLink) {
        let (near, far) = loopback();
        (TcpLink::new(near).unwrap(), TcpLink::new(far).unwrap())
    }

    #[test]
    fn deferred_frames_go_out_before_a_blocking_recv() {
        let (mut near, mut far) = linked();
        for i in 0..32u8 {
            near.send(FrameKind::Observation, vec![i; 40]).unwrap();
        }
        assert_eq!(near.counters().frames_out, 32);
        assert_eq!(near.counters().writes_out, 0, "a window's body is deferred");
        // No heartbeat follows; the link is asked to wait for the peer.
        assert!(near.recv(Some(Duration::from_millis(5))).unwrap().is_none());
        assert_eq!(near.counters().writes_out, 1, "one write for the lot");
        for i in 0..32u8 {
            let frame = far.recv(None).unwrap().unwrap();
            assert_eq!((frame.kind, frame.seq), (FrameKind::Observation, i as u32));
            assert_eq!(frame.payload, vec![i; 40]);
        }
        assert_eq!(far.counters().bytes_in, near.counters().bytes_out);
    }

    #[test]
    fn step_closing_frames_carry_the_deferred_ones_out() {
        let (mut near, mut far) = linked();
        near.send(FrameKind::Directive, vec![1]).unwrap();
        near.send(FrameKind::Directive, vec![2]).unwrap();
        near.send(FrameKind::Heartbeat, vec![3]).unwrap();
        assert_eq!(near.counters().writes_out, 1);
        // The peer needs no help from `near` to read all three.
        let kinds: Vec<FrameKind> = (0..3)
            .map(|_| far.recv(None).unwrap().unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            [
                FrameKind::Directive,
                FrameKind::Directive,
                FrameKind::Heartbeat
            ]
        );
        for kind in [FrameKind::Hello, FrameKind::Metrics] {
            let before = near.counters().writes_out;
            near.send(kind, vec![4]).unwrap();
            assert_eq!(near.counters().writes_out, before + 1, "{kind:?}");
        }
    }

    #[test]
    fn write_buffer_past_its_cap_writes_through() {
        let (mut near, mut far) = linked();
        let payload = 8 * 1024;
        let frames = WRITE_BUFFER_CAP / payload;
        let reader = std::thread::spawn(move || {
            for _ in 0..frames {
                let frame = far.recv(None).unwrap().unwrap();
                assert_eq!(frame.payload.len(), payload);
            }
        });
        for i in 0..frames {
            assert_eq!(
                near.counters().writes_out,
                0,
                "frame {i} still under the cap"
            );
            near.send(FrameKind::Observation, vec![0xAB; payload])
                .unwrap();
        }
        // Headers took the buffer past the cap: out it went, no `recv`,
        // no heartbeat — or the reader would never return.
        assert!(near.counters().writes_out >= 1);
        reader.join().unwrap();
    }

    #[test]
    fn recv_deadline_holds_against_a_dripping_peer() {
        let (near, mut far) = loopback();
        far.set_nodelay(true).unwrap();
        let mut link = TcpLink::new(near).unwrap();
        let bytes = encode_frame(&Frame::new(FrameKind::Observation, 0, vec![5; 188]));
        assert_eq!(bytes.len(), 200);
        let (stop_dripping, stopped) = std::sync::mpsc::channel::<()>();
        let expected = bytes.clone();
        let peer = std::thread::spawn(move || {
            // One byte per 20 ms — each well inside the 60 ms timeout, the
            // frame 4 s long — until told to send the rest at once.
            let mut sent = 0;
            while sent < bytes.len() && stopped.try_recv().is_err() {
                far.write_all(&bytes[sent..=sent]).unwrap();
                sent += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            far.write_all(&bytes[sent..]).unwrap();
            far
        });
        let started = Instant::now();
        let got = link.recv(Some(Duration::from_millis(60))).unwrap();
        let waited = started.elapsed();
        assert!(got.is_none(), "no whole frame can have arrived in 60 ms");
        assert!(
            waited < Duration::from_millis(1000),
            "recv(60 ms) returned after {waited:?}: partial reads restarted the timeout"
        );
        assert!(link.counters().bytes_in > 0, "the drip was being read");
        // The bytes read so far are kept: the frame completes intact.
        stop_dripping.send(()).unwrap();
        let frame = link.recv(None).unwrap().unwrap();
        assert_eq!(encode_frame(&frame), expected);
        drop(peer.join().unwrap());
    }

    #[test]
    fn timed_recv_after_a_blocking_recv_still_times_out() {
        let (mut near, mut far) = linked();
        far.send(FrameKind::Heartbeat, vec![1]).unwrap();
        // Two different timeouts either side of a `None`: the socket's
        // timeout is tracked by value, not set once.
        assert!(near.recv(Some(Duration::from_millis(5))).unwrap().is_some());
        far.send(FrameKind::Heartbeat, vec![2]).unwrap();
        assert!(near.recv(None).unwrap().is_some());
        for millis in [10, 10, 3] {
            let started = Instant::now();
            assert!(near
                .recv(Some(Duration::from_millis(millis)))
                .unwrap()
                .is_none());
            assert!(started.elapsed() < Duration::from_millis(1000));
        }
        far.send(FrameKind::Heartbeat, vec![3]).unwrap();
        assert_eq!(near.recv(None).unwrap().unwrap().payload, vec![3]);
    }

    /// Feed `stream` to a fresh [`Reassembly`] cut into chunks of
    /// `chunk_sizes` (cycled), the way `TcpLink::recv` would: decode
    /// until dry, then one read.
    fn reassemble(
        stream: &[u8],
        chunk_sizes: &[usize],
    ) -> (Vec<Frame>, LinkCounters, Option<LinkError>) {
        let mut incoming = Reassembly::new();
        let mut counters = LinkCounters::default();
        let mut frames = Vec::new();
        let mut rest = stream;
        let mut sizes = chunk_sizes.iter().cycle();
        loop {
            loop {
                match incoming.next_frame(&mut counters) {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(e) => return (frames, counters, Some(e)),
                }
            }
            if rest.is_empty() {
                return (frames, counters, None);
            }
            let mut chunk = &rest[..(*sizes.next().unwrap()).min(rest.len())];
            // A chunk larger than the free tail is taken in part; the
            // remainder stays in front of the stream.
            let taken = incoming.fill_from(&mut chunk, &mut counters).unwrap();
            assert!(taken > 0, "next_frame left no room to read into");
            rest = &rest[taken..];
        }
    }

    fn arb_frames() -> impl proptest::strategy::Strategy<Value = Vec<Frame>> {
        use proptest::prelude::*;
        let payload_len = prop_oneof![
            Just(0usize),
            1usize..64,
            64usize..600,
            // Larger than the whole initial buffer: it has to grow.
            (READ_BUFFER_LEN - 8)..(READ_BUFFER_LEN + 4096),
        ];
        proptest::collection::vec((1u8..=5, payload_len, 0u8..=255), 1usize..=64).prop_map(
            |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(seq, (kind, len, fill))| {
                        let kind = FrameKind::from_u8(kind).unwrap();
                        Frame::new(kind, seq as u32, vec![fill; len])
                    })
                    .collect()
            },
        )
    }

    fn arb_chunk_sizes() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        use proptest::prelude::*;
        prop_oneof![
            // One byte per chunk.
            Just(vec![1usize]),
            // Cuts inside headers and small payloads.
            proptest::collection::vec(1usize..HEADER_LEN, 1usize..8),
            // Mixed: mid-payload cuts and many frames per chunk.
            proptest::collection::vec(
                prop_oneof![1usize..40, 40usize..700, 700usize..40_000],
                1usize..16
            ),
            // The whole stream at once (as much as the buffer takes).
            Just(vec![usize::MAX]),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn reassembly_does_not_depend_on_chunking(
            frames in arb_frames(),
            chunk_sizes in arb_chunk_sizes(),
        ) {
            let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
            let (got, counters, error) = reassemble(&stream, &chunk_sizes);
            proptest::prop_assert!(error.is_none(), "clean stream failed: {error:?}");
            proptest::prop_assert_eq!(&got, &frames);
            proptest::prop_assert_eq!(counters.frames_in, frames.len() as u64);
            proptest::prop_assert_eq!(counters.bytes_in, stream.len() as u64);
            proptest::prop_assert_eq!(counters.decode_errors, 0);
        }

        #[test]
        fn corrupted_header_desyncs_once_however_it_is_chunked(
            frames in arb_frames(),
            chunk_sizes in arb_chunk_sizes(),
            victim in 0usize..64,
        ) {
            let victim = victim % frames.len();
            let mut stream = Vec::new();
            for (i, frame) in frames.iter().enumerate() {
                let at = stream.len();
                stream.extend_from_slice(&encode_frame(frame));
                if i == victim {
                    stream[at] ^= 0xFF; // first magic byte
                }
            }
            let (got, counters, error) = reassemble(&stream, &chunk_sizes);
            proptest::prop_assert!(
                matches!(error, Some(LinkError::Desync(WireError::BadMagic(_)))),
                "expected a desync, got {error:?}"
            );
            proptest::prop_assert_eq!(&got[..], &frames[..victim], "frames before it are delivered");
            proptest::prop_assert_eq!(counters.frames_in, victim as u64);
            proptest::prop_assert_eq!(counters.decode_errors, 1);
        }
    }
}
