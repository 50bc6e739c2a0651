//! The control plane over a real transport: wire protocol, node agent,
//! and controller daemon for the hierarchical LLC manager.
//!
//! The in-process split (PR 7) proved the hierarchy runs behind an
//! ingest/emit API; this crate runs that API over a socket:
//!
//! * [`frame`] — a hand-rolled length-prefixed frame codec
//!   (`"LN"` magic, version, kind, sequence, payload length), every
//!   encoder and decoder a pure function over bytes, total on arbitrary
//!   input: truncated, corrupted, version-skewed and oversized frames
//!   are rejected whole, never partially applied.
//! * [`codec`] — explicit little-endian message codecs for the five
//!   frame kinds: `Hello`/`Heartbeat` (handshake and window markers
//!   carrying epoch and tick), `ModuleObservation`, `Directive` and
//!   `MetricsSnapshot`. Floats travel as IEEE-754 bit patterns, so a
//!   lossless link is *bit-transparent* — the property the golden
//!   equivalence test pins.
//! * [`link`] — the transport seam: [`TcpLink`] over a socket,
//!   [`PipeLink`] in memory for deterministic tests, [`LossyLink`]
//!   injecting deterministic frame drops and delays.
//! * the node agent is [`llc_cluster::Plant`] itself: the plant shard
//!   the agent instantiates, stepped one window at a time through its
//!   directive [`Reconciler`] (latest-epoch-wins per actuator,
//!   idempotent re-apply, wedged-actuator read-back). This crate adds
//!   only its session messages, [`Hello::agent`] and
//!   [`Heartbeat::agent`], and the session loop [`run_agent`].
//! * [`controld`] — the controller core: a
//!   [`ControlPlane`](llc_cluster::ControlPlane) plus transport
//!   accounting (late and lost observations, decode errors,
//!   reconnects), surfaced through the `transport` section of
//!   [`MetricsSnapshot`](llc_cluster::MetricsSnapshot).
//! * [`scenario`] — the daemons' flags parsed into an
//!   [`llc_cluster::RunSpec`], and the controller core that spec builds.
//! * [`session`] — the two session loops (lockstep and wall-clock
//!   paced) and the window protocol tying it together.
//!
//! The `llc-agent` and `llc-controld` binaries wrap the plant and the
//! controller core in a TCP connect/listen shell;
//! `examples/distributed_control.rs` runs both in one process over
//! loopback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
pub mod controld;
pub mod frame;
pub mod link;
pub mod scenario;
pub mod session;

pub use codec::{
    decode_directive, decode_heartbeat, decode_hello, decode_metrics, decode_observation,
    encode_directive, encode_heartbeat, encode_hello, encode_observation, Heartbeat, Hello, Role,
};
pub use controld::{ControldCore, CtrlEvent};
pub use frame::{decode_frame, encode_frame, Frame, FrameKind, WireError, HEADER_LEN, VERSION};
pub use link::{FrameTransport, Impairment, LinkCounters, LinkError, LossyLink, PipeLink, TcpLink};
pub use session::{run_agent, serve_controller, SessionError};

// `benchmark/` is built from outside this workspace and still names
// the agent's plant by its old name.
pub use llc_cluster::{Plant as AgentCore, ReconcileReport, Reconciler};
