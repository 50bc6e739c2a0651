//! The length-prefixed frame layer: the one wire unit every message
//! rides in.
//!
//! The workspace has no serde, so the codec is hand-rolled and fully
//! explicit: every multi-byte integer is little-endian, every `f64`
//! travels as its IEEE-754 bit pattern (`to_bits`/`from_bits`, so a
//! round trip is *bit*-identical, NaN payloads included), and every
//! frame is self-delimiting:
//!
//! ```text
//! offset  size  field
//!      0     2  magic      b"LN"
//!      2     1  version    protocol version (1)
//!      3     1  kind       FrameKind discriminant
//!      4     4  seq        per-connection send counter, u32 LE
//!      8     4  len        payload length in bytes, u32 LE
//!     12   len  payload    kind-specific body (see `codec`)
//! ```
//!
//! Encode and decode are pure functions of their inputs. A malformed
//! buffer can never panic the decoder or partially apply: decoding
//! returns `Err` and leaves nothing mutated; the transport counts the
//! error and drops the frame whole.

use std::fmt;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"LN";

/// The protocol version this build speaks (2: the Metrics payload
/// gained `future_observations`; 3: `dropped_directives`).
pub const VERSION: u8 = 3;

/// Bytes of header before the payload.
pub const HEADER_LEN: usize = 12;

/// Hard ceiling on payload size: a length field beyond this is treated
/// as corruption, not as a request to allocate 4 GiB.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// What a frame carries (the `kind` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Connection handshake: role, topology, clock base, current
    /// tick/epoch.
    Hello,
    /// Liveness + progress marker carrying tick and epoch. From the
    /// controller it doubles as the *commit* marker: every directive
    /// for the stamped tick has been sent.
    Heartbeat,
    /// One `ModuleObservation` (agent → controller).
    Observation,
    /// One `Directive` (controller → agent).
    Directive,
    /// A full `MetricsSnapshot` (controller → anyone who asks).
    Metrics,
}

impl FrameKind {
    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Heartbeat => 2,
            FrameKind::Observation => 3,
            FrameKind::Directive => 4,
            FrameKind::Metrics => 5,
        }
    }

    /// Parse a wire discriminant.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        match byte {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Heartbeat),
            3 => Some(FrameKind::Observation),
            4 => Some(FrameKind::Directive),
            5 => Some(FrameKind::Metrics),
            _ => None,
        }
    }

    /// Every kind, for exhaustive tests.
    pub fn all() -> [FrameKind; 5] {
        [
            FrameKind::Hello,
            FrameKind::Heartbeat,
            FrameKind::Observation,
            FrameKind::Directive,
            FrameKind::Metrics,
        ]
    }
}

/// One wire frame: version + sequence + kind + opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version the sender speaks.
    pub version: u8,
    /// Per-connection send counter (wraps; gap detection only).
    pub seq: u32,
    /// What the payload is.
    pub kind: FrameKind,
    /// Kind-specific body, decoded by `codec`.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame of the current protocol version.
    pub fn new(kind: FrameKind, seq: u32, payload: Vec<u8>) -> Frame {
        Frame {
            version: VERSION,
            seq,
            kind,
            payload,
        }
    }
}

/// Why a buffer failed to decode. Every variant is a rejection of the
/// *whole* frame — the decoder never partially applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes yet: a stream reader should read at least
    /// `need - have` more and retry.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes required for the full frame (header + declared length,
        /// or just the header when `have < HEADER_LEN`).
        need: usize,
    },
    /// The first two bytes are not [`MAGIC`]: stream desync or garbage.
    BadMagic([u8; 2]),
    /// The sender speaks a protocol version this build does not.
    VersionSkew {
        /// Version byte on the wire.
        got: u8,
        /// Version this build speaks.
        supported: u8,
    },
    /// The kind byte names no known frame kind.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared length.
        len: u32,
        /// The ceiling.
        max: u32,
    },
    /// The payload body contradicts its kind's schema (short field,
    /// bad tag, trailing bytes, impossible count).
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::VersionSkew { got, supported } => {
                write!(f, "protocol version {got} (this build speaks {supported})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode `frame` to wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    encode_frame_into(
        &mut out,
        frame.version,
        frame.kind,
        frame.seq,
        &frame.payload,
    );
    out
}

/// Append one frame's wire bytes to `out` — what [`encode_frame`] returns,
/// without the `Frame` or a buffer of its own, so a transport can lay a
/// window's frames end to end in one write buffer.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    version: u8,
    kind: FrameKind,
    seq: u32,
    payload: &[u8],
) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(kind.as_u8());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode one frame from the front of `buf`, returning the frame and
/// the number of bytes consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` does not yet hold a whole frame
/// (retry with more bytes); any other variant is a hard rejection of
/// the frame at the front of the buffer.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            have: buf.len(),
            need: HEADER_LEN,
        });
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    let version = buf[2];
    if version != VERSION {
        return Err(WireError::VersionSkew {
            got: version,
            supported: VERSION,
        });
    }
    let kind = FrameKind::from_u8(buf[3]).ok_or(WireError::UnknownKind(buf[3]))?;
    let seq = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            have: buf.len(),
            need: total,
        });
    }
    Ok((
        Frame {
            version,
            seq,
            kind,
            payload: buf[HEADER_LEN..total].to_vec(),
        },
        total,
    ))
}

// ---------------------------------------------------------------------
// Little-endian field primitives.
//
// Writers append to a Vec; the reader walks a slice with explicit
// bounds checks. Both are deliberately boring: each field encoder has
// exactly one decoder, and `codec` composes them.
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64`, little-endian.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian. The
/// round trip is bit-exact (NaN payloads included), which is what lets
/// the networked loop reproduce the in-process loop to the bit.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `bool` as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Bounds-checked sequential reader over a payload slice.
///
/// Every getter returns `Err(WireError::BadPayload)` instead of
/// panicking when the slice runs short; [`Reader::finish`] rejects
/// trailing garbage so a decoded message accounts for every byte.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::BadPayload("field runs past payload end"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` (encoded as `u64`), rejecting values that do not
    /// fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadPayload("usize overflow"))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("bool byte not 0/1")),
        }
    }

    /// Read an element count that must leave at least `min_elem_bytes`
    /// of payload per element — a corrupted count can therefore never
    /// trigger a huge allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if min_elem_bytes > 0 && n > self.remaining() / min_elem_bytes {
            return Err(WireError::BadPayload("count exceeds payload"));
        }
        Ok(n)
    }

    /// Assert every byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes after message"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_every_kind() {
        for kind in FrameKind::all() {
            let frame = Frame::new(kind, 0xDEAD_BEEF, vec![1, 2, 3, 4, 5]);
            let bytes = encode_frame(&frame);
            let (back, used) = decode_frame(&bytes).expect("well-formed frame");
            assert_eq!(used, bytes.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn decode_consumes_only_one_frame() {
        let a = Frame::new(FrameKind::Heartbeat, 1, vec![9; 7]);
        let b = Frame::new(FrameKind::Hello, 2, vec![]);
        let mut bytes = encode_frame(&a);
        bytes.extend_from_slice(&encode_frame(&b));
        let (first, used) = decode_frame(&bytes).unwrap();
        assert_eq!(first, a);
        let (second, used2) = decode_frame(&bytes[used..]).unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let frame = Frame::new(FrameKind::Observation, 3, vec![0; 100]);
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                    assert!(need <= bytes.len());
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_magic_version_kind_and_oversize() {
        let frame = Frame::new(FrameKind::Metrics, 4, vec![1, 2, 3]);
        let good = encode_frame(&frame);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));

        let mut bad = good.clone();
        bad[2] = VERSION + 1;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::VersionSkew { got, .. }) if got == VERSION + 1
        ));

        let mut bad = good.clone();
        bad[3] = 0xEE;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::UnknownKind(0xEE))
        ));

        let mut bad = good;
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn reader_bounds_and_trailing() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_f64(&mut buf, -0.5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.u8().is_err(), "reading past the end must fail");

        let mut r = Reader::new(&buf);
        let _ = r.u32().unwrap();
        assert!(matches!(r.finish(), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn f64_bits_survive_nan() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let mut r = Reader::new(&buf);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn count_guard_rejects_absurd_lengths() {
        let mut buf = Vec::new();
        put_usize(&mut buf, u64::MAX as usize);
        let mut r = Reader::new(&buf);
        assert!(r.count(8).is_err(), "2^64 elements in 0 bytes");
    }
}
