//! Span recorder for the traced run: one span per public call into a
//! layer, kept in memory and written out when the workload ends.
//!
//! A span is `(name, start, end, parent, tick)` plus the allocations
//! counted while it was open. A layer's *self time* is its span's
//! duration minus what its direct children cover.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: the span is a root of its tick.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub tick: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        // An aborted tick leaves its spans open, with no end stamp.
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    tick: u64,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let (allocs, alloc_bytes) = alloc::snapshot();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            tick: self.tick,
            // Holds the counter readings at entry until `exit` turns them
            // into deltas.
            allocs,
            alloc_bytes,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let (allocs, alloc_bytes) = alloc::snapshot();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
    }

    /// Time `f` as a span under the innermost open one.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span whose endpoints were stamped elsewhere: the policy
    /// probe stamps inside `ControlPlane::step`, the link wrappers inside
    /// the session loops, and both hand their stamps over afterwards.
    pub fn push_stamped(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: u32,
        tick: u64,
        (allocs, alloc_bytes): (u64, u64),
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            tick,
            allocs,
            alloc_bytes,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of one span name over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-name totals with self time (duration minus direct children).
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.ns();
        layer.self_ns += s.ns().saturating_sub(children);
        layer.allocs += s.allocs;
        layer.alloc_bytes += s.alloc_bytes;
    }
    layers
}

/// The trace file: one JSON object with the span table in columnar rows
/// (`[name, start_ns, end_ns, parent, tick, allocs, alloc_bytes]`, parent
/// `-1` for a root, times relative to the start of the traced loop).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 64);
    let _ = writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\
         \"columns\":[\"name\",\"start\",\"end\",\"parent\",\"tick\",\"allocs\",\"alloc_bytes\"],\
         \"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "[\"{}\",{},{},{},{},{},{}]{}",
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.tick,
            s.allocs,
            s.alloc_bytes,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let outer = rec.push_stamped("outer", (at(0), at(100)), ROOT, 0, (0, 0));
        let mid = rec.push_stamped("mid", (at(10), at(60)), outer, 0, (0, 0));
        rec.push_stamped("leaf", (at(20), at(30)), mid, 0, (0, 0));
        let layers = by_layer(rec.spans());
        assert_eq!(layers["outer"].self_ns, 50);
        assert_eq!(layers["mid"].self_ns, 40);
        assert_eq!(layers["leaf"].self_ns, 10);
    }
}
