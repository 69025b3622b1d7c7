//! Span recording, and the transport wrapper that times every call the
//! program makes into the `comm` layer.
//!
//! The wrapper ([`TracedTransport`]) implements [`Transport`] by
//! delegating each call to the wrapped backend unchanged, so the program
//! above it runs exactly as it would without it (the self-test pins the
//! parity digest). Around each call it records the call's duration and
//! payload bytes into a [`Recorder`], split by tag class:
//!
//! * **p2p** — tags below `1 << 61`: rotation fetch, refetch, gradient
//!   routing, serving traffic;
//! * **coll** — tags at or above `1 << 62`: collectives;
//! * **other** — the gap between them (post-run gathers).
//!
//! A receive is classed by the tag of the message it returned; one that
//! returned nothing (a timeout or an empty poll) only adds to the
//! window's child time. Span events are kept (up to [`MAX_SPANS`]) for
//! the Chrome trace, except for receives that returned nothing.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sar_comm::{Clock, Message, Payload, Transport, TransportError};

/// Tags below this are point-to-point traffic.
pub const P2P_TAG_CEILING: u64 = 1 << 61;
/// Tags at or above this are collective traffic.
pub const COLL_TAG_BASE: u64 = 1 << 62;
/// Span events kept per process; later events are counted, not kept.
pub const MAX_SPANS: usize = 200_000;

/// The tag class of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagClass {
    /// Point-to-point (`tag < 1 << 61`).
    P2p,
    /// Collective (`tag >= 1 << 62`).
    Coll,
    /// Anything in between.
    Other,
}

impl TagClass {
    /// Classifies a tag.
    pub fn of(tag: u64) -> TagClass {
        if tag < P2P_TAG_CEILING {
            TagClass::P2p
        } else if tag >= COLL_TAG_BASE {
            TagClass::Coll
        } else {
            TagClass::Other
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Short label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            TagClass::P2p => "p2p",
            TagClass::Coll => "coll",
            TagClass::Other => "other",
        }
    }
}

/// Count, bytes and total duration of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Wire bytes carried (header included).
    pub bytes: u64,
    /// Time spent inside the calls.
    pub ns: u64,
}

impl CallStats {
    fn add(&mut self, bytes: u64, ns: u64) {
        self.calls += 1;
        self.bytes += bytes;
        self.ns += ns;
    }
}

/// Transport-call aggregates over one window of a rank's run (the
/// `run_worker` call, or the serving phase).
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Sends, by tag class.
    pub send: [CallStats; 3],
    /// Receives that returned a message, by its tag class.
    pub recv: [CallStats; 3],
    /// Sum of every call's duration.
    pub child_ns: u64,
    /// Length of the union of the call intervals: equal to `child_ns`
    /// unless calls overlapped.
    pub covered_ns: u64,
}

impl Window {
    /// Sends of one class.
    pub fn sends(&self, class: TagClass) -> CallStats {
        self.send[class.index()]
    }

    /// Receives of one class.
    pub fn recvs(&self, class: TagClass) -> CallStats {
        self.recv[class.index()]
    }
}

/// One recorded span: a layer call made by the benchmark, or one
/// transport call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// What a rank records: span events plus transport-call aggregates.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    window: Window,
    last_end: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            window: Window::default(),
            last_end: origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let start_ns = self.ns_since_origin(start);
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
        });
    }

    /// Charges one transport call to the current window.
    fn child(&mut self, start: Instant, end: Instant) -> u64 {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.window.child_ns += ns;
        let from = start.max(self.last_end);
        if end > from {
            self.window.covered_ns += (end - from).as_nanos() as u64;
        }
        self.last_end = self.last_end.max(end);
        ns
    }

    /// Ends the current window and starts an empty one.
    pub fn take_window(&mut self) -> Window {
        std::mem::take(&mut self.window)
    }

    /// The recorded spans and the count that did not fit.
    pub fn spans(&self) -> (&[Span], u64) {
        (&self.spans, self.dropped)
    }
}

/// A recorder shared between a rank's own code and the transport
/// wrapper inside its communication context.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

/// Locks a shared recorder. The recorder only holds counters and a span
/// list that every update leaves valid, so a poisoned lock is recovered.
pub fn lock(rec: &SharedRecorder) -> MutexGuard<'_, Recorder> {
    rec.lock().unwrap_or_else(|e| e.into_inner())
}

/// A [`Transport`] that delegates every call to `inner` and records it.
pub struct TracedTransport<T> {
    inner: T,
    rec: SharedRecorder,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: T, rec: SharedRecorder) -> Self {
        TracedTransport { inner, rec }
    }

    fn record_recv(&self, start: Instant, got: Option<&Message>) {
        let end = Instant::now();
        let mut r = lock(&self.rec);
        let ns = r.child(start, end);
        // Receives and polls that returned nothing count only towards
        // the window's child time.
        if let Some(m) = got {
            r.window.recv[TagClass::of(m.tag).index()].add(m.payload.wire_len() as u64, ns);
            r.span(recv_span_name(TagClass::of(m.tag)), start, end);
        }
    }
}

fn recv_span_name(class: TagClass) -> &'static str {
    match class {
        TagClass::P2p => "comm.p2p.recv",
        TagClass::Coll => "comm.coll.recv",
        TagClass::Other => "comm.other.recv",
    }
}

fn send_span_name(class: TagClass) -> &'static str {
    match class {
        TagClass::P2p => "comm.p2p.send",
        TagClass::Coll => "comm.coll.send",
        TagClass::Other => "comm.other.send",
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn clock(&self) -> Clock {
        self.inner.clock()
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let bytes = payload.wire_len() as u64;
        let class = TagClass::of(tag);
        let start = Instant::now();
        let out = self.inner.send(dst, tag, payload);
        let end = Instant::now();
        let mut r = lock(&self.rec);
        let ns = r.child(start, end);
        r.window.send[class.index()].add(bytes, ns);
        r.span(send_span_name(class), start, end);
        out
    }

    fn recv_any(&self, timeout: Duration) -> Result<Message, TransportError> {
        let start = Instant::now();
        let out = self.inner.recv_any(timeout);
        self.record_recv(start, out.as_ref().ok());
        out
    }

    fn try_recv_any(&self) -> Result<Option<Message>, TransportError> {
        let start = Instant::now();
        let out = self.inner.try_recv_any();
        let got = match &out {
            Ok(Some(m)) => Some(m),
            _ => None,
        };
        self.record_recv(start, got);
        out
    }

    fn barrier(&self) -> Result<(), TransportError> {
        let start = Instant::now();
        let out = self.inner.barrier();
        let end = Instant::now();
        let mut r = lock(&self.rec);
        r.child(start, end);
        r.span("comm.barrier", start, end);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_split_into_three_classes() {
        assert_eq!(TagClass::of(0), TagClass::P2p);
        assert_eq!(TagClass::of((1 << 61) - 1), TagClass::P2p);
        assert_eq!(TagClass::of(1 << 61), TagClass::Other);
        assert_eq!(TagClass::of((1 << 62) - 1), TagClass::Other);
        assert_eq!(TagClass::of(1 << 62), TagClass::Coll);
        assert_eq!(TagClass::of(u64::MAX), TagClass::Coll);
    }

    #[test]
    fn overlapping_children_show_as_uncovered_time() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut r = Recorder::new(t0);
        r.child(ms(0), ms(10));
        r.child(ms(20), ms(30));
        let w = r.take_window();
        assert_eq!(w.child_ns, w.covered_ns);
        r.child(ms(40), ms(60));
        r.child(ms(50), ms(70));
        let w = r.take_window();
        assert_eq!(w.child_ns, 40_000_000);
        assert_eq!(w.covered_ns, 30_000_000);
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_kept() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0);
        for _ in 0..MAX_SPANS + 3 {
            r.span("x", t0, t0);
        }
        let (spans, dropped) = r.spans();
        assert_eq!(spans.len(), MAX_SPANS);
        assert_eq!(dropped, 3);
    }
}
