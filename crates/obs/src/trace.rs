//! Fixed-capacity ring-buffer event trace and the simulator-facing sink.
//!
//! [`RingTrace`] stores the most recent `capacity` [`Event`]s; older events
//! are overwritten, and an explicit `dropped` counter records how many were
//! lost so exports can never silently pretend to be complete. [`ObsSink`] is
//! the tiny indirection the simulator holds: detached by default, it makes
//! `emit` one branch on `None`, with the recording arm out of line.

use crate::event::{csv_header, Event};
use serde::Serialize;

/// A bounded ring buffer of trace events (most recent `capacity` kept).
#[derive(Debug, Clone)]
pub struct RingTrace {
    buf: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    /// Events overwritten after the buffer filled.
    dropped: u64,
    capacity: usize,
}

impl RingTrace {
    /// A trace keeping the most recent `capacity` events (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Self {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Append an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events were ever recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate in chronological order (oldest retained event first).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Snapshot for serialization: events in chronological order plus the
    /// capacity/drop accounting that says how complete the window is.
    pub fn export(&self) -> TraceExport {
        TraceExport {
            capacity: self.capacity as u64,
            recorded: self.buf.len() as u64 + self.dropped,
            dropped: self.dropped,
            events: self.iter().copied().collect(),
        }
    }

    /// Render the retained window as CSV (header + one row per event).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(csv_header());
        out.push('\n');
        for ev in self.iter() {
            out.push_str(&ev.csv_row());
            out.push('\n');
        }
        out
    }
}

/// Serializable snapshot of a [`RingTrace`]. `recorded` counts every event
/// ever pushed; `dropped` of those fell out of the window, so the `events`
/// array holds the final `recorded - dropped`.
#[derive(Debug, Clone, Serialize)]
pub struct TraceExport {
    /// Ring capacity the trace ran with.
    pub capacity: u64,
    /// Total events pushed over the run.
    pub recorded: u64,
    /// Events overwritten (lost from the window).
    pub dropped: u64,
    /// The retained window, oldest first.
    pub events: Vec<Event>,
}

/// The simulator-facing sink: `None` (default) means tracing is disabled and
/// [`ObsSink::emit`] is a no-op branch.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    trace: Option<RingTrace>,
}

impl ObsSink {
    /// Enable tracing into a fresh ring of `capacity` events.
    pub fn attach(&mut self, capacity: usize) {
        self.trace = Some(RingTrace::new(capacity));
    }

    /// Disable tracing and return the trace recorded so far, if any.
    pub fn detach(&mut self) -> Option<RingTrace> {
        self.trace.take()
    }

    /// True if a trace is attached.
    pub fn is_attached(&self) -> bool {
        self.trace.is_some()
    }

    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&RingTrace> {
        self.trace.as_ref()
    }

    /// Record an event if tracing is attached; otherwise do nothing. The
    /// recording arm is kept out of line so a detached sink costs the
    /// caller one predictable branch.
    #[inline]
    pub fn emit(&mut self, ev: Event) {
        if let Some(t) = self.trace.as_mut() {
            record(t, ev);
        }
    }
}

#[cold]
#[inline(never)]
fn record(trace: &mut RingTrace, ev: Event) {
    trace.push(ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_PACKET};

    fn ev(cycle: u64) -> Event {
        Event::new(cycle, 0, 1, cycle, EventKind::Send)
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = RingTrace::new(4);
        for c in 0..10 {
            t.push(ev(c));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let cycles: Vec<u64> = t.iter().map(|e| e.cycle).collect();
        assert_eq!(
            cycles,
            vec![6, 7, 8, 9],
            "chronological, most recent window"
        );
    }

    #[test]
    fn export_accounts_for_every_push() {
        let mut t = RingTrace::new(3);
        for c in 0..5 {
            t.push(ev(c));
        }
        let ex = t.export();
        assert_eq!(ex.recorded, 5);
        assert_eq!(ex.dropped, 2);
        assert_eq!(ex.events.len() as u64, ex.recorded - ex.dropped);
        assert!(serde_json::to_string(&ex)
            .unwrap()
            .contains("\"recorded\":5"));
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let mut t = RingTrace::new(8);
        t.push(ev(1));
        t.push(Event::new(2, 0, 0, NO_PACKET, EventKind::TokenGrant));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("cycle,channel,node,packet,kind\n"));
    }

    #[test]
    fn detached_sink_emits_nothing() {
        let mut s = ObsSink::default();
        s.emit(ev(1));
        assert!(!s.is_attached());
        s.attach(4);
        s.emit(ev(2));
        assert_eq!(s.trace().unwrap().len(), 1);
        let t = s.detach().unwrap();
        assert_eq!(t.len(), 1);
        assert!(!s.is_attached());
    }
}
