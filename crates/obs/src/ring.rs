//! Bounded ring buffers: event storage that cannot grow without bound.
//!
//! A long fault-injection campaign emits millions of events; the ring
//! keeps the most recent `capacity` entries and *counts* what it evicts,
//! so post-processing knows exactly how lossy the record is. The DES
//! engine's token-flow log (`rtft_kpn::Engine::with_events`) and the
//! serve / fleet lifecycle logs are all [`EventSink`]s over this ring.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A bounded FIFO ring: pushes beyond capacity evict the **oldest** entry
/// and increment the drop counter.
#[derive(Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `item`, evicting the oldest entry if full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Entries currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a `Vec`, oldest first (drop count survives).
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }
}

impl<T: Clone> Ring<T> {
    /// A copy of the held entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }
}

/// Which clock produced an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Deterministic virtual time from the DES engine.
    Virtual,
    /// Wall-clock nanoseconds since the run's epoch (threaded runtime).
    Wall,
}

impl ClockDomain {
    /// Stable lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            ClockDomain::Virtual => "virtual",
            ClockDomain::Wall => "wall",
        }
    }
}

/// One observability event: a named occurrence at a timestamp, scoped to a
/// node and/or channel, with one free integer field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Timestamp in nanoseconds (virtual or wall per `clock`).
    pub at_ns: u64,
    /// Clock domain of `at_ns`.
    pub clock: ClockDomain,
    /// Event name (`"token.read"`, `"fault.latched"`, ...).
    pub name: &'static str,
    /// Originating process index, if any.
    pub node: Option<usize>,
    /// Originating channel index, if any.
    pub channel: Option<usize>,
    /// Event-specific value (sequence number, replica index, fill, ...).
    pub value: u64,
}

/// A shared, thread-safe, bounded event sink.
///
/// Both runtimes (DES under virtual time, threads under wall clock) push
/// [`EventRecord`]s here; exporters read them back as JSONL. Cloning shares
/// the underlying ring.
#[derive(Debug, Clone)]
pub struct EventSink {
    ring: Arc<Mutex<Ring<EventRecord>>>,
}

impl EventSink {
    /// A sink retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventSink {
            ring: Arc::new(Mutex::new(Ring::new(capacity))),
        }
    }

    /// Records an event.
    pub fn push(&self, event: EventRecord) {
        self.ring.lock().unwrap().push(event);
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring.lock().unwrap().to_vec()
    }

    /// Number of retained events named `name`. Lifecycle assertions
    /// (eviction counts, retry storms) read this instead of re-parsing
    /// the JSONL export; note the ring is bounded, so the count covers
    /// only the retained window.
    pub fn count(&self, name: &str) -> u64 {
        self.ring
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name == name)
            .count() as u64
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut r = Ring::new(10);
        r.push("a");
        r.push("b");
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.to_vec(), vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Ring::<u8>::new(0);
    }

    #[test]
    fn sink_is_shared_across_clones() {
        let sink = EventSink::new(4);
        let other = sink.clone();
        other.push(EventRecord {
            at_ns: 1,
            clock: ClockDomain::Virtual,
            name: "x",
            node: Some(0),
            channel: None,
            value: 7,
        });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].value, 7);
    }
}
