//! The DES engine's event queue: a calendar queue.
//!
//! Events pop by `(at, seq)`, where `seq` is the engine's monotone
//! schedule counter; every pinned report depends on that one total order.
//! Debug builds check it on every run: [`CalendarQueue`] mirrors each push
//! into a plain `BinaryHeap` and asserts that every pop and every
//! `next_at` agrees with the heap. Release builds carry none of it.
//!
//! # Calendar queue
//!
//! The calendar queue is a bucketed timing wheel with three tiers:
//!
//! * **`due_now` FIFO** — events scheduled *at the current virtual time*
//!   (the channel-waiter `Attempt` storm after every successful read or
//!   write, and the t=0 `Start` fan-out). These never touch the wheel:
//!   push/pop is a `VecDeque` op. FIFO order *is* `seq` order because
//!   `seq` increments per schedule call.
//! * **wheel** — events within the bucket window. A bucket holds one
//!   "day" (`at >> shift` ns) of events; the cursor walks days with a
//!   256-bit occupancy bitmap skipping empties word-at-a-time. Buckets
//!   are unsorted (they hold a handful of events at most); the pop scans
//!   for the `(at, seq)` minimum.
//! * **overflow heap** — events beyond the window (`cursor_day + 256`
//!   days out). Whenever the cursor advances, overflow events that fell
//!   inside the new window migrate to their buckets, restoring the
//!   invariant that everything in overflow is later than everything in
//!   the wheel.
//!
//! The bucket width is tuned once per engine from the first 32 scheduling
//! horizons (`at - now`): width ≈ half the median horizon, so a typical
//! wake lands a couple of buckets ahead of the cursor and each pop
//! advances O(1) buckets. Until tuned, the overflow heap serves as a
//! plain heap — correct, just not yet O(1).
//!
//! # Determinism argument (why pop order equals the heap's)
//!
//! 1. Nothing schedules in the past: every push has `at >= now`, and
//!    `now` only advances to popped event times.
//! 2. A wheel/overflow event with `at == now` was necessarily pushed
//!    *before* virtual time reached `now` (pushes at the current time go
//!    to `due_now` instead), so its `seq` is smaller than any `due_now`
//!    entry, which was pushed *while processing* `now`. Hence the pop
//!    rule: current-bucket events with `at == now` first (min-`seq`
//!    scan), then the `due_now` FIFO, then the rest of the wheel.
//! 3. Day partitioning preserves `at` order across buckets (a bucket's
//!    events are all earlier than any later day's), the in-bucket scan
//!    orders within a day, and the overflow invariant keeps everything
//!    in overflow later than the whole wheel.

use crate::process::NodeId;
use rtft_rtc::TimeNs;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Internal wakeup kinds; tokens for `ReadDone` are produced at delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeKind {
    Start,
    ComputeDone,
    /// Re-attempt the stored pending syscall (after a park or a transfer
    /// latency charge).
    Attempt,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueuedEvent {
    pub at: TimeNs,
    pub seq: u64,
    pub node: NodeId,
    pub wake: WakeKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a combined peek-and-pop against a time limit.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Popped {
    /// The next event, removed from the queue.
    Event {
        at: TimeNs,
        node: NodeId,
        wake: WakeKind,
    },
    /// The next event is beyond the limit; it was left in the queue.
    NotDue,
    /// No events scheduled.
    Empty,
}

const NBUCKETS: usize = 256;
const BUCKET_MASK: u64 = (NBUCKETS - 1) as u64;
const WORDS: usize = NBUCKETS / 64;
const TUNE_SAMPLES: usize = 32;
/// Bucket width bounds: 64 ns .. ~4.2 ms per day.
const MIN_SHIFT: u32 = 6;
const MAX_SHIFT: u32 = 22;

/// The engine's event queue (see the module docs).
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// Bucket width is `1 << shift` ns; a "day" is `at >> shift`.
    shift: u32,
    tuned: bool,
    samples: Vec<u64>,
    /// Register caching the earliest wheel/overflow event. Filled only
    /// when the rest of the wheel is empty (the steady one-future-event
    /// pattern of a paced pipeline) or by displacement, so it is always
    /// the `(at, seq)` minimum of the future tiers; pops and pushes then
    /// skip the bucket machinery entirely.
    single: Option<QueuedEvent>,
    due_now: VecDeque<(NodeId, WakeKind)>,
    buckets: Vec<Vec<QueuedEvent>>,
    occupied: [u64; WORDS],
    cursor_day: u64,
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<QueuedEvent>>,
    /// Debug builds only: every pushed event, in a plain binary heap that
    /// each pop and `next_at` is checked against.
    #[cfg(debug_assertions)]
    reference: BinaryHeap<Reverse<QueuedEvent>>,
}

/// The order the calendar must reproduce: pop a plain `(at, seq)` heap
/// against `limit`.
#[cfg(any(debug_assertions, test))]
fn pop_reference(heap: &mut BinaryHeap<Reverse<QueuedEvent>>, limit: TimeNs) -> Popped {
    match heap.peek() {
        None => Popped::Empty,
        Some(Reverse(ev)) if ev.at > limit => Popped::NotDue,
        Some(_) => {
            let Reverse(ev) = heap.pop().expect("peeked");
            Popped::Event {
                at: ev.at,
                node: ev.node,
                wake: ev.wake,
            }
        }
    }
}

impl CalendarQueue {
    pub fn new() -> Self {
        CalendarQueue {
            shift: 12,
            tuned: false,
            samples: Vec::with_capacity(TUNE_SAMPLES),
            single: None,
            due_now: VecDeque::with_capacity(64),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cursor_day: 0,
            wheel_len: 0,
            overflow: BinaryHeap::with_capacity(64),
            #[cfg(debug_assertions)]
            reference: BinaryHeap::new(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.due_now.len()
            + usize::from(self.single.is_some())
            + self.wheel_len
            + self.overflow.len()
    }

    #[inline]
    pub fn push(&mut self, now: TimeNs, ev: QueuedEvent) {
        #[cfg(debug_assertions)]
        self.reference.push(Reverse(ev.clone()));
        if ev.at == now {
            self.due_now.push_back((ev.node, ev.wake));
            return;
        }
        debug_assert!(ev.at > now, "scheduled into the past");
        if !self.tuned {
            self.push_untuned(now, ev);
            return;
        }
        match &self.single {
            // Strict `at` compare: an equal-time event has a larger seq
            // and must stay behind the register's occupant.
            Some(s) if ev.at < s.at => {
                let displaced = self.single.replace(ev).expect("checked");
                self.insert_wheel(displaced);
            }
            Some(_) => self.insert_wheel(ev),
            None if self.wheel_len == 0 && self.overflow.is_empty() => self.single = Some(ev),
            None => self.insert_wheel(ev),
        }
    }

    fn push_untuned(&mut self, now: TimeNs, ev: QueuedEvent) {
        self.samples.push(ev.at.as_ns() - now.as_ns());
        self.overflow.push(Reverse(ev));
        if self.samples.len() >= TUNE_SAMPLES {
            self.tune(now);
        }
    }

    #[inline]
    fn insert_wheel(&mut self, ev: QueuedEvent) {
        let day = ev.at.as_ns() >> self.shift;
        debug_assert!(day >= self.cursor_day, "event behind the cursor");
        if day >= self.cursor_day + NBUCKETS as u64 {
            self.overflow.push(Reverse(ev));
        } else {
            let idx = (day & BUCKET_MASK) as usize;
            self.buckets[idx].push(ev);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        }
    }

    /// One-shot width tuning from the first [`TUNE_SAMPLES`] scheduling
    /// horizons: width ≈ half the median horizon, clamped. Deterministic —
    /// the samples are a pure function of the simulated network.
    fn tune(&mut self, now: TimeNs) {
        let mut samples = std::mem::take(&mut self.samples);
        samples.sort_unstable();
        let median = samples[samples.len() / 2].max(1);
        let target = (median / 2).max(1);
        self.shift = (64 - target.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        self.cursor_day = now.as_ns() >> self.shift;
        self.tuned = true;
        self.drain_overflow_into_window();
    }

    /// Moves overflow events that now fall inside the bucket window into
    /// their buckets. Called after every cursor advance, so the overflow
    /// heap's minimum is always beyond the whole wheel.
    fn drain_overflow_into_window(&mut self) {
        let window_end = self.cursor_day + NBUCKETS as u64;
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if ev.at.as_ns() >> self.shift >= window_end {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            let day = ev.at.as_ns() >> self.shift;
            let idx = (day & BUCKET_MASK) as usize;
            self.buckets[idx].push(ev);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        }
    }

    /// Cyclic distance from bucket `idx` to the next occupied bucket,
    /// word-at-a-time over the occupancy bitmap.
    fn next_occupied_delta(&self, idx: usize) -> usize {
        let start = (idx + 1) % NBUCKETS;
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] >> sb;
        if first != 0 {
            let found = start + first.trailing_zeros() as usize;
            return (found + NBUCKETS - idx) % NBUCKETS;
        }
        for k in 1..=WORDS {
            let w = (sw + k) % WORDS;
            let word = self.occupied[w];
            if word != 0 {
                let found = w * 64 + word.trailing_zeros() as usize;
                return (found + NBUCKETS - idx) % NBUCKETS;
            }
        }
        unreachable!("wheel_len > 0 with an empty bitmap")
    }

    /// Earliest scheduled time without mutating the queue (slow path —
    /// only consulted when the event budget is exhausted).
    pub fn next_at(&self, now: TimeNs) -> Option<TimeNs> {
        let at = self.calendar_next_at(now);
        #[cfg(debug_assertions)]
        assert_eq!(
            at,
            self.reference.peek().map(|Reverse(ev)| ev.at),
            "calendar queue diverged from the reference heap at {now:?}"
        );
        at
    }

    fn calendar_next_at(&self, now: TimeNs) -> Option<TimeNs> {
        if !self.due_now.is_empty() {
            return Some(now);
        }
        if let Some(s) = &self.single {
            return Some(s.at);
        }
        if self.wheel_len > 0 {
            let cursor_idx = (self.cursor_day & BUCKET_MASK) as usize;
            let idx = if self.occupied[cursor_idx / 64] & (1 << (cursor_idx % 64)) != 0 {
                cursor_idx
            } else {
                (cursor_idx + self.next_occupied_delta(cursor_idx)) % NBUCKETS
            };
            return self.buckets[idx].iter().map(|e| e.at).min();
        }
        self.overflow.peek().map(|Reverse(ev)| ev.at)
    }

    /// Removes the next event if it is due by `limit`; in debug builds,
    /// asserts that the reference heap pops the same.
    #[inline]
    pub fn pop_due(&mut self, now: TimeNs, limit: TimeNs) -> Popped {
        let popped = self.pop_calendar(now, limit);
        #[cfg(debug_assertions)]
        assert_eq!(
            popped,
            pop_reference(&mut self.reference, limit),
            "calendar queue diverged from the reference heap at {now:?}"
        );
        popped
    }

    /// Pop fast path, kept small so it inlines into the engine loop: the
    /// register and due-now tiers cover the steady state of a paced
    /// pipeline (one future wake, a burst of same-time attempts). Only
    /// multi-event wheels fall through to the outlined bucket walk.
    #[inline]
    fn pop_calendar(&mut self, now: TimeNs, limit: TimeNs) -> Popped {
        if !self.tuned {
            return self.pop_due_untuned(now, limit);
        }
        // Register fast path. The register holds the (at, seq) minimum of
        // all future events, so only the due-now rule can precede it.
        match &self.single {
            Some(s) => {
                if s.at != now {
                    if let Some((node, wake)) = self.due_now.pop_front() {
                        return Popped::Event {
                            at: now,
                            node,
                            wake,
                        };
                    }
                    if s.at > limit {
                        return Popped::NotDue;
                    }
                }
                let ev = self.single.take().expect("checked");
                // Re-sync the cursor so later bucket inserts land in-window.
                let day = ev.at.as_ns() >> self.shift;
                if day > self.cursor_day {
                    self.cursor_day = day;
                    if !self.overflow.is_empty() {
                        self.drain_overflow_into_window();
                    }
                }
                Popped::Event {
                    at: ev.at,
                    node: ev.node,
                    wake: ev.wake,
                }
            }
            None if self.wheel_len == 0 && self.overflow.is_empty() => {
                match self.due_now.pop_front() {
                    Some((node, wake)) => Popped::Event {
                        at: now,
                        node,
                        wake,
                    },
                    None => Popped::Empty,
                }
            }
            None => self.pop_due_wheel(now, limit),
        }
    }

    /// The outlined multi-event path: walk the bucket wheel (and overflow)
    /// for the `(at, seq)` minimum, interleaving the due-now FIFO per the
    /// determinism rule.
    fn pop_due_wheel(&mut self, now: TimeNs, limit: TimeNs) -> Popped {
        loop {
            let idx = (self.cursor_day & BUCKET_MASK) as usize;
            if self.occupied[idx / 64] & (1 << (idx % 64)) != 0 {
                let bucket = &self.buckets[idx];
                let mut best = 0;
                for i in 1..bucket.len() {
                    if (bucket[i].at, bucket[i].seq) < (bucket[best].at, bucket[best].seq) {
                        best = i;
                    }
                }
                let at = bucket[best].at;
                if at != now {
                    debug_assert!(at > now, "stale event behind virtual time");
                    // Anything due exactly now was pushed while processing
                    // `now` and lives in the FIFO; it precedes this event.
                    if let Some((node, wake)) = self.due_now.pop_front() {
                        return Popped::Event {
                            at: now,
                            node,
                            wake,
                        };
                    }
                    if at > limit {
                        return Popped::NotDue;
                    }
                }
                let ev = self.buckets[idx].swap_remove(best);
                self.wheel_len -= 1;
                if self.buckets[idx].is_empty() {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                return Popped::Event {
                    at: ev.at,
                    node: ev.node,
                    wake: ev.wake,
                };
            }
            if let Some((node, wake)) = self.due_now.pop_front() {
                return Popped::Event {
                    at: now,
                    node,
                    wake,
                };
            }
            if self.wheel_len > 0 {
                self.cursor_day += self.next_occupied_delta(idx) as u64;
            } else if let Some(Reverse(ev)) = self.overflow.peek() {
                self.cursor_day = ev.at.as_ns() >> self.shift;
            } else {
                return Popped::Empty;
            }
            self.drain_overflow_into_window();
        }
    }

    /// Pre-tune path: the overflow heap serves as a plain binary heap,
    /// with the same `due_now` two-tier rule.
    fn pop_due_untuned(&mut self, now: TimeNs, limit: TimeNs) -> Popped {
        if let Some(Reverse(ev)) = self.overflow.peek() {
            if ev.at == now {
                let Reverse(ev) = self.overflow.pop().expect("peeked");
                return Popped::Event {
                    at: ev.at,
                    node: ev.node,
                    wake: ev.wake,
                };
            }
        }
        if let Some((node, wake)) = self.due_now.pop_front() {
            return Popped::Event {
                at: now,
                node,
                wake,
            };
        }
        match self.overflow.peek() {
            None => Popped::Empty,
            Some(Reverse(ev)) if ev.at > limit => Popped::NotDue,
            _ => {
                let Reverse(ev) = self.overflow.pop().expect("peeked");
                Popped::Event {
                    at: ev.at,
                    node: ev.node,
                    wake: ev.wake,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_both(
        q: &mut CalendarQueue,
        heap: &mut BinaryHeap<Reverse<QueuedEvent>>,
        now: TimeNs,
        ev: QueuedEvent,
    ) {
        heap.push(Reverse(ev.clone()));
        q.push(now, ev);
    }

    /// Replays a seeded reactive workload — pops trigger pushes the way
    /// engine events schedule wakeups — on the calendar and on a plain
    /// binary heap beside it, asserting that every pop agrees. Horizons
    /// span all three tiers: due-now, in-window, and overflow. Release
    /// test runs, which compile out the queue's own reference, check the
    /// order here.
    fn reactive_run(seed: u64) {
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let limit = TimeNs::from_secs(3600);
        let mut seq = 0u64;
        let mut now = TimeNs::ZERO;
        let mut x = seed | 1;
        // t=0 fan-out, like the engine's Start events.
        for _ in 0..8 {
            seq += 1;
            let ev = QueuedEvent {
                at: now,
                seq,
                node: NodeId(seq as usize),
                wake: WakeKind::Start,
            };
            push_both(&mut q, &mut heap, now, ev);
        }
        let mut pops = 0u32;
        while pops < 30_000 {
            let popped = q.pop_due(now, limit);
            assert_eq!(
                popped,
                pop_reference(&mut heap, limit),
                "seed {seed}: first divergence at pop {pops}"
            );
            match popped {
                Popped::Event { at, .. } => {
                    pops += 1;
                    assert!(at >= now, "time ran backwards");
                    now = at;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let fanout = u32::from(x.is_multiple_of(4)) + u32::from(q.len() < 16);
                    for _ in 0..fanout {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let horizon = match x % 8 {
                            0 | 1 => 0,
                            2 => x % 500,
                            3 => x % 9_000,
                            4 => x % 120_000,
                            5 => x % 3_000_000,
                            6 => x % 80_000_000,
                            _ => 10_000,
                        };
                        seq += 1;
                        let ev = QueuedEvent {
                            at: TimeNs::from_ns(now.as_ns() + horizon),
                            seq,
                            node: NodeId(seq as usize),
                            wake: WakeKind::Attempt,
                        };
                        push_both(&mut q, &mut heap, now, ev);
                    }
                }
                Popped::Empty => break,
                Popped::NotDue => unreachable!("limit is far beyond the workload"),
            }
        }
    }

    #[test]
    fn calendar_matches_heap_under_reactive_load() {
        for seed in [1u64, 0xDAC14, 0x5CC] {
            reactive_run(seed);
        }
    }

    #[test]
    fn pop_order_is_at_then_seq_within_a_bucket() {
        // Three events land in one bucket out of order; pops must sort by
        // (at, seq) regardless of push order.
        let mut q = CalendarQueue::new();
        let now = TimeNs::ZERO;
        // Burn through tuning with uniform 1 µs horizons.
        for seq in 1..=TUNE_SAMPLES as u64 {
            q.push(
                now,
                QueuedEvent {
                    at: TimeNs::from_ns(1_000),
                    seq,
                    node: NodeId(0),
                    wake: WakeKind::Attempt,
                },
            );
        }
        for (at, seq, node) in [(1_200u64, 40u64, 2usize), (1_100, 41, 1), (1_200, 39, 3)] {
            q.push(
                now,
                QueuedEvent {
                    at: TimeNs::from_ns(at),
                    seq,
                    node: NodeId(node),
                    wake: WakeKind::Attempt,
                },
            );
        }
        let mut order = Vec::new();
        let mut t = now;
        while let Popped::Event { at, node, .. } = q.pop_due(t, TimeNs::from_secs(1)) {
            t = at;
            if node.0 != 0 {
                order.push((at.as_ns(), node.0));
            }
        }
        assert_eq!(order, vec![(1_100, 1), (1_200, 3), (1_200, 2)]);
    }

    #[test]
    fn not_due_leaves_event_in_place() {
        let mut q = CalendarQueue::new();
        let now = TimeNs::ZERO;
        q.push(
            now,
            QueuedEvent {
                at: TimeNs::from_ms(5),
                seq: 1,
                node: NodeId(7),
                wake: WakeKind::ComputeDone,
            },
        );
        assert!(matches!(q.pop_due(now, TimeNs::from_ms(1)), Popped::NotDue));
        assert_eq!(q.next_at(now), Some(TimeNs::from_ms(5)));
        match q.pop_due(now, TimeNs::from_ms(10)) {
            Popped::Event { at, node, .. } => {
                assert_eq!(at, TimeNs::from_ms(5));
                assert_eq!(node, NodeId(7));
            }
            other => panic!("expected the event, got {other:?}"),
        }
        assert!(matches!(
            q.pop_due(TimeNs::from_ms(5), TimeNs::from_ms(10)),
            Popped::Empty
        ));
    }
}
