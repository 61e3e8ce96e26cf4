//! Channel semantics: the pluggable state machines processes communicate
//! through.
//!
//! A channel is a passive state machine owned by the runtime (simulation
//! engine or threaded runtime). Processes interact with it only via
//! non-destructive *attempts* — [`ChannelBehavior::try_write`] /
//! [`ChannelBehavior::try_read`] — and the runtime implements blocking by
//! parking the process and retrying after the channel changes state. This
//! split lets the exact same channel implementation (including the paper's
//! replicator and selector in `rtft-core`) run unchanged under virtual time
//! and under real threads.

use crate::token::Token;
use rtft_rtc::TimeNs;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a channel within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

/// Identifies one interface (reader or writer side) of a channel.
///
/// Plain FIFOs have a single interface on each side (`iface == 0`); the
/// replicator has two read interfaces, the selector two write interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId {
    /// The channel.
    pub channel: ChannelId,
    /// Interface index on the relevant side.
    pub iface: usize,
}

impl PortId {
    /// Interface 0 of `channel` — the common single-interface case.
    pub fn of(channel: ChannelId) -> Self {
        PortId { channel, iface: 0 }
    }

    /// A specific interface of `channel`.
    pub fn iface(channel: ChannelId, iface: usize) -> Self {
        PortId { channel, iface }
    }
}

/// Result of a write attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Token enqueued; the write completed.
    Accepted,
    /// The write completed but the token was *not* enqueued — the selector
    /// discards the late token of a duplicate pair (§3.1 selector rule 3),
    /// and a replicator drops tokens destined for a latched-faulty replica
    /// queue (§3.3).
    AcceptedDropped,
    /// No space on this interface; the writer must block and retry. The
    /// token is handed back so the runtime can re-attempt the same write
    /// later without ever cloning the payload — the accepted path moves
    /// the token straight into the channel, and the blocked path moves it
    /// straight back out.
    Blocked(Token),
}

/// Result of a read attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A token was dequeued.
    Token(Token),
    /// Nothing available; the reader must block and retry.
    Blocked,
}

/// Object-safe channel state machine.
///
/// Implementations must be pure state machines: `try_write`/`try_read`
/// either complete immediately or report `Blocked` without side effects
/// beyond their own bookkeeping. The runtime guarantees mutual exclusion
/// (it owns the channel), calls ops with the current time `now`, and
/// retries blocked parties after every successful op on the channel.
pub trait ChannelBehavior: fmt::Debug + Send {
    /// Attempts to write `token` through write-interface `iface`.
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome;

    /// Attempts a destructive read from read-interface `iface`.
    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome;

    /// Number of write interfaces.
    fn write_ifaces(&self) -> usize {
        1
    }

    /// Number of read interfaces.
    fn read_ifaces(&self) -> usize {
        1
    }

    /// Tokens currently queued for read-interface `iface`.
    fn fill(&self, iface: usize) -> usize;

    /// Capacity of the queue behind read-interface `iface`.
    fn capacity(&self, iface: usize) -> usize;

    /// High-water mark of `fill(iface)` since construction — the paper's
    /// "Max. Observed fill" row in Table 2.
    fn max_fill(&self, iface: usize) -> usize;

    /// Diagnostic name, if the implementation carries one; the network
    /// falls back to `ch<N>` for metric labels otherwise.
    fn debug_name(&self) -> Option<&str> {
        None
    }

    /// Downcast support so harnesses can reach implementation-specific
    /// state (e.g. the replicator's fault-latch timestamps).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A bounded FIFO with blocking semantics: the basic Kahn channel.
///
/// One write interface, one read interface. A write blocks when the queue
/// holds `capacity` tokens; a read blocks when it is empty.
///
/// # Examples
///
/// ```
/// use rtft_kpn::{ChannelBehavior, Fifo, Payload, ReadOutcome, Token, WriteOutcome};
/// use rtft_rtc::TimeNs;
///
/// let mut f = Fifo::new("link", 1);
/// let t0 = TimeNs::ZERO;
/// let tok = Token::new(1, t0, Payload::U64(42));
/// assert_eq!(f.try_write(0, tok.clone(), t0), WriteOutcome::Accepted);
/// // A blocked write hands the token back for a later retry.
/// assert!(matches!(f.try_write(0, tok.clone(), t0), WriteOutcome::Blocked(_)));
/// assert_eq!(f.try_read(0, t0), ReadOutcome::Token(tok));
/// assert_eq!(f.try_read(0, t0), ReadOutcome::Blocked);
/// ```
#[derive(Debug)]
pub struct Fifo {
    name: String,
    queue: VecDeque<Token>,
    capacity: usize,
    max_fill: usize,
    writes: u64,
    reads: u64,
}

impl Fifo {
    /// Creates a bounded FIFO named `name` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity Kahn channel can
    /// never transport a token.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo {
            name: name.into(),
            queue: VecDeque::with_capacity(capacity),
            capacity,
            max_fill: 0,
            writes: 0,
            reads: 0,
        }
    }

    /// The FIFO's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total successful writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total successful reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

impl ChannelBehavior for Fifo {
    #[inline]
    fn try_write(&mut self, iface: usize, token: Token, _now: TimeNs) -> WriteOutcome {
        assert_eq!(iface, 0, "FIFO has a single write interface");
        if self.queue.len() >= self.capacity {
            return WriteOutcome::Blocked(token);
        }
        self.queue.push_back(token);
        self.writes += 1;
        self.max_fill = self.max_fill.max(self.queue.len());
        WriteOutcome::Accepted
    }

    #[inline]
    fn try_read(&mut self, iface: usize, _now: TimeNs) -> ReadOutcome {
        assert_eq!(iface, 0, "FIFO has a single read interface");
        match self.queue.pop_front() {
            Some(t) => {
                self.reads += 1;
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }

    fn fill(&self, _iface: usize) -> usize {
        self.queue.len()
    }

    fn capacity(&self, _iface: usize) -> usize {
        self.capacity
    }

    fn max_fill(&self, _iface: usize) -> usize {
        self.max_fill
    }

    fn debug_name(&self) -> Option<&str> {
        Some(&self.name)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Payload;

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
    }

    #[test]
    fn fifo_is_first_in_first_out() {
        let mut f = Fifo::new("f", 3);
        for s in 0..3 {
            assert_eq!(f.try_write(0, tok(s), TimeNs::ZERO), WriteOutcome::Accepted);
        }
        match f.try_write(0, tok(3), TimeNs::ZERO) {
            WriteOutcome::Blocked(t) => assert_eq!(t.seq, 3, "token handed back intact"),
            other => panic!("expected blocked write, got {other:?}"),
        }
        for s in 0..3 {
            match f.try_read(0, TimeNs::ZERO) {
                ReadOutcome::Token(t) => assert_eq!(t.seq, s),
                ReadOutcome::Blocked => panic!("expected token {s}"),
            }
        }
        assert_eq!(f.try_read(0, TimeNs::ZERO), ReadOutcome::Blocked);
    }

    #[test]
    fn fifo_tracks_max_fill() {
        let mut f = Fifo::new("f", 5);
        f.try_write(0, tok(0), TimeNs::ZERO);
        f.try_write(0, tok(1), TimeNs::ZERO);
        f.try_read(0, TimeNs::ZERO);
        f.try_write(0, tok(2), TimeNs::ZERO);
        assert_eq!(f.fill(0), 2);
        assert_eq!(f.max_fill(0), 2);
        assert_eq!(f.writes(), 3);
        assert_eq!(f.reads(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::new("f", 0);
    }

    #[test]
    fn downcast_through_as_any() {
        let mut f: Box<dyn ChannelBehavior> = Box::new(Fifo::new("f", 2));
        f.try_write(0, tok(0), TimeNs::ZERO);
        let concrete = f.as_any().downcast_ref::<Fifo>().expect("is a Fifo");
        assert_eq!(concrete.name(), "f");
    }
}
