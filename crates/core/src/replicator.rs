//! The replicator channel (paper §3.1 and §3.3).
//!
//! A replicator duplicates a producer's output stream to the replicas'
//! input ports. It has **one write interface** (the producer) and one
//! **read interface per replica** — two in the paper, `n` in the
//! generalisation §1 sketches — backed by one bounded FIFO queue each,
//! sized by eq. (3) so that — fault-free — the producer never blocks.
//!
//! Fault detection (§3.3) exploits exactly that sizing guarantee: if a
//! write attempt finds `space_i == 0`, replica `i` must have stopped (or
//! slowed) consuming, so `fault_i` latches `TRUE`, the queue stops
//! receiving tokens, and — crucially — the producer keeps running and the
//! healthy replicas keep being fed, avoiding the §1.1 deadlock scenario.
//! An optional divergence detector on the replicas' *consumption counts*
//! (threshold from eq. (5) applied to the consumption curves) catches
//! slow-consumer faults earlier than the overflow latch.
//!
//! Up to `n − 1` replicas may be latched. The last healthy queue is never
//! latched: when it is full the producer sees real back-pressure
//! (`Blocked`), because there is no one left to fail over to.
//!
//! No operation consults a clock: the `now` parameter is recorded in the
//! detection log for the experiment harness, never branched on.

use crate::arbitration::{ArbFault, ArbFaultCause, Arbiter};
use crate::obs::DetectionObs;
use rtft_kpn::{ChannelBehavior, ReadOutcome, Token, WriteOutcome};
use rtft_rtc::TimeNs;
use std::any::Any;
use std::collections::VecDeque;

/// Configuration of a [`Replicator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatorConfig {
    /// FIFO capacities `|R_i|` from eq. (3), one per replica.
    pub capacity: Vec<usize>,
    /// Enables the overflow fault latch (§3.3). With detection disabled the
    /// replicator behaves per the bare §3.1 rules — writes block on a full
    /// queue — which reproduces the motivational-example deadlock.
    pub detect_overflow: bool,
    /// Optional divergence threshold `D` on consumption counts; `None`
    /// disables the divergence detector.
    pub divergence_threshold: Option<u64>,
}

impl ReplicatorConfig {
    /// Detection-enabled configuration with the given per-replica
    /// capacities (`[|R₁|, |R₂|]` for the paper's pair) and no divergence
    /// detector.
    pub fn new(capacity: impl Into<Vec<usize>>) -> Self {
        ReplicatorConfig {
            capacity: capacity.into(),
            detect_overflow: true,
            divergence_threshold: None,
        }
    }

    /// Adds the divergence detector with threshold `d`.
    pub fn with_divergence_threshold(mut self, d: u64) -> Self {
        self.divergence_threshold = Some(d);
        self
    }

    /// Disables all fault detection (ablation: bare §3.1 semantics).
    pub fn without_detection(mut self) -> Self {
        self.detect_overflow = false;
        self.divergence_threshold = None;
        self
    }
}

/// The replicator channel state machine, for any replica count.
///
/// Implements [`ChannelBehavior`], so it runs unchanged under the
/// discrete-event engine and the threaded runtime.
///
/// # Examples
///
/// ```
/// use rtft_core::{Replicator, ReplicatorConfig};
/// use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};
/// use rtft_rtc::TimeNs;
///
/// let mut r = Replicator::new("rep", ReplicatorConfig::new([2, 2]));
/// let t = Token::new(0, TimeNs::ZERO, Payload::U64(7));
/// assert_eq!(r.try_write(0, t, TimeNs::ZERO), WriteOutcome::Accepted);
/// // Both replicas see the token.
/// assert!(matches!(r.try_read(0, TimeNs::ZERO), ReadOutcome::Token(_)));
/// assert!(matches!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Token(_)));
/// ```
#[derive(Debug)]
pub struct Replicator {
    name: String,
    detect_overflow: bool,
    divergence_threshold: Option<u64>,
    lanes: Vec<Lane>,
    /// Successful producer writes.
    writes: u64,
    healthy: usize,
    obs: Option<DetectionObs>,
}

/// One replica's side of the replicator: its queue and counters.
#[derive(Debug)]
struct Lane {
    queue: VecDeque<Token>,
    capacity: usize,
    max_fill: usize,
    /// Tokens consumed over this read interface (divergence detector input).
    consumed: u64,
    fault: Option<ArbFault>,
}

impl Replicator {
    /// Creates a replicator with one queue per configured capacity.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two queues or any zero capacity.
    pub fn new(name: impl Into<String>, config: ReplicatorConfig) -> Self {
        assert!(config.capacity.len() >= 2, "need at least two replicas");
        assert!(
            config.capacity.iter().all(|c| *c > 0),
            "replicator queue capacities must be positive"
        );
        let lanes: Vec<Lane> = config
            .capacity
            .iter()
            .map(|&capacity| Lane {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                max_fill: 0,
                consumed: 0,
                fault: None,
            })
            .collect();
        Replicator {
            name: name.into(),
            detect_overflow: config.detect_overflow,
            divergence_threshold: config.divergence_threshold,
            healthy: lanes.len(),
            lanes,
            writes: 0,
            obs: None,
        }
    }

    /// Attaches observability: each fault latch is mirrored into the
    /// handles' [`HealthModel`](rtft_obs::HealthModel). Detection
    /// semantics are unchanged — the latch stays the source of truth.
    pub fn attach_obs(&mut self, obs: DetectionObs) {
        self.obs = Some(obs);
    }

    /// The replicator's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fault record for replica `i`, if detected.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica index.
    pub fn fault(&self, i: usize) -> Option<ArbFault> {
        self.lanes[i].fault
    }

    /// `true` if replica `i` is latched faulty.
    pub fn is_faulty(&self, i: usize) -> bool {
        self.lanes[i].fault.is_some()
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.healthy
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| lane.fault.map(|_| i))
    }

    /// Number of tokens consumed so far by replica `i`.
    pub fn consumed(&self, i: usize) -> u64 {
        self.lanes[i].consumed
    }

    /// Successful producer writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Remaining space in queue `i` (the paper's `space_i`).
    pub fn space(&self, i: usize) -> usize {
        let lane = &self.lanes[i];
        if lane.fault.is_some() {
            // A latched queue no longer constrains the producer.
            lane.capacity
        } else {
            lane.capacity - lane.queue.len()
        }
    }

    /// Bytes of framework state (fault-detection bookkeeping), excluding
    /// token storage — the paper's Table 2 memory-overhead convention: the
    /// channel struct plus the two replicas' heap-side records (queue
    /// header, capacity, counters, latch).
    pub fn state_bytes() -> usize {
        std::mem::size_of::<Replicator>() + 2 * std::mem::size_of::<Lane>()
    }

    /// Latches replica `i`. Per §3.3 the replicator stops inserting tokens
    /// into the latched queue; pending tokens stay readable in case the
    /// replica is later serviced for diagnosis.
    fn latch(&mut self, i: usize, cause: ArbFaultCause, now: TimeNs) {
        self.lanes[i].fault = Some(ArbFault {
            at: now,
            cause,
            group: None,
        });
        self.healthy -= 1;
        if let Some(obs) = &self.obs {
            obs.on_detection(i, cause.site(true), now);
        }
    }

    /// The consumption-divergence latch, run after `reader` consumed a
    /// token: any healthy replica whose consumed count is `D` behind it.
    /// Only the reader's count moved, so only the reader can have opened a
    /// gap; the last healthy replica is never latched.
    fn check_divergence(&mut self, reader: usize, now: TimeNs) {
        let Some(d) = self.divergence_threshold else {
            return;
        };
        if self.lanes[reader].fault.is_some() {
            return;
        }
        let lead = self.lanes[reader].consumed;
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[i];
            if self.healthy > 1 && lane.fault.is_none() && lead >= lane.consumed + d {
                self.latch(i, ArbFaultCause::Divergence, now);
            }
        }
    }
}

// `try_write` / `try_read` carry `#[inline]`: with the per-replica state
// behind a `Vec` the inliner no longer takes them on its own at a
// statically-typed call site, which doubles the measured per-token cost.
impl ChannelBehavior for Replicator {
    #[inline]
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        assert_eq!(iface, 0, "replicator has a single write interface");

        let mut blocked = false;
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[i];
            if lane.fault.is_none() && lane.queue.len() >= lane.capacity {
                if self.detect_overflow && self.healthy > 1 {
                    // §3.3: a full healthy queue at a write attempt means
                    // that replica has a timing fault — latch it and keep
                    // going.
                    self.latch(i, ArbFaultCause::Overflow, now);
                } else {
                    // Bare §3.1 rule 3 (detection off), or the last
                    // healthy queue: the write waits for space.
                    blocked = true;
                }
            }
        }
        if blocked {
            return WriteOutcome::Blocked(token);
        }

        for lane in &mut self.lanes {
            if lane.fault.is_none() {
                lane.queue.push_back(token.clone());
                lane.max_fill = lane.max_fill.max(lane.queue.len());
            }
        }
        self.writes += 1;
        WriteOutcome::Accepted
    }

    #[inline]
    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        let lane = &mut self.lanes[iface];
        match lane.queue.pop_front() {
            Some(t) => {
                lane.consumed += 1;
                self.check_divergence(iface, now);
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }

    fn write_ifaces(&self) -> usize {
        1
    }

    fn read_ifaces(&self) -> usize {
        self.lanes.len()
    }

    fn fill(&self, iface: usize) -> usize {
        self.lanes[iface].queue.len()
    }

    fn capacity(&self, iface: usize) -> usize {
        self.lanes[iface].capacity
    }

    fn max_fill(&self, iface: usize) -> usize {
        self.lanes[iface].max_fill
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

impl Arbiter for Replicator {
    fn replica_ifaces(&self) -> usize {
        self.lanes.len()
    }

    fn latched(&self, i: usize) -> Option<ArbFault> {
        self.lanes[i].fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::Payload;

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
    }

    fn replicator(caps: [usize; 2]) -> Replicator {
        Replicator::new("r", ReplicatorConfig::new(caps))
    }

    #[test]
    fn duplicates_every_token_to_both_queues() {
        let mut r = replicator([4, 4]);
        for s in 0..3 {
            assert_eq!(r.try_write(0, tok(s), TimeNs::ZERO), WriteOutcome::Accepted);
        }
        for i in 0..2 {
            for s in 0..3 {
                match r.try_read(i, TimeNs::ZERO) {
                    ReadOutcome::Token(t) => {
                        assert_eq!(t.seq, s);
                        assert_eq!(t.payload, Payload::U64(s));
                    }
                    ReadOutcome::Blocked => panic!("queue {i} missing token {s}"),
                }
            }
        }
    }

    #[test]
    fn timestamps_are_preserved() {
        let mut r = replicator([2, 2]);
        let t = Token::new(0, TimeNs::from_ms(17), Payload::Empty);
        r.try_write(0, t, TimeNs::from_ms(20));
        for i in 0..2 {
            match r.try_read(i, TimeNs::from_ms(21)) {
                ReadOutcome::Token(t) => assert_eq!(t.produced_at, TimeNs::from_ms(17)),
                ReadOutcome::Blocked => panic!(),
            }
        }
    }

    #[test]
    fn overflow_latches_fault_and_unblocks_producer() {
        let mut r = replicator([2, 4]);
        // Replica 0 never reads; replica 1 keeps up.
        for s in 0..2 {
            assert_eq!(
                r.try_write(0, tok(s), TimeNs::from_ms(s)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(s)),
                ReadOutcome::Token(_)
            ));
        }
        assert!(!r.is_faulty(0));
        // Third write: queue 0 full → latch, token still goes to replica 1.
        assert_eq!(
            r.try_write(0, tok(2), TimeNs::from_ms(5)),
            WriteOutcome::Accepted
        );
        let fault = r.fault(0).expect("latched");
        assert_eq!(fault.cause, ArbFaultCause::Overflow);
        assert_eq!(fault.at, TimeNs::from_ms(5));
        assert!(matches!(
            r.try_read(1, TimeNs::from_ms(5)),
            ReadOutcome::Token(_)
        ));
        // Producer can keep writing indefinitely.
        for s in 3..100 {
            assert_eq!(
                r.try_write(0, tok(s), TimeNs::from_ms(s)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(s)),
                ReadOutcome::Token(_)
            ));
        }
        // The latched queue received nothing beyond its capacity.
        assert_eq!(r.fill(0), 2);
        assert_eq!(r.max_fill(0), 2);
    }

    #[test]
    fn without_detection_write_blocks_on_full_queue() {
        let mut r = Replicator::new("r", ReplicatorConfig::new([1, 4]).without_detection());
        assert_eq!(r.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        // Queue 0 full, nobody reads it: the producer blocks (§1.1 hazard).
        assert!(matches!(
            r.try_write(0, tok(1), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        assert!(!r.is_faulty(0));
    }

    #[test]
    fn divergence_detector_flags_slow_consumer() {
        let cfg = ReplicatorConfig::new([8, 8]).with_divergence_threshold(3);
        let mut r = Replicator::new("r", cfg);
        for s in 0..4 {
            r.try_write(0, tok(s), TimeNs::from_ms(s));
        }
        // Replica 1 consumes 3, replica 0 none → divergence 3 ≥ D=3.
        for k in 0..3u64 {
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(10 + k)),
                ReadOutcome::Token(_)
            ));
        }
        let fault = r.fault(0).expect("divergence latched");
        assert_eq!(fault.cause, ArbFaultCause::Divergence);
        assert_eq!(fault.at, TimeNs::from_ms(12));
    }

    #[test]
    fn divergence_below_threshold_is_tolerated() {
        let cfg = ReplicatorConfig::new([8, 8]).with_divergence_threshold(3);
        let mut r = Replicator::new("r", cfg);
        for s in 0..8 {
            r.try_write(0, tok(s), TimeNs::ZERO);
        }
        r.try_read(1, TimeNs::ZERO);
        r.try_read(1, TimeNs::ZERO);
        assert!(!r.is_faulty(0), "divergence 2 < 3 must not latch");
        r.try_read(0, TimeNs::ZERO);
        assert!(!r.is_faulty(0));
        assert!(!r.is_faulty(1));
    }

    #[test]
    fn last_healthy_queue_blocks_instead_of_latching() {
        let mut r = replicator([1, 1]);
        r.try_write(0, tok(0), TimeNs::ZERO);
        // Both queues full: the first latches, the survivor cannot — the
        // producer sees back-pressure rather than a swallowed stream.
        assert!(matches!(
            r.try_write(0, tok(1), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        assert!(r.is_faulty(0) && !r.is_faulty(1));
        assert_eq!(r.healthy_count(), 1);
        // Once the survivor drains, the stream continues on it alone.
        assert!(matches!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Token(_)));
        assert_eq!(r.try_write(0, tok(1), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(r.writes(), 2);
    }

    #[test]
    fn reads_block_on_empty_queue() {
        let mut r = replicator([2, 2]);
        assert_eq!(r.try_read(0, TimeNs::ZERO), ReadOutcome::Blocked);
        assert_eq!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Blocked);
    }

    #[test]
    fn space_accounting_matches_paper_variables() {
        let mut r = replicator([2, 3]);
        assert_eq!((r.space(0), r.space(1)), (2, 3));
        r.try_write(0, tok(0), TimeNs::ZERO);
        assert_eq!((r.space(0), r.space(1)), (1, 2));
        r.try_read(0, TimeNs::ZERO);
        assert_eq!((r.space(0), r.space(1)), (2, 2));
    }

    #[test]
    fn state_footprint_is_small() {
        // The paper reports ~1.5 KB replicator overhead (excluding tokens);
        // our bookkeeping is well under that.
        assert!(
            Replicator::state_bytes() < 1536,
            "{}",
            Replicator::state_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "single write interface")]
    fn write_iface_1_rejected() {
        let mut r = replicator([2, 2]);
        let _ = r.try_write(1, tok(0), TimeNs::ZERO);
    }
}
