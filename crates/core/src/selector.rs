//! The selector channel (paper §3.1 and §3.3).
//!
//! A selector merges the two replicas' output streams back into a single
//! consumer stream. It has **two write interfaces** (the replicas) and
//! **one read interface** (the consumer), but only **one physical FIFO** of
//! size `max(|S₁|, |S₂|)` plus two *virtual queues* realised as the
//! `space₁`/`space₂` counters (§3.1 selector rules 1–3):
//!
//! * a read pops the FIFO, decrements `fill`, increments *both* spaces;
//! * a write on interface `i` blocks iff `space_i == 0`; otherwise, if
//!   `space_i ≤ space_j` the token is the **first of its duplicate pair**
//!   and is enqueued, else it is the late duplicate and is discarded —
//!   either way `space_i` is decremented.
//!
//! Lemma 1 (replica isolation) is structural here: interface `j` never
//! touches `space_i`, so back-pressure on one replica cannot be caused by
//! the other.
//!
//! Fault detection (§3.3) adds two clock-free rules:
//!
//! * **stall** — replica `i` is faulty when `space_i` exceeds
//!   `|S_i| + (D − 1)`. (The paper states the bound as `space_i > |S_i|`;
//!   fault-free runs can legitimately reach `|S_i| + D − 1` because the
//!   consumer may drain tokens the *other* replica supplied first, so we
//!   add the divergence slack to keep the no-false-positive guarantee —
//!   see DESIGN.md.)
//! * **divergence** — when the difference in tokens received over the two
//!   interfaces reaches `D` (eq. (5)), the replica that is behind is
//!   faulty.
//!
//! After a latch the healthy interface feeds the FIFO alone, and writes
//! arriving from the latched replica are accepted-and-discarded so a
//! limping replica cannot block.
//!
//! All of that is the n-replica machinery of [`arbitration`](crate::arbitration)
//! at n = 2: the counters and both detectors live in the shared
//! [`ArbiterLedger`], the first-of-pair decision is [`FirstOfGroup`]'s
//! (made on the received-token counters — the paper's `space_1 ≤ space_2`
//! comparison normalised by the virtual-queue capacities; for asymmetric
//! capacities the raw space comparison loses tokens after a leader fault,
//! see DESIGN.md §5), and [`Selector`] is `PolicySelector<PaperPair>`. The
//! one thing the paper's pair has that the n-replica rule lacks is the
//! single physical FIFO, and that is all [`PaperPair`] adds.

use crate::arbitration::{ArbiterLedger, ComparePolicy, FirstOfGroup, Latches, PolicySelector};
use rtft_kpn::{Token, WriteOutcome};
use rtft_rtc::TimeNs;

/// Configuration of a [`Selector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectorConfig {
    /// Virtual-queue capacities `|S₁|, |S₂|`.
    pub capacity: [usize; 2],
    /// Divergence threshold `D` (eq. (5)); `None` disables the divergence
    /// detector.
    pub divergence_threshold: Option<u64>,
    /// Stall slack: replica `i` is flagged when
    /// `space_i > |S_i| + stall_slack`. `None` disables the stall detector.
    /// The no-false-positive choice is `D − 1` (see module docs).
    pub stall_slack: Option<u64>,
}

impl SelectorConfig {
    /// Detection-enabled configuration with divergence threshold `d` and
    /// the matching no-false-positive stall slack `d − 1`.
    pub fn new(capacity: [usize; 2], d: u64) -> Self {
        SelectorConfig {
            capacity,
            divergence_threshold: Some(d),
            stall_slack: Some(d.saturating_sub(1)),
        }
    }

    /// Stall detection only (§3.3 "first method" ablation).
    pub fn stall_only(capacity: [usize; 2], slack: u64) -> Self {
        SelectorConfig {
            capacity,
            divergence_threshold: None,
            stall_slack: Some(slack),
        }
    }

    /// Disables all fault detection (ablation: bare §3.1 semantics).
    pub fn without_detection(capacity: [usize; 2]) -> Self {
        SelectorConfig {
            capacity,
            divergence_threshold: None,
            stall_slack: None,
        }
    }

    /// Disables only the stall detector (ablation E9).
    pub fn without_stall_detection(mut self) -> Self {
        self.stall_slack = None;
        self
    }
}

/// The paper's two-replica arbitration: [`FirstOfGroup`]'s first-of-pair
/// decision over the single physical FIFO of §3.1 selector rule 1.
///
/// While both replicas are healthy a write is flow-controlled by its own
/// virtual queue (`space_i > 0`), exactly as in the n-replica selectors.
/// Once one replica is latched the survivor is the sole writer of the
/// physical FIFO and is admitted until *that* is full —
/// `max(|S₁|, |S₂|)` tokens — rather than at its own `|S_i|`. The two
/// rules coincide for symmetric capacities.
#[derive(Debug, Default, Clone, Copy)]
pub struct PaperPair;

impl ComparePolicy for PaperPair {
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        now: TimeNs,
    ) -> WriteOutcome {
        FirstOfGroup.arbitrate(ledger, iface, token, now)
    }

    fn admits(&self, ledger: &ArbiterLedger, iface: usize) -> bool {
        if ledger.latches.healthy_count() == 1 {
            ledger.fill() < ledger.physical_capacity()
        } else {
            ledger.space(iface) > 0
        }
    }
}

/// The selector channel state machine: the [`PaperPair`] policy over the
/// shared [`ArbiterLedger`].
///
/// # Examples
///
/// ```
/// use rtft_core::{Selector, SelectorConfig};
/// use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};
/// use rtft_rtc::TimeNs;
///
/// let mut s = Selector::new("sel", SelectorConfig::new([4, 4], 3));
/// let t0 = TimeNs::ZERO;
/// let tok = |seq| Token::new(seq, t0, Payload::U64(seq));
/// // Replica 0 delivers first: enqueued. Replica 1's duplicate: discarded.
/// assert_eq!(s.try_write(0, tok(0), t0), WriteOutcome::Accepted);
/// assert_eq!(s.try_write(1, tok(0), t0), WriteOutcome::AcceptedDropped);
/// // The consumer sees the pair exactly once.
/// assert!(matches!(s.try_read(0, t0), ReadOutcome::Token(t) if t.seq == 0));
/// assert_eq!(s.try_read(0, t0), ReadOutcome::Blocked);
/// ```
pub type Selector = PolicySelector<PaperPair>;

impl Selector {
    /// Creates a selector; the physical FIFO capacity is
    /// `max(|S₁|, |S₂|)` per §3.1 selector rule 1.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(name: impl Into<String>, config: SelectorConfig) -> Self {
        PolicySelector::from_parts(
            ArbiterLedger::new(
                name,
                config.capacity.to_vec(),
                config.divergence_threshold,
                config.stall_slack,
            ),
            PaperPair,
        )
    }

    /// `true` if replica `i` is latched faulty.
    pub fn is_faulty(&self, i: usize) -> bool {
        self.fault(i).is_some()
    }

    /// Current `space_i` counter. It exceeds `|S_i|` while a replica
    /// stalls, which is exactly what the stall detector watches.
    pub fn space(&self, i: usize) -> i64 {
        self.ledger().space(i)
    }

    /// Tokens received over interface `i` so far.
    pub fn received(&self, i: usize) -> u64 {
        self.ledger().received(i)
    }

    /// Successful consumer reads so far.
    pub fn reads(&self) -> u64 {
        self.ledger().reads()
    }

    /// Bytes of framework state (fault-detection bookkeeping), excluding
    /// token storage — the paper's Table 2 memory-overhead convention: the
    /// channel struct plus the two replicas' heap-side book rows.
    pub fn state_bytes() -> usize {
        std::mem::size_of::<Selector>() + 2 * Latches::ROW_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArbFaultCause;
    use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome};

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::from_ms(seq), Payload::U64(seq))
    }

    fn selector(caps: [usize; 2], d: u64) -> Selector {
        Selector::new("s", SelectorConfig::new(caps, d))
    }

    #[test]
    fn first_of_pair_wins_either_order() {
        // Replica 0 first for pair 0; replica 1 first for pair 1.
        let mut s = selector([4, 4], 3);
        let t = TimeNs::ZERO;
        assert_eq!(s.try_write(0, tok(0), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(1, tok(0), t), WriteOutcome::AcceptedDropped);
        assert_eq!(s.try_write(1, tok(1), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(1), t), WriteOutcome::AcceptedDropped);
        let seqs: Vec<u64> = (0..2)
            .map(|_| match s.try_read(0, t) {
                ReadOutcome::Token(t) => t.seq,
                ReadOutcome::Blocked => panic!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(s.enqueued(), 2);
        assert_eq!(s.discarded(), 2);
    }

    #[test]
    fn lemma1_isolation_interface_j_never_touches_space_i() {
        let mut s = selector([4, 4], 10);
        let before = s.space(0);
        for seq in 0..3 {
            s.try_write(1, tok(seq), TimeNs::ZERO);
        }
        assert_eq!(
            s.space(0),
            before,
            "writes on interface 1 must not change space_0"
        );
    }

    #[test]
    fn write_blocks_when_virtual_queue_full() {
        let mut s = selector([2, 4], 10);
        assert_eq!(s.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(1), TimeNs::ZERO), WriteOutcome::Accepted);
        // space_0 exhausted, consumer hasn't read.
        assert!(matches!(
            s.try_write(0, tok(2), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        // A read frees one slot.
        assert!(matches!(s.try_read(0, TimeNs::ZERO), ReadOutcome::Token(_)));
        assert_eq!(s.try_write(0, tok(2), TimeNs::ZERO), WriteOutcome::Accepted);
    }

    #[test]
    fn divergence_latches_the_lagging_replica() {
        let mut s = selector([8, 8], 3);
        // Replica 0 delivers 3 tokens; replica 1 none → divergence hits 3.
        s.try_write(0, tok(0), TimeNs::from_ms(1));
        s.try_write(0, tok(1), TimeNs::from_ms(2));
        assert!(!s.is_faulty(1));
        s.try_write(0, tok(2), TimeNs::from_ms(3));
        let f = s.fault(1).expect("latched");
        assert_eq!(f.cause, ArbFaultCause::Divergence);
        assert_eq!(f.at, TimeNs::from_ms(3));
        assert!(!s.is_faulty(0));
    }

    #[test]
    fn post_fault_healthy_replica_feeds_alone() {
        let mut s = selector([4, 4], 2);
        s.try_write(0, tok(0), TimeNs::ZERO);
        s.try_write(0, tok(1), TimeNs::ZERO); // divergence 2 → replica 1 latched
        assert!(s.is_faulty(1));
        // Healthy replica keeps enqueueing every token (no pair logic).
        assert_eq!(s.try_write(0, tok(2), TimeNs::ZERO), WriteOutcome::Accepted);
        // Latched replica's stragglers are swallowed.
        assert_eq!(
            s.try_write(1, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        // Consumer sees the full sequence once.
        let mut seqs = Vec::new();
        while let ReadOutcome::Token(t) = s.try_read(0, TimeNs::ZERO) {
            seqs.push(t.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn sole_survivor_is_admitted_until_the_physical_fifo_is_full() {
        // MJPEG-shaped capacities: |S_1| = 4, |S_2| = 6, one physical FIFO
        // of 6. Replica 1 never writes and is latched by divergence.
        let mut s = selector([4, 6], 2);
        for seq in 0..4 {
            assert_eq!(
                s.try_write(0, tok(seq), TimeNs::ZERO),
                WriteOutcome::Accepted
            );
        }
        assert!(s.is_faulty(1));
        // While both were healthy replica 0 would block here (space_0 = 0);
        // as the sole writer it owns the whole FIFO.
        assert_eq!(s.space(0), 0);
        assert_eq!(s.try_write(0, tok(4), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(5), TimeNs::ZERO), WriteOutcome::Accepted);
        assert!(matches!(
            s.try_write(0, tok(6), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        assert_eq!(s.fill(0), 6);
    }

    #[test]
    fn stall_detector_fires_without_divergence_detector() {
        // Pure §3.3 "first method": divergence detection off, stall slack 2.
        let mut s = Selector::new("s", SelectorConfig::stall_only([2, 2], 2));
        // Replica 1 is dead; replica 0 supplies, consumer drains.
        // space_1 = 2 − 0 + reads; threshold: space_1 > |S_1| + 2 = 4,
        // i.e. the 3rd read flags replica 1.
        for seq in 0..3u64 {
            assert_eq!(
                s.try_write(0, tok(seq), TimeNs::from_ms(seq)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                s.try_read(0, TimeNs::from_ms(10 + seq)),
                ReadOutcome::Token(_)
            ));
        }
        let f = s.fault(1).expect("replica 1 flagged by stall rule");
        assert_eq!(f.cause, ArbFaultCause::Stall);
        assert_eq!(f.at, TimeNs::from_ms(12));
        assert!(!s.is_faulty(0));
    }

    #[test]
    fn stall_slack_prevents_false_positive_from_pair_skew() {
        // Fault-free skew: replica 0 leads each pair by up to D−1 = 2.
        // With the paper's bare rule (slack 0) replica 1 would be flagged;
        // with slack D−1 it is not.
        let mut s = selector([4, 4], 3);
        for seq in 0..20u64 {
            // Replica 0 delivers pairs seq and seq+1 before replica 1
            // catches up on pair seq (skew ≤ 2 < D).
            assert_eq!(
                s.try_write(0, tok(seq), TimeNs::from_ms(seq)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                s.try_read(0, TimeNs::from_ms(seq)),
                ReadOutcome::Token(_)
            ));
            if seq >= 1 {
                assert_eq!(
                    s.try_write(1, tok(seq - 1), TimeNs::from_ms(seq)),
                    WriteOutcome::AcceptedDropped
                );
            }
        }
        assert!(
            !s.is_faulty(0) && !s.is_faulty(1),
            "skew within D must not latch"
        );
    }

    #[test]
    fn no_detection_config_never_latches() {
        let mut s = Selector::new("s", SelectorConfig::without_detection([2, 2]));
        for seq in 0..2u64 {
            s.try_write(0, tok(seq), TimeNs::ZERO);
            let _ = s.try_read(0, TimeNs::ZERO);
        }
        // Replica 0 far ahead, replica 1 silent: still no latch.
        assert!(!s.is_faulty(0) && !s.is_faulty(1));
        // And the bare semantics block once space_0 runs out… space_0 was
        // replenished by reads here, so exhaust it:
        s.try_write(0, tok(2), TimeNs::ZERO);
        s.try_write(0, tok(3), TimeNs::ZERO);
        assert!(matches!(
            s.try_write(0, tok(4), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
    }

    #[test]
    fn read_blocks_on_empty() {
        let mut s = selector([2, 2], 2);
        assert_eq!(s.try_read(0, TimeNs::ZERO), ReadOutcome::Blocked);
    }

    #[test]
    fn only_one_replica_ever_latched() {
        let mut s = selector([8, 8], 2);
        s.try_write(0, tok(0), TimeNs::ZERO);
        s.try_write(0, tok(1), TimeNs::ZERO);
        assert!(s.is_faulty(1));
        // Even if replica 0 now stalls and replica 1 recovers, the single-
        // fault model keeps the first latch (the system is in failover).
        for _ in 0..20 {
            s.try_write(1, tok(99), TimeNs::ZERO);
        }
        assert!(!s.is_faulty(0));
        assert!(s.is_faulty(1));
    }

    #[test]
    fn state_footprint_is_small() {
        // The paper reports ~2.1 KB selector overhead (excluding tokens).
        assert!(
            Selector::state_bytes() < 2100,
            "{}",
            Selector::state_bytes()
        );
    }

    #[test]
    fn timestamps_flow_through_untouched() {
        let mut s = selector([4, 4], 3);
        let t = Token::new(0, TimeNs::from_ms(123), Payload::Empty);
        s.try_write(0, t, TimeNs::from_ms(200));
        match s.try_read(0, TimeNs::from_ms(201)) {
            ReadOutcome::Token(t) => assert_eq!(t.produced_at, TimeNs::from_ms(123)),
            ReadOutcome::Blocked => panic!(),
        }
    }
}
