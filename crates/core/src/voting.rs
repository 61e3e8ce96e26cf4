//! Value-voting selector: n-modular redundancy over token *values*.
//!
//! The paper's selector arbitrates purely on *timing* — first token of each
//! duplicate group wins — which is sound under the fail-silent assumption
//! that a faulty replica never emits a wrong value. Silent data corruption
//! breaks that assumption: a replica that keeps perfect pace while flipping
//! payload bits sails straight through every counter-based detector. The
//! [`VotingSelector`] closes the gap, in the spirit of replay/value
//! comparison schemes (RepTFD; FlexStep): it majority-votes on the FNV
//! digest of each duplicate group's payloads, delivers the first token of
//! the winning digest, and latches any replica whose vote disagrees with
//! the decided majority as *value-faulty*.
//!
//! Timing detection is retained unchanged (the divergence-`D` and stall
//! rules of the [`NSelector`](crate::NSelector)), so a fail-stopped replica
//! is still latched and cannot starve the quorum: with `n` replicas the
//! quorum is a fixed majority `⌊n/2⌋ + 1`, so up to `⌈n/2⌉ − 1` faulty
//! replicas — timing- or value-faulty, in any mix — are tolerated.
//!
//! The cost relative to the timing selector is delivery latency: a group is
//! released only once a majority agrees, not on first arrival. The sizing
//! analysis still applies (the same virtual per-replica queues bound
//! buffering), but the consumer's initial delay must cover the slowest
//! *majority* replica rather than the fastest single one.

use crate::arbitration::{ArbFaultCause, ArbiterLedger, ComparePolicy, PolicySelector};
use crate::builder::{assemble, Assembly};
use crate::fault::FaultPlan;
use crate::nmodular::timing_ledger;
use rtft_kpn::{Network, Token, WriteOutcome};
use rtft_rtc::TimeNs;
use std::collections::BTreeMap;

/// Per-group voting state, kept until the group is decided, delivered, and
/// fully voted (or its stragglers latched).
#[derive(Debug)]
struct Group {
    /// Digest voted by each interface, in arrival order per interface.
    votes: Vec<Option<u64>>,
    /// First token seen per distinct digest (the delivery candidate).
    candidates: Vec<(u64, Token)>,
    /// Majority digest, once a quorum agrees.
    decided: Option<u64>,
    /// `true` once the winning token was handed to the consumer queue.
    delivered: bool,
}

impl Group {
    fn new(n: usize) -> Self {
        Group {
            votes: vec![None; n],
            candidates: Vec::new(),
            decided: None,
            delivered: false,
        }
    }
}

/// The majority-vote [`ComparePolicy`]: interface `i`'s `k`-th write is
/// replica `i`'s vote for duplicate group `k`; a group is delivered (in
/// group order) once [`quorum`](MajorityVote::quorum) votes agree on a
/// payload digest, and votes that disagree with a decided majority latch
/// their replica value-faulty, whether they arrive before or after the
/// decision.
#[derive(Debug)]
pub struct MajorityVote {
    quorum: usize,
    groups: BTreeMap<u64, Group>,
    next_deliver: u64,
}

impl MajorityVote {
    /// A majority policy for `n` replicas (quorum `⌊n/2⌋ + 1`).
    pub fn for_replicas(n: usize) -> Self {
        MajorityVote {
            quorum: n / 2 + 1,
            groups: BTreeMap::new(),
            next_deliver: 0,
        }
    }

    /// The votes-agree quorum (`⌊n/2⌋ + 1`).
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Delivers decided groups in order and drops fully-voted state.
    fn flush(&mut self, ledger: &mut ArbiterLedger) -> bool {
        let mut delivered_any = false;
        while let Some(g) = self.groups.get_mut(&self.next_deliver) {
            let Some(winner) = g.decided else { break };
            if !g.delivered {
                let tok = g
                    .candidates
                    .iter()
                    .find(|(d, _)| *d == winner)
                    .map(|(_, t)| t.clone())
                    .expect("decided digest always has a candidate token");
                ledger.deliver(tok);
                g.delivered = true;
                delivered_any = true;
            }
            // Retire the group once every replica has voted or is latched —
            // later stragglers can no longer reference it (a latched
            // interface's writes are swallowed before voting).
            let complete = (0..ledger.replica_count())
                .all(|i| g.votes[i].is_some() || ledger.fault(i).is_some());
            if complete {
                self.groups.remove(&self.next_deliver);
                self.next_deliver += 1;
            } else {
                break;
            }
        }
        delivered_any
    }
}

impl ComparePolicy for MajorityVote {
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        now: TimeNs,
    ) -> WriteOutcome {
        let group = ledger.note_received(iface);
        let digest = token.payload.digest();
        let n = ledger.replica_count();
        let quorum = self.quorum;

        if group < self.next_deliver {
            // Straggler vote for a group already retired (its state was
            // dropped because this interface was latched at the time, or
            // the group completed). Count it as discarded.
            ledger.discard();
        } else {
            let g = self.groups.entry(group).or_insert_with(|| Group::new(n));
            g.votes[iface] = Some(digest);
            if !g.candidates.iter().any(|(d, _)| *d == digest) {
                g.candidates.push((digest, token));
            }
            match g.decided {
                Some(winner) => {
                    ledger.discard();
                    if digest != winner {
                        ledger.latch(iface, ArbFaultCause::ValueMismatch, Some(group), now);
                    }
                }
                None => {
                    let agree = g.votes.iter().flatten().filter(|d| **d == digest).count();
                    if agree >= quorum {
                        g.decided = Some(digest);
                        // Latch every earlier voter that disagreed with the
                        // now-decided majority.
                        let losers: Vec<usize> = g
                            .votes
                            .iter()
                            .enumerate()
                            .filter_map(|(i, v)| match v {
                                Some(d) if *d != digest => Some(i),
                                _ => None,
                            })
                            .collect();
                        for i in losers {
                            ledger.latch(i, ArbFaultCause::ValueMismatch, Some(group), now);
                        }
                    }
                }
            }
        }

        if self.flush(ledger) {
            WriteOutcome::Accepted
        } else {
            WriteOutcome::AcceptedDropped
        }
    }
}

/// N-way selector channel that majority-votes on token values: the
/// [`MajorityVote`] policy over the shared
/// [`ArbiterLedger`](crate::arbitration::ArbiterLedger). Timing detection
/// (divergence / stall) is inherited from the ledger unchanged.
pub type VotingSelector = PolicySelector<MajorityVote>;

impl VotingSelector {
    /// Creates a voting selector with per-replica virtual capacities and
    /// timing divergence threshold `d` (stall slack `d − 1`).
    ///
    /// # Panics
    ///
    /// Panics on fewer than three interfaces (majority voting needs a
    /// tie-breaker), a zero capacity, or `d == 0`.
    pub fn new(name: impl Into<String>, capacity: Vec<usize>, d: u64) -> Self {
        assert!(
            capacity.len() >= 3,
            "value voting needs at least three replicas"
        );
        let policy = MajorityVote::for_replicas(capacity.len());
        PolicySelector::from_parts(timing_ledger(name, capacity, d), policy)
    }

    /// The votes-agree quorum (`⌊n/2⌋ + 1`).
    pub fn quorum(&self) -> usize {
        self.policy().quorum()
    }
}

/// Builds an n-modular network arbitrated by a [`VotingSelector`] instead
/// of the timing-only [`NSelector`](crate::NSelector): producer →
/// n-replicator → `n` replicas → voting selector → consumer.
///
/// Uses the same sizing as [`build_n_modular`](crate::build_n_modular);
/// the returned [`NModularIds`](crate::NModularIds)'s `selector` channel
/// downcasts to [`VotingSelector`].
///
/// # Panics
///
/// Panics if `faults.len() != model.replicas.len()` or fewer than three
/// replicas are configured.
pub fn build_n_modular_voting(
    model: &crate::NModularModel,
    sizing: &crate::NSizingReport,
    token_count: u64,
    seeds: (u64, u64),
    payload: crate::PayloadGenerator,
    factory: &dyn crate::ReplicaFactory,
    faults: &[FaultPlan],
) -> (Network, crate::NModularIds) {
    assert!(
        model.replicas.len() >= 3,
        "value voting needs at least three replicas"
    );
    assert_eq!(
        faults.len(),
        model.replicas.len(),
        "one fault plan per replica"
    );
    assemble(Assembly {
        replicator: Box::new(sizing.replicator()),
        selector: Box::new(VotingSelector::new(
            "voting-selector",
            sizing.selector_capacities(),
            sizing.threshold,
        )),
        producer: model.producer,
        consumer: model.consumer,
        token_count: Some(token_count),
        seeds,
        payload,
        factory,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptionMode, FaultPlan};
    // The pass-through stage + shaper factory and tri-replica model of the
    // timing-selector tests, so the end-to-end digest equals the
    // producer's payload digest.
    use crate::nmodular::tests::{tri_model, TriReplica};
    use crate::{ArbFault, NSizingReport};
    use rtft_kpn::{ChannelBehavior, Engine, Payload, ReadOutcome};
    use std::sync::Arc;

    fn tok(seq: u64, payload: Payload) -> Token {
        Token::new(seq, TimeNs::ZERO, payload)
    }

    #[test]
    fn majority_delivers_and_latches_minority() {
        let mut s = VotingSelector::new("v", vec![4, 4, 4], 3);
        // Group 0: replica 1 votes a corrupted value first, then the two
        // healthy replicas agree — the group is decided on their digest and
        // replica 1 is latched retroactively.
        assert_eq!(
            s.try_write(1, tok(0, Payload::U64(99)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(0, tok(0, Payload::U64(7)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(2, tok(0, Payload::U64(7)), TimeNs::from_ms(1)),
            WriteOutcome::Accepted
        );
        let f = s.fault(1).expect("mismatching replica latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
        assert_eq!(f.group, Some(0));
        assert_eq!(f.at, TimeNs::from_ms(1));
        assert!(s.fault(0).is_none() && s.fault(2).is_none());
        match s.try_read(0, TimeNs::from_ms(2)) {
            ReadOutcome::Token(t) => assert_eq!(t.payload, Payload::U64(7)),
            other => panic!("expected the majority token, got {other:?}"),
        }
        assert_eq!(s.enqueued(), 1);
    }

    #[test]
    fn shared_buffer_votes_agree_and_a_flipped_copy_still_latches() {
        // Tri-voting over one 10 KB buffer: the three votes and the
        // delivered token are clones, hashed once between them. A replica
        // that corrupts builds its own buffer, which hashes its own bytes.
        let buf = rtft_kpn::Bytes::from((0..10_240).map(|i| i as u8).collect::<Vec<u8>>());
        let vote = |seq| tok(seq, Payload::Bytes(buf.clone()));
        let mut s = VotingSelector::new("v", vec![4, 4, 4], 3);
        assert_eq!(
            s.try_write(0, vote(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(1, vote(0), TimeNs::ZERO),
            WriteOutcome::Accepted
        );
        assert_eq!(
            s.try_write(2, vote(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert!((0..3).all(|i| s.fault(i).is_none()));
        match s.try_read(0, TimeNs::from_ms(1)) {
            ReadOutcome::Token(t) => {
                assert_eq!(t.payload.digest(), rtft_kpn::digest_bytes(&buf));
                assert_eq!(t.payload.as_bytes().unwrap().as_ptr(), buf.as_ptr());
            }
            other => panic!("expected the agreed token, got {other:?}"),
        }

        let flipped = CorruptionMode::BitFlip(81_919).apply(&Payload::Bytes(buf.clone()));
        assert_ne!(flipped.digest(), buf.digest());
        s.try_write(0, vote(1), TimeNs::from_ms(2));
        s.try_write(1, vote(1), TimeNs::from_ms(2));
        s.try_write(2, tok(1, flipped), TimeNs::from_ms(3));
        let f = s.fault(2).expect("the flipped buffer's replica is latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
        assert_eq!(f.group, Some(1));
        assert!(s.fault(0).is_none() && s.fault(1).is_none());
    }

    #[test]
    fn late_mismatching_vote_latches_after_decision() {
        let mut s = VotingSelector::new("v", vec![4, 4, 4], 3);
        assert_eq!(
            s.try_write(0, tok(0, Payload::U64(7)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        // Quorum of 2 decides the group…
        assert_eq!(
            s.try_write(1, tok(0, Payload::U64(7)), TimeNs::ZERO),
            WriteOutcome::Accepted
        );
        // …and the straggler's disagreeing vote latches it.
        assert_eq!(
            s.try_write(2, tok(0, Payload::U64(8)), TimeNs::from_ms(5)),
            WriteOutcome::AcceptedDropped
        );
        let f = s.fault(2).expect("late mismatch latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
        assert_eq!(f.group, Some(0));
    }

    #[test]
    fn groups_deliver_in_order_even_when_decided_out_of_order() {
        let mut s = VotingSelector::new("v", vec![8, 8, 8], 5);
        // Replica 0 is corrupt: group 0 gets votes 9 (corrupt) and 7 — no
        // quorum yet. Group 1 reaches quorum first via replicas 0? No:
        // replica votes are sequential per interface, so build the skew
        // with replicas 1 and 2 racing ahead.
        assert_eq!(
            s.try_write(1, tok(0, Payload::U64(7)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(2, tok(0, Payload::U64(9)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        // Group 1 decided by replicas 1 and 2 before group 0 has a quorum.
        assert_eq!(
            s.try_write(1, tok(1, Payload::U64(17)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(2, tok(1, Payload::U64(17)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped,
            "group 1 decided but must not overtake undecided group 0"
        );
        assert!(matches!(s.try_read(0, TimeNs::ZERO), ReadOutcome::Blocked));
        // Replica 0's group-0 vote breaks the tie → both groups flush, in
        // order.
        assert_eq!(
            s.try_write(0, tok(0, Payload::U64(7)), TimeNs::from_ms(1)),
            WriteOutcome::Accepted
        );
        let seqs: Vec<u64> = std::iter::from_fn(|| match s.try_read(0, TimeNs::from_ms(2)) {
            ReadOutcome::Token(t) => Some(t.payload.as_u64().unwrap()),
            ReadOutcome::Blocked => None,
        })
        .collect();
        assert_eq!(seqs, vec![7, 17]);
        // Replica 2's lone group-0 vote (9) lost to the majority.
        let f = s.fault(2).expect("group-0 minority latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
    }

    #[test]
    fn latched_replica_writes_are_swallowed() {
        let mut s = VotingSelector::new("v", vec![2, 2, 2], 2);
        assert_eq!(
            s.try_write(0, tok(0, Payload::U64(1)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(1, tok(0, Payload::U64(2)), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(2, tok(0, Payload::U64(1)), TimeNs::ZERO),
            WriteOutcome::Accepted
        );
        assert!(s.fault(1).is_some());
        // The latched replica can spam writes without blocking anything.
        for k in 1..10 {
            assert_eq!(
                s.try_write(1, tok(k, Payload::U64(0)), TimeNs::ZERO),
                WriteOutcome::AcceptedDropped
            );
        }
        assert_eq!(s.healthy_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least three replicas")]
    fn two_way_voting_rejected() {
        let _ = VotingSelector::new("v", vec![2, 2], 2);
    }

    fn run_voting(faults: Vec<FaultPlan>) -> (Vec<(TimeNs, u64)>, Vec<Option<ArbFault>>) {
        let model = tri_model();
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = TriReplica {
            models: model.replicas.clone(),
        };
        let tokens = 150u64;
        let (net, ids) = build_n_modular_voting(
            &model,
            &sizing,
            tokens,
            (1, 2),
            Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9))),
            &factory,
            &faults,
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();
        let arrivals = ids.consumer_arrivals(net).to_vec();
        let sel = net
            .channel_as::<VotingSelector>(ids.selector)
            .expect("voting selector");
        let faults = (0..3).map(|i| sel.fault(i)).collect();
        (arrivals, faults)
    }

    #[test]
    fn fault_free_voting_delivers_everything_once() {
        let (arrivals, faults) = run_voting(vec![FaultPlan::healthy(); 3]);
        assert_eq!(arrivals.len(), 150);
        assert!(faults.iter().all(|f| f.is_none()), "no false positives");
        // Every delivered digest matches the producer's payload.
        for (i, (_, digest)) in arrivals.iter().enumerate() {
            let expect = Payload::U64((i as u64).wrapping_mul(0x9e37_79b9)).digest();
            assert_eq!(*digest, expect, "token {i}");
        }
    }

    #[test]
    fn corrupt_replica_is_latched_and_masked() {
        let (arrivals, faults) = run_voting(vec![
            FaultPlan::corrupt_at(CorruptionMode::BitFlip(12), TimeNs::from_secs(1)),
            FaultPlan::healthy(),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals.len(), 150, "corruption fully masked");
        let f = faults[0].expect("corrupt replica latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
        assert!(f.at >= TimeNs::from_secs(1));
        assert!(faults[1].is_none() && faults[2].is_none());
        // Every delivered value is the *correct* one.
        for (i, (_, digest)) in arrivals.iter().enumerate() {
            let expect = Payload::U64((i as u64).wrapping_mul(0x9e37_79b9)).digest();
            assert_eq!(*digest, expect, "token {i}");
        }
    }

    #[test]
    fn fail_stop_under_voting_is_latched_by_timing_rules() {
        let (arrivals, faults) = run_voting(vec![
            FaultPlan::healthy(),
            FaultPlan::fail_stop_at(TimeNs::from_secs(2)),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals.len(), 150, "2-of-3 quorum still delivers");
        let f = faults[1].expect("dead replica latched");
        assert_eq!(f.cause, ArbFaultCause::Divergence);
    }
}
