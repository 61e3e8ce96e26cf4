//! The one arbitration stack: *compare policy* × *replica count*.
//!
//! The paper's selector fuses two orthogonal concerns: **how many** replica
//! streams it merges, and **how** it decides which token of each duplicate
//! group reaches the consumer. This module pulls the two apart, and every
//! selector in the crate — the paper's two-replica one included — is an
//! instantiation of it:
//!
//! * [`ArbiterLedger`] — the replica-count-generic counter state: one
//!   virtual queue per replica, the eq. (5) divergence latch, the §3.3
//!   stall latch, and the delivery queue. It never looks at token *values*.
//! * [`ComparePolicy`] — the pluggable arbitration rule. A policy sees each
//!   healthy replica's next token together with the ledger and decides what
//!   to admit, deliver and discard, and which replicas to latch for
//!   value-level disagreement:
//!   - [`FirstOfGroup`] — the paper's timing arbitration (first of each
//!     duplicate group wins), used by `NSelector`;
//!   - [`PaperPair`](crate::PaperPair) — the same decision over the paper's
//!     single physical FIFO of size `max(|S₁|, |S₂|)` (§3.1), used by
//!     `Selector`;
//!   - `MajorityVote` (in [`voting`](crate::voting)) — digest quorum per
//!     group, used by `VotingSelector`;
//!   - `SampledCheck` (in [`hetero`](crate::hetero)) — full-rate main
//!     stream spot-checked every `k`-th token by a trusted checker, used by
//!     `HeteroSelector`.
//! * [`PolicySelector`] — the single selector channel, parameterised by
//!   the policy. `Selector`, `NSelector`, `VotingSelector` and
//!   `HeteroSelector` are type aliases of its instantiations.
//!
//! Every latch, at a selector or a replicator, is one [`ArbFault`]; the
//! channels are read back uniformly through [`Arbiter`].

use crate::obs::DetectionObs;
use rtft_kpn::{ChannelBehavior, ReadOutcome, Token, WriteOutcome};
use rtft_obs::DetectionSite;
use rtft_rtc::TimeNs;
use std::any::Any;
use std::collections::VecDeque;

/// Which detection rule latched a replica, at either arbitration channel
/// and under every compare policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbFaultCause {
    /// The replica's token count fell `D` behind the healthy front-runner
    /// (eq. (5)): tokens *received* at a selector, tokens *consumed* at a
    /// replicator.
    Divergence,
    /// Selector virtual-queue space overran capacity plus the stall slack
    /// (§3.3): the replica stalled while the consumer kept draining.
    Stall,
    /// A producer write found the replica's replicator queue full (§3.3
    /// overflow rule): the replica stopped consuming.
    Overflow,
    /// The replica's token value disagreed with the policy's verdict
    /// (majority digest, or the trusted checker's recomputation).
    ValueMismatch,
}

impl ArbFaultCause {
    /// The `rtft-obs` site of a latch with this cause — the one
    /// cause → [`DetectionSite`] table. `at_replicator` tells the two
    /// divergence detectors apart; a value mismatch is an arrival that
    /// disagrees, so it reports as the selector's divergence site.
    pub fn site(self, at_replicator: bool) -> DetectionSite {
        match self {
            ArbFaultCause::Overflow => DetectionSite::ReplicatorOverflow,
            ArbFaultCause::Divergence if at_replicator => DetectionSite::ReplicatorDivergence,
            ArbFaultCause::Stall => DetectionSite::SelectorStall,
            ArbFaultCause::Divergence | ArbFaultCause::ValueMismatch => {
                DetectionSite::SelectorDivergence
            }
        }
    }
}

/// A latched fault at an arbitration channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbFault {
    /// Time of the operation during which the fault was detected.
    pub at: TimeNs,
    /// Detection rule that fired.
    pub cause: ArbFaultCause,
    /// Duplicate-group index of the disagreeing value (value faults only).
    pub group: Option<u64>,
}

/// The compare-policy-agnostic counter state of a selector: per-replica
/// received counts and virtual capacities, the shared delivery queue, and
/// the two counter-based timing detectors of §3.3/eq. (5).
#[derive(Debug)]
pub struct ArbiterLedger {
    name: String,
    queue: VecDeque<Token>,
    replicas: Vec<ReplicaCounters>,
    healthy: usize,
    reads: u64,
    enqueued: u64,
    discarded: u64,
    max_fill: usize,
    divergence_threshold: Option<u64>,
    stall_slack: Option<u64>,
    obs: Option<DetectionObs>,
}

/// One replica's row of the ledger.
#[derive(Debug)]
struct ReplicaCounters {
    /// Virtual-queue capacity `|S_i|`.
    capacity: usize,
    /// Tokens received over this write interface.
    received: u64,
    fault: Option<ArbFault>,
}

impl ArbiterLedger {
    /// Creates a ledger with per-replica virtual capacities, the eq. (5)
    /// divergence threshold `D` and the §3.3 stall slack (`None` disables
    /// the respective detector). The no-false-positive pairing is
    /// `Some(d)`, `Some(d − 1)`; policies whose interfaces legally run at
    /// different rates (sampled checking) pass no stall slack, because the
    /// slow side's `space` counter grows without bound fault-free.
    ///
    /// # Panics
    ///
    /// Panics on an empty capacity list, a zero capacity, or a zero
    /// threshold.
    pub fn new(
        name: impl Into<String>,
        capacity: Vec<usize>,
        divergence_threshold: Option<u64>,
        stall_slack: Option<u64>,
    ) -> Self {
        assert!(!capacity.is_empty(), "need at least one replica interface");
        assert!(
            capacity.iter().all(|c| *c > 0),
            "capacities must be positive"
        );
        assert!(
            divergence_threshold != Some(0),
            "threshold must be positive"
        );
        let physical = capacity.iter().copied().max().unwrap_or(0);
        ArbiterLedger {
            name: name.into(),
            queue: VecDeque::with_capacity(physical),
            healthy: capacity.len(),
            replicas: capacity
                .into_iter()
                .map(|capacity| ReplicaCounters {
                    capacity,
                    received: 0,
                    fault: None,
                })
                .collect(),
            reads: 0,
            enqueued: 0,
            discarded: 0,
            max_fill: 0,
            divergence_threshold,
            stall_slack,
            obs: None,
        }
    }

    /// Bytes of per-replica counter state the ledger keeps on the heap
    /// (capacity, received count, latch record) — the part of a selector's
    /// footprint `size_of` does not see.
    pub(crate) const PER_REPLICA_BYTES: usize = std::mem::size_of::<ReplicaCounters>();

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of replica (write) interfaces.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Fault record of replica `i`, if latched.
    pub fn fault(&self, i: usize) -> Option<ArbFault> {
        self.replicas[i].fault
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.healthy
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.fault.map(|_| i))
    }

    /// Tokens delivered to the consumer so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Tokens consumed without delivery (duplicates, losing votes, latched
    /// writes) so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Consumer reads served so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Tokens received on interface `i` so far (the replica's next write is
    /// its entry for duplicate group `received(i)`).
    pub fn received(&self, i: usize) -> u64 {
        self.replicas[i].received
    }

    /// The divergence threshold `D` the ledger latches on, if enabled.
    pub fn threshold(&self) -> Option<u64> {
        self.divergence_threshold
    }

    /// The `space_i` counter (capacity − received + reads).
    pub fn space(&self, i: usize) -> i64 {
        let r = &self.replicas[i];
        r.capacity as i64 - r.received as i64 + self.reads as i64
    }

    /// Tokens waiting in the one physical consumer queue.
    pub fn fill(&self) -> usize {
        self.queue.len()
    }

    /// Size of the physical consumer queue: the largest virtual capacity
    /// (§3.1 selector rule 1).
    pub fn physical_capacity(&self) -> usize {
        self.replicas.iter().map(|r| r.capacity).max().unwrap_or(0)
    }

    /// Latches replica `i` (first cause wins; re-latching is a no-op).
    pub fn latch(&mut self, i: usize, cause: ArbFaultCause, group: Option<u64>, now: TimeNs) {
        if self.replicas[i].fault.is_none() {
            self.replicas[i].fault = Some(ArbFault {
                at: now,
                cause,
                group,
            });
            self.healthy -= 1;
            if let Some(obs) = &self.obs {
                obs.on_detection(i, cause.site(false), now);
            }
        }
    }

    /// Counts replica `i`'s next write and returns its duplicate-group
    /// index.
    pub fn note_received(&mut self, i: usize) -> u64 {
        let received = &mut self.replicas[i].received;
        *received += 1;
        *received - 1
    }

    /// Pushes a token onto the consumer queue.
    pub fn deliver(&mut self, token: Token) {
        self.queue.push_back(token);
        self.max_fill = self.max_fill.max(self.queue.len());
        self.enqueued += 1;
    }

    /// Counts a token that was consumed without delivery.
    pub fn discard(&mut self) {
        self.discarded += 1;
        if let Some(obs) = &self.obs {
            obs.on_duplicate_discarded();
        }
    }

    /// The eq. (5) divergence latch, run after `writer`'s write was
    /// counted: any healthy replica whose received count is `D` behind it.
    /// Only the writer's count moved, so only the writer can have opened a
    /// gap; the front-runner itself — and the last healthy replica — are
    /// never latched.
    pub fn check_divergence(&mut self, writer: usize, now: TimeNs) {
        let Some(d) = self.divergence_threshold else {
            return;
        };
        if self.replicas[writer].fault.is_some() {
            return;
        }
        let lead = self.replicas[writer].received;
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            if self.healthy > 1 && r.fault.is_none() && lead >= r.received + d {
                self.latch(i, ArbFaultCause::Divergence, None, now);
            }
        }
    }

    /// The §3.3 stall latch: any healthy replica whose virtual space
    /// overran its capacity plus the stall slack, i.e. for which the
    /// consumer has read more than `slack` tokens it never supplied.
    fn check_stall(&mut self, now: TimeNs) {
        let Some(slack) = self.stall_slack else {
            return;
        };
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            if self.healthy > 1 && r.fault.is_none() && self.reads > r.received + slack {
                self.latch(i, ArbFaultCause::Stall, None, now);
            }
        }
    }

    fn pop(&mut self, now: TimeNs) -> ReadOutcome {
        match self.queue.pop_front() {
            Some(t) => {
                self.reads += 1;
                self.check_stall(now);
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }
}

/// A pluggable group-arbitration rule over the [`ArbiterLedger`].
///
/// [`PolicySelector::try_write`] handles the policy-independent preamble
/// (latched-interface writes) and postlude (the divergence check); the
/// policy decides admission and everything value- and group-related in
/// between.
pub trait ComparePolicy: std::fmt::Debug + Send + 'static {
    /// Arbitrates one healthy, admitted write: count it via
    /// [`ArbiterLedger::note_received`], then deliver / discard / latch.
    /// Returns `Accepted` iff the write caused at least one delivery.
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        now: TimeNs,
    ) -> WriteOutcome;

    /// A write on an already-latched interface. The default swallows it so
    /// a limping replica can never block the network.
    fn latched_write(
        &mut self,
        ledger: &mut ArbiterLedger,
        _iface: usize,
        _token: Token,
        _now: TimeNs,
    ) -> WriteOutcome {
        ledger.discard();
        WriteOutcome::AcceptedDropped
    }

    /// The post-write divergence check. Policies whose interfaces legally
    /// run at different rates (sampled checking) override this with a
    /// rate-normalised rule.
    fn check_divergence(&mut self, ledger: &mut ArbiterLedger, iface: usize, now: TimeNs) {
        ledger.check_divergence(iface, now);
    }

    /// Flow control: whether a healthy interface's write is admitted now
    /// or blocks. The default is the virtual-queue rule (`space_i > 0`),
    /// which presumes the interface's tokens reach the consumer queue;
    /// policies with a never-delivered interface, or with a different
    /// reading of the physical queue, override it.
    fn admits(&self, ledger: &ArbiterLedger, iface: usize) -> bool {
        ledger.space(iface) > 0
    }
}

/// The paper's timing arbitration: the first token of each duplicate group
/// is delivered, late group members are discarded. Pure counter logic —
/// token values are never inspected.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstOfGroup;

impl ComparePolicy for FirstOfGroup {
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        _now: TimeNs,
    ) -> WriteOutcome {
        // One delivery per group, and the timing latches only ever take a
        // replica that is strictly behind, so `enqueued` is the healthy
        // front-runner's count: this token opens a new group iff its
        // interface has received as many tokens as were delivered.
        let first = ledger.received(iface) >= ledger.enqueued();
        ledger.note_received(iface);
        if first {
            ledger.deliver(token);
            WriteOutcome::Accepted
        } else {
            ledger.discard();
            WriteOutcome::AcceptedDropped
        }
    }
}

/// The one selector channel: an [`ArbiterLedger`] arbitrated by a
/// [`ComparePolicy`]. `Selector`, `NSelector`, `VotingSelector`, and
/// `HeteroSelector` are instantiation aliases.
#[derive(Debug)]
pub struct PolicySelector<P: ComparePolicy> {
    ledger: ArbiterLedger,
    policy: P,
}

impl<P: ComparePolicy> PolicySelector<P> {
    /// Assembles a selector from its ledger and policy.
    pub fn from_parts(ledger: ArbiterLedger, policy: P) -> Self {
        PolicySelector { ledger, policy }
    }

    /// Attaches observability: each fault latch is mirrored into the
    /// handles' [`HealthModel`](rtft_obs::HealthModel) and every token
    /// consumed without delivery bumps the discard counter. Detection
    /// semantics are unchanged — the latch stays the source of truth.
    pub fn attach_obs(&mut self, obs: DetectionObs) {
        self.ledger.obs = Some(obs);
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        self.ledger.name()
    }

    /// The shared counter ledger (read-only).
    pub fn ledger(&self) -> &ArbiterLedger {
        &self.ledger
    }

    /// The arbitration policy (read-only).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.ledger.healthy_count()
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ledger.faulty_indices()
    }

    /// Tokens delivered to the consumer so far.
    pub fn enqueued(&self) -> u64 {
        self.ledger.enqueued()
    }

    /// Tokens consumed without delivery so far.
    pub fn discarded(&self) -> u64 {
        self.ledger.discarded()
    }

    /// Fault record of replica `i`, if latched.
    pub fn fault(&self, i: usize) -> Option<ArbFault> {
        self.ledger.fault(i)
    }
}

impl<P: ComparePolicy> ChannelBehavior for PolicySelector<P> {
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        if self.ledger.fault(iface).is_some() {
            return self
                .policy
                .latched_write(&mut self.ledger, iface, token, now);
        }
        if !self.policy.admits(&self.ledger, iface) {
            return WriteOutcome::Blocked(token);
        }
        let outcome = self.policy.arbitrate(&mut self.ledger, iface, token, now);
        self.policy.check_divergence(&mut self.ledger, iface, now);
        outcome
    }

    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        assert_eq!(iface, 0, "selector has a single read interface");
        self.ledger.pop(now)
    }

    fn write_ifaces(&self) -> usize {
        self.ledger.replica_count()
    }

    fn read_ifaces(&self) -> usize {
        1
    }

    fn fill(&self, _iface: usize) -> usize {
        self.ledger.queue.len()
    }

    fn capacity(&self, iface: usize) -> usize {
        self.ledger.replicas[iface.min(self.ledger.replicas.len() - 1)].capacity
    }

    fn max_fill(&self, _iface: usize) -> usize {
        self.ledger.max_fill
    }

    fn debug_name(&self) -> Option<&str> {
        Some(self.ledger.name())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Uniform read-side introspection over every arbitration channel —
/// replicators and selectors of any structure. `rtft-fleet`'s `execute`,
/// the `rtft-chaos` scenario runner and the `rtft-bench` Table 2 campaign
/// read latches through this (via [`as_arbiter`]) instead of per-type
/// downcasts.
pub trait Arbiter {
    /// Number of replica-facing interfaces.
    fn replica_ifaces(&self) -> usize;

    /// Latch record of replica `i`.
    fn latched(&self, i: usize) -> Option<ArbFault>;

    /// Latch records of every replica, in interface order.
    fn latches(&self) -> Vec<Option<ArbFault>> {
        (0..self.replica_ifaces())
            .map(|i| self.latched(i))
            .collect()
    }

    /// Earliest latch instant over all replicas, if any latched.
    fn first_latch(&self) -> Option<TimeNs> {
        (0..self.replica_ifaces())
            .filter_map(|i| self.latched(i).map(|f| f.at))
            .min()
    }
}

impl<P: ComparePolicy> Arbiter for PolicySelector<P> {
    fn replica_ifaces(&self) -> usize {
        self.ledger.replica_count()
    }

    fn latched(&self, i: usize) -> Option<ArbFault> {
        self.ledger.fault(i)
    }
}

/// Views a network channel as an [`Arbiter`], if it is one of the crate's
/// arbitration channels (`None` for plain FIFOs and foreign channels).
pub fn as_arbiter(channel: &dyn ChannelBehavior) -> Option<&dyn Arbiter> {
    fn cast<T: Arbiter + 'static>(any: &dyn Any) -> Option<&dyn Arbiter> {
        any.downcast_ref::<T>().map(|c| c as &dyn Arbiter)
    }
    let any = channel.as_any();
    cast::<crate::Replicator>(any)
        .or_else(|| cast::<crate::Selector>(any))
        .or_else(|| cast::<crate::NSelector>(any))
        .or_else(|| cast::<crate::VotingSelector>(any))
        .or_else(|| cast::<crate::SampledReplicator>(any))
        .or_else(|| cast::<crate::HeteroSelector>(any))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::Payload;

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
    }

    fn timing(capacity: Vec<usize>, d: u64) -> PolicySelector<FirstOfGroup> {
        let ledger = ArbiterLedger::new("s", capacity, Some(d), Some(d - 1));
        PolicySelector::from_parts(ledger, FirstOfGroup)
    }

    #[test]
    fn ledger_counts_and_spaces() {
        let mut l = ArbiterLedger::new("l", vec![4, 6], Some(3), Some(2));
        assert_eq!(l.replica_count(), 2);
        assert_eq!(l.physical_capacity(), 6);
        assert_eq!(l.space(0), 4);
        assert_eq!(l.space(1), 6);
        assert_eq!(l.note_received(0), 0);
        assert_eq!(l.note_received(0), 1);
        assert_eq!(l.space(0), 2);
        l.deliver(tok(0));
        assert_eq!(l.enqueued(), 1);
        assert!(matches!(l.pop(TimeNs::ZERO), ReadOutcome::Token(_)));
        assert_eq!(l.space(0), 3, "reads open space back up");
    }

    #[test]
    fn first_of_group_delivers_once_per_group() {
        let mut s = timing(vec![4, 4], 2);
        assert_eq!(s.try_write(1, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(
            s.try_write(0, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(s.enqueued(), 1);
        assert_eq!(s.discarded(), 1);
    }

    #[test]
    fn divergence_latches_behind_replica_only() {
        let mut s = timing(vec![16, 16], 3);
        for g in 0..3 {
            s.try_write(0, tok(g), TimeNs::from_ms(g));
        }
        let f = s.fault(1).expect("stalled replica latched");
        assert_eq!(f.cause, ArbFaultCause::Divergence);
        assert_eq!(f.cause.site(false), DetectionSite::SelectorDivergence);
        assert!(s.fault(0).is_none(), "front-runner never latched");
        assert_eq!(s.healthy_count(), 1);
        // Arbiter-trait view agrees, also through the type-erased channel.
        let arb = as_arbiter(&s).expect("a selector is an arbiter");
        assert_eq!(arb.latches(), vec![None, Some(f)]);
        assert_eq!(arb.first_latch(), Some(TimeNs::from_ms(2)));
    }

    #[test]
    fn latched_writes_are_swallowed_by_default() {
        let mut s = timing(vec![16, 16], 2);
        for g in 0..2 {
            s.try_write(0, tok(g), TimeNs::ZERO);
        }
        assert!(s.fault(1).is_some());
        assert_eq!(
            s.try_write(1, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
    }
}
