//! The one arbitration stack: *compare policy* × *replica count*.
//!
//! The paper's selector fuses two orthogonal concerns: **how many** replica
//! streams it merges, and **how** it decides which token of each duplicate
//! group reaches the consumer. This module pulls the two apart, and every
//! selector in the crate — the paper's two-replica one included — is an
//! instantiation of it:
//!
//! * [`ArbiterLedger`] — the replica-count-generic counter state: one
//!   virtual queue per replica over the [`Latches`] book of received
//!   counts, the §3.3 stall latch, and the delivery queue. It never looks
//!   at token *values*.
//! * [`ComparePolicy`] — the pluggable arbitration rule. A policy sees each
//!   healthy replica's next token together with the ledger and decides what
//!   to admit, deliver and discard, and which replicas to latch for
//!   value-level disagreement:
//!   - [`FirstOfGroup`] — the paper's timing arbitration (first of each
//!     duplicate group wins), used by `NSelector`;
//!   - [`PaperPair`](crate::PaperPair) — the same decision over the paper's
//!     single physical FIFO of size `max(|S₁|, |S₂|)` (§3.1), used by
//!     `Selector`;
//!   - `MajorityVote` (in the private `voting` module) — digest quorum per
//!     group, used by `VotingSelector`;
//!   - `SampledCheck` (in [`hetero`](crate::hetero)) — full-rate main
//!     stream spot-checked every `k`-th token by a trusted checker, used by
//!     `HeteroSelector`.
//! * [`PolicySelector`] — the single selector channel, parameterised by
//!   the policy. `Selector`, `NSelector`, `VotingSelector` and
//!   `HeteroSelector` are type aliases of its instantiations.
//!
//! Every channel keeps its detector state in one [`Latches`] book:
//! per-replica counts and [`ArbFault`] latches, and the one eq. (5)
//! divergence rule. That is every selector and the one
//! [`Replicator`](crate::Replicator), whose book's stride is `1`, or `k`
//! for the sampled checker. [`as_arbiter`] reads it back uniformly.

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

/// The detector state of one arbitration channel, replicator or selector:
/// per replica interface a queue capacity, a token count and a latch, the
/// healthy count, and the eq. (5) rule "latch whoever is `D` behind"
/// (§3.3). Every channel keeps one; [`as_arbiter`] reads it back from a
/// type-erased channel.
///
/// The count is tokens *consumed* at a replicator and *received* at a
/// selector. A sampled checker's interface `0` carries every token and
/// interface `1` every `k`-th, so the divergence rule compares interface
/// `0` at `⌈count / k⌉` (`k = 1` everywhere else).
#[derive(Debug)]
pub struct Latches {
    rows: Vec<Row>,
    healthy: usize,
    threshold: Option<u64>,
    stride: u64,
    at_replicator: bool,
    obs: Option<DetectionObs>,
}

/// One replica interface's row of the book.
#[derive(Debug)]
struct Row {
    /// Queue capacity: `|R_i|` at a replicator, the virtual `|S_i|` at a
    /// selector.
    capacity: usize,
    count: u64,
    fault: Option<ArbFault>,
}

impl Latches {
    /// A book of healthy rows, one per queue capacity, with divergence
    /// threshold `D` (`None` disables the rule) and interface `0`'s sample
    /// stride.
    pub(crate) fn new(
        capacity: &[usize],
        threshold: Option<u64>,
        stride: u64,
        at_replicator: bool,
    ) -> Self {
        Latches {
            rows: capacity
                .iter()
                .map(|&capacity| Row {
                    capacity,
                    count: 0,
                    fault: None,
                })
                .collect(),
            healthy: capacity.len(),
            threshold,
            stride,
            at_replicator,
            obs: None,
        }
    }

    /// Bytes of one row on the heap (capacity, count and latch record).
    pub(crate) const ROW_BYTES: usize = std::mem::size_of::<Row>();

    /// Latch record of replica `i`.
    pub fn latched(&self, i: usize) -> Option<ArbFault> {
        self.rows[i].fault
    }

    /// Latch records of every replica, in interface order.
    pub fn latches(&self) -> Vec<Option<ArbFault>> {
        self.rows.iter().map(|r| r.fault).collect()
    }

    /// Earliest latch instant over all replicas, if any latched.
    pub fn first_latch(&self) -> Option<TimeNs> {
        self.rows.iter().filter_map(|r| r.fault.map(|f| f.at)).min()
    }

    /// Number of replicas still healthy.
    pub(crate) fn healthy_count(&self) -> usize {
        self.healthy
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub(crate) fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.fault.map(|_| i))
    }

    /// Tokens counted on interface `i` so far.
    pub(crate) fn count(&self, i: usize) -> u64 {
        self.rows[i].count
    }

    /// Queue capacity of interface `i`.
    pub(crate) fn capacity(&self, i: usize) -> usize {
        self.rows[i].capacity
    }

    /// Interface `0`'s sample stride.
    pub(crate) fn stride(&self) -> u64 {
        self.stride
    }

    /// Whether each row is unlatched, in interface order.
    pub(crate) fn healthy_rows(&self) -> impl Iterator<Item = bool> + '_ {
        self.rows.iter().map(|r| r.fault.is_none())
    }

    /// Mirrors every later latch into `obs`; the latch stays the source of
    /// truth.
    pub(crate) fn attach_obs(&mut self, obs: DetectionObs) {
        self.obs = Some(obs);
    }

    /// Counts interface `i`'s next token and returns its index.
    pub(crate) fn note(&mut self, i: usize) -> u64 {
        let count = &mut self.rows[i].count;
        *count += 1;
        *count - 1
    }

    /// Latches replica `i` (first cause wins; re-latching is a no-op).
    pub(crate) fn latch(
        &mut self,
        i: usize,
        cause: ArbFaultCause,
        group: Option<u64>,
        now: TimeNs,
    ) {
        if self.rows[i].fault.is_none() {
            self.rows[i].fault = Some(ArbFault {
                at: now,
                cause,
                group,
            });
            self.healthy -= 1;
            if let Some(obs) = &self.obs {
                obs.on_detection(i, cause.site(self.at_replicator), now);
            }
        }
    }

    /// The eq. (5) divergence latch, run after `mover`'s count moved: any
    /// healthy replica whose normalised count is `D` behind the mover's.
    /// Only the mover's count moved, by at most one, so only the mover can
    /// have opened a gap; the front-runner itself — and the last healthy
    /// replica — are never latched.
    #[inline]
    pub(crate) fn check_divergence(&mut self, mover: usize, now: TimeNs) {
        let Some(d) = self.threshold else {
            return;
        };
        if self.rows[mover].fault.is_some() {
            return;
        }
        // Interface 0 at ⌈count / stride⌉, divided once per check and only
        // by the sampled checker.
        let head = match self.stride {
            1 => self.rows[0].count,
            k => self.rows[0].count.div_ceil(k),
        };
        let normalised = move |i: usize, r: &Row| if i == 0 { head } else { r.count };
        let lead = normalised(mover, &self.rows[mover]);
        for i in 0..self.rows.len() {
            let r = &self.rows[i];
            if self.healthy > 1 && r.fault.is_none() && lead >= normalised(i, r) + d {
                self.latch(i, ArbFaultCause::Divergence, None, now);
            }
        }
    }
}

/// The compare-policy-agnostic state of a selector: the [`Latches`] book
/// of virtual capacities and received counts, the shared delivery queue,
/// and the §3.3 stall rule.
#[derive(Debug)]
pub struct ArbiterLedger {
    name: String,
    queue: VecDeque<Token>,
    /// Virtual capacities, received counts and latches.
    pub(crate) latches: Latches,
    reads: u64,
    enqueued: u64,
    discarded: u64,
    max_fill: usize,
    stall_slack: Option<u64>,
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
            latches: Latches::new(&capacity, divergence_threshold, 1, false),
            reads: 0,
            enqueued: 0,
            discarded: 0,
            max_fill: 0,
            stall_slack,
        }
    }

    /// Compares interface `0` at `⌈received / k⌉` in the divergence rule
    /// (the sampled checker's full-rate main).
    pub(crate) fn with_stride(mut self, k: u64) -> Self {
        self.latches.stride = k;
        self
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of replica (write) interfaces.
    pub fn replica_count(&self) -> usize {
        self.latches.rows.len()
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
        self.latches.count(i)
    }

    /// The `space_i` counter (capacity − received + reads).
    pub fn space(&self, i: usize) -> i64 {
        let r = &self.latches.rows[i];
        r.capacity as i64 - r.count as i64 + self.reads as i64
    }

    /// Tokens waiting in the one physical consumer queue.
    pub fn fill(&self) -> usize {
        self.queue.len()
    }

    /// Size of the physical consumer queue: the largest virtual capacity
    /// (§3.1 selector rule 1).
    pub fn physical_capacity(&self) -> usize {
        self.latches
            .rows
            .iter()
            .map(|r| r.capacity)
            .max()
            .unwrap_or(0)
    }

    /// Counts replica `i`'s next write and returns its duplicate-group
    /// index.
    pub fn note_received(&mut self, i: usize) -> u64 {
        self.latches.note(i)
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
        if let Some(obs) = &self.latches.obs {
            obs.on_duplicate_discarded();
        }
    }

    /// The §3.3 stall latch: any healthy replica whose virtual space
    /// overran its capacity plus the stall slack, i.e. for which the
    /// consumer has read more than `slack` tokens it never supplied.
    fn check_stall(&mut self, now: TimeNs) {
        let Some(slack) = self.stall_slack else {
            return;
        };
        let l = &mut self.latches;
        for i in 0..l.rows.len() {
            let r = &l.rows[i];
            if l.healthy > 1 && r.fault.is_none() && self.reads > r.count + slack {
                l.latch(i, ArbFaultCause::Stall, None, now);
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
/// (latched-interface writes) and postlude (the book's divergence check);
/// the policy decides admission and everything value- and group-related in
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
        self.ledger.latches.healthy_count()
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ledger.latches.faulty_indices()
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
        self.ledger.latches.latched(i)
    }
}

impl<P: ComparePolicy> ChannelBehavior for PolicySelector<P> {
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        if self.ledger.latches.latched(iface).is_some() {
            return self
                .policy
                .latched_write(&mut self.ledger, iface, token, now);
        }
        if !self.policy.admits(&self.ledger, iface) {
            return WriteOutcome::Blocked(token);
        }
        let outcome = self.policy.arbitrate(&mut self.ledger, iface, token, now);
        self.ledger.latches.check_divergence(iface, now);
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
        let rows = &self.ledger.latches.rows;
        rows[iface.min(rows.len() - 1)].capacity
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

/// One arbitration channel type's path to its [`Latches`], behind a
/// downcast.
struct Book {
    view: fn(&dyn Any) -> Option<&Latches>,
    view_mut: fn(&mut dyn Any) -> Option<&mut Latches>,
}

impl Book {
    const fn selector<P: ComparePolicy>() -> Book {
        Book {
            view: |any| Some(&any.downcast_ref::<PolicySelector<P>>()?.ledger.latches),
            view_mut: |any| Some(&mut any.downcast_mut::<PolicySelector<P>>()?.ledger.latches),
        }
    }
}

/// The crate's arbitration channels: the one list both views search.
const BOOKS: [Book; 5] = [
    Book {
        view: |any| Some(&any.downcast_ref::<crate::Replicator>()?.latches),
        view_mut: |any| Some(&mut any.downcast_mut::<crate::Replicator>()?.latches),
    },
    Book::selector::<crate::PaperPair>(),
    Book::selector::<FirstOfGroup>(),
    Book::selector::<crate::voting::MajorityVote>(),
    Book::selector::<crate::SampledCheck>(),
];

/// The detector book of a network channel, if it is one of the crate's
/// arbitration channels (`None` for plain FIFOs and foreign channels).
/// The `rtft-chaos` scenario runner and the `rtft-bench` Table 2 campaign
/// read latches through this instead of per-type downcasts.
pub fn as_arbiter(channel: &dyn ChannelBehavior) -> Option<&Latches> {
    let any = channel.as_any();
    BOOKS.iter().find_map(|b| (b.view)(any))
}

/// The mutable [`as_arbiter`], through which
/// [`instrument`](crate::instrument) attaches one [`DetectionObs`] to both
/// channels of any structure.
pub(crate) fn as_arbiter_mut(channel: &mut dyn ChannelBehavior) -> Option<&mut Latches> {
    let b = BOOKS
        .iter()
        .find(|b| (b.view)(channel.as_any()).is_some())?;
    (b.view_mut)(channel.as_any_mut())
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
        // The book reads the same through the type-erased channel.
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
