//! The paper's §3 counter rules, stated once in plain test code, and every
//! timing arbiter checked against them.
//!
//! [`Book`], [`Rep`] and [`Sel`] are the replicator and selector of §3.1
//! and §3.3 written as literally as the paper states them, with two named
//! deviations (DESIGN §5 addendum):
//!
//! * **first of group** is decided on received counts
//!   (`received_i ≥ delivered`), not on the paper's raw `space_i ≤ space_j`,
//!   which drops tokens for asymmetric capacities;
//! * **stall** fires at `space_i > |S_i| + slack`; the no-false-positive
//!   slack is `D − 1` where the paper writes `0`.
//!
//! The sampled checker's two extra rules are here too: interface `1` of its
//! replicator is fed on writes `0, k, 2k, …`, and interface `0` enters the
//! eq. (5) comparison at `⌈count / k⌉`.
//!
//! Two checks drive them. Seeded op streams with single and double faults
//! compare every arbiter constructor op by op: outcome, every latch (instant
//! and cause), counts, fills and `space`. For the replicator every op
//! sequence at small scope is also enumerated until the reachable state set
//! closes, and the paper's invariants are asserted on each step.

use rtft_core::{
    as_arbiter, ArbFaultCause, ArbiterLedger, HeteroSelector, NSelector, PolicySelector,
    Replicator, ReplicatorConfig, SampledCheck, SampledReplicator, Selector, SelectorConfig,
};
use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, SplitMix64, Token, WriteOutcome};
use rtft_rtc::TimeNs;
use std::collections::{HashSet, VecDeque};

// ---------------------------------------------------------------- spec --

/// A latch: the op index it happened at and the rule that fired.
type Latch = Option<(u64, ArbFaultCause)>;

/// What one op returned: a write's verdict or the sequence number read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Accepted,
    Dropped,
    Blocked,
    Token(u64),
    Empty,
}

/// The §3.3 detector state of one arbiter: per interface a capacity, a
/// count (tokens consumed at a replicator, received at a selector) and a
/// latch, plus the eq. (5) threshold `D`.
#[derive(Debug, Clone)]
struct Book {
    cap: Vec<usize>,
    count: Vec<u64>,
    latch: Vec<Latch>,
    d: Option<u64>,
    /// Interface 0 carries every token, interface 1 every `stride`-th.
    stride: u64,
}

impl Book {
    fn new(cap: &[usize], d: Option<u64>, stride: u64) -> Self {
        let n = cap.len();
        Book {
            cap: cap.to_vec(),
            count: vec![0; n],
            latch: vec![None; n],
            d,
            stride,
        }
    }

    fn healthy(&self, i: usize) -> bool {
        self.latch[i].is_none()
    }

    fn healthy_count(&self) -> usize {
        (0..self.cap.len()).filter(|&i| self.healthy(i)).count()
    }

    /// Latches `i` — never a latched one again, never the last healthy one.
    fn latch(&mut self, i: usize, cause: ArbFaultCause, at: u64) {
        if self.healthy(i) && self.healthy_count() > 1 {
            self.latch[i] = Some((at, cause));
        }
    }

    /// Interface `i`'s count on the checker's scale.
    fn norm(&self, i: usize) -> u64 {
        if i == 0 {
            self.count[0].div_ceil(self.stride)
        } else {
            self.count[i]
        }
    }

    /// Counts one token on `i`. When a healthy count moves, eq. (5):
    /// whoever is `D` behind the healthy front-runner is latched.
    fn count(&mut self, i: usize, at: u64) {
        self.count[i] += 1;
        let Some(d) = self.d.filter(|_| self.healthy(i)) else {
            return;
        };
        let n = self.cap.len();
        let front = (0..n)
            .filter(|&j| self.healthy(j))
            .map(|j| self.norm(j))
            .max();
        for j in 0..n {
            if self.healthy(j) && front.unwrap() >= self.norm(j) + d {
                self.latch(j, ArbFaultCause::Divergence, at);
            }
        }
    }
}

/// The replicator: one queue per replica; every write goes to every
/// healthy targeted queue.
#[derive(Debug, Clone)]
struct Rep {
    book: Book,
    queue: Vec<VecDeque<u64>>,
    max_fill: Vec<usize>,
    writes: u64,
    dropped: u64,
    detect: bool,
}

impl Rep {
    fn new(cap: &[usize], d: Option<u64>, stride: u64, detect: bool) -> Self {
        let n = cap.len();
        let (queue, max_fill) = (vec![VecDeque::new(); n], vec![0; n]);
        Rep {
            book: Book::new(cap, d, stride),
            queue,
            max_fill,
            writes: 0,
            dropped: 0,
            detect,
        }
    }

    fn write(&mut self, at: u64) -> Outcome {
        let n = self.book.cap.len();
        // Lane 0 takes every write, the others writes 0, k, 2k, ….
        let tick = self.writes.is_multiple_of(self.book.stride);
        let targeted = |i: usize| i == 0 || tick;
        let mut blocked = false;
        for i in 0..n {
            if targeted(i) && self.book.healthy(i) && self.queue[i].len() == self.book.cap[i] {
                // §3.3 overflow: a full queue means its replica stopped
                // consuming. The last healthy queue blocks (§3.1 rule 3).
                if self.detect && self.book.healthy_count() > 1 {
                    self.book.latch(i, ArbFaultCause::Overflow, at);
                } else {
                    blocked = true;
                }
            }
        }
        if blocked {
            return Outcome::Blocked;
        }
        let seq = self.writes;
        self.writes += 1;
        let mut fed = false;
        for i in (0..n).filter(|&i| targeted(i) && self.book.healthy(i)) {
            self.queue[i].push_back(seq);
            self.max_fill[i] = self.max_fill[i].max(self.queue[i].len());
            fed = true;
        }
        if fed {
            Outcome::Accepted
        } else {
            // Every targeted lane is latched: the write is swallowed.
            self.dropped += 1;
            Outcome::Dropped
        }
    }

    fn read(&mut self, i: usize, at: u64) -> Outcome {
        let Some(seq) = self.queue[i].pop_front() else {
            return Outcome::Empty;
        };
        self.book.count(i, at);
        Outcome::Token(seq)
    }

    fn space(&self, i: usize) -> usize {
        let cap = self.book.cap[i];
        if self.book.healthy(i) {
            cap - self.queue[i].len()
        } else {
            cap
        }
    }

    /// What the future depends on: fills, who is latched, the healthy
    /// counts relative to the healthiest-behind one, and the stride phase.
    fn key(&self) -> Vec<u64> {
        let b = &self.book;
        let n = b.cap.len();
        let healthy = (0..n).filter(|&i| b.healthy(i));
        let base = healthy.map(|i| b.norm(i)).min().unwrap();
        let mut key = vec![self.writes % b.stride, b.count[0] % b.stride];
        for i in 0..n {
            let rel = if b.healthy(i) {
                1 + b.norm(i) - base
            } else {
                0
            };
            key.extend([self.queue[i].len() as u64, rel]);
        }
        key
    }
}

/// How a selector arbitrates each group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// The paper's pair: one physical FIFO of `max |S_i|`, which the sole
    /// survivor fills after a latch.
    Pair,
    /// First of each duplicate group, per-interface admission.
    Group,
    /// Sampled checker: interface 0 is delivered whole (and keeps feeding
    /// the consumer once latched), interface 1's votes never are.
    Sampled,
}

/// The selector: one consumer queue and the `space_i` counters.
#[derive(Debug, Clone)]
struct Sel {
    book: Book,
    policy: Policy,
    slack: Option<u64>,
    queue: VecDeque<u64>,
    reads: u64,
    enqueued: u64,
    discarded: u64,
}

impl Sel {
    fn new(cap: &[usize], d: Option<u64>, slack: Option<u64>, stride: u64, policy: Policy) -> Self {
        Sel {
            book: Book::new(cap, d, stride),
            policy,
            slack,
            queue: VecDeque::new(),
            reads: 0,
            enqueued: 0,
            discarded: 0,
        }
    }

    fn space(&self, i: usize) -> i64 {
        self.book.cap[i] as i64 - self.book.count[i] as i64 + self.reads as i64
    }

    fn write(&mut self, i: usize, at: u64) -> Outcome {
        let seq = self.book.count[i];
        let deliver = |s: &mut Sel| {
            s.queue.push_back(seq);
            s.enqueued += 1;
            Outcome::Accepted
        };
        if !self.book.healthy(i) {
            if self.policy == Policy::Sampled && i == 0 {
                self.book.count(0, at);
                return deliver(self);
            }
            self.discarded += 1;
            return Outcome::Dropped;
        }
        let admitted = match self.policy {
            Policy::Pair if self.book.healthy_count() == 1 => {
                self.queue.len() < *self.book.cap.iter().max().unwrap()
            }
            Policy::Sampled if i == 1 => true,
            _ => self.space(i) > 0,
        };
        if !admitted {
            return Outcome::Blocked;
        }
        let first = match self.policy {
            Policy::Sampled => i == 0,
            _ => self.book.count[i] >= self.enqueued,
        };
        self.book.count(i, at);
        if first {
            deliver(self)
        } else {
            self.discarded += 1;
            Outcome::Dropped
        }
    }

    fn read(&mut self, at: u64) -> Outcome {
        let Some(seq) = self.queue.pop_front() else {
            return Outcome::Empty;
        };
        self.reads += 1;
        // §3.3 stall: the consumer read more than `slack` tokens the
        // replica never supplied.
        if let Some(slack) = self.slack {
            for i in 0..self.book.cap.len() {
                if self.reads > self.book.count[i] + slack {
                    self.book.latch(i, ArbFaultCause::Stall, at);
                }
            }
        }
        Outcome::Token(seq)
    }
}

// ---------------------------------------------------- implementations --

fn write_outcome(o: WriteOutcome) -> Outcome {
    match o {
        WriteOutcome::Accepted => Outcome::Accepted,
        WriteOutcome::AcceptedDropped => Outcome::Dropped,
        WriteOutcome::Blocked(_) => Outcome::Blocked,
    }
}

fn read_outcome(o: ReadOutcome) -> Outcome {
    match o {
        ReadOutcome::Token(t) => Outcome::Token(t.seq),
        ReadOutcome::Blocked => Outcome::Empty,
    }
}

fn latches(ch: &dyn ChannelBehavior) -> Vec<Latch> {
    let book = as_arbiter(ch).expect("an arbitration channel");
    let latch = |f: rtft_core::ArbFault| {
        assert_eq!(f.group, None, "timing latches carry no group");
        (f.at.as_ns(), f.cause)
    };
    book.latches().into_iter().map(|f| f.map(latch)).collect()
}

/// A replicator under test and the inherent accessors its constructor's
/// type offers.
struct Probe<T> {
    make: Box<dyn Fn() -> T>,
    consumed: fn(&T, usize) -> u64,
    space: Option<fn(&T, usize) -> usize>,
    dropped: Option<fn(&T) -> u64>,
}

impl<T: ChannelBehavior> Probe<T> {
    fn apply(&self, ch: &mut T, spec: &mut Rep, op: usize, at: u64) -> Outcome {
        let now = TimeNs::from_ns(at);
        let (got, want) = match op {
            0 => {
                let token = Token::new(spec.writes, now, Payload::U64(spec.writes));
                (write_outcome(ch.try_write(0, token, now)), spec.write(at))
            }
            i => (read_outcome(ch.try_read(i - 1, now)), spec.read(i - 1, at)),
        };
        assert_eq!(got, want, "op {op} at {at}");
        got
    }

    /// Asserts that the channel shows what the spec holds.
    fn compare(&self, ch: &T, spec: &Rep, ctx: &str) {
        let n = spec.book.cap.len();
        assert_eq!(latches(ch), spec.book.latch, "latches, {ctx}");
        for i in 0..n {
            assert_eq!(
                (self.consumed)(ch, i),
                spec.book.count[i],
                "count {i}, {ctx}"
            );
            assert_eq!(ch.fill(i), spec.queue[i].len(), "fill {i}, {ctx}");
            assert_eq!(ch.max_fill(i), spec.max_fill[i], "max fill {i}, {ctx}");
            if let Some(space) = self.space {
                assert_eq!(space(ch, i), spec.space(i), "space {i}, {ctx}");
            }
        }
        if let Some(dropped) = self.dropped {
            assert_eq!(dropped(ch), spec.dropped, "dropped, {ctx}");
        }
    }
}

fn replicator(caps: &[usize], d: Option<u64>, detect: bool) -> (Probe<Replicator>, Rep) {
    let mut cfg = ReplicatorConfig::new(caps.to_vec());
    cfg.divergence_threshold = d;
    cfg.detect_overflow = detect;
    let probe = Probe {
        make: Box::new(move || Replicator::new("r", cfg.clone())),
        consumed: |r, i| r.consumed(i),
        space: Some(|r, i| r.space(i)),
        dropped: None,
    };
    (probe, Rep::new(caps, d, 1, detect))
}

fn sampled(caps: [usize; 2], k: u64, d: Option<u64>) -> (Probe<impl ChannelBehavior>, Rep) {
    let probe = Probe {
        make: Box::new(move || SampledReplicator::new("r", caps, k, d)),
        consumed: |r, i| r.consumed(i),
        space: None,
        dropped: Some(|r| r.dropped()),
    };
    (probe, Rep::new(&caps, d, k, true))
}

// ------------------------------------------------------- seeded checks --

const EPISODES: u64 = 24;
const OPS: u64 = 160;

/// Draws `faults` distinct interfaces among `n`, each failing from a
/// seeded op on: stopped outright, or slowed to one op in eight.
fn faults(rng: &mut SplitMix64, n: usize, faults: usize) -> Vec<(usize, u64, bool)> {
    let mut out: Vec<(usize, u64, bool)> = Vec::new();
    while out.len() < faults {
        let i = rng.next_inclusive(n as u64 - 1) as usize;
        if out.iter().all(|f| f.0 != i) {
            out.push((i, rng.next_inclusive(OPS / 2), rng.next_inclusive(1) == 0));
        }
    }
    out
}

/// Whether interface `i` may act at `step` under `faults`.
fn live(rng: &mut SplitMix64, faults: &[(usize, u64, bool)], i: usize, step: u64) -> bool {
    faults
        .iter()
        .all(|&(f, from, stop)| f != i || step < from || (!stop && rng.next_inclusive(7) == 0))
}

fn check_seeded<T: ChannelBehavior>((probe, fresh): (Probe<T>, Rep), seed: u64) {
    let n = fresh.book.cap.len();
    let k = fresh.book.stride;
    let mut rng = SplitMix64::seed_from_u64(seed);
    for episode in 0..EPISODES {
        let (mut ch, mut spec) = ((probe.make)(), fresh.clone());
        let faults = faults(&mut rng, n, 1 + (episode % 2) as usize);
        for step in 0..OPS {
            let op = rng.next_inclusive(n as u64) as usize;
            // Lanes 1.. of a sampled replicator are read at the fed rate.
            let slow = op > 1 && k > 1 && rng.next_inclusive(k - 1) != 0;
            if slow || (op > 0 && !live(&mut rng, &faults, op - 1, step)) {
                continue;
            }
            let at = episode * 1_000 + step;
            probe.apply(&mut ch, &mut spec, op, at);
            probe.compare(
                &ch,
                &spec,
                &format!("seed {seed} episode {episode} step {step}"),
            );
        }
    }
}

#[test]
fn replicators_follow_the_spec_op_by_op() {
    let mut rng = SplitMix64::seed_from_u64(0x5EC3);
    for seed in 0..48 {
        let n = 2 + (seed % 2) as usize;
        let caps: Vec<usize> = (0..n).map(|_| 1 + rng.next_inclusive(3) as usize).collect();
        let d = [None, Some(1), Some(2), Some(3)][seed as usize % 4];
        check_seeded(replicator(&caps, d, seed % 8 != 7), seed);
        let caps = [caps[0], 1 + rng.next_inclusive(3) as usize];
        for k in [1, 2, 4] {
            check_seeded(sampled(caps, k, d), seed);
        }
    }
}

/// Drives one selector against its spec: writes carry the writer's group
/// index, honest values (a checker vote `j` carries the value of token
/// `j · k`), and consumer reads.
fn check_selector<P: rtft_core::ComparePolicy>(
    make: impl Fn() -> PolicySelector<P>,
    fresh: Sel,
    seed: u64,
) {
    let n = fresh.book.cap.len();
    let k = fresh.book.stride;
    let mut rng = SplitMix64::seed_from_u64(seed);
    for episode in 0..EPISODES {
        let (mut s, mut spec) = (make(), fresh.clone());
        let faults = faults(&mut rng, n, 1 + (episode % 2) as usize);
        for step in 0..OPS {
            let at = episode * 1_000 + step;
            let now = TimeNs::from_ns(at);
            let op = rng.next_inclusive(n as u64) as usize;
            let (got, want) = if op == n {
                (read_outcome(s.try_read(0, now)), spec.read(at))
            } else {
                let checker = spec.policy == Policy::Sampled && op == 1;
                if (checker && rng.next_inclusive(k - 1) != 0) || !live(&mut rng, &faults, op, step)
                {
                    continue;
                }
                let g = spec.book.count[op];
                let value = if checker { g * k } else { g };
                let token = Token::new(g, now, Payload::U64(value));
                (
                    write_outcome(s.try_write(op, token, now)),
                    spec.write(op, at),
                )
            };
            let ctx = format!("seed {seed} episode {episode} step {step} op {op}");
            assert_eq!(got, want, "outcome, {ctx}");
            assert_eq!(latches(&s), spec.book.latch, "latches, {ctx}");
            let l = s.ledger();
            for i in 0..n {
                assert_eq!(l.received(i), spec.book.count[i], "received {i}, {ctx}");
                assert_eq!(l.space(i), spec.space(i), "space {i}, {ctx}");
            }
            let seen = (l.fill(), l.enqueued(), l.discarded(), l.reads());
            let want = (spec.queue.len(), spec.enqueued, spec.discarded, spec.reads);
            assert_eq!(seen, (want.0, want.1, want.2, want.3), "queue, {ctx}");
        }
    }
}

#[test]
fn selectors_follow_the_spec_op_by_op() {
    let mut rng = SplitMix64::seed_from_u64(0x5E1);
    for seed in 0..48 {
        let mut cap = |n: usize| (0..n).map(|_| 1 + rng.next_inclusive(3) as usize).collect();
        let (c2, c3): (Vec<usize>, Vec<usize>) = (cap(2), cap(3));
        let d = 1 + seed % 3;
        let pair = [c2[0], c2[1]];
        let cfg = match seed % 4 {
            0 => SelectorConfig::stall_only(pair, d - 1),
            1 => SelectorConfig::new(pair, d).without_stall_detection(),
            _ => SelectorConfig::new(pair, d),
        };
        let spec = Sel::new(
            &c2,
            cfg.divergence_threshold,
            cfg.stall_slack,
            1,
            Policy::Pair,
        );
        check_selector(|| Selector::new("s", cfg), spec, seed);
        let spec = Sel::new(&c3, Some(d), Some(d - 1), 1, Policy::Group);
        check_selector(|| NSelector::new("s", c3.clone(), d), spec, seed);
        for k in [1, 2, 4] {
            let spec = Sel::new(&c2, Some(d), None, k, Policy::Sampled);
            check_selector(|| HeteroSelector::new("s", c2[0], c2[1], d, k), spec, seed);
        }
        // The stall rule under a fail-operational main: the consumer keeps
        // reading a latched interface's tokens.
        let ledger = || ArbiterLedger::new("s", c2.clone(), Some(d), Some(d - 1));
        let spec = Sel::new(&c2, Some(d), Some(d - 1), 1, Policy::Sampled);
        check_selector(
            || PolicySelector::from_parts(ledger(), SampledCheck::new(1)),
            spec,
            seed,
        );
    }
}

// -------------------------------------------------- exhaustive checks --

/// Every op sequence from a fresh replicator until the reachable state set
/// closes. Each edge replays its path on a fresh channel and spec, takes
/// one more op and compares; returns the number of states reached and
/// records the outcomes and latch causes seen.
fn explore<T: ChannelBehavior>(
    (probe, fresh): (Probe<T>, Rep),
    seen: &mut HashSet<String>,
) -> usize {
    let n = fresh.book.cap.len();
    let stride = fresh.book.stride;
    let mut visited = HashSet::from([fresh.key()]);
    let mut frontier = VecDeque::from([Vec::<usize>::new()]);
    while let Some(path) = frontier.pop_front() {
        for op in 0..=n {
            let (mut ch, mut spec) = ((probe.make)(), fresh.clone());
            for (at, &p) in path.iter().enumerate() {
                probe.apply(&mut ch, &mut spec, p, at as u64);
            }
            let before = latches(&ch);
            let outcome = probe.apply(&mut ch, &mut spec, op, path.len() as u64);
            let ctx = format!(
                "caps {:?} d {:?} stride {stride} path {path:?} op {op}",
                fresh.book.cap, fresh.book.d
            );
            probe.compare(&ch, &spec, &ctx);
            // The paper's invariants, read off the channel.
            let after = latches(&ch);
            assert!(
                after.iter().any(Option::is_none),
                "last healthy lane latched, {ctx}"
            );
            for (b, a) in before.iter().zip(&after) {
                assert!(b.is_none() || b == a, "a latch moved, {ctx}");
            }
            if stride == 1 {
                assert_ne!(
                    outcome,
                    Outcome::Dropped,
                    "a full-rate write dropped, {ctx}"
                );
            }
            seen.insert(format!("{outcome:?}").split('(').next().unwrap().to_owned());
            seen.extend(after.iter().flatten().map(|(_, c)| format!("{c:?}")));
            if visited.insert(spec.key()) {
                let mut next = path.clone();
                next.push(op);
                frontier.push_back(next);
            }
        }
    }
    visited.len()
}

#[test]
fn replicator_state_space_is_closed_under_the_spec() {
    let mut seen = HashSet::new();
    let mut states = 0;
    let thresholds = [None, Some(0), Some(1), Some(2), Some(3)];
    for d in thresholds {
        for a in 1..=3 {
            for b in 1..=3 {
                states += explore(replicator(&[a, b], d, true), &mut seen);
                states += explore(sampled([a, b], 2, d), &mut seen);
                for c in 1..=3 {
                    states += explore(replicator(&[a, b, c], d, true), &mut seen);
                }
            }
        }
    }
    for want in [
        "Accepted",
        "Dropped",
        "Blocked",
        "Token",
        "Empty",
        "Overflow",
        "Divergence",
    ] {
        assert!(seen.contains(want), "no {want} reached in {states} states");
    }
}
