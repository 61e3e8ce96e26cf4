//! Fault injection: timing faults, value faults, and omissions.
//!
//! The paper's fault model (§2): a replica "either stops producing (or
//! consuming) tokens, or does so at a rate lower than expected", and the
//! experiments (§4.2) use the fail-stop variant ("the faulty replica stops
//! producing (or consuming) tokens altogether"). Injection is realised as a
//! transparent [`Process`] wrapper, so any process — a single transform or
//! a whole pipeline stage of an application replica — can be made faulty
//! without touching its implementation.
//!
//! Beyond the paper's single *permanent timing* fault, this module also
//! injects the fault classes a chaos campaign sweeps:
//!
//! * [`FaultKind::Transient`] / [`FaultKind::Intermittent`] — timing faults
//!   that self-heal (a stalled window, or a periodic on/off duty cycle);
//! * [`FaultKind::Corrupt`] — silent data corruption on produced tokens
//!   (bit-flip or payload substitution), invisible to the timing detectors
//!   and the reason the value-voting selector exists;
//! * [`FaultKind::Omission`] — each produced token is dropped with a fixed
//!   probability drawn from the plan's seeded RNG.

use rtft_kpn::rng::SplitMix64;
use rtft_kpn::{Payload, Process, Syscall, Token, Wakeup};
use rtft_rtc::TimeNs;
use std::fmt;

/// When the fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// At a virtual time instant.
    AtTime(TimeNs),
    /// After the wrapped process has completed this many read operations
    /// (the paper injects "after 18,000 frames" / "after 20,000 samples").
    AfterReads(u64),
    /// After the wrapped process has completed this many write operations
    /// (the write-side complement of [`FaultTrigger::AfterReads`]).
    AfterWrites(u64),
    /// Never — a healthy replica.
    Never,
}

/// How a [`FaultKind::Corrupt`] fault mutates a produced payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Flip one payload bit (index taken modulo the payload width). An
    /// empty payload becomes a one-bit `U64` — the corruption is never
    /// silent at the digest level.
    BitFlip(u32),
    /// Replace the payload wholesale with `U64(marker)`.
    Substitute(u64),
}

impl CorruptionMode {
    /// Applies the corruption to `payload`.
    pub fn apply(&self, payload: &Payload) -> Payload {
        match *self {
            CorruptionMode::BitFlip(bit) => match payload {
                Payload::Empty => Payload::U64(1u64 << (bit % 64)),
                Payload::U64(v) => Payload::U64(v ^ (1u64 << (bit % 64))),
                Payload::Bytes(b) if b.is_empty() => Payload::U64(1u64 << (bit % 64)),
                Payload::Bytes(b) => {
                    let mut v = b.to_vec();
                    let i = bit as usize % (v.len() * 8);
                    v[i / 8] ^= 1 << (i % 8);
                    Payload::from(v)
                }
            },
            CorruptionMode::Substitute(marker) => Payload::U64(marker),
        }
    }
}

/// What the fault does once triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the process ceases all activity (stops consuming and
    /// producing). Permanent.
    FailStop,
    /// Degradation: every compute duration is stretched by this factor
    /// (must be > 1), so the replica keeps limping at a lower rate.
    /// Permanent.
    SlowBy(f64),
    /// Silent data corruption: every produced token's payload is mutated.
    /// Permanent, and invisible to the timing detectors.
    Corrupt(CorruptionMode),
    /// A transient stall: for `duration` after the trigger the process
    /// freezes (computations finish only after the window closes), then it
    /// heals completely.
    Transient {
        /// Length of the stalled window.
        duration: TimeNs,
    },
    /// An intermittent stall: from the trigger onwards the process cycles
    /// `on` stalled then `off` healthy, forever.
    Intermittent {
        /// Stalled phase length (must be > 0).
        on: TimeNs,
        /// Healthy phase length (must be > 0).
        off: TimeNs,
    },
    /// Omission: each produced token is independently dropped with this
    /// probability (in `[0, 1]`), drawn from the plan's seeded RNG.
    Omission(f64),
}

impl FaultKind {
    /// `true` if the fault mutates token *values* (undetectable by the
    /// counter-based timing detectors; needs the voting selector).
    pub fn affects_values(&self) -> bool {
        matches!(self, FaultKind::Corrupt(_))
    }

    /// `true` if the fault eventually (or periodically) heals on its own,
    /// i.e. it is *not* the paper's permanent fault.
    pub fn self_heals(&self) -> bool {
        matches!(
            self,
            FaultKind::Transient { .. } | FaultKind::Intermittent { .. }
        )
    }
}

/// A fault plan: trigger plus manifestation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// When the fault manifests.
    pub trigger: FaultTrigger,
    /// What the fault does.
    pub kind: FaultKind,
    /// Seed for any randomness the fault consumes (only
    /// [`FaultKind::Omission`] draws today). Guarantees that equal plans
    /// inject byte-identical fault streams.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn healthy() -> Self {
        FaultPlan {
            trigger: FaultTrigger::Never,
            kind: FaultKind::FailStop,
            seed: 0,
        }
    }

    /// Fail-stop at time `at`.
    pub fn fail_stop_at(at: TimeNs) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::FailStop,
            seed: 0,
        }
    }

    /// Fail-stop after `n` completed reads.
    pub fn fail_stop_after_reads(n: u64) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AfterReads(n),
            kind: FaultKind::FailStop,
            seed: 0,
        }
    }

    /// Fail-stop after `n` completed writes.
    pub fn fail_stop_after_writes(n: u64) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AfterWrites(n),
            kind: FaultKind::FailStop,
            seed: 0,
        }
    }

    /// Rate degradation by `factor` (> 1) starting at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1.0`.
    pub fn slow_by_at(factor: f64, at: TimeNs) -> Self {
        assert!(factor > 1.0, "slow-down factor must exceed 1");
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::SlowBy(factor),
            seed: 0,
        }
    }

    /// Rate degradation by `factor` (> 1) after `n` completed reads.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1.0`.
    pub fn slow_by_after_reads(factor: f64, n: u64) -> Self {
        assert!(factor > 1.0, "slow-down factor must exceed 1");
        FaultPlan {
            trigger: FaultTrigger::AfterReads(n),
            kind: FaultKind::SlowBy(factor),
            seed: 0,
        }
    }

    /// Payload corruption on every produced token, starting at time `at`.
    pub fn corrupt_at(mode: CorruptionMode, at: TimeNs) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::Corrupt(mode),
            seed: 0,
        }
    }

    /// A transient stall of `duration`, starting at time `at`.
    pub fn transient_at(duration: TimeNs, at: TimeNs) -> Self {
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::Transient { duration },
            seed: 0,
        }
    }

    /// An intermittent `on`/`off` stall cycle, starting at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if either phase is zero.
    pub fn intermittent_at(on: TimeNs, off: TimeNs, at: TimeNs) -> Self {
        assert!(
            on > TimeNs::ZERO && off > TimeNs::ZERO,
            "intermittent phases must be positive"
        );
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::Intermittent { on, off },
            seed: 0,
        }
    }

    /// Token omission with probability `p`, starting at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn omission_at(p: f64, at: TimeNs) -> Self {
        assert!((0.0..=1.0).contains(&p), "omission probability in [0, 1]");
        FaultPlan {
            trigger: FaultTrigger::AtTime(at),
            kind: FaultKind::Omission(p),
            seed: 0,
        }
    }

    /// The same plan with a different RNG seed (omission draws).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A process wrapper that injects a fault per a [`FaultPlan`].
///
/// Timing faults leave value-domain behaviour untouched, as the paper's
/// fail-silent assumption requires; [`FaultKind::Corrupt`] deliberately
/// breaks that assumption (that is the fault the voting selector exists
/// for), and [`FaultKind::Omission`] silently swallows produced tokens.
///
/// # Examples
///
/// ```
/// use rtft_core::{FaultPlan, FaultyProcess};
/// use rtft_kpn::{ChannelId, Collector, PortId, Process, Syscall, Wakeup};
/// use rtft_rtc::TimeNs;
///
/// let inner = Collector::new("victim", PortId::of(ChannelId(0)), None);
/// let mut faulty = FaultyProcess::new(inner, FaultPlan::fail_stop_at(TimeNs::from_ms(5)));
/// // Before the trigger the process behaves normally…
/// assert!(matches!(faulty.resume(Wakeup::Start, TimeNs::ZERO), Syscall::Read(_)));
/// // …after it, it halts.
/// let tok = rtft_kpn::Token::new(0, TimeNs::ZERO, rtft_kpn::Payload::Empty);
/// assert_eq!(faulty.resume(Wakeup::ReadDone(tok), TimeNs::from_ms(6)), Syscall::Halt);
/// ```
pub struct FaultyProcess<P> {
    inner: P,
    plan: FaultPlan,
    reads_done: u64,
    writes_done: u64,
    triggered_at: Option<TimeNs>,
    rng: SplitMix64,
}

impl<P: fmt::Debug> fmt::Debug for FaultyProcess<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyProcess")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .field("triggered_at", &self.triggered_at)
            .finish()
    }
}

impl<P: Process> FaultyProcess<P> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        FaultyProcess {
            inner,
            plan,
            reads_done: 0,
            writes_done: 0,
            triggered_at: None,
            rng: SplitMix64::seed_from_u64(plan.seed),
        }
    }

    /// The time the fault manifested, if it has.
    pub fn triggered_at(&self) -> Option<TimeNs> {
        self.triggered_at
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn due(&self, now: TimeNs) -> bool {
        match self.plan.trigger {
            FaultTrigger::AtTime(t) => now >= t,
            FaultTrigger::AfterReads(n) => self.reads_done >= n,
            FaultTrigger::AfterWrites(n) => self.writes_done >= n,
            FaultTrigger::Never => false,
        }
    }

    /// For a triggered self-healing fault: the end of the stall window
    /// covering `now`, or `None` if `now` is in a healthy phase.
    fn stall_window_end(&self, t0: TimeNs, now: TimeNs) -> Option<TimeNs> {
        match self.plan.kind {
            FaultKind::Transient { duration } => {
                let end = t0 + duration;
                (now < end).then_some(end)
            }
            FaultKind::Intermittent { on, off } => {
                let cycle = (on + off).as_ns();
                let phase = (now - t0).as_ns() % cycle;
                (phase < on.as_ns()).then(|| now + TimeNs::from_ns(on.as_ns() - phase))
            }
            _ => None,
        }
    }
}

impl<P: Process> Process for FaultyProcess<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        match wake {
            Wakeup::ReadDone(_) => self.reads_done += 1,
            Wakeup::WriteDone => self.writes_done += 1,
            _ => {}
        }
        if self.triggered_at.is_none() && self.due(now) {
            self.triggered_at = Some(now);
        }
        let Some(t0) = self.triggered_at else {
            return self.inner.resume(wake, now);
        };
        match self.plan.kind {
            FaultKind::FailStop => Syscall::Halt,
            FaultKind::SlowBy(factor) => match self.inner.resume(wake, now) {
                Syscall::Compute(d) => {
                    Syscall::Compute(TimeNs::from_ns((d.as_ns() as f64 * factor).round() as u64))
                }
                other => other,
            },
            FaultKind::Transient { .. } | FaultKind::Intermittent { .. } => {
                // Stall: within a fault window the process is frozen, so a
                // computation issued now completes only after the window
                // closes. Outside the window the replica runs healthily.
                match self.inner.resume(wake, now) {
                    Syscall::Compute(d) => match self.stall_window_end(t0, now) {
                        Some(end) => Syscall::Compute((end - now) + d),
                        None => Syscall::Compute(d),
                    },
                    other => other,
                }
            }
            FaultKind::Corrupt(mode) => match self.inner.resume(wake, now) {
                Syscall::Write(port, tok) => {
                    let payload = mode.apply(&tok.payload);
                    Syscall::Write(port, Token::new(tok.seq, tok.produced_at, payload))
                }
                other => other,
            },
            FaultKind::Omission(p) => {
                let mut wake = wake;
                loop {
                    match self.inner.resume(wake, now) {
                        Syscall::Write(port, tok) => {
                            if self.rng.next_f64() < p {
                                // Swallow the token: pretend the write
                                // completed and let the process carry on.
                                self.writes_done += 1;
                                wake = Wakeup::WriteDone;
                            } else {
                                return Syscall::Write(port, tok);
                            }
                        }
                        other => return other,
                    }
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::{ChannelId, Payload, PortId, Token, Transform};

    fn transform() -> Transform {
        Transform::new(
            "t",
            PortId::of(ChannelId(0)),
            PortId::of(ChannelId(1)),
            TimeNs::from_ms(1),
            TimeNs::ZERO,
            0,
            |p| p,
        )
    }

    /// Drives one read→compute→write cycle, returning the written token.
    fn one_cycle(f: &mut FaultyProcess<Transform>, seq: u64, now: TimeNs) -> Option<Token> {
        let tok = Token::new(seq, now, Payload::U64(seq));
        match f.resume(Wakeup::ReadDone(tok), now) {
            Syscall::Compute(_) => {}
            Syscall::Halt => return None,
            other => panic!("expected compute, got {other:?}"),
        }
        match f.resume(Wakeup::ComputeDone, now) {
            Syscall::Write(_, t) => {
                // Complete the write; the process either asks for the next
                // read or halts (e.g. an AfterWrites trigger just tripped).
                let s = f.resume(Wakeup::WriteDone, now);
                assert!(matches!(s, Syscall::Read(_) | Syscall::Halt), "{s:?}");
                Some(t)
            }
            Syscall::Read(_) => None, // token swallowed (omission)
            Syscall::Halt => None,
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_on_a_hashed_buffer_hashes_its_own_bytes() {
        // The original's digest is already memoised on its buffer; the
        // corrupted payload must not answer with it, and the original must
        // keep both its bytes and its digest.
        let original = Payload::from(vec![0x5Au8; 3072]);
        let clean = original.digest();
        let flipped = CorruptionMode::BitFlip(12_345).apply(&original);
        assert_ne!(flipped.digest(), clean);
        assert_eq!(
            flipped.digest(),
            rtft_kpn::digest_bytes(flipped.as_bytes().unwrap())
        );
        assert_eq!(original, Payload::from(vec![0x5Au8; 3072]));
        assert_eq!(original.digest(), clean);
    }

    #[test]
    fn healthy_plan_never_triggers() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::healthy());
        for i in 0..100u64 {
            let s = f.resume(Wakeup::Start, TimeNs::from_secs(i));
            assert_ne!(s, Syscall::Halt);
        }
        assert_eq!(f.triggered_at(), None);
    }

    #[test]
    fn fail_stop_at_time() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::fail_stop_at(TimeNs::from_ms(10)));
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::from_ms(9)),
            Syscall::Read(_)
        ));
        assert_eq!(
            f.resume(
                Wakeup::ReadDone(Token::new(0, TimeNs::ZERO, Payload::Empty)),
                TimeNs::from_ms(10)
            ),
            Syscall::Halt
        );
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(10)));
    }

    #[test]
    fn fail_stop_after_reads_counts_reads() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::fail_stop_after_reads(2));
        let tok = || Token::new(0, TimeNs::ZERO, Payload::Empty);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // First read completes → compute.
        assert!(matches!(
            f.resume(Wakeup::ReadDone(tok()), TimeNs::ZERO),
            Syscall::Compute(_)
        ));
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::ZERO),
            Syscall::Write(..)
        ));
        assert!(matches!(
            f.resume(Wakeup::WriteDone, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // Second read completes → trigger.
        assert_eq!(
            f.resume(Wakeup::ReadDone(tok()), TimeNs::from_ms(3)),
            Syscall::Halt
        );
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(3)));
    }

    #[test]
    fn fail_stop_after_writes_counts_writes() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::fail_stop_after_writes(2));
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // Both writes complete; the trigger trips on the second WriteDone.
        assert!(one_cycle(&mut f, 0, TimeNs::from_ms(1)).is_some());
        assert!(one_cycle(&mut f, 1, TimeNs::from_ms(2)).is_some());
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(2)));
        // From then on the process is dead.
        assert_eq!(
            f.resume(
                Wakeup::ReadDone(Token::new(2, TimeNs::ZERO, Payload::Empty)),
                TimeNs::from_ms(3)
            ),
            Syscall::Halt
        );
    }

    #[test]
    fn slow_by_stretches_compute_only() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::slow_by_at(3.0, TimeNs::from_ms(0)));
        let tok = || Token::new(0, TimeNs::ZERO, Payload::Empty);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        match f.resume(Wakeup::ReadDone(tok()), TimeNs::ZERO) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(3)),
            other => panic!("expected stretched compute, got {other:?}"),
        }
        // Writes still happen (the replica limps, it doesn't die).
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::from_ms(3)),
            Syscall::Write(..)
        ));
    }

    #[test]
    fn slow_by_after_reads_triggers_on_count() {
        let mut f = FaultyProcess::new(transform(), FaultPlan::slow_by_after_reads(2.0, 2));
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // First cycle at nominal speed.
        let tok = || Token::new(0, TimeNs::ZERO, Payload::Empty);
        match f.resume(Wakeup::ReadDone(tok()), TimeNs::ZERO) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(1)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::ZERO),
            Syscall::Write(..)
        ));
        assert!(matches!(
            f.resume(Wakeup::WriteDone, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // Second read trips the trigger → compute stretched.
        match f.resume(Wakeup::ReadDone(tok()), TimeNs::from_ms(5)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(5)));
    }

    #[test]
    #[should_panic(expected = "factor must exceed 1")]
    fn slow_by_rejects_speedups() {
        let _ = FaultPlan::slow_by_at(0.5, TimeNs::ZERO);
    }

    #[test]
    fn corrupt_bit_flip_changes_digest_only_after_trigger() {
        let plan = FaultPlan::corrupt_at(CorruptionMode::BitFlip(3), TimeNs::from_ms(10));
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        // Before the trigger the payload passes through unchanged.
        let t = one_cycle(&mut f, 0, TimeNs::from_ms(1)).expect("write");
        assert_eq!(t.payload, Payload::U64(0));
        // After the trigger every write is corrupted.
        let t = one_cycle(&mut f, 1, TimeNs::from_ms(11)).expect("write");
        assert_eq!(t.payload, Payload::U64(1 ^ (1 << 3)));
        assert_ne!(t.payload.digest(), Payload::U64(1).digest());
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(11)));
    }

    #[test]
    fn corrupt_substitute_replaces_payload() {
        let plan = FaultPlan::corrupt_at(CorruptionMode::Substitute(0xDEAD), TimeNs::ZERO);
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        let t = one_cycle(&mut f, 7, TimeNs::from_ms(1)).expect("write");
        assert_eq!(t.payload, Payload::U64(0xDEAD));
    }

    #[test]
    fn bit_flip_on_bytes_flips_one_bit() {
        let p = Payload::from(vec![0u8; 4]);
        let c = CorruptionMode::BitFlip(9).apply(&p);
        assert_eq!(c.as_bytes().unwrap()[1], 0b10);
        // Flip is an involution.
        assert_eq!(CorruptionMode::BitFlip(9).apply(&c), p);
    }

    #[test]
    fn transient_stall_delays_then_heals() {
        let plan = FaultPlan::transient_at(TimeNs::from_ms(50), TimeNs::from_ms(10));
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        let tok = |s| Token::new(s, TimeNs::ZERO, Payload::Empty);
        // The trigger latches at the first resume at/after 10ms — here the
        // read at 20ms — so the stall window is [20ms, 70ms) and compute is
        // pushed past its end: 50ms left of window + 1ms service.
        match f.resume(Wakeup::ReadDone(tok(0)), TimeNs::from_ms(20)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(51)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::from_ms(71)),
            Syscall::Write(..)
        ));
        assert!(matches!(
            f.resume(Wakeup::WriteDone, TimeNs::from_ms(71)),
            Syscall::Read(_)
        ));
        // After the window: healed, nominal compute.
        match f.resume(Wakeup::ReadDone(tok(1)), TimeNs::from_ms(70)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(1)),
            other => panic!("{other:?}"),
        }
        assert_eq!(f.triggered_at(), Some(TimeNs::from_ms(20)));
    }

    #[test]
    fn intermittent_stall_cycles() {
        let plan =
            FaultPlan::intermittent_at(TimeNs::from_ms(10), TimeNs::from_ms(30), TimeNs::ZERO);
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        let tok = |s| Token::new(s, TimeNs::ZERO, Payload::Empty);
        // t=2ms: in the first on-phase [0, 10) → stretched to 8 + 1.
        match f.resume(Wakeup::ReadDone(tok(0)), TimeNs::from_ms(2)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(9)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::from_ms(11)),
            Syscall::Write(..)
        ));
        assert!(matches!(
            f.resume(Wakeup::WriteDone, TimeNs::from_ms(11)),
            Syscall::Read(_)
        ));
        // t=15ms: off-phase [10, 40) → nominal.
        match f.resume(Wakeup::ReadDone(tok(1)), TimeNs::from_ms(15)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(1)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            f.resume(Wakeup::ComputeDone, TimeNs::from_ms(16)),
            Syscall::Write(..)
        ));
        assert!(matches!(
            f.resume(Wakeup::WriteDone, TimeNs::from_ms(16)),
            Syscall::Read(_)
        ));
        // t=42ms: second on-phase [40, 50) → stretched to 8 + 1.
        match f.resume(Wakeup::ReadDone(tok(2)), TimeNs::from_ms(42)) {
            Syscall::Compute(d) => assert_eq!(d, TimeNs::from_ms(9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn omission_drops_deterministically_per_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let plan = FaultPlan::omission_at(0.5, TimeNs::ZERO).with_seed(seed);
            let mut f = FaultyProcess::new(transform(), plan);
            assert!(matches!(
                f.resume(Wakeup::Start, TimeNs::ZERO),
                Syscall::Read(_)
            ));
            (0..32)
                .filter_map(|s| one_cycle(&mut f, s, TimeNs::from_ms(s)).map(|t| t.seq))
                .collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(7);
        assert_eq!(a, b, "same seed must drop the same tokens");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.len() < 32, "p=0.5 must drop something in 32 tokens");
        assert!(!a.is_empty(), "p=0.5 must pass something in 32 tokens");
    }

    #[test]
    fn omission_probability_extremes() {
        let plan = FaultPlan::omission_at(0.0, TimeNs::ZERO);
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        for s in 0..8 {
            assert!(one_cycle(&mut f, s, TimeNs::from_ms(s)).is_some());
        }
        let plan = FaultPlan::omission_at(1.0, TimeNs::ZERO);
        let mut f = FaultyProcess::new(transform(), plan);
        assert!(matches!(
            f.resume(Wakeup::Start, TimeNs::ZERO),
            Syscall::Read(_)
        ));
        for s in 0..8 {
            assert!(one_cycle(&mut f, s, TimeNs::from_ms(s)).is_none());
        }
    }

    #[test]
    fn kind_classification_helpers() {
        assert!(FaultKind::Corrupt(CorruptionMode::BitFlip(0)).affects_values());
        assert!(!FaultKind::FailStop.affects_values());
        assert!(FaultKind::Transient {
            duration: TimeNs::from_ms(1)
        }
        .self_heals());
        assert!(!FaultKind::SlowBy(2.0).self_heals());
    }
}
