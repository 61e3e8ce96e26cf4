//! Processes: the active entities of the network.
//!
//! A process is a sequential program with blocking channel I/O. Because the
//! simulation engine must be able to suspend a process at any blocking
//! point, processes are written in *resumable* style: the runtime calls
//! [`Process::resume`] with the completion of the previous system call, and
//! the process returns its next [`Syscall`]. This is the classic
//! protothread / state-machine encoding of a coroutine; the helper process
//! types at the bottom of this module cover the common stage shapes so
//! application code rarely writes the state machine by hand.

use crate::channel::PortId;
use crate::rng::SplitMix64;
use crate::token::{Payload, Token};
use rtft_rtc::{PjdModel, TimeNs};
use std::fmt;

/// Identifies a process within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// The next action a process requests from the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Destructive blocking read from a port.
    Read(PortId),
    /// Blocking write of a token to a port.
    Write(PortId, Token),
    /// Consume virtual time (computation, or pacing sleep).
    Compute(TimeNs),
    /// Terminate the process.
    Halt,
}

/// What the runtime reports back when resuming a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wakeup {
    /// First activation at time zero.
    Start,
    /// The pending `Read` completed with this token.
    ReadDone(Token),
    /// The pending `Write` completed (token enqueued or — for a selector —
    /// accepted-and-discarded; the writer cannot tell, per §3.1).
    WriteDone,
    /// The pending `Compute` interval elapsed.
    ComputeDone,
}

/// A resumable sequential process.
///
/// The runtime guarantees the alternation `resume(Start)`, then for every
/// returned syscall exactly one matching completion wakeup, until the
/// process returns [`Syscall::Halt`].
pub trait Process: Send {
    /// Diagnostic name of the process.
    fn name(&self) -> &str;

    /// Advances the process: `wake` reports completion of the previously
    /// returned syscall; the return value is the next syscall.
    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall;

    /// Optional downcast hook so harnesses can inspect a process's recorded
    /// state after a run (sinks and collectors implement this).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl fmt::Debug for dyn Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Process({})", self.name())
    }
}

/// Deterministic per-token jitter source used by the helper processes.
///
/// Samples uniformly from `[0, jitter]` with a seeded RNG, so simulation
/// runs are reproducible and two replicas given different seeds exhibit the
/// paper's "design diversity ... captured by different jitter values".
#[derive(Debug, Clone)]
pub struct JitterSampler {
    jitter: TimeNs,
    rng: SplitMix64,
}

impl JitterSampler {
    /// Creates a sampler over `[0, jitter]` seeded with `seed`.
    pub fn new(jitter: TimeNs, seed: u64) -> Self {
        JitterSampler {
            jitter,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Draws the next jitter value.
    pub fn sample(&mut self) -> TimeNs {
        if self.jitter == TimeNs::ZERO {
            TimeNs::ZERO
        } else {
            TimeNs::from_ns(self.rng.next_inclusive(self.jitter.as_ns()))
        }
    }
}

/// A source process emitting PJD-timed tokens.
///
/// Token `n` is emitted at `delay + n·period + U[0, jitter]` (clamped to be
/// non-decreasing), with payloads drawn from a generator closure. If the
/// downstream channel exerts backpressure the emission slips — standard
/// Kahn blocking-write semantics.
pub struct PjdSource {
    name: String,
    out: PortId,
    model: PjdModel,
    jitter: JitterSampler,
    generator: Box<dyn FnMut(u64) -> Payload + Send>,
    count: Option<u64>,
    next_seq: u64,
    last_nominal: TimeNs,
    state: SourceState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceState {
    Pacing,
    Writing,
}

impl fmt::Debug for PjdSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PjdSource")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl PjdSource {
    /// Creates a source writing to `out` with the given timing `model`.
    ///
    /// `seed` controls the jitter sequence; `count` bounds the number of
    /// emitted tokens (`None` = run forever); `generator` produces the
    /// payload for each sequence number.
    pub fn new(
        name: impl Into<String>,
        out: PortId,
        model: PjdModel,
        seed: u64,
        count: Option<u64>,
        generator: impl FnMut(u64) -> Payload + Send + 'static,
    ) -> Self {
        PjdSource {
            name: name.into(),
            out,
            model,
            jitter: JitterSampler::new(model.jitter, seed),
            generator: Box::new(generator),
            count,
            next_seq: 0,
            last_nominal: TimeNs::ZERO,
            state: SourceState::Pacing,
        }
    }

    fn next_emission_time(&mut self) -> TimeNs {
        // Nominal time of event n is delay + n·P; displaced by jitter but
        // kept non-decreasing so the trace stays a valid event stream.
        let nominal = self.model.delay + self.model.period * self.next_seq + self.jitter.sample();
        let t = nominal.max(self.last_nominal);
        self.last_nominal = t;
        t
    }
}

impl Process for PjdSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        loop {
            match self.state {
                SourceState::Pacing => {
                    if matches!(self.count, Some(c) if self.next_seq >= c) {
                        return Syscall::Halt;
                    }
                    match wake {
                        Wakeup::Start | Wakeup::WriteDone => {
                            let t = self.next_emission_time();
                            self.state = SourceState::Writing;
                            if t > now {
                                return Syscall::Compute(t - now);
                            }
                            // Emission due immediately; fall through.
                        }
                        Wakeup::ComputeDone => unreachable!("pacing state never sleeps"),
                        Wakeup::ReadDone(_) => unreachable!("source never reads"),
                    }
                }
                SourceState::Writing => {
                    let payload = (self.generator)(self.next_seq);
                    let token = Token::new(self.next_seq, now, payload);
                    self.next_seq += 1;
                    self.state = SourceState::Pacing;
                    return Syscall::Write(self.out, token);
                }
            }
        }
    }
}

/// A sink process reading tokens at a PJD-paced rate, recording arrivals.
///
/// Read `n` is attempted at `delay + n·period + U[0, jitter]`; the sink
/// records the time each read *completes* together with the token's digest,
/// giving the experiment harness both the output value sequence (for
/// Theorem 2 equivalence checks) and the inter-arrival timings (Table 2's
/// "Decoded Inter-Frame Timings").
pub struct PjdSink {
    name: String,
    input: PortId,
    model: PjdModel,
    jitter: JitterSampler,
    count: Option<u64>,
    next_seq: u64,
    last_nominal: TimeNs,
    arrivals: Vec<(TimeNs, u64)>,
    state: SinkState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkState {
    Pacing,
    Reading,
}

impl fmt::Debug for PjdSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PjdSink")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("arrivals", &self.arrivals.len())
            .finish_non_exhaustive()
    }
}

impl PjdSink {
    /// Creates a sink reading from `input` with the given pacing `model`.
    pub fn new(
        name: impl Into<String>,
        input: PortId,
        model: PjdModel,
        seed: u64,
        count: Option<u64>,
    ) -> Self {
        PjdSink {
            name: name.into(),
            input,
            model,
            jitter: JitterSampler::new(model.jitter, seed),
            count,
            next_seq: 0,
            last_nominal: TimeNs::ZERO,
            arrivals: Vec::new(),
            state: SinkState::Pacing,
        }
    }

    /// The recorded `(completion time, payload digest)` pairs.
    pub fn arrivals(&self) -> &[(TimeNs, u64)] {
        &self.arrivals
    }

    /// Completion-to-completion inter-arrival durations.
    pub fn inter_arrivals(&self) -> Vec<TimeNs> {
        self.arrivals.windows(2).map(|w| w[1].0 - w[0].0).collect()
    }

    fn next_read_time(&mut self) -> TimeNs {
        let nominal = self.model.delay + self.model.period * self.next_seq + self.jitter.sample();
        let t = nominal.max(self.last_nominal);
        self.last_nominal = t;
        t
    }
}

impl Process for PjdSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        loop {
            match self.state {
                SinkState::Pacing => match wake {
                    Wakeup::Start | Wakeup::ReadDone(_) => {
                        if let Wakeup::ReadDone(ref token) = wake {
                            self.arrivals.push((now, token.payload.digest()));
                        }
                        if matches!(self.count, Some(c) if self.next_seq >= c) {
                            return Syscall::Halt;
                        }
                        let t = self.next_read_time();
                        self.state = SinkState::Reading;
                        if t > now {
                            return Syscall::Compute(t - now);
                        }
                    }
                    Wakeup::ComputeDone => unreachable!("pacing state never sleeps"),
                    Wakeup::WriteDone => unreachable!("sink never writes"),
                },
                SinkState::Reading => {
                    self.next_seq += 1;
                    self.state = SinkState::Pacing;
                    return Syscall::Read(self.input);
                }
            }
        }
    }
}

/// A 1-in/1-out transform stage: read, compute, write.
///
/// The compute duration per token is `base + U[0, jitter]` (seeded), which
/// is how the experiments realise the replica interface models of Table 1:
/// a stage whose service time has jitter `J` produces output bounded by the
/// ⟨P, J⟩ curves when fed a periodic input.
pub struct Transform {
    name: String,
    input: PortId,
    output: PortId,
    base: TimeNs,
    jitter: JitterSampler,
    func: Box<dyn FnMut(Payload) -> Payload + Send>,
    out_seq: u64,
    state: TransformState,
    pending: Option<Payload>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransformState {
    Reading,
    Computing,
    Writing,
}

impl fmt::Debug for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transform")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Transform {
    /// Creates a transform stage applying `func` to each token payload.
    ///
    /// `base` is the deterministic part of the per-token service time and
    /// `jitter`/`seed` the stochastic part.
    pub fn new(
        name: impl Into<String>,
        input: PortId,
        output: PortId,
        base: TimeNs,
        jitter: TimeNs,
        seed: u64,
        func: impl FnMut(Payload) -> Payload + Send + 'static,
    ) -> Self {
        Transform {
            name: name.into(),
            input,
            output,
            base,
            jitter: JitterSampler::new(jitter, seed),
            func: Box::new(func),
            out_seq: 0,
            state: TransformState::Reading,
            pending: None,
        }
    }

    /// A zero-delay pass-through stage (useful as a measurement tap).
    pub fn passthrough(name: impl Into<String>, input: PortId, output: PortId) -> Self {
        Transform::new(name, input, output, TimeNs::ZERO, TimeNs::ZERO, 0, |p| p)
    }
}

impl Process for Transform {
    fn name(&self) -> &str {
        &self.name
    }

    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        match self.state {
            TransformState::Reading => {
                if let Wakeup::ReadDone(token) = wake {
                    self.pending = Some(token.payload);
                    self.state = TransformState::Computing;
                    let d = self.base + self.jitter.sample();
                    if d > TimeNs::ZERO {
                        return Syscall::Compute(d);
                    }
                    // Zero service time: fall through to writing.
                    self.resume(Wakeup::ComputeDone, now)
                } else {
                    Syscall::Read(self.input)
                }
            }
            TransformState::Computing => {
                let payload = self.pending.take().expect("payload staged before compute");
                let out = (self.func)(payload);
                let token = Token::new(self.out_seq, now, out);
                self.out_seq += 1;
                self.state = TransformState::Writing;
                Syscall::Write(self.output, token)
            }
            TransformState::Writing => {
                // Write completed: loop back to reading.
                self.state = TransformState::Reading;
                Syscall::Read(self.input)
            }
        }
    }
}

/// A PJD traffic shaper: releases token `n` no earlier than
/// `delay + n·period + U[0, jitter]`.
///
/// This is how a replica's *output interface model* (Table 1 of the paper)
/// is realised faithfully: a pipeline stage with per-token service jitter
/// `J > P` would accumulate unbounded backlog jitter and violate its
/// declared arrival curves (producing divergence false positives), whereas
/// a shaper jitters each token against the **nominal schedule**, so the
/// output stream is exactly a ⟨period, jitter, delay⟩ stream as long as
/// tokens arrive in time (which the upstream fixed service times
/// guarantee fault-free).
pub struct PjdShaper {
    name: String,
    input: PortId,
    output: PortId,
    model: PjdModel,
    jitter: JitterSampler,
    seq: u64,
    last_nominal: TimeNs,
    pending: Option<Payload>,
    state: ShaperState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShaperState {
    Reading,
    Holding,
    Writing,
}

impl fmt::Debug for PjdShaper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PjdShaper")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl PjdShaper {
    /// Creates a shaper imposing `model` on the stream from `input` to
    /// `output`; `seed` drives the per-token jitter draw.
    pub fn new(
        name: impl Into<String>,
        input: PortId,
        output: PortId,
        model: PjdModel,
        seed: u64,
    ) -> Self {
        PjdShaper {
            name: name.into(),
            input,
            output,
            model,
            jitter: JitterSampler::new(model.jitter, seed),
            seq: 0,
            last_nominal: TimeNs::ZERO,
            pending: None,
            state: ShaperState::Reading,
        }
    }

    fn release_time(&mut self) -> TimeNs {
        let nominal = self.model.delay + self.model.period * self.seq + self.jitter.sample();
        let t = nominal.max(self.last_nominal);
        self.last_nominal = t;
        t
    }
}

impl Process for PjdShaper {
    fn name(&self) -> &str {
        &self.name
    }

    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        loop {
            match self.state {
                ShaperState::Reading => {
                    if let Wakeup::ReadDone(ref token) = wake {
                        self.pending = Some(token.payload.clone());
                        self.state = ShaperState::Holding;
                        let release = self.release_time();
                        if release > now {
                            return Syscall::Compute(release - now);
                        }
                        continue;
                    }
                    return Syscall::Read(self.input);
                }
                ShaperState::Holding => {
                    let payload = self.pending.take().expect("token staged");
                    let token = Token::new(self.seq, now, payload);
                    self.seq += 1;
                    self.state = ShaperState::Writing;
                    return Syscall::Write(self.output, token);
                }
                ShaperState::Writing => {
                    self.state = ShaperState::Reading;
                    return Syscall::Read(self.input);
                }
            }
        }
    }
}

/// Collects every token from a port as fast as possible (no pacing, no
/// backpressure shaping) — a measurement probe.
pub struct Collector {
    name: String,
    input: PortId,
    tokens: Vec<Token>,
    limit: Option<usize>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("name", &self.name)
            .field("tokens", &self.tokens.len())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Creates a collector on `input`, optionally stopping after `limit`
    /// tokens.
    pub fn new(name: impl Into<String>, input: PortId, limit: Option<usize>) -> Self {
        Collector {
            name: name.into(),
            input,
            // Reserve up front (capped) so a long run never pays Vec
            // doubling: regrowing 200k tokens memcpys ~16 MB mid-bench.
            tokens: Vec::with_capacity(limit.unwrap_or(0).min(1 << 20)),
            limit,
        }
    }

    /// The collected tokens.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }
}

impl Process for Collector {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn resume(&mut self, wake: Wakeup, _now: TimeNs) -> Syscall {
        if let Wakeup::ReadDone(token) = wake {
            self.tokens.push(token);
        }
        if matches!(self.limit, Some(l) if self.tokens.len() >= l) {
            return Syscall::Halt;
        }
        Syscall::Read(self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelId;

    fn port() -> PortId {
        PortId::of(ChannelId(0))
    }

    #[test]
    fn jitter_sampler_deterministic_per_seed() {
        let mut a = JitterSampler::new(TimeNs::from_ms(5), 42);
        let mut b = JitterSampler::new(TimeNs::from_ms(5), 42);
        let mut c = JitterSampler::new(TimeNs::from_ms(5), 43);
        let sa: Vec<_> = (0..10).map(|_| a.sample()).collect();
        let sb: Vec<_> = (0..10).map(|_| b.sample()).collect();
        let sc: Vec<_> = (0..10).map(|_| c.sample()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        assert!(sa.iter().all(|j| *j <= TimeNs::from_ms(5)));
    }

    #[test]
    fn zero_jitter_sampler_is_zero() {
        let mut s = JitterSampler::new(TimeNs::ZERO, 1);
        assert_eq!(s.sample(), TimeNs::ZERO);
    }

    #[test]
    fn source_paces_then_writes() {
        let model = PjdModel::periodic(TimeNs::from_ms(10));
        let mut src = PjdSource::new("src", port(), model, 0, Some(2), Payload::U64);
        // t=0: first emission is due at 0 → immediate write.
        let s1 = src.resume(Wakeup::Start, TimeNs::ZERO);
        match s1 {
            Syscall::Write(p, t) => {
                assert_eq!(p, port());
                assert_eq!(t.seq, 0);
            }
            other => panic!("expected write, got {other:?}"),
        }
        // After the write: pace to t=10ms.
        let s2 = src.resume(Wakeup::WriteDone, TimeNs::ZERO);
        assert_eq!(s2, Syscall::Compute(TimeNs::from_ms(10)));
        let s3 = src.resume(Wakeup::ComputeDone, TimeNs::from_ms(10));
        assert!(matches!(s3, Syscall::Write(_, ref t) if t.seq == 1));
        // Count exhausted.
        let s4 = src.resume(Wakeup::WriteDone, TimeNs::from_ms(10));
        assert_eq!(s4, Syscall::Halt);
    }

    #[test]
    fn source_with_delay_offsets_first_emission() {
        let model = PjdModel::new(TimeNs::from_ms(10), TimeNs::ZERO, TimeNs::from_ms(3));
        let mut src = PjdSource::new("src", port(), model, 0, Some(1), |_| Payload::Empty);
        let s1 = src.resume(Wakeup::Start, TimeNs::ZERO);
        assert_eq!(s1, Syscall::Compute(TimeNs::from_ms(3)));
    }

    #[test]
    fn sink_records_arrivals() {
        let model = PjdModel::periodic(TimeNs::from_ms(10));
        let mut sink = PjdSink::new("sink", port(), model, 0, Some(2));
        let s1 = sink.resume(Wakeup::Start, TimeNs::ZERO);
        assert_eq!(s1, Syscall::Read(port()));
        let tok = Token::new(0, TimeNs::ZERO, Payload::U64(9));
        let s2 = sink.resume(Wakeup::ReadDone(tok), TimeNs::from_ms(1));
        // Next read due at t=10ms → pace 9ms.
        assert_eq!(s2, Syscall::Compute(TimeNs::from_ms(9)));
        let s3 = sink.resume(Wakeup::ComputeDone, TimeNs::from_ms(10));
        assert_eq!(s3, Syscall::Read(port()));
        let tok2 = Token::new(1, TimeNs::from_ms(10), Payload::U64(10));
        let s4 = sink.resume(Wakeup::ReadDone(tok2), TimeNs::from_ms(10));
        assert_eq!(s4, Syscall::Halt);
        assert_eq!(sink.arrivals().len(), 2);
        assert_eq!(sink.inter_arrivals(), vec![TimeNs::from_ms(9)]);
    }

    #[test]
    fn transform_read_compute_write_cycle() {
        let inp = PortId::of(ChannelId(0));
        let out = PortId::of(ChannelId(1));
        let mut t = Transform::new(
            "double",
            inp,
            out,
            TimeNs::from_ms(2),
            TimeNs::ZERO,
            0,
            |p| Payload::U64(p.as_u64().unwrap_or(0) * 2),
        );
        assert_eq!(t.resume(Wakeup::Start, TimeNs::ZERO), Syscall::Read(inp));
        let s = t.resume(
            Wakeup::ReadDone(Token::new(0, TimeNs::ZERO, Payload::U64(21))),
            TimeNs::ZERO,
        );
        assert_eq!(s, Syscall::Compute(TimeNs::from_ms(2)));
        let s = t.resume(Wakeup::ComputeDone, TimeNs::from_ms(2));
        match s {
            Syscall::Write(p, tok) => {
                assert_eq!(p, out);
                assert_eq!(tok.payload, Payload::U64(42));
                assert_eq!(tok.produced_at, TimeNs::from_ms(2));
            }
            other => panic!("expected write, got {other:?}"),
        }
        assert_eq!(
            t.resume(Wakeup::WriteDone, TimeNs::from_ms(2)),
            Syscall::Read(inp)
        );
    }

    #[test]
    fn passthrough_has_zero_latency() {
        let inp = PortId::of(ChannelId(0));
        let out = PortId::of(ChannelId(1));
        let mut t = Transform::passthrough("tap", inp, out);
        t.resume(Wakeup::Start, TimeNs::ZERO);
        let s = t.resume(
            Wakeup::ReadDone(Token::new(0, TimeNs::ZERO, Payload::U64(5))),
            TimeNs::from_ms(7),
        );
        assert!(matches!(s, Syscall::Write(_, ref tok) if tok.payload == Payload::U64(5)));
    }

    #[test]
    fn collector_stops_at_limit() {
        let mut c = Collector::new("c", port(), Some(2));
        assert_eq!(c.resume(Wakeup::Start, TimeNs::ZERO), Syscall::Read(port()));
        let s = c.resume(
            Wakeup::ReadDone(Token::new(0, TimeNs::ZERO, Payload::Empty)),
            TimeNs::ZERO,
        );
        assert_eq!(s, Syscall::Read(port()));
        let s = c.resume(
            Wakeup::ReadDone(Token::new(1, TimeNs::ZERO, Payload::Empty)),
            TimeNs::ZERO,
        );
        assert_eq!(s, Syscall::Halt);
        assert_eq!(c.tokens().len(), 2);
    }
}
