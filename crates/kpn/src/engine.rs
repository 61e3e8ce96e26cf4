//! The deterministic discrete-event simulation engine.
//!
//! Executes a [`Network`] under virtual time with exact Kahn semantics:
//! blocking reads on empty channels, blocking writes per the channel's own
//! admission rule, and deterministic tie-breaking (equal-time events run in
//! schedule order). Determinism is what lets the experiment harness re-run
//! the paper's 20-trial campaigns reproducibly with seeded jitter.
//!
//! # Execution model
//!
//! Each process is driven through its [`Syscall`] protocol:
//!
//! * `Compute(d)` — schedule a wakeup at `now + d` (scaled by the
//!   platform's [`Platform::compute_scale`]).
//! * `Read(port)` — attempt immediately; on `Blocked`, park the process on
//!   the channel's read wait-list.
//! * `Write(port, token)` — charge the platform's transfer latency to the
//!   writer, then attempt; on `Blocked`, park on the write wait-list.
//! * `Halt` — retire the process.
//!
//! After every successful channel operation the engine wakes all parked
//! processes of that channel (they re-attempt and may re-park) — simple,
//! and with the paper's process counts (≤ a few dozen) far from being a
//! bottleneck.

use crate::calendar::{CalendarQueue, Popped, QueuedEvent, WakeKind};
use crate::channel::{ChannelBehavior as _, ChannelId, ReadOutcome, WriteOutcome};
use crate::network::Network;
use crate::platform::{IdealPlatform, Platform};
use crate::process::Process as _;
use crate::process::{NodeId, Syscall, Wakeup};
use rtft_obs::{ClockDomain, Counter, EventRecord, EventSink, Gauge, MetricsRegistry};
use rtft_rtc::TimeNs;

/// Pre-resolved metric handles for the engine's hot loop.
///
/// Resolved once in [`Engine::with_metrics`]. The loop itself never
/// touches these: it bumps the plain-integer [`ObsTally`] shadow and the
/// engine flushes the tally into the atomics when `run_until` returns.
/// (Each engine owns its registry in practice — fleet workers build one
/// per engine — so a concurrent reader only ever loses the tail of the
/// slice currently executing, never committed counts.)
#[derive(Debug, Clone)]
struct EngineObs {
    events: Counter,
    tokens_written: Counter,
    tokens_read: Counter,
    tokens_dropped: Counter,
    read_blocked: Counter,
    write_blocked: Counter,
    halts: Counter,
    /// Occupancy gauge per channel (value = fill after the last op on the
    /// touched interface; `max` = high-water mark).
    channel_fill: Vec<Gauge>,
}

/// Plain-integer shadow of [`EngineObs`], accumulated on the hot path
/// (one predictable branch + an increment per touch, no atomic RMW) and
/// flushed into the shared counters at every `run_until` exit.
#[derive(Debug, Default)]
struct ObsTally {
    events: u64,
    tokens_written: u64,
    tokens_read: u64,
    tokens_dropped: u64,
    read_blocked: u64,
    write_blocked: u64,
    halts: u64,
    /// Per-channel (last fill, high-water, touched-this-slice).
    fill: Vec<(u64, u64, bool)>,
}

impl ObsTally {
    fn new(channels: usize) -> Self {
        ObsTally {
            fill: vec![(0, 0, false); channels],
            ..ObsTally::default()
        }
    }

    #[inline]
    fn record_fill(&mut self, channel: usize, fill: u64) {
        let slot = &mut self.fill[channel];
        slot.0 = fill;
        slot.1 = slot.1.max(fill);
        slot.2 = true;
    }
}

impl EngineObs {
    fn new(registry: &MetricsRegistry, network: &Network) -> Self {
        let channel_fill = (0..network.channel_count())
            .map(|i| {
                let name = network.channel_name(ChannelId(i));
                registry.gauge_named(format!("kpn.channel.{name}.fill"))
            })
            .collect();
        EngineObs {
            events: registry.counter("kpn.engine.events"),
            tokens_written: registry.counter("kpn.tokens.written"),
            tokens_read: registry.counter("kpn.tokens.read"),
            tokens_dropped: registry.counter("kpn.tokens.dropped"),
            read_blocked: registry.counter("kpn.blocked.reads"),
            write_blocked: registry.counter("kpn.blocked.writes"),
            halts: registry.counter("kpn.halts"),
            channel_fill,
        }
    }
}

/// Why a simulation run returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Virtual time reached the requested limit with work still pending.
    TimeLimit,
    /// Every process halted.
    Completed {
        /// Virtual time of the last event.
        at: TimeNs,
    },
    /// No events are scheduled but some processes remain parked on
    /// channels: no further progress is possible. This covers both true
    /// deadlock (the §1.1 motivational example produces exactly this) and
    /// benign input starvation (an infinite pipeline stage whose finite
    /// source has halted).
    Quiescent {
        /// Virtual time at which progress stopped.
        at: TimeNs,
        /// The parked processes.
        blocked: Vec<NodeId>,
    },
    /// The event budget was exhausted (zero-delay livelock guard).
    EventBudgetExhausted {
        /// Virtual time at which the budget ran out.
        at: TimeNs,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Waiting for a scheduled wakeup (start, compute, or attempt).
    Scheduled,
    /// Parked on a channel wait list.
    Parked,
    /// Finished.
    Halted,
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use rtft_kpn::{Engine, Fifo, Network, Payload, PjdSink, PjdSource, PortId, RunOutcome};
/// use rtft_rtc::{PjdModel, TimeNs};
///
/// let mut net = Network::new();
/// let link = net.add_channel(Fifo::new("link", 2));
/// let model = PjdModel::periodic(TimeNs::from_ms(10));
/// net.add_process(PjdSource::new("src", PortId::of(link), model, 0, Some(5), Payload::U64));
/// let sink = net.add_process(PjdSink::new("sink", PortId::of(link), model, 1, Some(5)));
///
/// let mut engine = Engine::new(net);
/// let outcome = engine.run_until(TimeNs::from_secs(1));
/// assert!(matches!(outcome, RunOutcome::Completed { .. }));
/// let sink = engine.network().process_as::<PjdSink>(sink).expect("sink");
/// assert_eq!(sink.arrivals().len(), 5);
/// ```
#[derive(Debug)]
pub struct Engine {
    network: Network,
    platform: Box<dyn Platform>,
    /// Per-node [`Platform::compute_scale`], cached at construction so the
    /// Compute path never makes the dyn call.
    compute_scales: Vec<f64>,
    /// Cached [`Platform::zero_transfer`]: skips the per-write latency
    /// query on zero-latency platforms.
    zero_transfer: bool,
    now: TimeNs,
    queue: CalendarQueue,
    seq: u64,
    states: Vec<ProcState>,
    /// Pending syscall per process (the one being attempted/parked).
    pending: Vec<Option<Syscall>>,
    /// Whether the transfer latency for the pending write was already paid.
    transfer_paid: Vec<bool>,
    /// Per-channel wait lists.
    read_waiters: Vec<Vec<NodeId>>,
    write_waiters: Vec<Vec<NodeId>>,
    events: Option<EventSink>,
    obs: Option<EngineObs>,
    /// Mirrors `obs.is_some()`: one bool load on the hot path instead of
    /// an `Option` discriminant.
    metrics_on: bool,
    tally: ObsTally,
    event_budget: u64,
    started: bool,
}

impl Engine {
    /// Creates an engine over `network` with the zero-latency
    /// [`IdealPlatform`].
    ///
    /// # Panics
    ///
    /// Panics if the network fails validation.
    pub fn new(network: Network) -> Self {
        Engine::with_platform(network, Box::new(IdealPlatform))
    }

    /// Creates an engine with an explicit platform model.
    ///
    /// # Panics
    ///
    /// Panics if the network fails validation.
    pub fn with_platform(network: Network, platform: Box<dyn Platform>) -> Self {
        if let Err(e) = network.validate() {
            panic!("invalid network: {e}");
        }
        let n_proc = network.process_count();
        let n_chan = network.channel_count();
        let compute_scales = (0..n_proc)
            .map(|i| platform.compute_scale(NodeId(i)))
            .collect();
        let zero_transfer = platform.zero_transfer();
        Engine {
            network,
            platform,
            compute_scales,
            zero_transfer,
            now: TimeNs::ZERO,
            queue: CalendarQueue::new(),
            seq: 0,
            states: vec![ProcState::Scheduled; n_proc],
            pending: (0..n_proc).map(|_| None).collect(),
            transfer_paid: vec![false; n_proc],
            read_waiters: vec![Vec::new(); n_chan],
            write_waiters: vec![Vec::new(); n_chan],
            events: None,
            obs: None,
            metrics_on: false,
            tally: ObsTally::new(n_chan),
            event_budget: u64::MAX,
            started: false,
        }
    }

    /// Records the token flow into `sink` (off by default): one
    /// virtual-time [`EventRecord`] per accepted write (`token.written`,
    /// or `token.discarded` when the channel swallowed it), read
    /// (`token.read`), blocked attempt (`read.blocked` / `write.blocked`)
    /// and halt (`process.halted`); `value` is the token's sequence number
    /// where there is one. The sink's ring bounds what a long run retains.
    pub fn with_events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Caps the total number of processed events — a guard against
    /// zero-delay livelock in experimental process implementations.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Attaches metrics: engine step/token/block counters plus one
    /// occupancy gauge per channel (named
    /// `kpn.channel.<name>.fill`), all registered in `registry`. Handles
    /// are resolved here, once; the step loop itself never locks.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.obs = Some(EngineObs::new(registry, &self.network));
        self.metrics_on = true;
        self
    }

    /// Whether metric recording is attached.
    pub fn metrics_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// The executed network (inspect channels/processes after a run).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Consumes the engine, returning the network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// Pushes one event if a sink is attached; one `Option` test otherwise.
    #[inline]
    fn emit(&self, name: &'static str, node: NodeId, channel: Option<ChannelId>, value: u64) {
        if let Some(sink) = &self.events {
            sink.push(EventRecord {
                at_ns: self.now.as_ns(),
                clock: ClockDomain::Virtual,
                name,
                node: Some(node.0),
                channel: channel.map(|c| c.0),
                value,
            });
        }
    }

    #[inline]
    fn schedule(&mut self, at: TimeNs, node: NodeId, wake: WakeKind) {
        // No `states` write: a process is Parked or Halted only while its
        // last drive ended that way, and both sites store the state
        // themselves. Termination (the only reader of `states` besides
        // the halted-skip) is unreachable while this event is queued.
        self.seq += 1;
        self.queue.push(
            self.now,
            QueuedEvent {
                at,
                seq: self.seq,
                node,
                wake,
            },
        );
    }

    fn wake_channel_waiters(&mut self, channel: ChannelId) {
        // Indexed loops instead of `mem::take`: taking the Vec dropped its
        // allocation and the next park re-allocated it — a malloc/free
        // pair per blocked token on the hot path. `clear()` keeps the
        // capacity. Safe because `schedule` never touches the wait lists.
        let readers = self.read_waiters[channel.0].len();
        for i in 0..readers {
            let node = self.read_waiters[channel.0][i];
            self.schedule(self.now, node, WakeKind::Attempt);
        }
        if readers > 0 {
            self.read_waiters[channel.0].clear();
        }
        let writers = self.write_waiters[channel.0].len();
        for i in 0..writers {
            let node = self.write_waiters[channel.0][i];
            self.schedule(self.now, node, WakeKind::Attempt);
        }
        if writers > 0 {
            self.write_waiters[channel.0].clear();
        }
    }

    /// Dispatches the process's next syscall, parking or scheduling as
    /// required. `wake` is what the process is resumed with; `None` means
    /// re-attempt the stored pending syscall without resuming. Iterative:
    /// a chain of successful zero-time operations loops rather than
    /// recursing, so a process draining a deep queue cannot overflow the
    /// stack.
    fn drive(&mut self, node: NodeId, mut wake: Option<Wakeup>) {
        loop {
            let syscall = match wake.take() {
                Some(w) => {
                    let (_, procs) = self.network.parts_mut();
                    let s = procs[node.0].process.resume(w, self.now);
                    if !self.zero_transfer {
                        self.transfer_paid[node.0] = false;
                    }
                    s
                }
                None => self.pending[node.0]
                    .take()
                    .expect("parked process has a pending syscall"),
            };

            match syscall {
                Syscall::Halt => {
                    self.states[node.0] = ProcState::Halted;
                    self.pending[node.0] = None;
                    self.emit("process.halted", node, None, 0);
                    if self.metrics_on {
                        self.tally.halts += 1;
                    }
                    return;
                }
                Syscall::Compute(d) => {
                    let scale = self.compute_scales[node.0];
                    let scaled = if scale == 1.0 {
                        d
                    } else {
                        TimeNs::from_ns((d.as_ns() as f64 * scale).round() as u64)
                    };
                    self.pending[node.0] = None;
                    self.schedule(self.now + scaled, node, WakeKind::ComputeDone);
                    return;
                }
                Syscall::Read(port) => {
                    let outcome = self
                        .network
                        .chan_body_mut(port.channel)
                        .try_read(port.iface, self.now);
                    match outcome {
                        ReadOutcome::Token(token) => {
                            self.emit("token.read", node, Some(port.channel), token.seq);
                            if self.metrics_on {
                                self.tally.tokens_read += 1;
                                let fill = self.network.channel(port.channel).fill(port.iface);
                                self.tally.record_fill(port.channel.0, fill as u64);
                            }
                            self.pending[node.0] = None;
                            self.wake_channel_waiters(port.channel);
                            wake = Some(Wakeup::ReadDone(token));
                        }
                        ReadOutcome::Blocked => {
                            self.emit("read.blocked", node, Some(port.channel), 0);
                            if self.metrics_on {
                                self.tally.read_blocked += 1;
                            }
                            self.pending[node.0] = Some(Syscall::Read(port));
                            self.states[node.0] = ProcState::Parked;
                            self.read_waiters[port.channel.0].push(node);
                            return;
                        }
                    }
                }
                Syscall::Write(port, token) => {
                    // Charge the transfer latency once per write, before
                    // admission.
                    if !self.zero_transfer && !self.transfer_paid[node.0] {
                        let latency =
                            self.platform
                                .transfer_latency(node, port.channel, token.payload.len());
                        self.transfer_paid[node.0] = true;
                        if latency > TimeNs::ZERO {
                            self.pending[node.0] = Some(Syscall::Write(port, token));
                            self.schedule(self.now + latency, node, WakeKind::Attempt);
                            return;
                        }
                    }
                    // Capture what the bookkeeping needs, then *move* the
                    // token into the channel: the accepted path never
                    // clones a payload (a blocked write hands it back).
                    let seq = token.seq;
                    let outcome = self
                        .network
                        .chan_body_mut(port.channel)
                        .try_write(port.iface, token, self.now);
                    match outcome {
                        WriteOutcome::Accepted | WriteOutcome::AcceptedDropped => {
                            let was_dropped = outcome == WriteOutcome::AcceptedDropped;
                            let name = if was_dropped {
                                "token.discarded"
                            } else {
                                "token.written"
                            };
                            self.emit(name, node, Some(port.channel), seq);
                            if self.metrics_on {
                                self.tally.tokens_written += 1;
                                self.tally.tokens_dropped += u64::from(was_dropped);
                                let fill = self.network.channel(port.channel).fill(0);
                                self.tally.record_fill(port.channel.0, fill as u64);
                            }
                            self.pending[node.0] = None;
                            self.wake_channel_waiters(port.channel);
                            wake = Some(Wakeup::WriteDone);
                        }
                        WriteOutcome::Blocked(token) => {
                            self.emit("write.blocked", node, Some(port.channel), 0);
                            if self.metrics_on {
                                self.tally.write_blocked += 1;
                            }
                            self.pending[node.0] = Some(Syscall::Write(port, token));
                            self.states[node.0] = ProcState::Parked;
                            self.write_waiters[port.channel.0].push(node);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Runs until virtual time `limit`, all processes halt, or the network
    /// goes quiescent (deadlock / starvation).
    pub fn run_until(&mut self, limit: TimeNs) -> RunOutcome {
        let outcome = self.run_loop(limit);
        self.flush_tally();
        outcome
    }

    /// Publishes the slice's [`ObsTally`] into the shared metric handles.
    fn flush_tally(&mut self) {
        let Some(obs) = &self.obs else { return };
        let t = &mut self.tally;
        obs.events.add(t.events);
        obs.tokens_written.add(t.tokens_written);
        obs.tokens_read.add(t.tokens_read);
        obs.tokens_dropped.add(t.tokens_dropped);
        obs.read_blocked.add(t.read_blocked);
        obs.write_blocked.add(t.write_blocked);
        obs.halts.add(t.halts);
        t.events = 0;
        t.tokens_written = 0;
        t.tokens_read = 0;
        t.tokens_dropped = 0;
        t.read_blocked = 0;
        t.write_blocked = 0;
        t.halts = 0;
        for (i, (cur, max, touched)) in t.fill.iter_mut().enumerate() {
            if *touched {
                // First set raises the high-water mark, second restores
                // the live value (Gauge::set folds both into `max`).
                obs.channel_fill[i].set(*max);
                obs.channel_fill[i].set(*cur);
                *max = *cur;
                *touched = false;
            }
        }
    }

    fn run_loop(&mut self, limit: TimeNs) -> RunOutcome {
        if !self.started {
            self.started = true;
            for i in 0..self.network.process_count() {
                self.schedule(TimeNs::ZERO, NodeId(i), WakeKind::Start);
            }
        }

        // Local accumulators keep the per-event bookkeeping in registers;
        // they are folded back into the engine on every exit path.
        let mut events = 0u64;
        let mut budget = self.event_budget;
        let outcome = loop {
            if budget == 0 {
                // Rare path: peek without popping so the time-limit check
                // keeps priority over budget exhaustion.
                break match self.queue.next_at(self.now) {
                    None => self.termination_outcome(),
                    Some(at) if at > limit => {
                        self.now = limit;
                        RunOutcome::TimeLimit
                    }
                    Some(_) => RunOutcome::EventBudgetExhausted { at: self.now },
                };
            }
            match self.queue.pop_due(self.now, limit) {
                Popped::Empty => break self.termination_outcome(),
                Popped::NotDue => {
                    self.now = limit;
                    break RunOutcome::TimeLimit;
                }
                Popped::Event { at, node, wake } => {
                    budget -= 1;
                    events += 1;
                    self.now = at;
                    if self.states[node.0] == ProcState::Halted {
                        continue;
                    }
                    // Resolve the wakeup first so `drive` has a single call
                    // site — it is a large function, and duplicating it per
                    // match arm costs inlining budget and icache.
                    let wakeup = match wake {
                        WakeKind::Start => Some(Wakeup::Start),
                        WakeKind::ComputeDone => Some(Wakeup::ComputeDone),
                        WakeKind::Attempt => {
                            if self.pending[node.0].is_none() {
                                // Spurious wake: the process already
                                // re-attempted (and succeeded) under an
                                // earlier wake at this timestamp.
                                continue;
                            }
                            None
                        }
                    };
                    self.drive(node, wakeup);
                }
            }
        };
        if self.metrics_on {
            self.tally.events += events;
        }
        outcome
    }

    /// Outcome when no events remain: finished or deadlocked.
    fn termination_outcome(&self) -> RunOutcome {
        let blocked: Vec<NodeId> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ProcState::Parked)
            .map(|(i, _)| NodeId(i))
            .collect();
        if blocked.is_empty() {
            RunOutcome::Completed { at: self.now }
        } else {
            RunOutcome::Quiescent {
                at: self.now,
                blocked,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Fifo, PortId};
    use crate::platform::UniformBusPlatform;
    use crate::process::{Collector, PjdSink, PjdSource, Transform};
    use crate::token::Payload;
    use rtft_rtc::PjdModel;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_ms(v)
    }

    #[test]
    fn pipeline_delivers_all_tokens_in_order() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 2));
        let b = net.add_channel(Fifo::new("b", 2));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(20),
            Payload::U64,
        ));
        net.add_process(Transform::new(
            "inc",
            PortId::of(a),
            PortId::of(b),
            TimeNs::from_us(100),
            TimeNs::ZERO,
            0,
            |p| Payload::U64(p.as_u64().unwrap() + 1),
        ));
        let col = net.add_process(Collector::new("col", PortId::of(b), Some(20)));

        let mut engine = Engine::new(net);
        // The transform stage never halts; once the finite source drains the
        // network goes quiescent with exactly that stage starved.
        let outcome = engine.run_until(TimeNs::from_secs(10));
        assert!(
            matches!(outcome, RunOutcome::Quiescent { ref blocked, .. } if blocked.len() == 1),
            "{outcome:?}"
        );
        let col = engine.network().process_as::<Collector>(col).unwrap();
        let values: Vec<u64> = col
            .tokens()
            .iter()
            .map(|t| t.payload.as_u64().unwrap())
            .collect();
        assert_eq!(values, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn source_timing_is_periodic() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 64));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(5),
            Payload::U64,
        ));
        let col = net.add_process(Collector::new("col", PortId::of(a), Some(5)));
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(1));
        let col = engine.network().process_as::<Collector>(col).unwrap();
        let times: Vec<TimeNs> = col.tokens().iter().map(|t| t.produced_at).collect();
        assert_eq!(times, vec![ms(0), ms(10), ms(20), ms(30), ms(40)]);
    }

    #[test]
    fn accepted_write_preserves_payload_buffer_identity() {
        // The write hot path must move the token into the channel, not
        // clone it: the same `Arc<[u8]>` allocation travels source →
        // channel → collector, and the refcount stays at exactly the three
        // live handles (test local, generator capture, collected token).
        use crate::token::Bytes;
        let data = Bytes::from(vec![7u8; 4096]);
        let ptr = data.as_ptr();
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 2));
        let model = PjdModel::periodic(ms(10));
        let captured = data;
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(1),
            move |_| Payload::Bytes(captured.clone()),
        ));
        let col = net.add_process(Collector::new("col", PortId::of(a), Some(1)));
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(1));
        let col = engine.network().process_as::<Collector>(col).unwrap();
        let received = col.tokens()[0]
            .payload
            .as_bytes()
            .expect("bytes payload survives the pipeline");
        assert_eq!(received.as_ptr(), ptr, "same allocation end-to-end");
        assert_eq!(
            Bytes::strong_count(received),
            2,
            "no hidden clone on the accepted-write path"
        );
    }

    #[test]
    fn consumer_digest_fills_the_memo_on_the_source_handle() {
        // The sink records `(time, digest)` per arrival through
        // `Payload::digest`; the token it hashes is a clone of the
        // generator's buffer, so the hash lands on the handle kept here
        // and the second token of the cycle is not hashed again.
        use crate::token::Bytes;
        let data = Bytes::from(vec![7u8; 4096]);
        assert_eq!(data.memo(), None);
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 2));
        let model = PjdModel::periodic(ms(10));
        let captured = data.clone();
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(2),
            move |_| Payload::Bytes(captured.clone()),
        ));
        let sink = net.add_process(PjdSink::new("sink", PortId::of(a), model, 0, Some(2)));
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(1));
        let sink = engine.network().process_as::<PjdSink>(sink).unwrap();
        let expected = crate::digest_bytes(&data);
        let digests: Vec<u64> = sink.arrivals().iter().map(|a| a.1).collect();
        assert_eq!(digests, vec![expected; 2]);
        assert_eq!(data.memo(), Some(expected), "clones share the one hash");
    }

    #[test]
    fn backpressure_blocks_producer() {
        // Fast producer into capacity-1 FIFO, slow consumer: the producer's
        // emissions are throttled to the consumer's pace.
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        let fast = PjdModel::periodic(ms(1));
        let slow = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            fast,
            0,
            Some(10),
            Payload::U64,
        ));
        let sink = net.add_process(PjdSink::new("sink", PortId::of(a), slow, 0, Some(10)));
        let mut engine = Engine::new(net);
        let outcome = engine.run_until(TimeNs::from_secs(10));
        assert!(matches!(outcome, RunOutcome::Completed { .. }));
        let sink = engine.network().process_as::<PjdSink>(sink).unwrap();
        // Reads complete at the sink's pace, not the producer's.
        let inter = sink.inter_arrivals();
        assert!(inter.iter().all(|d| *d == ms(10)), "{inter:?}");
    }

    #[test]
    fn empty_channel_blocks_consumer_until_data() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let late = PjdModel::new(ms(10), TimeNs::ZERO, ms(50)); // first token at 50ms
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            late,
            0,
            Some(1),
            Payload::U64,
        ));
        let col = net.add_process(Collector::new("col", PortId::of(a), Some(1)));
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(1));
        let col = engine.network().process_as::<Collector>(col).unwrap();
        assert_eq!(col.tokens()[0].produced_at, ms(50));
    }

    #[test]
    fn deadlock_is_detected() {
        // Two collectors waiting on channels nobody writes.
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        let b = net.add_channel(Fifo::new("b", 1));
        net.add_process(Collector::new("c1", PortId::of(a), None));
        net.add_process(Collector::new("c2", PortId::of(b), None));
        let mut engine = Engine::new(net);
        match engine.run_until(TimeNs::from_secs(1)) {
            RunOutcome::Quiescent { blocked, .. } => {
                assert_eq!(blocked.len(), 2);
            }
            other => panic!("expected quiescence, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_pauses_and_resumes() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 64));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(100),
            Payload::U64,
        ));
        let col = net.add_process(Collector::new("col", PortId::of(a), Some(100)));
        let mut engine = Engine::new(net);
        assert_eq!(engine.run_until(ms(45)), RunOutcome::TimeLimit);
        {
            let col_ref = engine.network().process_as::<Collector>(col).unwrap();
            assert_eq!(col_ref.tokens().len(), 5); // t = 0,10,20,30,40
        }
        assert!(matches!(
            engine.run_until(TimeNs::from_secs(10)),
            RunOutcome::Completed { .. }
        ));
        let col_ref = engine.network().process_as::<Collector>(col).unwrap();
        assert_eq!(col_ref.tokens().len(), 100);
    }

    #[test]
    fn transfer_latency_delays_delivery() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(1),
            |_| Payload::from(vec![0u8; 1000]),
        ));
        let col = net.add_process(Collector::new("col", PortId::of(a), Some(1)));
        // 1 ms per message + 1 ns/B → 1000 B costs 1 µs, total 1.001 ms.
        let platform = UniformBusPlatform {
            per_message: ms(1),
            per_byte_ps: 1000,
        };
        let mut engine = Engine::with_platform(net, Box::new(platform));
        let outcome = engine.run_until(TimeNs::from_secs(1));
        assert!(matches!(outcome, RunOutcome::Completed { .. }));
        let _ = engine.network().process_as::<Collector>(col).unwrap();
        // The collector read blocked until the transfer completed at
        // 1.001 ms; engine time advanced at least that far.
        assert!(engine.now() >= ms(1));
    }

    #[test]
    fn event_budget_guards_livelock() {
        /// A process that spins on zero-length computes forever.
        struct Spinner;
        impl crate::process::Process for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn resume(&mut self, _w: Wakeup, _now: TimeNs) -> Syscall {
                Syscall::Compute(TimeNs::ZERO)
            }
        }
        let mut net = Network::new();
        net.add_channel(Fifo::new("unused", 1));
        net.add_process(Spinner);
        let mut engine = Engine::new(net).with_event_budget(1000);
        assert!(matches!(
            engine.run_until(TimeNs::from_secs(1)),
            RunOutcome::EventBudgetExhausted { .. }
        ));
    }

    #[test]
    fn trace_records_token_flow() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(3),
            Payload::U64,
        ));
        net.add_process(Collector::new("col", PortId::of(a), Some(3)));
        let sink = EventSink::new(64);
        let mut engine = Engine::new(net).with_events(sink.clone());
        engine.run_until(TimeNs::from_secs(1));
        assert_eq!(sink.count("token.written"), 3);
        assert_eq!(sink.count("token.read"), 3);
        assert_eq!(sink.count("process.halted"), 2);
        let seqs: Vec<u64> = sink
            .events()
            .iter()
            .filter(|e| e.name == "token.read")
            .map(|e| e.value)
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn metrics_count_token_flow_and_fill_watermark() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let model = PjdModel::periodic(ms(10));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(5),
            Payload::U64,
        ));
        net.add_process(PjdSink::new("sink", PortId::of(a), model, 0, Some(5)));
        let registry = rtft_obs::MetricsRegistry::new();
        let mut engine = Engine::new(net).with_metrics(&registry);
        assert!(engine.metrics_enabled());
        engine.run_until(TimeNs::from_secs(1));
        assert_eq!(registry.counter("kpn.tokens.written").get(), 5);
        assert_eq!(registry.counter("kpn.tokens.read").get(), 5);
        assert_eq!(registry.counter("kpn.halts").get(), 2);
        let events = registry.counter("kpn.engine.events").get();
        assert!(events >= 10, "engine processed only {events} events");
        let fills = registry.gauge_values();
        let (name, cur, max) = &fills[0];
        assert_eq!(name, "kpn.channel.a.fill");
        assert_eq!(*cur, 0, "drained at end");
        assert!(*max >= 1, "at least one token was queued");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let build = || {
            let mut net = Network::new();
            let a = net.add_channel(Fifo::new("a", 4));
            let model = PjdModel::from_ms(10.0, 3.0, 0.0);
            net.add_process(PjdSource::new(
                "src",
                PortId::of(a),
                model,
                7,
                Some(50),
                Payload::U64,
            ));
            let sink = net.add_process(PjdSink::new("sink", PortId::of(a), model, 8, Some(50)));
            (net, sink)
        };
        let run = || {
            let (net, sink) = build();
            let events = EventSink::new(1024);
            let mut e = Engine::new(net).with_events(events.clone());
            e.run_until(TimeNs::from_secs(10));
            let arrivals = e
                .network()
                .process_as::<PjdSink>(sink)
                .unwrap()
                .arrivals()
                .to_vec();
            (arrivals, events.events())
        };
        assert_eq!(run(), run());
    }
}
