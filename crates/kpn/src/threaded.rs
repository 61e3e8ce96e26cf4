//! Real-thread runtime: the same networks and channel semantics on actual
//! OS threads and wall-clock time.
//!
//! The discrete-event engine gives deterministic virtual-time results; this
//! runtime demonstrates that the framework's channel state machines
//! (including the replicator/selector from `rtft-core`) run unchanged on a
//! real multicore — the "multicore emulation" leg of the reproduction. Each
//! process gets its own thread; blocking channel operations are implemented
//! with a mutex + condvar per channel; `Compute` becomes `thread::sleep`;
//! `now` is the wall-clock offset from the run's epoch.
//!
//! # Termination by counting
//!
//! A Kahn network's run is over exactly when it deadlocks, and that is
//! counted, not timed. `running` counts the threads runnable or asleep in
//! `Compute`; parking on a channel or halting leaves it, and a successful
//! channel operation credits that channel's parked threads back before it
//! wakes them. The park or halt that takes `running` to zero proves nobody
//! can wake anyone and stops the run; so does the deadline, if it comes
//! first. Then every parked thread returns its process and every thread
//! is joined. DESIGN.md ("Termination by counting") gives the lock order
//! that keeps a wake-up from being lost.
//!
//! Measurements from this runtime are inherently noisy (host scheduling),
//! so the experiment tables are produced by the deterministic engine, while
//! the integration tests use this runtime to validate behavioural
//! equivalence (same token sequences, faults detected).

use crate::channel::{ChannelBehavior, ReadOutcome, WriteOutcome};
use crate::network::{ChanBody, Network, ProcBody};
use crate::process::{Process, Syscall, Wakeup};
use rtft_obs::{Counter, MetricsRegistry};
use rtft_rtc::TimeNs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Pre-resolved wall-clock metric handles shared by all process threads.
/// Resolved once at run start so the channel hot path never touches the
/// registry lock.
#[derive(Debug)]
struct ThreadObs {
    writes: Counter,
    reads: Counter,
    write_waits: Counter,
    read_waits: Counter,
}

impl ThreadObs {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        ThreadObs {
            writes: registry.counter("threaded.channel.writes"),
            reads: registry.counter("threaded.channel.reads"),
            write_waits: registry.counter("threaded.channel.write_waits"),
            read_waits: registry.counter("threaded.channel.read_waits"),
        }
    }
}

/// A shared cancellation flag.
///
/// Cloning yields a handle to the same flag. A threaded run never reads
/// one — it ends at deadlock or at its deadline — but services use it as
/// their shutdown flag (the `rtft-serve` server does).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Configuration of a threaded run: hard deadline and optional metrics
/// registry.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Hard upper bound on the run's wall-clock duration; a network that
    /// deadlocks or halts earlier returns at once.
    pub deadline: Duration,
    /// Wall-clock channel metrics are recorded here when set.
    pub metrics: Option<MetricsRegistry>,
}

impl ThreadedConfig {
    /// A config with the given hard deadline and no metrics.
    pub fn new(deadline: Duration) -> Self {
        ThreadedConfig {
            deadline,
            metrics: None,
        }
    }

    /// Records wall-clock channel metrics into `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }
}

/// The run-wide termination count. Lock order: a thread holding a channel
/// lock may take this one; no thread takes a channel lock while holding it.
#[derive(Debug)]
struct Count {
    /// Threads runnable or asleep in `Compute`: neither parked nor halted.
    running: usize,
    /// Set once — by the park or halt that takes `running` to zero, or by
    /// the deadline — and never cleared.
    stopped: bool,
}

/// What every thread of one run shares besides the channels.
#[derive(Debug)]
struct Run {
    count: Mutex<Count>,
    /// Signalled when `stopped` is set; the join waits on it.
    stop: Condvar,
    clock: WallClock,
    obs: Option<ThreadObs>,
}

impl Run {
    fn count(&self) -> MutexGuard<'_, Count> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the calling thread out of `running`: it is about to park, or
    /// it has halted or panicked. The thread that takes the count to zero
    /// stops the run, since every other thread is parked or gone and none
    /// can wake another. Returns `false` once the run is stopped, so a
    /// parker must not wait.
    fn leave(&self) -> bool {
        let mut count = self.count();
        if count.stopped {
            return false;
        }
        count.running -= 1;
        if count.running == 0 {
            count.stopped = true;
            self.stop.notify_all();
            return false;
        }
        true
    }

    /// Waits until the run stops or `remaining` passes, stopping it then.
    /// Returns `true` when the deadline stopped it.
    fn await_stop(&self, remaining: Duration) -> bool {
        let (mut count, _) = self
            .stop
            .wait_timeout_while(self.count(), remaining, |c| !c.stopped)
            .unwrap_or_else(PoisonError::into_inner);
        let by_deadline = !count.stopped;
        count.stopped = true;
        by_deadline
    }
}

/// What a channel's lock guards.
#[derive(Debug)]
struct ChanState {
    body: ChanBody,
    /// Threads parked here that `running` no longer counts.
    parked: usize,
    /// Bumped by each wake-up that credits `parked` back to `running`. A
    /// parked thread waits until it moves, so a spurious condvar wake-up
    /// is never taken for a credit.
    wakes: u64,
    /// Set by the stop sweep: parked threads return, and an operation
    /// started afterwards returns before attempting.
    stopped: bool,
}

/// A channel shared between process threads.
#[derive(Debug)]
struct SharedChannel {
    state: Mutex<ChanState>,
    changed: Condvar,
}

impl SharedChannel {
    /// A panic inside a channel behaviour is reported as the calling
    /// process's; its peers go on with the channel as it was left, and a
    /// parked thread never unwinds and leaves `running` a second time.
    fn lock(&self) -> MutexGuard<'_, ChanState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One blocking operation, read or write: `attempt` until it
    /// completes, parking in between; `obs` counts completions and parks.
    /// `None` once the run has stopped.
    ///
    /// No wake-up is lost because all counting happens under this
    /// channel's lock, with the run lock taken beneath it. A parker leaves
    /// `running` and joins `parked` before `Condvar::wait` releases the
    /// channel lock; a waker credits `parked` back to `running` before it
    /// notifies, under the same lock. A credited thread that is still
    /// blocked leaves `running` again when it re-parks.
    fn transact<T>(
        &self,
        run: &Run,
        obs: Option<(&Counter, &Counter)>,
        mut attempt: impl FnMut(&mut ChanBody, TimeNs) -> Option<T>,
    ) -> Option<T> {
        let mut chan = self.lock();
        if chan.stopped {
            return None;
        }
        loop {
            if let Some(done) = attempt(&mut chan.body, run.clock.now()) {
                if let Some((done, _)) = obs {
                    done.inc();
                }
                if chan.parked > 0 {
                    run.count().running += chan.parked;
                    chan.parked = 0;
                    chan.wakes += 1;
                    self.changed.notify_all();
                }
                return Some(done);
            }
            if let Some((_, waits)) = obs {
                waits.inc();
            }
            if !run.leave() {
                return None;
            }
            chan.parked += 1;
            let wakes = chan.wakes;
            while chan.wakes == wakes && !chan.stopped {
                chan = self
                    .changed
                    .wait(chan)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if chan.stopped {
                return None;
            }
        }
    }

    /// The stop sweep: marks the channel stopped and wakes its parked
    /// threads under its lock, so no parker sits between leaving `running`
    /// and waiting.
    fn stop(&self) {
        let mut chan = self.lock();
        chan.stopped = true;
        self.changed.notify_all();
    }
}

/// Wall-clock time since the run's epoch, reported as [`TimeNs`] so the
/// same process code runs under both runtimes.
#[derive(Debug, Clone, Copy)]
struct WallClock {
    epoch: Instant,
}

impl WallClock {
    fn now(&self) -> TimeNs {
        TimeNs::from_ns(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// Takes a panicking thread out of `running`, so a process that panics
/// cannot hold the run open until the deadline.
struct LeaveOnUnwind<'a>(&'a Run);

impl Drop for LeaveOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.leave();
        }
    }
}

/// A process thread's body: resumes `process` until it halts or the run
/// stops, then hands it back with whether it halted.
fn drive(mut process: ProcBody, run: &Run, chans: &[SharedChannel]) -> (ProcBody, bool) {
    let _unwind = LeaveOnUnwind(run);
    let mut wake = Wakeup::Start;
    loop {
        let next = match process.resume(wake, run.clock.now()) {
            Syscall::Halt => {
                run.leave();
                return (process, true);
            }
            Syscall::Compute(_) if run.count().stopped => None,
            Syscall::Compute(d) => {
                if d > TimeNs::ZERO {
                    std::thread::sleep(Duration::from_nanos(d.as_ns()));
                }
                Some(Wakeup::ComputeDone)
            }
            Syscall::Read(port) => {
                let obs = run.obs.as_ref().map(|o| (&o.reads, &o.read_waits));
                chans[port.channel.0].transact(run, obs, |body, now| {
                    match body.try_read(port.iface, now) {
                        ReadOutcome::Token(t) => Some(Wakeup::ReadDone(t)),
                        ReadOutcome::Blocked => None,
                    }
                })
            }
            Syscall::Write(port, token) => {
                let obs = run.obs.as_ref().map(|o| (&o.writes, &o.write_waits));
                // The channel takes ownership; a blocked write hands the
                // token back, so no payload is cloned between attempts.
                let mut token = Some(token);
                chans[port.channel.0].transact(run, obs, |body, now| {
                    let t = token.take().expect("held between attempts");
                    match body.try_write(port.iface, t, now) {
                        WriteOutcome::Accepted | WriteOutcome::AcceptedDropped => {
                            Some(Wakeup::WriteDone)
                        }
                        WriteOutcome::Blocked(t) => {
                            token = Some(t);
                            None
                        }
                    }
                })
            }
        };
        let Some(next) = next else {
            return (process, false);
        };
        wake = next;
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedRun {
    /// The channels after the run, in insertion order.
    channels: Vec<SharedChannel>,
    /// Wall-clock duration of the run, joins included.
    pub elapsed: Duration,
    /// If the deadline stopped the run: the processes that had not halted.
    pub timed_out: Vec<String>,
    /// If the network deadlocked first: the processes parked on a channel,
    /// in insertion order — the threaded counterpart of the engine's
    /// `RunOutcome::Quiescent { blocked }`.
    pub blocked: Vec<String>,
    /// Processes whose thread panicked or could not be spawned. They are
    /// not returned; every other process is.
    pub panicked: Vec<String>,
    /// The processes, returned for post-run inspection, in insertion order.
    processes: Vec<(String, ProcBody)>,
}

impl ThreadedRun {
    /// Inspects a channel's final state (`None` if `index` is out of range).
    pub fn channel<R>(
        &self,
        index: usize,
        f: impl FnOnce(&dyn crate::ChannelBehavior) -> R,
    ) -> Option<R> {
        Some(f(&self.channels.get(index)?.lock().body))
    }

    /// Inspects a channel's final state under its concrete type.
    pub fn channel_as<T: 'static, R>(&self, index: usize, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.channel(index, |c| c.as_any().downcast_ref::<T>().map(f))?
    }

    /// Inspects a process under its concrete type. Halted, parked and
    /// deadline-stopped processes are all returned; only one listed in
    /// [`ThreadedRun::panicked`] is not.
    pub fn process_as<T: 'static>(&self, name: &str) -> Option<&T> {
        self.processes
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, p)| p.as_any())
            .and_then(|a| a.downcast_ref::<T>())
    }
}

/// Why a threaded run could not be started.
///
/// The panicking entry points ([`run_threaded`], [`run_threaded_with`])
/// predate this type; [`try_run_threaded_with`] surfaces the same failure
/// as a value so services (the `rtft-serve` front-end) can propagate one
/// boxed error instead of catching unwinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// The network failed validation (dangling ports, unread channels).
    InvalidNetwork(String),
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::InvalidNetwork(why) => write!(f, "invalid network: {why}"),
        }
    }
}

impl std::error::Error for ThreadedError {}

/// Runs `network` on real threads until it halts or deadlocks, or until
/// `deadline` elapses.
///
/// Once every process has halted or parked on a channel, nothing can move
/// again, so the run returns at once; Kahn processes such as shapers never
/// halt by construction, and the ones parked at that point are listed in
/// [`ThreadedRun::blocked`]. `deadline` is the hard upper bound for
/// networks that keep making progress: it stops the run the same way and
/// lists every process that had not halted in [`ThreadedRun::timed_out`]
/// (a thread asleep in `Compute` finishes that sleep first). Either way
/// every thread is joined and every process that did not panic is
/// returned.
///
/// Use [`run_threaded_with`] to record wall-clock metrics.
///
/// # Panics
///
/// Panics if the network fails validation.
pub fn run_threaded(network: Network, deadline: Duration) -> ThreadedRun {
    run_threaded_with(network, &ThreadedConfig::new(deadline))
}

/// Runs `network` on real threads under an explicit [`ThreadedConfig`].
/// With a registry attached it records the
/// `threaded.channel.{writes,reads,write_waits,read_waits}` counters and
/// the `threaded.elapsed_ns` gauge. See [`run_threaded`] for the
/// termination semantics.
///
/// # Panics
///
/// Panics if the network fails validation.
pub fn run_threaded_with(network: Network, config: &ThreadedConfig) -> ThreadedRun {
    match try_run_threaded_with(network, config) {
        Ok(run) => run,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`run_threaded_with`]: returns
/// [`ThreadedError::InvalidNetwork`] instead of panicking when the network
/// fails validation.
pub fn try_run_threaded_with(
    network: Network,
    config: &ThreadedConfig,
) -> Result<ThreadedRun, ThreadedError> {
    if let Err(e) = network.validate() {
        return Err(ThreadedError::InvalidNetwork(e));
    }
    let (channel_slots, process_slots) = network.into_parts();
    let start = Instant::now();
    let run = Run {
        count: Mutex::new(Count {
            running: process_slots.len(),
            stopped: process_slots.is_empty(),
        }),
        stop: Condvar::new(),
        clock: WallClock { epoch: start },
        obs: config.metrics.as_ref().map(ThreadObs::from_registry),
    };
    let channels: Vec<SharedChannel> = channel_slots
        .into_iter()
        .map(|slot| SharedChannel {
            state: Mutex::new(ChanState {
                body: slot.behavior,
                parked: 0,
                wakes: 0,
                stopped: false,
            }),
            changed: Condvar::new(),
        })
        .collect();
    let names: Vec<String> = process_slots.iter().map(|s| s.name.clone()).collect();

    let (joined, by_deadline) = std::thread::scope(|scope| {
        let (run, chans) = (&run, &channels[..]);
        let handles: Vec<_> = process_slots
            .into_iter()
            .map(|slot| {
                let spawned = std::thread::Builder::new()
                    .name(slot.name)
                    .spawn_scoped(scope, move || drive(slot.process, run, chans));
                if spawned.is_err() {
                    run.leave(); // reported as panicked, like a thread that died
                }
                spawned.ok()
            })
            .collect();
        // A deadlock stops the run from inside; the only timed wait is for
        // the deadline's remainder.
        let by_deadline = run.await_stop(config.deadline.saturating_sub(start.elapsed()));
        for chan in chans {
            chan.stop();
        }
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.and_then(|h| h.join().ok()))
            .collect();
        (joined, by_deadline)
    });

    let mut result = ThreadedRun {
        channels,
        elapsed: start.elapsed(),
        timed_out: Vec::new(),
        blocked: Vec::new(),
        panicked: Vec::new(),
        processes: Vec::with_capacity(names.len()),
    };
    for (name, outcome) in names.into_iter().zip(joined) {
        let Some((process, halted)) = outcome else {
            result.panicked.push(name);
            continue;
        };
        // Only a parked thread is unhalted at a deadlock; any thread may be
        // at the deadline.
        if !halted {
            let why = if by_deadline {
                &mut result.timed_out
            } else {
                &mut result.blocked
            };
            why.push(name.clone());
        }
        result.processes.push((name, process));
    }
    if let Some(registry) = &config.metrics {
        registry
            .gauge("threaded.elapsed_ns")
            .set(result.elapsed.as_nanos() as u64);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelId, Fifo, PortId};
    use crate::engine::{Engine, RunOutcome};
    use crate::process::{Collector, NodeId, PjdSink, PjdSource, Transform};
    use crate::rng::SplitMix64;
    use crate::token::{Payload, Token};
    use rtft_rtc::PjdModel;

    fn test_config() -> ThreadedConfig {
        ThreadedConfig::new(Duration::from_secs(10))
    }

    #[test]
    fn threaded_pipeline_delivers_in_order() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        // 1 ms period so the test stays fast on wall clock.
        let model = PjdModel::periodic(TimeNs::from_ms(1));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(20),
            Payload::U64,
        ));
        net.add_process(Collector::new("col", PortId::of(a), Some(20)));
        let run = run_threaded_with(net, &test_config());
        assert!(run.timed_out.is_empty(), "timed out: {:?}", run.timed_out);
        let col = run
            .process_as::<Collector>("col")
            .expect("collector finished");
        let values: Vec<u64> = col
            .tokens()
            .iter()
            .map(|t| t.payload.as_u64().unwrap())
            .collect();
        assert_eq!(values, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_backpressure_preserves_kahn_order() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        let fast = PjdModel::periodic(TimeNs::from_us(100));
        let slow = PjdModel::periodic(TimeNs::from_ms(1));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            fast,
            0,
            Some(10),
            Payload::U64,
        ));
        net.add_process(PjdSink::new("sink", PortId::of(a), slow, 0, Some(10)));
        let run = run_threaded_with(net, &test_config());
        assert!(run.timed_out.is_empty());
        let sink = run.process_as::<PjdSink>("sink").expect("sink finished");
        assert_eq!(sink.arrivals().len(), 10);
    }

    #[test]
    fn deadline_reaps_unfinished_processes() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        // Unbounded source and collector: the network never deadlocks, so
        // only the deadline ends the run.
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            PjdModel::periodic(TimeNs::from_us(100)),
            0,
            None,
            Payload::U64,
        ));
        net.add_process(Collector::new("col", PortId::of(a), None));
        let run = run_threaded(net, Duration::from_millis(100));
        assert_eq!(run.timed_out, ["src", "col"]);
        assert!(run.elapsed >= Duration::from_millis(100));
        let returned: Vec<&str> = run.processes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(returned, ["src", "col"]);
        let col = run.process_as::<Collector>("col").expect("returned");
        assert!(!col.tokens().is_empty());
    }

    #[test]
    fn observed_run_counts_channel_ops() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let model = PjdModel::periodic(TimeNs::from_us(100));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(7),
            Payload::U64,
        ));
        net.add_process(Collector::new("col", PortId::of(a), Some(7)));
        let registry = MetricsRegistry::new();
        let run = run_threaded_with(net, &test_config().with_metrics(&registry));
        assert!(run.timed_out.is_empty());
        assert_eq!(registry.counter("threaded.channel.writes").get(), 7);
        assert_eq!(registry.counter("threaded.channel.reads").get(), 7);
        assert!(registry.gauge("threaded.elapsed_ns").get() > 0);
    }

    #[test]
    fn channel_state_inspectable_after_run() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 8));
        let model = PjdModel::periodic(TimeNs::from_us(100));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(5),
            Payload::U64,
        ));
        net.add_process(Collector::new("col", PortId::of(a), Some(5)));
        let run = run_threaded_with(net, &test_config());
        let (writes, reads) = run
            .channel_as::<Fifo, _>(0, |f| (f.writes(), f.reads()))
            .expect("fifo");
        assert_eq!((writes, reads), (5, 5));
    }

    #[test]
    fn unbounded_collector_returns_at_deadlock() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 4));
        let model = PjdModel::periodic(TimeNs::from_ms(1));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            model,
            0,
            Some(5),
            Payload::U64,
        ));
        // Unbounded collector: never halts, parks after the 5th token, and
        // the network is deadlocked from then on.
        net.add_process(Collector::new("col", PortId::of(a), None));
        let run = run_threaded(net, Duration::from_secs(30));
        assert_eq!(run.blocked, ["col"]);
        assert!(run.timed_out.is_empty());
        assert!(
            run.elapsed < Duration::from_secs(5),
            "deadlock not detected: {:?}",
            run.elapsed
        );
        let col = run
            .process_as::<Collector>("col")
            .expect("parked, returned");
        assert_eq!(col.tokens().len(), 5);
    }

    #[test]
    fn panicking_process_is_named_and_releases_the_run() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        let b = net.add_channel(Fifo::new("b", 1));
        net.add_process(PjdSource::new(
            "src",
            PortId::of(a),
            PjdModel::periodic(TimeNs::from_us(100)),
            0,
            Some(10),
            Payload::U64,
        ));
        let mut seen = 0;
        net.add_process(Transform::new(
            "boom",
            PortId::of(a),
            PortId::of(b),
            TimeNs::ZERO,
            TimeNs::ZERO,
            0,
            move |p| {
                seen += 1;
                if seen == 3 {
                    panic!("injected panic on the third token");
                }
                p
            },
        ));
        net.add_process(Collector::new("col", PortId::of(b), None));
        let run = run_threaded(net, Duration::from_secs(30));
        assert!(
            run.elapsed < Duration::from_secs(5),
            "a panicked thread held the run open: {:?}",
            run.elapsed
        );
        assert_eq!(run.panicked, ["boom"]);
        assert!(run.timed_out.is_empty());
        // The source fills `a` behind the dead stage; the collector
        // starves after the two tokens that got through.
        assert_eq!(run.blocked, ["src", "col"]);
        let returned: Vec<&str> = run.processes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(returned, ["src", "col"]);
        let col = run.process_as::<Collector>("col").expect("returned");
        assert_eq!(col.tokens().len(), 2);
    }

    /// Fan-in for the stress networks: one token from each input, in a
    /// fixed order, folded into one output token. The fixed read order
    /// keeps the network Kahn-determinate.
    struct Zip {
        name: String,
        inputs: [PortId; 2],
        output: PortId,
        left: Option<u64>,
        seq: u64,
    }

    impl Process for Zip {
        fn name(&self) -> &str {
            &self.name
        }

        fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
            let Wakeup::ReadDone(token) = wake else {
                return Syscall::Read(self.inputs[0]);
            };
            let value = token.payload.as_u64().expect("u64 payloads");
            match self.left.take() {
                None => {
                    self.left = Some(value);
                    Syscall::Read(self.inputs[1])
                }
                Some(left) => {
                    self.seq += 1;
                    let folded = left.wrapping_mul(31).wrapping_add(value);
                    Syscall::Write(self.output, Token::new(self.seq, now, Payload::U64(folded)))
                }
            }
        }
    }

    /// A seeded tiny network: 2–6 FIFOs (capacity 1–3) wired as in-trees
    /// of sources, transforms and zips, each tree ending in a collector,
    /// with 0–10 µs periods and service times. Some sources are unbounded
    /// (their collector is then bounded, so the tree still deadlocks),
    /// some collectors are unbounded (they park once their sources halt),
    /// and some channels have no writer (their reader starves at once).
    fn stress_network(seed: u64) -> Network {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut net = Network::new();
        // Channels still waiting for a reader, and whether an unbounded
        // source feeds them.
        let mut open: Vec<(PortId, bool)> = Vec::new();
        for c in 0..2 + rng.next_inclusive(4) {
            let capacity = 1 + rng.next_inclusive(2) as usize;
            let out = PortId::of(net.add_channel(Fifo::new(format!("c{c}"), capacity)));
            let name = format!("p{c}");
            let spread = TimeNs::from_ns(rng.next_inclusive(10_000));
            let unbounded = match rng.next_inclusive(5) {
                0 | 1 if open.len() >= 2 => {
                    let (a, a_unbounded) = open.remove(0);
                    let (b, b_unbounded) = open.remove(0);
                    net.add_process(Zip {
                        name,
                        inputs: [a, b],
                        output: out,
                        left: None,
                        seq: 0,
                    });
                    a_unbounded || b_unbounded
                }
                0..=2 if !open.is_empty() => {
                    let pick = rng.next_inclusive(open.len() as u64 - 1) as usize;
                    let (input, unbounded) = open.remove(pick);
                    let k = rng.next_u64() | 1;
                    net.add_process(Transform::new(
                        name,
                        input,
                        out,
                        spread,
                        TimeNs::ZERO,
                        seed,
                        move |p| Payload::U64(p.as_u64().expect("u64 payloads").wrapping_mul(k)),
                    ));
                    unbounded
                }
                3 => false, // no writer: the reader starves
                _ => {
                    let count = (rng.next_inclusive(3) > 0).then(|| rng.next_inclusive(8));
                    let base = rng.next_u64() >> 8;
                    let period = TimeNs::from_ns(1 + rng.next_inclusive(10_000));
                    net.add_process(PjdSource::new(
                        name,
                        out,
                        PjdModel::new(period, spread, TimeNs::ZERO),
                        seed,
                        count,
                        move |i| Payload::U64(base + i),
                    ));
                    count.is_none()
                }
            };
            open.push((out, unbounded));
        }
        for (i, (input, unbounded)) in open.into_iter().enumerate() {
            let limit =
                (unbounded || rng.next_inclusive(1) == 0).then(|| rng.next_inclusive(6) as usize);
            net.add_process(Collector::new(format!("col{i}"), input, limit));
        }
        net
    }

    /// The counting argument under stress: thousands of seeded networks,
    /// each run on threads and in the DES. For plain FIFOs the final
    /// state is Kahn-determinate, so the two runtimes must agree on who is
    /// parked, what every collector holds and how often every channel was
    /// written and read.
    #[test]
    fn counted_termination_matches_the_des_on_seeded_networks() {
        const NETWORKS: u64 = 2_000;
        const DEADLINE: Duration = Duration::from_secs(60);
        let values = |c: &Collector| -> Vec<Option<u64>> {
            c.tokens().iter().map(|t| t.payload.as_u64()).collect()
        };
        let counts = |f: &Fifo| (f.writes(), f.reads());
        for seed in 0..NETWORKS {
            let mut engine = Engine::new(stress_network(seed));
            let outcome = engine.run_until(TimeNs::from_secs(3600));
            let des = engine.into_network();
            let names = des.process_names();
            let des_blocked: Vec<&str> = match &outcome {
                RunOutcome::Completed { .. } => Vec::new(),
                RunOutcome::Quiescent { blocked, .. } => {
                    blocked.iter().map(|id| names[id.0]).collect()
                }
                other => panic!("seed {seed}: the DES did not terminate: {other:?}"),
            };

            let run = run_threaded(stress_network(seed), DEADLINE);
            assert!(
                run.elapsed < DEADLINE / 4,
                "seed {seed}: took {:?}",
                run.elapsed
            );
            // No deadline and no panic: a returned process that is not
            // blocked halted, so `blocked` ∪ halted is every process.
            assert!(run.timed_out.is_empty(), "seed {seed}: {:?}", run.timed_out);
            assert!(run.panicked.is_empty(), "seed {seed}: {:?}", run.panicked);
            let returned: Vec<&str> = run.processes.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(returned, names, "seed {seed}: every process is returned");
            assert_eq!(run.blocked, des_blocked, "seed {seed}: blocked");
            for (i, name) in names.iter().enumerate() {
                if let Some(col) = des.process_as::<Collector>(NodeId(i)) {
                    assert_eq!(
                        run.process_as::<Collector>(name).map(values),
                        Some(values(col)),
                        "seed {seed}: {name}"
                    );
                }
            }
            for c in 0..des.channel_count() {
                assert_eq!(
                    run.channel_as::<Fifo, _>(c, counts),
                    des.channel_as::<Fifo>(ChannelId(c)).map(counts),
                    "seed {seed}: channel c{c}"
                );
            }
        }
    }
}
