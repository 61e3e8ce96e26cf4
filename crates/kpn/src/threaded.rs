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
//! Measurements from this runtime are inherently noisy (host scheduling),
//! so the experiment tables are produced by the deterministic engine, while
//! the integration tests use this runtime to validate behavioural
//! equivalence (same token sequences, faults detected).

use crate::channel::{ChannelBehavior, ReadOutcome, WriteOutcome};
use crate::network::Network;
use crate::process::{Process, Syscall, Wakeup};
use crate::token::Token;
use rtft_obs::{Counter, MetricsRegistry};
use rtft_rtc::TimeNs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pre-resolved wall-clock metric handles shared by all process threads.
/// Resolved once at run start so the channel hot path never touches the
/// registry lock.
#[derive(Debug, Clone, Default)]
struct ThreadObs {
    writes: Counter,
    reads: Counter,
    write_waits: Counter,
    read_waits: Counter,
    spin_hits: Counter,
}

impl ThreadObs {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        ThreadObs {
            writes: registry.counter("threaded.channel.writes"),
            reads: registry.counter("threaded.channel.reads"),
            write_waits: registry.counter("threaded.channel.write_waits"),
            read_waits: registry.counter("threaded.channel.read_waits"),
            spin_hits: registry.counter("threaded.channel.spin_hits"),
        }
    }
}

/// Iterations of [`std::hint::spin_loop`] attempted (with the channel
/// mutex released) before a blocked writer/reader parks on the condvar.
/// On a contended multicore the peer usually drains/fills the queue within
/// this window, saving the park/unpark round-trip; on a 1-core host the
/// spin burns one short quantum and falls through to the existing condvar
/// wait, so liveness is unchanged.
const SPIN_ITERS: u32 = 100;

/// Wall-clock timestamp (ns since the run epoch) of the most recent
/// successful channel operation, compute completion, or halt. Drives
/// quiescence detection in the join loop: once this stops advancing, the
/// only threads still alive are permanently blocked on channels.
#[derive(Debug, Default)]
struct Progress {
    last_ns: AtomicU64,
}

impl Progress {
    fn touch(&self, now: TimeNs) {
        self.last_ns.fetch_max(now.as_ns(), Ordering::Relaxed);
    }

    fn last(&self) -> u64 {
        self.last_ns.load(Ordering::Relaxed)
    }
}

/// Default quiescence idle window: how long the join loop waits with no
/// progress anywhere before declaring the network quiescent. Far above any
/// service time or period in this repository (all ≤ tens of ms); a single
/// `Compute` sleep longer than the configured window would be misread as
/// quiescence, so callers running coarser schedules must raise it via
/// [`ThreadedConfig::with_quiescence_grace`] — and callers running many
/// *small* jobs (the fleet executor) should lower it, since the window is
/// pure completion-latency tail for every job.
pub const DEFAULT_QUIESCENCE_GRACE: Duration = Duration::from_secs(1);

/// A shared cancellation flag for a threaded run.
///
/// Cloning yields a handle to the same flag; [`CancelToken::cancel`] makes
/// the join loop of the run holding the token return at its next poll
/// (within a few hundred microseconds), reporting every still-running
/// process in [`ThreadedRun::timed_out`]. The fleet executor uses this to
/// abandon a job that outlived its deadline without waiting for the run's
/// hard deadline.
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

/// Configuration of a threaded run: hard deadline, quiescence idle window,
/// optional cancellation hook and optional metrics registry.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Hard upper bound on the run's wall-clock duration.
    pub deadline: Duration,
    /// Idle window after which the network is declared quiescent
    /// ([`DEFAULT_QUIESCENCE_GRACE`] unless overridden).
    pub quiescence_grace: Duration,
    /// Cooperative cancellation hook checked by the join loop.
    pub cancel: Option<CancelToken>,
    /// Wall-clock channel metrics are recorded here when set.
    pub metrics: Option<MetricsRegistry>,
}

impl ThreadedConfig {
    /// A config with the given hard deadline and all defaults.
    pub fn new(deadline: Duration) -> Self {
        ThreadedConfig {
            deadline,
            quiescence_grace: DEFAULT_QUIESCENCE_GRACE,
            cancel: None,
            metrics: None,
        }
    }

    /// Overrides the quiescence idle window.
    pub fn with_quiescence_grace(mut self, grace: Duration) -> Self {
        self.quiescence_grace = grace;
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Records wall-clock channel metrics into `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }
}

/// A channel shared between process threads.
#[derive(Debug)]
struct SharedChannel {
    state: Mutex<crate::network::ChanBody>,
    changed: Condvar,
    obs: Option<ThreadObs>,
    progress: Arc<Progress>,
}

impl SharedChannel {
    fn write_blocking(&self, iface: usize, mut token: Token, clock: &WallClock) {
        let mut guard = self.state.lock().unwrap();
        let mut spun = false;
        let mut parked = false;
        loop {
            // The channel takes ownership; a blocked write hands the token
            // back, so no payload is ever cloned on the retry loop.
            match guard.try_write(iface, token, clock.now()) {
                WriteOutcome::Accepted | WriteOutcome::AcceptedDropped => {
                    if let Some(obs) = &self.obs {
                        obs.writes.inc();
                        if spun && !parked {
                            obs.spin_hits.inc();
                        }
                    }
                    self.progress.touch(clock.now());
                    self.changed.notify_all();
                    return;
                }
                WriteOutcome::Blocked(t) => {
                    token = t;
                    if !spun {
                        // First miss: release the lock, spin briefly, retry
                        // before paying for a condvar park.
                        spun = true;
                        drop(guard);
                        for _ in 0..SPIN_ITERS {
                            std::hint::spin_loop();
                        }
                        guard = self.state.lock().unwrap();
                        continue;
                    }
                    parked = true;
                    if let Some(obs) = &self.obs {
                        obs.write_waits.inc();
                    }
                    guard = self
                        .changed
                        .wait_timeout(guard, Duration::from_millis(5))
                        .expect("channel mutex poisoned")
                        .0;
                }
            }
        }
    }

    fn read_blocking(&self, iface: usize, clock: &WallClock) -> Token {
        let mut guard = self.state.lock().unwrap();
        let mut spun = false;
        let mut parked = false;
        loop {
            match guard.try_read(iface, clock.now()) {
                ReadOutcome::Token(t) => {
                    if let Some(obs) = &self.obs {
                        obs.reads.inc();
                        if spun && !parked {
                            obs.spin_hits.inc();
                        }
                    }
                    self.progress.touch(clock.now());
                    self.changed.notify_all();
                    return t;
                }
                ReadOutcome::Blocked => {
                    if !spun {
                        spun = true;
                        drop(guard);
                        for _ in 0..SPIN_ITERS {
                            std::hint::spin_loop();
                        }
                        guard = self.state.lock().unwrap();
                        continue;
                    }
                    parked = true;
                    if let Some(obs) = &self.obs {
                        obs.read_waits.inc();
                    }
                    guard = self
                        .changed
                        .wait_timeout(guard, Duration::from_millis(5))
                        .expect("channel mutex poisoned")
                        .0;
                }
            }
        }
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

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedRun {
    /// The channels after the run (wrapped; downcast via
    /// [`ThreadedRun::channel_as`]).
    channels: Vec<(String, Arc<SharedChannel>)>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Processes that were still running when the deadline hit (names).
    pub timed_out: Vec<String>,
    /// `true` if the run returned because its [`CancelToken`] fired.
    pub cancelled: bool,
    /// The processes, returned for post-run inspection, in insertion order.
    processes: Vec<(String, crate::network::ProcBody)>,
}

impl ThreadedRun {
    /// Inspects a channel's final state (`None` if `index` is out of range).
    pub fn channel<R>(
        &self,
        index: usize,
        f: impl FnOnce(&dyn crate::ChannelBehavior) -> R,
    ) -> Option<R> {
        let guard = self.channels.get(index)?.1.state.lock().unwrap();
        Some(f(&*guard))
    }

    /// Inspects a channel's final state under its concrete type.
    pub fn channel_as<T: 'static, R>(&self, index: usize, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.channel(index, |c| c.as_any().downcast_ref::<T>().map(f))?
    }

    /// Inspects a finished process under its concrete type (only processes
    /// that halted before the deadline are returned to the run).
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

/// Runs `network` on real threads until every process halts, the network
/// quiesces, or `deadline` elapses.
///
/// Quiescence: once no channel operation, compute completion, or halt has
/// happened anywhere for [`DEFAULT_QUIESCENCE_GRACE`], the remaining
/// threads can only be permanently blocked on channels (Kahn processes
/// such as shapers never halt by construction), so the run returns early;
/// `deadline` is the hard upper bound for networks that keep making
/// progress. Unfinished processes are detached (their threads park on
/// channels forever and are reaped at process exit); their names are
/// reported in [`ThreadedRun::timed_out`].
///
/// Use [`run_threaded_with`] to override the quiescence window or attach a
/// [`CancelToken`].
///
/// # Panics
///
/// Panics if the network fails validation.
pub fn run_threaded(network: Network, deadline: Duration) -> ThreadedRun {
    run_threaded_with(network, &ThreadedConfig::new(deadline))
}

/// Like [`run_threaded`], but records wall-clock channel metrics
/// (`threaded.channel.{writes,reads,write_waits,read_waits,spin_hits}`
/// counters and the `threaded.elapsed_ns` gauge) into `registry`.
pub fn run_threaded_observed(
    network: Network,
    deadline: Duration,
    registry: &MetricsRegistry,
) -> ThreadedRun {
    run_threaded_with(
        network,
        &ThreadedConfig::new(deadline).with_metrics(registry),
    )
}

/// Runs `network` on real threads under an explicit [`ThreadedConfig`]:
/// hard deadline, quiescence idle window, optional cancellation and
/// optional metrics. See [`run_threaded`] for the termination semantics.
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
    let clock = WallClock {
        epoch: Instant::now(),
    };
    let obs = config.metrics.as_ref().map(ThreadObs::from_registry);
    let progress = Arc::new(Progress::default());

    let channels: Vec<(String, Arc<SharedChannel>)> = channel_slots
        .into_iter()
        .map(|slot| {
            (
                slot.name,
                Arc::new(SharedChannel {
                    state: Mutex::new(slot.behavior),
                    changed: Condvar::new(),
                    obs: obs.clone(),
                    progress: Arc::clone(&progress),
                }),
            )
        })
        .collect();

    let mut handles = Vec::new();
    for slot in process_slots {
        let name = slot.name.clone();
        let mut process = slot.process;
        let chans: Vec<Arc<SharedChannel>> = channels.iter().map(|(_, c)| Arc::clone(c)).collect();
        let progress = Arc::clone(&progress);
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                let mut wake = Wakeup::Start;
                loop {
                    match process.resume(wake, clock.now()) {
                        Syscall::Halt => {
                            progress.touch(clock.now());
                            return (name, process);
                        }
                        Syscall::Compute(d) => {
                            progress.touch(clock.now());
                            if d > TimeNs::ZERO {
                                std::thread::sleep(Duration::from_nanos(d.as_ns()));
                            }
                            progress.touch(clock.now());
                            wake = Wakeup::ComputeDone;
                        }
                        Syscall::Read(port) => {
                            let t = chans[port.channel.0].read_blocking(port.iface, &clock);
                            wake = Wakeup::ReadDone(t);
                        }
                        Syscall::Write(port, token) => {
                            chans[port.channel.0].write_blocking(port.iface, token, &clock);
                            wake = Wakeup::WriteDone;
                        }
                    }
                }
            })
            .expect("spawn process thread");
        handles.push(handle);
    }

    // Join with a global deadline, returning early once the network
    // quiesces or the cancel token fires. A duplicated network always
    // contains Kahn processes that never halt (shapers, stages): after the
    // bounded producer and consumer finish, those threads are permanently
    // blocked on channels. Once no channel operation, compute, or halt has
    // happened anywhere for the configured quiescence window, waiting out
    // the rest of the deadline adds only latency, so the deadline serves
    // purely as a hard upper bound.
    let start = Instant::now();
    let mut pending: Vec<Option<_>> = handles.into_iter().map(Some).collect();
    let mut finished = Vec::new();
    let mut timed_out = Vec::new();
    let mut cancelled = false;
    loop {
        for slot in pending.iter_mut() {
            // `JoinHandle` has no timed join; poll `is_finished`.
            if slot.as_ref().is_some_and(|h| h.is_finished()) {
                match slot.take().expect("just checked").join() {
                    Ok((name, process)) => finished.push((name, process)),
                    Err(_) => timed_out.push("<panicked>".to_owned()),
                }
            }
        }
        if pending.iter().all(Option::is_none) {
            break;
        }
        if config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            cancelled = true;
            break;
        }
        let idle_ns = clock.now().as_ns().saturating_sub(progress.last());
        if start.elapsed() >= config.deadline || idle_ns > config.quiescence_grace.as_nanos() as u64
        {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for handle in pending.into_iter().flatten() {
        timed_out.push(handle.thread().name().unwrap_or("<unnamed>").to_owned());
        drop(handle); // detach: parked on a channel forever, reaped at exit
    }

    let elapsed = start.elapsed();
    if let Some(registry) = &config.metrics {
        registry
            .gauge("threaded.elapsed_ns")
            .set(elapsed.as_nanos() as u64);
    }
    Ok(ThreadedRun {
        channels,
        elapsed,
        timed_out,
        cancelled,
        processes: finished,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Fifo, PortId};
    use crate::process::{Collector, PjdSink, PjdSource};
    use crate::token::Payload;
    use rtft_rtc::PjdModel;

    /// Tests pin the quiescence window explicitly (satellite of the fleet
    /// PR): every period in this module is ≤ 1 ms, so 200 ms of global
    /// silence is conclusive and keeps the tests fast.
    fn test_config() -> ThreadedConfig {
        ThreadedConfig::new(Duration::from_secs(10))
            .with_quiescence_grace(Duration::from_millis(200))
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
        // Collector with no producer: blocks forever.
        net.add_process(Collector::new("stuck", PortId::of(a), None));
        let run = run_threaded(net, Duration::from_millis(100));
        assert_eq!(run.timed_out, vec!["stuck".to_owned()]);
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
    fn short_quiescence_window_returns_promptly() {
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
        // Unbounded collector: never halts, blocks after the 5th token —
        // only quiescence detection can end this run before the deadline.
        net.add_process(Collector::new("col", PortId::of(a), None));
        let cfg = ThreadedConfig::new(Duration::from_secs(30))
            .with_quiescence_grace(Duration::from_millis(50));
        let run = run_threaded_with(net, &cfg);
        assert_eq!(run.timed_out, vec!["col".to_owned()]);
        assert!(!run.cancelled);
        assert!(
            run.elapsed < Duration::from_secs(2),
            "quiescence window not honoured: {:?}",
            run.elapsed
        );
    }

    #[test]
    fn cancel_token_aborts_a_stuck_run() {
        let mut net = Network::new();
        let a = net.add_channel(Fifo::new("a", 1));
        // Collector with no producer: blocks forever.
        net.add_process(Collector::new("stuck", PortId::of(a), None));
        let token = CancelToken::new();
        let canceller = token.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        // Deadline and quiescence window both far beyond the cancel point.
        let cfg = ThreadedConfig::new(Duration::from_secs(30)).with_cancel(token);
        let run = run_threaded_with(net, &cfg);
        h.join().unwrap();
        assert!(run.cancelled);
        assert_eq!(run.timed_out, vec!["stuck".to_owned()]);
        assert!(run.elapsed < Duration::from_secs(5));
    }
}
