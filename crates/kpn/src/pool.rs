//! A reusable priority worker pool with per-worker run queues and work
//! stealing.
//!
//! The fleet executor (`rtft-fleet`) runs many independent network
//! simulations concurrently; this pool is its execution substrate, kept in
//! `rtft-kpn` so other harnesses (bench campaigns, future batch runners)
//! can share it. Design:
//!
//! * **Per-worker run queues** — each worker owns a binary heap ordered by
//!   a caller-supplied `u64` priority (smaller runs first; the fleet uses
//!   absolute deadlines, making the pool an earliest-deadline-first
//!   scheduler). Submission targets one worker's queue (round-robin by
//!   default), so the common path contends on one small lock.
//! * **Work stealing** — a worker whose own queue is empty scans its peers
//!   and steals their *most urgent* task. Classic stealing takes the
//!   victim's coldest end; under deadline scheduling the urgent end is the
//!   correct one — an idle core should always run the globally earliest
//!   deadline it can find.
//! * **Panic isolation** — a panicking task is caught and counted; the
//!   worker thread survives. One misbehaving job cannot take down the
//!   pool (or, above it, the fleet).
//!
//! Dropping the pool drains it: workers keep executing until every
//! submitted task (including tasks submitted *by* running tasks) has run,
//! then exit and are joined.

use crate::token::Bytes;
use rtft_obs::{Counter, MetricsRegistry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker sleeps before re-scanning for stealable work.
/// Submissions to a worker's own queue wake it immediately; this bounds
/// only the latency of *stealing* from a peer.
const IDLE_RESCAN: Duration = Duration::from_millis(1);

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PrioritizedTask {
    priority: u64,
    seq: u64,
    run: Task,
}

impl PrioritizedTask {
    /// Total order: priority first (smaller = more urgent), then FIFO.
    fn key(&self) -> (u64, u64) {
        (self.priority, self.seq)
    }
}

impl PartialEq for PrioritizedTask {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PrioritizedTask {}

impl PartialOrd for PrioritizedTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PrioritizedTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

struct WorkerQueue {
    heap: Mutex<BinaryHeap<Reverse<PrioritizedTask>>>,
    wake: Condvar,
}

struct PoolShared {
    queues: Vec<WorkerQueue>,
    /// Tasks queued **or currently running**. Workers only exit when this
    /// reaches zero under shutdown, so a running task may still submit
    /// follow-up work (the fleet's replacement runs rely on this).
    pending: AtomicUsize,
    /// Tasks currently executing on a worker (for the backpressure gauge
    /// surfaced as [`PoolLoad`]).
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    seq: AtomicU64,
    next_target: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
    panicked: AtomicU64,
}

impl PoolShared {
    fn pop_own(&self, index: usize) -> Option<PrioritizedTask> {
        self.queues[index]
            .heap
            .lock()
            .unwrap()
            .pop()
            .map(|Reverse(t)| t)
    }

    fn steal(&self, thief: usize) -> Option<PrioritizedTask> {
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            if let Some(Reverse(t)) = self.queues[victim].heap.lock().unwrap().pop() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    loop {
        let task = shared.pop_own(index).or_else(|| shared.steal(index));
        if let Some(t) = task {
            shared.inflight.fetch_add(1, Ordering::SeqCst);
            if catch_unwind(AssertUnwindSafe(t.run)).is_err() {
                shared.panicked.fetch_add(1, Ordering::Relaxed);
            }
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.executed.fetch_add(1, Ordering::Relaxed);
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) && shared.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let guard = shared.queues[index].heap.lock().unwrap();
        if guard.is_empty() {
            // Timed wait so peers' submissions become stealable promptly.
            let _ = shared.queues[index]
                .wake
                .wait_timeout(guard, IDLE_RESCAN)
                .expect("pool queue mutex poisoned");
        }
    }
}

/// Execution counters of a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Tasks executed (including panicked ones).
    pub executed: u64,
    /// Tasks a worker stole from a peer's queue.
    pub stolen: u64,
    /// Tasks that panicked (caught; the worker survived).
    pub panicked: u64,
}

/// Instantaneous backpressure snapshot of a [`WorkerPool`]: how much work
/// is waiting in run queues and how much is executing right now.
///
/// `queued` is exact (the queue locks are taken); `inflight` is a
/// relaxed-in-time atomic read, so during task handoff the two can
/// transiently sum to one less than [`WorkerPool::pending`]. Services use
/// this to report *real* queue depth instead of inferring it from
/// admission rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolLoad {
    /// Tasks sitting in worker run queues, not yet started.
    pub queued: usize,
    /// Tasks currently executing on a worker thread.
    pub inflight: usize,
}

/// A bounded pool of worker threads with per-worker priority run queues
/// and work stealing. See the module docs for the scheduling discipline.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("pending", &self.pending())
            .field("stats", &self.stats())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    heap: Mutex::new(BinaryHeap::new()),
                    wake: Condvar::new(),
                })
                .collect(),
            pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            next_target: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submits a task with the given priority (smaller runs first) to the
    /// next worker in round-robin order.
    pub fn submit(&self, priority: u64, f: impl FnOnce() + Send + 'static) {
        let target = self.shared.next_target.fetch_add(1, Ordering::Relaxed) % self.workers();
        self.submit_to(target, priority, f);
    }

    /// Submits a task to a specific worker's queue (`worker` is taken
    /// modulo the pool size). Peers can still steal it.
    pub fn submit_to(&self, worker: usize, priority: u64, f: impl FnOnce() + Send + 'static) {
        let w = worker % self.workers();
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let mut q = self.shared.queues[w].heap.lock().unwrap();
        q.push(Reverse(PrioritizedTask {
            priority,
            seq,
            run: Box::new(f),
        }));
        drop(q);
        self.shared.queues[w].wake.notify_one();
    }

    /// Tasks queued or currently running.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// Queue-depth/inflight snapshot (see [`PoolLoad`]).
    pub fn load(&self) -> PoolLoad {
        PoolLoad {
            queued: self
                .shared
                .queues
                .iter()
                .map(|q| q.heap.lock().unwrap().len())
                .sum(),
            inflight: self.shared.inflight.load(Ordering::SeqCst),
        }
    }

    /// Per-worker run-queue depths, in worker order (diagnostics; exposes
    /// imbalance the work-stealing normally hides).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|q| q.heap.lock().unwrap().len())
            .collect()
    }

    /// Execution counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers(),
            executed: self.shared.executed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    /// Drains the pool: blocks until every submitted task has run, then
    /// joins the workers.
    ///
    /// Dropped from inside one of its own tasks (the task held the last
    /// owner), the pool detaches its workers instead: a thread cannot join
    /// itself, and its peers do not exit while the dropping task still
    /// counts as pending. Every submitted task still runs; the workers
    /// exit on their own once the queues are empty.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.wake.notify_all();
        }
        let me = std::thread::current().id();
        if self.handles.iter().any(|h| h.thread().id() == me) {
            return;
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Payload buffer pool
// ---------------------------------------------------------------------------

/// A recycling arena for [`Bytes`] payload buffers.
///
/// Token payloads are `Arc<[u8]>`, so cloning them through the channel ring
/// is already free — but *creating* one per ingested frame is a heap
/// allocation on the hot ingest path. The pool closes that gap: buffers are
/// parked on exact-length shelves when the last owner settles a batch, and
/// the next frame of the same size reuses the allocation in place via
/// [`Arc::get_mut`]. In steady state (fleet jobs cycling same-shaped
/// frames) token flow performs zero heap allocations.
///
/// Exact-length shelving is deliberate: `Arc<[u8]>` carries its length in
/// the fat pointer, so a recycled buffer can only ever be refilled with a
/// payload of the *same* size. Workloads here are framed (fixed-size ADPCM
/// blocks, fixed-width sensor words), which makes exact-match hit rates
/// high; odd-sized one-offs simply miss and allocate.
///
/// All operations are thread-safe; counters (`kpn.pool.*` when attached to
/// a [`MetricsRegistry`]) expose hit/miss/recycle/discard totals so tests
/// and benches can assert reuse actually happens.
pub struct PayloadPool {
    shelves: Mutex<HashMap<usize, Vec<Bytes>>>,
    /// Buffers offered back while still shared (an in-flight job holds
    /// clones); reclaimed lazily by [`take`](PayloadPool::take) once the
    /// last clone drops.
    parked: Mutex<Vec<Bytes>>,
    /// Retained buffers per distinct length; beyond this, recycles discard.
    per_len_cap: usize,
    hits: Counter,
    misses: Counter,
    recycled: Counter,
    discarded: Counter,
}

/// Snapshot of a pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadPoolStats {
    /// `take` calls satisfied from a shelf (no allocation).
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back onto a shelf.
    pub recycled: u64,
    /// Buffers rejected at recycle (still shared, or shelf full).
    pub discarded: u64,
}

impl PayloadPoolStats {
    /// Fraction of takes served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A uniquely-owned buffer checked out of a [`PayloadPool`].
///
/// Holds the only reference to its `Arc<[u8]>`, so the contents are
/// mutable in place (a socket can read straight into it). [`freeze`]
/// relinquishes mutability and yields the shareable [`Bytes`].
///
/// [`freeze`]: PoolBuf::freeze
#[derive(Debug)]
pub struct PoolBuf {
    buf: Bytes,
}

impl PoolBuf {
    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.buf).expect("PoolBuf invariant: uniquely owned")
    }

    /// Buffer length in bytes (fixed at `take`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable, shareable payload.
    #[inline]
    pub fn freeze(self) -> Bytes {
        self.buf
    }
}

impl Default for PayloadPool {
    fn default() -> Self {
        PayloadPool::new()
    }
}

impl fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("PayloadPool")
            .field("per_len_cap", &self.per_len_cap)
            .field("stats", &stats)
            .finish()
    }
}

impl PayloadPool {
    /// Default shelf depth per distinct buffer length.
    pub const DEFAULT_PER_LEN_CAP: usize = 64;

    /// Upper bound on buffers waiting in the deferred-reclaim parking
    /// lot (see [`park`](PayloadPool::park)).
    pub const PARK_CAP: usize = 1024;

    /// A pool with the default per-length shelf depth and free-floating
    /// counters.
    pub fn new() -> Self {
        PayloadPool::with_per_len_cap(PayloadPool::DEFAULT_PER_LEN_CAP)
    }

    /// A pool retaining at most `cap` buffers per distinct length.
    pub fn with_per_len_cap(cap: usize) -> Self {
        PayloadPool {
            shelves: Mutex::new(HashMap::new()),
            parked: Mutex::new(Vec::new()),
            per_len_cap: cap,
            hits: Counter::new(),
            misses: Counter::new(),
            recycled: Counter::new(),
            discarded: Counter::new(),
        }
    }

    /// A pool whose counters are registered as `kpn.pool.{hits,misses,
    /// recycled,discarded}` in `registry`.
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        let mut pool = PayloadPool::new();
        pool.hits = registry.counter("kpn.pool.hits");
        pool.misses = registry.counter("kpn.pool.misses");
        pool.recycled = registry.counter("kpn.pool.recycled");
        pool.discarded = registry.counter("kpn.pool.discarded");
        pool
    }

    /// Checks out a uniquely-owned buffer of exactly `len` bytes.
    ///
    /// Shelf hit: the recycled allocation is returned as-is (contents are
    /// whatever the previous payload held — callers overwrite). Miss: a
    /// fresh zeroed buffer is allocated.
    pub fn take(&self, len: usize) -> PoolBuf {
        self.scavenge();
        if let Some(buf) = self
            .shelves
            .lock()
            .unwrap()
            .get_mut(&len)
            .and_then(Vec::pop)
        {
            debug_assert_eq!(Arc::strong_count(&buf), 1);
            self.hits.inc();
            return PoolBuf { buf };
        }
        self.misses.inc();
        PoolBuf {
            buf: Bytes::from(vec![0u8; len]),
        }
    }

    /// Copies `data` into a pooled buffer and freezes it — the common
    /// "ingest one frame" operation in a single call.
    pub fn take_copy(&self, data: &[u8]) -> Bytes {
        let mut buf = self.take(data.len());
        buf.as_mut_slice().copy_from_slice(data);
        buf.freeze()
    }

    /// Offers a payload back to the pool once its batch has settled.
    ///
    /// Accepted (returns `true`) only when this is the last reference —
    /// a buffer still shared with a WAL record or an in-flight response
    /// cannot be mutated and is dropped instead — and the shelf for its
    /// length is below the cap.
    pub fn recycle(&self, mut buf: Bytes) -> bool {
        if Arc::get_mut(&mut buf).is_none() {
            self.discarded.inc();
            return false;
        }
        let mut shelves = self.shelves.lock().unwrap();
        let shelf = shelves.entry(buf.len()).or_default();
        if shelf.len() >= self.per_len_cap {
            self.discarded.inc();
            return false;
        }
        shelf.push(buf);
        self.recycled.inc();
        true
    }

    /// Offers a payload back that may *still be shared* — typically with
    /// a fleet job that has settled but not yet dropped its spec. The
    /// buffer is parked and reclaimed by a later [`take`] once the last
    /// clone drops; a buffer parked while already unique shelves on the
    /// next take just the same.
    ///
    /// The parking lot is bounded ([`PARK_CAP`](PayloadPool::PARK_CAP));
    /// beyond it the offer is discarded immediately.
    ///
    /// [`take`]: PayloadPool::take
    pub fn park(&self, buf: Bytes) {
        let mut parked = self.parked.lock().unwrap();
        if parked.len() >= PayloadPool::PARK_CAP {
            self.discarded.inc();
            return;
        }
        parked.push(buf);
    }

    /// Moves every parked buffer whose last external clone has dropped
    /// onto its shelf; still-shared buffers stay parked.
    fn scavenge(&self) {
        let mut parked = self.parked.lock().unwrap();
        if parked.is_empty() {
            return;
        }
        let candidates = std::mem::take(&mut *parked);
        // Recycle outside the parked lock (recycle takes the shelf lock);
        // survivors are re-parked afterwards.
        drop(parked);
        let mut still_shared = Vec::new();
        for mut buf in candidates {
            if Arc::get_mut(&mut buf).is_some() {
                self.recycle(buf);
            } else {
                still_shared.push(buf);
            }
        }
        if !still_shared.is_empty() {
            self.parked.lock().unwrap().extend(still_shared);
        }
    }

    /// Lifetime counter snapshot.
    pub fn stats(&self) -> PayloadPoolStats {
        PayloadPoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            recycled: self.recycled.get(),
            discarded: self.discarded.get(),
        }
    }

    /// Buffers currently shelved across all lengths.
    pub fn shelved(&self) -> usize {
        self.shelves.lock().unwrap().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_everything_before_drop_returns() {
        let counter = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::new(3);
        for i in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(i, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn last_owner_dropped_inside_a_task_detaches_instead_of_self_joining() {
        let pool = Arc::new(WorkerPool::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let owner = Arc::clone(&pool);
        pool.submit(0, move || {
            // Wait until the test thread has given up its owner, so the
            // drop below is the last one and runs on this worker.
            go_rx.recv().unwrap();
            let peer_done = done_tx.clone();
            owner.submit(1, move || peer_done.send("queued task").unwrap());
            drop(owner);
            done_tx.send("dropping task").unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        let mut seen: Vec<&str> = (0..2)
            .map(|_| done_rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, ["dropping task", "queued task"]);
    }

    #[test]
    fn single_worker_runs_in_priority_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let pool = WorkerPool::new(1);
        // Block the worker so the queue fills before anything runs.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.submit(0, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        for (priority, label) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let order = Arc::clone(&order);
            pool.submit(priority, move || order.lock().unwrap().push(label));
        }
        gate.store(true, Ordering::SeqCst);
        drop(pool);
        assert_eq!(*order.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn idle_worker_steals_from_loaded_peer() {
        let pool = WorkerPool::new(2);
        let running = Arc::new(AtomicU64::new(0));
        // Pin a long task plus a backlog onto worker 0 only.
        {
            let running = Arc::clone(&running);
            pool.submit_to(0, 0, move || {
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
            });
        }
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..8 {
            let done = Arc::clone(&done);
            pool.submit_to(0, i + 1, move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Wait for the drain; worker 1 must have stolen the backlog while
        // worker 0 slept in the long task.
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert!(stats.stolen > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn load_gauge_tracks_queued_and_inflight() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.submit(0, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Wait until the gate task is actually executing.
        while pool.load().inflight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..4 {
            pool.submit(i + 1, || {});
        }
        let load = pool.load();
        assert_eq!(load.inflight, 1, "{load:?}");
        assert_eq!(load.queued, 4, "{load:?}");
        assert_eq!(pool.queue_depths().iter().sum::<usize>(), 4);
        gate.store(true, Ordering::SeqCst);
        drop(pool);
    }

    #[test]
    fn panicking_task_is_counted_and_pool_survives() {
        let pool = WorkerPool::new(1);
        pool.submit(0, || panic!("tenant bug"));
        let ok = Arc::new(AtomicU64::new(0));
        {
            let ok = Arc::clone(&ok);
            pool.submit(1, move || {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        }
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ok.load(Ordering::SeqCst), 1, "worker survived the panic");
        assert_eq!(pool.stats().panicked, 1);
    }
}

#[cfg(test)]
mod payload_pool_tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused_not_reallocated() {
        let pool = PayloadPool::new();
        let first = pool.take_copy(b"hello scc");
        let addr = first.as_ptr();
        assert!(pool.recycle(first), "sole owner must be accepted");

        let second = pool.take_copy(b"bye scc!!"); // same length → shelf hit
        assert_eq!(second.as_ptr(), addr, "allocation must be reused in place");
        assert_eq!(&second[..], b"bye scc!!");

        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn steady_state_cycle_allocates_once() {
        let pool = PayloadPool::new();
        for i in 0..1000u32 {
            let payload = pool.take_copy(&i.to_le_bytes());
            assert_eq!(&payload[..], i.to_le_bytes());
            assert!(pool.recycle(payload));
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "steady state must not allocate");
        assert_eq!(stats.hits, 999);
        assert!(stats.hit_rate() > 0.99, "{stats:?}");
    }

    #[test]
    fn shared_buffer_is_discarded_not_shelved() {
        let pool = PayloadPool::new();
        let payload = pool.take_copy(b"shared");
        let alias = Bytes::clone(&payload);
        assert!(!pool.recycle(payload), "shared buffer must be rejected");
        assert_eq!(pool.stats().discarded, 1);
        assert_eq!(pool.shelved(), 0);
        drop(alias);
    }

    #[test]
    fn shelf_cap_bounds_retention() {
        let pool = PayloadPool::with_per_len_cap(2);
        let bufs: Vec<Bytes> = (0..3).map(|_| pool.take_copy(&[0u8; 16])).collect();
        let mut kept = 0;
        for b in bufs {
            if pool.recycle(b) {
                kept += 1;
            }
        }
        assert_eq!(kept, 2);
        assert_eq!(pool.shelved(), 2);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn lengths_shelve_independently_and_counters_reach_registry() {
        let registry = MetricsRegistry::new();
        let pool = PayloadPool::with_metrics(&registry);
        let a = pool.take_copy(&[1u8; 8]);
        let b = pool.take_copy(&[2u8; 32]);
        pool.recycle(a);
        pool.recycle(b);
        let c = pool.take(8);
        assert_eq!(c.len(), 8);
        assert_eq!(registry.counter("kpn.pool.hits").get(), 1);
        assert_eq!(registry.counter("kpn.pool.misses").get(), 2);
        assert_eq!(registry.counter("kpn.pool.recycled").get(), 2);
        assert_eq!(pool.shelved(), 1, "only the 32-byte shelf remains");
    }

    #[test]
    fn parked_buffer_is_reclaimed_once_clones_drop() {
        let pool = PayloadPool::new();
        let payload = pool.take_copy(b"in flight");
        let addr = payload.as_ptr();
        let job_clone = Bytes::clone(&payload);
        pool.park(payload); // still shared: stays parked, not shelved
        assert_eq!(pool.shelved(), 0);

        let other = pool.take_copy(b"different length"); // scavenge: no-op
        assert_eq!(pool.stats().recycled, 0);

        drop(job_clone); // the "job" releases its reference
        let reused = pool.take_copy(b"new frame"); // scavenge reclaims...
        assert_eq!(reused.as_ptr(), addr, "...and the shelf hit reuses it");
        assert_eq!(pool.stats().recycled, 1);
        drop(other);
    }

    #[test]
    fn empty_payloads_round_trip() {
        let pool = PayloadPool::new();
        let empty = pool.take_copy(&[]);
        assert!(empty.is_empty());
        pool.recycle(empty);
        assert!(pool.take(0).is_empty());
    }
}
