//! A reusable priority worker pool: one run queue, `n` workers.
//!
//! The fleet executor (`rtft-fleet`) runs many independent network
//! simulations concurrently; this pool is its execution substrate, kept in
//! `rtft-kpn` so other harnesses (bench campaigns, future batch runners)
//! can share it. Design:
//!
//! * **One run queue** — a single ordered map keyed by a caller-supplied
//!   `u64` priority (smaller runs first, FIFO among equals; the fleet uses
//!   absolute deadlines, making the pool an earliest-deadline-first
//!   scheduler). Every worker pops from it, so a free worker always runs
//!   the globally most urgent task — EDF holds across workers, not per
//!   worker.
//! * **Idle means asleep** — a worker with nothing to pop waits on the
//!   queue's condition variable until a submission or shutdown wakes it;
//!   there is no timer.
//! * **Panic isolation** — a panicking task is caught and counted; the
//!   worker thread survives. One misbehaving job cannot take down the
//!   pool (or, above it, the fleet).
//!
//! Dropping the pool drains it: workers keep executing until every
//! submitted task (including tasks submitted *by* running tasks) has run,
//! then exit and are joined.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Everything the workers share, behind one lock: what waits, how much
/// runs, and the lifetime counters.
struct RunQueue {
    /// Waiting tasks by `(priority, submission number)`: the first entry
    /// is the most urgent, FIFO among equal priorities.
    waiting: BTreeMap<(u64, u64), Task>,
    /// Tasks currently executing on a worker. Workers only exit once this
    /// and `waiting` are both empty under shutdown, so a running task may
    /// still submit follow-up work (the fleet's replacement runs rely on
    /// this).
    running: usize,
    shutdown: bool,
    submitted: u64,
    executed: u64,
    panicked: u64,
}

struct PoolShared {
    queue: Mutex<RunQueue>,
    /// Signalled once per submission, and to every worker when the pool
    /// is dropped and again when the drain completes.
    wake: Condvar,
}

fn worker_loop(shared: &PoolShared) {
    // Tasks run outside the lock and under `catch_unwind`: nothing can
    // poison it.
    let mut q = shared.queue.lock().unwrap();
    loop {
        if let Some((_, task)) = q.waiting.pop_first() {
            q.running += 1;
            drop(q);
            let panicked = catch_unwind(AssertUnwindSafe(task)).is_err();
            q = shared.queue.lock().unwrap();
            q.running -= 1;
            q.executed += 1;
            q.panicked += u64::from(panicked);
            if q.shutdown && q.running == 0 && q.waiting.is_empty() {
                // This task was the last thing keeping a dropped pool
                // alive: release the peers sleeping below.
                shared.wake.notify_all();
            }
        } else if q.shutdown && q.running == 0 {
            return;
        } else {
            q = shared.wake.wait(q).unwrap();
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
    /// Tasks that panicked (caught; the worker survived).
    pub panicked: u64,
}

/// Instantaneous backpressure snapshot of a [`WorkerPool`]: how much work
/// is waiting in the run queue and how much is executing right now.
///
/// Both numbers are read under the run queue's lock, so they always sum to
/// [`WorkerPool::pending`]. Services use this to report *real* queue depth
/// instead of inferring it from admission rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolLoad {
    /// Tasks sitting in the run queue, not yet started.
    pub queued: usize,
    /// Tasks currently executing on a worker thread.
    pub inflight: usize,
}

/// A bounded pool of worker threads over one priority run queue. See the
/// module docs for the scheduling discipline.
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
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(RunQueue {
                waiting: BTreeMap::new(),
                running: 0,
                shutdown: false,
                submitted: 0,
                executed: 0,
                panicked: 0,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a task with the given priority (smaller runs first; equal
    /// priorities run in submission order) and wakes one sleeping worker.
    pub fn submit(&self, priority: u64, f: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(f);
        let mut q = self.shared.queue.lock().unwrap();
        let key = (priority, q.submitted);
        q.submitted += 1;
        q.waiting.insert(key, task);
        drop(q);
        self.shared.wake.notify_one();
    }

    /// Tasks queued or currently running.
    pub fn pending(&self) -> usize {
        let q = self.shared.queue.lock().unwrap();
        q.waiting.len() + q.running
    }

    /// Queue-depth/inflight snapshot (see [`PoolLoad`]).
    pub fn load(&self) -> PoolLoad {
        let q = self.shared.queue.lock().unwrap();
        PoolLoad {
            queued: q.waiting.len(),
            inflight: q.running,
        }
    }

    /// Execution counters so far.
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queue.lock().unwrap();
        PoolStats {
            workers: self.workers(),
            executed: q.executed,
            panicked: q.panicked,
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
    /// counts as running. Every submitted task still runs; the workers
    /// exit on their own once the queue is empty.
    fn drop(&mut self) {
        // A poisoned queue takes every worker down with it (they unwrap
        // the lock), so the joins below still return.
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.wake.notify_all();
        let me = std::thread::current().id();
        if self.handles.iter().any(|h| h.thread().id() == me) {
            return;
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn idle_worker_runs_the_backlog_behind_a_busy_peer() {
        let pool = WorkerPool::new(2);
        // Park one worker in a long task, then queue a backlog behind it.
        let (release, parked) = mpsc::channel::<()>();
        pool.submit(0, move || parked.recv().unwrap());
        while pool.load().inflight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        for priority in 1..=8u64 {
            let order = Arc::clone(&order);
            pool.submit(priority, move || order.lock().unwrap().push(priority));
        }
        // The long task is still running when the backlog is gone: the
        // other worker ran all of it, most urgent first.
        while pool.pending() > 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock().unwrap(), (1..=8).collect::<Vec<u64>>());
        let load = pool.load();
        assert_eq!((load.queued, load.inflight), (0, 1), "{load:?}");
        release.send(()).unwrap();
    }

    #[test]
    fn one_free_worker_runs_the_backlog_in_global_priority_order() {
        let pool = WorkerPool::new(2);
        // Park both workers, each in its own gate task.
        let gates: Vec<mpsc::Sender<()>> = (0..2)
            .map(|_| {
                let (release, parked) = mpsc::channel::<()>();
                pool.submit(0, move || parked.recv().unwrap());
                release
            })
            .collect();
        while pool.load().inflight < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        for priority in [10u64, 20, 30, 40] {
            let order = Arc::clone(&order);
            pool.submit(priority, move || order.lock().unwrap().push(priority));
        }
        // One worker comes free: it must see the whole backlog, not the
        // half that happened to be handed to it.
        gates[1].send(()).unwrap();
        while pool.pending() > 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock().unwrap(), [10, 20, 30, 40]);
        gates[0].send(()).unwrap();
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
