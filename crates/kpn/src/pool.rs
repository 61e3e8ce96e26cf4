//! A reusable priority worker pool: one run queue, `n` slots.
//!
//! The fleet executor (`rtft-fleet`) runs many independent network
//! simulations concurrently; this pool is its execution substrate, kept in
//! `rtft-kpn` so other harnesses (bench campaigns, future batch runners)
//! can share it. Design:
//!
//! * **One run queue** — a single ordered map keyed by a caller-supplied
//!   `u64` priority (smaller runs first, FIFO among equals; the fleet uses
//!   absolute deadlines, making the pool an earliest-deadline-first
//!   scheduler). Every worker pops from it, so a free slot always runs
//!   the globally most urgent task — EDF holds across workers, not per
//!   worker.
//! * **Slots, not threads** — at most `n` tasks run at once, and what is
//!   counted is `running`, not which thread runs them. The pool owns `n`
//!   worker threads that pop while `running < n`;
//!   [`WorkerPool::run_or_submit`] lets a submitter that would only sleep
//!   until its task is done claim a slot itself when the queue is empty
//!   and a slot is free — exactly the case in which a worker would have
//!   popped the task at once, so the order of everything that *waits* is
//!   still the map's. A lent slot is released through the same routine a
//!   worker's is, and that routine wakes a worker when the release
//!   unblocks a queued task: a submit that found every slot taken woke a
//!   worker that went back to sleep, and a lender — unlike a worker —
//!   does not come back to pop.
//! * **Idle means asleep** — a worker with nothing to pop waits on the
//!   queue's condition variable until a submission, a released slot or
//!   shutdown wakes it; there is no timer.
//! * **Panic isolation** — a panicking task is caught and counted; the
//!   thread that ran it survives. One misbehaving job cannot take down
//!   the pool (or, above it, the fleet).
//!
//! Dropping the pool drains it: workers keep executing until every
//! submitted task (including tasks submitted *by* running tasks) has run,
//! then exit and are joined. A lender borrows the pool for the length of
//! its run, so a drop never finds a slot lent out.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Everything the workers share, behind one lock: what waits, how much
/// runs, and the lifetime counters.
struct RunQueue {
    /// Waiting tasks by `(priority, submission number)`: the first entry
    /// is the most urgent, FIFO among equal priorities.
    waiting: BTreeMap<(u64, u64), Task>,
    /// Slots taken: tasks currently executing, on a worker or on a
    /// lender's thread. Never above `workers`. Workers only exit once
    /// this and `waiting` are both empty under shutdown, so a running
    /// task may still submit follow-up work (the fleet's replacement runs
    /// rely on this).
    running: usize,
    /// Slots there are (= worker threads spawned).
    workers: usize,
    shutdown: bool,
    submitted: u64,
    executed: u64,
    panicked: u64,
    lent: u64,
}

struct PoolShared {
    queue: Mutex<RunQueue>,
    /// Signalled once per submission, once when a lender's release
    /// unblocks a queued task, and to every worker when the pool is
    /// dropped and again when the drain completes.
    wake: Condvar,
}

impl PoolShared {
    /// Runs `task` in a slot the caller already took (`running += 1`
    /// under the lock `q` was), releases the slot and returns the lock
    /// re-taken. The one way a task executes, on a worker and on a
    /// lender alike. Tasks run outside the lock and under `catch_unwind`:
    /// nothing can poison it.
    fn run_in_slot<'a>(
        &'a self,
        q: MutexGuard<'a, RunQueue>,
        task: Task,
        lent: bool,
    ) -> MutexGuard<'a, RunQueue> {
        drop(q);
        let panicked = catch_unwind(AssertUnwindSafe(task)).is_err();
        let mut q = self.queue.lock().unwrap();
        q.running -= 1;
        q.executed += 1;
        q.panicked += u64::from(panicked);
        q.lent += u64::from(lent);
        if q.shutdown && q.running == 0 && q.waiting.is_empty() {
            // This task was the last thing keeping a dropped pool alive:
            // release the workers sleeping in `worker_loop`.
            self.wake.notify_all();
        } else if lent && !q.waiting.is_empty() {
            // Whatever queued behind a lent slot woke a worker that found
            // no slot and went back to sleep. A worker pops again by
            // itself; a lender leaves, so it passes the slot on.
            self.wake.notify_one();
        }
        q
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut q = shared.queue.lock().unwrap();
    loop {
        if q.running < q.workers {
            if let Some((_, task)) = q.waiting.pop_first() {
                q.running += 1;
                q = shared.run_in_slot(q, task, false);
                continue;
            }
        }
        // Nothing running leaves every slot free, so nothing waits either.
        if q.shutdown && q.running == 0 {
            return;
        }
        q = shared.wake.wait(q).unwrap();
    }
}

/// Execution counters of a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads (= slots).
    pub workers: usize,
    /// Tasks executed (including panicked ones).
    pub executed: u64,
    /// Tasks that panicked (caught; the thread that ran them survived).
    pub panicked: u64,
    /// Tasks executed on their submitter's thread in a lent slot
    /// ([`WorkerPool::run_or_submit`]); a subset of `executed`.
    pub lent: u64,
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
    /// Tasks currently executing, on a worker thread or in a lent slot.
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
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(RunQueue {
                waiting: BTreeMap::new(),
                running: 0,
                workers,
                shutdown: false,
                submitted: 0,
                executed: 0,
                panicked: 0,
                lent: 0,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
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
        let q = self.shared.queue.lock().unwrap();
        self.enqueue(q, priority, task);
    }

    /// [`submit`](Self::submit) for a caller that would only sleep until
    /// `f` has run: when nothing waits and a slot is free — when a worker
    /// would pop `f` at once — the caller takes the slot and runs `f` on
    /// its own thread, saving the wake-up of a worker; it returns `true`
    /// once `f` is done. Otherwise `f` queues exactly as with `submit`
    /// and the call returns `false` at once. A caller with more to submit
    /// wants `submit`: a lent run overlaps with nothing the caller does.
    pub fn run_or_submit(&self, priority: u64, f: impl FnOnce() + Send + 'static) -> bool {
        let task: Task = Box::new(f);
        let mut q = self.shared.queue.lock().unwrap();
        if q.waiting.is_empty() && q.running < q.workers && !q.shutdown {
            q.running += 1;
            drop(self.shared.run_in_slot(q, task, true));
            return true;
        }
        self.enqueue(q, priority, task);
        false
    }

    fn enqueue(&self, mut q: MutexGuard<'_, RunQueue>, priority: u64, task: Task) {
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
            lent: q.lent,
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

    /// Parks a lent run on its own thread and returns once it holds its
    /// slot: `(release, lender)`. The lender thread shares `pool`, runs
    /// the gate task through `run_or_submit` and reports what that
    /// returned.
    fn lend_a_gated_slot(
        pool: &Arc<WorkerPool>,
    ) -> (mpsc::Sender<()>, std::thread::JoinHandle<bool>) {
        let (release, parked) = mpsc::channel::<()>();
        let (started_tx, started) = mpsc::channel::<()>();
        let pool = Arc::clone(pool);
        let lender = std::thread::spawn(move || {
            pool.run_or_submit(0, move || {
                started_tx.send(()).unwrap();
                parked.recv().unwrap();
            })
        });
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        (release, lender)
    }

    #[test]
    fn idle_pool_lends_its_slot_to_the_submitter() {
        let pool = WorkerPool::new(2);
        let ran_on = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&ran_on);
        let lent = pool.run_or_submit(7, move || {
            *seen.lock().unwrap() = Some(std::thread::current().id());
        });
        // `true` means done, not queued: no waiting for a worker.
        assert!(lent);
        assert_eq!(*ran_on.lock().unwrap(), Some(std::thread::current().id()));
        let stats = pool.stats();
        assert_eq!((stats.executed, stats.lent, stats.panicked), (1, 1, 0));
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn run_or_submit_queues_for_a_worker_when_every_slot_is_held() {
        let pool = WorkerPool::new(1);
        let (release, parked) = mpsc::channel::<()>();
        pool.submit(0, move || parked.recv().unwrap());
        while pool.load().inflight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (ran_tx, ran) = mpsc::channel();
        let lent = pool.run_or_submit(1, move || {
            ran_tx.send(std::thread::current().id()).unwrap();
        });
        assert!(!lent);
        let load = pool.load();
        assert_eq!((load.queued, load.inflight), (1, 1), "{load:?}");
        release.send(()).unwrap();
        let ran_on = ran.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ran_on, pool.handles[0].thread().id());
    }

    #[test]
    fn run_or_submit_never_overtakes_a_queued_task() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        // A submission whose wake-up is still on its way to the worker:
        // the slot is free, the queue is not empty.
        {
            let order = Arc::clone(&order);
            let mut q = pool.shared.queue.lock().unwrap();
            let key = (10, q.submitted);
            q.submitted += 1;
            q.waiting
                .insert(key, Box::new(move || order.lock().unwrap().push("queued")));
        }
        let lent = {
            let order = Arc::clone(&order);
            pool.run_or_submit(10, move || order.lock().unwrap().push("later"))
        };
        assert!(!lent, "a free slot is not enough: something waits");
        drop(pool);
        assert_eq!(*order.lock().unwrap(), ["queued", "later"]);
    }

    #[test]
    fn lenders_and_workers_together_never_exceed_the_slots() {
        const SUBMITTERS: u64 = 4;
        const TASKS: u64 = 2_000;
        for workers in 1..=3usize {
            let pool = WorkerPool::new(workers);
            let now = Arc::new(AtomicU64::new(0));
            let peak = Arc::new(AtomicU64::new(0));
            let done = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for t in 0..SUBMITTERS {
                    let (pool, now, peak, done) = (&pool, &now, &peak, &done);
                    s.spawn(move || {
                        for i in 0..TASKS {
                            let (now, peak, done) =
                                (Arc::clone(now), Arc::clone(peak), Arc::clone(done));
                            let task = move || {
                                let inside = now.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(inside, Ordering::SeqCst);
                                std::hint::spin_loop();
                                now.fetch_sub(1, Ordering::SeqCst);
                                done.fetch_add(1, Ordering::SeqCst);
                            };
                            if (i + t) % 3 == 0 {
                                pool.submit(i, task);
                            } else {
                                pool.run_or_submit(i, task);
                            }
                        }
                    });
                }
            });
            // No further submission and no drop: a task stranded in the
            // queue with every worker asleep would stay there.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while pool.pending() > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "stranded: {:?} with {workers} workers",
                    pool.load()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let stats = pool.stats();
            assert_eq!(done.load(Ordering::SeqCst), SUBMITTERS * TASKS);
            assert_eq!(stats.executed, SUBMITTERS * TASKS);
            assert!(stats.lent <= stats.executed, "{stats:?}");
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers as u64,
                "{peak} tasks ran at once on {workers} slots"
            );
        }
    }

    #[test]
    fn panicking_lent_task_is_caught_and_its_slot_comes_back() {
        let pool = WorkerPool::new(1);
        assert!(pool.run_or_submit(0, || panic!("tenant bug")));
        let stats = pool.stats();
        assert_eq!((stats.executed, stats.lent, stats.panicked), (1, 1, 1));
        assert_eq!(pool.load(), PoolLoad::default());
        // The only slot is free again: the next run is lent too.
        assert!(pool.run_or_submit(0, || {}));
        assert_eq!(pool.stats().lent, 2);
    }

    /// A lender borrows the pool, so a drop cannot find a slot lent out;
    /// the nearest schedule is the lender itself releasing the last owner
    /// the moment its run returns, with work queued behind the lent slot.
    #[test]
    fn last_owner_released_by_a_lender_drains_and_joins() {
        let pool = Arc::new(WorkerPool::new(1));
        let (release, lender) = lend_a_gated_slot(&pool);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..3 {
            let c = Arc::clone(&counter);
            pool.submit(i, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(pool.load().queued, 3, "the only slot is lent out");
        drop(pool);
        release.send(()).unwrap();
        // The lender thread's `Arc` was the last: its exit ran the drop.
        assert!(lender.join().unwrap());
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn task_queued_behind_lent_slots_runs_when_a_lender_finishes() {
        let pool = Arc::new(WorkerPool::new(1));
        let (release, lender) = lend_a_gated_slot(&pool);
        let (ran_tx, ran) = mpsc::channel();
        pool.submit(1, move || ran_tx.send(()).unwrap());
        // Let the worker take the submission's wake-up, find no slot and
        // go back to sleep: from here only the lender can wake it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.load().queued, 1);
        release.send(()).unwrap();
        assert!(lender.join().unwrap());
        ran.recv_timeout(Duration::from_secs(10))
            .expect("the lender's release must wake a worker");
        assert_eq!(pool.stats().lent, 1);
    }
}
