//! The fleet executor: admission control, EDF scheduling, replacement.
//!
//! # Job lifecycle
//!
//! ```text
//!    submit() / run_or_submit()
//!    ┌───────────┴───────────┐
//!    ▼                       ▼
//! Rejected               Admitted ──► Queued (EDF by absolute deadline)
//! (queue full /              │            │
//!  shutting down)            │ lent slot  ▼
//!                            └───────► Running ──panic──► Failed
//!                            │
//!              ┌─────────────┴─────────────┐
//!              ▼                           ▼
//!       faulty replicas             no faulty replicas
//!      & attempts left                     │
//!              │                           ▼
//!              ▼                     Finished (completed / failed,
//!       Replacement queued            deadline met / missed)
//!       (healed template,                  │
//!        same JobId, EDF            attempt > 0 & completed
//!        against original                  │
//!        deadline)                         ▼
//!              │                       Recovered
//!              └──────► runs again ────────┘
//! ```
//!
//! # Admission and backpressure
//!
//! The executor never queues more than `pending_capacity` *outstanding*
//! jobs (admitted but not yet finished, replacements included). `submit`
//! on a full executor returns [`Admission::Rejected`] immediately — the
//! caller sheds load instead of blocking, mirroring how the paper's
//! replicator unblocks the producer on a full replica queue rather than
//! deadlocking the network.
//!
//! # Scheduling
//!
//! Every admitted job gets an absolute deadline (admission time plus its
//! relative deadline) which becomes its priority on the `rtft-kpn`
//! [`WorkerPool`] — smaller runs first, and all workers pop one shared run
//! queue, so the pool executes earliest-deadline-first across all tenants
//! and all workers.
//!
//! [`FleetExecutor::run_or_submit`] is the same admission for a caller
//! that would only wait for the settle: when nothing is queued and a pool
//! slot is free the job goes straight from `Admitted` to `Running` on the
//! caller's thread (the pool *lends* it the slot — see `rtft_kpn::pool`),
//! which is the order EDF would have produced anyway, minus one thread
//! wake-up. Everything that finds the pool busy queues as above, and a
//! replacement run always queues.
//!
//! # Replacement
//!
//! A run that comes back with latched-faulty replicas still *completes* —
//! that is the paper's fault masking. The fleet layer then re-spawns the
//! job from a healed copy of its template (up to `max_replacements`
//! times): the fleet-level analogue of replacing a faulty replica on a
//! spare core. Time from the fault observation to the replacement's
//! healthy completion is recorded as the job's time-to-recovery.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use rtft_kpn::{PoolStats, WorkerPool};
use rtft_obs::json::{array, JsonObject};

use crate::job::{execute, JobId, JobRunResult, JobSpec};
use crate::supervisor::{FleetStatus, FleetSupervisor};

/// Sizing and policy knobs of a [`FleetExecutor`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum outstanding (admitted but unfinished) jobs before
    /// `submit` rejects.
    pub pending_capacity: usize,
    /// Replacement runs allowed per job after fault observations.
    pub max_replacements: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            pending_capacity: 64,
            max_replacements: 1,
        }
    }
}

/// Outcome of [`FleetExecutor::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was queued under this id.
    Admitted(JobId),
    /// The job was refused; nothing was queued.
    Rejected(RejectReason),
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The outstanding-job limit was reached (backpressure).
    QueueFull {
        /// Outstanding jobs at the time of the attempt.
        pending: usize,
        /// The configured limit.
        capacity: usize,
    },
    /// [`FleetExecutor::shutdown`] was already called.
    ShuttingDown,
    /// A per-tenant quota (queue bytes-in-buffer or in-flight jobs) is
    /// exhausted. Produced by admission layers sitting in front of the
    /// executor (rtft-tenant); carried here so every refusal on the
    /// submission path shares one structured vocabulary.
    QuotaExceeded {
        /// Units of the quota already in use (tokens or jobs).
        used: u64,
        /// The configured limit.
        quota: u64,
    },
    /// A per-tenant token-rate limit refused the work for now.
    RateLimited {
        /// Nanoseconds until the token bucket will have refilled enough
        /// for the refused batch (0 when unknown). A retry hint, not a
        /// guarantee — other submitters drain the same bucket.
        retry_after_ns: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { pending, capacity } => {
                write!(f, "queue full ({pending} of {capacity} jobs outstanding)")
            }
            RejectReason::ShuttingDown => write!(f, "executor is shutting down"),
            RejectReason::QuotaExceeded { used, quota } => {
                write!(f, "quota exceeded ({used} of {quota} in use)")
            }
            RejectReason::RateLimited { retry_after_ns } => {
                write!(f, "rate limited (retry after {retry_after_ns} ns)")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// Callback invoked exactly once when a job settles (its final run —
/// original or last replacement — completed or panicked). The
/// [`JobRunResult`] is `None` only for panicked runs. Fired *before* the
/// job's outstanding slot is released, so [`FleetExecutor::join`] returns
/// only after every notifier has run.
pub type JobNotifier = Arc<dyn Fn(&JobRecord, Option<&JobRunResult>) + Send + Sync>;

/// Instantaneous backpressure view across the fleet: pool queue depth,
/// executing runs, and admitted-but-unfinished jobs against capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetLoad {
    /// Runs waiting in worker queues.
    pub queued: usize,
    /// Runs executing right now.
    pub inflight: usize,
    /// Admitted but unfinished jobs (replacements transfer, not add).
    pub outstanding: usize,
    /// The admission limit on `outstanding`.
    pub capacity: usize,
}

/// Final record of one job (its last run's observations).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Fleet-assigned id.
    pub id: JobId,
    /// Tenant name from the spec.
    pub name: String,
    /// Replacement runs this job consumed (0 = first run was final).
    pub attempts: u64,
    /// Tokens delivered by the final run.
    pub arrivals: u64,
    /// Tokens expected per run.
    pub expected: u64,
    /// Faulty replicas observed across all of the job's runs, ascending.
    pub faulty_replicas: Vec<usize>,
    /// Admission-to-final-completion wall time in nanoseconds.
    pub completion_ns: u64,
    /// Whether the final run finished inside the relative deadline.
    pub deadline_met: bool,
    /// Whether a replacement run came back healthy after a fault.
    pub recovered: bool,
    /// Whether the final run fell short of its expected tokens (or
    /// panicked).
    pub failed: bool,
}

impl JobRecord {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64_field("id", self.id.0)
            .str_field("name", &self.name)
            .u64_field("attempts", self.attempts)
            .u64_field("arrivals", self.arrivals)
            .u64_field("expected", self.expected)
            .raw_field(
                "faulty_replicas",
                &array(self.faulty_replicas.iter().map(|r| r.to_string())),
            )
            .u64_field("completion_ns", self.completion_ns)
            .bool_field("deadline_met", self.deadline_met)
            .bool_field("recovered", self.recovered)
            .bool_field("failed", self.failed)
            .finish()
    }
}

/// Everything [`FleetExecutor::join`] returns.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One record per admitted job, in completion order.
    pub runs: Vec<JobRecord>,
    /// Fleet-level counters and distributions.
    pub status: FleetStatus,
    /// Worker-pool counters (executed / panicked).
    pub pool: PoolStats,
}

impl FleetReport {
    /// Renders the report as a JSON object.
    ///
    /// The `jobs` array is emitted sorted by job id — `runs` itself stays
    /// in completion order (callers assert EDF ordering on it), but the
    /// serialized report must be byte-identical regardless of which of two
    /// equally-urgent jobs happened to finish first on a given run.
    pub fn to_json(&self) -> String {
        let mut ordered: Vec<&JobRecord> = self.runs.iter().collect();
        ordered.sort_by_key(|r| r.id.0);
        JsonObject::new()
            .raw_field("jobs", &array(ordered.iter().map(|r| r.to_json())))
            .raw_field("status", &self.status.to_json())
            .u64_field("pool_executed", self.pool.executed)
            .u64_field("pool_panicked", self.pool.panicked)
            .finish()
    }
}

struct FleetState {
    next_id: u64,
    /// Admitted but unfinished jobs (replacements transfer, not add).
    outstanding: usize,
    records: Vec<JobRecord>,
}

struct Inner {
    cfg: FleetConfig,
    epoch: Instant,
    pool: WorkerPool,
    supervisor: FleetSupervisor,
    state: Mutex<FleetState>,
    idle: Condvar,
    accepting: AtomicBool,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A multi-tenant job executor over the `rtft-kpn` worker pool. Cloning
/// shares the executor (submissions may come from many threads).
#[derive(Clone)]
pub struct FleetExecutor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FleetExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetExecutor")
            .field("workers", &self.inner.pool.workers())
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

impl FleetExecutor {
    /// Spawns the worker pool and an empty fleet.
    pub fn new(cfg: FleetConfig) -> Self {
        let pool = WorkerPool::new(cfg.workers);
        FleetExecutor {
            inner: Arc::new(Inner {
                cfg,
                epoch: Instant::now(),
                pool,
                supervisor: FleetSupervisor::new(),
                state: Mutex::new(FleetState {
                    next_id: 0,
                    outstanding: 0,
                    records: Vec::new(),
                }),
                idle: Condvar::new(),
                accepting: AtomicBool::new(true),
            }),
        }
    }

    /// The fleet supervisor (live metrics while jobs run).
    pub fn supervisor(&self) -> &FleetSupervisor {
        &self.inner.supervisor
    }

    /// Admitted-but-unfinished jobs right now.
    pub fn outstanding(&self) -> usize {
        self.inner.state.lock().unwrap().outstanding
    }

    /// Tries to admit a job. Non-blocking: a full fleet rejects instead
    /// of waiting.
    pub fn submit(&self, spec: JobSpec) -> Admission {
        self.submit_with(spec, None)
    }

    /// Like [`submit`](Self::submit), with an optional [`JobNotifier`]
    /// fired when the job settles — how a service (the `rtft-serve`
    /// front-end) pushes a job's outputs without waiting for the whole
    /// fleet to [`join`](Self::join).
    pub fn submit_with(&self, spec: JobSpec, notify: Option<JobNotifier>) -> Admission {
        self.admit(spec, notify, false)
    }

    /// [`submit_with`](Self::submit_with) for a caller with nothing to do
    /// until the job settles: same admission, and when the pool has
    /// nothing queued and a slot free the first run executes on the
    /// calling thread instead of waking a worker for a queue of one
    /// (`WorkerPool::run_or_submit`) — unless that run schedules a
    /// replacement, `notify` has fired by the time this returns. A busy
    /// pool queues the job exactly as `submit_with` does. A caller
    /// submitting a batch wants `submit_with`, whose jobs overlap.
    pub fn run_or_submit(&self, spec: JobSpec, notify: Option<JobNotifier>) -> Admission {
        self.admit(spec, notify, true)
    }

    /// The one admission routine: shutdown and capacity checks, id and
    /// absolute deadline, then the pool — which may lend the caller a
    /// slot when `may_lend`.
    fn admit(&self, spec: JobSpec, notify: Option<JobNotifier>, may_lend: bool) -> Admission {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::SeqCst) {
            inner.supervisor.on_rejected(inner.now_ns());
            return Admission::Rejected(RejectReason::ShuttingDown);
        }
        let admitted_ns = inner.now_ns();
        let (id, outstanding) = {
            let mut st = inner.state.lock().unwrap();
            if st.outstanding >= inner.cfg.pending_capacity {
                let pending = st.outstanding;
                drop(st);
                inner.supervisor.on_rejected(admitted_ns);
                return Admission::Rejected(RejectReason::QueueFull {
                    pending,
                    capacity: inner.cfg.pending_capacity,
                });
            }
            st.outstanding += 1;
            let id = JobId(st.next_id);
            st.next_id += 1;
            (id, st.outstanding)
        };
        inner.supervisor.on_submitted(id, admitted_ns);
        publish_load(inner, outstanding);
        let deadline_ns = admitted_ns.saturating_add(spec.relative_deadline.as_nanos() as u64);
        let task_inner = Arc::clone(inner);
        let task = move || {
            run_job(
                &task_inner,
                id,
                spec,
                0,
                admitted_ns,
                None,
                Vec::new(),
                notify,
            );
        };
        if !may_lend {
            inner.pool.submit(deadline_ns, task);
        } else if inner.pool.run_or_submit(deadline_ns, task) {
            inner.supervisor.on_lent();
        }
        Admission::Admitted(id)
    }

    /// Queue-depth/inflight/outstanding snapshot — the *real* backpressure
    /// behind `submit`'s accept/reject verdicts.
    pub fn load(&self) -> FleetLoad {
        let pool = self.inner.pool.load();
        FleetLoad {
            queued: pool.queued,
            inflight: pool.inflight,
            outstanding: self.outstanding(),
            capacity: self.inner.cfg.pending_capacity,
        }
    }

    /// Stops admitting new jobs (outstanding ones keep running).
    pub fn shutdown(&self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
    }

    /// Blocks until every admitted job (including replacements) has
    /// finished, then returns the fleet report. Further submissions are
    /// rejected.
    pub fn join(self) -> FleetReport {
        self.shutdown();
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        while st.outstanding > 0 {
            st = inner.idle.wait(st).unwrap();
        }
        let runs = st.records.clone();
        drop(st);
        FleetReport {
            runs,
            status: inner.supervisor.status(),
            pool: inner.pool.stats(),
        }
    }
}

/// Publishes the pool's load and the `outstanding` the caller just read
/// under the state lock to the supervisor's gauges (`fleet.pool.queued` /
/// `fleet.pool.inflight` / `fleet.jobs.outstanding`).
fn publish_load(inner: &Inner, outstanding: usize) {
    let pool = inner.pool.load();
    inner
        .supervisor
        .on_load(pool.queued as u64, pool.inflight as u64, outstanding as u64);
}

/// Fires a job's settle notifier, if it has one. Under `catch_unwind`: the
/// notifier is the caller's code, and a panic escaping here would skip
/// [`finish`] and leak the job's outstanding slot (hanging `join`) —
/// whichever thread holds the pool slot.
fn notify_settled(
    inner: &Inner,
    notify: &Option<JobNotifier>,
    record: &JobRecord,
    result: Option<&JobRunResult>,
) {
    let Some(notify) = notify else { return };
    if catch_unwind(AssertUnwindSafe(|| notify(record, result))).is_err() {
        inner
            .supervisor
            .on_notifier_panicked(record.id, inner.now_ns());
    }
}

/// Executes one run of a job in a pool slot (a worker's, or one lent to
/// the submitter) and settles its bookkeeping: either schedules a
/// replacement (transferring the outstanding slot) or records the final
/// result and releases the slot.
#[allow(clippy::too_many_arguments)]
fn run_job(
    inner: &Arc<Inner>,
    id: JobId,
    spec: JobSpec,
    attempt: u64,
    admitted_ns: u64,
    observed_fault_ns: Option<u64>,
    mut faulty_so_far: Vec<usize>,
    notify: Option<JobNotifier>,
) {
    // The builders can panic on malformed specs; isolate the run so the
    // outstanding count is settled either way (a leaked slot would hang
    // `join`).
    let result = catch_unwind(AssertUnwindSafe(|| execute(&spec.template, &spec.runtime)));
    let now_ns = inner.now_ns();
    let completion_ns = now_ns.saturating_sub(admitted_ns);
    let deadline_met = completion_ns <= spec.relative_deadline.as_nanos() as u64;

    let result = match result {
        Ok(r) => r,
        Err(_) => {
            inner.supervisor.on_run_panicked(id, now_ns);
            let record = JobRecord {
                id,
                name: spec.name,
                attempts: attempt,
                arrivals: 0,
                expected: spec.template.expected_tokens(),
                faulty_replicas: faulty_so_far,
                completion_ns,
                deadline_met: false,
                recovered: false,
                failed: true,
            };
            notify_settled(inner, &notify, &record, None);
            finish(inner, record);
            return;
        }
    };

    inner
        .supervisor
        .on_run_finished(id, &result, completion_ns, deadline_met);

    let recovered = attempt > 0 && result.faulty_replicas.is_empty() && result.completed();
    if recovered {
        let recovery_ns = now_ns.saturating_sub(observed_fault_ns.unwrap_or(admitted_ns));
        inner.supervisor.on_recovered(id, now_ns, recovery_ns);
    }

    faulty_so_far.extend(result.faulty_replicas.iter().copied());
    faulty_so_far.sort_unstable();
    faulty_so_far.dedup();

    // Fault observed and replacement budget left: re-spawn from a healed
    // template. The outstanding slot transfers to the replacement run, so
    // `join` keeps waiting for it.
    if !result.faulty_replicas.is_empty() && attempt < inner.cfg.max_replacements {
        inner
            .supervisor
            .on_replacement_scheduled(id, now_ns, attempt + 1);
        let healed = JobSpec {
            name: spec.name,
            template: spec.template.healed(),
            relative_deadline: spec.relative_deadline,
            runtime: spec.runtime,
        };
        let deadline_ns = admitted_ns.saturating_add(healed.relative_deadline.as_nanos() as u64);
        let task_inner = Arc::clone(inner);
        inner.pool.submit(deadline_ns, move || {
            run_job(
                &task_inner,
                id,
                healed,
                attempt + 1,
                admitted_ns,
                Some(now_ns),
                faulty_so_far,
                notify,
            );
        });
        return;
    }

    let record = JobRecord {
        id,
        name: spec.name,
        attempts: attempt,
        arrivals: result.arrivals,
        expected: result.expected,
        faulty_replicas: faulty_so_far,
        completion_ns,
        deadline_met,
        recovered,
        failed: !result.completed(),
    };
    // Settle notification before the outstanding slot is released, so
    // `join` implies every notifier already ran.
    notify_settled(inner, &notify, &record, Some(&result));
    finish(inner, record);
}

fn finish(inner: &Arc<Inner>, record: JobRecord) {
    let mut st = inner.state.lock().unwrap();
    st.records.push(record);
    st.outstanding -= 1;
    let outstanding = st.outstanding;
    if st.outstanding == 0 {
        inner.idle.notify_all();
    }
    drop(st);
    publish_load(inner, outstanding);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRuntime, JobTemplate, Redundancy};
    use rtft_kpn::Payload;
    use rtft_rtc::sizing::DuplicationModel;
    use rtft_rtc::{PjdModel, TimeNs};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A small duplicated DES job: 20 tokens at 30 ms.
    fn des_job(name: &str) -> JobSpec {
        let model = DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        );
        JobSpec {
            name: name.into(),
            template: JobTemplate::for_model(
                &model,
                Redundancy::Duplicated,
                1,
                20,
                Arc::new(Payload::U64),
            ),
            relative_deadline: Duration::from_secs(60),
            runtime: JobRuntime::DiscreteEvent {
                horizon: TimeNs::from_secs(20),
            },
        }
    }

    /// A notifier that panics costs its own settle and nothing else: the
    /// job's slot is released (`join` returns), the panic is counted, and
    /// a job submitted before it still reports — on a worker and in a
    /// lent slot alike.
    #[test]
    fn panicking_notifier_is_counted_and_the_job_still_settles() {
        for lend in [false, true] {
            let fleet = FleetExecutor::new(FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            });
            let settled = Arc::new(AtomicU64::new(0));
            let counting: JobNotifier = {
                let settled = Arc::clone(&settled);
                Arc::new(move |_, _| {
                    settled.fetch_add(1, Ordering::SeqCst);
                })
            };
            let panicking: JobNotifier = Arc::new(|_, _| panic!("notifier bug"));
            let first = fleet.submit_with(des_job("before"), Some(counting));
            let second = if lend {
                // Let the queue drain so the pool has a slot to lend.
                while fleet.outstanding() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                fleet.run_or_submit(des_job("panics"), Some(panicking))
            } else {
                fleet.submit_with(des_job("panics"), Some(panicking))
            };
            assert!(matches!(first, Admission::Admitted(_)));
            assert!(matches!(second, Admission::Admitted(_)));
            let supervisor = fleet.supervisor().clone();
            let report = fleet.join();
            assert_eq!(settled.load(Ordering::SeqCst), 1);
            let names: Vec<&str> = report.runs.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["before", "panics"]);
            assert!(report.runs.iter().all(|r| !r.failed), "{:?}", report.runs);
            assert_eq!(report.status.completed, 2);
            assert_eq!(report.pool.lent, u64::from(lend));
            let counter = |name| supervisor.registry().counter(name).get();
            assert_eq!(counter("fleet.notifier.panicked"), 1);
            assert_eq!(counter("fleet.pool.lent"), u64::from(lend));
            // The task itself did not panic: the notifier's was contained
            // before it reached the pool.
            assert_eq!(report.pool.panicked, 0);
        }
    }
}
