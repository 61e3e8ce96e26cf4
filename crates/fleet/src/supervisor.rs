//! Fleet-level health folding.
//!
//! Each job run carries its own private [`MetricsRegistry`] (and, for
//! duplicated jobs, a [`HealthModel`]). The supervisor owns the *fleet*
//! registry and folds every completed run into it exactly once via
//! [`MetricsRegistry::absorb`], so fleet-level dashboards see one merged
//! view: total detections, the combined detection-latency distribution,
//! per-queue high-water marks across all tenants — plus the fleet's own
//! lifecycle counters (admissions, rejections, replacements, recoveries).

use rtft_obs::export::events_to_jsonl;
use rtft_obs::{
    ClockDomain, Counter, EventRecord, EventSink, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry,
};

use crate::job::{JobId, JobRunResult};

/// Capacity of the supervisor's lifecycle event ring.
const EVENT_CAPACITY: usize = 1024;

/// Folds per-job observations into fleet-level metrics and events.
#[derive(Debug, Clone)]
pub struct FleetSupervisor {
    registry: MetricsRegistry,
    events: EventSink,
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
    replaced: Counter,
    recovered: Counter,
    deadline_missed: Counter,
    faulty_replicas: Counter,
    completion_ns: Histogram,
    recovery_ns: Histogram,
    detection_latency_ns: Histogram,
    pool_queued: Gauge,
    pool_inflight: Gauge,
    pool_lent: Counter,
    notifier_panicked: Counter,
    outstanding: Gauge,
}

impl Default for FleetSupervisor {
    fn default() -> Self {
        FleetSupervisor::new()
    }
}

impl FleetSupervisor {
    /// A fresh supervisor with an empty fleet registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        FleetSupervisor {
            submitted: registry.counter("fleet.jobs.submitted"),
            rejected: registry.counter("fleet.jobs.rejected"),
            completed: registry.counter("fleet.jobs.completed"),
            failed: registry.counter("fleet.jobs.failed"),
            replaced: registry.counter("fleet.jobs.replaced"),
            recovered: registry.counter("fleet.jobs.recovered"),
            deadline_missed: registry.counter("fleet.deadline.missed"),
            faulty_replicas: registry.counter("fleet.replicas.faulty"),
            completion_ns: registry.histogram("fleet.completion_ns"),
            recovery_ns: registry.histogram("fleet.recovery_ns"),
            detection_latency_ns: registry.histogram("fleet.detection_latency_ns"),
            pool_queued: registry.gauge("fleet.pool.queued"),
            pool_inflight: registry.gauge("fleet.pool.inflight"),
            pool_lent: registry.counter("fleet.pool.lent"),
            notifier_panicked: registry.counter("fleet.notifier.panicked"),
            outstanding: registry.gauge("fleet.jobs.outstanding"),
            events: EventSink::new(EVENT_CAPACITY),
            registry,
        }
    }

    /// The fleet registry (merged view across all folded jobs).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn event(&self, name: &'static str, at_ns: u64, job: JobId, value: u64) {
        self.events.push(EventRecord {
            at_ns,
            clock: ClockDomain::Wall,
            name,
            node: Some(job.0 as usize),
            channel: None,
            value,
        });
    }

    /// Records an admission.
    pub fn on_submitted(&self, job: JobId, at_ns: u64) {
        self.submitted.inc();
        self.event("fleet.job.submitted", at_ns, job, 0);
    }

    /// Records a rejection (backpressure or shutdown).
    pub fn on_rejected(&self, at_ns: u64) {
        self.rejected.inc();
        self.event("fleet.job.rejected", at_ns, JobId(u64::MAX), 0);
    }

    /// Folds one finished run into the fleet view. `completion_ns` is the
    /// wall time from admission to this run's completion; `deadline_met`
    /// is the executor's verdict against the job's relative deadline.
    pub fn on_run_finished(
        &self,
        job: JobId,
        result: &JobRunResult,
        completion_ns: u64,
        deadline_met: bool,
    ) {
        self.registry.absorb(&result.registry);
        if let Some(health) = &result.health {
            self.detection_latency_ns
                .merge_from(health.detection_latency());
        }
        self.faulty_replicas
            .add(result.faulty_replicas.len() as u64);
        for &replica in &result.faulty_replicas {
            self.event("fleet.replica.faulty", completion_ns, job, replica as u64);
        }
        if result.completed() {
            self.completed.inc();
            self.completion_ns.record(completion_ns);
            self.event("fleet.job.completed", completion_ns, job, result.arrivals);
        } else {
            self.failed.inc();
            self.event("fleet.job.failed", completion_ns, job, result.arrivals);
        }
        if !deadline_met {
            self.deadline_missed.inc();
            self.event("fleet.deadline.missed", completion_ns, job, 0);
        }
    }

    /// Records a scheduled replacement run for `job`.
    pub fn on_replacement_scheduled(&self, job: JobId, at_ns: u64, attempt: u64) {
        self.replaced.inc();
        self.event("fleet.job.replaced", at_ns, job, attempt);
    }

    /// Records a successful recovery: a replacement run came back with no
    /// faulty replicas. `recovery_ns` is the wall time from the fault
    /// *observation* (the faulty run's completion) to the replacement's
    /// completion — the fleet-level time-to-recovery.
    pub fn on_recovered(&self, job: JobId, at_ns: u64, recovery_ns: u64) {
        self.recovered.inc();
        self.recovery_ns.record(recovery_ns);
        self.event("fleet.job.recovered", at_ns, job, recovery_ns);
    }

    /// Publishes the executor's instantaneous load to the fleet gauges
    /// (`fleet.pool.queued` / `fleet.pool.inflight` /
    /// `fleet.jobs.outstanding`). Gauges keep their high-water mark, so
    /// the fleet registry also records peak backpressure.
    pub fn on_load(&self, queued: u64, inflight: u64, outstanding: u64) {
        self.pool_queued.set(queued);
        self.pool_inflight.set(inflight);
        self.outstanding.set(outstanding);
    }

    /// Records a run that executed on its submitter's thread in a lent
    /// pool slot (`fleet.pool.lent`), counted as the submitter's call
    /// returns — after the job's settle.
    pub fn on_lent(&self) {
        self.pool_lent.inc();
    }

    /// Records a run that panicked inside the worker.
    pub fn on_run_panicked(&self, job: JobId, at_ns: u64) {
        self.failed.inc();
        self.event("fleet.job.panicked", at_ns, job, 0);
    }

    /// Records a settle notifier that panicked (`fleet.notifier.panicked`).
    /// The run's own verdict stands: the job still settles and releases
    /// its slot.
    pub fn on_notifier_panicked(&self, job: JobId, at_ns: u64) {
        self.notifier_panicked.inc();
        self.event("fleet.notifier.panicked", at_ns, job, 0);
    }

    /// Snapshot of the fleet's lifecycle state.
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            replaced: self.replaced.get(),
            recovered: self.recovered.get(),
            deadline_missed: self.deadline_missed.get(),
            faulty_replicas: self.faulty_replicas.get(),
            completion_ns: self.completion_ns.snapshot(),
            recovery_ns: self.recovery_ns.snapshot(),
            detection_latency_ns: self.detection_latency_ns.snapshot(),
        }
    }

    /// The lifecycle event log as JSONL (bounded ring; oldest dropped).
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }
}

/// Immutable fleet-level summary, captured at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStatus {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Runs that delivered every expected token.
    pub completed: u64,
    /// Runs that fell short (or panicked).
    pub failed: u64,
    /// Replacement runs scheduled after a fault observation.
    pub replaced: u64,
    /// Replacement runs that came back healthy.
    pub recovered: u64,
    /// Completions after the job's relative deadline.
    pub deadline_missed: u64,
    /// Total replica fault latches observed across all runs.
    pub faulty_replicas: u64,
    /// Admission-to-completion wall latency distribution.
    pub completion_ns: HistogramSnapshot,
    /// Fault-observation-to-recovery wall latency distribution.
    pub recovery_ns: HistogramSnapshot,
    /// Merged per-job detection latency distribution.
    pub detection_latency_ns: HistogramSnapshot,
}

impl FleetStatus {
    /// Renders the status as a JSON object (hand-rolled, zero-dep).
    pub fn to_json(&self) -> String {
        use rtft_obs::json::JsonObject;
        let hist = |s: &HistogramSnapshot| {
            JsonObject::new()
                .u64_field("count", s.count)
                .u64_field("max", s.max)
                .u64_field("p50", s.p50)
                .u64_field("p99", s.p99)
                .f64_field("mean", s.mean())
                .finish()
        };
        JsonObject::new()
            .u64_field("submitted", self.submitted)
            .u64_field("rejected", self.rejected)
            .u64_field("completed", self.completed)
            .u64_field("failed", self.failed)
            .u64_field("replaced", self.replaced)
            .u64_field("recovered", self.recovered)
            .u64_field("deadline_missed", self.deadline_missed)
            .u64_field("faulty_replicas", self.faulty_replicas)
            .raw_field("completion_ns", &hist(&self.completion_ns))
            .raw_field("recovery_ns", &hist(&self.recovery_ns))
            .raw_field("detection_latency_ns", &hist(&self.detection_latency_ns))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_obs::MetricsRegistry;

    fn result(faulty: Vec<usize>, arrivals: u64, expected: u64) -> JobRunResult {
        JobRunResult {
            arrivals,
            expected,
            faulty_replicas: faulty,
            registry: MetricsRegistry::new(),
            health: None,
            arrival_log: Vec::new(),
        }
    }

    #[test]
    fn folds_lifecycle_counters() {
        let s = FleetSupervisor::new();
        s.on_submitted(JobId(0), 0);
        s.on_run_finished(JobId(0), &result(vec![1], 100, 100), 5_000, true);
        s.on_replacement_scheduled(JobId(0), 5_000, 1);
        s.on_run_finished(JobId(0), &result(vec![], 100, 100), 9_000, true);
        s.on_recovered(JobId(0), 9_000, 4_000);

        let st = s.status();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.completed, 2);
        assert_eq!(st.replaced, 1);
        assert_eq!(st.recovered, 1);
        assert_eq!(st.faulty_replicas, 1);
        assert_eq!(st.recovery_ns.count, 1);
        assert_eq!(st.completion_ns.count, 2);
        assert!(st.to_json().contains("\"recovered\":1"));
    }

    #[test]
    fn absorbs_job_registries_into_fleet_view() {
        let s = FleetSupervisor::new();
        let job = MetricsRegistry::new();
        job.counter("core.detections").add(3);
        s.on_run_finished(JobId(7), &result(vec![0], 10, 10), 1_000, true);
        s.registry().absorb(&job);
        let counters = s.registry().counter_values();
        assert!(counters.contains(&("core.detections".to_string(), 3)));
    }

    #[test]
    fn incomplete_run_counts_as_failed_and_misses_deadline() {
        let s = FleetSupervisor::new();
        s.on_run_finished(JobId(1), &result(vec![], 40, 100), 2_000, false);
        let st = s.status();
        assert_eq!(st.failed, 1);
        assert_eq!(st.completed, 0);
        assert_eq!(st.deadline_missed, 1);
        assert!(s.events_jsonl().contains("fleet.job.failed"));
    }
}
