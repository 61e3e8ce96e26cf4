//! Integration tests of the `rtft-fleet` executor: admission backpressure,
//! EDF ordering, health-aware replacement, and throughput scaling.

use rtft_core::{DuplicationConfig, FaultPlan, JitterStageReplica, NJitterStageReplica};
use rtft_core::{NModularModel, NSizingReport};
use rtft_fleet::{
    Admission, FleetConfig, FleetExecutor, JobRuntime, JobSpec, JobTemplate, RejectReason,
};
use rtft_kpn::Payload;
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialises the wall-clock-sensitive tests: the harness runs tests on
/// parallel threads, and on a small host two fleets of sleep-bound jobs
/// running at once stretch each other's wall-clock timings.
fn timing_lock() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small synthetic duplicated job under the DES runtime. ~33 tokens at
/// 30 ms simulate in a few wall milliseconds.
fn des_job(name: &str, fault: Option<TimeNs>) -> JobSpec {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    );
    let mut cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(50)
        .with_payload(Arc::new(Payload::U64));
    if let Some(at) = fault {
        cfg = cfg.with_fault(0, FaultPlan::fail_stop_at(at));
    }
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobSpec {
        name: name.into(),
        template: JobTemplate::Duplicated { cfg, factory },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: TimeNs::from_secs(20),
        },
    }
}

/// A sleep-bound threaded job: wall-clock duration is the token pacing
/// plus the consumer's offset (≈ `tokens × 2 ms + 8 ms`), so concurrent
/// jobs overlap their waiting.
fn threaded_job(name: &str, tokens: u64) -> JobSpec {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(2.0, 0.2, 0.0),
        PjdModel::from_ms(2.0, 0.2, 8.0),
        [
            PjdModel::from_ms(2.0, 0.3, 0.0),
            PjdModel::from_ms(2.0, 0.5, 0.0),
        ],
    );
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(tokens)
        .with_payload(Arc::new(Payload::U64));
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobSpec {
        name: name.into(),
        template: JobTemplate::Duplicated { cfg, factory },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::Threaded {
            deadline: Duration::from_secs(30),
        },
    }
}

#[test]
fn injected_fault_triggers_replacement_and_recovery() {
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 2,
        pending_capacity: 8,
        max_replacements: 1,
    });
    let admission = fleet.submit(des_job("faulty-tenant", Some(TimeNs::from_secs(1))));
    assert!(matches!(admission, Admission::Admitted(_)));

    let report = fleet.join();
    assert_eq!(report.runs.len(), 1);
    let job = &report.runs[0];
    // The fault was masked (the faulty run still delivered every token),
    // observed (replica 0 latched), and repaired by a healed replacement.
    assert_eq!(job.faulty_replicas, vec![0]);
    assert_eq!(job.attempts, 1, "one replacement run");
    assert!(job.recovered, "replacement came back healthy");
    assert!(!job.failed);
    assert_eq!(job.arrivals, job.expected);
    assert_eq!(report.status.replaced, 1);
    assert_eq!(report.status.recovered, 1);
    assert_eq!(report.status.completed, 2, "original + replacement runs");
    assert_eq!(report.status.recovery_ns.count, 1);
    // The job's detection latency was folded into the fleet registry.
    assert!(report.status.detection_latency_ns.count >= 1);
}

#[test]
fn n_modular_job_reports_faulty_indices_through_the_fleet() {
    let model = NModularModel {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 120.0),
        replicas: vec![
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 15.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    };
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = Arc::new(NJitterStageReplica::from_model(&model));
    let spec = JobSpec {
        name: "triplicated".into(),
        template: JobTemplate::NModularVoting {
            model,
            sizing,
            token_count: 100,
            seeds: (1, 2),
            payload: Arc::new(Payload::U64),
            factory,
            faults: vec![
                FaultPlan::fail_stop_at(TimeNs::from_secs(1)),
                FaultPlan::healthy(),
                FaultPlan::healthy(),
            ],
        },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: TimeNs::from_secs(30),
        },
    };

    let fleet = FleetExecutor::new(FleetConfig::default());
    assert!(matches!(fleet.submit(spec), Admission::Admitted(_)));
    let report = fleet.join();
    let job = &report.runs[0];
    assert_eq!(
        job.faulty_replicas,
        vec![0],
        "detectors name the dead replica"
    );
    assert!(job.recovered);
    assert!(!job.failed);
    assert_eq!(report.status.recovered, 1);
}

#[test]
fn full_fleet_rejects_with_queue_full() {
    let _serial = timing_lock();
    // One worker, capacity two: the first job's 40 tokens at 2 ms occupy
    // the worker for ≈ 90 ms, so the third submission must bounce.
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 1,
        pending_capacity: 2,
        max_replacements: 0,
    });
    assert!(matches!(
        fleet.submit(threaded_job("a", 40)),
        Admission::Admitted(_)
    ));
    assert!(matches!(
        fleet.submit(threaded_job("b", 4)),
        Admission::Admitted(_)
    ));
    match fleet.submit(threaded_job("c", 4)) {
        Admission::Rejected(RejectReason::QueueFull { pending, capacity }) => {
            assert_eq!(pending, 2);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let report = fleet.join();
    assert_eq!(report.status.submitted, 2);
    assert_eq!(report.status.rejected, 1);
    assert_eq!(report.runs.len(), 2);
    assert!(report.runs.iter().all(|r| !r.failed));
}

#[test]
fn shutdown_rejects_further_submissions() {
    let fleet = FleetExecutor::new(FleetConfig::default());
    fleet.shutdown();
    assert_eq!(
        fleet.submit(des_job("late", None)),
        Admission::Rejected(RejectReason::ShuttingDown)
    );
    let report = fleet.join();
    assert_eq!(report.status.submitted, 0);
    assert_eq!(report.status.rejected, 1);
}

#[test]
fn single_worker_completes_in_deadline_order() {
    let _serial = timing_lock();
    // Block the lone worker with a sleep-bound job (150 tokens at 2 ms,
    // ≈ 0.3 s), queue three DES jobs with *reversed* deadlines, and check
    // the pool drained them EDF.
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 1,
        pending_capacity: 8,
        max_replacements: 0,
    });
    assert!(matches!(
        fleet.submit(threaded_job("blocker", 150)),
        Admission::Admitted(_)
    ));
    for (name, deadline_secs) in [("slack", 300u64), ("soon", 200), ("urgent", 100)] {
        let mut spec = des_job(name, None);
        spec.relative_deadline = Duration::from_secs(deadline_secs);
        assert!(matches!(fleet.submit(spec), Admission::Admitted(_)));
    }
    let report = fleet.join();
    let order: Vec<&str> = report.runs.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(order, vec!["blocker", "urgent", "soon", "slack"]);
    assert!(report.runs.iter().all(|r| r.deadline_met));
}

#[test]
fn two_workers_overlap_sleep_bound_jobs() {
    let _serial = timing_lock();
    // Six ≈50 ms sleep-bound jobs: two workers overlap the waiting, so
    // wall time must drop clearly below the serial run. The 1.2× floor is
    // deliberately loose for noisy CI machines.
    let run = |workers: usize| {
        let fleet = FleetExecutor::new(FleetConfig {
            workers,
            pending_capacity: 16,
            max_replacements: 0,
        });
        let start = Instant::now();
        for i in 0..6 {
            assert!(matches!(
                fleet.submit(threaded_job(&format!("job-{i}"), 20)),
                Admission::Admitted(_)
            ));
        }
        let report = fleet.join();
        assert_eq!(report.status.completed, 6);
        start.elapsed()
    };
    let serial = run(1);
    let overlapped = run(2);
    let ratio = serial.as_secs_f64() / overlapped.as_secs_f64();
    assert!(
        ratio >= 1.2,
        "2 workers should overlap sleep-bound jobs: serial {serial:?}, overlapped {overlapped:?} (ratio {ratio:.2})"
    );
}
