//! E9: fleet throughput campaign — jobs/sec and p99 completion latency
//! versus worker count, plus a fault-injection section showing replacement
//! and recovery under load.
//!
//! The scaling workload is deliberately **sleep-bound**: each job is a
//! duplicated network on the *threaded* runtime with a 2 ms token period,
//! so a run's wall time is dominated by waiting (token pacing), not CPU.
//! More workers overlap that waiting, so jobs/sec must rise monotonically
//! with the worker count even on a single-core host — the same reason SMT
//! helps latency-bound servers.
//!
//! Run with `cargo bench --bench fleet`; emits a machine-readable
//! `BENCH_fleet.json:` line for trend tracking.

use rtft_bench::report::{banner, AsciiTable};
use rtft_core::{DuplicationConfig, FaultPlan, JitterStageReplica};
use rtft_fleet::{Admission, FleetConfig, FleetExecutor, JobRuntime, JobSpec, JobTemplate};
use rtft_kpn::Payload;
use rtft_obs::json::{array, JsonObject};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const JOBS: usize = 12;
const TOKENS: u64 = 8;

fn sleep_bound_job(name: String, fault: Option<TimeNs>) -> JobSpec {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(2.0, 0.2, 0.0),
        PjdModel::from_ms(2.0, 0.2, 8.0),
        [
            PjdModel::from_ms(2.0, 0.3, 0.0),
            PjdModel::from_ms(2.0, 0.5, 0.0),
        ],
    );
    let mut cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(TOKENS)
        .with_payload(Arc::new(Payload::U64));
    if let Some(at) = fault {
        cfg = cfg.with_fault(0, FaultPlan::fail_stop_at(at));
    }
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobSpec {
        name,
        template: JobTemplate::Duplicated { cfg, factory },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::Threaded {
            deadline: Duration::from_secs(30),
        },
    }
}

struct ScalePoint {
    workers: usize,
    jobs_per_sec: f64,
    p99_ms: f64,
}

fn throughput(workers: usize) -> ScalePoint {
    let fleet = FleetExecutor::new(FleetConfig {
        workers,
        pending_capacity: JOBS * 2,
        max_replacements: 0,
    });
    let start = Instant::now();
    for i in 0..JOBS {
        let admission = fleet.submit(sleep_bound_job(format!("w{workers}-job{i}"), None));
        assert!(matches!(admission, Admission::Admitted(_)));
    }
    let report = fleet.join();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.status.completed as usize, JOBS, "all jobs complete");
    ScalePoint {
        workers,
        jobs_per_sec: JOBS as f64 / elapsed,
        p99_ms: report.status.completion_ns.p99 as f64 / 1e6,
    }
}

fn fault_section() -> (u64, u64, f64) {
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 2,
        pending_capacity: JOBS * 2,
        max_replacements: 1,
    });
    for i in 0..6 {
        // Every third tenant's replica 0 dies mid-stream.
        let fault = (i % 3 == 0).then(|| TimeNs::from_ms(6));
        let admission = fleet.submit(sleep_bound_job(format!("fault-job{i}"), fault));
        assert!(matches!(admission, Admission::Admitted(_)));
    }
    let report = fleet.join();
    assert!(report.runs.iter().all(|r| !r.failed), "faults masked");
    (
        report.status.replaced,
        report.status.recovered,
        report.status.recovery_ns.mean() / 1e6,
    )
}

fn main() {
    banner("E9: fleet throughput vs worker count");
    println!("{JOBS} sleep-bound duplicated jobs ({TOKENS} tokens @ 2 ms) per point\n");

    let points: Vec<ScalePoint> = WORKER_COUNTS.iter().map(|&w| throughput(w)).collect();

    let mut table = AsciiTable::new();
    table.row(["workers", "jobs/sec", "p99 completion (ms)"]);
    for p in &points {
        table.row([
            p.workers.to_string(),
            format!("{:.2}", p.jobs_per_sec),
            format!("{:.1}", p.p99_ms),
        ]);
    }
    println!("{}", table.render());

    let scaling = points.last().unwrap().jobs_per_sec / points[0].jobs_per_sec;
    println!(
        "scaling {}→{} workers: {scaling:.2}x",
        points[0].workers,
        points.last().unwrap().workers
    );
    for pair in points.windows(2) {
        assert!(
            pair[1].jobs_per_sec >= pair[0].jobs_per_sec * 0.95,
            "jobs/sec regressed {} → {} workers: {:.2} → {:.2}",
            pair[0].workers,
            pair[1].workers,
            pair[0].jobs_per_sec,
            pair[1].jobs_per_sec
        );
    }

    banner("E9b: replacement under load");
    let (replaced, recovered, mean_recovery_ms) = fault_section();
    println!(
        "6 jobs, 2 with injected fail-stop: {replaced} replacement(s), {recovered} recovery(ies), \
         mean time-to-recovery {mean_recovery_ms:.1} ms"
    );

    let json = JsonObject::new()
        .raw_field(
            "points",
            &array(points.iter().map(|p| {
                JsonObject::new()
                    .u64_field("workers", p.workers as u64)
                    .f64_field("jobs_per_sec", p.jobs_per_sec)
                    .f64_field("p99_ms", p.p99_ms)
                    .finish()
            })),
        )
        .f64_field("scaling_1_to_4", scaling)
        .u64_field("replaced", replaced)
        .u64_field("recovered", recovered)
        .f64_field("mean_recovery_ms", mean_recovery_ms)
        .finish();
    println!("BENCH_fleet.json: {json}");
}
