//! The fleet executor on a mixed MJPEG tenant population — the CI smoke
//! for `rtft-fleet`.
//!
//! Submits six small MJPEG decoding jobs (duplicated networks from the
//! paper's Table 1 profile, run under the deterministic DES engine) to a
//! two-worker fleet. One tenant has a fail-stop fault injected into
//! replica 0: its one run masks the fault (every frame still arrives)
//! and latches the dead replica. Each job reports through its settle
//! notifier, and the example prints those records as a table.
//!
//! Exits non-zero unless the faulty tenant latched replica 0 with every
//! frame delivered and every other tenant ran clean, so CI can run it as
//! a smoke test:
//!
//! ```sh
//! cargo run --release --bin fleet
//! ```

use rtft_apps::networks::App;
use rtft_core::FaultPlan;
use rtft_fleet::{
    Admission, FleetConfig, FleetExecutor, JobNotifier, JobRecord, JobRuntime, JobSpec, JobTemplate,
};
use rtft_rtc::TimeNs;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    let app = App::Mjpeg;
    let tokens = 24u64;
    let jobs = 6usize;
    let faulty_tenant = 2usize;

    let fleet = FleetExecutor::new(FleetConfig {
        workers: 2,
        pending_capacity: 16,
    });
    let records: Arc<Mutex<Vec<JobRecord>>> = Arc::default();
    let notify: JobNotifier = {
        let records = Arc::clone(&records);
        Arc::new(move |record, _| records.lock().unwrap().push(record.clone()))
    };

    println!(
        "fleet: {jobs} {} jobs of {tokens} frames each, fault injected into tenant-{faulty_tenant}",
        app.label()
    );
    for i in 0..jobs {
        let mut cfg = app
            .duplication_config(i as u64, tokens)
            .expect("bounded profile");
        if i == faulty_tenant {
            cfg = cfg.with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_ms(300)));
        }
        let factory = Arc::new(app.replica_factory([11 + i as u64, 22 + i as u64]));
        let spec = JobSpec {
            name: format!("tenant-{i}"),
            template: JobTemplate::Duplicated { cfg, factory },
            relative_deadline: Duration::from_secs(60),
            runtime: JobRuntime::DiscreteEvent {
                horizon: TimeNs::from_secs(10),
            },
        };
        let admission = fleet.submit_with(spec, Some(Arc::clone(&notify)));
        assert!(matches!(admission, Admission::Admitted(_)), "admission");
    }

    let report = fleet.join();
    let mut records = std::mem::take(&mut *records.lock().unwrap());
    records.sort_by_key(|r| r.id);

    println!();
    println!("  id  tenant     arrivals  faulty  deadline");
    for job in &records {
        println!(
            "  {:>2}  {:<9}  {:>8}  {:>6}  {:>8}",
            job.id.0,
            job.name,
            format!("{}/{}", job.arrivals, job.expected),
            format!("{:?}", job.faulty_replicas),
            if job.deadline_met { "met" } else { "MISSED" },
        );
    }
    println!();
    println!("fleet status: {}", report.status.to_json());

    // The faulty tenant masked its fault and latched replica 0; every
    // other tenant ran clean.
    let bad: Vec<&JobRecord> = records
        .iter()
        .filter(|r| {
            let latched: &[usize] = if r.name == format!("tenant-{faulty_tenant}") {
                &[0]
            } else {
                &[]
            };
            r.failed || r.arrivals != r.expected || r.faulty_replicas != latched
        })
        .collect();
    if records.len() != jobs || !bad.is_empty() {
        eprintln!(
            "SMOKE FAILED: {} of {jobs} jobs settled, unexpected records: {bad:?}",
            records.len()
        );
        std::process::exit(1);
    }
    println!(
        "SMOKE OK: {} jobs completed, fault masked and latched in tenant-{faulty_tenant}",
        report.status.completed
    );
}
