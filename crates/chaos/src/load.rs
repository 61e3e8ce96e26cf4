//! Chaos under load: faulty tenants inside the fleet executor.
//!
//! Scenario runs in [`crate::runner`] exercise one structure at a time.
//! This module instead drives the PR-2 [`FleetExecutor`] with a mixed
//! tenant set — healthy jobs, a duplicated job whose replica fail-stops
//! mid-run (forcing a replica replacement), and a value-voting job under
//! silent data corruption — and returns the executor's own
//! [`FleetReport`]. It answers the question the single-scenario runner
//! cannot: does detection-plus-replacement still hold when the faulty
//! tenant competes for workers with healthy ones?

use crate::runner::payload_cycle;
use rtft_apps::networks::App;
use rtft_core::{CorruptionMode, FaultPlan};
use rtft_fleet::{
    des_horizon, Admission, FleetConfig, FleetExecutor, FleetReport, JobRuntime, JobSpec,
    JobTemplate, Redundancy,
};
use rtft_rtc::TimeNs;
use std::time::Duration;

/// Tokens each tenant's producer emits.
const LOAD_TOKENS: u64 = 120;

fn spec(
    name: &str,
    app: App,
    redundancy: Redundancy,
    seed: u64,
    fault: Option<(usize, FaultPlan)>,
) -> JobSpec {
    let profile = app.profile();
    let payload = payload_cycle(seed, profile.input_token_bytes);
    let mut template =
        JobTemplate::for_model(&profile.model, redundancy, seed, LOAD_TOKENS, payload);
    if let Some((replica, plan)) = fault {
        template = template.with_fault(replica, plan);
    }
    JobSpec {
        name: name.to_string(),
        template,
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: des_horizon(&profile.model, LOAD_TOKENS),
        },
    }
}

/// Runs the chaos-under-load tenant mix and returns the fleet's report.
///
/// The mix (all deterministic DES jobs, seeded from `seed`):
///
/// 1. `mjpeg-healthy` — fault-free duplicated baseline;
/// 2. `adpcm-failstop` — duplicated, replica 1 fail-stops mid-stream; the
///    executor must latch it and launch a healthy replacement run;
/// 3. `h264-corrupt` — tri-voting, replica 0 flips a payload bit
///    mid-stream; the voting selector must latch it while the delivered
///    stream stays value-clean;
/// 4. `adpcm-voting-healthy` — fault-free voting baseline.
///
/// # Panics
///
/// Panics if the executor rejects any of the four submissions (the default
/// pending capacity far exceeds the tenant count).
pub fn chaos_under_load(seed: u64) -> FleetReport {
    // Fleet workers follow the campaign worker policy (all cores),
    // clamped to the four-tenant mix; at least two so replacement runs
    // overlap the remaining tenants.
    let workers = rtft_kpn::campaign_workers().clamp(2, 4);
    let executor = FleetExecutor::new(FleetConfig {
        workers,
        pending_capacity: 16,
        max_replacements: 2,
    });
    let submissions = [
        spec(
            "mjpeg-healthy",
            App::Mjpeg,
            Redundancy::Duplicated,
            seed ^ 0x0101,
            None,
        ),
        spec(
            "adpcm-failstop",
            App::Adpcm,
            Redundancy::Duplicated,
            seed ^ 0x0202,
            Some((1, FaultPlan::fail_stop_at(TimeNs::from_ms(200)))),
        ),
        spec(
            "h264-corrupt",
            App::H264,
            Redundancy::TriVoting,
            seed ^ 0x0303,
            Some((
                0,
                FaultPlan::corrupt_at(CorruptionMode::BitFlip(17), TimeNs::from_secs(1)),
            )),
        ),
        spec(
            "adpcm-voting-healthy",
            App::Adpcm,
            Redundancy::TriVoting,
            seed ^ 0x0404,
            None,
        ),
    ];
    for spec in submissions {
        let name = spec.name.clone();
        let admission = executor.submit(spec);
        assert!(
            matches!(admission, Admission::Admitted(_)),
            "{name}: {admission:?}"
        );
    }
    executor.join()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_tenants_are_detected_and_healthy_ones_unharmed() {
        let report = chaos_under_load(0xBEEF);
        assert_eq!(report.runs.len(), 4);
        let by_name = |name: &str| {
            report
                .runs
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing job {name}"))
        };

        let healthy = by_name("mjpeg-healthy");
        assert!(healthy.faulty_replicas.is_empty(), "{healthy:?}");
        assert!(!healthy.failed);
        assert_eq!(healthy.arrivals, LOAD_TOKENS);

        let failstop = by_name("adpcm-failstop");
        assert_eq!(failstop.faulty_replicas, vec![1], "{failstop:?}");
        assert!(failstop.recovered, "replacement run must come back healthy");
        assert!(!failstop.failed);

        let corrupt = by_name("h264-corrupt");
        assert_eq!(corrupt.faulty_replicas, vec![0], "{corrupt:?}");
        assert!(!corrupt.failed);

        let voting_healthy = by_name("adpcm-voting-healthy");
        assert!(
            voting_healthy.faulty_replicas.is_empty(),
            "{voting_healthy:?}"
        );
        assert_eq!(voting_healthy.arrivals, LOAD_TOKENS);
    }

    #[test]
    fn load_report_is_reproducible_in_outcome() {
        let a = chaos_under_load(7);
        let b = chaos_under_load(7);
        // Wall-clock fields differ run to run; the logical outcome must not.
        let digest = |r: &FleetReport| {
            let mut rows: Vec<String> = r
                .runs
                .iter()
                .map(|j| {
                    format!(
                        "{}:{}:{:?}:{}:{}",
                        j.name, j.arrivals, j.faulty_replicas, j.recovered, j.failed
                    )
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(digest(&a), digest(&b));
    }
}
