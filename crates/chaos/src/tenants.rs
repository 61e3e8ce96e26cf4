//! Tenant-dimension chaos: attach/detach mid-campaign under fleet load.
//!
//! [`chaos_with_tenants`] drives the tenant directory against the fleet
//! executor: four tenants each submit two deterministic DES jobs, one
//! tenant's first job carries an injected fault, and (optionally) one
//! healthy tenant detaches between the rounds. The report carries both
//! the fleet's view and the tenant directory, so tests can assert the
//! two invariants the single-tenant campaigns cannot: fault *isolation*
//! (the faulty tenant's latches never appear in another tenant's books)
//! and detach *losslessness* (a draining tenant settles every admitted
//! job and its token balance stays intact, while every other tenant's
//! outcome is byte-for-byte what it would have been without the detach).

use crate::runner::payload_cycle;
use rtft_apps::networks::App;
use rtft_core::FaultPlan;
use rtft_fleet::{
    des_horizon, Admission, FleetConfig, FleetExecutor, FleetReport, JobNotifier, JobRuntime,
    JobSpec, JobTemplate, Redundancy,
};
use rtft_rtc::TimeNs;
use rtft_tenant::{
    TenantConfig, TenantDirectoryReport, TenantError, TenantId, TenantManager, TenantReject,
};
use std::sync::Arc;
use std::time::Duration;

/// Tokens per tenant job (small — every job is a full DES run).
const TENANT_TOKENS: u64 = 40;

/// Tenants in the mix.
pub const CHAOS_TENANTS: usize = 4;

/// Index of the tenant whose first job carries the injected fault.
pub const FAULTY_TENANT: usize = 1;

/// Index of the tenant detached between the rounds (when enabled).
pub const DETACHED_TENANT: usize = 2;

/// Jobs each surviving tenant submits.
const ROUNDS: usize = 2;

fn spec(name: &str, app: App, seed: u64, fault: Option<(usize, FaultPlan)>) -> JobSpec {
    let profile = app.profile();
    let payload = payload_cycle(seed, profile.input_token_bytes);
    let mut template = JobTemplate::for_model(
        &profile.model,
        Redundancy::Duplicated,
        seed,
        TENANT_TOKENS,
        payload,
    );
    if let Some((replica, plan)) = fault {
        template = template.with_fault(replica, plan);
    }
    JobSpec {
        name: name.to_string(),
        template,
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: des_horizon(&profile.model, TENANT_TOKENS),
        },
    }
}

/// What one tenant-dimension chaos run produced.
#[derive(Debug)]
pub struct TenantChaosReport {
    /// The tenant directory at campaign end (sorted by id).
    pub directory: TenantDirectoryReport,
    /// The drained fleet's own report.
    pub fleet: FleetReport,
    /// Id of the tenant detached mid-campaign, if the run detached one.
    pub detached: Option<u64>,
}

/// Runs the tenant-dimension chaos mix and returns both views.
///
/// Four tenants attach to a directory with `shards` supervisor shards
/// and each submits `ROUNDS` duplicated DES jobs through tenant
/// admission (`admit_tokens` → `admit_flush` → fleet). Tenant
/// [`FAULTY_TENANT`]'s first job fail-stops one replica mid-stream —
/// its latch must land in that tenant's books alone. With `detach_mid`,
/// tenant [`DETACHED_TENANT`] detaches between the rounds: its drain
/// completes once its admitted job settles, and its second round is
/// refused (counted, not lost). Replacement is disabled
/// (`max_replacements: 0`), so every histogram in the directory is
/// virtual-time DES data and the whole report is deterministic in
/// `(seed, shards, detach_mid)` — byte-identical at any shard count.
///
/// # Panics
///
/// Panics if any admission that must succeed is refused, or if the
/// detach drain fails for a reason other than in-flight work.
pub fn chaos_with_tenants(seed: u64, shards: usize, detach_mid: bool) -> TenantChaosReport {
    let workers = rtft_kpn::campaign_workers().clamp(2, 4);
    let executor = FleetExecutor::new(FleetConfig {
        workers,
        pending_capacity: 32,
        max_replacements: 0,
    });
    let mgr = Arc::new(TenantManager::new(shards));
    let apps = [App::Mjpeg, App::Adpcm, App::H264, App::Adpcm];
    let ids: Vec<TenantId> = (0..CHAOS_TENANTS)
        .map(|i| {
            mgr.attach(&format!("chaos-{i}"), TenantConfig::default())
                .expect("fresh names attach")
        })
        .collect();

    let submit = |round: usize, i: usize| {
        let id = ids[i];
        mgr.admit_tokens(id, TENANT_TOKENS).expect("under quota");
        // Deterministic admission clock: one virtual millisecond per
        // submission slot (no tenant carries a rate limit here anyway).
        let now_ns = ((round * CHAOS_TENANTS + i) as u64) * 1_000_000;
        mgr.admit_flush(id, TENANT_TOKENS, now_ns)
            .expect("under in-flight cap");
        // Fail-stop: the timing selector of a duplicated pair detects
        // timing faults (value corruption is the voting structure's
        // domain, exercised by the campaign's voting scenarios).
        let fault = (i == FAULTY_TENANT && round == 0)
            .then(|| (1usize, FaultPlan::fail_stop_at(TimeNs::from_ms(80))));
        let job = spec(
            &format!("chaos-{i}/round-{round}"),
            apps[i],
            seed ^ ((round as u64) << 8) ^ (i as u64).wrapping_mul(0x9E37_79B9),
            fault,
        );
        let mgr = Arc::clone(&mgr);
        let notify: JobNotifier = Arc::new(move |record, result| {
            mgr.on_settle(id, record, result);
        });
        let name = job.name.clone();
        let admission = executor.submit_with(job, Some(notify));
        assert!(
            matches!(admission, Admission::Admitted(_)),
            "{name}: {admission:?}"
        );
    };

    for i in 0..CHAOS_TENANTS {
        submit(0, i);
    }

    let mut detached = None;
    if detach_mid {
        let id = ids[DETACHED_TENANT];
        mgr.begin_detach(id).expect("tenant is active");
        // From this instant the tenant refuses — losslessly.
        assert!(matches!(
            mgr.admit_flush(id, 1, 0),
            Err(TenantReject::Draining)
        ));
        // The drain completes once the round-0 job settles.
        loop {
            match mgr.finish_detach(id) {
                Ok(()) => break,
                Err(TenantError::StillBusy { .. }) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("detach drain failed: {e}"),
            }
        }
        detached = Some(id.0);
    }

    for round in 1..ROUNDS {
        for (i, &id) in ids.iter().enumerate() {
            if detach_mid && i == DETACHED_TENANT {
                // The detached tenant's second round is refused and
                // counted; the tokens were never accepted.
                assert!(matches!(
                    mgr.admit_tokens(id, TENANT_TOKENS),
                    Err(TenantReject::Draining)
                ));
                continue;
            }
            submit(round, i);
        }
    }

    let fleet = executor.join();
    TenantChaosReport {
        directory: mgr.report(),
        fleet,
        detached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_tenant::TenantState;

    #[test]
    fn faults_stay_confined_to_their_tenant() {
        let report = chaos_with_tenants(0xC0FFEE, 2, false);
        assert_eq!(report.fleet.runs.len(), CHAOS_TENANTS * ROUNDS);
        assert_eq!(report.directory.tenants.len(), CHAOS_TENANTS);
        for (i, t) in report.directory.tenants.iter().enumerate() {
            assert_eq!(t.jobs, ROUNDS as u64, "{t:?}");
            assert_eq!(t.tokens_in, ROUNDS as u64 * TENANT_TOKENS, "{t:?}");
            assert_eq!(t.inflight, 0, "all jobs settled: {t:?}");
            assert_eq!(t.buffered, 0, "all tokens flushed: {t:?}");
            if i == FAULTY_TENANT {
                assert!(t.faults > 0, "injected fault must latch: {t:?}");
                assert!(t.detection_latency_ns.count > 0, "{t:?}");
            } else {
                assert_eq!(t.faults, 0, "fault leaked into tenant {i}: {t:?}");
                assert_eq!(t.delivered, ROUNDS as u64 * TENANT_TOKENS, "{t:?}");
            }
        }
    }

    #[test]
    fn detach_under_load_is_lossless_and_isolated() {
        let without = chaos_with_tenants(0xD14, 2, false);
        let with = chaos_with_tenants(0xD14, 2, true);
        let id = with.detached.expect("a tenant detached");
        let t = with.directory.tenant(id).expect("detached tenant reported");
        assert_eq!(t.state, TenantState::Detached);
        // Balance intact: the one admitted job settled in full, nothing
        // is stuck in flight or in the buffer, and the refused second
        // round is accounted as rejected — not silently dropped.
        assert_eq!(t.jobs, 1, "{t:?}");
        assert_eq!(t.tokens_in, TENANT_TOKENS, "{t:?}");
        assert_eq!(t.delivered, TENANT_TOKENS, "{t:?}");
        assert_eq!(t.inflight, 0, "{t:?}");
        assert_eq!(t.buffered, 0, "{t:?}");
        assert_eq!(t.rejected_draining, 1 + TENANT_TOKENS, "{t:?}");
        // Isolation: every other tenant's report is byte-identical to
        // the run where no one detached.
        for (a, b) in without
            .directory
            .tenants
            .iter()
            .zip(with.directory.tenants.iter())
        {
            assert_eq!(a.id, b.id);
            if a.id != id {
                assert_eq!(a.to_json(), b.to_json(), "tenant {} perturbed", a.id);
            }
        }
    }

    #[test]
    fn tenant_directory_is_shard_invariant() {
        let one = chaos_with_tenants(0x5EED, 1, false).directory.to_json();
        let two = chaos_with_tenants(0x5EED, 2, false).directory.to_json();
        let four = chaos_with_tenants(0x5EED, 4, false).directory.to_json();
        assert_eq!(one, two);
        assert_eq!(one, four);
    }
}
