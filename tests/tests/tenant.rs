//! Integration tests of the tenant layer under `rtft-serve`: eight
//! tenants over real TCP with one detached mid-stream and a replica fault
//! injected into another (full offered = delivered + undelivered +
//! rejected accounting, faults confined to their tenant, and
//! byte-identical outcomes for the seven untouched tenants), the
//! structured quota / rate rejection paths, Hello-time tenant
//! resolution policy, and shard-count invariance of the directory
//! report.

use rtft_apps::networks::App;
use rtft_rtc::TimeNs;
use rtft_serve::{
    digest_of, workload, BusyReason, Client, FaultInjection, Server, ServerConfig, TenancyConfig,
    TenantConfig, TokenRate,
};
use rtft_tenant::TenantState;

const TENANTS: usize = 8;
const DETACHED: usize = 3;
/// The tenant whose stream fail-stops a replica on every flush.
const FAULTY: usize = 5;
const BATCH: usize = 6;

/// One tenant's observable outcome: the digests its stream delivered.
type Digests = Vec<u64>;

/// Drives eight single-stream tenants through a tenancy-enabled server,
/// with a replica fault injected into tenant [`FAULTY`]'s stream.
/// Every tenant flushes one batch; then, when `detach` is set, tenant
/// [`DETACHED`] buffers a second batch, is detached, and has a flush and
/// a further batch refused; every other tenant flushes a second batch.
/// Returns each tenant's delivered digests plus the final report.
fn eight_tenant_run(detach: bool, shards: usize) -> (Vec<Digests>, rtft_serve::ServeReport) {
    let cfg = ServerConfig {
        tenancy: Some(TenancyConfig {
            shards,
            ..TenancyConfig::default()
        }),
        // The replica halts 1 ms into each run, so even a six-token
        // batch leaves it far enough behind to latch.
        inject: vec![FaultInjection {
            stream: FAULTY as u32,
            replica: 1,
            at: TimeNs::from_ms(1),
        }],
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");

    // Sequential connects and opens: stream i belongs to tenant-i, so
    // per-stream job seeds (and the injection's global stream index) are
    // identical across runs and shard counts.
    let mut clients: Vec<(Client, u32)> = (0..TENANTS)
        .map(|i| {
            let mut c = Client::connect(server.addr(), &format!("tenant-{i}")).expect("connect");
            let s = c.open_stream(App::Adpcm, 2).expect("open").expect_stream();
            (c, s)
        })
        .collect();

    let mut digests: Vec<Digests> = vec![Vec::new(); TENANTS];

    // Round 1: everyone delivers one batch.
    for (i, (client, stream)) in clients.iter_mut().enumerate() {
        client
            .send_tokens(*stream, &workload(App::Adpcm, i as u64, BATCH))
            .expect("send");
        let run = client.flush(*stream).expect("flush");
        assert!(run.admitted(), "tenant {i} refused on an idle server");
        digests[i].extend(run.outputs.iter().map(|o| o.digest));
    }

    if detach {
        let (client, stream) = &mut clients[DETACHED];
        // A second batch is accepted while the tenant is still active...
        client
            .send_tokens(*stream, &workload(App::Adpcm, 100, BATCH))
            .expect("send");
        // ...then the operator detaches the tenant mid-stream. `Tokens`
        // carries no acknowledgement, so wait for the server to have
        // actually accepted the batch before pulling the trigger.
        let mgr = server.tenants().expect("tenancy enabled");
        let id = mgr
            .resolve(&format!("tenant-{DETACHED}"))
            .expect("tenant attached");
        while mgr.tenant_report(id).expect("attached").buffered < BATCH as u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = server.detach_tenant(id).expect("drain and detach");
        assert_eq!(report.state, TenantState::Detached);
        assert_eq!(report.inflight, 0, "detach completes only when drained");
        assert_eq!(report.buffered, BATCH as u64, "{report:?}");

        // The buffered batch can no longer flush — refused, not lost.
        let refused = client.flush(*stream).expect("flush");
        let busy = refused.busy.expect("draining tenant must refuse");
        assert_eq!(busy.reason, BusyReason::TenantDraining);

        // A third batch is refused at the door and never accepted.
        client
            .send_tokens(*stream, &workload(App::Adpcm, 101, BATCH))
            .expect("send");
        let busy = client.recv_busy(*stream).expect("tokens refusal");
        assert_eq!(busy.reason, BusyReason::TenantDraining);
    }

    // Round 2: the surviving tenants deliver a second batch.
    for (i, (client, stream)) in clients.iter_mut().enumerate() {
        if detach && i == DETACHED {
            continue;
        }
        client
            .send_tokens(*stream, &workload(App::Adpcm, 1000 + i as u64, BATCH))
            .expect("send");
        let run = client.flush(*stream).expect("flush");
        assert!(run.admitted(), "tenant {i} refused in round 2");
        digests[i].extend(run.outputs.iter().map(|o| o.digest));
    }

    for (client, stream) in clients.iter_mut() {
        client.close(*stream).expect("close");
    }
    (digests, server.shutdown())
}

/// The tentpole acceptance path: detaching one of eight tenants under
/// load drains it losslessly — every token it offered is delivered,
/// undelivered, or rejected — while the other seven tenants' delivered
/// streams are byte-for-byte identical to a run where nobody detached.
#[test]
fn detach_one_of_eight_tenants_accounts_fully_and_perturbs_nobody() {
    let (without, base) = eight_tenant_run(false, 2);
    let (with, report) = eight_tenant_run(true, 2);

    assert!(report.balanced(), "tokens_in == delivered + undelivered");
    let tenants = report.tenants.as_ref().expect("tenancy report");
    assert_eq!(tenants.tenants.len(), TENANTS);

    // Fault isolation: the injected replica fault is counted in tenant
    // FAULTY's directory row and in no other.
    for t in &tenants.tenants {
        if t.name == format!("tenant-{FAULTY}") {
            assert!(t.faults > 0, "injected fault must latch: {t:?}");
            assert!(t.detection_latency_ns.count > 0, "{t:?}");
        } else {
            assert_eq!(t.faults, 0, "fault leaked into {}: {t:?}", t.name);
        }
    }

    // The detached tenant's books: batch 1 delivered, batch 2 accepted
    // but refused at flush (undelivered), batch 3 rejected at the door.
    let account = report
        .streams
        .iter()
        .find(|s| {
            s.tenant
                == tenants
                    .tenants
                    .iter()
                    .find(|t| t.name == format!("tenant-{DETACHED}"))
                    .expect("detached tenant in directory")
                    .id
        })
        .expect("detached tenant's stream");
    assert_eq!(account.tokens_in, 2 * BATCH as u64);
    assert_eq!(account.delivered, BATCH as u64);
    assert_eq!(account.undelivered, BATCH as u64);
    assert_eq!(account.rejected, BATCH as u64);
    let offered = 3 * BATCH as u64;
    assert_eq!(
        account.delivered + account.undelivered + account.rejected,
        offered,
        "every offered token is accounted: {account:?}"
    );
    assert_eq!(account.busy, 2, "one flush refusal, one tokens refusal");

    // Fault isolation of the lifecycle event: the other seven tenants
    // delivered exactly the bytes they would have without the detach.
    for i in 0..TENANTS {
        if i == DETACHED {
            continue;
        }
        assert_eq!(
            with[i], without[i],
            "tenant {i} perturbed by another tenant's detach"
        );
        assert!(!with[i].is_empty());
    }
    // And the baseline run itself delivered everything it offered.
    assert!(base.balanced());
    assert_eq!(base.streams.iter().map(|s| s.rejected).sum::<u64>(), 0);
}

/// Queue quota and token rate answer structured, lossless `Busy` frames:
/// `quota-exceeded` carries (used, quota), `rate-limited` carries the
/// retry window, and in both cases nothing the client already streamed
/// is lost.
#[test]
fn quota_and_rate_refusals_are_structured_and_lossless() {
    let cfg = ServerConfig {
        tenancy: Some(TenancyConfig::default()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    server
        .attach_tenant(
            "quota",
            TenantConfig {
                queue_quota: 10,
                ..TenantConfig::default()
            },
        )
        .expect("attach");
    server
        .attach_tenant(
            "rate",
            TenantConfig {
                rate: Some(TokenRate {
                    tokens_per_sec: 1,
                    burst: 4,
                }),
                ..TenantConfig::default()
            },
        )
        .expect("attach");

    // Quota: 8 of 10 accepted, the next 4 refused with (used, quota).
    let mut q = Client::connect(server.addr(), "quota").expect("connect");
    let qs = q.open_stream(App::Adpcm, 2).expect("open").expect_stream();
    let batch = workload(App::Adpcm, 1, 8);
    q.send_tokens(qs, &batch).expect("send");
    q.send_tokens(qs, &workload(App::Adpcm, 2, 4))
        .expect("send");
    let busy = q.recv_busy(qs).expect("quota refusal");
    assert_eq!(busy.reason, BusyReason::QuotaExceeded);
    assert_eq!(busy.pending, 8, "tokens in use");
    assert_eq!(busy.capacity, 10, "the quota");
    // The first 8 tokens were untouched by the refusal.
    let run = q.flush(qs).expect("flush");
    assert_eq!(run.outputs.len(), 8);
    for (i, out) in run.outputs.iter().enumerate() {
        assert_eq!(out.digest, digest_of(&batch[i]));
    }

    // Rate: the primed burst admits 4, the next flush is rate-limited
    // with a positive retry hint; the batch stays buffered server-side.
    let mut r = Client::connect(server.addr(), "rate").expect("connect");
    let rs = r.open_stream(App::Adpcm, 2).expect("open").expect_stream();
    r.send_tokens(rs, &workload(App::Adpcm, 3, 4))
        .expect("send");
    let run = r.flush(rs).expect("flush");
    assert!(run.admitted(), "burst capacity admits the first flush");
    r.send_tokens(rs, &workload(App::Adpcm, 4, 4))
        .expect("send");
    let refused = r.flush(rs).expect("flush");
    let busy = refused.busy.expect("drained bucket must refuse");
    assert_eq!(busy.reason, BusyReason::RateLimited);
    assert!(busy.pending > 0, "retry-after milliseconds: {busy:?}");

    q.close(qs).expect("close");
    r.close(rs).expect("close");
    let report = server.shutdown();
    assert!(report.balanced());
    let tenants = report.tenants.expect("tenancy report");
    let quota = tenants
        .tenants
        .iter()
        .find(|t| t.name == "quota")
        .expect("quota tenant");
    assert_eq!(quota.rejected_quota, 4);
    assert_eq!(quota.delivered, 8);
    let rate = tenants
        .tenants
        .iter()
        .find(|t| t.name == "rate")
        .expect("rate tenant");
    assert_eq!(rate.rejected_rate, 4);
    assert_eq!(rate.delivered, 4);
}

/// With auto-attach off, a connection naming an unattached tenant is a
/// protocol error; pre-attached names connect fine, and two connections
/// under one name share the tenant.
#[test]
fn hello_resolution_enforces_the_attach_policy() {
    let cfg = ServerConfig {
        tenancy: Some(TenancyConfig {
            auto_attach: false,
            ..TenancyConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    server
        .attach_tenant("known", TenantConfig::default())
        .expect("attach");

    assert!(
        Client::connect(server.addr(), "unknown").is_err(),
        "an unattached name must be refused at Hello"
    );

    let mut a = Client::connect(server.addr(), "known").expect("connect");
    let mut b = Client::connect(server.addr(), "known").expect("connect");
    let sa = a.open_stream(App::Adpcm, 2).expect("open").expect_stream();
    let sb = b.open_stream(App::Mjpeg, 2).expect("open").expect_stream();
    a.close(sa).expect("close");
    b.close(sb).expect("close");

    let report = server.shutdown();
    let tenants = report.tenants.expect("tenancy report");
    assert_eq!(tenants.tenants.len(), 1, "one shared tenant");
    let known = &tenants.tenants[0];
    assert!(
        report.streams.iter().all(|s| s.tenant == known.id),
        "both connections' streams share the tenant"
    );
}

/// The tenants section of the shutdown report is byte-identical at any
/// supervisor shard count — sharding is an internal scaling knob, never
/// an observable.
#[test]
fn tenant_directory_json_is_shard_count_invariant() {
    let run = |shards: usize| {
        let (_, report) = eight_tenant_run(false, shards);
        report.tenants.expect("tenancy report").to_json()
    };
    let one = run(1);
    assert_eq!(one, run(2));
    assert_eq!(one, run(4));
}
