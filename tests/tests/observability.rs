//! Integration tests for the observability subsystem (`rtft-obs`): the
//! log₂-bucket histogram's quantile accuracy guarantee, and the
//! [`HealthModel`] folding real detection events from the duplicated
//! network under injected fail-stop and rate-degradation faults.

use rtft_apps::networks::App;
use rtft_core::{build_duplicated, instrument_duplicated, FaultPlan};
use rtft_kpn::Engine;
use rtft_obs::{registry_to_json, summary_report, Histogram, MetricsRegistry, ReplicaStatus};
use rtft_rtc::TimeNs;

// ---------------------------------------------------------------------------
// Histogram quantile accuracy. The documented guarantee: an estimate is the
// upper bound of the log₂ bucket holding the rank-q observation (clamped to
// the exact max), so for any value v the estimate lies in [v, 2v).
// ---------------------------------------------------------------------------

#[test]
fn histogram_quantiles_on_uniform_distribution() {
    let h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 1000);
    assert_eq!(s.sum, 500_500);
    assert_eq!(s.max, 1000, "max is exact, not bucketed");
    // True quantiles: p50 = 500, p90 = 900, p99 = 990. Estimates must sit
    // within one power of two above the true value, never below it.
    for (est, truth) in [(s.p50, 500u64), (s.p90, 900), (s.p99, 990)] {
        assert!(est >= truth, "estimate {est} below true quantile {truth}");
        assert!(
            est < 2 * truth,
            "estimate {est} beyond 2x true quantile {truth}"
        );
    }
    // Quantiles are monotone in q.
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
}

#[test]
fn histogram_quantiles_on_bimodal_distribution() {
    // Two far-apart modes: the median must land near the low mode and the
    // tail quantiles near the high one — a mean-based summary would report
    // 505 everywhere and see neither.
    let h = Histogram::new();
    for _ in 0..500 {
        h.record(10);
    }
    for _ in 0..500 {
        h.record(1000);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 1000);
    assert!(
        (10..20).contains(&s.p50),
        "median {} must sit at the low mode",
        s.p50
    );
    assert_eq!(s.p90, 1000, "tail clamps to the exact max of the high mode");
    assert_eq!(s.p99, 1000);
    let mean = s.mean();
    assert!(
        (504.0..506.0).contains(&mean),
        "mean {mean} sees neither mode"
    );
}

#[test]
fn histogram_quantiles_on_single_bucket_distribution() {
    // All observations identical: every quantile is exact (the bucket upper
    // bound clamps to the true max), including the degenerate zero bucket.
    let h = Histogram::new();
    for _ in 0..100 {
        h.record(42);
    }
    let s = h.snapshot();
    assert_eq!((s.p50, s.p90, s.p99, s.max), (42, 42, 42, 42));
    assert_eq!(s.mean(), 42.0);

    let zeros = Histogram::new();
    zeros.record(0);
    zeros.record(0);
    let z = zeros.snapshot();
    assert_eq!((z.p50, z.p99, z.max, z.sum), (0, 0, 0, 0));
    assert_eq!(z.count, 2);
}

// ---------------------------------------------------------------------------
// HealthModel transitions driven by the real detection machinery.
// ---------------------------------------------------------------------------

struct FaultRun {
    registry: MetricsRegistry,
    health: rtft_obs::HealthModel,
    bound_ns: u64,
}

/// Runs one MJPEG-profile duplicated network with `plan` injected into
/// replica 0, fully instrumented, and returns the observability state.
fn run_with_fault(plan: FaultPlan) -> FaultRun {
    let app = App::Mjpeg;
    let tokens = 120u64;
    let cfg = app
        .duplication_config(1, tokens)
        .expect("bounded profile")
        .with_seeds(1, 2)
        .with_fault(0, plan);
    let period = cfg.model.producer.period;
    let bound_ns = cfg
        .sizing
        .replicator_detection_bound
        .max(cfg.sizing.selector_detection_bound)
        .as_ns();
    let factory = app.replica_factory([11, 22]);
    let registry = MetricsRegistry::new();
    let (mut net, ids) = build_duplicated(&cfg, &factory);
    let health = instrument_duplicated(&mut net, &ids, &cfg, &registry);
    let mut engine = Engine::new(net).with_metrics(&registry);
    engine.run_until(period * (tokens + 40) + TimeNs::from_secs(2));
    FaultRun {
        registry,
        health,
        bound_ns,
    }
}

#[test]
fn health_model_flags_fail_stop_replica() {
    let fault_at = TimeNs::from_secs(1);
    let run = run_with_fault(FaultPlan::fail_stop_at(fault_at));

    assert_eq!(run.health.status(0), ReplicaStatus::Faulty);
    assert_eq!(
        run.health.status(1),
        ReplicaStatus::Healthy,
        "peer must stay clean"
    );
    let r0 = run.health.replica(0).expect("tracked");
    assert!(r0.detections >= 1);
    assert!(r0.first_site.is_some());
    assert_eq!(
        r0.fault_injected_at_ns,
        Some(fault_at.as_ns()),
        "plan pre-registered"
    );

    // Detection latency was derived from the injected instant and respects
    // the analytic worst-case bound.
    let lat = run.health.detection_latency_snapshot();
    assert_eq!(lat.count, 1, "latency recorded once, at first detection");
    assert!(lat.max > 0);
    assert!(
        lat.max <= run.bound_ns,
        "latency {} ns vs bound {} ns",
        lat.max,
        run.bound_ns
    );

    // The exporters agree with the model.
    let report = summary_report(&run.registry, Some(&run.health));
    assert!(report.contains("replica 0: faulty"), "{report}");
    assert!(report.contains("replica 1: healthy"), "{report}");
    assert!(report.contains("detection latency: n=1"), "{report}");
    let json = registry_to_json(&run.registry);
    assert!(json.contains("\"core.detections\""), "{json}");
    assert!(json.contains("\"kpn.engine.events\""), "{json}");
}

#[test]
fn health_model_flags_rate_degraded_replica() {
    // Rate degradation is the paper's "slowed" timing fault. The MJPEG
    // splitstream stage has a 1 ms service time, so a 100x stretch (from
    // t = 1 s) pushes per-token service to over 3x the 30 ms producer
    // period: the replica limps at under a third of the rate, the
    // replicator queue backs up, and detection must fire. The replica must
    // leave `Healthy`; the peer must not.
    let run = run_with_fault(FaultPlan::slow_by_at(100.0, TimeNs::from_secs(1)));

    assert_ne!(
        run.health.status(0),
        ReplicaStatus::Healthy,
        "slow replica undetected"
    );
    assert_eq!(
        run.health.status(1),
        ReplicaStatus::Healthy,
        "peer must stay clean"
    );
    let r0 = run.health.replica(0).expect("tracked");
    assert!(r0.detections >= 1);
    assert!(r0.first_detected_at_ns.expect("detected") >= TimeNs::from_secs(1).as_ns());
    assert_eq!(run.registry.counter("core.detections").get(), r0.detections);
}

#[test]
fn health_model_stays_clean_without_faults() {
    let run = run_with_fault(FaultPlan::healthy());
    assert_eq!(run.health.status(0), ReplicaStatus::Healthy);
    assert_eq!(run.health.status(1), ReplicaStatus::Healthy);
    assert_eq!(run.registry.counter("core.detections").get(), 0);
    assert_eq!(run.health.detection_latency_snapshot().count, 0);
    // The engine metrics still saw the whole run.
    assert!(run.registry.counter("kpn.engine.events").get() > 0);
    assert!(run.registry.counter("kpn.tokens.written").get() > 0);
}

/// Every arbitration channel registers its occupancy gauge under its own
/// name — the n-replica ones too, which used to fall back to `ch<N>`.
#[test]
fn n_replica_channels_register_named_fill_gauges() {
    use rtft_core::{build_n_modular_voting, NJitterStageReplica, NModularModel, NSizingReport};
    use rtft_rtc::PjdModel;

    let model = NModularModel {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 150.0),
        replicas: vec![
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 15.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    };
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = NJitterStageReplica::from_model(&model);
    let (net, _ids) = build_n_modular_voting(
        &model,
        &sizing,
        40,
        (1, 2),
        std::sync::Arc::new(rtft_kpn::Payload::U64),
        &factory,
        &[FaultPlan::healthy(); 3],
    );
    let registry = MetricsRegistry::new();
    Engine::new(net)
        .with_metrics(&registry)
        .run_until(TimeNs::from_secs(10));
    let gauges: Vec<String> = registry
        .gauge_values()
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    for name in [
        "kpn.channel.n-replicator.fill",
        "kpn.channel.voting-selector.fill",
    ] {
        assert!(gauges.iter().any(|g| g == name), "{name} not in {gauges:?}");
    }
    assert!(
        !gauges.iter().any(|g| g.starts_with("kpn.channel.ch")),
        "unnamed channel gauge in {gauges:?}"
    );
}
