//! End-to-end tour of the observability subsystem (`rtft-obs`) on the
//! MJPEG fault-tolerance experiment.
//!
//! Runs the duplicated MJPEG network with a fail-stop fault injected into
//! replica 0, with every observability layer attached:
//!
//! * engine metrics (`Engine::with_metrics`) — token/event counters and
//!   per-channel fill gauges with high-water marks;
//! * detection instrumentation (`instrument_duplicated`) — the replicator
//!   and selector report latches into a `HealthModel`, which folds them
//!   into per-replica status and a detection-latency histogram;
//! * the bounded token-flow event log (`Engine::with_events`), an
//!   `rtft_obs::EventSink` exported as JSONL.
//!
//! Everything runs on deterministic virtual time: the subsystem records
//! *which* virtual instant things happened at but never reads a host
//! clock on the observed path — the same zero-timekeeping discipline as
//! the paper's counter-based detection.
//!
//! ```sh
//! cargo run --bin observability
//! ```

use rtft_core::{build_duplicated, instrument_duplicated, FaultPlan};
use rtft_kpn::Engine;
use rtft_obs::{
    events_to_jsonl, registry_to_json, summary_report, EventSink, MetricsRegistry, ReplicaStatus,
};
use rtft_rtc::TimeNs;

use rtft_apps::networks::App;

fn main() {
    let app = App::Mjpeg;
    let tokens = 200u64;
    let fault_at = TimeNs::from_secs(2);
    let cfg = app
        .duplication_config(7, tokens)
        .expect("bounded profile")
        .with_seeds(1, 2)
        .with_fault(0, FaultPlan::fail_stop_at(fault_at));
    let period = cfg.model.producer.period;
    let factory = app.replica_factory([11, 22]);

    println!("== observability demo: MJPEG duplicated network ==");
    println!(
        "{} tokens at {} period, replica 0 fail-stops at {}\n",
        tokens, period, fault_at
    );

    // Attach every layer, then run to completion on virtual time.
    let registry = MetricsRegistry::new();
    let (mut net, ids) = build_duplicated(&cfg, &factory);
    let health = instrument_duplicated(&mut net, &ids, &cfg, &registry);
    let sink = EventSink::new(8);
    let mut engine = Engine::new(net)
        .with_metrics(&registry)
        .with_events(sink.clone());
    engine.run_until(period * (tokens + 40) + TimeNs::from_secs(2));

    // 1. The human-readable summary: counters, watermarks, health.
    print!("{}", summary_report(&registry, Some(&health)));

    assert_eq!(
        health.status(0),
        ReplicaStatus::Faulty,
        "fault must be detected"
    );
    assert_eq!(
        health.status(1),
        ReplicaStatus::Healthy,
        "peer must stay clean"
    );
    assert_eq!(
        ids.consumer_arrivals(engine.network()).len() as u64,
        tokens,
        "fault must be masked: the consumer sees every token"
    );

    // 2. The event ring, exported as JSONL (tail only — the ring bounded
    //    memory during the run and counted what it evicted).
    assert!(!sink.is_empty(), "the engine must have recorded events");
    println!(
        "\n== last {} of {} engine events, as JSONL ==",
        sink.len(),
        sink.len() as u64 + sink.dropped()
    );
    print!("{}", events_to_jsonl(&sink));

    // 3. The machine-readable registry dump a campaign would archive next
    //    to its result tables.
    println!("\n== registry JSON ==");
    println!("{}", registry_to_json(&registry));
}
