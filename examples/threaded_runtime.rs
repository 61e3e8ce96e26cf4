//! The same fault-tolerance framework on real OS threads: the replicator
//! and selector state machines run unchanged under wall-clock time on the
//! host multicore (the "multicore emulation" leg of the reproduction).
//!
//! ```text
//! cargo run --release -p rtft-examples --bin threaded_runtime
//! ```
//!
//! Periods are scaled down (1 ms) so the demo finishes in under a second
//! of wall time: the run returns the moment the network deadlocks.

use rtft_core::{build_duplicated, DuplicationConfig, FaultPlan, JitterStageReplica, Selector};
use rtft_kpn::threaded::run_threaded;
use rtft_kpn::{Payload, PjdSink};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Millisecond-scale periods: 1000 tokens/second streams.
    let model = DuplicationModel::symmetric(
        PjdModel::new(TimeNs::from_ms(1), TimeNs::from_us(100), TimeNs::ZERO),
        PjdModel::new(TimeNs::from_ms(1), TimeNs::from_us(100), TimeNs::from_ms(3)),
        [
            PjdModel::new(TimeNs::from_ms(1), TimeNs::from_us(200), TimeNs::ZERO),
            PjdModel::new(TimeNs::from_ms(1), TimeNs::from_us(800), TimeNs::ZERO),
        ],
    );
    let tokens = 400u64;
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded")
        .with_token_count(tokens)
        .with_payload(Arc::new(Payload::U64))
        // Replica 0 dies 150 ms in (wall-clock!).
        .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_ms(150)));
    println!(
        "threaded run: {} tokens @ 1 kHz, D = {}, caps R{:?} S{:?}",
        tokens,
        cfg.sizing.selector_threshold,
        cfg.sizing.replicator_capacity,
        cfg.sizing.selector_capacity
    );

    let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([11, 22]);
    let (net, _ids) = build_duplicated(&cfg, &factory);

    let start = std::time::Instant::now();
    // The producer/consumer halt after `tokens`; the pipeline stages are
    // infinite Kahn processes and park on their channels once the stream
    // ends. With every thread halted or parked the network is deadlocked,
    // so the run returns then, not at the 20 s deadline, and hands the
    // parked stages back as `blocked`.
    let run = run_threaded(net, Duration::from_secs(20));
    println!(
        "wall time: {:?}; parked infinite stages at deadlock: {:?}",
        start.elapsed(),
        run.blocked
    );
    assert!(
        run.timed_out.is_empty(),
        "deadline hit: {:?}",
        run.timed_out
    );

    // Channel index 1 is the selector (the builder adds replicator first).
    let (enqueued, discarded, fault0) = run
        .channel_as::<Selector, _>(1, |s: &Selector| (s.enqueued(), s.discarded(), s.fault(0)))
        .expect("selector state");
    println!("selector: enqueued {enqueued}, discarded {discarded}, replica-0 fault: {fault0:?}");

    let sink = run
        .process_as::<PjdSink>("consumer")
        .expect("consumer finished");
    println!(
        "consumer received {} tokens on real threads",
        sink.arrivals().len()
    );
    assert_eq!(
        sink.arrivals().len() as u64,
        tokens,
        "fault masked under wall-clock time"
    );
    assert!(fault0.is_some(), "fault detected under wall-clock time");
}
