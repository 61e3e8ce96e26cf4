//! E8: microbenches of the framework's per-operation cost — the rigorous
//! version of Table 2's "Runtime" overhead row — plus the observability
//! ablation: the same duplicated-network simulation with metrics off and
//! on, which must agree within noise (the instrumentation is a handful of
//! relaxed atomic increments behind an `Option` check).
//!
//! Plain `std::time::Instant` harness: repeats each measurement and
//! reports the minimum (least-noise) per-op / per-run cost.

use rtft_apps::networks::App;
use rtft_core::{
    build_duplicated, instrument_duplicated, Replicator, ReplicatorConfig, Selector, SelectorConfig,
};
use rtft_kpn::{ChannelBehavior, Engine, Payload, Token};
use rtft_obs::MetricsRegistry;
use rtft_rtc::sizing::{DuplicationModel, SizingReport};
use rtft_rtc::{PjdModel, TimeNs};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const OPS: u64 = 200_000;

fn tok(seq: u64) -> Token {
    Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
}

/// Runs `f` (a whole timed block) `REPS` times, returns the minimum
/// elapsed nanoseconds.
fn min_elapsed_ns(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

fn bench_replicator() {
    let per_op = |divergence: Option<u64>| {
        let mut cfg = ReplicatorConfig::new([8, 8]);
        if let Some(d) = divergence {
            cfg = cfg.with_divergence_threshold(d);
        }
        min_elapsed_ns(|| {
            let mut r = Replicator::new("bench", cfg.clone());
            for i in 0..OPS {
                let _ = black_box(r.try_write(0, tok(i), TimeNs::from_ns(i)));
                let _ = black_box(r.try_read(0, TimeNs::from_ns(i)));
                let _ = black_box(r.try_read(1, TimeNs::from_ns(i)));
            }
        }) as f64
            / OPS as f64
    };
    println!(
        "replicator/write+2reads                {:8.1} ns/op",
        per_op(None)
    );
    println!(
        "replicator/write_with_divergence_check {:8.1} ns/op",
        per_op(Some(4))
    );
}

fn bench_selector() {
    let ns = min_elapsed_ns(|| {
        let mut s = Selector::new("bench", SelectorConfig::new([8, 8], 4));
        for i in 0..OPS {
            let _ = black_box(s.try_write(0, tok(i), TimeNs::from_ns(i)));
            let _ = black_box(s.try_write(1, tok(i), TimeNs::from_ns(i)));
            let _ = black_box(s.try_read(0, TimeNs::from_ns(i)));
        }
    }) as f64
        / OPS as f64;
    println!("selector/pair_write+read               {:8.1} ns/op", ns);
}

fn bench_sizing_analysis() {
    // The offline analysis cost (not on the critical path, but the paper's
    // "derived quickly from calibrations" claim deserves a number).
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    );
    let iters = 2_000u64;
    let ns = min_elapsed_ns(|| {
        for _ in 0..iters {
            let _ = black_box(SizingReport::analyze(black_box(&model)).expect("bounded"));
        }
    }) as f64
        / iters as f64;
    println!("sizing_report_analyze                  {:8.1} ns/op", ns);
}

/// The observability ablation: one ADPCM duplicated-network run, engine
/// metrics + detection instrumentation fully off vs fully on. Both arms
/// simulate the identical virtual-time schedule; the difference is pure
/// host-side instrumentation cost.
fn bench_metrics_ablation() {
    let app = App::Adpcm;
    let tokens = 400u64;
    let make_cfg = || {
        app.duplication_config(1, tokens)
            .expect("bounded profile")
            .with_seeds(1, 2)
    };
    let horizon = {
        let cfg = make_cfg();
        cfg.model.producer.period * (tokens + 20)
            + cfg.model.consumer.delay
            + cfg.sizing.selector_detection_bound * 4
            + TimeNs::from_secs(1)
    };
    let factory = app.replica_factory([11, 22]);

    let off_ns = min_elapsed_ns(|| {
        let (net, _ids) = build_duplicated(&make_cfg(), &factory);
        let mut engine = Engine::new(net);
        engine.run_until(horizon);
        black_box(engine.network());
    });
    let mut events = 0u64;
    let on_ns = min_elapsed_ns(|| {
        let registry = MetricsRegistry::new();
        let cfg = make_cfg();
        let (mut net, ids) = build_duplicated(&cfg, &factory);
        let _health = instrument_duplicated(&mut net, &ids, &cfg, &registry);
        let mut engine = Engine::new(net).with_metrics(&registry);
        engine.run_until(horizon);
        black_box(engine.network());
        events = registry.counter("kpn.engine.events").get();
    });
    let delta = on_ns as f64 / off_ns as f64 - 1.0;
    println!(
        "engine run, metrics off                {:8.2} ms/run",
        off_ns as f64 / 1e6
    );
    println!(
        "engine run, metrics on                 {:8.2} ms/run  ({} events, {:+.1}% vs off)",
        on_ns as f64 / 1e6,
        events,
        100.0 * delta
    );
    println!(
        "ablation verdict: instrumentation overhead is {} ({:+.1}%; anything under ~10% is \
         within run-to-run noise of this harness)",
        if delta.abs() < 0.10 {
            "within noise"
        } else {
            "ABOVE noise"
        },
        100.0 * delta
    );
}

fn main() {
    println!("===== E8: per-operation overhead (min of {REPS} reps, {OPS} ops each) =====");
    bench_replicator();
    bench_selector();
    bench_sizing_analysis();
    println!("\n===== E8: observability on/off ablation =====");
    bench_metrics_ablation();
}
