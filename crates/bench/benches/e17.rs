//! E17: hot-path overhaul — calendar-queue engine throughput, E11-style
//! p99 flush latency, and payload-pool hit rate.
//!
//! Three sections, one per layer of the overhaul:
//!
//! 1. **Engine micro** — the E12 pipeline (PjdSource → Fifo(64) →
//!    Collector, 200k tokens) timed on the calendar-queue engine.
//! 2. **Flush latency** — the E11 serving path (real loopback TCP,
//!    ADPCM batches, full round trip through fleet admission and the
//!    DES run) at a fixed connection count, reporting p50/p99 per
//!    flush.
//! 3. **Pool hit rate** — steady-state recycling through the global
//!    payload pool while the server runs, from the rtft-obs counters.
//!
//! Run with `cargo bench --bench e17`; emits a machine-readable
//! `BENCH_e17.json:` line and writes `BENCH_e17.json` at the workspace
//! root for trend tracking (the CI perf smoke reads its floor from it).

use rtft_apps::networks::App;
use rtft_bench::report::{banner, AsciiTable};
use rtft_fleet::FleetConfig;
use rtft_kpn::{Collector, Engine, Fifo, Network, Payload, PjdSource, PortId};
use rtft_obs::json::JsonObject;
use rtft_obs::{Histogram, MetricsRegistry};
use rtft_rtc::{PjdModel, TimeNs};
use rtft_serve::{workload, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const ENGINE_TOKENS: u64 = 200_000;
const CONNECTIONS: usize = 4;
const FLUSHES_PER_CONNECTION: usize = 8;
const TOKENS_PER_FLUSH: usize = 16;

fn engine_network() -> Network {
    let mut net = Network::new();
    let link = net.add_channel(Fifo::new("link", 64));
    let model = PjdModel::periodic(TimeNs::from_us(10));
    net.add_process(PjdSource::new(
        "src",
        PortId::of(link),
        model,
        1,
        Some(ENGINE_TOKENS),
        Payload::U64,
    ));
    net.add_process(Collector::new(
        "col",
        PortId::of(link),
        Some(ENGINE_TOKENS as usize),
    ));
    net
}

/// Engine events/sec; best of eight metric-free runs (the box this runs
/// on is shared, so individual runs see multi-ms scheduling noise on a
/// ~10 ms workload).
fn engine_events_per_sec() -> (u64, f64) {
    let registry = MetricsRegistry::new();
    let mut counted = Engine::new(engine_network()).with_metrics(&registry);
    counted.run_until(TimeNs::from_secs(30));
    let events = registry.counter("kpn.engine.events").get();

    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let mut engine = Engine::new(engine_network());
        let start = Instant::now();
        engine.run_until(TimeNs::from_secs(30));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (events, events as f64 / best)
}

struct PoolPoint {
    hits: u64,
    misses: u64,
    recycled: u64,
    hit_rate: f64,
}

/// Steady-state recycling through the server's payload pool: identical
/// send/flush rounds so settled batches are parked, reclaimed, and
/// re-issued to later frame reads. Counters come off the server's
/// rtft-obs registry (`kpn.pool.*`).
fn pool_hit_rate() -> PoolPoint {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr(), "e17-pool").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Adpcm, 17, 32);
    for _ in 0..32 {
        client.send_tokens(stream, &batch).expect("send");
        loop {
            let run = client.flush(stream).expect("flush");
            if run.busy.is_some() {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            break;
        }
    }
    client.close(stream).expect("close");
    let hits = server.registry().counter("kpn.pool.hits").get();
    let misses = server.registry().counter("kpn.pool.misses").get();
    let recycled = server.registry().counter("kpn.pool.recycled").get();
    let report = server.shutdown();
    assert!(report.balanced(), "token accounting must balance");
    PoolPoint {
        hits,
        misses,
        recycled,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}

struct FlushPoint {
    tokens_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn flush_latency() -> FlushPoint {
    let cfg = ServerConfig {
        fleet: FleetConfig {
            workers: 4,
            pending_capacity: CONNECTIONS.max(4),
            max_replacements: 0,
        },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("e17-{c}")).expect("connect");
                let stream = client
                    .open_stream(App::Adpcm, 2)
                    .expect("open")
                    .expect_stream();
                let latency = Histogram::new();
                let mut delivered = 0u64;
                for f in 0..FLUSHES_PER_CONNECTION {
                    let batch = workload(App::Adpcm, (c * 31 + f) as u64, TOKENS_PER_FLUSH);
                    client.send_tokens(stream, &batch).expect("send");
                    let t0 = Instant::now();
                    loop {
                        let run = client.flush(stream).expect("flush");
                        if run.busy.is_some() {
                            std::thread::sleep(Duration::from_millis(2));
                            continue;
                        }
                        delivered += run.outputs.len() as u64;
                        latency.record(t0.elapsed().as_nanos() as u64);
                        break;
                    }
                }
                client.close(stream).expect("close");
                (delivered, latency)
            })
        })
        .collect();

    let mut delivered = 0u64;
    let latency = Histogram::new();
    for handle in handles {
        let (d, h) = handle.join().expect("client thread");
        delivered += d;
        latency.merge_from(&h);
    }
    let elapsed = start.elapsed().as_secs_f64();

    let report = server.shutdown();
    assert!(report.balanced(), "token accounting must balance");
    let expected = (CONNECTIONS * FLUSHES_PER_CONNECTION * TOKENS_PER_FLUSH) as u64;
    assert_eq!(delivered, expected, "every token must come back");

    let snap = latency.snapshot();
    FlushPoint {
        tokens_per_sec: delivered as f64 / elapsed,
        p50_ms: snap.p50 as f64 / 1e6,
        p99_ms: snap.p99 as f64 / 1e6,
    }
}

/// `BENCH_e17.json` at the workspace root (cargo runs benches with the
/// package directory as cwd, so relative paths are anchored explicitly).
fn floor_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e17.json")
}

/// CI perf smoke: re-runs the engine micro and fails on a >30%
/// regression against the `engine_events_per_sec` floor checked in as
/// `BENCH_e17.json`. Invoked as `cargo bench --bench e17 -- --ci-smoke
/// [floor-file]`.
fn ci_smoke(floor_path: &std::path::Path) -> ! {
    let floor_path = floor_path.display().to_string();
    let floor_json = std::fs::read_to_string(&floor_path)
        .unwrap_or_else(|e| panic!("read perf floor {floor_path}: {e}"));
    let key = "\"engine_events_per_sec\":";
    let at = floor_json
        .find(key)
        .unwrap_or_else(|| panic!("{floor_path} has no engine_events_per_sec field"));
    let floor: f64 = floor_json[at + key.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric engine_events_per_sec");

    let (_, eps) = engine_events_per_sec();
    let allowed = floor * 0.7;
    println!(
        "E12 perf smoke: {:.2} Mevents/s measured, floor {:.2} (fail below {:.2})",
        eps / 1e6,
        floor / 1e6,
        allowed / 1e6
    );
    if eps < allowed {
        eprintln!(
            "PERF SMOKE FAILED: engine micro regressed >30% vs the checked-in floor \
             ({:.2} < {:.2} Mevents/s)",
            eps / 1e6,
            allowed / 1e6
        );
        std::process::exit(1);
    }
    println!("PERF SMOKE OK");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--ci-smoke") {
        // Cargo appends harness flags like `--bench` after user args;
        // only a non-flag argument is a floor-file override.
        match args.get(at + 1).filter(|a| !a.starts_with('-')) {
            Some(path) => ci_smoke(std::path::Path::new(path)),
            None => ci_smoke(&floor_file()),
        }
    }

    banner("E17: hot-path overhaul — engine, flush latency, pool");

    let (events, eps) = engine_events_per_sec();
    let mevents = eps / 1e6;
    println!("engine micro: {ENGINE_TOKENS} tokens, {events} events, {mevents:.2} Mevents/s");

    let flush = flush_latency();
    let pool = pool_hit_rate();

    let mut table = AsciiTable::new();
    table
        .row(["section", "metric", "value"])
        .row(["engine", "Mevents/s", &format!("{mevents:.2}")])
        .row(["flush", "tokens/s", &format!("{:.0}", flush.tokens_per_sec)])
        .row(["flush", "p50 ms", &format!("{:.2}", flush.p50_ms)])
        .row(["flush", "p99 ms", &format!("{:.2}", flush.p99_ms)])
        .row(["pool", "hit rate", &format!("{:.3}", pool.hit_rate)])
        .row(["pool", "recycled", &format!("{}", pool.recycled)]);
    print!("{}", table.render());

    let json = JsonObject::new()
        .str_field("bench", "e17_hot_path")
        .u64_field("engine_events", events)
        .u64_field("engine_events_per_sec", eps as u64)
        .u64_field("flush_tokens_per_sec", flush.tokens_per_sec as u64)
        .f64_field("flush_p50_ms", flush.p50_ms)
        .f64_field("flush_p99_ms", flush.p99_ms)
        .u64_field("pool_hits", pool.hits)
        .u64_field("pool_misses", pool.misses)
        .u64_field("pool_recycled", pool.recycled)
        .f64_field("pool_hit_rate", pool.hit_rate)
        .finish();
    println!("\nBENCH_e17.json: {json}");
    if let Err(e) = std::fs::write(floor_file(), format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_e17.json: {e}");
    }
}
