//! The traced run: the per-layer ledger.
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions and reading its public counters. Three parts:
//!
//! 1. a short untraced and a short traced pass of the workload's serve
//!    shape, with client-side spans `flush` ⊃ `client.send_tokens[_durable]`,
//!    `client.flush_rtt` (their ratio is the tracing overhead);
//! 2. a replay of the *same batches, same flush ids* through each layer's
//!    public functions in path order, one span per call — the stage
//!    p50s, whose sum is set against the traced `flush` p50 to give
//!    `serve.residual_ms`: the part of a flush no layer of ours accounts
//!    for (socket, thread hand-off, kernel timers);
//! 3. per-operation micro-measurements and the fixed campaign pass.
//!
//! All spans are kept in memory and written to `out/trace-<workload>.jsonl`
//! when the run ends.

use crate::campaign::{self, Work};
use crate::serve_load::{Session, Shape};
use crate::spec::{shape_of, Report};
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;
use crate::{out_dir, peak_rss_mb, Args, RunResult};
use rtft_apps::networks::App;
use rtft_apps::{adpcm, h264, mjpeg};
use rtft_chaos::Campaign;
use rtft_core::{
    build_duplicated, build_n_modular_voting, instrument_duplicated, DuplicationConfig, FaultPlan,
    HeteroModel, HeteroSelector, HeteroSizingReport, JitterStageReplica, NJitterStageReplica,
    NModularModel, NSelector, NSizingReport, PayloadGenerator, Replicator, ReplicatorConfig,
    SampledReplicator, Selector, SelectorConfig, VotingSelector,
};
use rtft_distfn::LRepetitive;
use rtft_fleet::{
    execute_spec, FleetExecutor, JobNotifier, JobRecord, JobRuntime, JobSpec, JobTemplate,
};
use rtft_kpn::{
    digest_bytes, Bytes, ChannelBehavior, Collector, Engine, Fifo, Network, Payload, PayloadPool,
    PjdSource, PortId, Token,
};
use rtft_obs::{Histogram, MetricsRegistry};
use rtft_rtc::sizing::SizingReport;
use rtft_rtc::{PjdModel, TimeNs};
use rtft_scc::{CoreId, NocModel};
use rtft_serve::wire::{read_frame, read_frame_pooled, write_frame, write_tokens};
use rtft_serve::{Frame, OutputEvent, ServerConfig, TenantConfig, TenantManager, WalConfig};
use rtft_wal::{Wal, WalRecord};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Matches `rtft_serve`'s private `SERVICE_DIVISOR` (replica service time
/// = producer period / 2); [`mirror_spec`] is checked against the live
/// server's outputs, so a drift here fails the run instead of skewing it.
const SERVICE_DIVISOR: u64 = 2;

/// Calls (= spans) one replay stage records at most, so the span file
/// stays in the megabytes however fast a stage is.
const MAX_STAGE_CALLS: usize = 4000;

/// One flush of the traced pass, kept for the replay: its outputs
/// (virtual delivery times and digests) are what the mirrored spec must
/// reproduce, and its flush id tags the replay's spans.
struct Replay {
    flush_id: u64,
    stream: u32,
    payloads: Vec<Vec<u8>>,
    live: Vec<OutputEvent>,
}

/// The fleet job `rtft_serve` builds for one flush batch, rebuilt from the
/// public `core`/`fleet` builders (`build_spec` itself is crate-private).
/// Covers the two structures the workloads use: duplicated (2) and
/// tri-modular voting (3).
fn mirror_spec(cfg: &ServerConfig, stream: u32, shape: &Shape, batch: &[Bytes]) -> JobSpec {
    let model = shape.app.profile().model;
    let n = batch.len() as u64;
    let payloads: Vec<Payload> = batch.iter().map(|b| Payload::from(b.clone())).collect();
    let payload: PayloadGenerator =
        Arc::new(move |i| payloads[(i as usize) % payloads.len()].clone());
    let seed = cfg
        .seed
        .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let service = model.producer.period / SERVICE_DIVISOR;
    let offset = service + model.producer.jitter + TimeNs::from_ms(1);
    let template = if shape.redundancy == 2 {
        let cfg = DuplicationConfig::from_model(model)
            .expect("profile models are bounded")
            .with_token_count(n)
            .with_seeds(seed ^ 0xA5A5, seed ^ 0x5A5A)
            .with_payload(payload);
        let factory = JitterStageReplica {
            service,
            out_model: [
                model.replica_out[0].with_delay(offset),
                model.replica_out[1].with_delay(offset),
            ],
            seeds: [seed ^ 0x11, seed ^ 0x22],
        };
        JobTemplate::Duplicated {
            cfg,
            factory: Arc::new(factory),
        }
    } else {
        let mid_jitter = TimeNs::from_ns(
            (model.replica_out[0].jitter.as_ns() + model.replica_out[1].jitter.as_ns()) / 2,
        );
        let nmodel = NModularModel {
            producer: model.producer,
            consumer: model.consumer,
            replicas: vec![
                model.replica_out[0],
                model.replica_out[1],
                PjdModel::new(model.producer.period, mid_jitter, TimeNs::ZERO),
            ],
        };
        let sizing = NSizingReport::analyze(&nmodel).expect("profile models are bounded");
        let factory = NJitterStageReplica {
            service,
            out_models: nmodel.replicas.clone(),
            offset,
            seed_base: seed ^ 0x33,
        };
        JobTemplate::NModularVoting {
            model: nmodel,
            sizing,
            token_count: n,
            seeds: (seed ^ 0xA5A5, seed ^ 0x5A5A),
            payload,
            factory: Arc::new(factory),
            faults: vec![FaultPlan::healthy(); 3],
        }
    };
    JobSpec {
        name: format!("serve/{}/{}", shape.app.label(), stream),
        template,
        relative_deadline: Duration::from_secs(120),
        runtime: JobRuntime::DiscreteEvent {
            horizon: model.producer.period * (n + 60) + model.consumer.delay + TimeNs::from_secs(5),
        },
    }
}

/// Builds the spec's network the way `rtft_fleet::execute` does.
fn build_network(spec: &JobSpec) -> Network {
    match &spec.template {
        JobTemplate::Duplicated { cfg, factory } => {
            let (mut net, ids) = build_duplicated(cfg, factory.as_ref());
            let registry = MetricsRegistry::new();
            let _health = instrument_duplicated(&mut net, &ids, cfg, &registry);
            net
        }
        JobTemplate::NModularVoting {
            model,
            sizing,
            token_count,
            seeds,
            payload,
            factory,
            faults,
        } => {
            build_n_modular_voting(
                model,
                sizing,
                *token_count,
                *seeds,
                Arc::clone(payload),
                factory.as_ref(),
                faults,
            )
            .0
        }
        _ => unreachable!("mirror_spec builds duplicated or voting jobs only"),
    }
}

fn horizon_of(spec: &JobSpec) -> TimeNs {
    match spec.runtime {
        JobRuntime::DiscreteEvent { horizon } => horizon,
        JobRuntime::Threaded { .. } => unreachable!("mirror_spec builds DES jobs only"),
    }
}

/// Median ns per call of `f` over `slice`, from batches sized to take
/// about 200 µs each; returns the median and the batch count.
fn per_call_ns(slice: Duration, mut f: impl FnMut()) -> (f64, u64) {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_micros(200) || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut s = Samples::new();
    let until = Instant::now() + slice;
    while Instant::now() < until || s.len() < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        s.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    (s.median().expect("at least five batches"), s.len() as u64)
}

fn tok(seq: u64) -> Token {
    Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
}

/// ns per token through one arbitration channel: `writes` interface
/// writes then `reads` interface reads, as the `overhead` bench does it.
fn channel_ns(
    slice: Duration,
    mut ch: impl ChannelBehavior,
    writes: usize,
    reads: usize,
) -> (f64, u64) {
    let mut i = 0u64;
    per_call_ns(slice, || {
        let now = TimeNs::from_ns(i);
        for w in 0..writes {
            let _ = black_box(ch.try_write(w, tok(i), now));
        }
        for r in 0..reads {
            let _ = black_box(ch.try_read(r, now));
        }
        i += 1;
    })
}

/// Everything the ledger needs from one pass of a serve session.
struct Pass {
    stats: crate::serve_load::WindowStats,
    finish: crate::serve_load::Finish,
    connect_open_ms: f64,
    cfg: ServerConfig,
    replays: Vec<Replay>,
}

/// Sets up a session of `shape`, warms it, runs a window and tears it
/// down. With `traced`, spans are kept, and so is the first flush of each
/// distinct batch, for the replay.
fn serve_pass(shape: Shape, seed: u64, seconds: f64, epoch: Instant, traced: bool) -> Pass {
    let mut session = Session::setup(shape, seed);
    session.warm_up();
    let mut stats = session.window(seconds, epoch, traced);
    let replays = std::mem::take(&mut stats.kept)
        .into_iter()
        .map(|k| Replay {
            flush_id: k.flush_id,
            stream: session.conns[k.conn].stream,
            payloads: session.conns[k.conn].batches[k.batch].payloads.clone(),
            live: k.outputs,
        })
        .collect();
    let connect_open_ms = session.connect_open.as_secs_f64() * 1e3;
    let cfg = session.cfg.clone();
    let finish = session.finish();
    Pass {
        stats,
        finish,
        connect_open_ms,
        cfg,
        replays,
    }
}

pub fn run(args: &Args, workload: &str, epoch: Instant) -> RunResult {
    let shape = shape_of(workload);
    let secs = args.seconds;
    let slice = Duration::from_secs_f64(secs * 0.01);
    let stage_slice = Duration::from_secs_f64(secs * 0.02);
    let mut report = Report::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // ---- 1. untraced and traced pass of the serve shape ----------------
    let mut plain = serve_pass(shape, args.seed, secs * 0.12, epoch, false);
    let mut traced = serve_pass(shape, args.seed, secs * 0.18, epoch, true);
    // A durable session of the shape with no window: its log, a fixed
    // number of flushes long however fast the server is, is what the
    // replay and recovery rows read. (A full window's log is pruned by
    // its retention once the server is fast, and replays nothing.)
    let twin = Shape {
        durable: true,
        ..shape
    };
    let durable = serve_pass(twin, args.seed, 0.0, epoch, false);
    for pass in [&plain, &traced, &durable] {
        attempted += pass.finish.attempted;
        failed += pass.finish.failed;
    }
    let mut tracer = traced.stats.spans.take().expect("traced pass keeps spans");
    let mut flush_us = tracer.durations_us("flush");
    let flush_p50_ms = flush_us.median().unwrap_or(0.0) / 1e3;
    let n_flush = flush_us.len() as u64;
    report.set("serve.flush_p50_ms", flush_p50_ms, n_flush);
    report.set(
        "serve.flush_p99_ms",
        flush_us.quantile(0.99).unwrap_or(0.0) / 1e3,
        n_flush,
    );
    report.set(
        "serve.send_p50_ms",
        tracer
            .durations_us(shape.send_span())
            .median()
            .unwrap_or(0.0)
            / 1e3,
        n_flush,
    );
    report.set(
        "serve.flush_rtt_p50_ms",
        tracer
            .durations_us("client.flush_rtt")
            .median()
            .unwrap_or(0.0)
            / 1e3,
        n_flush,
    );
    let plain_p50 = plain.stats.op_ms.median().unwrap_or(0.0);
    report.set(
        "serve.trace_overhead_share",
        if plain_p50 > 0.0 {
            flush_p50_ms / plain_p50 - 1.0
        } else {
            0.0
        },
        plain.stats.op_ms.len() as u64,
    );
    let t = &traced.stats;
    report.set(
        "serve.deadline_miss_share",
        t.deadline_missed as f64 / t.attempted.max(1) as f64,
        t.attempted,
    );
    report.set(
        "serve.busy_share",
        t.busy as f64 / (t.attempted + t.busy).max(1) as f64,
        t.attempted + t.busy,
    );
    report.set(
        "serve.connect_open_ms",
        median_of(&[plain.connect_open_ms, traced.connect_open_ms]).expect("two passes"),
        2,
    );
    let (hits, misses) = (traced.finish.pool_hits, traced.finish.pool_misses);
    report.set(
        "kpn.pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );

    let (replay_wall, replay_flushes) = durable.finish.replay.unwrap_or((Duration::ZERO, 0));
    report.set(
        "serve.replay_us_per_flush",
        replay_wall.as_secs_f64() * 1e6 / replay_flushes.max(1) as f64,
        replay_flushes,
    );
    let (rec_records, rec_ns) = durable.finish.recovery.unwrap_or((0, 1));
    report.set(
        "wal.recovery_records_per_s",
        rec_records as f64 / (rec_ns.max(1) as f64 / 1e9),
        rec_records,
    );

    // ---- 2. the same batches through each layer, in path order ---------
    let cfg = traced.cfg.clone();
    let replays = std::mem::take(&mut traced.replays);
    if replays.is_empty() {
        eprintln!("rtbench: the traced pass finished no flush; give it more --seconds");
        std::process::exit(1);
    }
    let pool = PayloadPool::new();
    let mut scratch = Vec::new();
    let mut wire_bytes = 0usize;

    // Prepared forms of each batch (outside any span).
    struct Prepared {
        wire: Vec<u8>,
        bytes: Vec<Bytes>,
        spec: JobSpec,
        arrivals: Vec<(u64, u64)>,
        out_wire: Vec<u8>,
    }
    let mut prepared: Vec<Prepared> = Vec::new();
    for r in &replays {
        let mut wire = Vec::new();
        write_tokens(&mut wire, r.stream, &r.payloads).expect("encode into a Vec");
        write_frame(&mut wire, &Frame::Flush { stream: r.stream }).expect("encode into a Vec");
        wire_bytes = wire.len();
        let bytes: Vec<Bytes> = r
            .payloads
            .iter()
            .map(|p| Bytes::from(p.as_slice()))
            .collect();
        let spec = mirror_spec(&cfg, r.stream, &shape, &bytes);
        let result = execute_spec(&spec);
        // The mirrored spec must reproduce the live server's outputs
        // exactly: same virtual delivery times, same digests.
        let same = result.arrival_log.len() == r.live.len()
            && result
                .arrival_log
                .iter()
                .zip(&r.live)
                .all(|(&(at, d), o)| at == o.at_ns && d == o.digest);
        if !same {
            eprintln!(
                "rtbench: mirrored spec diverged from the server on flush {:#x}",
                r.flush_id
            );
            failed += 1;
        }
        attempted += 1;
        let mut out_wire = Vec::new();
        encode_outputs(&mut out_wire, r.stream, &result.arrival_log);
        prepared.push(Prepared {
            wire,
            bytes,
            spec,
            arrivals: result.arrival_log,
            out_wire,
        });
    }

    // Runs `f` over the kept batches, round robin, one span per call,
    // until the slice is used (or the span budget, for calls that take
    // microseconds) and every batch was seen three times.
    let stage = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut(usize)| {
        let until = Instant::now() + stage_slice;
        let mut i = 0usize;
        while (Instant::now() < until && i < MAX_STAGE_CALLS) || i < 3 * replays.len() {
            let k = i % replays.len();
            let start = Instant::now();
            f(k);
            tracer.record(name, start, Instant::now(), None, replays[k].flush_id);
            i += 1;
        }
    };

    let mut out = Vec::with_capacity(wire_bytes);
    stage(&mut tracer, "serve.wire_encode", &mut |k| {
        out.clear();
        write_tokens(&mut out, replays[k].stream, &replays[k].payloads).expect("encode");
        write_frame(
            &mut out,
            &Frame::Flush {
                stream: replays[k].stream,
            },
        )
        .expect("encode");
        black_box(&out);
    });
    let mut parked: Vec<Bytes> = Vec::new();
    stage(&mut tracer, "serve.wire_decode", &mut |k| {
        // The previous call's buffers go back first, as the settle
        // notifier parks them, so steady-state decodes hit the pool.
        for b in parked.drain(..) {
            pool.park(b);
        }
        let mut cur = Cursor::new(prepared[k].wire.as_slice());
        let max = cfg.max_frame;
        if let Ok((Frame::Tokens { payloads, .. }, _)) =
            read_frame_pooled(&mut cur, max, &pool, &mut scratch)
        {
            parked = payloads;
        }
        black_box(read_frame_pooled(&mut cur, max, &pool, &mut scratch).is_ok());
    });
    stage(&mut tracer, "serve.build_spec", &mut |k| {
        black_box(mirror_spec(
            &cfg,
            replays[k].stream,
            &shape,
            &prepared[k].bytes,
        ));
    });
    stage(&mut tracer, "rtc.sizing", &mut |_| {
        let model = shape.app.profile().model;
        if shape.redundancy == 2 {
            black_box(SizingReport::analyze(black_box(&model)).is_ok());
        } else if let JobTemplate::NModularVoting { model, .. } = &prepared[0].spec.template {
            black_box(NSizingReport::analyze(black_box(model)).is_ok());
        }
    });
    stage(&mut tracer, "fleet.execute", &mut |k| {
        black_box(execute_spec(&prepared[k].spec));
    });
    // Inside execute: network build, then the engine run on that network.
    {
        let until = Instant::now() + stage_slice;
        let mut i = 0usize;
        while (Instant::now() < until && i < MAX_STAGE_CALLS) || i < 3 * replays.len() {
            let k = i % replays.len();
            let t0 = Instant::now();
            let net = build_network(&prepared[k].spec);
            let t1 = Instant::now();
            let mut engine = Engine::new(net);
            engine.run_until(horizon_of(&prepared[k].spec));
            let t2 = Instant::now();
            black_box(engine.network());
            tracer.record("core.build", t0, t1, None, replays[k].flush_id);
            tracer.record("kpn.engine_run", t1, t2, None, replays[k].flush_id);
            i += 1;
        }
    }
    // Exact event counts, from one metered run per batch.
    let mut events = Samples::new();
    for p in &prepared {
        let registry = MetricsRegistry::new();
        let mut engine = Engine::new(build_network(&p.spec)).with_metrics(&registry);
        engine.run_until(horizon_of(&p.spec));
        events.push(registry.counter("kpn.engine.events").get() as f64);
    }
    report.set(
        "kpn.events_per_flush",
        events.median().unwrap_or(0.0),
        events.len() as u64,
    );

    // Fleet hand-off: submit → settle notifier, on the server's own
    // executor configuration.
    let fleet = FleetExecutor::new(cfg.fleet.clone());
    let (tx, rx) = mpsc::channel::<(Instant, JobRecord)>();
    let mut a_record: Option<JobRecord> = None;
    stage(&mut tracer, "fleet.submit_to_settle", &mut |k| {
        let tx = tx.clone();
        let notify: JobNotifier = Arc::new(move |record, _| {
            let _ = tx.send((Instant::now(), record.clone()));
        });
        let _ = fleet.submit_with(prepared[k].spec.clone(), Some(notify));
        if let Ok((_, record)) = rx.recv_timeout(Duration::from_secs(30)) {
            a_record = Some(record);
        }
    });
    // A job's closure keeps the executor alive until its worker has
    // dropped it; were that the last reference, the worker would have to
    // join itself. Wait for the workers to go idle so it is dropped here.
    while fleet.load().inflight > 0 {
        std::thread::yield_now();
    }
    let _ = fleet.join();

    // WAL and tenancy, where the durable path puts them.
    let wal_dir = out_dir().join(format!("wal-layer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (wal, _) = Wal::open(WalConfig::new(wal_dir.join("sync"))).expect("open wal");
    stage(&mut tracer, "wal.commit_tokens", &mut |k| {
        let rec = WalRecord::Tokens {
            stream: replays[k].stream,
            payloads: prepared[k].bytes.clone(),
        };
        black_box(wal.append(&rec).is_ok());
    });
    stage(&mut tracer, "wal.commit_outputs", &mut |k| {
        let rec = WalRecord::Outputs {
            stream: replays[k].stream,
            first_seq: 0,
            digests: prepared[k].arrivals.iter().map(|&(_, d)| d).collect(),
        };
        black_box(wal.append(&rec).is_ok());
    });
    let appends = wal.registry().counter("wal.appends").get();
    let wal_bytes = wal.registry().counter("wal.append.bytes").get();
    report.set(
        "wal.bytes_per_flush",
        2.0 * wal_bytes as f64 / appends.max(1) as f64,
        appends,
    );
    drop(wal);
    let tenants = TenantManager::new(4);
    let tenant = tenants
        .attach("rtbench", TenantConfig::default())
        .expect("attach tenant");
    let record = a_record.expect("a job settled");
    let n_tokens = shape.tokens_per_flush as u64;
    stage(&mut tracer, "tenant.admit", &mut |k| {
        let admitted = tenants.admit_tokens(tenant, n_tokens).is_ok()
            && tenants.admit_flush(tenant, n_tokens, k as u64).is_ok();
        black_box(admitted);
        tenants.on_settle(tenant, &record, None);
    });

    let mut sink = Vec::new();
    stage(&mut tracer, "serve.output_encode", &mut |k| {
        sink.clear();
        encode_outputs(&mut sink, replays[k].stream, &prepared[k].arrivals);
        black_box(&sink);
    });
    stage(&mut tracer, "serve.output_decode", &mut |k| {
        let mut cur = Cursor::new(prepared[k].out_wire.as_slice());
        while (cur.position() as usize) < prepared[k].out_wire.len() {
            black_box(read_frame(&mut cur, cfg.max_frame).is_ok());
        }
    });

    // Stage p50s and the ledger's bottom line. `on_path` marks the stages
    // this shape's flush actually passes through, in path order; the rest
    // are rows inside a stage (or, for WAL and tenancy on a non-durable
    // shape, what the stage would cost).
    let med = |name: &str| {
        let mut s = tracer.durations_us(name);
        (s.median().unwrap_or(0.0), s.len() as u64)
    };
    let rows: [(&'static str, &str, bool); 11] = [
        ("serve.wire_encode_us_per_flush", "serve.wire_encode", true),
        ("serve.wire_decode_us_per_flush", "serve.wire_decode", true),
        ("wal.commit_us", "wal.commit_tokens", shape.durable),
        ("tenant.admit_ns", "tenant.admit", shape.durable),
        ("serve.build_spec_us_per_flush", "serve.build_spec", true),
        ("rtc.sizing_us", "rtc.sizing", false),
        ("fleet.execute_us_per_flush", "fleet.execute", false),
        ("core.build_us_per_flush", "core.build", false),
        ("kpn.engine_run_us_per_flush", "kpn.engine_run", false),
        (
            "serve.output_encode_us_per_flush",
            "serve.output_encode",
            true,
        ),
        (
            "serve.output_decode_us_per_flush",
            "serve.output_decode",
            true,
        ),
    ];
    let mut stage_sum_us = 0.0;
    for (metric, span, on_path) in rows {
        let (us, n) = med(span);
        if on_path {
            stage_sum_us += us;
        }
        let scale = if metric.ends_with("_ns") { 1e3 } else { 1.0 };
        report.set(metric, us * scale, n);
    }
    let (decode_us, _) = med("serve.wire_decode");
    report.set(
        "serve.wire_decode_mb_per_s",
        wire_bytes as f64 / decode_us.max(1e-3),
        wire_bytes as u64,
    );
    let (execute_us, _) = med("fleet.execute");
    report.set(
        "fleet.self_us_per_flush",
        execute_us - med("core.build").0 - med("kpn.engine_run").0,
        1,
    );
    // submit → settle covers the queue hand-off and the execute: it is
    // the on-path stage, and the queue row is what it adds to the execute.
    let (settle_us, settle_n) = med("fleet.submit_to_settle");
    stage_sum_us += settle_us;
    report.set("fleet.queue_us", settle_us - execute_us, settle_n);
    if shape.durable {
        // The settle notifier logs the output digests before pushing them.
        stage_sum_us += med("wal.commit_outputs").0;
    }
    let stage_sum_ms = stage_sum_us / 1e3;
    report.set("serve.residual_ms", flush_p50_ms - stage_sum_ms, n_flush);
    report.set(
        "serve.stage_cover_share",
        if flush_p50_ms > 0.0 {
            stage_sum_ms / flush_p50_ms
        } else {
            0.0
        },
        n_flush,
    );

    // ---- 3. per-operation micro-measurements ---------------------------
    // WAL structure without fsync, and group commit under concurrency.
    {
        let (wal, _) =
            Wal::open(WalConfig::new(wal_dir.join("nosync")).with_fsync(false)).expect("open wal");
        let rec = WalRecord::Tokens {
            stream: 0,
            payloads: prepared[0].bytes.clone(),
        };
        let (ns, n) = per_call_ns(slice, || {
            black_box(wal.append(&rec).is_ok());
        });
        report.set("wal.append_us", ns / 1e3, n);
        drop(wal);
        let (wal, _) = Wal::open(WalConfig::new(wal_dir.join("group"))).expect("open wal");
        let until = Instant::now() + slice;
        std::thread::scope(|scope| {
            for _ in 0..crate::serve_load::connections() {
                scope.spawn(|| {
                    while Instant::now() < until {
                        let _ = wal.append(&rec);
                    }
                });
            }
        });
        let appends = wal.registry().counter("wal.appends").get();
        let fsyncs = wal.registry().counter("wal.fsyncs").get();
        report.set(
            "wal.appends_per_fsync",
            appends as f64 / fsyncs.max(1) as f64,
            appends,
        );
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    // rtc: the sampled-checker sizing at the campaign's stride.
    {
        let model = shape.app.profile().model;
        let hmodel = HeteroModel::with_checker_jitter(
            model.producer,
            model.consumer,
            model.replica_out[0],
            model.replica_out[1].jitter,
            campaign::HETERO_K,
        );
        let (ns, n) = per_call_ns(slice, || {
            black_box(HeteroSizingReport::analyze(black_box(&hmodel)).is_ok());
        });
        report.set("rtc.hetero_sizing_us", ns / 1e3, n);
    }

    // core: one token through each arbitration channel.
    let (replicator_ns, n) = channel_ns(
        slice,
        Replicator::new(
            "bench",
            ReplicatorConfig::new([8, 8]).with_divergence_threshold(4),
        ),
        1,
        2,
    );
    report.set("core.replicator_ns_per_op", replicator_ns, n);
    let (selector_ns, n) = channel_ns(
        slice,
        Selector::new("bench", SelectorConfig::new([8, 8], 4)),
        2,
        1,
    );
    report.set("core.selector_ns_per_op", selector_ns, n);
    let (ns, n) = channel_ns(slice, NSelector::new("bench", vec![8, 8, 8], 4), 3, 1);
    report.set("core.nselector_ns_per_op", ns, n);
    let (ns, n) = channel_ns(slice, VotingSelector::new("bench", vec![8, 8, 8], 4), 3, 1);
    report.set("core.voting_ns_per_op", ns, n);
    {
        // Sampled checker at stride 4: every token to the main side, every
        // fourth to the checker, through replicator and selector.
        let k = campaign::HETERO_K;
        let mut rep = SampledReplicator::new("bench", [8, 8], k, Some(4));
        let mut sel = HeteroSelector::new("bench", 8, 8, 4, k);
        let mut i = 0u64;
        let (ns, n) = per_call_ns(slice, || {
            let now = TimeNs::from_ns(i);
            let _ = black_box(rep.try_write(0, tok(i), now));
            let _ = black_box(rep.try_read(0, now));
            let _ = black_box(sel.try_write(0, tok(i), now));
            if i.is_multiple_of(k) {
                let _ = black_box(rep.try_read(1, now));
                let _ = black_box(sel.try_write(1, tok(i), now));
            }
            let _ = black_box(sel.try_read(0, now));
            i += 1;
        });
        report.set("core.hetero_ns_per_op", ns, n);
    }

    // distfn: one poll of the baseline monitor — a distance check over
    // the last 16 events plus the overdue test — and Table 3's framing:
    // arbitration cost per token against monitoring cost per token at the
    // paper's 1 ms poll over an MJPEG period.
    {
        let model = App::Mjpeg.profile().model.producer;
        let bounds = LRepetitive::from_pjd(&model, 1);
        let events: Vec<TimeNs> = (0..16u64).map(|i| model.period * i).collect();
        let (monitor_ns, n) = per_call_ns(slice, || {
            let ok = bounds.first_violation(black_box(&events)).is_none();
            black_box(ok && events[15] + bounds.dmax(2) > events[15]);
        });
        report.set("distfn.monitor_ns_per_op", monitor_ns, n);
        let polls_per_token = (model.period.as_ns() / TimeNs::from_ms(1).as_ns()) as f64;
        report.set(
            "core.arb_vs_distfn_ratio",
            (replicator_ns + selector_ns) / (monitor_ns * polls_per_token),
            n,
        );
    }

    // kpn: the E12 pipeline (source → FIFO(64) → collector), median of 8.
    {
        const TOKENS: u64 = 200_000;
        let network = || {
            let mut net = Network::new();
            let link = net.add_channel(Fifo::new("link", 64));
            net.add_process(PjdSource::new(
                "src",
                PortId::of(link),
                PjdModel::periodic(TimeNs::from_us(10)),
                1,
                Some(TOKENS),
                Payload::U64,
            ));
            net.add_process(Collector::new(
                "col",
                PortId::of(link),
                Some(TOKENS as usize),
            ));
            net
        };
        let registry = MetricsRegistry::new();
        Engine::new(network())
            .with_metrics(&registry)
            .run_until(TimeNs::from_secs(30));
        let events = registry.counter("kpn.engine.events").get();
        let runs = if args.smoke { 3 } else { 8 };
        let mut s = Samples::new();
        for _ in 0..runs {
            let mut engine = Engine::new(network());
            let t = Instant::now();
            engine.run_until(TimeNs::from_secs(30));
            s.push(t.elapsed().as_nanos() as f64 / events as f64);
        }
        report.set("kpn.engine_ns_per_event", s.median().expect("runs"), events);
        let buf = &replays[0].payloads;
        let bytes: usize = buf.iter().map(Vec::len).sum();
        let (ns, n) = per_call_ns(slice, || {
            for p in buf {
                black_box(digest_bytes(black_box(p)));
            }
        });
        report.set("kpn.digest_mb_per_s", bytes as f64 / ns * 1e3, n);
    }

    // obs: one histogram record; absorbing one job run's registry.
    {
        let h = Histogram::new();
        let mut v = 1u64;
        let (ns, n) = per_call_ns(slice, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(v >> 40);
        });
        report.set("obs.histogram_record_ns", ns, n);
        let job = execute_spec(&prepared[0].spec).registry;
        let total = MetricsRegistry::new();
        let (ns, n) = per_call_ns(slice, || total.absorb(black_box(&job)));
        report.set("obs.absorb_us", ns / 1e3, n);
    }

    // apps: the DSP kernels on one workload token each (called directly,
    // so no stage memo is in the way), and input generation for the shape.
    {
        let frame = rtft_apps::video::VideoSource::new(args.seed).frame(0);
        let jpeg = mjpeg::encode(&frame, mjpeg::DEFAULT_QUALITY);
        let (ns, n) = per_call_ns(slice, || {
            black_box(mjpeg::decode(black_box(&jpeg)).is_ok());
        });
        report.set("apps.mjpeg_us_per_token", ns / 1e3, n);
        let pcm = adpcm::AudioSource::new(args.seed).block(0);
        let (ns, n) = per_call_ns(slice, || {
            black_box(adpcm::decode_block(&adpcm::encode_block(black_box(&pcm))));
        });
        report.set("apps.adpcm_us_per_token", ns / 1e3, n);
        let (ns, n) = per_call_ns(slice, || {
            black_box(h264::encode(black_box(&frame), h264::DEFAULT_QP));
        });
        report.set("apps.h264_us_per_token", ns / 1e3, n);
        let mut gen = Samples::new();
        for i in 0..5 {
            let t = Instant::now();
            black_box(rtft_serve::workload(
                shape.app,
                args.seed + i,
                shape.tokens_per_flush,
            ));
            gen.push(t.elapsed().as_secs_f64() * 1e3);
        }
        report.set("apps.workload_gen_ms", gen.median().expect("five"), 5);
    }

    // scc: the NoC model's latency call for one token across the mesh.
    {
        let noc = NocModel::paper_boot();
        let bytes = shape.app.profile().input_token_bytes;
        let (from, to) = (CoreId::new(0), CoreId::new(47));
        let (ns, n) = per_call_ns(slice, || {
            black_box(noc.message_latency(black_box(from), black_box(to), black_box(bytes)));
        });
        report.set("scc.noc_transfer_ns", ns, n);
    }

    // chaos / bench: one pass over the campaign's fixed list.
    {
        let work = Work::generate(args.seed, args.campaign_divisor());
        let tally = campaign::full_pass(&work);
        attempted += tally.runs;
        failed += tally.failed();
        report.set(
            "chaos.classic_runs_per_s",
            tally.phase_rate(0),
            tally.phase[0].1,
        );
        report.set(
            "chaos.hetero_runs_per_s",
            tally.phase_rate(1),
            tally.phase[1].1,
        );
        report.set(
            "bench.table2_runs_per_s",
            tally.phase_rate(2),
            tally.phase[2].1,
        );
        report.set(
            "chaos.detect_bound_ratio_max",
            tally.bound_ratio_max,
            tally.runs,
        );
        report.set("chaos.violations", tally.failed() as f64, tally.runs);
        // Low 32 bits: exact in an f64, and still a digest of every outcome.
        report.set(
            "chaos.report_fnv",
            (tally.outcomes.clone().finish() & 0xFFFF_FFFF) as f64,
            tally.runs,
        );
        report.set(
            "kpn.events_per_campaign_run",
            campaign::table2_run_events(App::Adpcm) as f64,
            1,
        );
        // The same scenario subset at one worker and at one per core.
        let subset = Campaign {
            seed: args.seed,
            scenarios: work.classic[..work.classic.len().min(64)].to_vec(),
        };
        let rate = |workers: usize| {
            let t = Instant::now();
            black_box(subset.run_with_workers(workers));
            subset.scenarios.len() as f64 / t.elapsed().as_secs_f64()
        };
        let (one, all) = (rate(1), rate(crate::nproc()));
        report.set(
            "kpn.parallel_efficiency",
            all / (crate::nproc() as f64 * one),
            subset.scenarios.len() as u64,
        );
    }

    // ---- spans out ------------------------------------------------------
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("rtbench: cannot write {}: {e}", path.display());
        failed += 1;
    }
    report.set("rtbench.trace_spans", tracer.spans().len() as f64, 1);
    report.set("rtbench.peak_rss_mb", peak_rss_mb(), 1);
    println!(
        "# {workload}: ledger on shape {:?}; stage sum {:.3} ms + residual {:.3} ms = flush p50 {:.3} ms; spans in {}",
        shape,
        stage_sum_ms,
        flush_p50_ms - stage_sum_ms,
        flush_p50_ms,
        path.display()
    );
    RunResult {
        report,
        attempted,
        failed,
    }
}

/// The `Output` frames and terminal `Stats` a settled flush pushes.
fn encode_outputs(out: &mut Vec<u8>, stream: u32, arrivals: &[(u64, u64)]) {
    for (seq, &(at_ns, digest)) in arrivals.iter().enumerate() {
        let frame = Frame::Output {
            stream,
            seq: seq as u64,
            at_ns,
            digest,
        };
        write_frame(out, &frame).expect("encode into a Vec");
    }
    let stats = Frame::Stats {
        stream,
        tokens_in: arrivals.len() as u64,
        delivered: arrivals.len() as u64,
        faults: 0,
        busy: 0,
        queued: 0,
        inflight: 0,
        outstanding: 0,
    };
    write_frame(out, &stats).expect("encode into a Vec");
}
