//! The write-ahead log end to end — the CI smoke for `rtft-wal`.
//!
//! Four acts:
//!
//! 1. **Ingest durably, then crash.** A WAL-enabled server acknowledges
//!    every batch `Durable` once its `Tokens` record is fsynced; one
//!    batch is flushed (its `Outputs` record written in order, not waited
//!    for — the next batch's fsync carries it), a second is left
//!    undelivered; the server is then killed with `hard_drop` — no drain,
//!    no goodbye.
//! 2. **Recover.** A fresh server on the same log directory rebuilds the
//!    stream, resumes at its last *logged* delivered sequence number, and
//!    replays the tail past it through the fleet — the undelivered
//!    batch here, and after a real power cut also any batch whose
//!    `Outputs` record had not met an fsync yet. Zero token loss across
//!    the crash, and `replay_verify` certifies both lives of the server.
//! 3. **Detect.** A log whose recorded output digest was corrupted (a
//!    bit flip in the result path) is replayed: the divergence is pinned
//!    to the exact position and classified `replay-divergence` by the
//!    chaos taxonomy — the WAL doubling as an offline fault detector.
//! 4. **Count.** Two streams send durable batches and flush each; the
//!    log's own counters must show one fsync per batch plus one per
//!    stream open and close — a property of the commit path that holds
//!    on any disk, where a latency floor would not. Beside it, the zeros
//!    the log wrote ahead of its frames (`wal.prefill.bytes`) so those
//!    fsyncs overwrite blocks instead of growing the file.
//!
//! Exits non-zero on token loss, missed recovery, a dirty verify of the
//! honest log, a missed detection of the corrupted one, or an fsync
//! count above `batches + 2 × streams + 1`:
//!
//! ```sh
//! cargo run --release --bin wal
//! ```

use rtft_apps::networks::App;
use rtft_chaos::{classify_replay, OutcomeClass, ReplayVerdict};
use rtft_serve::{digest_of, replay_verify, workload, Client, Server, ServerConfig, WalConfig};
use rtft_wal::{Wal, WalRecord};

const FLUSHED: usize = 8;
const TAIL: usize = 5;
const COUNT_STREAMS: u64 = 2;
const COUNT_ROUNDS: u64 = 8;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtft-wal-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn main() {
    let mut failures = 0usize;
    let dir = scratch("log");
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    };

    // Act 1: durable ingestion, then a crash with no drain.
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    println!(
        "wal: listening on {}, logging to {}",
        server.addr(),
        dir.display()
    );
    let mut client = Client::connect(server.addr(), "wal-smoke").expect("connect");
    let stream = client
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Mjpeg, 42, FLUSHED);
    let ack = client
        .send_tokens_durable(stream, &batch)
        .expect("durable send");
    let run = client.flush(stream).expect("flush");
    println!(
        "  ingested {} tokens durable (log seq {}), flushed {} outputs",
        ack.tokens,
        ack.seq,
        run.outputs.len()
    );
    let tail_ack = client
        .send_tokens_durable(stream, &workload(App::Mjpeg, 43, TAIL))
        .expect("durable send");
    println!(
        "  ingested {} more durable (log seq {}), then hard-dropping the server",
        tail_ack.tokens, tail_ack.seq
    );
    server.hard_drop();

    // Act 2: recover on the same log; the tail must replay losslessly.
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("restart");
    let report = server.shutdown();
    println!(
        "  recovered {} stream(s), replayed {} token(s), truncated {} torn record(s)",
        report.recovered_streams, report.replayed_tokens, report.wal_truncated_records
    );
    let want = (FLUSHED + TAIL) as u64;
    if report.recovered_streams != 1 || report.replayed_tokens != TAIL as u64 {
        eprintln!("SMOKE FAILED: restart did not recover the logged stream");
        failures += 1;
    }
    if !report.balanced() || report.delivered() != want {
        eprintln!(
            "SMOKE FAILED: {} of {want} tokens delivered across the crash",
            report.delivered()
        );
        failures += 1;
    }
    let verify = replay_verify(&dir, &cfg).expect("replay verify");
    println!("  replay verify: {}", verify.to_json());
    if !verify.clean() || verify.streams[0].recorded != want {
        eprintln!("SMOKE FAILED: honest log did not verify clean");
        failures += 1;
    }

    // Act 3: a corrupted recorded digest must be detected and classified.
    let bad_dir = scratch("corrupt");
    let payloads: Vec<rtft_kpn::Bytes> = workload(App::Adpcm, 9, 4)
        .into_iter()
        .map(rtft_kpn::Bytes::from)
        .collect();
    let mut digests: Vec<u64> = payloads.iter().map(|p| digest_of(p)).collect();
    digests[2] ^= 1 << 40; // the bit flip replay verification exists to catch
    {
        let (wal, _) = Wal::open(WalConfig::new(&bad_dir)).expect("open corrupt log");
        let app = App::ALL.iter().position(|a| *a == App::Adpcm).unwrap() as u8;
        wal.append(&WalRecord::StreamOpen {
            stream: 0,
            tenant: 0,
            app,
            redundancy: 2,
        })
        .expect("append");
        wal.append(&WalRecord::Tokens {
            stream: 0,
            payloads,
        })
        .expect("append");
        wal.append(&WalRecord::Outputs {
            stream: 0,
            first_seq: 0,
            digests,
        })
        .expect("append");
        wal.sync().expect("sync");
    }
    let suspect = replay_verify(&bad_dir, &ServerConfig::default()).expect("replay verify");
    let verdict = ReplayVerdict {
        recorded: suspect.streams[0].recorded,
        divergent: suspect.divergent(),
        known_faulty: false,
    };
    let class = classify_replay(verdict);
    println!(
        "  corrupted log: {} divergent at {:?}, classified {}",
        suspect.divergent(),
        suspect.streams[0].first_divergence,
        class.label()
    );
    if suspect.divergent() != 1 || class != OutcomeClass::ReplayDivergence {
        eprintln!("SMOKE FAILED: corrupted digest not detected as replay divergence");
        failures += 1;
    }

    // Act 4: one fsync per durable batch, read off the log's counters.
    let count_dir = scratch("count");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            wal: Some(WalConfig::new(&count_dir)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let registry = server.registry().clone();
    let mut client = Client::connect(server.addr(), "wal-count").expect("connect");
    let streams: Vec<u32> = (0..COUNT_STREAMS)
        .map(|_| {
            client
                .open_stream(App::Adpcm, 2)
                .expect("open")
                .expect_stream()
        })
        .collect();
    for round in 0..COUNT_ROUNDS {
        for &stream in &streams {
            let batch = workload(App::Adpcm, round, 4);
            client
                .send_tokens_durable(stream, &batch)
                .expect("durable send");
            client.flush(stream).expect("flush");
        }
    }
    for &stream in &streams {
        client.close(stream).expect("close");
    }
    let balanced = server.shutdown().balanced();
    let batches = COUNT_STREAMS * COUNT_ROUNDS;
    let fsyncs = registry.counter("wal.fsyncs").get();
    let limit = batches + 2 * COUNT_STREAMS + 1;
    println!(
        "  {batches} durable batches on {COUNT_STREAMS} streams: wal.fsyncs = {fsyncs} \
         (limit {limit}), wal.appends = {}, wal.prefill.bytes = {}",
        registry.counter("wal.appends").get(),
        registry.counter("wal.prefill.bytes").get()
    );
    if !balanced || fsyncs > limit {
        eprintln!("SMOKE FAILED: a durable batch costs more than one fsync");
        failures += 1;
    }

    for dir in [&dir, &bad_dir, &count_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "SMOKE OK: {want} tokens survived a hard crash, honest log verified clean, \
         corrupted log detected, one fsync per durable batch"
    );
}
