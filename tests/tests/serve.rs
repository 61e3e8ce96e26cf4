//! Integration tests of `rtft-serve`: the `RTFT/1` wire protocol under a
//! seeded fuzz of frame shapes, the loopback client/server path through a
//! duplicated pipeline (in-order delivery, fault push within the analytic
//! detection bound), `Busy` backpressure under saturated admission, and
//! graceful shutdown under load with full token accounting.

use rtft_apps::networks::App;
use rtft_fleet::{structure_bounds, FleetConfig, Redundancy};
use rtft_kpn::Bytes;
use rtft_rtc::TimeNs;
use rtft_serve::wire::{read_frame, write_frame};
use rtft_serve::{
    digest_of, replay_verify, workload, BusyReason, Client, FaultInjection, Frame, OpenOutcome,
    ProtocolError, ServeError, ServeRuntime, Server, ServerConfig, WalConfig, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use rtft_wal::{read_log, segment_file_name, WalRecord, SEGMENT_HEADER};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialises the wall-clock-sensitive tests (threaded-runtime servers):
/// the harness runs tests on parallel threads, and overlapping sleep-bound
/// fleets stretch scheduler gaps past the quiescence grace.
fn timing_lock() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded sweep over every frame type with randomised field values and
/// payload shapes — including zero-length and near-max payloads — each
/// encoded and decoded through the real reader path.
#[test]
fn seeded_wire_round_trip_over_all_frame_types() {
    let mut rng = 0x5EED_u64;
    let mut frames = Vec::new();
    for round in 0..64 {
        let r = |rng: &mut u64| splitmix64(rng);
        frames.push(match round % 11 {
            0 => Frame::Hello {
                version: r(&mut rng) as u32,
                client: format!("client-{}", r(&mut rng) % 1000),
            },
            1 => Frame::OpenStream {
                app: (r(&mut rng) % 3) as u8,
                redundancy: 2 + (r(&mut rng) % 2) as u8,
            },
            2 => {
                let count = r(&mut rng) % 5;
                let payloads = (0..count)
                    .map(|_| {
                        let len = match r(&mut rng) % 3 {
                            0 => 0, // zero-length payload
                            1 => (r(&mut rng) % 64) as usize,
                            _ => 4096,
                        };
                        (0..len).map(|_| r(&mut rng) as u8).collect()
                    })
                    .collect();
                Frame::Tokens {
                    stream: r(&mut rng) as u32,
                    payloads,
                }
            }
            3 => Frame::Flush {
                stream: r(&mut rng) as u32,
            },
            4 => Frame::Close {
                stream: r(&mut rng) as u32,
            },
            5 => Frame::Accepted {
                id: r(&mut rng) as u32,
            },
            6 => Frame::Busy {
                stream: r(&mut rng) as u32,
                reason: if r(&mut rng) % 2 == 0 {
                    BusyReason::QueueFull
                } else {
                    BusyReason::ShuttingDown
                },
                pending: r(&mut rng) as u32,
                capacity: r(&mut rng) as u32,
            },
            7 => Frame::Output {
                stream: r(&mut rng) as u32,
                seq: r(&mut rng),
                at_ns: r(&mut rng),
                digest: r(&mut rng),
            },
            8 => Frame::Fault {
                stream: r(&mut rng) as u32,
                replica: r(&mut rng) as u32,
                kind: (r(&mut rng) % 4) as u8,
                detection_latency_ns: r(&mut rng),
            },
            9 => Frame::Durable {
                stream: r(&mut rng) as u32,
                tokens: r(&mut rng) as u32,
                seq: r(&mut rng),
            },
            _ => Frame::Stats {
                stream: r(&mut rng) as u32,
                tokens_in: r(&mut rng),
                delivered: r(&mut rng),
                faults: r(&mut rng),
                busy: r(&mut rng),
                queued: r(&mut rng) as u32,
                inflight: r(&mut rng) as u32,
                outstanding: r(&mut rng) as u32,
            },
        });
    }
    // One near-max-frame Tokens payload on top of the seeded sweep.
    frames.push(Frame::Tokens {
        stream: 1,
        payloads: vec![Bytes::from(vec![0xAB; DEFAULT_MAX_FRAME as usize - 64])],
    });

    // All frames through one contiguous byte stream, as on a socket.
    let mut stream = Vec::new();
    for f in &frames {
        write_frame(&mut stream, f).expect("encode");
    }
    let mut cursor = stream.as_slice();
    for expected in &frames {
        let (decoded, _) = read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("decode");
        assert_eq!(&decoded, expected);
    }
    assert!(cursor.is_empty(), "no residual bytes after all frames");
}

/// Malformed input is a clean error at every layer — truncated header,
/// truncated body, oversized length, unknown tag — never a panic.
#[test]
fn malformed_wire_input_is_a_clean_connection_error() {
    // Truncated length header: the peer vanished mid-frame.
    let err = read_frame(&mut [0x01u8, 0x02].as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
    assert!(matches!(err, ServeError::ConnectionClosed), "{err}");

    // Length promises more body than the stream carries.
    let mut wire = Vec::new();
    wire.extend_from_slice(&100u32.to_le_bytes());
    wire.push(0x04);
    let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
    assert!(matches!(err, ServeError::ConnectionClosed), "{err}");

    // Oversized length is refused before any allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(1u32 << 30).to_le_bytes());
    let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
    assert!(
        matches!(err, ServeError::Protocol(ProtocolError::Oversized { .. })),
        "{err}"
    );

    // Unknown tag drops the connection with a typed error.
    let wire = [1u8, 0, 0, 0, 0x42];
    let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
    assert!(
        matches!(err, ServeError::Protocol(ProtocolError::UnknownTag(0x42))),
        "{err}"
    );
}

/// The acceptance path: a client streams real MJPEG tokens into a
/// duplicated pipeline over TCP, receives every selector output in order
/// with verifiable digests, and — with a permanent timing fault injected
/// into replica 1 — receives a `Fault` frame whose reported detection
/// latency is within the analytic `DetectionBounds` window. A tri-voting
/// stream measures and bounds its `Fault` latency the same way.
#[test]
fn loopback_duplicated_stream_delivers_in_order_and_detects_fault_in_bound() {
    for (redundancy, structure) in [(2, Redundancy::Duplicated), (3, Redundancy::TriVoting)] {
        fault_in_bound(redundancy, structure);
    }
}

fn fault_in_bound(redundancy: u8, structure: Redundancy) {
    let cfg = ServerConfig {
        inject: vec![FaultInjection {
            stream: 0,
            replica: 1,
            at: TimeNs::from_ms(120),
        }],
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr(), "acceptance").expect("connect");

    let stream = client
        .open_stream(App::Mjpeg, redundancy)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Mjpeg, 42, 12);
    client.send_tokens(stream, &batch).expect("send");
    let run = client.flush(stream).expect("flush");
    assert!(run.admitted(), "no backpressure expected on an idle server");

    // Every token came back, in order, with the digest of the exact bytes
    // this client streamed in.
    assert_eq!(run.outputs.len(), batch.len());
    let mut last_at = 0;
    for (i, out) in run.outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64, "outputs must arrive in order");
        assert_eq!(
            out.digest,
            digest_of(&batch[i]),
            "output {i} must carry the digest of the client's token {i}"
        );
        assert!(out.at_ns >= last_at, "delivery timestamps must not regress");
        last_at = out.at_ns;
    }

    // The injected permanent timing fault was pushed, and its latency sits
    // inside the structure's analytic detection window for the MJPEG
    // profile, with one producer period of arrival grace.
    assert_eq!(run.faults.len(), 1, "exactly one replica was faulted");
    let fault = &run.faults[0];
    assert_eq!(fault.replica, 1);
    assert!(fault.kind <= 3, "latched at a real detection site");
    let model = App::Mjpeg.profile().model;
    let latch = structure_bounds(&model, structure).permanent(fault.replica as usize);
    let bound = (latch + model.producer.period + model.producer.jitter).as_ns();
    assert!(
        fault.detection_latency_ns > 0 && fault.detection_latency_ns <= bound,
        "redundancy {redundancy}: detection latency {} ns must be within the analytic bound {} ns",
        fault.detection_latency_ns,
        bound
    );

    let stats = client.close(stream).expect("close").stats.expect("stats");
    assert_eq!(stats.tokens_in, 12);
    assert_eq!(stats.delivered, 12);
    assert_eq!(stats.faults, 1);

    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].redundancy, redundancy);
    assert_eq!(report.streams[0].undelivered, 0);
    assert!(report.streams[0].closed);
}

/// Tri-modular voting streams work over the same wire: redundancy 3 routes
/// the batch through the value-voting selector and still delivers every
/// token in order.
#[test]
fn voting_stream_delivers_every_token() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr(), "voting").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 3)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Adpcm, 7, 6);
    client.send_tokens(stream, &batch).expect("send");
    let run = client.flush(stream).expect("flush");
    assert_eq!(run.outputs.len(), 6);
    for (i, out) in run.outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64);
        assert_eq!(out.digest, digest_of(&batch[i]));
    }
    client.close(stream).expect("close");
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.streams[0].redundancy, 3);
}

/// Saturated admission answers `Busy{queue-full}` — and the refused batch
/// stays buffered server-side, so retrying the flush (no re-send of the
/// tokens) eventually delivers everything. Backpressure, not loss.
#[test]
fn saturated_admission_answers_busy_then_retry_delivers_everything() {
    let _guard = timing_lock();
    let cfg = ServerConfig {
        fleet: FleetConfig {
            workers: 1,
            pending_capacity: 1,
        },
        // Threaded runtime: wall-clock duration tracks the 30 ms MJPEG
        // period, so the first stream reliably occupies the fleet while
        // the second probes admission.
        runtime: ServeRuntime::Threaded {
            deadline: Duration::from_secs(30),
        },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");

    let mut hog = Client::connect(server.addr(), "hog").expect("connect");
    let hog_stream = hog
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    hog.send_tokens(hog_stream, &workload(App::Mjpeg, 1, 20))
        .expect("send");
    let hog_thread = std::thread::spawn(move || hog.flush(hog_stream).expect("hog flush"));

    // Wait until the hog's Flush frame has reached the server (its 4th
    // frame: Hello, OpenStream, Tokens, Flush) so it holds the only
    // admission slot before the probe asks. A fixed sleep is not enough
    // on a loaded single-core box.
    let frames_in = server.registry().counter("serve.frames.in");
    let armed = Instant::now();
    while frames_in.get() < 4 {
        assert!(
            armed.elapsed() < Duration::from_secs(10),
            "hog flush never reached the server"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    let mut probe = Client::connect(server.addr(), "probe").expect("connect");
    let probe_stream = probe
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    probe
        .send_tokens(probe_stream, &workload(App::Mjpeg, 2, 4))
        .expect("send");

    let mut busy_seen = 0;
    let delivered = loop {
        let run = probe.flush(probe_stream).expect("probe flush");
        match run.busy {
            Some(info) => {
                assert_eq!(info.reason, BusyReason::QueueFull);
                assert!(info.pending >= info.capacity);
                busy_seen += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            None => break run.outputs.len(),
        }
    };
    assert!(
        busy_seen >= 1,
        "the probe must observe explicit backpressure while the hog runs"
    );
    assert_eq!(delivered, 4, "the refused batch was retained and delivered");

    let hog_run = hog_thread.join().expect("hog thread");
    assert_eq!(hog_run.outputs.len(), 20);

    let report = server.shutdown();
    assert!(report.balanced());
    let probe_account = report
        .streams
        .iter()
        .find(|s| s.id == probe_stream)
        .expect("probe stream accounted");
    assert_eq!(probe_account.tokens_in, 4);
    assert_eq!(probe_account.delivered, 4);
    assert_eq!(probe_account.busy, busy_seen);
}

/// Shutdown under load: active streams drain via the cancel path (their
/// in-flight outputs still arrive), new streams are refused with
/// `Busy{shutting-down}`, and every accepted token is either delivered or
/// reported undelivered — no silent loss.
#[test]
fn shutdown_under_load_drains_refuses_and_accounts_every_token() {
    let _guard = timing_lock();
    let cfg = ServerConfig {
        runtime: ServeRuntime::Threaded {
            deadline: Duration::from_secs(30),
        },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");

    let mut active = Client::connect(server.addr(), "active").expect("connect");
    let stream = active
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    active
        .send_tokens(stream, &workload(App::Mjpeg, 3, 10))
        .expect("send");
    let flush_thread = std::thread::spawn(move || {
        let run = active.flush(stream).expect("flush");
        (active, run)
    });

    // Begin shutdown while the flush is mid-run (~300 ms of wall time).
    std::thread::sleep(Duration::from_millis(150));
    server.begin_shutdown();

    // New streams are refused with an explicit shutting-down Busy.
    let mut late = Client::connect(server.addr(), "late").expect("connect");
    match late.open_stream(App::Adpcm, 2).expect("open") {
        OpenOutcome::Busy(info) => assert_eq!(info.reason, BusyReason::ShuttingDown),
        OpenOutcome::Stream(_) => panic!("a draining server must refuse new streams"),
    }

    // The in-flight flush still drains completely.
    let (mut active, run) = flush_thread.join().expect("flush thread");
    assert!(run.admitted());
    assert_eq!(
        run.outputs.len(),
        10,
        "admitted work drains during shutdown"
    );

    // Tokens accepted after shutdown began are refused at flush — and
    // accounted as undelivered, not dropped.
    active
        .send_tokens(stream, &workload(App::Mjpeg, 4, 3))
        .expect("send");
    let refused = active.flush(stream).expect("flush");
    let busy = refused.busy.expect("flush during drain must be refused");
    assert_eq!(busy.reason, BusyReason::ShuttingDown);

    let report = server.shutdown();
    assert!(report.balanced(), "tokens_in == delivered + undelivered");
    assert_eq!(report.streams.len(), 1);
    let account = &report.streams[0];
    assert_eq!(account.tokens_in, 13);
    assert_eq!(account.delivered, 10);
    assert_eq!(account.undelivered, 3);
}

/// `shutdown()` racing a storm of connects neither hangs nor leaves a
/// connection blocked: whatever the acceptor took before the drain is
/// unblocked by it, whatever arrives after is refused. The storm keeps its
/// sockets open, so a connection shutdown missed would pin its reader —
/// and the join — forever; the watchdog turns that into a failure.
#[test]
fn shutdown_racing_a_connect_storm_never_hangs() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..50 {
            let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
            let addr = server.addr();
            let (first_tx, first_rx) = std::sync::mpsc::channel();
            let storm = std::thread::spawn(move || {
                let mut held = Vec::new();
                // Ends at the first refusal (the listener is gone), and
                // stays under the listen backlog: a connect the kernel
                // drops there retries a second later.
                while let Ok(sock) = std::net::TcpStream::connect(addr) {
                    held.push(sock);
                    let _ = first_tx.send(());
                    if held.len() >= 64 {
                        break;
                    }
                }
                held
            });
            first_rx.recv().expect("storm connected once");
            let report = server.shutdown();
            let held = storm.join().expect("storm thread");
            assert!(report.connections <= held.len() as u64);
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a shutdown hung (or a storm round panicked)");
}

/// A self-cleaning scratch directory for the WAL tests (no tempfile
/// crate in a zero-dependency workspace).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rtft-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The crash-recovery acceptance path: a WAL-enabled server acknowledges
/// every batch `Durable`, is then killed without any drain
/// (`hard_drop`), and a fresh server on the same log directory rebuilds
/// the stream, resumes at its last delivered sequence number, and
/// replays the undelivered tail through the fleet — zero token loss
/// across the crash. A replay-verify pass over the final log certifies
/// both lives of the server byte-for-byte.
#[test]
fn restart_resumes_at_last_delivered_seq_with_zero_token_loss() {
    let dir = TempDir::new("restart");
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(dir.path())),
        ..ServerConfig::default()
    };

    // First life: one flushed batch (delivered + outputs logged) and one
    // durable-but-unflushed tail, then a crash with no goodbye.
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("bind");
    let mut client = Client::connect(server.addr(), "durable").expect("connect");
    let stream = client
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();

    let flushed = workload(App::Mjpeg, 42, 8);
    let ack = client
        .send_tokens_durable(stream, &flushed)
        .expect("durable send");
    assert_eq!(ack.tokens, 8, "the ack covers the whole batch");
    let run = client.flush(stream).expect("flush");
    assert_eq!(run.outputs.len(), 8);

    let tail = workload(App::Mjpeg, 43, 5);
    let tail_ack = client
        .send_tokens_durable(stream, &tail)
        .expect("durable send");
    assert!(
        tail_ack.seq > ack.seq,
        "log sequence numbers advance monotonically"
    );
    server.hard_drop();

    // Second life, same log: the stream is rebuilt, resumed at 8
    // delivered, and its 5-token tail is resubmitted; the shutdown drain
    // finishes it like any other admitted job.
    let server = Server::start("127.0.0.1:0", cfg.clone()).expect("restart");
    let report = server.shutdown();
    assert_eq!(report.recovered_streams, 1);
    assert_eq!(
        report.replayed_tokens, 5,
        "only the undelivered tail replays"
    );
    assert_eq!(report.wal_truncated_records, 0, "the log was not torn");
    assert!(report.balanced());
    assert_eq!(report.streams.len(), 1);
    let account = &report.streams[0];
    assert_eq!(account.tokens_in, 13, "accounting spans the crash");
    assert_eq!(account.delivered, 13, "zero token loss across the crash");
    assert_eq!(account.undelivered, 0);

    // Offline replay verification: both lives of the server produced
    // exactly the outputs the deterministic pipeline reproduces.
    let verify = replay_verify(dir.path(), &cfg).expect("replay");
    assert_eq!(verify.streams.len(), 1);
    assert_eq!(verify.streams[0].recorded, 13);
    assert_eq!(verify.streams[0].replayed, 13);
    assert!(verify.clean(), "no divergence in an unfaulted log");
}

/// A default server logging to `dir`.
fn durable_cfg(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        wal: Some(WalConfig::new(dir)),
        ..ServerConfig::default()
    }
}

/// The crash the lazy `Outputs` class makes possible: the settle writes
/// its record and answers the client without waiting for an fsync, so a
/// power cut after the last synchronous record may take any suffix of the
/// `Outputs` frames written since. For every such disk the second life
/// re-executes exactly the batches whose outputs were lost, from their
/// durable tokens, and the books and the replay check close as if the
/// first life had never answered.
#[test]
fn power_cut_after_the_last_fsync_replays_exactly_the_unlogged_batches() {
    const LAST: [usize; 2] = [3, 5];
    let dir = TempDir::new("powercut");
    let server = Server::start("127.0.0.1:0", durable_cfg(dir.path())).expect("bind");
    let mut clients: Vec<(Client, u32)> = (0..2)
        .map(|_| {
            let mut client = Client::connect(server.addr(), "powercut").expect("connect");
            let stream = client
                .open_stream(App::Adpcm, 2)
                .expect("open")
                .expect_stream();
            (client, stream)
        })
        .collect();
    let mut sent = [0u64; 2];
    for round in 0..2u64 {
        for (i, (client, stream)) in clients.iter_mut().enumerate() {
            let batch = workload(App::Adpcm, 10 * round + i as u64, 4);
            client.send_tokens_durable(*stream, &batch).expect("send");
            assert_eq!(client.flush(*stream).expect("flush").outputs.len(), 4);
            sent[i] += 4;
        }
    }
    // The last flushes go back to back: both `Tokens` records are in, so
    // the two `Outputs` frames trail the log's last synchronous record.
    for (i, (client, stream)) in clients.iter_mut().enumerate() {
        let batch = workload(App::Adpcm, 90 + i as u64, LAST[i]);
        client.send_tokens_durable(*stream, &batch).expect("send");
        sent[i] += LAST[i] as u64;
    }
    for (i, (client, stream)) in clients.iter_mut().enumerate() {
        assert_eq!(client.flush(*stream).expect("flush").outputs.len(), LAST[i]);
    }
    server.hard_drop();

    let (records, summary) = read_log(dir.path()).expect("read log");
    assert_eq!((summary.segments, summary.truncated_records), (1, 0));
    let trailing: Vec<usize> = records
        .iter()
        .rev()
        .map_while(|(_, rec)| match rec {
            WalRecord::Outputs { .. } => Some(rec.encode_frame().len()),
            _ => None,
        })
        .collect();
    assert_eq!(trailing.len(), 2, "both settles trail the last fsync");
    let segment = std::fs::read(dir.path().join(segment_file_name(0))).expect("segment");

    // Stream 1 settled last, so its record is the first a cut takes.
    for (lost, replayed) in [(0, 0), (1, LAST[1]), (2, LAST[0] + LAST[1])] {
        let cut = segment.len() - trailing[..lost].iter().sum::<usize>();
        let disk = TempDir::new(&format!("powercut-{lost}"));
        std::fs::write(disk.path().join(segment_file_name(0)), &segment[..cut]).expect("cut");

        let cfg = durable_cfg(disk.path());
        let report = Server::start("127.0.0.1:0", cfg.clone())
            .expect("restart")
            .shutdown();
        assert_eq!(report.recovered_streams, 2, "{lost} lost");
        assert_eq!(report.wal_truncated_records, 0, "{lost} lost");
        assert_eq!(report.replayed_tokens, replayed as u64, "{lost} lost");
        assert!(report.balanced(), "{lost} lost");
        let verify = replay_verify(disk.path(), &cfg).expect("replay");
        assert!(verify.clean(), "{lost} lost: {}", verify.to_json());
        for (i, account) in report.streams.iter().enumerate() {
            assert_eq!(account.tokens_in, sent[i], "{lost} lost, stream {i}");
            assert_eq!(account.delivered, sent[i], "{lost} lost, stream {i}");
            assert_eq!(account.undelivered, 0, "{lost} lost, stream {i}");
            let replay = &verify.streams[i];
            assert_eq!((replay.recorded, replay.replayed), (sent[i], sent[i]));
        }
    }
}

/// One fsync per durable batch, as a count: the `Outputs` record of a
/// flush rides the fsync of the next synchronous record instead of
/// waiting for its own (which read 2 N + 2 here). From below, the same
/// count says no `Durable`, `Accepted` or closing `Stats` was answered
/// off another record's fsync: `StreamOpen`, every `Tokens` and
/// `StreamClose` each waited for one.
#[test]
fn a_durable_batch_costs_one_fsync() {
    const BATCHES: u64 = 32;
    let dir = TempDir::new("fsyncs");
    let server = Server::start("127.0.0.1:0", durable_cfg(dir.path())).expect("bind");
    let registry = server.registry().clone();
    let mut client = Client::connect(server.addr(), "fsyncs").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    for round in 0..BATCHES {
        let batch = workload(App::Adpcm, round, 2);
        client.send_tokens_durable(stream, &batch).expect("send");
        assert_eq!(client.flush(stream).expect("flush").outputs.len(), 2);
    }
    client.close(stream).expect("close");
    assert!(server.shutdown().balanced());

    // The drain's `sync` finds the log already durable behind the close.
    let fsyncs = registry.counter("wal.fsyncs").get();
    assert_eq!(registry.counter("wal.appends").get(), 2 * BATCHES + 2);
    assert!(
        (BATCHES + 2..=BATCHES + 3).contains(&fsyncs),
        "{fsyncs} fsyncs for {BATCHES} durable batches"
    );
}

/// A log that refuses an `Outputs` record costs the replay cross-check
/// of that batch and nothing else: the error is counted and reported,
/// the tokens were durable already, and the flush settles as usual.
#[test]
fn a_refused_outputs_record_is_counted_and_the_flush_still_settles() {
    let dir = TempDir::new("walerror");
    let open_frame = WalRecord::StreamOpen {
        stream: 0,
        tenant: 0,
        app: 0,
        redundancy: 2,
    }
    .encode_frame()
    .len();
    // `StreamOpen` fits the first segment and `Tokens` fills it, so the
    // `Outputs` append is the one that must rotate.
    let segment_bytes = (SEGMENT_HEADER + open_frame + 1) as u64;
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(dir.path()).with_segment_bytes(segment_bytes)),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr(), "walerror").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Adpcm, 5, 4);
    client.send_tokens_durable(stream, &batch).expect("send");
    // With its directory gone the log can no longer start a segment.
    std::fs::remove_dir_all(dir.path()).expect("remove log dir");

    let run = client.flush(stream).expect("flush");
    assert_eq!(run.outputs.len(), 4, "the settle still pushes");
    assert_eq!(server.registry().counter("serve.wal.errors").get(), 1);
    assert!(server.events_jsonl().contains("serve.wal.error"));
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.streams[0].delivered, 4, "the settle still books");
}

/// The protocol version is negotiated: a mismatched `Hello` ends the
/// connection instead of silently proceeding.
#[test]
fn version_mismatch_ends_the_connection() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 1,
            client: "future".into(),
        },
    )
    .expect("send hello");
    // The server drops the connection without an Accepted frame.
    let err = read_frame(&mut sock, DEFAULT_MAX_FRAME).unwrap_err();
    assert!(matches!(err, ServeError::ConnectionClosed), "{err}");
    server.shutdown();
}

/// Every client frame type, damaged at every byte: single-bit flips at
/// every offset and truncations at every length. The decoder must never
/// panic; whatever still decodes must re-encode cleanly.
#[test]
fn adversarial_wire_sweep_never_panics() {
    let frames = [
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "sweep".into(),
        },
        Frame::OpenStream {
            app: 0,
            redundancy: 2,
        },
        Frame::Tokens {
            stream: 3,
            payloads: vec![
                Bytes::from(vec![0xAB; 9]),
                Bytes::from(vec![]),
                Bytes::from(vec![0x01, 0x02]),
            ],
        },
        Frame::Flush { stream: 3 },
        Frame::Close { stream: 3 },
    ];
    for frame in &frames {
        let wire = frame.encode();
        // Truncation at every length short of the full frame must fail
        // (closed), never hang or panic.
        for cut in 0..wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..cut]);
            assert!(
                read_frame(&mut cursor, DEFAULT_MAX_FRAME).is_err(),
                "{}: truncation at {cut} must be rejected",
                frame.name()
            );
        }
        // Every single-bit corruption either fails closed or decodes to
        // a frame that is itself well-formed (re-encodable and
        // round-trippable) — no middle ground, no panic.
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut damaged = wire.clone();
                damaged[byte] ^= 1 << bit;
                let mut cursor = std::io::Cursor::new(damaged.as_slice());
                if let Ok((decoded, _)) = read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
                    let rewire = decoded.encode();
                    let mut recursor = std::io::Cursor::new(rewire.as_slice());
                    let (again, _) =
                        read_frame(&mut recursor, DEFAULT_MAX_FRAME).expect("re-encode decodes");
                    assert_eq!(
                        again.encode(),
                        rewire,
                        "{}: unstable re-encode",
                        frame.name()
                    );
                }
            }
        }
    }
}

/// A live server fails a damaged connection *closed*: the corrupt frame
/// ends the connection, the protocol-error counter ticks, and every
/// token accepted before the damage stays in the books as undelivered.
#[test]
fn corrupt_frame_fails_connection_closed_with_accounting_intact() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "hostile".into(),
        },
    )
    .expect("hello");
    let Frame::Accepted { .. } = read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("accept").0 else {
        panic!("expected Accepted");
    };
    write_frame(
        &mut sock,
        &Frame::OpenStream {
            app: 0,
            redundancy: 2,
        },
    )
    .expect("open");
    let Frame::Accepted { id } = read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("accept").0 else {
        panic!("expected stream id");
    };
    write_frame(
        &mut sock,
        &Frame::Tokens {
            stream: id,
            payloads: workload(App::Mjpeg, 9, 4)
                .into_iter()
                .map(Bytes::from)
                .collect(),
        },
    )
    .expect("tokens");

    // A Flush frame with its tag bit-flipped to an unknown value.
    let mut damaged = Frame::Flush { stream: id }.encode();
    damaged[4] ^= 0x40;
    use std::io::Write as _;
    sock.write_all(&damaged).expect("send damage");
    sock.flush().expect("flush socket");
    let err = read_frame(&mut sock, DEFAULT_MAX_FRAME).unwrap_err();
    assert!(matches!(err, ServeError::ConnectionClosed), "{err}");

    assert_eq!(server.registry().counter("serve.protocol.errors").get(), 1);
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].tokens_in, 4);
    assert_eq!(report.streams[0].delivered, 0);
    assert_eq!(report.streams[0].undelivered, 4, "nothing silently lost");
    assert!(!report.streams[0].closed);
}

/// The retry policy's wait computation: a `RateLimited` retry-after hint
/// is always honored (even past the exponential cap), jitter is bounded
/// to +50%, waits are deterministic per seed, and the exponential term
/// actually grows.
#[test]
fn retry_policy_honors_hint_cap_and_determinism() {
    use rtft_serve::RetryPolicy;
    let policy = RetryPolicy::default();

    // Hint beyond the cap: the wait must still cover the server's ask.
    let hinted = policy.wait_before(7, 0, 500);
    assert!(hinted >= Duration::from_millis(500), "{hinted:?}");
    assert!(
        hinted <= Duration::from_millis(750),
        "jitter is at most +50%"
    );

    // No hint: first retry waits the base (plus bounded jitter).
    let first = policy.wait_before(7, 0, 0);
    assert!(
        first >= policy.base && first <= policy.base * 3 / 2,
        "{first:?}"
    );

    // The exponential term grows with the retry index and respects the cap.
    let late = policy.wait_before(7, 20, 0);
    assert!(late >= policy.cap, "{late:?}");
    assert!(late <= policy.cap * 3 / 2, "{late:?}");

    // Deterministic per (seed, stream, retry); decorrelated across streams.
    assert_eq!(policy.wait_before(7, 3, 0), policy.wait_before(7, 3, 0));
    assert_ne!(policy.wait_before(7, 3, 0), policy.wait_before(8, 3, 0));
}

/// Under a saturated fleet, `send_flush_with_retry` turns `QueueFull`
/// refusals into backoff-and-retry until admission — and because a
/// refused batch stays buffered server-side, the tokens cross the wire
/// exactly once: the server's book shows them accepted once, delivered
/// once, no duplicates.
#[test]
fn flush_retry_is_lossless_and_never_resends_tokens() {
    use rtft_serve::RetryPolicy;
    let _guard = timing_lock();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                workers: 2,
                pending_capacity: 1,
            },
            runtime: ServeRuntime::Threaded {
                deadline: Duration::from_secs(30),
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Occupy the single admission slot with a long sleep-bound flush,
    // driven over a raw socket so this thread controls the ordering: the
    // fleet showing a job outstanding proves the Flush was admitted into
    // the only slot. (The frames-in counter moves when the frame is
    // decoded, before the stream is sized and the job submitted; a
    // competitor connecting in that window could take the slot, and the
    // drain below would wait forever behind a `Busy`.)
    let addr = server.addr();
    let mut slow = std::net::TcpStream::connect(addr).expect("connect slow");
    write_frame(
        &mut slow,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "slow".into(),
        },
    )
    .expect("hello");
    read_frame(&mut slow, DEFAULT_MAX_FRAME).expect("accepted");
    write_frame(
        &mut slow,
        &Frame::OpenStream {
            app: 0,
            redundancy: 2,
        },
    )
    .expect("open");
    read_frame(&mut slow, DEFAULT_MAX_FRAME).expect("stream id");
    write_frame(
        &mut slow,
        &Frame::Tokens {
            stream: 0,
            payloads: workload(App::Mjpeg, 1, 12)
                .into_iter()
                .map(Bytes::from)
                .collect(),
        },
    )
    .expect("tokens");
    write_frame(&mut slow, &Frame::Flush { stream: 0 }).expect("flush");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.fleet().load().outstanding == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never admitted the slow flush"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut client = Client::connect(addr, "retrier").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    let batch = workload(App::Adpcm, 2, 6);
    client.send_tokens(stream, &batch).expect("send");
    let rf = client
        .send_flush_with_retry(
            stream,
            &RetryPolicy {
                max_attempts: 200,
                seed: 42,
                ..RetryPolicy::default()
            },
        )
        .expect("retry");
    assert!(rf.outcome.admitted(), "retries must end in admission");
    assert_eq!(rf.outcome.outputs.len(), batch.len());
    assert_eq!(rf.attempts, rf.retries + 1);
    client.close(stream).expect("close");

    // Drain the slow stream: its outputs and flush Stats, then Close.
    loop {
        if let Frame::Stats { .. } = read_frame(&mut slow, DEFAULT_MAX_FRAME).expect("drain").0 {
            break;
        }
    }
    write_frame(&mut slow, &Frame::Close { stream: 0 }).expect("close slow");
    loop {
        if let Frame::Stats { .. } = read_frame(&mut slow, DEFAULT_MAX_FRAME).expect("drain").0 {
            break;
        }
    }

    let report = server.shutdown();
    assert!(report.balanced());
    let account = report
        .streams
        .iter()
        .find(|s| s.app == "adpcm")
        .expect("retrier stream");
    // The proof of single transmission: had the client re-sent the batch
    // on any retry, tokens_in would be a multiple of the batch size > 1.
    assert_eq!(account.tokens_in, batch.len() as u64);
    assert_eq!(account.delivered, batch.len() as u64);
    assert!(account.busy >= 1, "at least one refusal was retried");
}

/// An idle connection (no frame, nothing in flight) past `max_idle` is
/// evicted: the socket closes, the eviction is counted, and the stream's
/// buffered tokens land in `undelivered` — lossless books.
#[test]
fn idle_connection_is_evicted_losslessly() {
    let _guard = timing_lock();
    // Payloads up front: generating them between protocol exchanges
    // would eat into the idle window on slow (debug) builds.
    let batch = workload(App::Mjpeg, 3, 5);
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_idle: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr(), "idler").expect("connect");
    let stream = client
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    client.send_tokens(stream, &batch).expect("send");

    // Stay silent past the idle deadline; the server must close on us,
    // so the next exchange fails instead of flushing.
    std::thread::sleep(Duration::from_millis(800));
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert!(
        client.flush(stream).is_err(),
        "server should have closed the idle connection"
    );

    let report = server.shutdown();
    assert_eq!(report.evictions, 1);
    assert!(report.balanced());
    assert_eq!(report.streams.len(), 1);
    let account = &report.streams[0];
    assert!(account.evicted, "stream row records the eviction");
    assert_eq!(account.tokens_in, 5);
    assert_eq!(account.undelivered, 5, "buffered tokens stay in the books");
    assert!(!account.closed);
}

/// A slow-loris writer — a frame started but trickled too slowly to ever
/// complete — trips the whole-frame `read_timeout` even though every
/// inter-byte gap is short, and is evicted losslessly.
#[test]
fn stalled_writer_is_evicted_by_the_frame_deadline() {
    let _guard = timing_lock();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(Duration::from_millis(120)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "loris".into(),
        },
    )
    .expect("hello");
    read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("accepted");
    write_frame(
        &mut sock,
        &Frame::OpenStream {
            app: 0,
            redundancy: 2,
        },
    )
    .expect("open");
    read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("stream id");

    // Trickle a Tokens frame one byte every 40ms: each gap is under the
    // deadline, but the frame as a whole can never finish in 120ms.
    use std::io::Write as _;
    let wire = Frame::Tokens {
        stream: 0,
        payloads: workload(App::Mjpeg, 4, 3)
            .into_iter()
            .map(Bytes::from)
            .collect(),
    }
    .encode();
    for byte in &wire[..6] {
        if sock.write_all(std::slice::from_ref(byte)).is_err() {
            break; // evicted mid-trickle — also a pass
        }
        let _ = sock.flush();
        std::thread::sleep(Duration::from_millis(40));
    }
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert!(
        read_frame(&mut sock, DEFAULT_MAX_FRAME).is_err(),
        "server must close the stalled connection"
    );

    assert_eq!(
        server
            .registry()
            .counter_named("serve.evictions.stalled")
            .get(),
        1
    );
    let report = server.shutdown();
    assert_eq!(report.evictions, 1);
    assert!(report.balanced());
    assert!(report.streams[0].evicted);
    assert_eq!(
        report.streams[0].tokens_in, 0,
        "the trickled frame never landed"
    );
}

/// `fleet.pool.lent` on the server's fleet: flush jobs that ran on their
/// connection's reader thread in a lent pool slot.
fn lent(server: &Server) -> u64 {
    let registry = server.fleet().supervisor().registry();
    registry.counter("fleet.pool.lent").get()
}

/// On an idle server a connection's reader runs its own flushes: every
/// one of 32 sequential flushes takes a lent pool slot instead of waking
/// a worker, and what comes back is what a worker would have sent.
#[test]
fn idle_server_lends_every_sequential_flush_to_its_reader() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr(), "lender").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    for round in 0..32 {
        let batch = workload(App::Adpcm, 100 + round, 4);
        client.send_tokens(stream, &batch).expect("send");
        let run = client.flush(stream).expect("flush");
        assert!(run.admitted());
        let digests: Vec<u64> = run.outputs.iter().map(|o| o.digest).collect();
        let expected: Vec<u64> = batch.iter().map(|b| digest_of(b)).collect();
        assert_eq!(digests, expected, "round {round}");
    }
    // The reader answers `Close` after its 32nd lent call returned.
    let stats = client.close(stream).expect("close").stats.expect("stats");
    assert_eq!((stats.tokens_in, stats.delivered), (128, 128));
    assert_eq!(lent(&server), 32);
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.fleet.pool.lent, 32);
    assert_eq!(report.fleet.pool.executed, 32);
}

/// A `Close` written right behind a `Flush` finds the flush settled: the
/// stream's in-flight count is raised before the submission (which, lent,
/// settles the job before it returns) and the reader cannot reach `Close`
/// earlier — the final `Stats` is complete without one drain sleep.
#[test]
fn close_right_behind_a_lent_flush_never_waits() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut exchange = |frame: Frame| {
        write_frame(&mut sock, &frame).expect("write");
        read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("read").0
    };
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "closer".into(),
    };
    assert!(matches!(exchange(hello), Frame::Accepted { .. }));
    let open = Frame::OpenStream {
        app: 1,
        redundancy: 2,
    };
    let Frame::Accepted { id } = exchange(open) else {
        panic!("expected stream id");
    };
    // Tokens, Flush and Close in one write: all three are in the socket
    // before the reader has decoded the first.
    let mut wire = Vec::new();
    for frame in [
        Frame::Tokens {
            stream: id,
            payloads: workload(App::Adpcm, 5, 6)
                .into_iter()
                .map(Bytes::from)
                .collect(),
        },
        Frame::Flush { stream: id },
        Frame::Close { stream: id },
    ] {
        frame.encode_into(&mut wire);
    }
    use std::io::Write as _;
    sock.write_all(&wire).expect("send");
    // The settle's `Stats`, then `Close`'s.
    let mut stats = Vec::new();
    while stats.len() < 2 {
        if let Frame::Stats {
            tokens_in,
            delivered,
            ..
        } = read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("read").0
        {
            stats.push((tokens_in, delivered));
        }
    }
    assert_eq!(stats, [(6, 6), (6, 6)]);
    assert_eq!(lent(&server), 1);
    assert_eq!(server.registry().counter("serve.close.waits").get(), 0);
    assert!(server.shutdown().balanced());
}

/// Under contention nothing is lent: with one slot held by connection A's
/// slow flush (run by A's reader), connection B's flush queues for the
/// worker, both settle, and the fleet never runs two at once.
#[test]
fn busy_fleet_queues_a_second_connections_flush() {
    let _guard = timing_lock();
    let cfg = ServerConfig {
        fleet: FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        },
        // Wall-clock runtime: A's 20 MJPEG tokens hold the slot for
        // ≈ 20 × 30 ms.
        runtime: ServeRuntime::Threaded {
            deadline: Duration::from_secs(30),
        },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let flush_on_a_thread = |name: &'static str, seed: u64, tokens: usize| {
        let mut client = Client::connect(server.addr(), name).expect("connect");
        let stream = client
            .open_stream(App::Mjpeg, 2)
            .expect("open")
            .expect_stream();
        client
            .send_tokens(stream, &workload(App::Mjpeg, seed, tokens))
            .expect("send");
        std::thread::spawn(move || client.flush(stream).expect("flush"))
    };
    let wait_for = |what: &str, reached: &dyn Fn() -> bool| {
        let armed = Instant::now();
        while !reached() {
            assert!(armed.elapsed() < Duration::from_secs(10), "never {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let a = flush_on_a_thread("a", 1, 20);
    wait_for("A running", &|| server.fleet().load().inflight == 1);
    let b = flush_on_a_thread("b", 2, 4);
    wait_for("B queued", &|| server.fleet().load().queued == 1);
    // B sits in the run queue behind the only slot, which A's reader
    // holds: B was admitted, not lent.
    let mut peak_inflight = 0;
    while !(a.is_finished() && b.is_finished()) {
        peak_inflight = peak_inflight.max(server.fleet().load().inflight);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(peak_inflight, 1, "one slot, one run at a time");
    assert_eq!(a.join().expect("a").outputs.len(), 20);
    assert_eq!(b.join().expect("b").outputs.len(), 4);
    assert_eq!(lent(&server), 1, "only A's flush found the fleet idle");
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.fleet.pool.executed, 2);
    assert_eq!(report.fleet.pool.lent, 1);
}

/// The settle is the same on a lent slot: an injected fail-stop's `Fault`
/// reaches the client ahead of the flush's terminal `Stats`, pushed by
/// the notifier on the reader's own thread.
#[test]
fn lent_flush_pushes_its_fault_before_stats() {
    let cfg = ServerConfig {
        inject: vec![FaultInjection {
            stream: 0,
            replica: 1,
            at: TimeNs::from_ms(120),
        }],
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr(), "faulted").expect("connect");
    let stream = client
        .open_stream(App::Mjpeg, 2)
        .expect("open")
        .expect_stream();
    client
        .send_tokens(stream, &workload(App::Mjpeg, 42, 12))
        .expect("send");
    // `flush` stops collecting at `Stats`: a `Fault` trailing it would
    // be missing here and turn up in `close` instead.
    let run = client.flush(stream).expect("flush");
    assert_eq!(run.outputs.len(), 12);
    assert_eq!(run.faults.len(), 1);
    assert_eq!(run.faults[0].replica, 1);
    assert_eq!(run.stats.expect("stats").faults, 1);
    let closed = client.close(stream).expect("close");
    assert!(closed.faults.is_empty() && closed.outputs.is_empty());
    assert_eq!(lent(&server), 1);
    assert!(server.shutdown().balanced());
}
