//! A flush costs what the server computes, not a kernel timer: the settle
//! leaves in one write on a `TCP_NODELAY` socket, in order. Alone in its
//! binary, and one `#[test]` whose phases run one after the other, because
//! the phases time a closed loop on real loopback sockets — a neighbouring
//! test on a parallel thread would be timed with them.
//!
//! Before the fix phases (a) and (b) read ≈ 44 ms per round (Nagle on the
//! server's small writes against the client's 40 ms delayed ACK); phase (b)
//! still does with one write per settle but no `TCP_NODELAY`, because the
//! second stream's settle waits for the ACK of the first.

#![cfg(target_os = "linux")]

use rtft_apps::networks::App;
use rtft_serve::wire::{read_frame, write_frame, write_tokens, DEFAULT_MAX_FRAME};
use rtft_serve::{workload, Client, Frame, Server, ServerConfig, PROTOCOL_VERSION};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TOKENS: usize = 16;
const ROUNDS: usize = 40;
/// Far above a loopback round trip plus a 16-token DES run on a loaded
/// host, far below the 40 ms delayed-ACK timer.
const LIMIT: Duration = Duration::from_millis(10);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A raw loopback connection to the server, reads buffered.
fn raw_connection(server: &Server) -> BufReader<TcpStream> {
    let sock = TcpStream::connect(server.addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    BufReader::new(sock)
}

fn hello(client: &str) -> Frame {
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client: client.into(),
    }
}

fn open_adpcm() -> Frame {
    Frame::OpenStream {
        app: App::ALL.iter().position(|a| *a == App::Adpcm).unwrap() as u8,
        redundancy: 2,
    }
}

fn next(conn: &mut BufReader<TcpStream>) -> Frame {
    read_frame(conn, DEFAULT_MAX_FRAME).expect("frame").0
}

fn accepted(conn: &mut BufReader<TcpStream>) -> u32 {
    match next(conn) {
        Frame::Accepted { id } => id,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

#[test]
fn a_flush_is_not_a_kernel_timer() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let batch = workload(App::Adpcm, 11, TOKENS);

    // (a) Closed loop through `Client`: send, flush, read to `Stats`.
    let mut client = Client::connect(server.addr(), "closed-loop").expect("connect");
    let stream = client
        .open_stream(App::Adpcm, 2)
        .expect("open")
        .expect_stream();
    let closed_loop: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            client.send_tokens(stream, &batch).expect("send");
            let outcome = client.flush(stream).expect("flush");
            assert_eq!(outcome.outputs.len(), TOKENS);
            t.elapsed()
        })
        .collect();
    let closed_loop = median(closed_loop);
    drop(client);

    // (b) Two streams on one connection, both flushed in one segment: two
    // settles answer back to back, and the second must not wait for the
    // client's delayed ACK of the first.
    let mut conn = raw_connection(&server);
    write_frame(conn.get_mut(), &hello("two-streams")).expect("hello");
    accepted(&mut conn);
    let streams = [(); 2].map(|()| {
        write_frame(conn.get_mut(), &open_adpcm()).expect("open");
        accepted(&mut conn)
    });
    let mut round = Vec::new();
    for s in streams {
        write_tokens(&mut round, s, &batch).expect("stage tokens");
    }
    for s in streams {
        Frame::Flush { stream: s }.encode_into(&mut round);
    }
    let two_streams: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            conn.get_mut().write_all(&round).expect("write round");
            let (mut outputs, mut stats) = (0, 0);
            while stats < 2 {
                match next(&mut conn) {
                    Frame::Output { .. } => outputs += 1,
                    Frame::Stats { .. } => stats += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(outputs, 2 * TOKENS);
            t.elapsed()
        })
        .collect();
    let two_streams = median(two_streams);
    drop(conn);

    // (c) A whole stream life written without reading anything: the
    // settle's frames come back in order and none trails the `Close`
    // reply. Streams are numbered in open order, server-wide.
    let stream = streams[1] + 1;
    let mut conn = raw_connection(&server);
    let mut life = hello("pipelined").encode();
    open_adpcm().encode_into(&mut life);
    write_tokens(&mut life, stream, &batch).expect("stage tokens");
    Frame::Flush { stream }.encode_into(&mut life);
    Frame::Close { stream }.encode_into(&mut life);
    conn.get_mut().write_all(&life).expect("write life");

    accepted(&mut conn);
    assert_eq!(accepted(&mut conn), stream);
    for want in 0..TOKENS as u64 {
        match next(&mut conn) {
            Frame::Output { stream: s, seq, .. } => assert_eq!((s, seq), (stream, want)),
            other => panic!("expected Output {want}, got {other:?}"),
        }
    }
    assert!(matches!(next(&mut conn), Frame::Stats { .. }));
    match next(&mut conn) {
        Frame::Stats {
            tokens_in,
            delivered,
            ..
        } => assert_eq!((tokens_in, delivered), (TOKENS as u64, TOKENS as u64)),
        other => panic!("expected the final Stats, got {other:?}"),
    }
    drop(conn);

    // Every admitted flush left one server-side latency sample. Both are
    // recorded after the flush's `Stats` can reach the client (the batch
    // size by the reader once admission returns, the server time once the
    // settle is written), so count them after shutdown has joined the
    // readers and drained the fleet.
    let flushes = (ROUNDS + 2 * ROUNDS + 1) as u64;
    let registry = server.registry().clone();
    let report = server.shutdown();
    assert_eq!(registry.histogram("serve.flush.batch").count(), flushes);
    assert_eq!(registry.histogram("serve.flush.server_ns").count(), flushes);
    assert!(report.balanced());
    println!("closed loop {closed_loop:?}, two streams {two_streams:?} (median of {ROUNDS})");
    assert!(
        closed_loop < LIMIT,
        "closed-loop flush median {closed_loop:?}"
    );
    assert!(
        two_streams < LIMIT,
        "two-stream round median {two_streams:?}"
    );
}
