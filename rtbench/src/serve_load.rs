//! The three serve workloads: a closed loop of `C` connections against an
//! in-process `rtft_serve::Server` over loopback TCP.
//!
//! Everything a client thread touches inside the measured window is built
//! in set-up from `--seed`: payload batches and the digests the server
//! must answer with. Inside the window there are only client calls.

use crate::stats::Samples;
use crate::trace::Tracer;
use rtft_apps::networks::App;
use rtft_serve::{
    digest_of, replay_verify, workload, Client, OutputEvent, ServeError, Server, ServerConfig,
    TenancyConfig, WalConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct pre-built batches each connection cycles through.
const BATCHES_PER_CONN: usize = 8;
/// Flushes per connection between set-up and the measured window: a
/// fixed count, not a fixed time, so the memory read after it does not
/// depend on how fast the server is.
const WARMUP_OPS: usize = 16;
/// A `Busy` refusal is retried inside the sample this many times (2 ms
/// apart) before the flush counts as failed.
const BUSY_RETRIES: u32 = 50;

/// What a serve workload streams.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub app: App,
    pub redundancy: u8,
    pub tokens_per_flush: usize,
    /// WAL (fsync on) + tenancy, `send_tokens_durable` then `flush`.
    pub durable: bool,
}

impl Shape {
    /// Span name of the send half of a flush.
    pub fn send_span(&self) -> &'static str {
        if self.durable {
            "client.send_tokens_durable"
        } else {
            "client.send_tokens"
        }
    }

    /// The stream span one batch stands for: tokens × producer period. A
    /// flush slower than this cannot keep up with its own stream.
    pub fn deadline(&self) -> Duration {
        let period = self.app.profile().model.producer.period.as_ns();
        Duration::from_nanos(period * self.tokens_per_flush as u64)
    }
}

/// Load threads / connections: never more than the cores there are.
pub fn connections() -> usize {
    crate::nproc().min(4)
}

/// One pre-built batch and the digests its outputs must carry.
#[derive(Debug)]
pub struct Batch {
    pub payloads: Vec<Vec<u8>>,
    pub digests: Vec<u64>,
}

/// Builds connection `conn`'s batches from the seed.
pub fn build_batches(shape: &Shape, seed: u64, conn: usize) -> Vec<Batch> {
    (0..BATCHES_PER_CONN)
        .map(|b| {
            let batch_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((conn * BATCHES_PER_CONN + b) as u64);
            let payloads = workload(shape.app, batch_seed, shape.tokens_per_flush);
            let digests = payloads.iter().map(|p| digest_of(p)).collect();
            Batch { payloads, digests }
        })
        .collect()
}

/// One connection with its open stream and inputs.
#[derive(Debug)]
pub struct Conn {
    pub client: Client,
    pub stream: u32,
    pub batches: Vec<Batch>,
    /// Flushes issued so far (selects the next batch).
    pub issued: usize,
}

/// What one flush operation observed.
#[derive(Debug)]
pub struct Op {
    pub total: Duration,
    pub tokens_ok: u64,
    pub busy: u32,
    pub failed: bool,
    /// The outputs as pushed.
    pub outputs: Vec<OutputEvent>,
}

impl Conn {
    /// Sends the next batch and flushes it, checking every output.
    pub fn op(&mut self, shape: &Shape, tracer: Option<(&mut Tracer, u64)>) -> Op {
        let batch = &self.batches[self.issued % self.batches.len()];
        self.issued += 1;
        let t0 = Instant::now();
        let mut failed = false;
        let sent: Result<(), ServeError> = if shape.durable {
            self.client
                .send_tokens_durable(self.stream, &batch.payloads)
                .map(|ack| failed |= ack.tokens as usize != batch.payloads.len())
        } else {
            self.client.send_tokens(self.stream, &batch.payloads)
        };
        let t1 = Instant::now();
        let mut busy = 0u32;
        let mut outputs = Vec::new();
        if sent.is_err() {
            failed = true;
        } else {
            loop {
                match self.client.flush(self.stream) {
                    Ok(run) if run.busy.is_some() && busy < BUSY_RETRIES => {
                        busy += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(run) => {
                        failed |= run.busy.is_some() || !run.faults.is_empty();
                        outputs = run.outputs;
                        break;
                    }
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        let t2 = Instant::now();
        // In order, complete, and each digest the one set-up computed.
        let tokens_ok = outputs
            .iter()
            .zip(&batch.digests)
            .enumerate()
            .filter(|(i, (o, d))| o.seq == *i as u64 && o.digest == **d)
            .count() as u64;
        failed |= tokens_ok as usize != batch.digests.len() || outputs.len() != batch.digests.len();
        if let Some((tracer, flush_id)) = tracer {
            let root = tracer.open("flush", t0, flush_id);
            tracer.record(shape.send_span(), t0, t1, Some(root), flush_id);
            tracer.record("client.flush_rtt", t1, t2, Some(root), flush_id);
            tracer.close(root, t2);
        }
        Op {
            total: t2 - t0,
            tokens_ok,
            busy,
            failed,
            outputs,
        }
    }
}

/// A running server with its connected clients.
pub struct Session {
    pub shape: Shape,
    pub server: Server,
    pub cfg: ServerConfig,
    pub conns: Vec<Conn>,
    wal_dir: Option<PathBuf>,
    /// Flushes this session issued so far, in and out of windows, and how
    /// many of them failed; [`Session::finish`] adds the tear-down checks.
    pub attempted: u64,
    pub failed: u64,
    /// Time spent connecting and opening the streams.
    pub connect_open: Duration,
}

static WAL_DIRS: AtomicU64 = AtomicU64::new(0);

/// A fresh WAL directory under the benchmark's own `out/`.
fn fresh_wal_dir() -> PathBuf {
    let n = WAL_DIRS.fetch_add(1, Ordering::Relaxed);
    crate::out_dir().join(format!("wal-{}-{n}", std::process::id()))
}

impl Session {
    /// [`Session::try_setup`], ending the process if the server cannot be
    /// started or reached: there is nothing to measure then.
    pub fn setup(shape: Shape, seed: u64) -> Session {
        Session::try_setup(shape, seed).unwrap_or_else(|e| {
            eprintln!("rtbench: serve set-up failed: {e}");
            std::process::exit(1);
        })
    }

    /// Set-up: build every input from `seed`, start the server on port 0,
    /// connect, open one stream per connection and run one cold flush on
    /// each (lazy set-up inside the server is paid here).
    fn try_setup(shape: Shape, seed: u64) -> Result<Session, ServeError> {
        let all_batches: Vec<Vec<Batch>> = (0..connections())
            .map(|c| build_batches(&shape, seed, c))
            .collect();
        let wal_dir = shape.durable.then(fresh_wal_dir);
        let cfg = ServerConfig {
            wal: wal_dir
                .as_ref()
                .map(|d| WalConfig::new(d.clone()).with_retention(4)),
            tenancy: shape.durable.then(TenancyConfig::default),
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg.clone())?;
        let t_connect = Instant::now();
        let mut conns = Vec::new();
        for (c, batches) in all_batches.into_iter().enumerate() {
            let mut client = Client::connect(server.addr(), &format!("rtbench-{c}"))?;
            let stream = match client.open_stream(shape.app, shape.redundancy)? {
                rtft_serve::OpenOutcome::Stream(id) => id,
                rtft_serve::OpenOutcome::Busy(_) => {
                    return Err(ServeError::Io(std::io::Error::other("stream refused")))
                }
            };
            conns.push(Conn {
                client,
                stream,
                batches,
                issued: 0,
            });
        }
        let connect_open = t_connect.elapsed();
        let mut session = Session {
            shape,
            server,
            cfg,
            conns,
            wal_dir,
            attempted: 0,
            failed: 0,
            connect_open,
        };
        for conn in &mut session.conns {
            session.failed += conn.op(&shape, None).failed as u64;
            session.attempted += 1;
        }
        Ok(session)
    }

    /// Runs `f` on every connection, one OS thread each, and returns the
    /// results in connection order.
    pub fn on_each<T: Send>(&mut self, f: impl Fn(usize, &mut Conn) -> T + Sync) -> Vec<T> {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| scope.spawn(move || f(c, conn)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        })
    }

    /// The fixed-count warm-up (pool fill, caches).
    pub fn warm_up(&mut self) {
        let shape = self.shape;
        let failed: u64 = self
            .on_each(|_, conn| {
                (0..WARMUP_OPS)
                    .map(|_| conn.op(&shape, None).failed as u64)
                    .sum::<u64>()
            })
            .into_iter()
            .sum();
        self.failed += failed;
        self.attempted += (self.conns.len() * WARMUP_OPS) as u64;
    }

    /// The measured window: every connection flushes back to back until
    /// `seconds` have passed. With `traced`, client-side spans are kept.
    pub fn window(&mut self, seconds: f64, epoch: Instant, traced: bool) -> WindowStats {
        let shape = self.shape;
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(seconds);
        let per_conn = self.on_each(|c, conn| {
            let mut stats = WindowStats::default();
            let mut tracer = Tracer::new(epoch, c as u64 + 1);
            while Instant::now() < until {
                let flush_id = ((c as u64) << 32) | conn.issued as u64;
                let batch = conn.issued % conn.batches.len();
                let op = conn.op(&shape, traced.then_some((&mut tracer, flush_id)));
                stats.add(&op, &shape);
                // The first traced flush of each distinct batch is kept
                // whole, for the layer replay to follow.
                if traced && stats.kept.len() < conn.batches.len() {
                    stats.kept.push(Kept {
                        flush_id,
                        conn: c,
                        batch,
                        outputs: op.outputs,
                    });
                }
            }
            stats.spans = Some(tracer);
            stats
        });
        let mut total = WindowStats::default();
        for s in per_conn {
            total.merge(s);
        }
        total.elapsed = start.elapsed();
        self.attempted += total.attempted;
        self.failed += total.failed;
        total
    }

    /// Tear-down with the correctness gate: every stream's final `Stats`
    /// balances, the server's report balances, and (durable) the log
    /// replays clean. Returns the session's totals — a failed check counts
    /// as a failed operation — and what the ledger reads off a tear-down.
    pub fn finish(self) -> Finish {
        let Session {
            shape,
            server,
            cfg,
            conns,
            wal_dir,
            attempted,
            mut failed,
            ..
        } = self;
        for mut conn in conns {
            match conn.client.close(conn.stream) {
                Ok(last) => match last.stats {
                    Some(s) if s.tokens_in == s.delivered => {}
                    _ => failed += 1,
                },
                Err(_) => failed += 1,
            }
        }
        let registry = server.registry().clone();
        let pool_hits = registry.counter("kpn.pool.hits").get();
        let pool_misses = registry.counter("kpn.pool.misses").get();
        let report = server.shutdown();
        if !report.balanced() {
            failed += 1;
        }
        let mut replay = None;
        let mut recovery = None;
        if let Some(dir) = &wal_dir {
            let t = Instant::now();
            match replay_verify(dir, &cfg) {
                Ok(r) => {
                    if !r.clean() {
                        failed += 1;
                    }
                    let flushes: u64 = r.streams.iter().map(|s| s.replayed).sum::<u64>()
                        / shape.tokens_per_flush as u64;
                    replay = Some((t.elapsed(), flushes));
                }
                Err(_) => failed += 1,
            }
            // What a restart would scan: the log as the run left it.
            if let Ok((_, found)) = rtft_wal::Wal::open(WalConfig::new(dir.clone())) {
                recovery = Some((found.records.len() as u64, found.recovery_ns));
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        Finish {
            attempted,
            failed,
            replay,
            recovery,
            pool_hits,
            pool_misses,
        }
    }
}

/// What tear-down found.
pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    /// `replay_verify` wall time and the flushes it re-ran (durable only).
    pub replay: Option<(Duration, u64)>,
    /// Records `Wal::open` recovered from the run's log, and the scan's
    /// nanoseconds (durable only).
    pub recovery: Option<(u64, u64)>,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

/// One traced flush kept for the layer replay: which batch it sent and
/// the outputs the server pushed back.
#[derive(Debug)]
pub struct Kept {
    pub flush_id: u64,
    pub conn: usize,
    pub batch: usize,
    pub outputs: Vec<OutputEvent>,
}

/// Per-window tallies, merged across connections.
#[derive(Debug, Default)]
pub struct WindowStats {
    pub op_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub tokens_ok: u64,
    pub busy: u64,
    pub deadline_missed: u64,
    pub elapsed: Duration,
    pub spans: Option<Tracer>,
    pub kept: Vec<Kept>,
}

impl WindowStats {
    fn add(&mut self, op: &Op, shape: &Shape) {
        self.attempted += 1;
        self.failed += op.failed as u64;
        self.tokens_ok += op.tokens_ok;
        self.busy += op.busy as u64;
        // A failed flush misses any deadline.
        self.deadline_missed += (op.failed || op.total > shape.deadline()) as u64;
        self.op_ms.push(op.total.as_secs_f64() * 1e3);
    }

    fn merge(&mut self, other: WindowStats) {
        self.op_ms.extend(&other.op_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tokens_ok += other.tokens_ok;
        self.busy += other.busy;
        self.deadline_missed += other.deadline_missed;
        self.kept.extend(other.kept);
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }
}
