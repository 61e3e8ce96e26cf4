//! The streaming ingestion server: TCP front-end over the fleet executor.
//!
//! # Architecture
//!
//! ```text
//!        client                    server (std::net + threads)
//!   ┌──────────────┐   RTFT/1   ┌──────────┐
//!   │ Client::flush├───────────►│ reader   │── Flush ──► FleetExecutor
//!   └──────▲───────┘            │ thread   │             (EDF worker pool)
//!          │                    └──────────┘                   │
//!          │   Output / Fault / Stats  ◄── JobNotifier ────────┘
//!          └────────────────────────── (fires on job settle)
//! ```
//!
//! One acceptor thread blocks in `accept`; each connection gets a
//! blocking reader thread. Every wait blocks on the event it waits for —
//! a connection, a byte, a read deadline — so an idle server makes no
//! wake-ups. A connection is one socket (`Conn`), shared by its reader,
//! the settle notifiers that write to it and the shutdown path. Tokens
//! buffer per stream until a `Flush` turns the batch into one
//! fault-tolerant fleet job (duplicated pair or tri-modular voting, per
//! the stream's redundancy). Admission is **non-blocking**: a saturated
//! fleet answers `Busy` and the batch stays buffered server-side —
//! backpressure, never token loss. A reader has nothing to do between a
//! `Flush` and its settle but wait, so on a fleet with nothing queued and
//! a slot free it runs the job itself (`FleetExecutor::run_or_submit`)
//! and that connection's next frame waits in the socket for the length
//! of the run; a busy fleet queues the job for a pool worker and the
//! reader goes on ingesting beside it. When the job settles, its
//! [`JobNotifier`] pushes the selector's outputs, every fault latch (with
//! its detection latency), and a terminal `Stats` back through the
//! connection's socket — one write per settle on a `TCP_NODELAY` socket,
//! so a flush costs what the server computes and not a kernel timer. The
//! structure a stream's batches run on is sized once, on its first flush
//! (`prepare_plan`); a flush only attaches its batch.
//!
//! Shutdown is graceful: [`Server::begin_shutdown`] refuses new streams
//! with `Busy{shutting-down}`, [`Server::shutdown`] drains every admitted
//! job (notifiers still fire), then sets the [`CancelToken`], unblocks
//! the readers by shutting their sockets down and wakes the acceptor with
//! one loopback connection. The acceptor registers a connection under the
//! `conns` lock after re-checking the token, and shutdown sets the token
//! before it drains `conns`: a connection is either drained by shutdown
//! or refused by the acceptor, never left blocked.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtft_apps::networks::App;
use rtft_core::{FaultPlan, PayloadGenerator};
use rtft_fleet::{
    des_horizon, structure_bounds, Admission, FleetConfig, FleetExecutor, JobNotifier, JobRuntime,
    JobSpec, JobTemplate, Redundancy, RejectReason,
};
use rtft_kpn::threaded::CancelToken;
use rtft_kpn::{Bytes, Payload};
use rtft_obs::{ClockDomain, Counter, EventRecord, EventSink, Histogram, MetricsRegistry};
use rtft_rtc::TimeNs;
use rtft_tenant::{
    AttachError, TenantConfig, TenantError, TenantId, TenantManager, TenantReject, TenantReport,
    TenantState,
};
use rtft_wal::{Wal, WalConfig, WalRecord};

use crate::error::{EvictReason, ProtocolError, ServeError};
use crate::replay::fold_log;
use crate::report::{ServeReport, StreamAccount};
use crate::wire::{
    read_body, redundancy_from_byte, site_kind, BusyReason, Frame, FrameWriter, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};

/// Back-off after a failed `accept` (a full fd table fails every call
/// until a descriptor is freed). Never slept on the success path.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Poll interval while `Close` waits for a stream's in-flight flushes.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// Capacity of the server's lifecycle event ring.
const EVENT_CAPACITY: usize = 1024;

/// Which runtime a flush's fleet job executes under.
#[derive(Debug, Clone, Copy)]
pub enum ServeRuntime {
    /// Deterministic discrete-event simulation; the horizon is derived
    /// from the app's producer period and the batch size.
    DiscreteEvent,
    /// Real OS threads under wall-clock time.
    Threaded {
        /// Hard wall-clock deadline per flush run; a run that deadlocks
        /// earlier returns at once (see `rtft_kpn::threaded`).
        deadline: Duration,
    },
}

/// A server-side fault injection: the `stream`-th stream opened on this
/// server (globally, zero-based) gets a permanent fail-stop fault in one
/// replica on every flush. The wire protocol deliberately has no
/// client-side fault frame — faults are an operator/test concern.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Global open-order index of the target stream.
    pub stream: u32,
    /// Replica to fail-stop.
    pub replica: usize,
    /// Virtual/wall run time at which the replica halts.
    pub at: TimeNs,
}

/// Multi-tenant admission policy for a server.
///
/// With tenancy enabled, the `client` string of the `Hello` handshake
/// names the tenant every stream on that connection belongs to, and the
/// tenant's quotas / token rate / lifecycle gate admission *before* a
/// flush reaches the fleet. Without it (`ServerConfig::tenancy == None`)
/// the server behaves exactly as before tenancy existed.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Supervisor shard count (hash-by-tenant-id; clamped to ≥ 1).
    pub shards: usize,
    /// Attach unknown `Hello` names on first sight with `default`. When
    /// `false`, a connection naming an unattached tenant is a protocol
    /// error — attach tenants up front via [`Server::attach_tenant`].
    pub auto_attach: bool,
    /// Policy for auto-attached (and recovery-re-attached) tenants.
    pub default: TenantConfig,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            shards: 4,
            auto_attach: true,
            default: TenantConfig::default(),
        }
    }
}

/// Server sizing and policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet executor knobs. A flush is one fleet job with one run, so
    /// the pushed outputs and detection latencies describe the fault the
    /// client streamed into.
    pub fleet: FleetConfig,
    /// Runtime for flush jobs.
    pub runtime: ServeRuntime,
    /// Maximum accepted frame length (tag + body bytes).
    pub max_frame: u32,
    /// Fault injections by global stream open-order.
    pub inject: Vec<FaultInjection>,
    /// Base seed for per-stream job seeds (token accounting and DES runs
    /// are reproducible per seed).
    pub seed: u64,
    /// Write-ahead log configuration. When set, every accepted `Tokens`
    /// batch is appended (group-committed) to the log before the server
    /// acknowledges it with a `Durable` frame, settled flushes write their
    /// output digests in order without waiting (they ride the next group
    /// commit), and a restarting server replays the log: streams are
    /// rebuilt, each resumes at its last *logged* delivered sequence
    /// number, and the tail past it is resubmitted through the fleet.
    pub wal: Option<WalConfig>,
    /// Tenant lifecycle, quotas, and sharded supervision. `None` keeps
    /// the untenanted behavior (every stream under implicit tenant 0, no
    /// quotas).
    pub tenancy: Option<TenancyConfig>,
    /// Slow-writer deadline: once any byte of a frame has arrived, the
    /// whole frame must complete within this window or the connection is
    /// evicted (`stalled`) — the slow-loris guard. `None` disables it
    /// (readers block indefinitely, the pre-deadline behavior).
    pub read_timeout: Option<Duration>,
    /// Idle deadline: the maximum gap between frames while the
    /// connection has no in-flight flush. Beyond it the connection is
    /// evicted (`idle`). A client silently waiting for its own flush to
    /// settle is *not* idle — in-flight work resets the window. `None`
    /// disables the deadline.
    pub max_idle: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            fleet: FleetConfig::default(),
            runtime: ServeRuntime::DiscreteEvent,
            max_frame: DEFAULT_MAX_FRAME,
            inject: Vec::new(),
            seed: 1,
            wal: None,
            tenancy: None,
            read_timeout: None,
            max_idle: None,
        }
    }
}

/// The analytic worst-case fault-observation window for a duplicated
/// stream of `app`: the [`DetectionBounds`](rtft_rtc::DetectionBounds)
/// permanent-timing latch bound plus one producer period of arrival grace
/// (an `AtTime` injection can land mid-period, before the replica touches
/// a token). Clients assert pushed `Fault` latencies against this.
pub fn detection_bound(app: App) -> TimeNs {
    fault_window(app, Redundancy::Duplicated, 0)
}

/// The analytic worst-case fault-observation window for a sampled-checker
/// stream of `app` at stride `k`, with the same producer-period arrival
/// grace as [`detection_bound`]. Side `0` (the full-rate main) is covered
/// by the overflow and sampled-divergence detectors racing; side `1` (the
/// checker) only by sampled divergence, whose latency grows linearly in
/// `k`.
///
/// # Panics
///
/// Panics if `k == 0`, and, as [`JobTemplate::with_fault`] does, on a
/// `replica` the structure lacks (anything above `1`).
pub fn hetero_detection_bound(app: App, k: u64, replica: usize) -> TimeNs {
    fault_window(app, Redundancy::Hetero { k }, replica)
}

fn fault_window(app: App, redundancy: Redundancy, replica: usize) -> TimeNs {
    let model = app.profile().model;
    let latch = structure_bounds(&model, redundancy).permanent(replica);
    latch + model.producer.period + model.producer.jitter
}

/// One open stream's server-side state.
struct StreamState {
    id: u32,
    conn: u32,
    /// Tenant id the stream was admitted under (0 = untenanted server).
    tenant: u64,
    app: App,
    redundancy: u8,
    /// Tokens accepted but not yet admitted into a flush job. Shared
    /// [`Bytes`] handles, one ingested and hashed copy each: the same
    /// copy flows into the WAL record and the fleet job.
    buffered: Mutex<Vec<Bytes>>,
    tokens_in: AtomicU64,
    delivered: AtomicU64,
    /// Tokens refused at admission (quota / draining), never accepted.
    rejected: AtomicU64,
    faults: AtomicU64,
    busy: AtomicU64,
    /// Admitted flush jobs not yet settled.
    inflight: AtomicU64,
    closed: AtomicBool,
    /// The stream's connection was evicted for violating a read deadline.
    evicted: AtomicBool,
    /// The stream's sized structure ([`prepare_plan`]), filled on the
    /// first flush: model, redundancy and seed never change, so the §3.4
    /// analysis runs once and every batch only attaches to its result.
    plan: OnceLock<JobTemplate>,
    /// `serve.app.<label>.tokens`, resolved once per stream.
    app_tokens: Counter,
}

/// The per-application ingest counter, `serve.app.<label>.tokens`.
fn app_tokens_counter(registry: &MetricsRegistry, app: App) -> Counter {
    registry.counter_named(format!("serve.app.{}.tokens", app.label()))
}

impl StreamState {
    fn plan(&self, cfg: &ServerConfig) -> &JobTemplate {
        self.plan
            .get_or_init(|| prepare_plan(cfg, self.id, self.app, self.redundancy))
    }
}

/// One live connection: a single socket shared by its reader thread
/// (`Read for &TcpStream`), the settle notifiers that push to it and
/// [`Shared::conns`] (shutdown needs only `&TcpStream`).
struct Conn {
    id: u32,
    sock: TcpStream,
    /// Serialises socket writes: notifiers (on a pool worker, or on the
    /// reader thread itself in a lent slot) and the reader thread's own
    /// replies share the socket.
    write: Mutex<()>,
    /// When a flush of this connection last settled, on the
    /// [`Shared::now_ns`] clock: the idle window restarts there.
    settled_ns: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    fleet: FleetExecutor,
    /// The tenant directory, when tenancy is configured.
    tenants: Option<TenantManager>,
    /// The durable log, when configured.
    wal: Option<Wal>,
    /// Set by [`Server::hard_drop`]: appends stop reaching the log, so
    /// everything after the drop instant is lost exactly as in a crash.
    wal_frozen: AtomicBool,
    /// Streams rebuilt from the log at startup.
    recovered_streams: AtomicU64,
    /// Undelivered logged tokens resubmitted through the fleet at startup.
    replayed_tokens: AtomicU64,
    /// Torn-tail records dropped by WAL recovery at startup.
    wal_truncated_records: u64,
    registry: MetricsRegistry,
    events: EventSink,
    epoch: Instant,
    cancel: CancelToken,
    /// `false` once shutdown begins: no new streams, flushes answer Busy.
    accepting: AtomicBool,
    next_stream: AtomicU32,
    streams: Mutex<HashMap<u32, Arc<StreamState>>>,
    /// The live connections, by connection id, for forced unblock at
    /// shutdown. A handler removes its entry on exit.
    conns: Mutex<HashMap<u32, Arc<Conn>>>,
    /// Handler threads not yet joined; the acceptor reaps finished ones.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    c_connections: Counter,
    c_streams_opened: Counter,
    c_streams_closed: Counter,
    c_tokens_in: Counter,
    c_outputs: Counter,
    c_faults: Counter,
    c_busy: Counter,
    c_frames_in: Counter,
    c_frames_out: Counter,
    c_bytes_in: Counter,
    c_bytes_out: Counter,
    c_protocol_errors: Counter,
    c_evictions: Counter,
    /// `Outputs` records the log refused at settle.
    c_wal_errors: Counter,
    /// Times a `Close` slept waiting for one of its stream's flushes.
    c_close_waits: Counter,
    h_frame_in: Histogram,
    h_frame_out: Histogram,
    h_flush_batch: Histogram,
    /// A flush's time inside the server: `Flush` frame decoded → settle
    /// written (queue wait, build, engine run, settle, write).
    h_flush_server_ns: Histogram,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The WAL to append to, unless the server was hard-dropped (a
    /// frozen log models the crash: later events never hit the disk).
    fn wal(&self) -> Option<&Wal> {
        if self.wal_frozen.load(Ordering::SeqCst) {
            None
        } else {
            self.wal.as_ref()
        }
    }

    fn event(&self, name: &'static str, node: Option<usize>, value: u64) {
        self.events.push(EventRecord {
            at_ns: self.now_ns(),
            clock: ClockDomain::Wall,
            name,
            node,
            channel: None,
            value,
        });
    }

    /// A writer for a run of frames that leave `conn` in one socket write
    /// ([`ConnWriter::finish`]).
    fn writer<'a>(&'a self, conn: &'a Conn) -> ConnWriter<'a> {
        ConnWriter {
            shared: self,
            out: FrameWriter::new(conn),
        }
    }

    /// Writes one frame to a connection's socket. Write errors mean the
    /// peer is gone; callers treat that as the end of the exchange.
    fn send(&self, conn: &Conn, frame: &Frame) -> Result<(), ServeError> {
        let mut w = self.writer(conn);
        w.stage(frame)?;
        w.finish()
    }

    fn stats_frame(&self, st: &StreamState) -> Frame {
        let load = self.fleet.load();
        Frame::Stats {
            stream: st.id,
            tokens_in: st.tokens_in.load(Ordering::SeqCst),
            delivered: st.delivered.load(Ordering::SeqCst),
            faults: st.faults.load(Ordering::SeqCst),
            busy: st.busy.load(Ordering::SeqCst),
            queued: load.queued as u32,
            inflight: load.inflight as u32,
            outstanding: load.outstanding as u32,
        }
    }
}

/// The socket as the frame writer sees it: every call hands its whole
/// buffer — whole frames — over under the write lock, so writers on other
/// threads interleave between frames, never inside one.
impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let _w = self.write.lock().unwrap();
        (&self.sock).write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The one way frames reach a connection's socket: staged, counted per
/// frame, written together.
struct ConnWriter<'a> {
    shared: &'a Shared,
    out: FrameWriter<&'a Conn>,
}

impl ConnWriter<'_> {
    fn stage(&mut self, frame: &Frame) -> Result<(), ServeError> {
        let n = self.out.stage(frame)?;
        self.shared.c_frames_out.inc();
        self.shared.h_frame_out.record(n as u64);
        Ok(())
    }

    /// Writes what is staged and books the bytes the socket took.
    fn finish(mut self) -> Result<(), ServeError> {
        let result = self.out.flush();
        self.shared.c_bytes_out.add(self.out.written as u64);
        Ok(result?)
    }
}

/// A running streaming server. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral loopback port), spawns
    /// the acceptor and the fleet, and returns the running server.
    ///
    /// With a WAL configured, startup first recovers the log: the torn
    /// tail (if any) is truncated, every logged stream is rebuilt at its
    /// last delivered sequence number, and undelivered token tails are
    /// resubmitted through the fleet before the listener opens.
    pub fn start(addr: impl ToSocketAddrs, cfg: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let registry = MetricsRegistry::new();
        let mut wal = None;
        let mut wal_truncated_records = 0;
        let mut rebuilt: Vec<Arc<StreamState>> = Vec::new();
        let mut next_stream: u32 = 0;
        if let Some(wal_cfg) = cfg.wal.clone() {
            let (w, recovery) = Wal::open(wal_cfg)?;
            wal_truncated_records = recovery.truncated_records;
            rebuilt = rebuild_streams(recovery.records, &registry);
            next_stream = rebuilt.iter().map(|st| st.id + 1).max().unwrap_or(0);
            wal = Some(w);
        }

        // Tenancy: build the sharded directory and re-attach every tenant
        // the recovered streams were logged under, with their original
        // ids, so admission and reports line up across the restart. The
        // WAL does not log tenant names; recovered tenants come back
        // under synthetic `recovered-{id}` names with the default policy.
        let tenants = cfg.tenancy.as_ref().map(|t| TenantManager::new(t.shards));
        if let (Some(mgr), Some(tcfg)) = (&tenants, &cfg.tenancy) {
            let mut seen = std::collections::BTreeSet::new();
            for st in &rebuilt {
                if st.tenant != 0 && seen.insert(st.tenant) {
                    let _ = mgr.attach_with_id(
                        TenantId(st.tenant),
                        &format!("recovered-{}", st.tenant),
                        tcfg.default,
                    );
                }
            }
        }

        let shared = Arc::new(Shared {
            fleet: FleetExecutor::new(cfg.fleet.clone()),
            tenants,
            cfg,
            wal,
            wal_frozen: AtomicBool::new(false),
            recovered_streams: AtomicU64::new(rebuilt.len() as u64),
            replayed_tokens: AtomicU64::new(0),
            wal_truncated_records,
            events: EventSink::new(EVENT_CAPACITY),
            epoch: Instant::now(),
            cancel: CancelToken::new(),
            accepting: AtomicBool::new(true),
            next_stream: AtomicU32::new(next_stream),
            streams: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            c_connections: registry.counter("serve.connections"),
            c_streams_opened: registry.counter("serve.streams.opened"),
            c_streams_closed: registry.counter("serve.streams.closed"),
            c_tokens_in: registry.counter("serve.tokens.in"),
            c_outputs: registry.counter("serve.outputs"),
            c_faults: registry.counter("serve.faults"),
            c_busy: registry.counter("serve.busy"),
            c_frames_in: registry.counter("serve.frames.in"),
            c_frames_out: registry.counter("serve.frames.out"),
            c_bytes_in: registry.counter("serve.bytes.in"),
            c_bytes_out: registry.counter("serve.bytes.out"),
            c_protocol_errors: registry.counter("serve.protocol.errors"),
            c_evictions: registry.counter("serve.evictions"),
            c_wal_errors: registry.counter("serve.wal.errors"),
            c_close_waits: registry.counter("serve.close.waits"),
            h_frame_in: registry.histogram("serve.frame.bytes.in"),
            h_frame_out: registry.histogram("serve.frame.bytes.out"),
            h_flush_batch: registry.histogram("serve.flush.batch"),
            h_flush_server_ns: registry.histogram("serve.flush.server_ns"),
            registry,
        });

        // Re-home the recovered streams and resubmit their undelivered
        // tails: each tail becomes an ordinary flush job whose settle
        // logs its outputs back into the WAL. No client is attached
        // (conn == u32::MAX); outputs are logged, not pushed.
        for st in rebuilt {
            shared.event(
                "serve.stream.recovered",
                Some(st.id as usize),
                st.tokens_in.load(Ordering::SeqCst),
            );
            shared
                .streams
                .lock()
                .unwrap()
                .insert(st.id, Arc::clone(&st));
            // Move the tail out instead of cloning it; a rejected tail is
            // restored below, so refusal still loses nothing.
            let batch: Vec<Bytes> = std::mem::take(&mut *st.buffered.lock().unwrap());
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            let spec = build_spec(
                &shared.cfg,
                st.plan(&shared.cfg),
                st.id,
                st.app,
                st.redundancy,
                &batch,
            );
            // No connection: the settle only logs and counts.
            let notify = settle_notifier(&shared, None, &st);
            // Billed before the submission: the settle that balances both
            // counts may run before `submit_with` returns. Queued, not
            // lent — the tails of all recovered streams should overlap.
            st.inflight.fetch_add(1, Ordering::SeqCst);
            if let Some(mgr) = &shared.tenants {
                // Recovery resubmission bypasses quota and rate checks —
                // the tokens were already admitted (and made durable) in
                // the previous life.
                mgr.admit_replay(TenantId(st.tenant));
            }
            if let Admission::Admitted(_) = shared.fleet.submit_with(spec, Some(notify)) {
                shared.replayed_tokens.fetch_add(n, Ordering::SeqCst);
                shared.event("serve.stream.replayed", Some(st.id as usize), n);
            } else {
                // A rejected tail stays buffered and is reported
                // undelivered.
                st.inflight.fetch_sub(1, Ordering::SeqCst);
                if let Some(mgr) = &shared.tenants {
                    mgr.cancel_replay(TenantId(st.tenant));
                }
                restore_front(&st, batch);
            }
        }

        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))
            .map_err(ServeError::Io)?;

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            addr,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fleet executor behind the server (live load inspection).
    pub fn fleet(&self) -> &FleetExecutor {
        &self.shared.fleet
    }

    /// The server's metrics registry (connection/stream/frame counters,
    /// frame-size histograms).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// The tenant directory, when the server runs with
    /// [`ServerConfig::tenancy`].
    pub fn tenants(&self) -> Option<&TenantManager> {
        self.shared.tenants.as_ref()
    }

    /// Attaches a tenant ahead of its first connection (required for
    /// every tenant when [`TenancyConfig::auto_attach`] is off).
    ///
    /// # Panics
    ///
    /// If the server was started without [`ServerConfig::tenancy`].
    pub fn attach_tenant(&self, name: &str, config: TenantConfig) -> Result<TenantId, AttachError> {
        self.shared
            .tenants
            .as_ref()
            .expect("tenancy not enabled")
            .attach(name, config)
    }

    /// Drains and detaches a tenant at runtime: admission refuses with
    /// `Busy{tenant-draining}` from this instant, in-flight jobs run to
    /// completion, and the call returns the tenant's final report once
    /// the drain empties. Every other tenant is untouched.
    ///
    /// Returns [`TenantError::Unknown`] when the id is not attached (or
    /// tenancy is disabled).
    pub fn detach_tenant(&self, id: TenantId) -> Result<TenantReport, TenantError> {
        let mgr = self
            .shared
            .tenants
            .as_ref()
            .ok_or(TenantError::Unknown(id))?;
        mgr.begin_detach(id)?;
        loop {
            match mgr.finish_detach(id) {
                Ok(()) => break,
                Err(TenantError::StillBusy { .. }) => std::thread::sleep(DRAIN_POLL),
                Err(e) => return Err(e),
            }
        }
        mgr.tenant_report(id).ok_or(TenantError::Unknown(id))
    }

    /// The server lifecycle event log as JSONL.
    pub fn events_jsonl(&self) -> String {
        rtft_obs::export::events_to_jsonl(&self.shared.events)
    }

    /// Stops accepting new streams and new flushes: `OpenStream` and
    /// `Flush` answer `Busy{shutting-down}` from here on. Already-admitted
    /// jobs keep running and their outputs keep flowing.
    pub fn begin_shutdown(&self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.event("serve.shutdown.begin", None, 0);
    }

    /// Graceful drain: refuses new work, waits for every admitted flush to
    /// settle (all notifiers fire — every accepted token is delivered or
    /// reported), then stops the acceptor and readers and returns the
    /// final report. The serve registry is folded into the fleet
    /// supervisor's registry, so the report's fleet view carries both.
    pub fn shutdown(mut self) -> ServeReport {
        self.begin_shutdown();
        // Drain: join a clone so the supervisor stays reachable after.
        let fleet = self.shared.fleet.clone().join();
        if let Some(wal) = self.shared.wal() {
            let _ = wal.sync();
            self.shared.registry.absorb(wal.registry());
        }
        self.shared
            .fleet
            .supervisor()
            .registry()
            .absorb(&self.shared.registry);
        self.stop_threads();
        self.shared.event("serve.shutdown.done", None, 0);

        let mut streams: Vec<StreamAccount> = {
            let guard = self.shared.streams.lock().unwrap();
            guard
                .values()
                .map(|st| {
                    let tokens_in = st.tokens_in.load(Ordering::SeqCst);
                    let delivered = st.delivered.load(Ordering::SeqCst);
                    StreamAccount {
                        id: st.id,
                        tenant: st.tenant,
                        app: st.app.label(),
                        redundancy: st.redundancy,
                        tokens_in,
                        delivered,
                        undelivered: tokens_in.saturating_sub(delivered),
                        rejected: st.rejected.load(Ordering::SeqCst),
                        faults: st.faults.load(Ordering::SeqCst),
                        busy: st.busy.load(Ordering::SeqCst),
                        closed: st.closed.load(Ordering::SeqCst),
                        evicted: st.evicted.load(Ordering::SeqCst),
                    }
                })
                .collect()
        };
        streams.sort_by_key(|s| s.id);
        ServeReport {
            streams,
            connections: self.shared.c_connections.get(),
            frames_in: self.shared.c_frames_in.get(),
            frames_out: self.shared.c_frames_out.get(),
            bytes_in: self.shared.c_bytes_in.get(),
            bytes_out: self.shared.c_bytes_out.get(),
            recovered_streams: self.shared.recovered_streams.load(Ordering::SeqCst),
            replayed_tokens: self.shared.replayed_tokens.load(Ordering::SeqCst),
            wal_truncated_records: self.shared.wal_truncated_records,
            evictions: self.shared.c_evictions.get(),
            tenants: self.shared.tenants.as_ref().map(|m| m.report()),
            fleet,
        }
    }

    /// Crash simulation: kill the server **without** draining. The WAL is
    /// frozen first — anything not yet appended when the drop begins
    /// never reaches the disk, exactly as if the process had died — then
    /// the sockets are torn down and the threads joined. No report; the
    /// truth now lives in the log, and a subsequent [`Server::start`] on
    /// the same WAL directory recovers it.
    pub fn hard_drop(mut self) {
        self.shared.wal_frozen.store(true, Ordering::SeqCst);
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.event("serve.hard_drop", None, 0);
        self.stop_threads();
    }

    /// Cancels, unblocks and joins the readers and the acceptor.
    fn stop_threads(&mut self) {
        // Cancel *before* draining: the acceptor re-checks the token under
        // the `conns` lock before it registers a connection, so whatever
        // it accepted is either in the map drained here or refused there.
        self.shared.cancel.cancel();
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            let _ = conn.sock.shutdown(Shutdown::Both);
        }
        // Readers first: joining them frees their descriptors, so the
        // wake-up connection below finds room even in a full fd table.
        let handlers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.shared.handlers.lock().unwrap());
        for h in handlers {
            let _ = h.join();
        }
        // The acceptor blocks in `accept`: one loopback connection to the
        // bound address wakes it, and it exits on the cancelled token.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(acceptor) = self.acceptor.take() {
            // If even that connect fails, the acceptor is left to exit on
            // the next connection instead of being joined forever.
            if TcpStream::connect(wake).is_ok() {
                let _ = acceptor.join();
            }
        }
    }
}

/// Rebuilds the recovered log's streams: every logged token counts as
/// accepted, `delivered` resumes at the highest logged output sequence,
/// and the undelivered tail goes back into the flush buffer.
fn rebuild_streams(
    records: Vec<(u64, WalRecord)>,
    registry: &MetricsRegistry,
) -> Vec<Arc<StreamState>> {
    fold_log(records)
        .into_iter()
        .map(|(id, mut s)| {
            let tokens_in = s.payloads.len() as u64;
            let logged = s.outputs.iter().map(|(first, d)| first + d.len() as u64);
            let delivered = logged.max().unwrap_or(0).min(tokens_in);
            let tail = s.payloads.split_off(delivered as usize);
            Arc::new(StreamState {
                id,
                conn: u32::MAX,
                tenant: s.tenant,
                app: s.app,
                redundancy: s.redundancy,
                buffered: Mutex::new(tail),
                tokens_in: AtomicU64::new(tokens_in),
                delivered: AtomicU64::new(delivered),
                rejected: AtomicU64::new(0),
                faults: AtomicU64::new(0),
                busy: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                closed: AtomicBool::new(s.closed),
                evicted: AtomicBool::new(false),
                plan: OnceLock::new(),
                app_tokens: app_tokens_counter(registry, s.app),
            })
        })
        .collect()
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let accept_errors = shared.registry.counter("serve.accept.errors");
    let mut next_conn: u32 = 0;
    loop {
        let accepted = listener.accept();
        // Shutdown wakes a blocked `accept` with a connection of its own.
        if shared.cancel.is_cancelled() {
            return;
        }
        // Handlers that already exited have nothing left to join.
        shared.handlers.lock().unwrap().retain(|h| !h.is_finished());
        let sock = match accepted {
            Ok((sock, _)) => {
                // A settle is one small write the client is blocked on:
                // it must not wait out Nagle and the peer's delayed ACK.
                sock.set_nodelay(true).ok();
                sock
            }
            Err(_) => {
                // `EMFILE`, `ECONNABORTED`, …: the listener itself is
                // fine and the next call may succeed. Keep accepting —
                // only cancellation ends this loop.
                accept_errors.inc();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let conn = Arc::new(Conn {
            id: next_conn,
            sock,
            write: Mutex::new(()),
            settled_ns: AtomicU64::new(0),
        });
        next_conn += 1;
        // Register and spawn under the `conns` lock, after re-checking the
        // token (see `Server::stop_threads`): once shutdown has drained
        // the map, no connection and no handler can appear behind it.
        let mut conns = shared.conns.lock().unwrap();
        if shared.cancel.is_cancelled() {
            return;
        }
        shared.c_connections.inc();
        shared.event("serve.conn.opened", Some(conn.id as usize), 0);
        let conn_shared = Arc::clone(&shared);
        let handler_conn = Arc::clone(&conn);
        let handle = std::thread::Builder::new()
            .name(format!("serve-conn-{}", conn.id))
            .spawn(move || {
                handle_connection(&conn_shared, &handler_conn);
                // The connection is over: drop it from the shutdown map
                // instead of holding its descriptor until the server
                // stops.
                conn_shared.conns.lock().unwrap().remove(&handler_conn.id);
                conn_shared.event("serve.conn.closed", Some(handler_conn.id as usize), 0);
            });
        // A failed spawn drops the socket with the closure.
        if let Ok(handle) = handle {
            conns.insert(conn.id, conn);
            shared.handlers.lock().unwrap().push(handle);
        }
    }
}

/// Runs one connection's read loop to completion. Any protocol violation
/// or I/O failure ends the connection; buffered stream state survives (it
/// is reported as undelivered at shutdown).
fn handle_connection(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    match drive_connection(shared, conn) {
        Ok(()) | Err(ServeError::ConnectionClosed) => {}
        Err(ServeError::Protocol(_)) => {
            shared.c_protocol_errors.inc();
            shared.event("serve.protocol.error", Some(conn.id as usize), 0);
        }
        Err(ServeError::Evicted(reason)) => evict_connection(shared, conn.id, reason),
        Err(_) => {}
    }
    // Actively shut the connection down: a settle notifier still holding
    // the `Conn` would otherwise keep the TCP stream open (and the peer
    // blocked) after this handler exits.
    let _ = conn.sock.shutdown(Shutdown::Both);
}

fn drive_connection(shared: &Arc<Shared>, conn: &Arc<Conn>) -> Result<(), ServeError> {
    // First frame must be a version-matched Hello. Under tenancy, its
    // `client` string names the tenant every stream on this connection
    // belongs to.
    let tenant: Option<TenantId> = match next_frame(shared, conn)? {
        Frame::Hello { version, client } if version == PROTOCOL_VERSION => {
            let tenant = match &shared.tenants {
                Some(mgr) => Some(resolve_tenant(shared, mgr, &client)?),
                None => None,
            };
            shared.send(conn, &Frame::Accepted { id: conn.id })?;
            tenant
        }
        Frame::Hello { version, .. } => {
            return Err(ProtocolError::VersionMismatch {
                offered: version,
                supported: PROTOCOL_VERSION,
            }
            .into());
        }
        other => {
            return Err(ProtocolError::UnexpectedFrame {
                expected: "Hello",
                got: other.name(),
            }
            .into());
        }
    };

    loop {
        match next_frame(shared, conn)? {
            Frame::OpenStream { app, redundancy } => {
                handle_open(shared, conn, tenant, app, redundancy)?
            }
            Frame::Tokens { stream, payloads } => {
                let st = lookup(shared, conn.id, stream)?;
                handle_tokens(shared, conn, &st, payloads)?;
            }
            Frame::Flush { stream } => {
                let st = lookup(shared, conn.id, stream)?;
                handle_flush(shared, conn, &st)?;
            }
            Frame::Close { stream } => {
                let st = lookup(shared, conn.id, stream)?;
                handle_close(shared, conn, &st)?;
            }
            other => {
                return Err(ProtocolError::UnexpectedFrame {
                    expected: "OpenStream|Tokens|Flush|Close",
                    got: other.name(),
                }
                .into());
            }
        }
    }
}

/// Reads the connection's next frame into a buffer of its own; a `Tokens`
/// frame's payloads are ranges of it. Without read deadlines the socket
/// fills the buffer directly; through a [`DeadlineReader`] std zero-fills
/// it once first.
fn next_frame(shared: &Shared, conn: &Conn) -> Result<Frame, ServeError> {
    let cfg = &shared.cfg;
    let body = if cfg.read_timeout.is_none() && cfg.max_idle.is_none() {
        read_body(&mut &conn.sock, cfg.max_frame)?
    } else {
        let mut reader = DeadlineReader {
            shared,
            conn,
            started: false,
            deadline: cfg.max_idle.map(|limit| Instant::now() + limit),
            expired: None,
        };
        read_body(&mut reader, cfg.max_frame)
            .map_err(|e| reader.expired.map_or(e, ServeError::Evicted))?
    };
    let n = 4 + body.len() as u64;
    let frame = Frame::decode(body)?;
    shared.c_frames_in.inc();
    shared.c_bytes_in.add(n);
    shared.h_frame_in.record(n);
    Ok(frame)
}

/// `true` while any stream of `conn_id` has an admitted, unsettled flush
/// — the connection is waiting on the server, not the other way round.
fn conn_has_inflight(shared: &Shared, conn_id: u32) -> bool {
    shared
        .streams
        .lock()
        .unwrap()
        .values()
        .any(|st| st.conn == conn_id && st.inflight.load(Ordering::SeqCst) > 0)
}

/// One frame's worth of reads from a connection's socket, under
/// [`ServerConfig::read_timeout`] / [`ServerConfig::max_idle`] (at least
/// one of them is set).
///
/// The idle deadline applies only before the frame's first byte; once a
/// frame has started, the *whole frame* must complete within
/// `read_timeout` regardless of inter-byte pacing — a slow-loris writer
/// trickling bytes cannot reset it. Each `read` blocks for exactly what
/// the applicable deadline has left, so an eviction is neither early nor
/// late and a waiting reader never wakes to look at a clock.
///
/// A violation is only ever a read that *timed out* — never a deadline
/// found spent before reading: a handler descheduled between a frame's
/// length prefix and its body must still find the bytes that were waiting
/// in the socket buffer all along. After a violation the connection ends,
/// so `read_exact` losing its position on the error is harmless.
struct DeadlineReader<'a> {
    shared: &'a Shared,
    conn: &'a Conn,
    /// A byte of this frame has arrived: `deadline` is the whole-frame
    /// one, not the idle one.
    started: bool,
    /// When the applicable wait runs out (`None`: wait forever).
    deadline: Option<Instant>,
    /// The deadline a read timed out on.
    expired: Option<EvictReason>,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use io::ErrorKind::{TimedOut, WouldBlock};
        let cfg = &self.shared.cfg;
        let mut sock = &self.conn.sock;
        loop {
            // A spent deadline still gets one (1 µs) read: zero is an
            // error in std, and bytes already buffered must win.
            let left = self.deadline.map(|at| {
                at.saturating_duration_since(Instant::now())
                    .max(Duration::from_micros(1))
            });
            sock.set_read_timeout(left)?;
            let timed_out = match sock.read(buf) {
                Ok(n) => {
                    if n > 0 && !self.started {
                        self.started = true;
                        self.deadline = cfg.read_timeout.map(|limit| Instant::now() + limit);
                    }
                    return Ok(n);
                }
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => e,
                Err(e) => return Err(e),
            };
            if self.started {
                self.expired = Some(EvictReason::Stalled);
                return Err(timed_out);
            }
            // Only the idle deadline can time a read out before a frame
            // has started.
            let Some(limit) = cfg.max_idle else {
                return Err(timed_out);
            };
            // A client silently waiting for its own flush to settle is
            // not idle: the window restarts now while one is in flight,
            // else where the last one settled.
            let idle_from = if conn_has_inflight(self.shared, self.conn.id) {
                Instant::now()
            } else {
                let settled = self.conn.settled_ns.load(Ordering::SeqCst);
                self.shared.epoch + Duration::from_nanos(settled)
            };
            if idle_from + limit <= Instant::now() {
                self.expired = Some(EvictReason::Idle);
                return Err(timed_out);
            }
            self.deadline = Some(idle_from + limit);
        }
    }
}

/// Closes the books on a connection the server is ejecting for a read
/// deadline violation. Lossless by construction: evicted streams keep
/// every accepted token (reported `undelivered` at shutdown) and only
/// the tenant's queue quota for still-buffered tokens is released — they
/// will never flush, exactly as in [`handle_close`].
fn evict_connection(shared: &Arc<Shared>, conn_id: u32, reason: EvictReason) {
    shared.c_evictions.inc();
    shared
        .registry
        .counter_named(format!("serve.evictions.{}", reason.label()))
        .inc();
    shared.event(
        match reason {
            EvictReason::Idle => "serve.conn.evicted.idle",
            EvictReason::Stalled => "serve.conn.evicted.stalled",
        },
        Some(conn_id as usize),
        0,
    );
    let streams: Vec<Arc<StreamState>> = shared
        .streams
        .lock()
        .unwrap()
        .values()
        .filter(|st| st.conn == conn_id && !st.closed.load(Ordering::SeqCst))
        .map(Arc::clone)
        .collect();
    for st in streams {
        st.evicted.store(true, Ordering::SeqCst);
        shared.event(
            "serve.stream.evicted",
            Some(st.id as usize),
            st.tokens_in.load(Ordering::SeqCst),
        );
        if let Some(mgr) = &shared.tenants {
            let leftover = st.buffered.lock().unwrap().len() as u64;
            mgr.release_buffered(TenantId(st.tenant), leftover);
        }
    }
}

/// Maps a `Hello` client name onto a tenant id: the attached tenant of
/// that name, or a fresh auto-attached one when policy allows.
fn resolve_tenant(
    shared: &Shared,
    mgr: &TenantManager,
    client: &str,
) -> Result<TenantId, ServeError> {
    if let Some(id) = mgr.resolve(client) {
        return Ok(id);
    }
    let tcfg = shared
        .cfg
        .tenancy
        .as_ref()
        .expect("a manager implies a tenancy config");
    if !tcfg.auto_attach {
        return Err(ProtocolError::BadPayload("unknown tenant").into());
    }
    match mgr.attach(client, tcfg.default) {
        Ok(id) => Ok(id),
        // Two connections raced the first attach of this name: one won,
        // the other adopts the winner's tenant.
        Err(AttachError::NameTaken(id)) | Err(AttachError::IdTaken(id)) => Ok(id),
    }
}

fn lookup(shared: &Shared, conn_id: u32, stream: u32) -> Result<Arc<StreamState>, ServeError> {
    let guard = shared.streams.lock().unwrap();
    match guard.get(&stream) {
        Some(st) if st.conn == conn_id => Ok(Arc::clone(st)),
        Some(_) => Err(ProtocolError::BadPayload("stream belongs to another connection").into()),
        None => Err(ProtocolError::BadPayload("unknown stream id").into()),
    }
}

fn handle_open(
    shared: &Arc<Shared>,
    conn: &Conn,
    tenant: Option<TenantId>,
    app: u8,
    redundancy: u8,
) -> Result<(), ServeError> {
    if !shared.accepting.load(Ordering::SeqCst) {
        let load = shared.fleet.load();
        shared.c_busy.inc();
        shared.send(
            conn,
            &Frame::Busy {
                stream: u32::MAX,
                reason: BusyReason::ShuttingDown,
                pending: load.outstanding as u32,
                capacity: load.capacity as u32,
            },
        )?;
        return Ok(());
    }
    // A tenant that began draining after the handshake refuses new
    // streams — retryable (the name can re-attach), so Busy, not error.
    if let (Some(mgr), Some(tid)) = (&shared.tenants, tenant) {
        let active = mgr
            .get(tid)
            .is_some_and(|t| t.state() == TenantState::Active);
        if !active {
            shared.c_busy.inc();
            shared.send(
                conn,
                &Frame::Busy {
                    stream: u32::MAX,
                    reason: BusyReason::TenantDraining,
                    pending: 0,
                    capacity: 0,
                },
            )?;
            return Ok(());
        }
    }
    let app = *App::ALL
        .get(app as usize)
        .ok_or(ProtocolError::BadPayload("app index out of range"))?;
    if redundancy_from_byte(redundancy).is_none() {
        return Err(
            ProtocolError::BadPayload("redundancy must be 2, 3, or a hetero stride byte").into(),
        );
    }
    let id = shared.next_stream.fetch_add(1, Ordering::SeqCst);
    let tenant_id = tenant.map_or(0, |t| t.0);
    let st = Arc::new(StreamState {
        id,
        conn: conn.id,
        tenant: tenant_id,
        app,
        redundancy,
        buffered: Mutex::new(Vec::new()),
        tokens_in: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        faults: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        evicted: AtomicBool::new(false),
        plan: OnceLock::new(),
        app_tokens: app_tokens_counter(&shared.registry, app),
    });
    // Log the open before acknowledging it, so a crash right after the
    // client saw `Accepted` still recovers the stream's existence.
    if let Some(wal) = shared.wal() {
        let app_index = App::ALL.iter().position(|a| *a == app).unwrap_or(0) as u8;
        wal.append(&WalRecord::StreamOpen {
            stream: id,
            tenant: tenant_id,
            app: app_index,
            redundancy,
        })?;
    }
    if let (Some(mgr), Some(tid)) = (&shared.tenants, tenant) {
        mgr.on_stream_opened(tid, id as u64);
    }
    shared.streams.lock().unwrap().insert(id, st);
    shared.c_streams_opened.inc();
    shared.event("serve.stream.opened", Some(id as usize), redundancy as u64);
    shared.send(conn, &Frame::Accepted { id })
}

/// Puts a taken-but-refused batch back at the *front* of the stream's
/// buffer: tokens that raced in while the submission was being refused
/// arrived later and must stay behind it. Cheap — the entries are
/// [`Bytes`] handles, no payload bytes move.
fn restore_front(st: &StreamState, batch: Vec<Bytes>) {
    let mut buf = st.buffered.lock().unwrap();
    let tail = std::mem::replace(&mut *buf, batch);
    buf.extend(tail);
}

fn handle_tokens(
    shared: &Shared,
    conn: &Conn,
    st: &StreamState,
    payloads: Vec<Bytes>,
) -> Result<(), ServeError> {
    let n = payloads.len() as u64;
    // Tenancy gates acceptance *before* anything is billed or buffered:
    // a refused batch was never accepted — the client still holds it, it
    // is absent from `tokens_in`, and it counts under `rejected`.
    if let Some(mgr) = &shared.tenants {
        if let Err(reject) = mgr.admit_tokens(TenantId(st.tenant), n) {
            st.rejected.fetch_add(n, Ordering::SeqCst);
            return refuse(shared, conn, st, reject);
        }
    }
    st.tokens_in.fetch_add(n, Ordering::SeqCst);
    shared.c_tokens_in.add(n);
    st.app_tokens.add(n);
    if let Some(wal) = shared.wal() {
        // Log before buffering: a batch only becomes flushable once it
        // is durable, so an Outputs record can never reference tokens
        // the log does not hold. The group-committed append returning is
        // the durability point the `Durable` ack reports. The record
        // borrows the same payload buffers the stream then buffers —
        // nothing is cloned on the way to the log.
        let rec = WalRecord::Tokens {
            stream: st.id,
            payloads,
        };
        let seq = wal.append(&rec)?;
        let WalRecord::Tokens { payloads, .. } = rec else {
            unreachable!("rec constructed as Tokens above");
        };
        st.buffered.lock().unwrap().extend(payloads);
        shared.send(
            conn,
            &Frame::Durable {
                stream: st.id,
                tokens: n as u32,
                seq,
            },
        )?;
    } else {
        st.buffered.lock().unwrap().extend(payloads);
    }
    Ok(())
}

fn handle_flush(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    st: &Arc<StreamState>,
) -> Result<(), ServeError> {
    let started = Instant::now();
    // Move the batch out instead of cloning it under the lock; every
    // refusal path below restores it, so backpressure still loses
    // nothing. Tokens that race in while the submission is in flight
    // append to the (now empty) buffer and sort after the batch.
    let batch: Vec<Bytes> = std::mem::take(&mut *st.buffered.lock().unwrap());
    if batch.is_empty() {
        return shared.send(conn, &shared.stats_frame(st));
    }
    let n = batch.len() as u64;
    if !shared.accepting.load(Ordering::SeqCst) {
        restore_front(st, batch);
        return refuse(shared, conn, st, RejectReason::ShuttingDown.into());
    }
    // Tenant admission (lifecycle, in-flight cap, token rate) runs before
    // the executor ever sees the job. A refusal is lossless: the batch
    // goes back to the buffer and nothing was billed.
    if let Some(mgr) = &shared.tenants {
        if let Err(reject) = mgr.admit_flush(TenantId(st.tenant), n, shared.now_ns()) {
            restore_front(st, batch);
            return refuse(shared, conn, st, reject);
        }
    }
    let plan = st.plan(&shared.cfg);
    // The spec holds its own handles to the batch's buffers; `batch`
    // stays here for a refusal to restore.
    let spec = build_spec(&shared.cfg, plan, st.id, st.app, st.redundancy, &batch);
    let notify = settle_notifier(shared, Some((conn, started)), st);
    // Counted before the submission: the notifier's decrement runs when
    // the job settles, which on an idle fleet is before the call returns.
    st.inflight.fetch_add(1, Ordering::SeqCst);
    // This thread has nothing to do until the settle but wait for it, so
    // it may run the job itself in an idle pool slot; a busy fleet queues
    // it and the read loop goes on ingesting beside the run.
    match shared.fleet.run_or_submit(spec, Some(notify)) {
        Admission::Admitted(_) => {
            shared.h_flush_batch.record(n);
            shared.event("serve.stream.flushed", Some(st.id as usize), n);
            Ok(())
        }
        Admission::Rejected(reason) => {
            // Give the tenant back its in-flight slot, buffered tokens,
            // and rate tokens: executor backpressure must not consume
            // tenant budget. The job never ran: restore its batch.
            st.inflight.fetch_sub(1, Ordering::SeqCst);
            restore_front(st, batch);
            if let Some(mgr) = &shared.tenants {
                mgr.cancel_flush(TenantId(st.tenant), n);
            }
            refuse(shared, conn, st, reason.into())
        }
    }
}

/// Answers an admission refusal with an explicit `Busy` frame —
/// backpressure, not loss: whatever the client already streamed stays
/// buffered, and a refused batch stays in the client's hands.
///
/// The mapping onto the wire vocabulary is 1:1 and lossless; the
/// `pending` / `capacity` pair is reason-scoped (see [`crate::wire`]).
fn refuse(
    shared: &Shared,
    conn: &Conn,
    st: &StreamState,
    reason: TenantReject,
) -> Result<(), ServeError> {
    st.busy.fetch_add(1, Ordering::SeqCst);
    shared.c_busy.inc();
    shared.event("serve.stream.busy", Some(st.id as usize), 0);
    let (reason, pending, capacity) = match reason {
        TenantReject::Fleet(RejectReason::QueueFull { pending, capacity }) => {
            (BusyReason::QueueFull, pending as u32, capacity as u32)
        }
        TenantReject::Fleet(RejectReason::ShuttingDown) => {
            let load = shared.fleet.load();
            (
                BusyReason::ShuttingDown,
                load.outstanding as u32,
                load.capacity as u32,
            )
        }
        TenantReject::Fleet(RejectReason::QuotaExceeded { used, quota }) => (
            BusyReason::QuotaExceeded,
            used.min(u32::MAX as u64) as u32,
            quota.min(u32::MAX as u64) as u32,
        ),
        TenantReject::Fleet(RejectReason::RateLimited { retry_after_ns }) => (
            BusyReason::RateLimited,
            retry_after_ns.div_ceil(1_000_000).min(u32::MAX as u64) as u32,
            0,
        ),
        TenantReject::Draining => (BusyReason::TenantDraining, 0, 0),
    };
    shared.send(
        conn,
        &Frame::Busy {
            stream: st.id,
            reason,
            pending,
            capacity,
        },
    )
}

/// The notifier a flush job settles through: logs and counts the
/// delivered outputs and, when a client is attached, pushes them, every
/// fault latch (with detection latency where the health model knows the
/// injection instant) and the terminal `Stats` — in one socket write.
/// `client` is the connection to push to and the instant its `Flush`
/// frame was decoded; a recovered stream's replayed tail has none: its
/// outputs are logged, not pushed. Runs on whichever thread held the
/// job's pool slot — a pool worker, or the connection's own reader when
/// the fleet lent it the slot ([`FleetExecutor::run_or_submit`]) —
/// *before* the job's outstanding slot is released, so a fleet drain
/// implies every frame below was written.
///
/// The write sits between two events it must not cross, on either
/// thread. After `on_settle`: a client that reads `Stats` and flushes
/// again must find its tenant in-flight slot released. Before the
/// `inflight` decrement: `handle_close` answers its final `Stats` as soon
/// as `inflight` reads 0, and no frame of this settle may trail that one.
/// (On the reader's own thread the second is also program order: it
/// cannot read `Close` before this returns.)
fn settle_notifier(
    shared: &Arc<Shared>,
    client: Option<(&Arc<Conn>, Instant)>,
    st: &Arc<StreamState>,
) -> JobNotifier {
    let shared = Arc::clone(shared);
    let client = client.map(|(conn, started)| (Arc::clone(conn), started));
    let st = Arc::clone(st);
    Arc::new(move |record, result| {
        // Write errors mean the peer is gone; the settle still books.
        let mut out = client.as_ref().map(|(conn, _)| shared.writer(conn));
        let mut push = |frame: &Frame| {
            if let Some(out) = &mut out {
                let _ = out.stage(frame);
            }
        };
        if let Some(result) = result {
            // Write the delivered digests (with their cumulative position)
            // into the log before staging them, so log order stays causal
            // order per stream — but do not wait for the fsync: the
            // record is derived state and rides the next group commit
            // (the next `Tokens`, `StreamOpen` or `StreamClose` of any
            // stream, or the drain). A crash before that commit leaves
            // the batch's durable tokens without an `Outputs`, and
            // recovery re-executes them — it never resumes past a token
            // the log does not show delivered.
            let prev = st
                .delivered
                .fetch_add(result.arrival_log.len() as u64, Ordering::SeqCst);
            if let Some(wal) = shared.wal() {
                let digests: Vec<u64> = result.arrival_log.iter().map(|&(_, d)| d).collect();
                let logged = wal.append_lazy(&WalRecord::Outputs {
                    stream: st.id,
                    first_seq: prev,
                    digests,
                });
                // The tokens are durable, so a log that refuses their
                // outputs (ENOSPC, EIO) costs only the replay cross-check
                // of this batch: count it, say so, and still book and
                // push the settle.
                if logged.is_err() {
                    shared.c_wal_errors.inc();
                    shared.event("serve.wal.error", Some(st.id as usize), 0);
                }
            }
            for (seq, &(at_ns, digest)) in result.arrival_log.iter().enumerate() {
                push(&Frame::Output {
                    stream: st.id,
                    seq: seq as u64,
                    at_ns,
                    digest,
                });
            }
            shared.c_outputs.add(result.arrival_log.len() as u64);
            for &replica in &record.faulty_replicas {
                st.faults.fetch_add(1, Ordering::SeqCst);
                shared.c_faults.inc();
                if client.is_none() {
                    continue;
                }
                let rh = result.health.replica(replica).unwrap_or_default();
                let latency = match (rh.first_detected_at_ns, rh.fault_injected_at_ns) {
                    (Some(d), Some(i)) => d.saturating_sub(i),
                    _ => 0,
                };
                shared.event("serve.stream.fault", Some(st.id as usize), replica as u64);
                push(&Frame::Fault {
                    stream: st.id,
                    replica: replica as u32,
                    kind: site_kind(rh.first_site),
                    detection_latency_ns: latency,
                });
            }
        }
        if let Some(mgr) = &shared.tenants {
            mgr.on_settle(TenantId(st.tenant), record, result);
        }
        if let (Some(mut out), Some((conn, started))) = (out, &client) {
            conn.settled_ns.store(shared.now_ns(), Ordering::SeqCst);
            let _ = out.stage(&shared.stats_frame(&st));
            let _ = out.finish();
            shared
                .h_flush_server_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        st.inflight.fetch_sub(1, Ordering::SeqCst);
    })
}

fn handle_close(shared: &Shared, conn: &Conn, st: &StreamState) -> Result<(), ServeError> {
    // Drain this stream's in-flight flushes so the final Stats accounts
    // for every admitted token.
    while st.inflight.load(Ordering::SeqCst) > 0 && !shared.cancel.is_cancelled() {
        shared.c_close_waits.inc();
        std::thread::sleep(DRAIN_POLL);
    }
    st.closed.store(true, Ordering::SeqCst);
    // Tokens still buffered at close will never flush; give their queue
    // quota back to the tenant (they stay in the stream's books as
    // accepted-but-undelivered).
    if let Some(mgr) = &shared.tenants {
        let leftover = st.buffered.lock().unwrap().len() as u64;
        mgr.release_buffered(TenantId(st.tenant), leftover);
    }
    if let Some(wal) = shared.wal() {
        wal.append(&WalRecord::StreamClose { stream: st.id })?;
    }
    shared.c_streams_closed.inc();
    shared.event("serve.stream.closed", Some(st.id as usize), 0);
    shared.send(conn, &shared.stats_frame(st))
}

/// The §3.4 step, run once per stream: sizes the structure that protects
/// `app` under the stream's redundancy byte and arms the server-side
/// fault injections aimed at `stream`. The paper derives thresholds and
/// FIFO capacities offline; a stream's model, redundancy and seed never
/// change, so neither does this plan.
///
/// Deterministic in `(cfg.seed, cfg.inject, stream, app, redundancy)` and
/// carries nothing from batch to batch — `replay_verify` prepares the
/// same plan from the log and rebuilds bit-for-bit the jobs the live
/// server ran.
pub(crate) fn prepare_plan(
    cfg: &ServerConfig,
    stream: u32,
    app: App,
    redundancy: u8,
) -> JobTemplate {
    let seed = cfg
        .seed
        .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan = JobTemplate::for_model(
        &app.profile().model,
        structure_of(redundancy),
        seed,
        0,
        Arc::new(|_| Payload::Empty),
    );
    for inj in cfg.inject.iter().filter(|inj| inj.stream == stream) {
        // An injection naming a replica the structure lacks is ignored.
        if inj.replica < plan.replica_count() {
            plan = plan.with_fault(inj.replica, FaultPlan::fail_stop_at(inj.at));
        }
    }
    plan
}

/// Only `OpenStream` validates the byte; a logged byte that names no
/// structure has always recovered as tri-voting.
fn structure_of(redundancy: u8) -> Redundancy {
    redundancy_from_byte(redundancy).unwrap_or(Redundancy::TriVoting)
}

/// Builds the fleet job for one flush batch: the stream's prepared `plan`
/// ([`prepare_plan`]) fed by the client's actual payload bytes.
pub(crate) fn build_spec(
    cfg: &ServerConfig,
    plan: &JobTemplate,
    stream: u32,
    app: App,
    redundancy: u8,
    batch: &[Bytes],
) -> JobSpec {
    let n = batch.len() as u64;
    // A live batch arrives hashed (`Bytes::share_ranges`), so this
    // only reads memos; a logged batch being replayed is hashed here, in
    // lanes, before the engine asks for its first digest.
    Bytes::digest_all(batch);
    // A `Bytes` clone is a handle: the job shares the ingested buffers
    // (and the one digest each will be asked for), no payload bytes are
    // copied into the spec.
    let payloads: Vec<Payload> = batch.iter().map(|b| Payload::from(b.clone())).collect();
    let payload: PayloadGenerator =
        Arc::new(move |i| payloads[(i as usize) % payloads.len()].clone());

    // Sampled-divergence detection latency grows linearly in the stride,
    // so hetero streams get `8·k` periods of extra virtual-time headroom
    // (the chaos campaigns stretch the stream instead); plain replica
    // counts keep the recipe's horizon exactly.
    let horizon_slack = match structure_of(redundancy) {
        Redundancy::Hetero { k } => 8 * k,
        Redundancy::Duplicated | Redundancy::TriVoting => 0,
    };
    let runtime = match cfg.runtime {
        ServeRuntime::DiscreteEvent => JobRuntime::DiscreteEvent {
            horizon: des_horizon(&app.profile().model, n + horizon_slack),
        },
        ServeRuntime::Threaded { deadline } => JobRuntime::Threaded { deadline },
    };

    JobSpec {
        name: format!("serve/{}/{}", app.label(), stream),
        template: plan.with_batch(n, payload),
        relative_deadline: Duration::from_secs(120),
        runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{digest_of, workload};
    use rtft_fleet::execute_spec;

    /// The pinned cells' server configuration: one fail-stop on replica 1
    /// of stream 3, ten periods in.
    fn pin_cfg(app: App) -> ServerConfig {
        ServerConfig {
            seed: 0x5EED,
            inject: vec![FaultInjection {
                stream: 3,
                replica: 1,
                at: app.profile().model.producer.period * 10,
            }],
            ..ServerConfig::default()
        }
    }

    fn seeded_batch(app: App, tokens: usize) -> Vec<Bytes> {
        workload(app, 7, tokens)
            .into_iter()
            .map(Bytes::from)
            .collect()
    }

    /// Everything a flush pushes back to its client, as text: the
    /// `Output` frames' `(at_ns, digest)` log, the latched replicas and
    /// each replica's `(injected, first detected)` instants. Built as the
    /// server builds it: `plan` prepared for stream 3, the batch attached.
    fn flush_transcript(plan: &JobTemplate, redundancy: u8, app: App, batch: &[Bytes]) -> String {
        let r = execute_spec(&build_spec(&pin_cfg(app), plan, 3, app, redundancy, batch));
        // `Some` keeps the text of the cells pinned when only some
        // structures had a health model.
        let health: Option<Vec<_>> = Some(
            r.health
                .replicas()
                .iter()
                .map(|rh| (rh.fault_injected_at_ns, rh.first_detected_at_ns))
                .collect(),
        );
        format!(
            "faulty={:?}\nhealth={health:?}\nlog={:?}\n",
            r.faulty_replicas, r.arrival_log
        )
    }

    /// Transcript digests per redundancy byte, per app in `App::ALL`
    /// order: fail-stop on replica 1, DES runtime, 48-token seeded batch.
    const PINNED_TRANSCRIPTS: [(u8, [u64; 3]); 3] = [
        (
            2,
            [
                0x3F80_F1F7_5832_29A3,
                0xCBDE_2DEE_63A3_BF07,
                0xC0DF_7DC3_7304_3999,
            ],
        ),
        (
            3,
            [
                0x38EC_CE7D_8985_56AC,
                0x2E84_CDCC_D8B7_9098,
                0xFDD1_EA09_7869_5B3E,
            ],
        ),
        (
            0x12,
            [
                0x4990_FA90_8A41_AA6A,
                0x1FDB_1EC4_F175_E30C,
                0xFB21_DA58_F5D5_B699,
            ],
        ),
    ];

    /// The serve arm of the structure recipe, pinned per redundancy byte
    /// and app.
    #[test]
    fn flush_transcripts_are_pinned() {
        let got = PINNED_TRANSCRIPTS.map(|(redundancy, _)| {
            (
                redundancy,
                App::ALL.map(|app| {
                    let plan = prepare_plan(&pin_cfg(app), 3, app, redundancy);
                    let transcript =
                        flush_transcript(&plan, redundancy, app, &seeded_batch(app, 48));
                    println!("{redundancy:#x}/{}:\n{transcript}", app.label());
                    digest_of(transcript.as_bytes())
                }),
            )
        });
        assert_eq!(got, PINNED_TRANSCRIPTS, "a flush transcript drifted");
    }

    /// A plan prepared once carries nothing from batch to batch: every
    /// batch run on it reads exactly as on a plan prepared for that batch
    /// alone, whatever ran before and however long it was.
    #[test]
    fn a_prepared_plan_runs_batch_after_batch() {
        for (redundancy, pinned) in PINNED_TRANSCRIPTS {
            for (app, pinned) in App::ALL.into_iter().zip(pinned) {
                let prepare = || prepare_plan(&pin_cfg(app), 3, app, redundancy);
                let plan = prepare();
                let (long, short) = (seeded_batch(app, 48), seeded_batch(app, 16));
                let reused = [&long, &short, &long]
                    .map(|batch| flush_transcript(&plan, redundancy, app, batch));
                let fresh = [&long, &short, &long]
                    .map(|batch| flush_transcript(&prepare(), redundancy, app, batch));
                assert_eq!(reused, fresh, "{redundancy:#x}/{}", app.label());
                assert_eq!(digest_of(reused[0].as_bytes()), pinned);
                assert_ne!(reused[0], reused[1]);
            }
        }
    }

    /// Nanosecond values of the bounds clients assert `Fault` latencies
    /// against: per app in `App::ALL` order, then per stride `k` × app ×
    /// hetero side `[main, checker]`.
    #[test]
    fn detection_bounds_are_pinned() {
        let duplicated = App::ALL.map(|app| detection_bound(app).as_ns());
        let hetero = [1u64, 4, 16, 64]
            .map(|k| App::ALL.map(|app| [0, 1].map(|r| hetero_detection_bound(app, k, r).as_ns())));
        assert_eq!(duplicated, [154_000_000, 39_800_000, 137_200_000]);
        assert_eq!(
            hetero,
            [
                [
                    [124_000_000, 272_000_000],
                    [27_200_000, 80_000_000],
                    [137_200_000, 221_800_000],
                ],
                [
                    [124_000_000, 662_000_000],
                    [27_200_000, 149_300_000],
                    [137_200_000, 721_300_000],
                ],
                [
                    [124_000_000, 2_462_000_000],
                    [27_200_000, 527_300_000],
                    [137_200_000, 2_719_300_000],
                ],
                [
                    [124_000_000, 9_662_000_000],
                    [27_200_000, 2_039_300_000],
                    [137_200_000, 10_711_300_000],
                ],
            ]
        );
    }

    #[test]
    #[should_panic(expected = "replica 7 of a 2-replica structure")]
    fn hetero_detection_bound_rejects_a_side_the_structure_lacks() {
        hetero_detection_bound(App::Adpcm, 4, 7);
    }
}
