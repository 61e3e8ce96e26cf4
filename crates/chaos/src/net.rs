//! Network-dimension chaos: a seeded, fault-injecting load harness over a
//! live [`rtft_serve::Server`].
//!
//! Where [`crate::Campaign`] sweeps the *simulated* fault space, this
//! module attacks the serving stack itself: hundreds of concurrent TCP
//! connections drive real `RTFT/1` traffic while a seeded subset turns
//! hostile — replica faults injected inside flushes, slow-loris writers
//! that trickle a frame one byte at a time, malformed and bit-damaged
//! frames, fragmented (partial) writes, abrupt disconnects that reconnect
//! and resume under the same tenant, and deliberate queue-quota storms
//! that force `Busy` refusals. Every scenario's outcome is classified
//! ([`NetOutcome`]) and checked against the framework's guarantees:
//!
//! * permanent replica faults latch within the analytic
//!   [`detection_bound`] for the stream's app;
//! * stalled writers are **evicted losslessly** — the socket closes but
//!   every accepted token stays in the books as `undelivered`;
//! * malformed frames fail the connection **closed** with accounting
//!   intact;
//! * quota storms are pure backpressure — refused tokens are counted
//!   `rejected`, never silently dropped;
//! * at teardown, `offered == delivered + undelivered + rejected` holds
//!   per stream *and* per tenant, and [`replay_verify`] over the
//!   surviving write-ahead log comes back clean.
//!
//! The harness is deterministic per seed: the scenario schedule, every
//! per-scenario classification, every count in the canonical
//! [`NetChaosReport::to_json`] — including the DES-virtual detection
//! latencies — are byte-identical across runs of the same
//! [`NetChaosConfig`]. Wall-clock measurements (elapsed time, retry
//! sleeps) live on the report struct but are excluded from the canonical
//! JSON. [`soak_net_chaos`] loops seeded waves under a wall-clock budget
//! for minutes-long soaks.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use rtft_apps::networks::App;
use rtft_fleet::FleetConfig;
use rtft_kpn::SplitMix64;
use rtft_obs::json::{array, escape, JsonObject};
use rtft_rtc::TimeNs;
use rtft_serve::wire::{read_frame, write_frame, write_tokens};
use rtft_serve::{
    detection_bound, hetero_detection_bound, redundancy_byte, replay_verify, workload, BusyReason,
    Client, FaultInjection, Frame, ProtocolError, RetryPolicy, ServeError, ServeReport,
    ServeRuntime, Server, ServerConfig, StreamAccount, TenancyConfig, TenantConfig, TokensAck,
    WalConfig, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

use crate::bounds::BoundCheck;
use crate::scenario::Redundancy;

/// Distinct load tenants the well-behaved connections spread across.
const LOAD_TENANTS: u32 = 8;

/// Whole-frame read deadline the server enforces (the slow-loris guard).
/// Generous relative to the partial-write scenario's 100 ms mid-frame
/// pause, so scheduler jitter under hundreds of concurrent threads
/// cannot evict a merely-fragmented (as opposed to stalled) writer.
const READ_TIMEOUT: Duration = Duration::from_secs(1);

/// Idle deadline — generous, so well-behaved connections waiting their
/// turn in a large wave are never evicted.
const MAX_IDLE: Duration = Duration::from_secs(30);

/// Injection instant for the replica-fault scenarios (virtual time,
/// proven in-bound for the MJPEG profile by the serve acceptance test).
const INJECT_AT_MS: u64 = 120;

/// Milliseconds between slow-loris bytes (each gap is under
/// [`READ_TIMEOUT`], so only the whole-frame deadline can catch it).
const TRICKLE_GAP: Duration = Duration::from_millis(60);

/// Bytes a slow-loris writer trickles before listening for the eviction.
const TRICKLE_BYTES: usize = 5;

/// Sampling stride the hetero-fault scenarios open their streams with.
/// Small enough that the sampled-divergence bound fits comfortably
/// inside one flush of [`HETERO_NET_TOKENS`] MJPEG tokens.
const HETERO_NET_STRIDE: u64 = 4;

/// Minimum tokens per flush for a hetero-fault stream: the checker
/// fail-stops at [`INJECT_AT_MS`] and the main stream must keep
/// producing samples long enough for the sampled gap to latch.
const HETERO_NET_TOKENS: usize = 24;

/// The seven network-fault kinds the harness injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// A permanent fail-stop fault injected into replica 1 of every
    /// flush on the stream (server-side [`FaultInjection`]).
    ReplicaFault,
    /// A writer that starts a frame and trickles it one byte at a time —
    /// each inter-byte gap short, the whole frame never completing.
    SlowLoris,
    /// A deliberately invalid frame (unknown tag, trailing bytes,
    /// dishonest token count, or zero length) after valid traffic.
    Malformed,
    /// A valid frame written in two fragments with a pause between them
    /// — must be reassembled, not evicted.
    PartialWrite,
    /// An abrupt socket drop (no `Close`) followed by a reconnect under
    /// the same tenant that resumes streaming on a fresh stream.
    Disconnect,
    /// A tenant sized to overflow its queue quota, forcing a
    /// deterministic `Busy{quota-exceeded}` refusal mid-stream.
    BusyStorm,
    /// A permanent fail-stop fault injected into the *checker* of a
    /// sampled-checker stream (opened with the
    /// `HETERO_NET_STRIDE` redundancy byte) — detection must land
    /// within the k-dependent sampled-divergence bound.
    HeteroFault,
}

impl NetFaultKind {
    /// Every kind, in schedule order.
    pub const ALL: [NetFaultKind; 7] = [
        NetFaultKind::ReplicaFault,
        NetFaultKind::SlowLoris,
        NetFaultKind::Malformed,
        NetFaultKind::PartialWrite,
        NetFaultKind::Disconnect,
        NetFaultKind::BusyStorm,
        NetFaultKind::HeteroFault,
    ];

    /// Stable lowercase label (reports, schedules).
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::ReplicaFault => "replica-fault",
            NetFaultKind::SlowLoris => "slow-loris",
            NetFaultKind::Malformed => "malformed",
            NetFaultKind::PartialWrite => "partial-write",
            NetFaultKind::Disconnect => "disconnect",
            NetFaultKind::BusyStorm => "busy-storm",
            NetFaultKind::HeteroFault => "hetero-fault",
        }
    }
}

/// How a scenario's injected condition resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetOutcome {
    /// Replica fault latched within the analytic detection bound on
    /// every flush.
    DetectedInBound,
    /// Replica fault latched, but at least one latency exceeded the
    /// bound.
    DetectedLate,
    /// The connection was evicted and every accepted token stayed in the
    /// books.
    EvictedLossless,
    /// The malformed frame ended the connection cleanly, accounting
    /// intact.
    FailedClosed,
    /// The reconnected client resumed streaming and lost nothing.
    Resumed,
    /// The quota storm was refused, retried, and fully delivered.
    Backpressured,
    /// Unremarkable: every token offered was delivered.
    Clean,
    /// An invariant broke — the details are in the report's violations.
    Violation,
}

impl NetOutcome {
    /// Every class, in report order.
    pub const ALL: [NetOutcome; 8] = [
        NetOutcome::DetectedInBound,
        NetOutcome::DetectedLate,
        NetOutcome::EvictedLossless,
        NetOutcome::FailedClosed,
        NetOutcome::Resumed,
        NetOutcome::Backpressured,
        NetOutcome::Clean,
        NetOutcome::Violation,
    ];

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            NetOutcome::DetectedInBound => "detected-in-bound",
            NetOutcome::DetectedLate => "detected-late",
            NetOutcome::EvictedLossless => "evicted-lossless",
            NetOutcome::FailedClosed => "failed-closed",
            NetOutcome::Resumed => "resumed",
            NetOutcome::Backpressured => "backpressured",
            NetOutcome::Clean => "clean",
            NetOutcome::Violation => "violation",
        }
    }
}

/// One connection's scripted role in the wave.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Client index — also the stream id its phase-1 open receives
    /// (opens are sequential, so the mapping is exact).
    pub conn: u32,
    /// The injected fault, or `None` for a well-behaved load client.
    pub kind: Option<NetFaultKind>,
    /// Application profile the stream runs.
    pub app: App,
    /// Tenant name the connection's `Hello` carries.
    pub tenant: String,
}

impl NetScenario {
    /// The redundancy byte the stream's phase-1 open carries: the
    /// sampled-checker encoding for hetero-fault scenarios, the
    /// duplicated pair for everyone else.
    pub fn redundancy(&self) -> u8 {
        match self.kind {
            Some(NetFaultKind::HeteroFault) => redundancy_byte(Redundancy::Hetero {
                k: HETERO_NET_STRIDE,
            })
            .expect("stride is a small power of two"),
            _ => 2,
        }
    }
}

/// Harness sizing. Fully scalar, so a soak can derive per-wave seeds.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosConfig {
    /// Base seed: schedule, payloads, jitter, corruption choices.
    pub seed: u64,
    /// Concurrent client connections in the wave.
    pub connections: u32,
    /// How many of them are hostile (cycling [`NetFaultKind::ALL`]).
    pub hostile: u32,
    /// Tokens per batch.
    pub tokens_per_batch: usize,
    /// Batches each well-behaved client streams.
    pub batches: usize,
    /// Run the server with a write-ahead log and finish with
    /// [`replay_verify`] (the RepTFD-style check).
    pub wal: bool,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 0xDAC14,
            connections: 64,
            hostile: 8,
            tokens_per_batch: 4,
            batches: 2,
            wal: true,
        }
    }
}

/// The deterministic scenario schedule for `cfg`: the first
/// `cfg.hostile` clients cycle through [`NetFaultKind::ALL`], the rest
/// are load clients; apps cycle per index (replica-fault and
/// hetero-fault scenarios pin MJPEG, whose injection recipe is proven
/// in-bound); busy-storm scenarios get dedicated over-quota tenants,
/// everyone else spreads over `LOAD_TENANTS` shared ones.
pub fn generate_net_scenarios(cfg: &NetChaosConfig) -> Vec<NetScenario> {
    (0..cfg.connections)
        .map(|i| {
            let kind =
                (i < cfg.hostile).then(|| NetFaultKind::ALL[i as usize % NetFaultKind::ALL.len()]);
            let app = match kind {
                Some(NetFaultKind::ReplicaFault) | Some(NetFaultKind::HeteroFault) => App::Mjpeg,
                _ => App::ALL[i as usize % App::ALL.len()],
            };
            let tenant = match kind {
                Some(NetFaultKind::BusyStorm) => format!("storm-{i}"),
                _ => format!("load-{}", i % LOAD_TENANTS),
            };
            NetScenario {
                conn: i,
                kind,
                app,
                tenant,
            }
        })
        .collect()
}

/// One scenario's reconciled outcome: the client's view checked against
/// the server's books. Every field below is deterministic per seed
/// (detection latencies are DES virtual time).
#[derive(Debug, Clone)]
pub struct NetScenarioOutcome {
    /// The scenario that ran.
    pub scenario: NetScenario,
    /// Its classification.
    pub class: NetOutcome,
    /// Tokens the client tried to send (accepted + refused).
    pub offered: u64,
    /// Tokens the server accepted (from its stream accounts).
    pub tokens_in: u64,
    /// Tokens delivered back as outputs.
    pub delivered: u64,
    /// Accepted tokens reported undelivered.
    pub undelivered: u64,
    /// Tokens refused at admission — still in the client's hands.
    pub rejected: u64,
    /// Fault latches the client received.
    pub faults: u64,
    /// Detection latencies of those latches (virtual ns, deterministic).
    pub detection_latencies_ns: Vec<u64>,
    /// Flush retries plus forced token refusals (wall-clock-dependent
    /// where fleet backpressure is possible; excluded from the canonical
    /// JSON).
    pub retries: u64,
}

/// What one chaos-net wave produced.
#[derive(Debug)]
pub struct NetChaosReport {
    /// The configuration that ran.
    pub config: NetChaosConfig,
    /// Per-scenario reconciled outcomes, by client index.
    pub outcomes: Vec<NetScenarioOutcome>,
    /// Connections the server evicted (must equal the slow-loris count).
    pub evictions: u64,
    /// Protocol errors the server counted (must equal the malformed
    /// count).
    pub protocol_errors: u64,
    /// `replay_verify` over the surviving WAL came back clean (`true`
    /// when no WAL was configured).
    pub replay_clean: bool,
    /// Every invariant breach, human-readable. Empty on a clean wave.
    pub violations: Vec<String>,
    /// The server's full end-of-life report (stream accounts, tenant
    /// directory, fleet view). Excluded from the canonical JSON — some
    /// of it (reconnect stream ids, wall-clock fleet data) is not
    /// deterministic across runs.
    pub serve: ServeReport,
    /// Wall-clock duration of the wave (excluded from canonical JSON).
    pub elapsed: Duration,
}

impl NetChaosReport {
    /// Scenarios classified as `class`.
    pub fn count(&self, class: NetOutcome) -> u64 {
        self.outcomes.iter().filter(|o| o.class == class).count() as u64
    }

    /// Total tokens the server accepted.
    pub fn accepted_tokens(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tokens_in).sum()
    }

    /// Total tokens delivered back to clients.
    pub fn delivered_tokens(&self) -> u64 {
        self.outcomes.iter().map(|o| o.delivered).sum()
    }

    /// Total tokens refused at admission.
    pub fn rejected_tokens(&self) -> u64 {
        self.outcomes.iter().map(|o| o.rejected).sum()
    }

    /// Every detection latency in the wave (virtual ns).
    pub fn detection_latencies(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .flat_map(|o| o.detection_latencies_ns.iter().copied())
            .collect()
    }

    /// `true` when no invariant broke.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The canonical report: scenario schedule, per-fault
    /// classification, eviction/refusal totals, replay verdict.
    /// **Byte-identical across runs of the same config** — wall-clock
    /// facts (elapsed, retry counts, the raw serve report) are
    /// deliberately absent.
    pub fn to_json(&self) -> String {
        let mut classes = JsonObject::new();
        for class in NetOutcome::ALL {
            classes = classes.u64_field(class.label(), self.count(class));
        }
        let scenarios = array(self.outcomes.iter().map(|o| {
            JsonObject::new()
                .u64_field("conn", o.scenario.conn as u64)
                .str_field("kind", o.scenario.kind.map_or("load", |k| k.label()))
                .str_field("app", o.scenario.app.label())
                .str_field("tenant", &o.scenario.tenant)
                .str_field("class", o.class.label())
                .u64_field("offered", o.offered)
                .u64_field("tokens_in", o.tokens_in)
                .u64_field("delivered", o.delivered)
                .u64_field("undelivered", o.undelivered)
                .u64_field("rejected", o.rejected)
                .u64_field("faults", o.faults)
                .raw_field(
                    "detection_latencies_ns",
                    &array(o.detection_latencies_ns.iter().map(|l| l.to_string())),
                )
                .finish()
        }));
        JsonObject::new()
            .str_field("schema", "rtft-chaos-net-v1")
            .u64_field("seed", self.config.seed)
            .u64_field("connections", self.config.connections as u64)
            .u64_field("hostile", self.config.hostile as u64)
            .u64_field("tokens_per_batch", self.config.tokens_per_batch as u64)
            .u64_field("batches", self.config.batches as u64)
            .bool_field("wal", self.config.wal)
            .raw_field("classes", &classes.finish())
            .raw_field("scenarios", &scenarios)
            .u64_field("evictions", self.evictions)
            .u64_field("protocol_errors", self.protocol_errors)
            .u64_field("accepted", self.accepted_tokens())
            .u64_field("delivered", self.delivered_tokens())
            .u64_field("rejected", self.rejected_tokens())
            .bool_field("replay_clean", self.replay_clean)
            .raw_field(
                "violations",
                &array(self.violations.iter().map(|v| format!("\"{}\"", escape(v)))),
            )
            .finish()
    }
}

/// A minutes-capable soak: seeded waves of [`run_net_chaos`] until the
/// wall-clock budget is spent.
#[derive(Debug)]
pub struct NetSoakReport {
    /// Every wave's report, in order. Wave `i` ran seed
    /// `cfg.seed + i` in its own WAL subdirectory.
    pub waves: Vec<NetChaosReport>,
    /// Total wall-clock time of the soak.
    pub elapsed: Duration,
}

impl NetSoakReport {
    /// Violations across every wave.
    pub fn violations(&self) -> Vec<String> {
        self.waves
            .iter()
            .enumerate()
            .flat_map(|(i, w)| w.violations.iter().map(move |v| format!("wave {i}: {v}")))
            .collect()
    }

    /// `true` when no wave broke an invariant.
    pub fn clean(&self) -> bool {
        self.waves.iter().all(|w| w.clean())
    }
}

/// Runs seeded chaos waves until `budget` wall-clock time is spent (at
/// least one wave always runs). Wave `i` uses `cfg.seed + i` and logs
/// into `dir/wave-{i}`, so every wave's canonical report is itself
/// reproducible in isolation.
pub fn soak_net_chaos(
    cfg: &NetChaosConfig,
    budget: Duration,
    dir: &Path,
) -> Result<NetSoakReport, ServeError> {
    let start = Instant::now();
    let mut waves = Vec::new();
    loop {
        let mut wave_cfg = *cfg;
        wave_cfg.seed = cfg.seed.wrapping_add(waves.len() as u64);
        let wave_dir = dir.join(format!("wave-{}", waves.len()));
        std::fs::create_dir_all(&wave_dir).map_err(ServeError::Io)?;
        waves.push(run_net_chaos(&wave_cfg, &wave_dir)?);
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(NetSoakReport {
        waves,
        elapsed: start.elapsed(),
    })
}

/// What one scenario thread observed, before reconciliation with the
/// server's books.
#[derive(Debug, Default)]
struct ClientView {
    class: Option<NetOutcome>,
    offered: u64,
    accepted: u64,
    delivered_seen: u64,
    rejected: u64,
    retries: u64,
    latencies: Vec<u64>,
    /// Stream opened by a reconnect (disconnect scenarios).
    second_stream: Option<u32>,
    errors: Vec<String>,
}

impl ClientView {
    fn err(&mut self, conn: u32, what: impl std::fmt::Display) {
        self.errors.push(format!("conn {conn}: {what}"));
    }
}

enum Conn {
    Api(Client),
    Raw(TcpStream),
}

/// Runs one full chaos wave: start a hardened server, open every
/// scenario's connection and stream sequentially (stream id == client
/// index), unleash all scripts concurrently, then tear down and check
/// every invariant. Returns the reconciled report; infrastructure
/// failures (bind, handshake) surface as errors, invariant breaches as
/// [`NetChaosReport::violations`].
pub fn run_net_chaos(cfg: &NetChaosConfig, dir: &Path) -> Result<NetChaosReport, ServeError> {
    let started = Instant::now();
    let scenarios = generate_net_scenarios(cfg);
    let inject: Vec<FaultInjection> = scenarios
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                Some(NetFaultKind::ReplicaFault) | Some(NetFaultKind::HeteroFault)
            )
        })
        .map(|s| FaultInjection {
            stream: s.conn,
            replica: 1,
            at: TimeNs::from_ms(INJECT_AT_MS),
        })
        .collect();
    let server_cfg = ServerConfig {
        fleet: FleetConfig {
            workers: rtft_kpn::campaign_workers().clamp(2, 8),
            // Every client keeps at most one flush outstanding, so this
            // never refuses QueueFull — storms exercise quota refusals
            // deterministically instead.
            pending_capacity: cfg.connections as usize * 2 + 16,
            max_replacements: 0,
        },
        runtime: ServeRuntime::DiscreteEvent,
        max_frame: DEFAULT_MAX_FRAME,
        inject,
        seed: cfg.seed,
        wal: cfg.wal.then(|| WalConfig::new(dir).with_fsync(false)),
        tenancy: Some(TenancyConfig::default()),
        read_timeout: Some(READ_TIMEOUT),
        max_idle: Some(MAX_IDLE),
    };
    let server = Server::start("127.0.0.1:0", server_cfg.clone())?;
    let addr = server.addr();

    // Storm tenants are pre-attached with a queue quota of exactly one
    // batch: their second un-flushed batch is refused deterministically.
    for s in &scenarios {
        if s.kind == Some(NetFaultKind::BusyStorm) {
            server
                .attach_tenant(
                    &s.tenant,
                    TenantConfig {
                        queue_quota: cfg.tokens_per_batch as u64,
                        ..TenantConfig::default()
                    },
                )
                .expect("storm tenant names are unique");
        }
    }

    // Phase 1 — sequential connect + open, so stream ids equal client
    // indices and the fault-injection targets (and the canonical report)
    // are deterministic.
    let mut conns: Vec<Conn> = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let raw = matches!(
            s.kind,
            Some(NetFaultKind::SlowLoris)
                | Some(NetFaultKind::Malformed)
                | Some(NetFaultKind::PartialWrite)
        );
        let stream = if raw {
            let mut sock = raw_connect(addr, &s.tenant)?;
            let id = raw_open(&mut sock, s.app)?;
            conns.push(Conn::Raw(sock));
            id
        } else {
            let mut client = Client::connect(addr, &s.tenant)?;
            let id = client.open_stream(s.app, s.redundancy())?.expect_stream();
            conns.push(Conn::Api(client));
            id
        };
        assert_eq!(stream, s.conn, "phase-1 opens are sequential");
    }

    // Phase 2 — every script at once.
    let handles: Vec<_> = scenarios
        .iter()
        .cloned()
        .zip(conns)
        .map(|(s, conn)| {
            let cfg = *cfg;
            std::thread::Builder::new()
                .name(format!("chaos-net-{}", s.conn))
                .spawn(move || drive_scenario(&cfg, addr, &s, conn))
                .expect("spawn scenario thread")
        })
        .collect();
    let views: Vec<ClientView> = handles
        .into_iter()
        .map(|h| h.join().expect("scenario thread panicked"))
        .collect();

    let protocol_errors = server.registry().counter("serve.protocol.errors").get();
    let report = server.shutdown();

    let mut violations: Vec<String> = Vec::new();
    let outcomes = reconcile(cfg, &scenarios, &views, &report, &mut violations);
    check_tenants(&scenarios, &outcomes, &report, &mut violations);

    let slow_loris = scenarios
        .iter()
        .filter(|s| s.kind == Some(NetFaultKind::SlowLoris))
        .count() as u64;
    if report.evictions != slow_loris {
        violations.push(format!(
            "evictions {} != slow-loris scenarios {slow_loris}",
            report.evictions
        ));
    }
    let malformed = scenarios
        .iter()
        .filter(|s| s.kind == Some(NetFaultKind::Malformed))
        .count() as u64;
    if protocol_errors != malformed {
        violations.push(format!(
            "protocol errors {protocol_errors} != malformed scenarios {malformed}"
        ));
    }
    if !report.balanced() {
        violations.push("serve report unbalanced: tokens_in != delivered + undelivered".into());
    }

    let replay_clean = if cfg.wal {
        let verify = replay_verify(dir, &server_cfg)?;
        if !verify.clean() {
            violations.push(format!(
                "replay_verify found {} divergent positions",
                verify.divergent()
            ));
        }
        verify.clean()
    } else {
        true
    };

    Ok(NetChaosReport {
        config: *cfg,
        outcomes,
        evictions: report.evictions,
        protocol_errors,
        replay_clean,
        violations,
        serve: report,
        elapsed: started.elapsed(),
    })
}

/// Folds each scenario's client view together with the server's stream
/// accounts into the reconciled outcome rows, recording every
/// discrepancy as a violation.
fn reconcile(
    cfg: &NetChaosConfig,
    scenarios: &[NetScenario],
    views: &[ClientView],
    report: &ServeReport,
    violations: &mut Vec<String>,
) -> Vec<NetScenarioOutcome> {
    let by_id: std::collections::HashMap<u32, &StreamAccount> =
        report.streams.iter().map(|s| (s.id, s)).collect();
    scenarios
        .iter()
        .zip(views)
        .map(|(s, view)| {
            let conn = s.conn;
            let mut rows: Vec<&StreamAccount> = Vec::new();
            match by_id.get(&conn) {
                Some(row) => rows.push(row),
                None => violations.push(format!("conn {conn}: stream {conn} not in report")),
            }
            if let Some(second) = view.second_stream {
                match by_id.get(&second) {
                    Some(row) => rows.push(row),
                    None => violations.push(format!("conn {conn}: stream {second} not in report")),
                }
            }
            let tokens_in: u64 = rows.iter().map(|r| r.tokens_in).sum();
            let delivered: u64 = rows.iter().map(|r| r.delivered).sum();
            let undelivered: u64 = rows.iter().map(|r| r.undelivered).sum();
            let rejected: u64 = rows.iter().map(|r| r.rejected).sum();
            let faults: u64 = rows.iter().map(|r| r.faults).sum();

            for e in &view.errors {
                violations.push(e.clone());
            }
            // The offered balance: everything the client tried to send
            // is accepted (and then delivered or undelivered) or
            // rejected — nothing vanishes.
            if view.offered != tokens_in + rejected {
                violations.push(format!(
                    "conn {conn}: offered {} != tokens_in {tokens_in} + rejected {rejected}",
                    view.offered
                ));
            }
            if view.accepted != tokens_in {
                violations.push(format!(
                    "conn {conn}: client saw {} accepted, server books {tokens_in}",
                    view.accepted
                ));
            }
            if view.delivered_seen != delivered {
                violations.push(format!(
                    "conn {conn}: client saw {} outputs, server books {delivered}",
                    view.delivered_seen
                ));
            }
            if view.rejected != rejected {
                violations.push(format!(
                    "conn {conn}: client saw {} rejected, server books {rejected}",
                    view.rejected
                ));
            }
            let evicted = rows.iter().any(|r| r.evicted);
            let expect_evicted = s.kind == Some(NetFaultKind::SlowLoris);
            if evicted != expect_evicted {
                violations.push(format!(
                    "conn {conn}: evicted={evicted}, expected {expect_evicted}"
                ));
            }
            let expected_faults = match s.kind {
                Some(NetFaultKind::ReplicaFault) | Some(NetFaultKind::HeteroFault) => {
                    cfg.batches as u64
                }
                _ => 0,
            };
            if faults != expected_faults {
                violations.push(format!(
                    "conn {conn}: {faults} fault latches, expected {expected_faults}"
                ));
            }

            let class = if view.errors.is_empty() && view.offered == tokens_in + rejected {
                view.class.unwrap_or(NetOutcome::Clean)
            } else {
                NetOutcome::Violation
            };
            NetScenarioOutcome {
                scenario: s.clone(),
                class,
                offered: view.offered,
                tokens_in,
                delivered,
                undelivered,
                rejected,
                faults,
                detection_latencies_ns: view.latencies.clone(),
                retries: view.retries,
            }
        })
        .collect()
}

/// The per-tenant half of the balance invariant: grouping the stream
/// accounts by tenant must agree with the tenant directory's own books,
/// and each tenant's offered total must balance.
fn check_tenants(
    scenarios: &[NetScenario],
    outcomes: &[NetScenarioOutcome],
    report: &ServeReport,
    violations: &mut Vec<String>,
) {
    let Some(directory) = &report.tenants else {
        return;
    };
    let mut by_tenant: std::collections::HashMap<u64, (u64, u64, u64, u64)> =
        std::collections::HashMap::new();
    for row in &report.streams {
        let e = by_tenant.entry(row.tenant).or_default();
        e.0 += row.tokens_in;
        e.1 += row.delivered;
        e.2 += row.undelivered;
        e.3 += row.rejected;
    }
    for t in &directory.tenants {
        let (tokens_in, delivered, undelivered, _) =
            by_tenant.get(&t.id).copied().unwrap_or_default();
        if t.tokens_in != tokens_in {
            violations.push(format!(
                "tenant {}: directory tokens_in {} != stream sum {tokens_in}",
                t.id, t.tokens_in
            ));
        }
        if t.delivered != delivered {
            violations.push(format!(
                "tenant {}: directory delivered {} != stream sum {delivered}",
                t.id, t.delivered
            ));
        }
        if tokens_in != delivered + undelivered {
            violations.push(format!(
                "tenant {}: {tokens_in} accepted != {delivered} delivered + {undelivered} undelivered",
                t.id
            ));
        }
    }
    // Offered per tenant (client side) == accepted + rejected per tenant.
    let mut offered: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (s, o) in scenarios.iter().zip(outcomes) {
        *offered.entry(s.tenant.as_str()).or_default() += o.offered;
    }
    let mut booked: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (s, o) in scenarios.iter().zip(outcomes) {
        *booked.entry(s.tenant.as_str()).or_default() += o.tokens_in + o.rejected;
    }
    for (name, off) in offered {
        let b = booked.get(name).copied().unwrap_or(0);
        if off != b {
            violations.push(format!(
                "tenant {name}: offered {off} != accepted+rejected {b}"
            ));
        }
    }
}

/// Dispatches one scenario's script.
fn drive_scenario(
    cfg: &NetChaosConfig,
    addr: SocketAddr,
    s: &NetScenario,
    conn: Conn,
) -> ClientView {
    let mut view = ClientView::default();
    let outcome = match (s.kind, conn) {
        (None, Conn::Api(client)) => drive_load(cfg, s, client, &mut view),
        (Some(NetFaultKind::ReplicaFault), Conn::Api(client))
        | (Some(NetFaultKind::HeteroFault), Conn::Api(client)) => {
            drive_load(cfg, s, client, &mut view)
        }
        (Some(NetFaultKind::BusyStorm), Conn::Api(client)) => {
            drive_storm(cfg, s, client, &mut view)
        }
        (Some(NetFaultKind::Disconnect), Conn::Api(client)) => {
            drive_disconnect(cfg, addr, s, client, &mut view)
        }
        (Some(NetFaultKind::SlowLoris), Conn::Raw(sock)) => {
            drive_slow_loris(cfg, s, sock, &mut view)
        }
        (Some(NetFaultKind::Malformed), Conn::Raw(sock)) => {
            drive_malformed(cfg, s, sock, &mut view)
        }
        (Some(NetFaultKind::PartialWrite), Conn::Raw(sock)) => {
            drive_partial_write(cfg, s, sock, &mut view)
        }
        _ => unreachable!("scenario kind / connection type mismatch"),
    };
    if let Err(e) = outcome {
        view.err(s.conn, format!("script failed: {e}"));
    }
    view
}

/// Batch size for one scenario. Replica-fault streams always carry at
/// least 12 tokens per flush: the MJPEG run must extend past the
/// injection instant plus the detection window, or the fault would
/// never activate inside the flush. Hetero-fault streams need more —
/// the checker only votes every [`HETERO_NET_STRIDE`]-th token, so the
/// sampled gap takes proportionally longer to cross the threshold.
fn batch_tokens(cfg: &NetChaosConfig, s: &NetScenario) -> usize {
    match s.kind {
        Some(NetFaultKind::ReplicaFault) => cfg.tokens_per_batch.max(12),
        Some(NetFaultKind::HeteroFault) => cfg.tokens_per_batch.max(HETERO_NET_TOKENS),
        _ => cfg.tokens_per_batch,
    }
}

/// Seeded payloads for one scenario (deterministic per `(seed, conn)`).
fn batches_for(cfg: &NetChaosConfig, s: &NetScenario, count: usize) -> Vec<Vec<Vec<u8>>> {
    let per = batch_tokens(cfg, s);
    let all = workload(s.app, cfg.seed ^ (0xC0DE + s.conn as u64), count * per);
    all.chunks(per).map(<[_]>::to_vec).collect()
}

fn retry_policy(cfg: &NetChaosConfig, s: &NetScenario) -> RetryPolicy {
    RetryPolicy {
        seed: cfg.seed ^ s.conn as u64,
        ..RetryPolicy::default()
    }
}

/// Sends one batch, using the durable acknowledgement when a WAL is
/// configured; returns `true` if the batch was accepted.
fn send_batch(
    cfg: &NetChaosConfig,
    client: &mut Client,
    stream: u32,
    batch: Vec<Vec<u8>>,
) -> Result<bool, ServeError> {
    if cfg.wal {
        Ok(matches!(
            client.send_tokens_acked(stream, &batch)?,
            TokensAck::Durable(_)
        ))
    } else {
        client.send_tokens(stream, &batch)?;
        Ok(true)
    }
}

/// Well-behaved load, also the replica-fault and hetero-fault scripts
/// (the fault is injected server-side; the client just collects the
/// latches and judges them against the structure's analytic bound).
fn drive_load(
    cfg: &NetChaosConfig,
    s: &NetScenario,
    mut client: Client,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let policy = retry_policy(cfg, s);
    for batch in batches_for(cfg, s, cfg.batches) {
        let n = batch.len() as u64;
        view.offered += n;
        if !send_batch(cfg, &mut client, stream, batch)? {
            view.err(s.conn, "load batch unexpectedly refused");
            continue;
        }
        view.accepted += n;
        let rf = client.send_flush_with_retry(stream, &policy)?;
        view.retries += rf.retries as u64;
        if !rf.outcome.admitted() {
            view.err(s.conn, format!("flush gave up: {:?}", rf.outcome.busy));
        }
        view.delivered_seen += rf.outcome.outputs.len() as u64;
        view.latencies
            .extend(rf.outcome.faults.iter().map(|f| f.detection_latency_ns));
    }
    let fin = client.close(stream)?;
    view.delivered_seen += fin.outputs.len() as u64;
    view.latencies
        .extend(fin.faults.iter().map(|f| f.detection_latency_ns));

    // Wire-side latencies already fold the activation grace in, so both
    // fault kinds share the no-extra-grace [`BoundCheck`]; only the
    // analytic bound differs (duplicated divergence vs. the k-dependent
    // sampled-divergence bound of the checker structure).
    let check = match s.kind {
        Some(NetFaultKind::ReplicaFault) => Some(BoundCheck::wire(detection_bound(s.app))),
        Some(NetFaultKind::HeteroFault) => Some(BoundCheck::wire(hetero_detection_bound(
            s.app,
            HETERO_NET_STRIDE,
            1,
        ))),
        _ => None,
    };
    view.class = Some(match check {
        Some(check) => {
            if view.latencies.len() != cfg.batches {
                view.err(
                    s.conn,
                    format!(
                        "{} fault latches, expected one per flush ({})",
                        view.latencies.len(),
                        cfg.batches
                    ),
                );
                NetOutcome::Violation
            } else if view
                .latencies
                .iter()
                .all(|&l| l > 0 && check.admits_latency(TimeNs::from_ns(l)))
            {
                NetOutcome::DetectedInBound
            } else {
                NetOutcome::DetectedLate
            }
        }
        None => NetOutcome::Clean,
    });
    Ok(())
}

/// Over-quota tenant: the second un-flushed batch is refused
/// (`quota-exceeded`), a flush frees the quota, and the refused batch is
/// re-sent and delivered — backpressure round-trip, zero loss.
fn drive_storm(
    cfg: &NetChaosConfig,
    s: &NetScenario,
    mut client: Client,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let policy = retry_policy(cfg, s);
    let n = cfg.tokens_per_batch as u64;
    let mut batches = batches_for(cfg, s, 2).into_iter();
    let first = batches.next().expect("two batches");
    let second = batches.next().expect("two batches");

    view.offered += n;
    if !send_batch(cfg, &mut client, stream, first)? {
        view.err(s.conn, "first storm batch refused under an empty quota");
    } else {
        view.accepted += n;
    }

    // The deterministic refusal: quota == one batch, one batch buffered.
    view.offered += n;
    let refused = if cfg.wal {
        match client.send_tokens_acked(stream, &second)? {
            TokensAck::Refused(info) => Some(info),
            TokensAck::Durable(_) => None,
        }
    } else {
        client.send_tokens(stream, &second)?;
        Some(client.recv_busy(stream)?)
    };
    match refused {
        Some(info) if info.reason == BusyReason::QuotaExceeded => {
            view.rejected += n;
            view.retries += 1;
        }
        Some(info) => view.err(s.conn, format!("storm refused with {:?}", info.reason)),
        None => view.err(s.conn, "over-quota batch was not refused"),
    }

    // Flush frees the buffered quota; the refused batch then lands.
    for resend in [false, true] {
        if resend {
            view.offered += n;
            if send_batch(cfg, &mut client, stream, second.clone())? {
                view.accepted += n;
            } else {
                view.err(s.conn, "re-sent batch refused after quota freed");
            }
        }
        let rf = client.send_flush_with_retry(stream, &policy)?;
        view.retries += rf.retries as u64;
        if !rf.outcome.admitted() {
            view.err(
                s.conn,
                format!("storm flush gave up: {:?}", rf.outcome.busy),
            );
        }
        view.delivered_seen += rf.outcome.outputs.len() as u64;
    }
    let fin = client.close(stream)?;
    view.delivered_seen += fin.outputs.len() as u64;
    view.class = Some(NetOutcome::Backpressured);
    Ok(())
}

/// Abrupt disconnect (no `Close`), then a reconnect under the same
/// tenant resumes on a fresh stream.
fn drive_disconnect(
    cfg: &NetChaosConfig,
    addr: SocketAddr,
    s: &NetScenario,
    mut client: Client,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let policy = retry_policy(cfg, s);
    let n = cfg.tokens_per_batch as u64;
    let mut batches = batches_for(cfg, s, 2).into_iter();

    view.offered += n;
    if send_batch(
        cfg,
        &mut client,
        stream,
        batches.next().expect("two batches"),
    )? {
        view.accepted += n;
    }
    let rf = client.send_flush_with_retry(stream, &policy)?;
    view.retries += rf.retries as u64;
    view.delivered_seen += rf.outcome.outputs.len() as u64;
    drop(client); // the fault: socket torn down, no Close frame

    let mut client = Client::connect(addr, &s.tenant)?;
    let second = client.open_stream(s.app, 2)?.expect_stream();
    view.second_stream = Some(second);
    view.offered += n;
    if send_batch(
        cfg,
        &mut client,
        second,
        batches.next().expect("two batches"),
    )? {
        view.accepted += n;
    }
    let rf = client.send_flush_with_retry(second, &policy)?;
    view.retries += rf.retries as u64;
    view.delivered_seen += rf.outcome.outputs.len() as u64;
    let fin = client.close(second)?;
    view.delivered_seen += fin.outputs.len() as u64;
    view.class = Some(NetOutcome::Resumed);
    Ok(())
}

/// One accepted batch, then a frame that never completes: a byte every
/// [`TRICKLE_GAP`] until the whole-frame deadline evicts the connection.
fn drive_slow_loris(
    cfg: &NetChaosConfig,
    s: &NetScenario,
    mut sock: TcpStream,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let mut batches = batches_for(cfg, s, 2).into_iter();
    let n = cfg.tokens_per_batch as u64;
    view.offered += n;
    raw_send_tokens(cfg, &mut sock, stream, batches.next().expect("two batches"))?;
    view.accepted += n;

    // Start a valid Tokens frame but never finish it. Each gap is well
    // under the read timeout — only the whole-frame deadline can latch.
    let wire = Frame::Tokens {
        stream,
        payloads: batches
            .next()
            .expect("two batches")
            .into_iter()
            .map(rtft_kpn::Bytes::from)
            .collect(),
    }
    .encode();
    let trickle = TRICKLE_BYTES.min(wire.len() - 1);
    for byte in &wire[..trickle] {
        if sock.write_all(std::slice::from_ref(byte)).is_err() {
            break; // already evicted mid-trickle
        }
        let _ = sock.flush();
        std::thread::sleep(TRICKLE_GAP);
    }
    // The server must close the socket on us, not the other way round.
    sock.set_read_timeout(Some(Duration::from_secs(20)))?;
    match read_frame(&mut sock, DEFAULT_MAX_FRAME) {
        Err(_) => view.class = Some(NetOutcome::EvictedLossless),
        Ok((frame, _)) => view.err(
            s.conn,
            format!("expected eviction, server sent {}", frame.name()),
        ),
    }
    Ok(())
}

/// One accepted batch, then a seeded guaranteed-invalid frame: the
/// connection must fail closed without touching the books.
fn drive_malformed(
    cfg: &NetChaosConfig,
    s: &NetScenario,
    mut sock: TcpStream,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let mut batches = batches_for(cfg, s, 1).into_iter();
    let n = cfg.tokens_per_batch as u64;
    view.offered += n;
    raw_send_tokens(cfg, &mut sock, stream, batches.next().expect("one batch"))?;
    view.accepted += n;

    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ (0xBAD ^ s.conn as u64));
    let junk: Vec<u8> = match rng.next_u64() % 4 {
        0 => {
            // Unknown tag.
            let mut w = Vec::new();
            w.extend_from_slice(&2u32.to_le_bytes());
            w.extend_from_slice(&[0x7F, 0x00]);
            w
        }
        1 => {
            // Valid Flush body with one trailing byte inside the length.
            let wire = Frame::Flush { stream }.encode();
            let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) + 1;
            let mut w = Vec::new();
            w.extend_from_slice(&len.to_le_bytes());
            w.extend_from_slice(&wire[4..]);
            w.push(0x00);
            w
        }
        2 => {
            // Dishonest token count: claims 1000 payloads, carries none.
            let mut w = Vec::new();
            w.extend_from_slice(&9u32.to_le_bytes());
            w.push(0x03);
            w.extend_from_slice(&stream.to_le_bytes());
            w.extend_from_slice(&1000u32.to_le_bytes());
            w
        }
        _ => {
            // Zero-length frame.
            0u32.to_le_bytes().to_vec()
        }
    };
    sock.write_all(&junk)?;
    let _ = sock.flush();
    sock.set_read_timeout(Some(Duration::from_secs(20)))?;
    match read_frame(&mut sock, DEFAULT_MAX_FRAME) {
        Err(_) => view.class = Some(NetOutcome::FailedClosed),
        Ok((frame, _)) => view.err(
            s.conn,
            format!("expected fail-closed, server sent {}", frame.name()),
        ),
    }
    Ok(())
}

/// A valid Tokens frame written in two fragments with a pause between
/// them (shorter than the read timeout): the deadline reader must
/// reassemble it and the batch must deliver in full.
fn drive_partial_write(
    cfg: &NetChaosConfig,
    s: &NetScenario,
    mut sock: TcpStream,
    view: &mut ClientView,
) -> Result<(), ServeError> {
    let stream = s.conn;
    let mut batches = batches_for(cfg, s, 1).into_iter();
    let batch = batches.next().expect("one batch");
    let n = batch.len() as u64;
    view.offered += n;

    let wire = Frame::Tokens {
        stream,
        payloads: batch.into_iter().map(rtft_kpn::Bytes::from).collect(),
    }
    .encode();
    let split = wire.len() / 2;
    sock.write_all(&wire[..split])?;
    sock.flush()?;
    std::thread::sleep(Duration::from_millis(100)); // < READ_TIMEOUT
    sock.write_all(&wire[split..])?;
    sock.flush()?;
    if cfg.wal {
        raw_wait_durable(&mut sock, stream)?;
    }
    view.accepted += n;

    write_frame(&mut sock, &Frame::Flush { stream })?;
    raw_collect(&mut sock, stream, view)?;
    write_frame(&mut sock, &Frame::Close { stream })?;
    raw_collect(&mut sock, stream, view)?;
    view.class = Some(NetOutcome::Clean);
    Ok(())
}

/// Handshakes a raw connection under `tenant`.
fn raw_connect(addr: SocketAddr, tenant: &str) -> Result<TcpStream, ServeError> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true).ok();
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: tenant.to_string(),
        },
    )?;
    match read_frame(&mut sock, DEFAULT_MAX_FRAME)?.0 {
        Frame::Accepted { .. } => Ok(sock),
        other => Err(ProtocolError::UnexpectedFrame {
            expected: "Accepted",
            got: other.name(),
        }
        .into()),
    }
}

/// Opens a duplicated stream on a raw connection.
fn raw_open(sock: &mut TcpStream, app: App) -> Result<u32, ServeError> {
    let app = App::ALL
        .iter()
        .position(|a| *a == app)
        .expect("App::ALL contains every variant") as u8;
    write_frame(sock, &Frame::OpenStream { app, redundancy: 2 })?;
    match read_frame(sock, DEFAULT_MAX_FRAME)?.0 {
        Frame::Accepted { id } => Ok(id),
        other => Err(ProtocolError::UnexpectedFrame {
            expected: "Accepted",
            got: other.name(),
        }
        .into()),
    }
}

/// Sends one Tokens batch raw, waiting for the `Durable` ack when the
/// server runs a WAL.
fn raw_send_tokens(
    cfg: &NetChaosConfig,
    sock: &mut TcpStream,
    stream: u32,
    payloads: Vec<Vec<u8>>,
) -> Result<(), ServeError> {
    write_tokens(sock, stream, &payloads)?;
    if cfg.wal {
        raw_wait_durable(sock, stream)?;
    }
    Ok(())
}

/// Blocks until the `Durable` ack for `stream` (raw connections carry
/// exactly one stream, so nothing else needs requeueing).
fn raw_wait_durable(sock: &mut TcpStream, stream: u32) -> Result<(), ServeError> {
    loop {
        if let Frame::Durable { stream: s, .. } = read_frame(sock, DEFAULT_MAX_FRAME)?.0 {
            if s == stream {
                return Ok(());
            }
        }
    }
}

/// Reads push frames for `stream` into `view` until its terminal `Stats`
/// (or a `Busy`, which is recorded as an error — the raw scripts never
/// expect backpressure).
fn raw_collect(sock: &mut TcpStream, stream: u32, view: &mut ClientView) -> Result<(), ServeError> {
    loop {
        match read_frame(sock, DEFAULT_MAX_FRAME)?.0 {
            Frame::Output { stream: s, .. } if s == stream => view.delivered_seen += 1,
            Frame::Fault {
                stream: s,
                detection_latency_ns,
                ..
            } if s == stream => view.latencies.push(detection_latency_ns),
            Frame::Stats { stream: s, .. } if s == stream => return Ok(()),
            Frame::Busy {
                stream: s, reason, ..
            } if s == stream => {
                view.err(stream, format!("unexpected Busy({reason:?})"));
                return Ok(());
            }
            _ => {}
        }
    }
}
