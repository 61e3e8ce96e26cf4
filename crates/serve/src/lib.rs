//! # rtft-serve — streaming ingestion server for the fault-tolerant fleet
//!
//! The paper validates its detection framework on networks whose tokens
//! are generated *inside* the experiment. This crate closes the last gap
//! to a deployable system: real clients stream real payload bytes over
//! TCP into the fleet's fault-tolerant pipelines and get the selector's
//! outputs — and every fault detection, with its latency — pushed back.
//!
//! Everything is `std`-only: `std::net::TcpListener`, OS threads, and the
//! hand-rolled `RTFT/1` length-prefixed binary protocol in [`wire`]. No
//! async runtime, no external crates — the same zero-dependency discipline
//! as the rest of the workspace.
//!
//! * **[`wire`]** — the `RTFT/1` frame grammar: `Hello` / `OpenStream` /
//!   `Tokens` / `Flush` / `Close` from the client; `Accepted` / `Busy` /
//!   `Output` / `Fault` / `Stats` pushed by the server.
//! * **[`Server`]** — accepts connections, buffers token batches per
//!   stream, and turns each `Flush` into one admission-controlled fleet
//!   job (duplicated pair or tri-modular voting group). Saturation is an
//!   explicit `Busy` frame — backpressure, never token loss — and
//!   shutdown drains every admitted job before the sockets close.
//! * **[`Client`]** — the synchronous reference client the integration
//!   tests, CI smoke example and throughput bench drive. With a
//!   [`RetryPolicy`], [`Client::send_flush_with_retry`] turns retryable
//!   `Busy` refusals into bounded exponential backoff (seeded jitter,
//!   `RateLimited` retry-after honored) — and because a refused batch
//!   stays buffered server-side, a retry re-sends only the `Flush` frame.
//! * **Eviction** — with [`ServerConfig::read_timeout`] /
//!   [`ServerConfig::max_idle`] set, stalled (slow-loris) and idle
//!   connections are evicted: the socket closes, the books stay lossless
//!   (buffered tokens are reported `undelivered`, the report counts the
//!   eviction).
//! * **[`ServeReport`]** — deterministic end-of-life accounting: every
//!   accepted token is delivered or reported (`tokens_in == delivered +
//!   undelivered`, per stream).
//! * **Tenancy** — with a tenant directory configured
//!   ([`ServerConfig::tenancy`]), the `Hello` client name becomes a
//!   tenant identity and every batch passes that tenant's quota,
//!   in-flight cap and rate limit *before* it can reach the fleet;
//!   refusals are structured `Busy` codes (`quota-exceeded` /
//!   `rate-limited` / `tenant-draining`), tenants attach and detach at
//!   runtime ([`Server::detach_tenant`] drains losslessly), and the
//!   report gains a shard-count-invariant `tenants` section.
//! * **[`replay`]** — with a write-ahead log configured
//!   ([`ServerConfig::wal`]), accepted batches are group-committed to
//!   disk before the `Durable` ack, a restart rebuilds every stream and
//!   resubmits its undelivered tail, and [`replay_verify`] re-runs the
//!   whole log through the deterministic pipeline, flagging any output
//!   divergence as a detected transient fault in the original run.
//!
//! # Example
//!
//! ```
//! use rtft_apps::networks::App;
//! use rtft_serve::{Client, Server, ServerConfig, workload};
//!
//! let server = Server::start("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.addr(), "doc-test")?;
//! let stream = client.open_stream(App::Adpcm, 2)?.expect_stream();
//! client.send_tokens(stream, &workload(App::Adpcm, 7, 4))?;
//! let run = client.flush(stream)?;
//! assert_eq!(run.outputs.len(), 4); // every token came back, in order
//! client.close(stream)?;
//! let report = server.shutdown();
//! assert!(report.balanced());
//! # Ok::<(), rtft_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod replay;
pub mod report;
pub mod server;
pub mod wire;

pub use client::{
    digest_of, workload, BusyInfo, Client, DurableAck, FaultEvent, FlushOutcome, OpenOutcome,
    OutputEvent, RetriedFlush, RetryPolicy, StreamStats, TokensAck,
};
pub use error::{EvictReason, ProtocolError, ServeError};
pub use replay::{replay_verify, ReplayReport, StreamReplay};
pub use report::{ServeReport, StreamAccount};
pub use server::{
    detection_bound, hetero_detection_bound, FaultInjection, ServeRuntime, Server, ServerConfig,
    TenancyConfig,
};
pub use wire::{
    kind_label, redundancy_byte, redundancy_from_byte, site_kind, BusyReason, Frame,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
// Re-exported so clients can name a structure for `redundancy_byte`
// without naming the fleet crate directly.
pub use rtft_fleet::Redundancy;
// Re-exported so servers can be configured durable without naming the
// log crate directly.
pub use rtft_wal::WalConfig;
// Re-exported so multi-tenant servers can be configured and inspected
// without naming the tenant crate directly.
pub use rtft_tenant::{
    AttachError, TenantConfig, TenantDirectoryReport, TenantError, TenantId, TenantManager,
    TenantReject, TenantReport, TenantState, TokenRate,
};
