//! # rtft-obs — zero-timekeeping observability
//!
//! The observability subsystem of the `rtft` workspace (S15 in DESIGN.md):
//! metrics, bounded event sinks, replica health, and exporters — usable
//! from both the deterministic DES engine (virtual [`TimeNs`]-style
//! nanosecond timestamps) and the threaded runtime (wall-clock
//! nanoseconds), with **no dependencies** and nothing on the hot path
//! heavier than a relaxed atomic.
//!
//! Why "zero-timekeeping": the paper's detection mechanism is counter-only
//! — it never reads a clock at runtime. The instrumentation layer follows
//! the same discipline: counters, gauges and histograms are plain atomics;
//! timestamps only enter through values the runtimes already have (the
//! DES's virtual `now`, the threaded runtime's epoch offset). Disabling
//! observability reduces every instrumented site to one branch.
//!
//! Pieces:
//!
//! * [`MetricsRegistry`] / [`Counter`] / [`Gauge`] / [`Histogram`] —
//!   named atomic metrics; histograms are fixed-layout log₂ buckets with
//!   p50/p90/p99/max queries.
//! * [`Ring`] / [`EventSink`] — bounded event storage with drop counting;
//!   the DES engine records its token flow straight into one.
//! * [`HealthModel`] — folds replicator/selector detection events into
//!   per-replica `Healthy`/`Suspected`/`Faulty` status with a
//!   time-to-detection histogram.
//! * [`export`] — JSONL event dumps, human-readable summaries, and the
//!   [`BenchMetrics`] bundle embedded in bench campaign JSON.
//!
//! [`TimeNs`]: https://docs.rs/rtft-rtc
//!
//! # Example
//!
//! ```
//! use rtft_obs::{DetectionSite, HealthModel, MetricsRegistry};
//!
//! let metrics = MetricsRegistry::new();
//! let reads = metrics.counter("kpn.tokens.read");
//! reads.add(3);
//!
//! let lat = metrics.histogram("detect.latency_ns");
//! lat.record(250_000_000);
//! assert_eq!(lat.snapshot().count, 1);
//!
//! let health = HealthModel::new(2);
//! health.note_fault_injected(0, 3_000_000_000);
//! health.on_detection(0, DetectionSite::ReplicatorOverflow, 3_200_000_000);
//! assert_eq!(health.status(0), rtft_obs::ReplicaStatus::Faulty);
//! println!("{}", rtft_obs::export::summary_report(&metrics, Some(&health)));
//! ```

#![warn(missing_docs)]

pub mod export;
mod health;
pub mod json;
mod metrics;
mod ring;

pub use export::{events_to_jsonl, registry_to_json, summary_report, BenchMetrics};
pub use health::{DetectionSite, HealthModel, ReplicaHealth, ReplicaStatus};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use ring::{ClockDomain, EventRecord, EventSink, Ring};
