//! Observability glue between the arbitration channels and `rtft-obs`.
//!
//! Every replicator and selector detects faults with pure counters and
//! latches an [`ArbFault`](crate::ArbFault) — that part is the paper's
//! contribution and stays untouched. This module adds an *optional*
//! attachment ([`Arbiter::attach_obs`](crate::Arbiter::attach_obs), wired
//! by [`instrument`](crate::instrument) for every structure) that mirrors
//! each latch into an [`rtft_obs::HealthModel`] (per-replica status plus a
//! detection-latency histogram) and bumps a couple of counters. All
//! handles are resolved once at attach time, so the channel hot paths pay
//! a single `Option` branch when observability is off and a few relaxed
//! atomic ops when it is on; no clock is ever consulted — the virtual
//! `now` already flowing through every channel operation is reused as the
//! event timestamp.

use rtft_obs::{Counter, DetectionSite, HealthModel, MetricsRegistry};
use rtft_rtc::TimeNs;

/// Pre-resolved observability handles shared by the replicator and the
/// selector guarding one redundancy structure.
///
/// Cloning is cheap (all fields are `Arc`-backed) and clones feed the
/// same underlying health model and counters, which is exactly what the
/// two channels of one structure need.
#[derive(Debug, Clone)]
pub struct DetectionObs {
    health: HealthModel,
    detections: Counter,
    duplicates_discarded: Counter,
}

impl DetectionObs {
    /// Creates handles against `registry`, folding detections into
    /// `health` (one entry per replica interface). Counters registered:
    /// `core.detections` (latches at either channel) and
    /// `core.selector.discarded` (late duplicates suppressed).
    pub fn new(registry: &MetricsRegistry, health: HealthModel) -> Self {
        DetectionObs {
            health,
            detections: registry.counter("core.detections"),
            duplicates_discarded: registry.counter("core.selector.discarded"),
        }
    }

    /// The shared health model.
    pub fn health(&self) -> &HealthModel {
        &self.health
    }

    pub(crate) fn on_detection(&self, replica: usize, site: DetectionSite, at: TimeNs) {
        self.detections.inc();
        self.health.on_detection(replica, site, at.as_ns());
    }

    pub(crate) fn on_duplicate_discarded(&self) {
        self.duplicates_discarded.inc();
    }
}
