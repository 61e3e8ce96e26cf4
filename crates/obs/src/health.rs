//! Per-replica health: folding detection events into a status machine.
//!
//! The paper's replicator and selector each detect faults independently
//! (overflow latch, consumption divergence, stall, arrival divergence).
//! This module folds those raw events into one status per replica —
//! `Healthy → Suspected → Faulty` — and records time-to-detection in a
//! histogram so campaigns get detection-latency distributions for free.
//!
//! Severity rules: an **overflow latch** or a **stall** is hard evidence of
//! fail-stop (the queue physically overran / starved) and marks the replica
//! `Faulty` immediately. A **divergence** alone is statistical evidence and
//! marks it `Suspected`; any second event — same site or the peer site —
//! confirms `Faulty`.

use crate::metrics::{Histogram, HistogramSnapshot};
use std::sync::{Arc, Mutex};

/// Health status of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaStatus {
    /// No detection event observed.
    #[default]
    Healthy,
    /// One soft (divergence) detection observed; not yet confirmed.
    Suspected,
    /// Confirmed faulty (hard event, or a second detection).
    Faulty,
}

impl ReplicaStatus {
    /// Stable lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaStatus::Healthy => "healthy",
            ReplicaStatus::Suspected => "suspected",
            ReplicaStatus::Faulty => "faulty",
        }
    }
}

/// Where (and how) a detection fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionSite {
    /// Replicator queue overflow latch (§3.3): hard.
    ReplicatorOverflow,
    /// Replicator consumption divergence: soft.
    ReplicatorDivergence,
    /// Selector stall (virtual space counter exhausted): hard.
    SelectorStall,
    /// Selector arrival divergence: soft.
    SelectorDivergence,
}

impl DetectionSite {
    /// `true` for sites that prove fail-stop on their own.
    fn is_hard(&self) -> bool {
        matches!(
            self,
            DetectionSite::ReplicatorOverflow | DetectionSite::SelectorStall
        )
    }

    /// Stable label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            DetectionSite::ReplicatorOverflow => "replicator.overflow",
            DetectionSite::ReplicatorDivergence => "replicator.divergence",
            DetectionSite::SelectorStall => "selector.stall",
            DetectionSite::SelectorDivergence => "selector.divergence",
        }
    }
}

/// Everything known about one replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaHealth {
    /// Folded status.
    pub status: ReplicaStatus,
    /// When the harness injected a fault, if it told us (ns).
    pub fault_injected_at_ns: Option<u64>,
    /// First detection timestamp (ns).
    pub first_detected_at_ns: Option<u64>,
    /// Site of the first detection.
    pub first_site: Option<DetectionSite>,
    /// Total detection events observed.
    pub detections: u64,
}

/// The health state machine over `n` replicas, plus the detection-latency
/// histogram (`detected_at − injected_at`, in nanoseconds).
///
/// `HealthModel` is a cloneable shared handle (`Arc<Mutex<_>>` inside): the
/// replicator and selector each hold a clone and report events as their
/// state machines latch, so by the end of a run the model has the fused
/// view neither site has alone.
#[derive(Debug, Clone)]
pub struct HealthModel {
    inner: Arc<Mutex<Vec<ReplicaHealth>>>,
    detection_latency: Histogram,
}

impl HealthModel {
    /// A model over `replicas` replicas, all healthy.
    pub fn new(replicas: usize) -> Self {
        HealthModel {
            inner: Arc::new(Mutex::new(vec![ReplicaHealth::default(); replicas])),
            detection_latency: Histogram::new(),
        }
    }

    /// Number of replicas tracked.
    pub fn replica_count(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Tells the model a fault was injected into `replica` at `at_ns`
    /// (virtual or wall ns — whatever clock the detections will use), so
    /// detection latency can be derived.
    pub fn note_fault_injected(&self, replica: usize, at_ns: u64) {
        let mut g = self.inner.lock().unwrap();
        if let Some(r) = g.get_mut(replica) {
            r.fault_injected_at_ns = Some(at_ns);
        }
    }

    /// Reports a detection event on `replica` from `site` at `at_ns`.
    ///
    /// Returns the new status. Out-of-range replicas are ignored (returns
    /// `Healthy`) so instrumentation can never panic the data path.
    pub fn on_detection(&self, replica: usize, site: DetectionSite, at_ns: u64) -> ReplicaStatus {
        let mut g = self.inner.lock().unwrap();
        let Some(r) = g.get_mut(replica) else {
            return ReplicaStatus::Healthy;
        };
        r.detections += 1;
        if r.first_detected_at_ns.is_none() {
            r.first_detected_at_ns = Some(at_ns);
            r.first_site = Some(site);
            if let Some(injected) = r.fault_injected_at_ns {
                self.detection_latency
                    .record(at_ns.saturating_sub(injected));
            }
        }
        r.status = match (r.status, site.is_hard()) {
            (_, true) => ReplicaStatus::Faulty,
            (ReplicaStatus::Healthy, false) => ReplicaStatus::Suspected,
            (ReplicaStatus::Suspected, false) => ReplicaStatus::Faulty,
            (ReplicaStatus::Faulty, false) => ReplicaStatus::Faulty,
        };
        r.status
    }

    /// Current status of `replica` (`Healthy` if out of range).
    pub fn status(&self, replica: usize) -> ReplicaStatus {
        self.inner
            .lock()
            .unwrap()
            .get(replica)
            .map(|r| r.status)
            .unwrap_or_default()
    }

    /// Snapshot of one replica's record.
    pub fn replica(&self, replica: usize) -> Option<ReplicaHealth> {
        self.inner.lock().unwrap().get(replica).copied()
    }

    /// Snapshot of every replica's record.
    pub fn replicas(&self) -> Vec<ReplicaHealth> {
        self.inner.lock().unwrap().clone()
    }

    /// The detection-latency histogram (ns).
    pub fn detection_latency(&self) -> &Histogram {
        &self.detection_latency
    }

    /// Summary stats of the detection-latency distribution.
    pub fn detection_latency_snapshot(&self) -> HistogramSnapshot {
        self.detection_latency.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_event_goes_straight_to_faulty() {
        let h = HealthModel::new(2);
        assert_eq!(h.status(0), ReplicaStatus::Healthy);
        let s = h.on_detection(0, DetectionSite::ReplicatorOverflow, 1_000);
        assert_eq!(s, ReplicaStatus::Faulty);
        assert_eq!(h.status(1), ReplicaStatus::Healthy, "peer untouched");
    }

    #[test]
    fn soft_event_suspects_then_second_confirms() {
        let h = HealthModel::new(2);
        assert_eq!(
            h.on_detection(1, DetectionSite::SelectorDivergence, 5),
            ReplicaStatus::Suspected
        );
        assert_eq!(
            h.on_detection(1, DetectionSite::ReplicatorDivergence, 9),
            ReplicaStatus::Faulty
        );
        let r = h.replica(1).unwrap();
        assert_eq!(r.detections, 2);
        assert_eq!(r.first_site, Some(DetectionSite::SelectorDivergence));
        assert_eq!(r.first_detected_at_ns, Some(5));
    }

    #[test]
    fn detection_latency_measured_from_injection() {
        let h = HealthModel::new(1);
        h.note_fault_injected(0, 3_000_000_000);
        h.on_detection(0, DetectionSite::SelectorStall, 3_250_000_000);
        let snap = h.detection_latency_snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, 250_000_000);
        // Second detection on the same replica does not re-record latency.
        h.on_detection(0, DetectionSite::SelectorDivergence, 4_000_000_000);
        assert_eq!(h.detection_latency_snapshot().count, 1);
    }

    #[test]
    fn out_of_range_replica_is_ignored() {
        let h = HealthModel::new(1);
        assert_eq!(
            h.on_detection(7, DetectionSite::SelectorStall, 1),
            ReplicaStatus::Healthy
        );
        assert_eq!(h.replicas().len(), 1);
    }
}
