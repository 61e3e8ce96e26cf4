//! The redundancy structures as one type: which structure protects a
//! stream ([`Redundancy`]), its §3.4 analysis ([`Sized`], from
//! [`Redundancy::size`]) and its per-replica detection-bound table
//! ([`StructureBounds`], from [`Sized::bounds`]).
//!
//! This is the seed-independent half of the structure recipe: everything
//! here follows from an application's [`DuplicationModel`] and the
//! structure alone. The per-job half — seeds, batch, replica factory,
//! fault plans — is `rtft-fleet`'s `JobTemplate::for_model`.

use crate::hetero::{HeteroModel, HeteroSizingReport};
use crate::nmodular::{NModularModel, NSizingReport};
use rtft_rtc::detection::{DetectionBounds, HeteroBounds};
use rtft_rtc::sizing::{DuplicationModel, SizingReport};
use rtft_rtc::{PjdModel, TimeNs};

/// The replica compute stage's service time is the producer period divided
/// by this. A `SlowBy(f)` fault therefore degrades the replica's *output*
/// period by `f / SERVICE_DIVISOR` once `f` exceeds the divisor (below
/// that, the downstream shaper hides the slack and the fault is
/// analytically undetectable).
pub const SERVICE_DIVISOR: u64 = 2;

/// How the critical subnetwork is replicated and arbitrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// The paper's two-replica duplication with the timing selector.
    Duplicated,
    /// Three replicas arbitrated by the value-voting selector.
    TriVoting,
    /// Full-rate main replica plus a lightweight checker that re-verifies
    /// every `k`-th token digest ([`crate::hetero`]).
    Hetero {
        /// Sampling stride; campaigns sweep `k ∈ {1, 4, 16, 64}`.
        k: u64,
    },
}

impl Redundancy {
    /// Replica count of the structure (the hetero checker counts as a
    /// replica slot for fault-injection purposes).
    pub fn replicas(self) -> usize {
        match self {
            Redundancy::Duplicated | Redundancy::Hetero { .. } => 2,
            Redundancy::TriVoting => 3,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Redundancy::Duplicated => "duplicated",
            Redundancy::TriVoting => "tri-voting",
            // Metric labels are interned statics, so the swept strides map
            // through a match.
            Redundancy::Hetero { k: 1 } => "hetero-k1",
            Redundancy::Hetero { k: 4 } => "hetero-k4",
            Redundancy::Hetero { k: 16 } => "hetero-k16",
            Redundancy::Hetero { k: 64 } => "hetero-k64",
            Redundancy::Hetero { .. } => "hetero",
        }
    }

    /// Derives the structure's interface models from the application's
    /// and runs their §3.4 analysis:
    ///
    /// * the duplicated pair keeps the profile's two replica models;
    /// * the third voting replica jitters midway between the profile's two;
    /// * the sampled checker runs at `k · P` with replica 1's jitter.
    ///
    /// # Panics
    ///
    /// Panics if the model's rates diverge (no built-in profile does) or
    /// if a hetero stride is zero.
    pub fn size(self, model: &DuplicationModel) -> Sized {
        const BOUNDED: &str = "profile models are bounded";
        match self {
            Redundancy::Duplicated => {
                Sized::Duplicated(*model, SizingReport::analyze(model).expect(BOUNDED))
            }
            Redundancy::TriVoting => {
                let [a, b] = model.replica_out;
                let mid_jitter = TimeNs::from_ns((a.jitter.as_ns() + b.jitter.as_ns()) / 2);
                let model = NModularModel {
                    producer: model.producer,
                    consumer: model.consumer,
                    replicas: vec![
                        a,
                        b,
                        PjdModel::new(model.producer.period, mid_jitter, TimeNs::ZERO),
                    ],
                };
                let sizing = NSizingReport::analyze(&model).expect(BOUNDED);
                Sized::Voting(model, sizing)
            }
            Redundancy::Hetero { k } => {
                let model = HeteroModel::with_checker_jitter(
                    model.producer,
                    model.consumer,
                    model.replica_out[0],
                    model.replica_out[1].jitter,
                    k,
                );
                let sizing = HeteroSizingReport::analyze(&model).expect(BOUNDED);
                Sized::Sampled(model, sizing)
            }
        }
    }
}

/// A structure's interface models and their §3.4 analysis: capacities,
/// thresholds and, for the sampled checker, the stride.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sized {
    /// [`Redundancy::Duplicated`].
    Duplicated(DuplicationModel, SizingReport),
    /// [`Redundancy::TriVoting`].
    Voting(NModularModel, NSizingReport),
    /// [`Redundancy::Hetero`].
    Sampled(HeteroModel, HeteroSizingReport),
}

impl Sized {
    /// The structure's analytic detection-bound table (an n-replica table
    /// is taken at the largest replicator and selector queue).
    pub fn bounds(&self) -> StructureBounds {
        let (replicas, table) = match self {
            Sized::Duplicated(model, sizing) => (2, Table::Timing(sizing.detection_bounds(model))),
            Sized::Voting(model, sizing) => {
                let largest = |caps: &[u64]| caps.iter().copied().max().unwrap_or(1);
                let bounds = DetectionBounds::new(
                    model.producer,
                    model.consumer,
                    model.replicas.clone(),
                    sizing.threshold,
                    largest(&sizing.replicator_capacity),
                    largest(&sizing.selector_capacity),
                );
                (model.replicas.len(), Table::Voting(bounds))
            }
            Sized::Sampled(model, sizing) => (2, Table::Sampled(sizing.bounds(model))),
        };
        StructureBounds { replicas, table }
    }
}

/// A structure's analytic detection bounds, queried per replica. Replica
/// `r` of the sampled checker is side `r`: `0` the full-rate main, `1`
/// the checker.
///
/// # Panics
///
/// Every query panics on a replica index the structure lacks.
#[derive(Debug, Clone)]
pub struct StructureBounds {
    replicas: usize,
    table: Table,
}

#[derive(Debug, Clone)]
enum Table {
    /// Full-rate replicas behind the paper's value-blind timing selector.
    Timing(DetectionBounds),
    /// Full-rate replicas behind the value-voting selector.
    Voting(DetectionBounds),
    /// The sampled checker, whose bounds depend on the stride `k`.
    Sampled(HeteroBounds),
}

impl StructureBounds {
    fn replica(&self, r: usize) -> usize {
        assert!(
            r < self.replicas,
            "replica {r} of a {}-replica structure",
            self.replicas
        );
        r
    }

    /// Latch bound for a permanent timing fault of replica `r`. Full-rate
    /// replicas and the main trip every detector, so the first to its
    /// bound latches; the checker is seen by sampled divergence only.
    pub fn permanent(&self, r: usize) -> TimeNs {
        match (&self.table, self.replica(r)) {
            (Table::Timing(b) | Table::Voting(b), _) => b.permanent_timing(),
            (Table::Sampled(b), 0) => b.permanent_timing(),
            (Table::Sampled(b), _) => b.sampled_divergence,
        }
    }

    /// Latch bound for replica `r`'s compute stage slowed `raw_factor ×`.
    /// Its output slows by `raw_factor / `[`SERVICE_DIVISOR`]; `None` when
    /// that is no slow-down at all, when it is too mild for the healthy
    /// side to build the divergence surplus, or for the sampled checker
    /// (the trusted side carries no degraded-timing promise).
    pub fn slow_by(&self, r: usize, raw_factor: f64) -> Option<TimeNs> {
        let factor = raw_factor / SERVICE_DIVISOR as f64;
        match (&self.table, self.replica(r)) {
            (Table::Timing(b) | Table::Voting(b), _) if factor > 1.0 => b.slow_by(factor),
            (Table::Sampled(b), 0) if factor > 1.0 => b.slow_by(factor),
            _ => None,
        }
    }

    /// Latch bound for replica `r` corrupting its output. `None` where the
    /// structure makes no promise: the timing selector is value-blind, and
    /// a corrupting checker convicts the main instead.
    pub fn value(&self, r: usize) -> Option<TimeNs> {
        match (&self.table, self.replica(r)) {
            (Table::Timing(_), _) | (Table::Sampled(_), 1..) => None,
            (Table::Voting(b), _) => Some(b.value_vote()),
            (Table::Sampled(b), 0) => Some(b.value),
        }
    }

    /// The divergence detector's latch bound for a fail-stop replica `r`:
    /// eq. (8), on the sample streams for the sampled checker.
    pub fn divergence(&self, r: usize) -> TimeNs {
        match (&self.table, self.replica(r)) {
            (Table::Timing(b) | Table::Voting(b), _) => b.fail_stop,
            (Table::Sampled(b), _) => b.sampled_divergence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DuplicationModel {
        DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        )
    }

    /// Each query reads the table of the structure's own detectors: the
    /// same bound on every full-rate replica, the main's and the
    /// checker's apart.
    #[test]
    fn queries_read_each_structures_own_table() {
        let model = model();
        let Sized::Duplicated(m, s) = Redundancy::Duplicated.size(&model) else {
            panic!("a duplicated structure is a pair");
        };
        let (b, bounds) = (s.detection_bounds(&m), Sized::Duplicated(m, s).bounds());
        for r in 0..2 {
            assert_eq!(bounds.permanent(r), b.permanent_timing());
            assert_eq!(bounds.divergence(r), b.fail_stop);
            assert_eq!(bounds.slow_by(r, 8.0), b.slow_by(4.0));
            assert_eq!(bounds.slow_by(r, 2.0), None, "hidden by the shaper");
            assert_eq!(bounds.value(r), None, "the timing selector is value-blind");
        }
        let voting = Redundancy::TriVoting.size(&model).bounds();
        for r in 0..3 {
            assert_eq!(voting.permanent(r), voting.permanent(0));
            assert!(voting.value(r).is_some());
        }

        let Sized::Sampled(m, s) = Redundancy::Hetero { k: 4 }.size(&model) else {
            panic!("a hetero structure is sampled");
        };
        let (b, bounds) = (s.bounds(&m), Sized::Sampled(m, s).bounds());
        assert_eq!(bounds.permanent(0), b.permanent_timing());
        assert_eq!(bounds.permanent(1), b.sampled_divergence);
        assert_eq!(bounds.slow_by(0, 12.0), b.slow_by(6.0));
        assert_eq!(bounds.slow_by(1, 12.0), None);
        assert_eq!(bounds.value(0), Some(b.value));
        assert_eq!(bounds.value(1), None);
        for r in 0..2 {
            assert_eq!(bounds.divergence(r), b.sampled_divergence);
        }
    }
}
