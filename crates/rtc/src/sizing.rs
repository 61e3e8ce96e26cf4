//! FIFO capacities, initial fills and divergence thresholds (paper §3.4).
//!
//! The reference network is assumed correctly designed: the producer never
//! blocks on a full FIFO and the consumer never stalls on an empty one.
//! The functions here derive the queue parameters that preserve that
//! property in the *duplicated* network, and the divergence threshold `D`
//! the selector/replicator use for timing-fault detection.

use crate::analysis::{default_horizon, sup_difference, CurveAnalysisError, Supremum};
use crate::pjd::PjdModel;
use crate::time::TimeNs;

/// Required FIFO capacity so a producer bounded by `producer_upper` never
/// blocks against a consumer guaranteed at least `consumer_lower` — eq. (3):
///
/// ```text
/// |F| = sup_Δ { α_P^u(Δ) − α_in^l(Δ) }
/// ```
///
/// # Errors
///
/// Returns [`CurveAnalysisError::Unbounded`] if the producer's long-run
/// rate exceeds the consumer's (no finite FIFO works).
///
/// # Examples
///
/// ```
/// use rtft_rtc::{sizing, PjdModel};
///
/// let producer = PjdModel::from_ms(30.0, 2.0, 0.0);
/// let replica2 = PjdModel::from_ms(30.0, 30.0, 0.0);
/// assert_eq!(sizing::fifo_capacity(&producer, &replica2)?, 3); // |R₂| in Table 2
/// # Ok::<(), rtft_rtc::CurveAnalysisError>(())
/// ```
pub fn fifo_capacity(producer: &PjdModel, consumer: &PjdModel) -> Result<u64, CurveAnalysisError> {
    let (u, l) = (producer.upper(), consumer.lower());
    let h = default_horizon(&u, &l);
    Ok(sup_difference(&u, &l, h)?.value)
}

/// Initial token count `F_{C,0}` so the consumer never stalls — eq. (4):
///
/// ```text
/// F_{C,0} = sup_Δ { α_C^u(Δ) − α_out^l(Δ) }
/// ```
///
/// `producer` here is the element *feeding* the consumer (a replica output
/// in the duplicated network).
///
/// # Errors
///
/// Returns [`CurveAnalysisError::Unbounded`] if the consumer's long-run
/// rate exceeds the feeding replica's.
pub fn initial_fill(consumer: &PjdModel, producer: &PjdModel) -> Result<u64, CurveAnalysisError> {
    let (u, l) = (consumer.upper(), producer.lower());
    let h = default_horizon(&u, &l);
    Ok(sup_difference(&u, &l, h)?.value)
}

/// Capacity of a selector virtual queue `|S_i|`: the initial fill plus the
/// worst-case backlog the replica can pile on top of it:
///
/// ```text
/// |S_i| = F_{C,0,i} + sup_Δ { α_{i,out}^u(Δ) − α_C^l(Δ) }
/// ```
///
/// This reproduces the paper's Table 2 values (|S₁| = 4, |S₂| = 6 for
/// MJPEG; 4 and 8 for ADPCM) from the reconstructed Table 1 parameters.
///
/// # Errors
///
/// Returns [`CurveAnalysisError::Unbounded`] if either direction diverges.
pub fn selector_capacity(
    consumer: &PjdModel,
    replica_out: &PjdModel,
) -> Result<u64, CurveAnalysisError> {
    let init = initial_fill(consumer, replica_out)?;
    let (u, l) = (replica_out.upper(), consumer.lower());
    let h = default_horizon(&u, &l);
    let backlog = sup_difference(&u, &l, h)?.value;
    Ok(init + backlog)
}

/// Divergence threshold `D` — eq. (5): the smallest integer strictly larger
/// than the worst-case divergence between the two replicas' healthy output
/// streams:
///
/// ```text
/// D = 1 + sup_{i ≠ j, λ ≥ 0} { α_{i}^u(λ) − α_{j}^l(λ) }
/// ```
///
/// Guarantees no false positives: under fault-free conditions the observed
/// token-count difference can never reach `D`.
///
/// # Errors
///
/// Returns [`CurveAnalysisError::Unbounded`] if the replicas have unequal
/// long-run rates (divergence would grow without bound even fault-free —
/// a mis-designed duplication).
///
/// # Examples
///
/// ```
/// use rtft_rtc::{sizing, PjdModel};
///
/// let r1 = PjdModel::from_ms(30.0, 5.0, 0.0);
/// let r2 = PjdModel::from_ms(30.0, 30.0, 0.0);
/// assert_eq!(sizing::divergence_threshold(&r1, &r2)?, 4);
/// # Ok::<(), rtft_rtc::CurveAnalysisError>(())
/// ```
pub fn divergence_threshold(
    replica1: &PjdModel,
    replica2: &PjdModel,
) -> Result<u64, CurveAnalysisError> {
    let mut worst: Supremum = Supremum {
        value: 0,
        witness: TimeNs::ZERO,
    };
    for (a, b) in [(replica1, replica2), (replica2, replica1)] {
        let (u, l) = (a.upper(), b.lower());
        let h = default_horizon(&u, &l);
        let s = sup_difference(&u, &l, h)?;
        if s.value > worst.value {
            worst = s;
        }
    }
    Ok(worst.value + 1)
}

/// Interface timing models of a duplicated process network: the inputs to
/// the full §3.4 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicationModel {
    /// Producer output model (`α_P`).
    pub producer: PjdModel,
    /// Consumer input model (`α_C`).
    pub consumer: PjdModel,
    /// Token-consumption models of the two replicas (`α_{i,in}`).
    pub replica_in: [PjdModel; 2],
    /// Token-production models of the two replicas (`α_{i,out}`).
    pub replica_out: [PjdModel; 2],
}

impl DuplicationModel {
    /// Convenience constructor where each replica consumes and produces
    /// with the same model (the common case in the paper's experiments).
    pub fn symmetric(producer: PjdModel, consumer: PjdModel, replicas: [PjdModel; 2]) -> Self {
        DuplicationModel {
            producer,
            consumer,
            replica_in: replicas,
            replica_out: replicas,
        }
    }
}

/// The complete offline analysis of a duplicated network: every queue
/// capacity, initial fill, threshold and worst-case detection bound the
/// runtime framework needs. Produced by [`SizingReport::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizingReport {
    /// Replicator FIFO capacities `|R₁|, |R₂|` (eq. (3)).
    pub replicator_capacity: [u64; 2],
    /// Selector virtual-queue capacities `|S₁|, |S₂|`.
    pub selector_capacity: [u64; 2],
    /// Selector initial fills `|S₁|₀, |S₂|₀` (eq. (4)).
    pub selector_initial_fill: [u64; 2],
    /// Divergence threshold at the selector (from output curves, eq. (5)).
    pub selector_threshold: u64,
    /// Divergence threshold at the replicator (from consumption curves).
    pub replicator_threshold: u64,
    /// Worst-case fail-stop detection latency at the selector (eq. (8)).
    pub selector_detection_bound: TimeNs,
    /// Worst-case fail-stop detection latency at the replicator.
    pub replicator_detection_bound: TimeNs,
}

impl SizingReport {
    /// Runs the full §3.4 analysis on a duplication model.
    ///
    /// # Errors
    ///
    /// Returns [`CurveAnalysisError::Unbounded`] if any producer/consumer
    /// rate pairing diverges — the duplication is mis-designed and no
    /// finite parameters exist.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtft_rtc::{sizing::{DuplicationModel, SizingReport}, PjdModel};
    ///
    /// // The reconstructed MJPEG parameters (DESIGN.md §1).
    /// let model = DuplicationModel::symmetric(
    ///     PjdModel::from_ms(30.0, 2.0, 0.0),
    ///     PjdModel::from_ms(30.0, 2.0, 0.0),
    ///     [PjdModel::from_ms(30.0, 5.0, 0.0), PjdModel::from_ms(30.0, 30.0, 0.0)],
    /// );
    /// let report = SizingReport::analyze(&model)?;
    /// assert_eq!(report.replicator_capacity, [2, 3]);
    /// assert_eq!(report.selector_capacity, [4, 6]);
    /// assert_eq!(report.selector_initial_fill, [2, 3]);
    /// # Ok::<(), rtft_rtc::CurveAnalysisError>(())
    /// ```
    pub fn analyze(model: &DuplicationModel) -> Result<Self, CurveAnalysisError> {
        let replicator_capacity = [
            fifo_capacity(&model.producer, &model.replica_in[0])?,
            fifo_capacity(&model.producer, &model.replica_in[1])?,
        ];
        let selector_initial_fill = [
            initial_fill(&model.consumer, &model.replica_out[0])?,
            initial_fill(&model.consumer, &model.replica_out[1])?,
        ];
        let selector_capacity = [
            selector_capacity(&model.consumer, &model.replica_out[0])?,
            selector_capacity(&model.consumer, &model.replica_out[1])?,
        ];
        let selector_threshold =
            divergence_threshold(&model.replica_out[0], &model.replica_out[1])?;
        let replicator_threshold =
            divergence_threshold(&model.replica_in[0], &model.replica_in[1])?;

        let selector_detection_bound = crate::detection::fail_stop_detection_bound(
            &[model.replica_out[0], model.replica_out[1]],
            selector_threshold,
        );
        let replicator_detection_bound = crate::detection::fail_stop_detection_bound(
            &[model.replica_in[0], model.replica_in[1]],
            replicator_threshold,
        );

        Ok(SizingReport {
            replicator_capacity,
            selector_capacity,
            selector_initial_fill,
            selector_threshold,
            replicator_threshold,
            selector_detection_bound,
            replicator_detection_bound,
        })
    }

    /// Physical selector queue size: `max(|S₁|, |S₂|)` (§3.1, selector
    /// rule 1 — the selector keeps a single FIFO).
    pub fn selector_queue_size(&self) -> u64 {
        self.selector_capacity[0].max(self.selector_capacity[1])
    }

    /// The full analytic bound table for this sizing — the lookup a
    /// fault-injection harness classifies observed detection latencies
    /// against. Conservative: uses the worst (largest) replicator and
    /// selector capacities over both replicas.
    pub fn detection_bounds(&self, model: &DuplicationModel) -> crate::detection::DetectionBounds {
        crate::detection::DetectionBounds::new(
            model.producer,
            model.consumer,
            model.replica_out.to_vec(),
            self.selector_threshold,
            self.replicator_capacity[0].max(self.replicator_capacity[1]),
            self.selector_queue_size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mjpeg_model() -> DuplicationModel {
        DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 0.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        )
    }

    fn adpcm_model() -> DuplicationModel {
        DuplicationModel::symmetric(
            PjdModel::from_ms(6.3, 1.0, 0.0),
            PjdModel::from_ms(6.3, 1.0, 0.0),
            [
                PjdModel::from_ms(6.3, 1.0, 0.0),
                PjdModel::from_ms(6.3, 16.0, 0.0),
            ],
        )
    }

    #[test]
    fn mjpeg_sizing_matches_paper_table2() {
        let r = SizingReport::analyze(&mjpeg_model()).expect("bounded");
        assert_eq!(r.replicator_capacity, [2, 3]);
        assert_eq!(r.selector_initial_fill, [2, 3]);
        assert_eq!(r.selector_capacity, [4, 6]);
        assert_eq!(r.selector_queue_size(), 6);
    }

    #[test]
    fn adpcm_sizing_matches_paper_table2() {
        let r = SizingReport::analyze(&adpcm_model()).expect("bounded");
        assert_eq!(r.replicator_capacity, [2, 4]);
        assert_eq!(r.selector_initial_fill, [2, 4]);
        assert_eq!(r.selector_capacity, [4, 8]);
        assert_eq!(r.selector_queue_size(), 8);
    }

    #[test]
    fn mjpeg_threshold() {
        let r = SizingReport::analyze(&mjpeg_model()).expect("bounded");
        // sup{α₂^u − α₁^l} = sup{α₁^u − α₂^l} = 3 ⇒ D = 4.
        assert_eq!(r.selector_threshold, 4);
        assert_eq!(r.replicator_threshold, 4);
    }

    #[test]
    fn adpcm_threshold() {
        let r = SizingReport::analyze(&adpcm_model()).expect("bounded");
        assert_eq!(r.selector_threshold, 5);
    }

    #[test]
    fn detection_bounds_exceed_thresholded_periods() {
        // The bound must cover at least (2D−1) healthy periods plus jitter.
        let r = SizingReport::analyze(&mjpeg_model()).expect("bounded");
        let d = r.selector_threshold;
        assert!(r.selector_detection_bound >= TimeNs::from_ms((2 * d - 1) * 30));
        assert!(r.selector_detection_bound < TimeNs::from_secs(1));
    }

    #[test]
    fn identical_replicas_give_minimal_threshold() {
        let m = PjdModel::periodic(TimeNs::from_ms(10));
        // sup{⌈Δ/P⌉ − ⌊Δ/P⌋} = 1 ⇒ D = 2.
        assert_eq!(divergence_threshold(&m, &m).unwrap(), 2);
    }

    #[test]
    fn mismatched_rates_are_rejected() {
        let fast = PjdModel::periodic(TimeNs::from_ms(10));
        let slow = PjdModel::periodic(TimeNs::from_ms(30));
        assert!(fifo_capacity(&fast, &slow).is_err());
        assert!(divergence_threshold(&fast, &slow).is_err());
        let model = DuplicationModel::symmetric(fast, fast, [fast, slow]);
        assert!(SizingReport::analyze(&model).is_err());
    }

    #[test]
    fn asymmetric_in_out_models() {
        // A replica that consumes tightly but produces with huge jitter.
        let model = DuplicationModel {
            producer: PjdModel::from_ms(30.0, 2.0, 0.0),
            consumer: PjdModel::from_ms(30.0, 2.0, 0.0),
            replica_in: [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 5.0, 0.0),
            ],
            replica_out: [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 60.0, 0.0),
            ],
        };
        let r = SizingReport::analyze(&model).expect("bounded");
        // Replicator side is symmetric and small...
        assert_eq!(r.replicator_capacity, [2, 2]);
        assert_eq!(r.replicator_threshold, 3);
        // ...selector side sees the slow producer.
        assert!(r.selector_capacity[1] > r.selector_capacity[0]);
        assert!(r.selector_threshold > r.replicator_threshold);
    }
}
