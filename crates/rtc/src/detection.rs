//! Worst-case fault-detection latency bounds (paper §3.4, eq. (6)–(8)).
//!
//! After a replica suffers a timing fault at time `s`, the healthy replica
//! must out-produce it by `2D − 1` tokens before the divergence counter can
//! cross the threshold `D` (the faulty replica may have been up to `D − 1`
//! tokens *ahead* when it failed). The worst-case latency is the smallest
//! window in which that surplus is guaranteed:
//!
//! ```text
//! Δ* = max_{i≠j} inf { Δ | (α_i^l − ᾱ_j^u)(Δ) ≥ 2D − 1 }       (eq. (7))
//! ```
//!
//! where `ᾱ_j^u` is the faulty replica's residual (post-fault) upper curve;
//! for a fail-stop fault `ᾱ_j^u = 0` (eq. (8)).

use crate::analysis::first_delta_reaching;
use crate::curve::{Curve, ZeroCurve};
use crate::pjd::PjdModel;
use crate::time::TimeNs;

/// Tokens the healthy replica must out-produce the faulty one by before the
/// divergence detector can fire: `2D − 1`.
pub fn detection_surplus(threshold: u64) -> u64 {
    2 * threshold.max(1) - 1
}

/// Worst-case detection latency for a *fail-stop* fault — eq. (8):
///
/// ```text
/// Δ* = max_i inf { Δ | α_i^l(Δ) ≥ 2D − 1 }
/// ```
///
/// For PJD models the infimum has the closed form `(2D−1)·P + J`, which the
/// unit tests cross-check against the generic search.
///
/// Returns [`TimeNs::MAX`] if some replica's lower curve never reaches the
/// surplus (rate zero — a degenerate model).
///
/// # Examples
///
/// ```
/// use rtft_rtc::{detection, PjdModel, TimeNs};
///
/// let replicas = [
///     PjdModel::from_ms(30.0, 5.0, 0.0),
///     PjdModel::from_ms(30.0, 30.0, 0.0),
/// ];
/// let bound = detection::fail_stop_detection_bound(&replicas, 4);
/// // 7 tokens from the ⟨30, 30⟩ replica: 7·30 + 30 = 240 ms.
/// assert_eq!(bound, TimeNs::from_ms(240));
/// ```
pub fn fail_stop_detection_bound(replicas: &[PjdModel; 2], threshold: u64) -> TimeNs {
    let surplus = detection_surplus(threshold);
    let mut worst = TimeNs::ZERO;
    for r in replicas {
        let lower = r.lower();
        let horizon = r.period * (surplus + 4) + r.jitter + r.jitter;
        match first_delta_reaching(&lower, &ZeroCurve, surplus, horizon) {
            Some(t) => worst = worst.max(t),
            None => return TimeNs::MAX,
        }
    }
    worst
}

/// Worst-case detection latency when the faulty replica keeps limping along
/// bounded by `faulty_residual_upper` — eq. (6)/(7) in full generality.
///
/// Returns `None` if the surplus is never reached within `horizon` (the
/// residual rate is too close to the healthy rate: the "fault" is not
/// detectable by divergence counting, or the horizon is too short).
fn degraded_detection_bound(
    healthy: &PjdModel,
    faulty_residual_upper: &dyn Curve,
    threshold: u64,
    horizon: TimeNs,
) -> Option<TimeNs> {
    let surplus = detection_surplus(threshold);
    first_delta_reaching(&healthy.lower(), faulty_residual_upper, surplus, horizon)
}

/// Worst-case detection latency of the replicator's *overflow* detector
/// (§3.3, "fault detection at the replicator channel"): the producer
/// notices a stopped replica when its write attempt finds the FIFO full.
///
/// Starting from an empty FIFO (worst case), the producer must generate
/// `capacity + 1` tokens before the failing write attempt occurs; the bound
/// is `inf { Δ | α_P^l(Δ) ≥ capacity + 1 }`.
///
/// Returns [`TimeNs::MAX`] for a rate-zero producer.
fn replicator_overflow_bound(producer: &PjdModel, capacity: u64) -> TimeNs {
    let lower = producer.lower();
    let target = capacity + 1;
    let horizon = producer.period * (target + 4) + producer.jitter + producer.jitter;
    first_delta_reaching(&lower, &ZeroCurve, target, horizon).unwrap_or(TimeNs::MAX)
}

/// Worst-case detection latency of the selector's *stall* detector (§3.3,
/// first method): replica `i` is flagged when `space_i` exceeds `|S_i|`,
/// i.e. after the consumer performs `capacity + 1` reads past the replica's
/// last write. The bound is `inf { Δ | α_C^l(Δ) ≥ capacity + 1 }`.
///
/// Returns [`TimeNs::MAX`] for a rate-zero consumer.
fn selector_stall_bound(consumer: &PjdModel, capacity: u64) -> TimeNs {
    let lower = consumer.lower();
    let target = capacity + 1;
    let horizon = consumer.period * (target + 4) + consumer.jitter + consumer.jitter;
    first_delta_reaching(&lower, &ZeroCurve, target, horizon).unwrap_or(TimeNs::MAX)
}

/// Aggregated analytic detection bounds for one replicated stage — the
/// single lookup a fault-injection harness queries when classifying an
/// observed detection latency against the paper's guarantees.
///
/// The three detectors of §3.3/§3.4 each carry their own worst-case bound:
///
/// * [`fail_stop`](Self::fail_stop) — selector divergence latch for a
///   fail-stop replica (eq. (8); worst replica, closed form
///   `(2D − 1)·P + J`);
/// * [`overflow`](Self::overflow) — replicator full-FIFO latch
///   (`replicator_overflow_bound`, worst replicator capacity);
/// * [`stall`](Self::stall) — selector space-overrun latch
///   (`selector_stall_bound`, worst selector capacity).
///
/// A permanently silent replica trips *all* of them, so the end-to-end
/// guarantee for a permanent timing fault is the minimum
/// ([`permanent_timing`](Self::permanent_timing)). Degraded (slow-by) and
/// value faults have dedicated lookups.
#[derive(Debug, Clone)]
pub struct DetectionBounds {
    replicas: Vec<PjdModel>,
    threshold: u64,
    /// Worst-case selector divergence-latch latency for a fail-stop replica.
    pub fail_stop: TimeNs,
    /// Worst-case replicator overflow-latch latency for a stopped replica.
    pub overflow: TimeNs,
    /// Worst-case selector stall-latch latency for a stopped replica.
    pub stall: TimeNs,
}

impl DetectionBounds {
    /// Computes the bound table for a stage with the given producer,
    /// consumer, replica output models, divergence threshold `D`, and the
    /// worst (largest) replicator / selector FIFO capacities.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two replicas are supplied.
    pub fn new(
        producer: PjdModel,
        consumer: PjdModel,
        replicas: Vec<PjdModel>,
        threshold: u64,
        replicator_capacity: u64,
        selector_capacity: u64,
    ) -> Self {
        assert!(replicas.len() >= 2, "detection needs at least two replicas");
        let fail_stop = replicas
            .iter()
            .map(|r| fail_stop_detection_bound(&[*r, *r], threshold))
            .max()
            .expect("non-empty replica set");
        let overflow = replicator_overflow_bound(&producer, replicator_capacity);
        let stall = selector_stall_bound(&consumer, selector_capacity);
        DetectionBounds {
            replicas,
            threshold,
            fail_stop,
            overflow,
            stall,
        }
    }

    /// End-to-end guarantee for a *permanent* timing fault (fail-stop): the
    /// replica stops both consuming and producing, so every detector races
    /// and the first to its own bound latches — the minimum of the three.
    pub fn permanent_timing(&self) -> TimeNs {
        self.fail_stop.min(self.overflow).min(self.stall)
    }

    /// Worst-case divergence-latch latency for a replica degraded to
    /// `factor ×` its nominal period (eq. (7) with residual upper curve
    /// `ᾱ^u = α^u` of the slowed model). `None` when the slow-down is too
    /// mild for the healthy replicas to ever build the `2D − 1` surplus.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1.0` (that is not a degradation).
    pub fn slow_by(&self, factor: f64) -> Option<TimeNs> {
        assert!(factor > 1.0, "slow-down factor must exceed 1");
        let surplus = detection_surplus(self.threshold);
        let mut worst: Option<TimeNs> = None;
        for (j, faulty) in self.replicas.iter().enumerate() {
            let stretched = TimeNs::from_ns((faulty.period.as_ns() as f64 * factor).ceil() as u64);
            let residual = PjdModel::new(stretched, faulty.jitter, faulty.delay);
            let horizon = residual.period * (surplus + 8) + residual.jitter + TimeNs::from_secs(1);
            // Any healthy replica latching suffices, so the guarantee for
            // faulty replica `j` is the tightest healthy bound; the table
            // entry is the worst such guarantee over all choices of `j`.
            let tightest = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != j)
                .filter_map(|(_, healthy)| {
                    degraded_detection_bound(healthy, &residual.upper(), self.threshold, horizon)
                })
                .min()?;
            worst = Some(worst.map_or(tightest, |w: TimeNs| w.max(tightest)));
        }
        worst
    }

    /// Heuristic latch bound for *value* faults under an n-modular voting
    /// selector. **Not from the paper** (which detects timing faults only):
    /// a corrupted group is decided once every replica has voted on it, and
    /// replicas can trail the corrupter by at most `D` groups before the
    /// timing detectors latch them first, so the vote completes within
    /// `(D + 1)` periods plus jitter of the slowest replica.
    pub fn value_vote(&self) -> TimeNs {
        let slowest = self
            .replicas
            .iter()
            .max_by_key(|r| r.period)
            .expect("non-empty replica set");
        let jitter = self
            .replicas
            .iter()
            .map(|r| r.jitter)
            .max()
            .expect("non-empty replica set");
        slowest.period * (self.threshold + 1) + jitter
    }
}

/// The PJD model of the *sampled* projection of a full-rate stream: every
/// `k`-th token of a ⟨P, J, D⟩ stream arrives with period `k·P` and the
/// original jitter and delay (decimation does not re-time the survivors).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn sampled_stream_model(full: &PjdModel, k: u64) -> PjdModel {
    assert!(k > 0, "sampling stride must be positive");
    PjdModel::new(full.period * k, full.jitter, full.delay)
}

/// Analytic detection bounds for the *heterogeneous sampled-checker*
/// structure: a full-rate main replica spot-checked by a lightweight
/// checker that re-verifies every `k`-th token digest.
///
/// Unlike [`DetectionBounds`], there is no selector stall detector — the
/// checker legally runs at `1/k` of the main rate, so the space counters
/// are meaningless and the stall rule is disabled. Two detectors remain,
/// plus the value check:
///
/// * [`sampled_divergence`](Self::sampled_divergence) — eq. (8) applied to
///   the **sample streams**: main's sample counter (one per `k` tokens)
///   versus the checker's vote counter, with the sampled threshold `D_s`
///   derived from the period-stretched models. Detection latency is a
///   function of `k`: `≈ (2·D_s − 1)·k·P + J`.
/// * [`overflow`](Self::overflow) — the replicator's full-FIFO latch on the
///   main queue, identical to the duplicated case (full-rate, independent
///   of `k`).
/// * [`value`](Self::value) — worst-case latency until a permanently
///   corrupting main is caught by a digest mismatch: the corruption must
///   reach the next sampled token (up to `k·P` away) and survive the
///   checker's own sampled-rate service (another `k·P` plus jitters).
#[derive(Debug, Clone)]
pub struct HeteroBounds {
    main: PjdModel,
    checker: PjdModel,
    k: u64,
    sampled_threshold: u64,
    /// Worst-case sampled-divergence latch latency for a fail-stop main or
    /// checker (eq. (8) on the sample streams).
    pub sampled_divergence: TimeNs,
    /// Worst-case replicator overflow-latch latency for a main that stops
    /// consuming.
    pub overflow: TimeNs,
    /// Worst-case digest-mismatch latch latency for a permanently
    /// corrupting main.
    pub value: TimeNs,
}

impl HeteroBounds {
    /// Computes the hetero bound table: `main` is the full-rate replica
    /// output model, `checker` the checker's *vote* output model (already
    /// at the sampled rate, period `≈ k·P`), `sampled_threshold` the
    /// divergence threshold `D_s` over the two sample streams, and
    /// `main_capacity` the main replicator FIFO size.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        producer: PjdModel,
        main: PjdModel,
        checker: PjdModel,
        k: u64,
        sampled_threshold: u64,
        main_capacity: u64,
    ) -> Self {
        let main_sampled = sampled_stream_model(&main, k);
        let sampled_divergence =
            fail_stop_detection_bound(&[main_sampled, checker], sampled_threshold);
        let overflow = replicator_overflow_bound(&producer, main_capacity);
        let value = main.period * (2 * k) + main.jitter + checker.jitter + checker.delay;
        HeteroBounds {
            main,
            checker,
            k,
            sampled_threshold,
            sampled_divergence,
            overflow,
            value,
        }
    }

    /// End-to-end guarantee for a *permanent* timing fault of the main
    /// replica: the sampled-divergence and overflow detectors race (there
    /// is no stall detector in this structure).
    pub fn permanent_timing(&self) -> TimeNs {
        self.sampled_divergence.min(self.overflow)
    }

    /// Worst-case sampled-divergence latch latency for a main replica
    /// degraded to `factor ×` its nominal period — eq. (7) on the sample
    /// streams, with the checker as the healthy side and the stretched,
    /// `k`-decimated main as the residual. `None` when the slow-down never
    /// builds the `2·D_s − 1` sample surplus.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1.0`.
    pub fn slow_by(&self, factor: f64) -> Option<TimeNs> {
        assert!(factor > 1.0, "slow-down factor must exceed 1");
        let surplus = detection_surplus(self.sampled_threshold);
        let main_sampled = sampled_stream_model(&self.main, self.k);
        let stretched =
            TimeNs::from_ns((main_sampled.period.as_ns() as f64 * factor).ceil() as u64);
        let residual = PjdModel::new(stretched, main_sampled.jitter, main_sampled.delay);
        let horizon = residual.period * (surplus + 8) + residual.jitter + TimeNs::from_secs(1);
        degraded_detection_bound(
            &self.checker,
            &residual.upper(),
            self.sampled_threshold,
            horizon,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::StaircaseCurve;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_ms(v)
    }

    #[test]
    fn surplus_is_2d_minus_1() {
        assert_eq!(detection_surplus(4), 7);
        assert_eq!(detection_surplus(1), 1);
        assert_eq!(detection_surplus(0), 1, "threshold clamps to 1");
    }

    #[test]
    fn fail_stop_closed_form_mjpeg() {
        let replicas = [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ];
        // D = 4 ⇒ surplus 7. Worst replica is ⟨30, 30⟩: 7·30 + 30 = 240.
        assert_eq!(fail_stop_detection_bound(&replicas, 4), ms(240));
        // The tighter replica alone would give 7·30 + 5 = 215.
        let tight = [replicas[0], replicas[0]];
        assert_eq!(fail_stop_detection_bound(&tight, 4), ms(215));
    }

    #[test]
    fn fail_stop_closed_form_adpcm() {
        let replicas = [
            PjdModel::from_ms(6.3, 1.0, 0.0),
            PjdModel::from_ms(6.3, 16.0, 0.0),
        ];
        // D = 5 ⇒ surplus 9. Worst: 9·6.3 + 16 = 72.7 ms.
        assert_eq!(
            fail_stop_detection_bound(&replicas, 5),
            TimeNs::from_ms_f64(72.7)
        );
    }

    #[test]
    fn degraded_fault_takes_longer_than_fail_stop() {
        let healthy = PjdModel::from_ms(30.0, 5.0, 0.0);
        let residual = PjdModel::periodic(ms(90));
        let fail_stop = fail_stop_detection_bound(&[healthy, healthy], 4);
        let degraded =
            degraded_detection_bound(&healthy, &residual.upper(), 4, TimeNs::from_secs(10))
                .expect("detectable");
        assert!(degraded > fail_stop);
    }

    #[test]
    fn undetectable_degradation_returns_none() {
        // Faulty replica "degrades" to the same rate as the healthy one:
        // the divergence never accumulates.
        let healthy = PjdModel::periodic(ms(30));
        let residual = PjdModel::periodic(ms(30));
        assert_eq!(
            degraded_detection_bound(&healthy, &residual.upper(), 4, TimeNs::from_secs(10)),
            None
        );
    }

    #[test]
    fn burst_residual_delays_detection() {
        // A faulty replica that dumps a final burst of 5 tokens then dies.
        let healthy = PjdModel::from_ms(30.0, 5.0, 0.0);
        let burst = StaircaseCurve::new(vec![(TimeNs::ZERO, 5)]);
        let with_burst =
            degraded_detection_bound(&healthy, &burst, 4, TimeNs::from_secs(20)).expect("bounded");
        let without = fail_stop_detection_bound(&[healthy, healthy], 4);
        // The burst adds 5 extra tokens the healthy replica must overcome.
        assert_eq!(with_burst, ms((7 + 5) * 30 + 5));
        assert!(with_burst > without);
    }

    #[test]
    fn replicator_overflow_bound_closed_form() {
        let producer = PjdModel::from_ms(30.0, 2.0, 0.0);
        // capacity 3 ⇒ 4th token triggers: 4·30 + 2 = 122 ms.
        assert_eq!(replicator_overflow_bound(&producer, 3), ms(122));
    }

    #[test]
    fn selector_stall_bound_closed_form() {
        let consumer = PjdModel::from_ms(30.0, 2.0, 0.0);
        assert_eq!(selector_stall_bound(&consumer, 6), ms(7 * 30 + 2));
    }

    #[test]
    fn bigger_threshold_means_longer_detection() {
        let replicas = [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ];
        let mut prev = TimeNs::ZERO;
        for d in 1..8 {
            let b = fail_stop_detection_bound(&replicas, d);
            assert!(b > prev, "bound must grow with D");
            prev = b;
        }
    }

    fn mjpeg_bounds() -> DetectionBounds {
        DetectionBounds::new(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 120.0),
            vec![
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
            4,
            3,
            6,
        )
    }

    #[test]
    fn bound_table_matches_closed_forms() {
        let b = mjpeg_bounds();
        // Divergence: worst replica ⟨30, 30⟩, D = 4 ⇒ 7·30 + 30 = 240.
        assert_eq!(b.fail_stop, ms(240));
        // Overflow: producer ⟨30, 2⟩ must emit 4 tokens; α^l guarantees
        // them only after 4·30 + 2 = 122 ms.
        assert_eq!(b.overflow, ms(122));
        // Stall: consumer must perform 7 reads; 7·30 + 2 = 212 ms.
        assert_eq!(b.stall, ms(212));
        // The end-to-end permanent-fault guarantee is the fastest detector.
        assert_eq!(b.permanent_timing(), ms(122));
    }

    #[test]
    fn slow_by_sits_between_healthy_and_fail_stop() {
        let b = mjpeg_bounds();
        // A 3× slow-down is detectable but strictly slower than fail-stop
        // (the limping replica still contributes residual tokens).
        let degraded = b.slow_by(3.0).expect("3x slow-down is detectable");
        assert!(degraded > b.fail_stop, "{degraded:?} vs {:?}", b.fail_stop);
        assert!(degraded < ms(2_000));
        // A harsher slow-down is caught faster than a milder one.
        let harsher = b.slow_by(10.0).expect("10x slow-down is detectable");
        assert!(harsher < degraded);
        // A 1.01× drift never builds the 2D−1 surplus within the horizon.
        assert_eq!(b.slow_by(1.01), None);
    }

    #[test]
    #[should_panic(expected = "slow-down factor must exceed 1")]
    fn slow_by_rejects_speedups() {
        mjpeg_bounds().slow_by(0.5);
    }

    #[test]
    fn sampled_model_stretches_period_only() {
        let main = PjdModel::from_ms(30.0, 5.0, 0.0);
        let s = sampled_stream_model(&main, 4);
        assert_eq!(s.period, ms(120));
        assert_eq!(s.jitter, ms(5));
        assert_eq!(s.delay, TimeNs::ZERO);
    }

    fn hetero(k: u64, d_s: u64) -> HeteroBounds {
        HeteroBounds::new(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 5.0, 0.0),
            sampled_stream_model(&PjdModel::from_ms(30.0, 8.0, 0.0), k),
            k,
            d_s,
            3,
        )
    }

    #[test]
    fn hetero_bounds_match_closed_forms() {
        let b = hetero(4, 2);
        // Sampled divergence, D_s = 2 ⇒ surplus 3 samples. Worst stream is
        // the checker ⟨120, 8⟩: 3·120 + 8 = 368 ms.
        assert_eq!(b.sampled_divergence, ms(368));
        // Overflow identical to duplicated: 4·30 + 2 = 122 ms, so the
        // permanent-timing guarantee is unchanged by the sampling stride.
        assert_eq!(b.overflow, ms(122));
        assert_eq!(b.permanent_timing(), ms(122));
        // Value: 2k·P + J_main + J_chk = 8·30 + 5 + 8 = 253 ms.
        assert_eq!(b.value, ms(253));
    }

    #[test]
    fn hetero_sampled_latency_grows_linearly_with_k() {
        let mut prev = TimeNs::ZERO;
        for k in [1, 4, 16, 64] {
            let b = hetero(k, 2);
            assert!(
                b.sampled_divergence > prev,
                "sampled bound must grow with k"
            );
            assert!(b.value > if k == 1 { TimeNs::ZERO } else { prev });
            prev = b.sampled_divergence;
        }
        // Closed form at k = 64: 3·(64·30) + 8 = 5768 ms.
        assert_eq!(hetero(64, 2).sampled_divergence, ms(5768));
    }

    #[test]
    fn value_vote_bound_tracks_slowest_replica() {
        let b = mjpeg_bounds();
        // (D + 1)·P_max + J_max = 5·30 + 30 = 180 ms.
        assert_eq!(b.value_vote(), ms(180));
    }

    #[test]
    fn sizing_report_bridges_to_bounds() {
        use crate::sizing::{DuplicationModel, SizingReport};
        let model = DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 0.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        );
        let report = SizingReport::analyze(&model).expect("bounded model");
        let b = report.detection_bounds(&model);
        // Table 2: D = 4 ⇒ the divergence bound is the 240 ms of eq. (8).
        assert_eq!(b.fail_stop, report.selector_detection_bound);
        assert_eq!(b.fail_stop, ms(240));
        assert!(b.permanent_timing() <= b.fail_stop);
    }
}
