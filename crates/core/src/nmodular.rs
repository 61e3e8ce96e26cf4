//! N-replica generalisation: tolerating up to `n − 1` timing faults.
//!
//! The paper restricts its presentation to two replicas but states that
//! "a more general setup for tolerating up to n timing faults can be
//! easily constructed using the principles outlined in this paper" (§1).
//! This module is that construction — and the two-replica channels are
//! its n = 2 case, not a parallel implementation:
//!
//! * [`NReplicator`] — the crate's one [`Replicator`]: one write
//!   interface, `n` read interfaces, one bounded queue per replica, the
//!   §3.3 overflow latch per queue and a divergence detector over
//!   consumption counts;
//! * [`NSelector`] — `n` write interfaces, one physical queue. Interface
//!   `i` supplies the *first token of duplicate group `k`* iff no peer has
//!   delivered `k` yet, decided on received-token counters (the
//!   capacity-normalised form of the paper's space comparison, see
//!   `DESIGN.md` §5); late group members are discarded. A replica whose
//!   count falls `D` behind the front-runner — or whose `space` exceeds
//!   its capacity plus slack — is latched faulty, and latched interfaces'
//!   writes are swallowed so limping replicas cannot block.
//!
//! All detection remains counter-based: no clocks at runtime. Up to
//! `n − 1` replicas may be latched; the front-runner is never latched, so
//! one healthy replica always survives and the consumer stream is
//! uninterrupted (the tests inject two staggered fail-stops into a
//! triplicated network).

use crate::arbitration::{ArbiterLedger, FirstOfGroup, PolicySelector};
use crate::builder::{assemble, Assembly};
use crate::fault::FaultPlan;
use crate::replicator::{Replicator, ReplicatorConfig};
use rtft_kpn::{Network, NodeId, PortId};
use rtft_rtc::sizing;
use rtft_rtc::{detection, CurveAnalysisError, PjdModel, TimeNs};

/// Interface timing models of an `n`-replica duplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NModularModel {
    /// Producer output model.
    pub producer: PjdModel,
    /// Consumer input model.
    pub consumer: PjdModel,
    /// One interface model per replica (used for both consumption and
    /// production, as in the paper's experiments).
    pub replicas: Vec<PjdModel>,
}

/// The §3.4 analysis generalised to `n` replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NSizingReport {
    /// Per-replica replicator queue capacity (eq. (3)).
    pub replicator_capacity: Vec<u64>,
    /// Per-replica selector virtual-queue capacity.
    pub selector_capacity: Vec<u64>,
    /// Divergence threshold `D`: eq. (5) maximised over all ordered pairs.
    pub threshold: u64,
    /// Worst-case fail-stop detection bound (pairwise worst case).
    pub detection_bound: TimeNs,
}

impl NSizingReport {
    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CurveAnalysisError`] if any rate pairing diverges.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two replicas are given.
    pub fn analyze(model: &NModularModel) -> Result<Self, CurveAnalysisError> {
        assert!(
            model.replicas.len() >= 2,
            "n-modular redundancy needs at least two replicas"
        );
        let mut replicator_capacity = Vec::new();
        let mut selector_capacity = Vec::new();
        for r in &model.replicas {
            replicator_capacity.push(sizing::fifo_capacity(&model.producer, r)?);
            selector_capacity.push(sizing::selector_capacity(&model.consumer, r)?);
        }
        let mut threshold = 0;
        for (i, a) in model.replicas.iter().enumerate() {
            for (j, b) in model.replicas.iter().enumerate() {
                if i != j {
                    threshold = threshold.max(sizing::divergence_threshold(a, b)?);
                }
            }
        }
        let mut detection_bound = TimeNs::ZERO;
        for r in &model.replicas {
            detection_bound =
                detection_bound.max(detection::fail_stop_detection_bound(&[*r, *r], threshold));
        }
        Ok(NSizingReport {
            replicator_capacity,
            selector_capacity,
            threshold,
            detection_bound,
        })
    }

    /// Number of replicas covered.
    pub fn replica_count(&self) -> usize {
        self.replicator_capacity.len()
    }
}

/// N-way replicator channel: the crate's one [`Replicator`], under the
/// name the n-modular structures use for it.
pub type NReplicator = Replicator;

/// N-way selector channel: the paper's timing arbitration
/// ([`FirstOfGroup`]) over the shared [`ArbiterLedger`]. Interface `i`
/// supplies the first token of duplicate group `k` iff no healthy peer has
/// delivered `k` yet; late group members are discarded; the eq. (5)
/// divergence and §3.3 stall rules latch a lagging replica.
pub type NSelector = PolicySelector<FirstOfGroup>;

impl NSelector {
    /// Creates an n-way selector with per-replica virtual capacities and
    /// divergence threshold `d` (stall slack `d − 1`).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two interfaces, a zero capacity, or `d == 0`.
    pub fn new(name: impl Into<String>, capacity: Vec<usize>, d: u64) -> Self {
        assert!(capacity.len() >= 2, "need at least two replicas");
        PolicySelector::from_parts(timing_ledger(name, capacity, d), FirstOfGroup)
    }
}

/// The ledger every n-replica selector starts from: divergence threshold
/// `d` with the matching no-false-positive stall slack `d − 1`.
pub(crate) fn timing_ledger(
    name: impl Into<String>,
    capacity: Vec<usize>,
    d: u64,
) -> ArbiterLedger {
    assert!(d > 0, "threshold must be positive");
    ArbiterLedger::new(name, capacity, Some(d), Some(d - 1))
}

impl NSizingReport {
    /// The n-way replicator this sizing prescribes.
    pub(crate) fn replicator(&self) -> NReplicator {
        let capacity: Vec<usize> = self
            .replicator_capacity
            .iter()
            .map(|c| *c as usize)
            .collect();
        Replicator::new(
            "n-replicator",
            ReplicatorConfig::new(capacity).with_divergence_threshold(self.threshold),
        )
    }

    /// The selector virtual-queue capacities this sizing prescribes.
    pub(crate) fn selector_capacities(&self) -> Vec<usize> {
        self.selector_capacity.iter().map(|c| *c as usize).collect()
    }
}

/// The n-replica counterpart of
/// [`JitterStageReplica`](crate::JitterStageReplica): each replica is a
/// fixed-service transform stage followed by a [`PjdShaper`] imposing that
/// replica's ⟨P, J⟩ output model. Works for any replica count, so the
/// fleet executor uses it for synthetic n-modular jobs.
///
/// [`PjdShaper`]: rtft_kpn::PjdShaper
#[derive(Debug, Clone)]
pub struct NJitterStageReplica {
    /// Fixed per-token service time of each compute stage.
    pub service: TimeNs,
    /// Per-replica output interface models (without the schedule offset).
    pub out_models: Vec<PjdModel>,
    /// Shaper schedule offset; must cover `service` plus producer jitter.
    pub offset: TimeNs,
    /// Base RNG seed; replica `i` uses `seed_base + i`.
    pub seed_base: u64,
}

impl NJitterStageReplica {
    /// Builds the factory from an n-modular model: service one tenth of
    /// the producer period, offset `service + producer jitter + 1 ms`.
    pub fn from_model(model: &NModularModel) -> Self {
        let service = model.producer.period / 10;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        NJitterStageReplica {
            service,
            out_models: model.replicas.clone(),
            offset,
            seed_base: 0,
        }
    }

    /// Replaces the base seed.
    pub fn with_seed_base(mut self, seed_base: u64) -> Self {
        self.seed_base = seed_base;
        self
    }
}

impl crate::ReplicaFactory for NJitterStageReplica {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        crate::builder::shaped_stage(
            net,
            [input, output],
            [&format!("r{replica}"), &format!("replica{replica}")],
            self.service,
            self.out_models[replica].with_delay(self.offset),
            self.seed_base.wrapping_add(replica as u64),
            fault,
        )
    }
}

/// Builds an n-modular network: producer → n-replicator → `n` replicas →
/// n-selector → consumer, with a fault plan per replica.
///
/// # Panics
///
/// Panics if `faults.len() != model.replicas.len()` or fewer than two
/// replicas are configured.
pub fn build_n_modular(
    model: &NModularModel,
    sizing: &NSizingReport,
    token_count: u64,
    seeds: (u64, u64),
    payload: crate::PayloadGenerator,
    factory: &dyn crate::ReplicaFactory,
    faults: &[FaultPlan],
) -> (Network, crate::DuplicatedIds) {
    assert!(
        model.replicas.len() >= 2,
        "n-modular redundancy needs at least two replicas"
    );
    assert_eq!(
        faults.len(),
        model.replicas.len(),
        "one fault plan per replica"
    );
    assemble(Assembly {
        replicator: Box::new(sizing.replicator()),
        selector: Box::new(NSelector::new(
            "n-selector",
            sizing.selector_capacities(),
            sizing.threshold,
        )),
        producer: model.producer,
        consumer: model.consumer,
        token_count: Some(token_count),
        seeds,
        payload,
        factory,
        faults,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::ReplicaFactory;
    use crate::fault::FaultPlan;
    use rtft_kpn::{
        ChannelBehavior, Engine, Fifo, Payload, PjdShaper, ReadOutcome, Token, Transform,
        WriteOutcome,
    };
    use std::sync::Arc;

    /// A shaper-based replica factory for arbitrary replica counts.
    pub(crate) struct TriReplica {
        pub(crate) models: Vec<PjdModel>,
    }

    impl ReplicaFactory for TriReplica {
        fn build(
            &self,
            net: &mut Network,
            input: PortId,
            output: PortId,
            replica: usize,
            fault: FaultPlan,
        ) -> Vec<NodeId> {
            let internal = net.add_channel(Fifo::new(format!("r{replica}.mid"), 4));
            let stage = Transform::new(
                format!("r{replica}.stage"),
                input,
                PortId::of(internal),
                TimeNs::from_ms(2),
                TimeNs::ZERO,
                replica as u64,
                |p| p,
            );
            let stage_id = net.add_process(crate::FaultyProcess::new(stage, fault));
            let model = self.models[replica].with_delay(TimeNs::from_ms(5));
            let shaper = net.add_process(PjdShaper::new(
                format!("r{replica}.shaper"),
                PortId::of(internal),
                output,
                model,
                0x5eed + replica as u64,
            ));
            vec![stage_id, shaper]
        }
    }

    pub(crate) fn tri_model() -> NModularModel {
        NModularModel {
            producer: PjdModel::from_ms(30.0, 2.0, 0.0),
            consumer: PjdModel::from_ms(30.0, 2.0, 120.0),
            replicas: vec![
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 15.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        }
    }

    fn run_tri(faults: Vec<FaultPlan>) -> (usize, Vec<bool>) {
        let model = tri_model();
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = TriReplica {
            models: model.replicas.clone(),
        };
        let tokens = 150u64;
        let (net, ids) = build_n_modular(
            &model,
            &sizing,
            tokens,
            (1, 2),
            Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9))),
            &factory,
            &faults,
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();
        let arrivals = ids.consumer_arrivals(net).len();
        let rep = net
            .channel_as::<NReplicator>(ids.replicator)
            .expect("replicator");
        let sel = net.channel_as::<NSelector>(ids.selector).expect("selector");
        let flagged = (0..3)
            .map(|i| rep.fault(i).is_some() || sel.fault(i).is_some())
            .collect();
        (arrivals, flagged)
    }

    #[test]
    fn sizing_generalizes_pairwise() {
        use rtft_rtc::sizing::SizingReport;
        let model = tri_model();
        let s = NSizingReport::analyze(&model).expect("bounded");
        assert_eq!(s.replica_count(), 3);
        // The 2-replica analysis on the extreme pair lower-bounds the
        // 3-replica threshold.
        let pair = SizingReport::analyze(&rtft_rtc::sizing::DuplicationModel::symmetric(
            model.producer,
            model.consumer,
            [model.replicas[0], model.replicas[2]],
        ))
        .expect("bounded");
        assert!(s.threshold >= pair.selector_threshold);
        assert!(s.detection_bound >= pair.selector_detection_bound);
    }

    #[test]
    fn fault_free_triplication_delivers_everything_once() {
        let (arrivals, flagged) = run_tri(vec![FaultPlan::healthy(); 3]);
        assert_eq!(arrivals, 150);
        assert_eq!(flagged, vec![false, false, false], "no false positives");
    }

    #[test]
    fn single_fault_in_triplicated_network() {
        let (arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_secs(2)),
            FaultPlan::healthy(),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals, 150);
        assert_eq!(flagged, vec![true, false, false]);
    }

    #[test]
    fn two_staggered_faults_are_tolerated() {
        // The headline of the generalisation: n = 3 tolerates two faults.
        let (arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_500)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(3_000)),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals, 150, "two faults masked by the surviving replica");
        assert_eq!(flagged, vec![true, true, false]);
    }

    #[test]
    fn multi_fault_accounting_and_latch_ordering() {
        // Satellite coverage for the fleet supervisor's observation path:
        // with replicas 0 and 1 fail-stopped 1.5 s apart, the detectors
        // must agree on *which* replicas are faulty, latch them in injection
        // order, and keep the survivor's stream flowing.
        let model = tri_model();
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = TriReplica {
            models: model.replicas.clone(),
        };
        let (net, ids) = build_n_modular(
            &model,
            &sizing,
            150,
            (1, 2),
            Arc::new(Payload::U64),
            &factory,
            &[
                FaultPlan::fail_stop_at(TimeNs::from_ms(1_500)),
                FaultPlan::fail_stop_at(TimeNs::from_ms(3_000)),
                FaultPlan::healthy(),
            ],
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();

        let rep = net
            .channel_as::<NReplicator>(ids.replicator)
            .expect("replicator");
        let sel = net.channel_as::<NSelector>(ids.selector).expect("selector");

        // Which replicas are faulty: the union over both detectors is
        // exactly {0, 1}, and each detector's own view is consistent with
        // its healthy_count.
        let mut faulty: Vec<usize> = rep.faulty_indices().chain(sel.faulty_indices()).collect();
        faulty.sort_unstable();
        faulty.dedup();
        assert_eq!(faulty, vec![0, 1]);
        assert_eq!(
            rep.healthy_count() + rep.faulty_indices().count(),
            3,
            "replicator partition must cover all replicas"
        );
        assert_eq!(
            sel.healthy_count() + sel.faulty_indices().count(),
            3,
            "selector partition must cover all replicas"
        );
        assert!(sel.healthy_count() >= 1, "front-runner never latched");

        // Latch ordering follows injection order: replica 0 died first, so
        // every detector that latched both saw 0 before 1.
        let latch = |i: usize| -> Option<TimeNs> {
            let r = rep.fault(i).map(|f| f.at);
            let s = sel.fault(i).map(|f| f.at);
            match (r, s) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let (t0, t1) = (latch(0).expect("0 latched"), latch(1).expect("1 latched"));
        assert!(
            t0 < t1,
            "replica 0 must latch before replica 1 ({t0:?} vs {t1:?})"
        );
        assert!(latch(2).is_none(), "survivor never latched");

        // The survivor's stream is still selected end-to-end.
        assert_eq!(ids.consumer_arrivals(net).len(), 150);
    }

    #[test]
    fn last_healthy_replica_is_never_latched() {
        // Even when every replica dies, the detectors keep at least one
        // unlatched (the front-runner) — the single-fault assumption's
        // graceful edge.
        let (_arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_000)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_600)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(2_200)),
        ]);
        assert!(!flagged[2], "front-runner must survive latching");
    }

    #[test]
    fn n_selector_delivers_groups_once_any_order() {
        let mut s = NSelector::new("s", vec![4, 4, 4], 3);
        let tok = |seq| Token::new(seq, TimeNs::ZERO, Payload::U64(seq));
        // Group 0 arrives in order 1, 0, 2; group 1 in order 2, 0, 1.
        assert_eq!(s.try_write(1, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(
            s.try_write(0, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(2, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(s.try_write(2, tok(1), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(
            s.try_write(0, tok(1), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(
            s.try_write(1, tok(1), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        let mut out = Vec::new();
        while let ReadOutcome::Token(t) = s.try_read(0, TimeNs::ZERO) {
            out.push(t.seq);
        }
        assert_eq!(out, vec![0, 1]);
        assert_eq!(s.enqueued(), 2);
        assert_eq!(s.discarded(), 4);
    }

    #[test]
    fn n_replicator_duplicates_to_all() {
        let mut r = NReplicator::new("r", ReplicatorConfig::new(vec![2, 2, 2]));
        let tok = |seq| Token::new(seq, TimeNs::ZERO, Payload::U64(seq));
        assert_eq!(r.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        for i in 0..3 {
            assert!(matches!(r.try_read(i, TimeNs::ZERO), ReadOutcome::Token(t) if t.seq == 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn single_replica_rejected() {
        let _ = NReplicator::new("r", ReplicatorConfig::new(vec![2]));
    }
}
