//! Construction of reference and duplicated process networks (paper Fig. 1).
//!
//! Given the interface timing models (Table 1), the analysis of §3.4
//! produces a [`SizingReport`]; this module assembles the corresponding
//! runnable networks:
//!
//! * the **reference** network: `producer → F_P → subnetwork → F_C →
//!   consumer`;
//! * the **duplicated** network: `producer → replicator → {R₁, R₂} →
//!   selector → consumer`, with fault plans attached to the replicas.
//!
//! The critical subnetwork itself is supplied by a [`ReplicaFactory`] — a
//! single jittered stage for the synthetic experiments, or a full
//! application pipeline (MJPEG / ADPCM / H.264 in `rtft-apps`).

use crate::arbitration::{as_arbiter, as_arbiter_mut, ArbFault};
use crate::fault::{FaultPlan, FaultTrigger, FaultyProcess};
use crate::obs::DetectionObs;
use crate::replicator::{Replicator, ReplicatorConfig};
use crate::selector::{Selector, SelectorConfig};
use rtft_kpn::{
    ChannelBehavior, ChannelId, Fifo, Network, NodeId, Payload, PjdShaper, PjdSink, PjdSource,
    PortId, Transform,
};
use rtft_obs::{HealthModel, MetricsRegistry};
use rtft_rtc::sizing::{DuplicationModel, SizingReport};
use rtft_rtc::{CurveAnalysisError, PjdModel, TimeNs};
use std::sync::Arc;

/// Shared payload generator: maps a sequence number to token content.
pub type PayloadGenerator = Arc<dyn Fn(u64) -> Payload + Send + Sync>;

/// Builds the critical subnetwork of one replica between two ports.
///
/// Implementations add processes (and any internal channels) to `net` such
/// that tokens flow from `input` to `output`. The `fault` plan must be
/// attached to exactly one process of the subnetwork (conventionally the
/// first stage, so a fail-stop halts both consumption and production).
pub trait ReplicaFactory {
    /// Wires one replica; returns the ids of the processes added.
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId>;
}

/// The simplest replica: a fixed-service transform stage followed by a
/// [`PjdShaper`] imposing the replica's Table 1 output model — the
/// paper's "design diversity … captured by different jitter values".
///
/// The shaper (rather than per-token service jitter) is essential: service
/// jitter larger than the period would accumulate backlog and violate the
/// declared arrival curves, producing divergence false positives. The
/// shaper jitters each token against the nominal schedule instead, so the
/// replica's output is a faithful ⟨P, J⟩ stream.
#[derive(Debug, Clone)]
pub struct JitterStageReplica {
    /// Fixed per-token service time of the compute stage.
    pub service: TimeNs,
    /// Per-replica output interface models (`α_{i,out}` from Table 1).
    /// The model's `delay` field is the shaper's schedule offset and must
    /// cover `service` plus the producer jitter.
    pub out_model: [PjdModel; 2],
    /// Per-replica RNG seeds.
    pub seeds: [u64; 2],
}

impl JitterStageReplica {
    /// Builds the factory from a duplication model: service time one tenth
    /// of the period, shaper offset `service + producer jitter + 1 ms`.
    pub fn from_model(model: &DuplicationModel) -> Self {
        let service = model.producer.period / 10;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        JitterStageReplica {
            service,
            out_model: [
                model.replica_out[0].with_delay(offset),
                model.replica_out[1].with_delay(offset),
            ],
            seeds: [11, 22],
        }
    }

    /// Replaces the per-replica seeds.
    pub fn with_seeds(mut self, seeds: [u64; 2]) -> Self {
        self.seeds = seeds;
        self
    }
}

impl ReplicaFactory for JitterStageReplica {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        shaped_stage(
            net,
            [input, output],
            [&format!("r{replica}"), &format!("replica{replica}")],
            self.service,
            self.out_model[replica],
            self.seeds[replica],
            fault,
        )
    }
}

/// The synthetic replica body every stage factory builds between
/// `ports = [input, output]`: a fixed-service pass-through stage carrying
/// the fault plan, a 4-slot FIFO `<names[0]>.shape`, and a [`PjdShaper`]
/// imposing `out_model`. The processes are `<names[1]>.stage` and
/// `<names[1]>.shaper`; the shaper's seed is the stage's plus `0x5eed`.
pub(crate) fn shaped_stage(
    net: &mut Network,
    ports: [PortId; 2],
    names: [&str; 2],
    service: TimeNs,
    out_model: PjdModel,
    seed: u64,
    fault: FaultPlan,
) -> Vec<NodeId> {
    let [fifo, process] = names;
    let internal = net.add_channel(Fifo::new(format!("{fifo}.shape"), 4));
    let stage = Transform::new(
        format!("{process}.stage"),
        ports[0],
        PortId::of(internal),
        service,
        TimeNs::ZERO,
        seed,
        |p| p,
    );
    let stage_id = net.add_process(FaultyProcess::new(stage, fault));
    let shaper_id = net.add_process(PjdShaper::new(
        format!("{process}.shaper"),
        PortId::of(internal),
        ports[1],
        out_model,
        seed.wrapping_add(0x5eed),
    ));
    vec![stage_id, shaper_id]
}

/// Everything needed to build (and later inspect) an experiment network.
#[derive(Clone)]
pub struct DuplicationConfig {
    /// Interface timing models.
    pub model: DuplicationModel,
    /// Derived queue parameters (§3.4). Usually
    /// [`SizingReport::analyze`]`(&model)`, but overridable for ablations.
    pub sizing: SizingReport,
    /// Number of tokens the producer emits (`None` = unbounded).
    pub token_count: Option<u64>,
    /// RNG seeds: producer, consumer.
    pub seeds: (u64, u64),
    /// Fault plans, one per replica.
    pub faults: [FaultPlan; 2],
    /// Token payload generator.
    pub payload: PayloadGenerator,
}

impl std::fmt::Debug for DuplicationConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DuplicationConfig")
            .field("model", &self.model)
            .field("sizing", &self.sizing)
            .field("token_count", &self.token_count)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl DuplicationConfig {
    /// Builds a config from a timing model, running the §3.4 analysis.
    ///
    /// Defaults: empty payloads, seeds `(1, 2)`, healthy replicas,
    /// unbounded token count.
    ///
    /// # Errors
    ///
    /// Propagates [`CurveAnalysisError`] from the sizing analysis if the
    /// model's rates diverge.
    pub fn from_model(model: DuplicationModel) -> Result<Self, CurveAnalysisError> {
        let sizing = SizingReport::analyze(&model)?;
        Ok(DuplicationConfig {
            model,
            sizing,
            token_count: None,
            seeds: (1, 2),
            faults: [FaultPlan::healthy(), FaultPlan::healthy()],
            payload: Arc::new(|_| Payload::Empty),
        })
    }

    /// Sets the number of tokens the producer emits.
    pub fn with_token_count(mut self, n: u64) -> Self {
        self.token_count = Some(n);
        self
    }

    /// Sets the producer/consumer seeds.
    pub fn with_seeds(mut self, producer: u64, consumer: u64) -> Self {
        self.seeds = (producer, consumer);
        self
    }

    /// Sets the fault plan of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn with_fault(mut self, i: usize, plan: FaultPlan) -> Self {
        self.faults[i] = plan;
        self
    }

    /// Sets the payload generator.
    pub fn with_payload(mut self, payload: PayloadGenerator) -> Self {
        self.payload = payload;
        self
    }
}

/// Ids of the interesting pieces of a built redundancy structure — the
/// paper's duplicated network or any of its generalisations (every
/// `build_*` function returns this type).
#[derive(Debug, Clone)]
pub struct DuplicatedIds {
    /// The replicator channel.
    pub replicator: ChannelId,
    /// The selector channel.
    pub selector: ChannelId,
    /// The producer process.
    pub producer: NodeId,
    /// The consumer process (a [`PjdSink`]).
    pub consumer: NodeId,
    /// The processes of each replica (hetero: `[main, checker]`).
    pub replicas: Vec<Vec<NodeId>>,
}

impl DuplicatedIds {
    /// The replicator's per-replica fault records after a run.
    ///
    /// # Panics
    ///
    /// Panics if the network does not contain the expected replicator (ids
    /// from a different build).
    pub fn replicator_faults(&self, net: &Network) -> Vec<Option<ArbFault>> {
        as_arbiter(net.channel(self.replicator))
            .expect("replicator channel")
            .latches()
    }

    /// The selector's per-replica fault records after a run.
    ///
    /// # Panics
    ///
    /// Panics if the network does not contain the expected selector.
    pub fn selector_faults(&self, net: &Network) -> Vec<Option<ArbFault>> {
        as_arbiter(net.channel(self.selector))
            .expect("selector channel")
            .latches()
    }

    /// Earliest latch instant across both channels, if any replica latched.
    pub fn first_latch(&self, net: &Network) -> Option<TimeNs> {
        [self.replicator, self.selector]
            .into_iter()
            .filter_map(|id| as_arbiter(net.channel(id))?.first_latch())
            .min()
    }

    /// The consumer's recorded arrivals after a run.
    ///
    /// # Panics
    ///
    /// Panics if the network does not contain the expected sink.
    pub fn consumer_arrivals<'a>(&self, net: &'a Network) -> &'a [(TimeNs, u64)] {
        net.process_as::<PjdSink>(self.consumer)
            .expect("consumer sink")
            .arrivals()
    }
}

/// Attaches observability to a freshly built redundancy structure of any
/// kind: one [`HealthModel`] over `faults.len()` replicas, fed by both
/// arbitration channels as they latch, plus the `core.detections` /
/// `core.selector.discarded` counters in `registry`.
///
/// Time-triggered fault plans are pre-registered as injection instants,
/// so the health model's detection-latency histogram measures
/// `detected_at − injected_at` without the runtime ever reading a clock
/// (both instants are virtual times the DES already carries). Pass the
/// fault plans the structure was built with, one per replica.
///
/// Call between the `build_*` function and engine construction.
///
/// # Panics
///
/// Panics if `ids` do not match `net` (channels from a different build).
pub fn instrument(
    net: &mut Network,
    ids: &DuplicatedIds,
    faults: &[FaultPlan],
    registry: &MetricsRegistry,
) -> HealthModel {
    let health = HealthModel::new(faults.len());
    for (i, plan) in faults.iter().enumerate() {
        if let FaultTrigger::AtTime(t) = plan.trigger {
            health.note_fault_injected(i, t.as_ns());
        }
    }
    let obs = DetectionObs::new(registry, health.clone());
    for id in [ids.replicator, ids.selector] {
        as_arbiter_mut(net.channel_mut(id))
            .expect("arbitration channel")
            .attach_obs(obs.clone());
    }
    health
}

/// [`instrument`] for the paper's duplicated network, taking the fault
/// plans from the config it was built from:
///
/// ```
/// use rtft_core::{build_duplicated, instrument_duplicated, DuplicationConfig,
///                 FaultPlan, JitterStageReplica};
/// use rtft_kpn::Engine;
/// use rtft_obs::{MetricsRegistry, ReplicaStatus};
/// use rtft_rtc::sizing::DuplicationModel;
/// use rtft_rtc::{PjdModel, TimeNs};
///
/// let model = DuplicationModel::symmetric(
///     PjdModel::from_ms(30.0, 2.0, 0.0),
///     PjdModel::from_ms(30.0, 2.0, 90.0),
///     [PjdModel::from_ms(30.0, 5.0, 0.0), PjdModel::from_ms(30.0, 30.0, 0.0)],
/// );
/// let cfg = DuplicationConfig::from_model(model)?
///     .with_token_count(60)
///     .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
/// let factory = JitterStageReplica::from_model(&cfg.model);
/// let (mut net, ids) = build_duplicated(&cfg, &factory);
/// let registry = MetricsRegistry::new();
/// let health = instrument_duplicated(&mut net, &ids, &cfg, &registry);
/// let mut engine = Engine::new(net).with_metrics(&registry);
/// engine.run_until(TimeNs::from_secs(20));
/// assert_eq!(health.status(0), ReplicaStatus::Faulty);
/// assert_eq!(health.status(1), ReplicaStatus::Healthy);
/// # Ok::<(), rtft_rtc::CurveAnalysisError>(())
/// ```
///
/// # Panics
///
/// Panics if `ids` do not match `net` (channels from a different build).
pub fn instrument_duplicated(
    net: &mut Network,
    ids: &DuplicatedIds,
    cfg: &DuplicationConfig,
    registry: &MetricsRegistry,
) -> HealthModel {
    instrument(net, ids, &cfg.faults, registry)
}

/// Builds the duplicated process network of Fig. 1 (bottom).
///
/// Queue capacities and the divergence thresholds come from
/// `cfg.sizing`; the consumer is offset by its model's `delay` so the
/// replicas can establish the initial fill `F_{C,0}` before the first read
/// (eq. (4)).
pub fn build_duplicated(
    cfg: &DuplicationConfig,
    factory: &dyn ReplicaFactory,
) -> (Network, DuplicatedIds) {
    let sizing = &cfg.sizing;
    assemble(Assembly {
        replicator: Box::new(Replicator::new(
            "replicator",
            ReplicatorConfig::new(sizing.replicator_capacity.map(|c| c as usize))
                .with_divergence_threshold(sizing.replicator_threshold),
        )),
        selector: Box::new(Selector::new(
            "selector",
            SelectorConfig::new(
                sizing.selector_capacity.map(|c| c as usize),
                sizing.selector_threshold,
            ),
        )),
        producer: cfg.model.producer,
        consumer: cfg.model.consumer,
        token_count: cfg.token_count,
        seeds: cfg.seeds,
        payload: Arc::clone(&cfg.payload),
        factory,
        faults: &cfg.faults,
    })
}

/// What every redundancy structure is assembled from: its two arbitration
/// channels, the producer/consumer interface models, and one replica
/// subnetwork per fault plan.
pub(crate) struct Assembly<'a> {
    pub replicator: Box<dyn ChannelBehavior>,
    pub selector: Box<dyn ChannelBehavior>,
    pub producer: PjdModel,
    pub consumer: PjdModel,
    pub token_count: Option<u64>,
    pub seeds: (u64, u64),
    pub payload: PayloadGenerator,
    pub factory: &'a dyn ReplicaFactory,
    pub faults: &'a [FaultPlan],
}

/// Wires producer → replicator → one replica per fault plan → selector →
/// consumer. Channel and process ids follow this insertion order, which
/// the seeded reports depend on.
pub(crate) fn assemble(a: Assembly<'_>) -> (Network, DuplicatedIds) {
    let mut net = Network::new();
    let replicator = net.add_channel_boxed(a.replicator);
    let selector = net.add_channel_boxed(a.selector);

    let payload = a.payload;
    let producer = net.add_process(PjdSource::new(
        "producer",
        PortId::of(replicator),
        a.producer,
        a.seeds.0,
        a.token_count,
        move |seq| payload(seq),
    ));

    let replicas = a
        .faults
        .iter()
        .enumerate()
        .map(|(i, fault)| {
            a.factory.build(
                &mut net,
                PortId::iface(replicator, i),
                PortId::iface(selector, i),
                i,
                *fault,
            )
        })
        .collect();

    let consumer = net.add_process(PjdSink::new(
        "consumer",
        PortId::of(selector),
        a.consumer,
        a.seeds.1,
        a.token_count,
    ));

    (
        net,
        DuplicatedIds {
            replicator,
            selector,
            producer,
            consumer,
            replicas,
        },
    )
}

/// Ids of the interesting pieces of a built reference network.
#[derive(Debug, Clone)]
pub struct ReferenceIds {
    /// Producer-side FIFO `F_P`.
    pub input_fifo: ChannelId,
    /// Consumer-side FIFO `F_C`.
    pub output_fifo: ChannelId,
    /// The producer process.
    pub producer: NodeId,
    /// The consumer process (a [`PjdSink`]).
    pub consumer: NodeId,
    /// The subnetwork's processes.
    pub subnetwork: Vec<NodeId>,
}

impl ReferenceIds {
    /// The consumer's recorded arrivals after a run.
    ///
    /// # Panics
    ///
    /// Panics if the network does not contain the expected sink.
    pub fn consumer_arrivals<'a>(&self, net: &'a Network) -> &'a [(TimeNs, u64)] {
        net.process_as::<PjdSink>(self.consumer)
            .expect("consumer sink")
            .arrivals()
    }
}

/// Builds the un-replicated reference network of Fig. 1 (top), using
/// replica 0's factory slot as "the" subnetwork (healthy, no fault plan).
///
/// `F_P` and `F_C` take the larger of the two per-replica capacities so the
/// same sizing report serves both networks.
pub fn build_reference(
    cfg: &DuplicationConfig,
    factory: &dyn ReplicaFactory,
) -> (Network, ReferenceIds) {
    let mut net = Network::new();
    let sizing = &cfg.sizing;

    let f_p = sizing.replicator_capacity[0].max(sizing.replicator_capacity[1]) as usize;
    let f_c = sizing.selector_queue_size() as usize;
    let input_fifo = net.add_channel(Fifo::new("F_P", f_p));
    let output_fifo = net.add_channel(Fifo::new("F_C", f_c));

    let payload = Arc::clone(&cfg.payload);
    let producer = net.add_process(PjdSource::new(
        "producer",
        PortId::of(input_fifo),
        cfg.model.producer,
        cfg.seeds.0,
        cfg.token_count,
        move |seq| payload(seq),
    ));
    let subnetwork = factory.build(
        &mut net,
        PortId::of(input_fifo),
        PortId::of(output_fifo),
        0,
        FaultPlan::healthy(),
    );
    let consumer = net.add_process(PjdSink::new(
        "consumer",
        PortId::of(output_fifo),
        cfg.model.consumer,
        cfg.seeds.1,
        cfg.token_count,
    ));

    (
        net,
        ReferenceIds {
            input_fifo,
            output_fifo,
            producer,
            consumer,
            subnetwork,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::{Engine, RunOutcome};
    use rtft_rtc::PjdModel;

    fn mjpeg_like_config() -> DuplicationConfig {
        let model = DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            // Consumer delayed one period to establish the initial fill.
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        );
        DuplicationConfig::from_model(model)
            .expect("bounded model")
            .with_token_count(200)
            .with_payload(Arc::new(Payload::U64))
    }

    fn factory() -> JitterStageReplica {
        JitterStageReplica::from_model(&mjpeg_like_config().model)
    }

    #[test]
    fn fault_free_duplicated_network_delivers_everything() {
        let cfg = mjpeg_like_config();
        let (net, ids) = build_duplicated(&cfg, &factory());
        let mut engine = Engine::new(net);
        let outcome = engine.run_until(TimeNs::from_secs(30));
        assert!(
            matches!(
                outcome,
                RunOutcome::Completed { .. } | RunOutcome::Quiescent { .. }
            ),
            "{outcome:?}"
        );
        let arrivals = ids.consumer_arrivals(engine.network());
        assert_eq!(arrivals.len(), 200);
        // No fault detected anywhere.
        assert_eq!(ids.replicator_faults(engine.network()), [None, None]);
        assert_eq!(ids.selector_faults(engine.network()), [None, None]);
    }

    #[test]
    fn fault_free_output_matches_reference() {
        let cfg = mjpeg_like_config();
        let (dup_net, dup_ids) = build_duplicated(&cfg, &factory());
        let (ref_net, ref_ids) = build_reference(&cfg, &factory());

        let mut dup = Engine::new(dup_net);
        dup.run_until(TimeNs::from_secs(30));
        let mut reference = Engine::new(ref_net);
        reference.run_until(TimeNs::from_secs(30));

        let dup_vals: Vec<u64> = dup_ids
            .consumer_arrivals(dup.network())
            .iter()
            .map(|(_, d)| *d)
            .collect();
        let ref_vals: Vec<u64> = ref_ids
            .consumer_arrivals(reference.network())
            .iter()
            .map(|(_, d)| *d)
            .collect();
        assert_eq!(dup_vals, ref_vals, "Theorem 2: value sequences must match");
    }

    #[test]
    fn fail_stop_is_detected_and_masked() {
        let fault_at = TimeNs::from_secs(3);
        let cfg = mjpeg_like_config().with_fault(0, FaultPlan::fail_stop_at(fault_at));
        let (net, ids) = build_duplicated(&cfg, &factory());
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));

        // All tokens still delivered (fault masked by replica 1).
        let arrivals = ids.consumer_arrivals(engine.network());
        assert_eq!(arrivals.len(), 200, "consumer must not lose tokens");

        // Replica 0 flagged at one or both sites; replica 1 never.
        let rep = ids.replicator_faults(engine.network());
        let sel = ids.selector_faults(engine.network());
        assert!(
            rep[0].is_some() || sel[0].is_some(),
            "fault must be detected"
        );
        assert!(
            rep[1].is_none() && sel[1].is_none(),
            "healthy replica must not be flagged"
        );

        // Detection happened after the injection, within a plausible bound.
        for f in rep[0]
            .iter()
            .map(|f| f.at)
            .chain(sel[0].iter().map(|f| f.at))
        {
            assert!(f >= fault_at, "detected at {f} before injection {fault_at}");
            assert!(
                f <= fault_at + TimeNs::from_secs(1),
                "detection latency implausibly large: {}",
                f - fault_at
            );
        }
    }

    #[test]
    fn values_survive_fault_identical_to_reference() {
        let cfg = mjpeg_like_config().with_fault(1, FaultPlan::fail_stop_at(TimeNs::from_secs(2)));
        let (dup_net, dup_ids) = build_duplicated(&cfg, &factory());
        let (ref_net, ref_ids) = build_reference(&cfg, &factory());

        let mut dup = Engine::new(dup_net);
        dup.run_until(TimeNs::from_secs(30));
        let mut reference = Engine::new(ref_net);
        reference.run_until(TimeNs::from_secs(30));

        let dup_vals: Vec<u64> = dup_ids
            .consumer_arrivals(dup.network())
            .iter()
            .map(|(_, d)| *d)
            .collect();
        let ref_vals: Vec<u64> = ref_ids
            .consumer_arrivals(reference.network())
            .iter()
            .map(|(_, d)| *d)
            .collect();
        assert_eq!(dup_vals, ref_vals, "Theorem 2 under a single fault");
    }

    #[test]
    fn observed_fill_stays_within_theoretical_capacity() {
        let cfg = mjpeg_like_config();
        let (net, ids) = build_duplicated(&cfg, &factory());
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();
        for i in 0..2 {
            let max_fill = net.channel(ids.replicator).max_fill(i);
            let cap = cfg.sizing.replicator_capacity[i] as usize;
            assert!(
                max_fill <= cap,
                "replicator queue {i}: fill {max_fill} > cap {cap}"
            );
        }
        let sel_fill = net.channel(ids.selector).max_fill(0);
        assert!(sel_fill <= cfg.sizing.selector_queue_size() as usize);
    }
}
