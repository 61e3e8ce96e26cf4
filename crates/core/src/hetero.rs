//! Heterogeneous sampled-checker redundancy: full-rate main, `1/k`-rate
//! checker.
//!
//! Duplication and n-modular voting buy their guarantees with `n×` compute.
//! This module implements the third point of the cost/latency trade-off: a
//! single **full-rate main replica** carries the stream, and a lightweight
//! **checker** re-verifies a *sampled projection* — every `k`-th token — of
//! it. Compute cost drops from `2×` to `1 + 1/k` at the price of detection
//! latency growing linearly in `k` (the closed form lives in
//! [`rtft_rtc::detection::HeteroBounds`]).
//!
//! Structure:
//!
//! * [`SampledReplicator`] — one write interface; read interface `0` feeds
//!   the main replica the full stream, read interface `1` feeds the checker
//!   every `k`-th token. The §3.3 overflow latch guards the main queue at
//!   full rate, so the permanent-timing guarantee of the duplicated
//!   structure survives sampling unchanged.
//! * [`SampledCheck`] — the [`ComparePolicy`]: main tokens pass straight
//!   through to the consumer at full rate; every `k`-th main digest is
//!   held as a *sample*, and the checker's `j`-th write is its independent
//!   digest for sample `j`. A mismatch latches the **main** replica
//!   value-faulty (the checker is the trusted, verified side, as in
//!   checker-core architectures). Timing divergence is detected on the
//!   *sample counters* — main samples seen vs. checker votes — with the
//!   sampled threshold `D_s`; the classic stall rule is disabled because
//!   the checker legally runs `k×` slower.
//! * [`HeteroSelector`] — the [`PolicySelector`] instantiation. After a
//!   main latch the stream **keeps flowing** (fail-operational): with no
//!   full-rate standby there is nothing to switch to, so the structure is
//!   detection-only and recovery happens one level up (the fleet heals a
//!   latched job by re-spawning it).
//!
//! All detection remains counter-based — neither channel ever reads a
//! clock.

use crate::arbitration::{
    ArbFault, ArbFaultCause, Arbiter, ArbiterLedger, ComparePolicy, PolicySelector,
};
use crate::builder::{assemble, Assembly};
use crate::fault::FaultPlan;
use rtft_kpn::{ChannelBehavior, Network, NodeId, PortId, ReadOutcome, Token, WriteOutcome};
use rtft_rtc::detection::{sampled_stream_model, HeteroBounds};
use rtft_rtc::{sizing, CurveAnalysisError, PjdModel, TimeNs};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Interface timing models of a sampled-checker stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroModel {
    /// Producer output model (`α_P`).
    pub producer: PjdModel,
    /// Consumer input model (`α_C`).
    pub consumer: PjdModel,
    /// Full-rate main replica interface model.
    pub main: PjdModel,
    /// Checker vote interface model, already at the sampled rate
    /// (period `≈ k · P`).
    pub checker: PjdModel,
    /// Sampling stride: every `k`-th main token is re-verified.
    pub k: u64,
}

impl HeteroModel {
    /// Builds a model where the checker runs at exactly the sampled rate
    /// (`k ×` the producer period) with its own jitter.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_checker_jitter(
        producer: PjdModel,
        consumer: PjdModel,
        main: PjdModel,
        checker_jitter: TimeNs,
        k: u64,
    ) -> Self {
        assert!(k > 0, "sampling stride must be positive");
        let checker = PjdModel::new(producer.period * k, checker_jitter, main.delay);
        HeteroModel {
            producer,
            consumer,
            main,
            checker,
            k,
        }
    }
}

/// The offline analysis of a sampled-checker stage: queue capacities, the
/// sampled divergence threshold `D_s`, and the closed-form bound table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroSizingReport {
    /// Main replicator FIFO capacity (eq. (3), full rate).
    pub main_queue: u64,
    /// Checker replicator FIFO capacity (eq. (3) on the sampled pair).
    pub checker_queue: u64,
    /// Main selector virtual-queue capacity.
    pub selector_capacity_main: u64,
    /// Checker selector virtual-queue capacity (votes are never delivered;
    /// this only bounds in-flight votes).
    pub selector_capacity_checker: u64,
    /// Sampled divergence threshold `D_s` (eq. (5) over the two *sample*
    /// streams — main's `k`-decimated output vs. the checker votes).
    pub sampled_threshold: u64,
}

impl HeteroSizingReport {
    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CurveAnalysisError`] if any rate pairing diverges (the
    /// checker model's long-run rate must equal the sampled main rate).
    pub fn analyze(model: &HeteroModel) -> Result<Self, CurveAnalysisError> {
        let sampled_producer = sampled_stream_model(&model.producer, model.k);
        let sampled_main = sampled_stream_model(&model.main, model.k);
        let main_queue = sizing::fifo_capacity(&model.producer, &model.main)?;
        let checker_queue = sizing::fifo_capacity(&sampled_producer, &model.checker)?;
        let selector_capacity_main = sizing::selector_capacity(&model.consumer, &model.main)?;
        let sampled_threshold = sizing::divergence_threshold(&sampled_main, &model.checker)?;
        Ok(HeteroSizingReport {
            main_queue,
            checker_queue,
            selector_capacity_main,
            // Space only has to admit the votes the checker may be ahead
            // by; D_s bounds that fault-free, plus slack for the initial
            // read-free window.
            selector_capacity_checker: sampled_threshold + 2,
            sampled_threshold,
        })
    }

    /// The closed-form detection bound table for this sizing.
    pub fn bounds(&self, model: &HeteroModel) -> HeteroBounds {
        HeteroBounds::new(
            model.producer,
            model.main,
            model.checker,
            model.k,
            self.sampled_threshold,
            self.main_queue,
        )
    }

    /// Compute cost of the structure relative to the unreplicated
    /// application: `1 + 1/k` (the duplicated structure costs `2`).
    pub fn compute_factor(model: &HeteroModel) -> f64 {
        1.0 + 1.0 / model.k as f64
    }
}

/// Replicator channel of the sampled-checker structure: one write
/// interface; read interface `0` = main (full stream), read interface `1`
/// = checker (every `k`-th token). The §3.3 overflow latch applies per
/// queue; consumption divergence is checked on *sample-normalised* counts.
#[derive(Debug)]
pub struct SampledReplicator {
    name: String,
    queues: [VecDeque<Token>; 2],
    capacity: [usize; 2],
    max_fill: [usize; 2],
    consumed: [u64; 2],
    writes: u64,
    dropped: u64,
    fault: [Option<ArbFault>; 2],
    k: u64,
    divergence_threshold: Option<u64>,
}

impl SampledReplicator {
    /// Creates a sampled replicator: main queue capacity, checker queue
    /// capacity, sampling stride `k`, and optional consumption-divergence
    /// threshold `D_s`.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity or `k == 0`.
    pub fn new(
        name: impl Into<String>,
        capacity: [usize; 2],
        k: u64,
        divergence_threshold: Option<u64>,
    ) -> Self {
        assert!(
            capacity.iter().all(|c| *c > 0),
            "capacities must be positive"
        );
        assert!(k > 0, "sampling stride must be positive");
        SampledReplicator {
            name: name.into(),
            queues: [VecDeque::new(), VecDeque::new()],
            capacity,
            max_fill: [0; 2],
            consumed: [0; 2],
            writes: 0,
            dropped: 0,
            fault: [None, None],
            k,
            divergence_threshold,
        }
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sampling stride `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Fault record of side `i` (`0` = main, `1` = checker), if latched.
    pub fn fault(&self, i: usize) -> Option<ArbFault> {
        self.fault[i]
    }

    /// Number of sides still healthy.
    pub fn healthy_count(&self) -> usize {
        self.fault.iter().filter(|f| f.is_none()).count()
    }

    /// Tokens consumed from side `i` so far — the structure's compute-cost
    /// meter: `consumed(0) + consumed(1)` is the total stage work, versus
    /// `2 × tokens` for the duplicated structure.
    pub fn consumed(&self, i: usize) -> u64 {
        self.consumed[i]
    }

    /// Producer writes swallowed because the main side was already latched.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn latch(&mut self, i: usize, cause: ArbFaultCause, now: TimeNs) {
        self.fault[i] = Some(ArbFault {
            at: now,
            cause,
            group: None,
        });
    }

    fn check_divergence(&mut self, now: TimeNs) {
        let Some(d) = self.divergence_threshold else {
            return;
        };
        if self.healthy_count() < 2 {
            return;
        }
        // Sample-normalised consumption: the main has worked through
        // `ceil(c₀ / k)` samples, the checker through `c₁`.
        let s = [self.consumed[0].div_ceil(self.k), self.consumed[1]];
        for i in 0..2 {
            if self.fault[i].is_none() && s[1 - i].saturating_sub(s[i]) >= d {
                self.latch(i, ArbFaultCause::Divergence, now);
            }
        }
    }
}

impl ChannelBehavior for SampledReplicator {
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        assert_eq!(iface, 0, "sampled replicator has a single write interface");
        let targets = [true, self.writes.is_multiple_of(self.k)];
        // §3.3 overflow latch per full, healthy, targeted queue — never the
        // last healthy side.
        for (i, &targeted) in targets.iter().enumerate() {
            if targeted
                && self.fault[i].is_none()
                && self.queues[i].len() >= self.capacity[i]
                && self.healthy_count() > 1
            {
                self.latch(i, ArbFaultCause::Overflow, now);
            }
        }
        let mut delivered = false;
        let mut healthy_full = false;
        for (i, &targeted) in targets.iter().enumerate() {
            if targeted && self.fault[i].is_none() {
                if self.queues[i].len() < self.capacity[i] {
                    self.queues[i].push_back(token.clone());
                    self.max_fill[i] = self.max_fill[i].max(self.queues[i].len());
                    delivered = true;
                } else {
                    healthy_full = true;
                }
            }
        }
        if delivered {
            self.writes += 1;
            WriteOutcome::Accepted
        } else if healthy_full {
            // The last healthy side is full and cannot be latched: real
            // back-pressure.
            WriteOutcome::Blocked(token)
        } else {
            // Every targeted side is latched (detection-only mode): swallow
            // so the producer — and the checker feed on sample ticks — can
            // keep running.
            self.writes += 1;
            self.dropped += 1;
            WriteOutcome::AcceptedDropped
        }
    }

    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        assert!(iface < 2, "sampled replicator has two read interfaces");
        match self.queues[iface].pop_front() {
            Some(t) => {
                self.consumed[iface] += 1;
                self.check_divergence(now);
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }

    fn write_ifaces(&self) -> usize {
        1
    }

    fn read_ifaces(&self) -> usize {
        2
    }

    fn fill(&self, iface: usize) -> usize {
        self.queues[iface].len()
    }

    fn capacity(&self, iface: usize) -> usize {
        self.capacity[iface]
    }

    fn max_fill(&self, iface: usize) -> usize {
        self.max_fill[iface]
    }

    fn debug_name(&self) -> Option<&str> {
        Some(&self.name)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Arbiter for SampledReplicator {
    fn replica_ifaces(&self) -> usize {
        2
    }

    fn latched(&self, i: usize) -> Option<ArbFault> {
        self.fault[i]
    }
}

/// The sampled-checker [`ComparePolicy`]: interface `0` is the full-rate
/// main stream (delivered straight through), interface `1` the checker's
/// digest votes for every `k`-th main token.
#[derive(Debug)]
pub struct SampledCheck {
    k: u64,
    main_digest: BTreeMap<u64, u64>,
    checker_digest: BTreeMap<u64, u64>,
    samples: u64,
    votes: u64,
    verified: u64,
    mismatches: u64,
}

impl SampledCheck {
    /// A sampled-check policy with stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k > 0, "sampling stride must be positive");
        SampledCheck {
            k,
            main_digest: BTreeMap::new(),
            checker_digest: BTreeMap::new(),
            samples: 0,
            votes: 0,
            verified: 0,
            mismatches: 0,
        }
    }

    /// The sampling stride `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Sampled main tokens observed so far (one per `k` delivered).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples whose main and checker digests have both arrived and been
    /// compared.
    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Digest mismatches caught (each also latches the main replica).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// How many samples the checker currently trails the main stream by —
    /// the per-structure staleness gauge the fleet exports.
    pub fn checker_lag(&self) -> u64 {
        self.samples.saturating_sub(self.votes)
    }

    fn resolve(&mut self, sample: u64, ledger: &mut ArbiterLedger, now: TimeNs) {
        let (Some(m), Some(c)) = (
            self.main_digest.get(&sample).copied(),
            self.checker_digest.get(&sample).copied(),
        ) else {
            return;
        };
        self.main_digest.remove(&sample);
        self.checker_digest.remove(&sample);
        self.verified += 1;
        if m != c {
            self.mismatches += 1;
            // The checker is the trusted side: a disagreement convicts the
            // full-rate main replica.
            ledger.latch(0, ArbFaultCause::ValueMismatch, Some(sample * self.k), now);
        }
    }
}

impl ComparePolicy for SampledCheck {
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        now: TimeNs,
    ) -> WriteOutcome {
        let group = ledger.note_received(iface);
        if iface == 0 {
            // Full-rate pass-through; every k-th digest becomes a sample.
            if group.is_multiple_of(self.k) {
                let sample = group / self.k;
                self.samples += 1;
                self.main_digest.insert(sample, token.payload.digest());
                ledger.deliver(token);
                self.resolve(sample, ledger, now);
            } else {
                ledger.deliver(token);
            }
            WriteOutcome::Accepted
        } else {
            // Checker vote for sample `group`; never delivered downstream.
            // Once the main is latched no further samples will arrive, so
            // the digest is not worth holding.
            self.votes += 1;
            if ledger.fault(0).is_none() {
                self.checker_digest.insert(group, token.payload.digest());
            }
            ledger.discard();
            self.resolve(group, ledger, now);
            WriteOutcome::AcceptedDropped
        }
    }

    fn latched_write(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        _now: TimeNs,
    ) -> WriteOutcome {
        if iface == 0 {
            // Fail-operational: there is no full-rate standby, so a latched
            // main keeps feeding the consumer; the latch is the detection
            // signal the supervisor heals on.
            ledger.note_received(0);
            ledger.deliver(token);
            WriteOutcome::Accepted
        } else {
            ledger.discard();
            WriteOutcome::AcceptedDropped
        }
    }

    fn check_divergence(&mut self, ledger: &mut ArbiterLedger, _iface: usize, now: TimeNs) {
        // Rate-normalised divergence on *sample* counters: main has passed
        // ceil(r₀ / k) samples, the checker has voted r₁ times. The raw
        // ledger rule would insta-latch the k×-slower checker.
        let Some(d) = ledger.threshold() else {
            return;
        };
        if ledger.healthy_count() < 2 {
            return;
        }
        let s = [ledger.received(0).div_ceil(self.k), ledger.received(1)];
        for i in 0..2 {
            if ledger.fault(i).is_none() && s[1 - i].saturating_sub(s[i]) >= d {
                ledger.latch(i, ArbFaultCause::Divergence, None, now);
            }
        }
    }

    fn admits(&self, ledger: &ArbiterLedger, iface: usize) -> bool {
        // Checker votes are discarded on arrival — they never occupy the
        // consumer queue, so the space rule (which compares votes against
        // consumer reads of the *main* stream) must not block them. A
        // main replica that under-delivers would otherwise backpressure
        // the healthy checker into a false replicator-overflow latch.
        iface != 0 || ledger.space(0) > 0
    }
}

/// Selector of the sampled-checker structure: the [`SampledCheck`] policy
/// over the shared [`ArbiterLedger`], with stall detection disabled (the
/// checker legally runs `k×` slower, so space counters carry no signal).
pub type HeteroSelector = PolicySelector<SampledCheck>;

impl HeteroSelector {
    /// Creates a hetero selector: main and checker virtual capacities,
    /// sampled divergence threshold `d_s`, and sampling stride `k`.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity, `d_s == 0`, or `k == 0`.
    pub fn new(
        name: impl Into<String>,
        main_capacity: usize,
        checker_capacity: usize,
        d_s: u64,
        k: u64,
    ) -> Self {
        PolicySelector::from_parts(
            ArbiterLedger::new(name, vec![main_capacity, checker_capacity], Some(d_s), None),
            SampledCheck::new(k),
        )
    }
}

/// A replica factory for the hetero structure: replica `0` is the
/// full-rate main stage, replica `1` the sampled-rate checker stage. Each
/// is a fixed-service transform followed by a
/// [`PjdShaper`](rtft_kpn::PjdShaper) imposing that side's interface
/// model.
#[derive(Debug, Clone)]
pub struct HeteroStageReplica {
    /// Fixed per-token service time of both compute stages.
    pub service: TimeNs,
    /// Output models: `[main (full rate), checker (sampled rate)]`.
    pub out_models: [PjdModel; 2],
    /// Shaper schedule offset; must cover `service` plus producer jitter.
    pub offset: TimeNs,
    /// Base RNG seed; side `i` uses `seed_base + i`.
    pub seed_base: u64,
}

impl HeteroStageReplica {
    /// Builds the factory from a hetero model: service one tenth of the
    /// producer period, offset `service + producer jitter + 1 ms`.
    pub fn from_model(model: &HeteroModel) -> Self {
        let service = model.producer.period / 10;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        HeteroStageReplica {
            service,
            out_models: [model.main, model.checker],
            offset,
            seed_base: 0xc0de,
        }
    }

    /// Overrides the RNG seed base.
    pub fn with_seed_base(mut self, seed_base: u64) -> Self {
        self.seed_base = seed_base;
        self
    }
}

impl crate::ReplicaFactory for HeteroStageReplica {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        let side = if replica == 0 { "main" } else { "checker" };
        crate::builder::shaped_stage(
            net,
            [input, output],
            [side, side],
            self.service,
            self.out_models[replica].with_delay(self.offset),
            self.seed_base.wrapping_add(replica as u64),
            fault,
        )
    }
}

/// Ids of a built hetero network: the same record the duplicated builder
/// returns, with `replicas[0]` the main stage and `replicas[1]` the
/// checker stage.
pub type HeteroIds = crate::DuplicatedIds;

/// Builds a hetero network: producer → sampled replicator → {main,
/// checker} → hetero selector → consumer, with a fault plan per side
/// (`faults[0]` = main, `faults[1]` = checker).
///
/// # Panics
///
/// Panics if `model.k == 0`.
pub fn build_hetero(
    model: &HeteroModel,
    sizing: &HeteroSizingReport,
    token_count: u64,
    seeds: (u64, u64),
    payload: crate::PayloadGenerator,
    factory: &dyn crate::ReplicaFactory,
    faults: &[FaultPlan; 2],
) -> (Network, HeteroIds) {
    assert!(model.k > 0, "sampling stride must be positive");
    assemble(Assembly {
        replicator: Box::new(SampledReplicator::new(
            "sampled-replicator",
            [sizing.main_queue as usize, sizing.checker_queue as usize],
            model.k,
            Some(sizing.sampled_threshold),
        )),
        selector: Box::new(HeteroSelector::new(
            "hetero-selector",
            sizing.selector_capacity_main as usize,
            sizing.selector_capacity_checker as usize,
            sizing.sampled_threshold,
            model.k,
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
mod tests {
    use super::*;
    use crate::fault::CorruptionMode;
    use rtft_kpn::{Engine, Payload};
    use std::sync::Arc;

    fn model(k: u64) -> HeteroModel {
        HeteroModel::with_checker_jitter(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 150.0),
            PjdModel::from_ms(30.0, 5.0, 0.0),
            TimeNs::from_ms(10),
            k,
        )
    }

    fn run(
        k: u64,
        tokens: u64,
        faults: [FaultPlan; 2],
    ) -> (Network, HeteroIds, HeteroSizingReport) {
        let m = model(k);
        let sizing = HeteroSizingReport::analyze(&m).expect("bounded");
        let factory = HeteroStageReplica::from_model(&m).with_seed_base(7);
        let payload: crate::PayloadGenerator =
            Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9)));
        let (net, ids) = build_hetero(&m, &sizing, tokens, (1, 2), payload, &factory, &faults);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(120));
        (engine.into_network(), ids, sizing)
    }

    #[test]
    fn healthy_run_delivers_all_and_verifies_every_kth() {
        for k in [1, 4, 16] {
            let (net, ids, _) = run(k, 96, [FaultPlan::healthy(), FaultPlan::healthy()]);
            assert_eq!(ids.consumer_arrivals(&net).len(), 96, "k={k}");
            let sel = net
                .channel_as::<HeteroSelector>(ids.selector)
                .expect("selector");
            assert!(ids.first_latch(&net).is_none(), "k={k}: no false positive");
            let p = sel.policy();
            assert_eq!(p.samples(), 96u64.div_ceil(k), "k={k}");
            assert_eq!(p.verified(), p.samples(), "k={k}: every sample checked");
            assert_eq!(p.mismatches(), 0);
            // Compute meter: main does all tokens, checker 1/k of them.
            let rep = net
                .channel_as::<SampledReplicator>(ids.replicator)
                .expect("replicator");
            assert_eq!(rep.consumed(0), 96);
            assert_eq!(rep.consumed(1), 96u64.div_ceil(k));
        }
    }

    #[test]
    fn checker_fail_stop_latches_checker_stream_uninterrupted() {
        let (net, ids, _) = run(
            4,
            96,
            [
                FaultPlan::healthy(),
                FaultPlan::fail_stop_at(TimeNs::from_ms(400)),
            ],
        );
        assert_eq!(ids.consumer_arrivals(&net).len(), 96);
        let sel = net
            .channel_as::<HeteroSelector>(ids.selector)
            .expect("selector");
        let rep = net
            .channel_as::<SampledReplicator>(ids.replicator)
            .expect("replicator");
        assert!(sel.fault(0).is_none(), "main never latched");
        let latched = sel.fault(1).or(rep.latched(1));
        assert!(latched.is_some(), "checker latched somewhere");
    }

    #[test]
    fn main_fail_stop_detected_within_sampled_bound() {
        let k = 4;
        let injected = TimeNs::from_ms(400);
        let (net, ids, sizing) = run(
            k,
            200,
            [FaultPlan::fail_stop_at(injected), FaultPlan::healthy()],
        );
        let at = ids.first_latch(&net).expect("main fault detected");
        let bounds = sizing.bounds(&model(k));
        let grace = TimeNs::from_ms(32); // producer period + jitter
        assert!(
            at >= injected && at <= injected + bounds.permanent_timing() + grace,
            "latched at {at:?}, injected {injected:?}, bound {:?}",
            bounds.permanent_timing()
        );
    }

    #[test]
    fn corrupt_main_caught_by_digest_mismatch_fail_operational() {
        let injected = TimeNs::from_ms(500);
        let (net, ids, _) = run(
            4,
            96,
            [
                FaultPlan::corrupt_at(CorruptionMode::BitFlip(3), injected),
                FaultPlan::healthy(),
            ],
        );
        let sel = net
            .channel_as::<HeteroSelector>(ids.selector)
            .expect("selector");
        let f = sel.fault(0).expect("main latched");
        assert_eq!(f.cause, ArbFaultCause::ValueMismatch);
        assert!(sel.policy().mismatches() >= 1);
        // Fail-operational: the stream keeps flowing after the latch.
        assert_eq!(ids.consumer_arrivals(&net).len(), 96);
    }

    #[test]
    fn sizing_scales_with_k() {
        let s1 = HeteroSizingReport::analyze(&model(1)).expect("bounded");
        let s16 = HeteroSizingReport::analyze(&model(16)).expect("bounded");
        assert!(s1.main_queue >= 1 && s16.main_queue >= 1);
        let b1 = s1.bounds(&model(1));
        let b16 = s16.bounds(&model(16));
        assert!(b16.sampled_divergence > b1.sampled_divergence);
        assert!(
            HeteroSizingReport::compute_factor(&model(16))
                < HeteroSizingReport::compute_factor(&model(1))
        );
    }
}
