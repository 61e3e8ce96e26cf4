//! Job descriptions: what one fleet tenant runs, and how to observe it.
//!
//! A *job* is one fault-tolerant network instance — a duplicated pair or an
//! n-modular group built from the `rtft-core` constructors — plus the
//! runtime it should execute under (deterministic DES or OS threads) and a
//! relative completion deadline. Templates are cheap to clone and can be
//! **re-built**: when a run comes back with latched replicas, the executor
//! re-spawns the job from a healed copy of its template (the fleet-level
//! analogue of the paper's replica replacement).
//!
//! This module also owns the *structure recipe*:
//! [`JobTemplate::for_model`] is the one place an application's interface
//! model becomes a sized redundancy structure, [`JobTemplate::build`] its
//! network, [`JobTemplate::bounds`] its analytic detection-bound table and
//! [`des_horizon`] its DES horizon. The serve front-end, the chaos
//! campaigns and the benches all build through it.

use rtft_core::{
    build_duplicated, build_hetero, build_n_modular_voting, instrument, DuplicatedIds,
    DuplicationConfig, FaultPlan, HeteroModel, HeteroSelector, HeteroSizingReport,
    HeteroStageReplica, JitterStageReplica, NJitterStageReplica, NModularModel, NSizingReport,
    PayloadGenerator, ReplicaFactory,
};
use rtft_kpn::threaded::{run_threaded_with, ThreadedConfig, ThreadedRun};
use rtft_kpn::{ChannelBehavior, ChannelId, Engine, Network, NodeId, Payload, PjdSink};
use rtft_obs::{HealthModel, MetricsRegistry};
use rtft_rtc::detection::{DetectionBounds, HeteroBounds};
use rtft_rtc::sizing::{DuplicationModel, SizingReport};
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Fleet-wide unique job identifier, assigned at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A replica factory that can be shared between the template and its
/// healed replacements.
pub type SharedFactory = Arc<dyn ReplicaFactory + Send + Sync>;

/// Which runtime executes the job's network.
#[derive(Debug, Clone, Copy)]
pub enum JobRuntime {
    /// Deterministic discrete-event simulation up to a virtual horizon.
    DiscreteEvent {
        /// Virtual-time limit of the run.
        horizon: TimeNs,
    },
    /// Real OS threads under wall-clock time.
    Threaded {
        /// Hard wall-clock deadline of the run; a run that deadlocks
        /// earlier returns at once (see `rtft_kpn::threaded`).
        deadline: Duration,
    },
}

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
    /// every `k`-th token digest (`rtft_core::hetero`).
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
}

/// A structure's analytic detection-bound table ([`JobTemplate::bounds`]).
#[derive(Debug, Clone)]
pub enum StructureBounds {
    /// Full-rate replicas behind a timing or voting selector.
    Timing(DetectionBounds),
    /// The sampled checker, whose bounds depend on the stride `k`.
    Sampled(HeteroBounds),
}

/// The DES horizon of a `tokens`-token run of `model`: the stream itself,
/// 60 periods for every detector to play out, the consumer's start-up
/// delay and five seconds of drain.
pub fn des_horizon(model: &DuplicationModel, tokens: u64) -> TimeNs {
    model.producer.period * (tokens + 60) + model.consumer.delay + TimeNs::from_secs(5)
}

/// The bound table of `redundancy` over `model`, for callers with no job
/// to run.
///
/// # Panics
///
/// As [`JobTemplate::for_model`].
pub fn structure_bounds(model: &DuplicationModel, redundancy: Redundancy) -> StructureBounds {
    // The table reads the template's model and sizing only; seed, token
    // count and payload are placeholders.
    JobTemplate::for_model(model, redundancy, 0, 0, Arc::new(|_| Payload::Empty)).bounds()
}

/// The seed-independent half of the structure recipe: the structure's
/// interface models and their §3.4 analysis. Everything else in a
/// template — seeds, token count, payload, fault plans — is per job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SizedStructure {
    Duplicated(SizingReport),
    Voting(NModularModel, NSizingReport),
    Sampled(HeteroModel, HeteroSizingReport),
}

impl SizedStructure {
    /// Derives the structure's models from the application's and runs the
    /// curve analysis.
    ///
    /// # Panics
    ///
    /// As [`JobTemplate::for_model`].
    fn analyze(model: &DuplicationModel, redundancy: Redundancy) -> SizedStructure {
        match redundancy {
            Redundancy::Duplicated => SizedStructure::Duplicated(
                SizingReport::analyze(model).expect("profile models are bounded"),
            ),
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
                let sizing = NSizingReport::analyze(&model).expect("profile models are bounded");
                SizedStructure::Voting(model, sizing)
            }
            Redundancy::Hetero { k } => {
                let model = HeteroModel::with_checker_jitter(
                    model.producer,
                    model.consumer,
                    model.replica_out[0],
                    model.replica_out[1].jitter,
                    k,
                );
                let sizing =
                    HeteroSizingReport::analyze(&model).expect("profile models are bounded");
                SizedStructure::Sampled(model, sizing)
            }
        }
    }
}

/// A [`SizedStructure`] under the `(model, redundancy)` *value* it was
/// analysed for.
type SizedEntry = ((DuplicationModel, Redundancy), SizedStructure);

/// Every structure analysed so far. A process sizes a handful of distinct
/// ones (a campaign pass: nine, 270 times over), and `run_scenario`-style
/// callers have no state of their own to keep a prepared template in, so
/// the table is process-wide; it is bounded, and a structure beyond the
/// bound is analysed on every call.
#[derive(Debug)]
struct SizedTable {
    entries: Mutex<Vec<SizedEntry>>,
    analyses: AtomicU64,
}

static SIZED: SizedTable = SizedTable::new();

impl SizedTable {
    const ENTRIES: usize = 64;

    const fn new() -> SizedTable {
        SizedTable {
            entries: Mutex::new(Vec::new()),
            analyses: AtomicU64::new(0),
        }
    }

    fn entries(&self) -> MutexGuard<'_, Vec<SizedEntry>> {
        self.entries
            .lock()
            .expect("no analysis runs under the table lock")
    }

    /// Lookup-or-analyse. The lock is not held across the analysis: two
    /// threads that miss together both analyse, and one result is kept.
    fn get(&self, model: &DuplicationModel, redundancy: Redundancy) -> SizedStructure {
        let key = (*model, redundancy);
        let hit = self.entries().iter().find(|(k, _)| *k == key).cloned();
        if let Some((_, sized)) = hit {
            return sized;
        }
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let sized = SizedStructure::analyze(model, redundancy);
        let mut entries = self.entries();
        if entries.len() < Self::ENTRIES && entries.iter().all(|(k, _)| *k != key) {
            entries.push((key, sized.clone()));
        }
        sized
    }
}

/// The rebuildable description of a job's network.
#[derive(Clone)]
pub enum JobTemplate {
    /// The paper's two-replica duplication (`build_duplicated`).
    Duplicated {
        /// Full duplication config (model, sizing, faults, payload).
        cfg: DuplicationConfig,
        /// Replica subnetwork factory.
        factory: SharedFactory,
    },
    /// n-modular redundancy arbitrated by the value-voting selector
    /// (`build_n_modular_voting`): tolerates silent data corruption in a
    /// replica minority, not just timing faults. Needs ≥ 3 replicas.
    NModularVoting {
        /// Interface timing models.
        model: NModularModel,
        /// Derived queue parameters.
        sizing: NSizingReport,
        /// Tokens the producer emits.
        token_count: u64,
        /// RNG seeds: producer, consumer.
        seeds: (u64, u64),
        /// Token payload generator.
        payload: PayloadGenerator,
        /// Replica subnetwork factory.
        factory: SharedFactory,
        /// One fault plan per replica.
        faults: Vec<FaultPlan>,
    },
    /// The sampled-checker structure (`build_hetero`): a full-rate main
    /// replica spot-checked by a lightweight checker that re-verifies
    /// every `k`-th token digest. Runs record checker-lag and
    /// sampled-vs-verified counters into the job registry.
    Hetero {
        /// Interface timing models (main, checker, stride `k`).
        model: HeteroModel,
        /// Derived queue parameters and sampled threshold.
        sizing: HeteroSizingReport,
        /// Tokens the producer emits.
        token_count: u64,
        /// RNG seeds: producer, consumer.
        seeds: (u64, u64),
        /// Token payload generator.
        payload: PayloadGenerator,
        /// Replica subnetwork factory (side 0 = main, side 1 = checker).
        factory: SharedFactory,
        /// Fault plans: `[main, checker]`.
        faults: [FaultPlan; 2],
    },
}

impl std::fmt::Debug for JobTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobTemplate::Duplicated { cfg, .. } => f
                .debug_struct("JobTemplate::Duplicated")
                .field("cfg", cfg)
                .finish_non_exhaustive(),
            JobTemplate::NModularVoting {
                token_count,
                faults,
                ..
            } => f
                .debug_struct("JobTemplate::NModularVoting")
                .field("replicas", &faults.len())
                .field("token_count", token_count)
                .finish_non_exhaustive(),
            JobTemplate::Hetero {
                model, token_count, ..
            } => f
                .debug_struct("JobTemplate::Hetero")
                .field("k", &model.k)
                .field("token_count", token_count)
                .finish_non_exhaustive(),
        }
    }
}

impl JobTemplate {
    /// The structure recipe: the template that protects an application
    /// described by `model` with `redundancy`. This is the one place that
    /// knows how a profile becomes a sized redundancy structure:
    ///
    /// * every replica computes for `P / `[`SERVICE_DIVISOR`] and shapes
    ///   its output to the profile's replica interface, offset by
    ///   `service + J_producer + 1 ms` so the shaper never starves;
    /// * the third voting replica jitters midway between the profile's two;
    /// * the sampled checker runs at `k · P` with replica 1's jitter;
    /// * producer, consumer and per-replica jitter streams are all derived
    ///   from `seed`;
    /// * capacities and thresholds come from the structure's own §3.4
    ///   analysis of those interface models.
    ///
    /// # Panics
    ///
    /// Panics if the model's rates diverge (no built-in profile does) or
    /// if a hetero stride is zero.
    pub fn for_model(
        model: &DuplicationModel,
        redundancy: Redundancy,
        seed: u64,
        tokens: u64,
        payload: PayloadGenerator,
    ) -> JobTemplate {
        Self::from_sized(SIZED.get(model, redundancy), model, seed, tokens, payload)
    }

    /// The per-job half of the recipe: seeds, batch and replica factory
    /// around an analysed structure.
    fn from_sized(
        sized: SizedStructure,
        model: &DuplicationModel,
        seed: u64,
        tokens: u64,
        payload: PayloadGenerator,
    ) -> JobTemplate {
        let service = model.producer.period / SERVICE_DIVISOR;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        let seeds = (seed ^ 0xA5A5, seed ^ 0x5A5A);
        match sized {
            SizedStructure::Duplicated(sizing) => JobTemplate::Duplicated {
                cfg: DuplicationConfig {
                    model: *model,
                    sizing,
                    token_count: Some(tokens),
                    seeds,
                    faults: [FaultPlan::healthy(), FaultPlan::healthy()],
                    payload,
                },
                factory: Arc::new(JitterStageReplica {
                    service,
                    out_model: model.replica_out.map(|m| m.with_delay(offset)),
                    seeds: [seed ^ 0x11, seed ^ 0x22],
                }),
            },
            SizedStructure::Voting(model, sizing) => JobTemplate::NModularVoting {
                sizing,
                token_count: tokens,
                seeds,
                payload,
                factory: Arc::new(NJitterStageReplica {
                    service,
                    out_models: model.replicas.clone(),
                    offset,
                    seed_base: seed ^ 0x33,
                }),
                faults: vec![FaultPlan::healthy(); 3],
                model,
            },
            SizedStructure::Sampled(model, sizing) => JobTemplate::Hetero {
                sizing,
                token_count: tokens,
                seeds,
                payload,
                factory: Arc::new(HeteroStageReplica {
                    service,
                    out_models: [model.main, model.checker],
                    offset,
                    seed_base: seed ^ 0x44,
                }),
                faults: [FaultPlan::healthy(), FaultPlan::healthy()],
                model,
            },
        }
    }

    /// Arms `replica` with `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `replica >= self.replica_count()`.
    pub fn with_fault(mut self, replica: usize, plan: FaultPlan) -> JobTemplate {
        self.faults_mut()[replica] = plan;
        self
    }

    /// The fault plans the template builds its replicas with, one per
    /// replica.
    fn faults(&self) -> &[FaultPlan] {
        match self {
            JobTemplate::Duplicated { cfg, .. } => &cfg.faults,
            JobTemplate::NModularVoting { faults, .. } => faults,
            JobTemplate::Hetero { faults, .. } => faults,
        }
    }

    fn faults_mut(&mut self) -> &mut [FaultPlan] {
        match self {
            JobTemplate::Duplicated { cfg, .. } => &mut cfg.faults,
            JobTemplate::NModularVoting { faults, .. } => faults,
            JobTemplate::Hetero { faults, .. } => faults,
        }
    }

    /// A copy of the template that runs `tokens` tokens drawn from
    /// `payload`. Everything the recipe derived — models, §3.4 sizing,
    /// seeds, factory, fault plans — is taken over as is, so a structure
    /// sized once can run any number of batches.
    pub fn with_batch(&self, tokens: u64, payload: PayloadGenerator) -> JobTemplate {
        let mut job = self.clone();
        match &mut job {
            JobTemplate::Duplicated { cfg, .. } => {
                cfg.token_count = Some(tokens);
                cfg.payload = payload;
            }
            JobTemplate::NModularVoting {
                token_count,
                payload: of_job,
                ..
            }
            | JobTemplate::Hetero {
                token_count,
                payload: of_job,
                ..
            } => {
                *token_count = tokens;
                *of_job = payload;
            }
        }
        job
    }

    /// Builds one instance of the template's network.
    ///
    /// # Panics
    ///
    /// Panics if the template's sizing and model disagree (propagated from
    /// the `rtft-core` builders).
    pub fn build(&self) -> (Network, DuplicatedIds) {
        match self {
            JobTemplate::Duplicated { cfg, factory } => build_duplicated(cfg, factory.as_ref()),
            JobTemplate::NModularVoting {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            } => build_n_modular_voting(
                model,
                sizing,
                *token_count,
                *seeds,
                Arc::clone(payload),
                factory.as_ref(),
                faults,
            ),
            JobTemplate::Hetero {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            } => build_hetero(
                model,
                sizing,
                *token_count,
                *seeds,
                Arc::clone(payload),
                factory.as_ref(),
                faults,
            ),
        }
    }

    /// The structure's analytic detection-bound table, from the template's
    /// own model and sizing (an n-replica table is taken at the largest
    /// replicator and selector queue).
    pub fn bounds(&self) -> StructureBounds {
        match self {
            JobTemplate::Duplicated { cfg, .. } => {
                StructureBounds::Timing(cfg.sizing.detection_bounds(&cfg.model))
            }
            JobTemplate::NModularVoting { model, sizing, .. } => {
                let largest = |caps: &[u64]| caps.iter().copied().max().unwrap_or(1);
                StructureBounds::Timing(DetectionBounds::new(
                    model.producer,
                    model.consumer,
                    model.replicas.clone(),
                    sizing.threshold,
                    largest(&sizing.replicator_capacity),
                    largest(&sizing.selector_capacity),
                ))
            }
            JobTemplate::Hetero { model, sizing, .. } => {
                StructureBounds::Sampled(sizing.bounds(model))
            }
        }
    }

    /// Number of replicas the template builds.
    pub fn replica_count(&self) -> usize {
        self.faults().len()
    }

    /// Tokens the consumer is expected to receive (0 if unbounded).
    pub fn expected_tokens(&self) -> u64 {
        match self {
            JobTemplate::Duplicated { cfg, .. } => cfg.token_count.unwrap_or(0),
            JobTemplate::NModularVoting { token_count, .. }
            | JobTemplate::Hetero { token_count, .. } => *token_count,
        }
    }

    /// A copy of the template with every fault plan cleared — what a
    /// replacement run is built from.
    pub fn healed(&self) -> JobTemplate {
        let mut healed = self.clone();
        healed.faults_mut().fill(FaultPlan::healthy());
        healed
    }
}

/// One admitted job: a template, a runtime, and a relative deadline.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable tenant/job name (report key).
    pub name: String,
    /// The network to build for each run.
    pub template: JobTemplate,
    /// Completion deadline relative to admission (wall clock); drives the
    /// executor's EDF ordering and the `deadline_met` verdict.
    pub relative_deadline: Duration,
    /// Runtime the network executes under.
    pub runtime: JobRuntime,
}

/// Everything the supervisor needs to know about one finished run.
#[derive(Debug)]
pub struct JobRunResult {
    /// Tokens the consumer actually received.
    pub arrivals: u64,
    /// Tokens the consumer was expected to receive.
    pub expected: u64,
    /// Replica indices latched faulty by either arbitration channel,
    /// ascending, deduplicated.
    pub faulty_replicas: Vec<usize>,
    /// The run's private metrics registry (folded into the fleet registry
    /// by the supervisor).
    pub registry: MetricsRegistry,
    /// Replica health, one entry per replica of every structure: fed live
    /// by both arbitration channels as they latch, with each time-triggered
    /// fault plan's instant registered as its injection.
    pub health: HealthModel,
    /// The consumer's per-token `(arrival time ns, payload digest)` log,
    /// in delivery order — what a streaming front-end pushes back to its
    /// client as `Output` frames.
    pub arrival_log: Vec<(u64, u64)>,
}

impl JobRunResult {
    /// `true` when every expected token arrived (an unbounded job is
    /// complete when it delivered anything at all).
    pub fn completed(&self) -> bool {
        if self.expected == 0 {
            self.arrivals > 0
        } else {
            self.arrivals >= self.expected
        }
    }
}

/// A network after its run, under whichever runtime executed it.
enum FinishedRun {
    Des(Network),
    Threaded(ThreadedRun),
}

/// Runs a built network to completion under `runtime`. The threaded
/// runtime records its per-thread metrics into `registry`; the DES runs
/// bare, so a job's registry holds only what the job itself recorded.
fn run(net: Network, runtime: &JobRuntime, registry: &MetricsRegistry) -> FinishedRun {
    match runtime {
        JobRuntime::DiscreteEvent { horizon } => {
            let mut engine = Engine::new(net);
            engine.run_until(*horizon);
            FinishedRun::Des(engine.into_network())
        }
        JobRuntime::Threaded { deadline } => {
            let config = ThreadedConfig::new(*deadline).with_metrics(registry);
            FinishedRun::Threaded(run_threaded_with(net, &config))
        }
    }
}

impl FinishedRun {
    /// Inspects a channel's final state (`None` only if a threaded run
    /// lost the channel).
    fn channel<R>(&self, id: ChannelId, f: impl FnOnce(&dyn ChannelBehavior) -> R) -> Option<R> {
        match self {
            FinishedRun::Des(net) => Some(f(net.channel(id))),
            FinishedRun::Threaded(run) => run.channel(id.0, f),
        }
    }

    /// The consumer's `(arrival time ns, payload digest)` log. A threaded
    /// run returns every process, so a consumer the deadline stopped still
    /// shows what it received.
    fn arrival_log(&self, consumer: NodeId) -> Vec<(u64, u64)> {
        let sink = match self {
            FinishedRun::Des(net) => net.process_as::<PjdSink>(consumer),
            FinishedRun::Threaded(run) => run.process_as::<PjdSink>("consumer"),
        };
        sink.map_or_else(Vec::new, |s| {
            s.arrivals().iter().map(|&(t, d)| (t.as_ns(), d)).collect()
        })
    }
}

/// Folds a hetero run's per-structure observability into the job
/// registry: how many main tokens were sampled for re-verification, how
/// many of those the checker actually verified, and how far the checker
/// was still running behind the sampled stream when the run ended. Any
/// other selector records nothing.
fn record_hetero_metrics(registry: &MetricsRegistry, selector: &dyn ChannelBehavior) {
    let Some(selector) = selector.as_any().downcast_ref::<HeteroSelector>() else {
        return;
    };
    let check = selector.policy();
    registry
        .counter("hetero.tokens.sampled")
        .add(check.samples());
    registry
        .counter("hetero.tokens.verified")
        .add(check.verified());
    registry
        .gauge("hetero.checker_lag")
        .set(check.checker_lag());
}

/// Builds and runs one instance of the template under the given runtime.
///
/// This is a plain synchronous function: the fleet executor calls it from
/// a pool worker, tests can call it directly.
///
/// # Panics
///
/// Panics if the template's sizing and model disagree (propagated from the
/// `rtft-core` builders) — the executor catches this and marks the run
/// failed rather than poisoning the pool.
pub fn execute(template: &JobTemplate, runtime: &JobRuntime) -> JobRunResult {
    let registry = MetricsRegistry::new();
    let (mut net, ids) = template.build();
    let health = instrument(&mut net, &ids, template.faults(), &registry);
    let finished = run(net, runtime, &registry);
    finished.channel(ids.selector, |c| record_hetero_metrics(&registry, c));
    let faulty_replicas = health
        .replicas()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.first_detected_at_ns.map(|_| i))
        .collect();
    let arrival_log = finished.arrival_log(ids.consumer);
    JobRunResult {
        arrivals: arrival_log.len() as u64,
        expected: template.expected_tokens(),
        faulty_replicas,
        registry,
        health,
        arrival_log,
    }
}

/// Runs a full [`JobSpec`] outside the executor: builds the template and
/// executes it under the spec's runtime, ignoring admission and deadlines.
///
/// This is the WAL replay path — `rtft-serve`'s `replay_verify` re-runs a
/// logged stream's spec through the exact same builder the live server
/// used, so the replayed output digests are comparable bit-for-bit with
/// the logged ones. Determinism holds because every jitter source is
/// seeded from the spec itself.
pub fn execute_spec(spec: &JobSpec) -> JobRunResult {
    execute(&spec.template, &spec.runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::{as_arbiter, CorruptionMode, FaultTrigger};

    fn model_with_period_ms(period: f64) -> DuplicationModel {
        DuplicationModel::symmetric(
            PjdModel::from_ms(period, 2.0, 0.0),
            PjdModel::from_ms(period, 2.0, 3.0 * period),
            [
                PjdModel::from_ms(period, 5.0, 0.0),
                PjdModel::from_ms(period, period, 0.0),
            ],
        )
    }

    const STRUCTURES: [Redundancy; 3] = [
        Redundancy::Duplicated,
        Redundancy::TriVoting,
        Redundancy::Hetero { k: 4 },
    ];

    #[test]
    fn sized_table_analyses_each_distinct_structure_once_up_to_its_bound() {
        let table = SizedTable::new();
        let analyses = || table.analyses.load(Ordering::Relaxed);
        let model = model_with_period_ms(30.0);
        for (n, redundancy) in STRUCTURES.into_iter().enumerate() {
            let first = table.get(&model, redundancy);
            assert_eq!(first, SizedStructure::analyze(&model, redundancy));
            assert_eq!(table.get(&model, redundancy), first);
            assert_eq!(analyses(), n as u64 + 1, "{redundancy:?}");
        }
        // An equal value is the same key, wherever it was built.
        table.get(&model_with_period_ms(30.0), Redundancy::TriVoting);
        assert_eq!(analyses(), 3);

        let bound = SizedTable::ENTRIES as u64;
        for n in 3..bound {
            table.get(
                &model_with_period_ms(31.0 + n as f64),
                Redundancy::Duplicated,
            );
        }
        assert_eq!(analyses(), bound);
        let beyond = model_with_period_ms(29.0);
        let cold = SizedStructure::analyze(&beyond, Redundancy::Duplicated);
        assert_eq!(table.get(&beyond, Redundancy::Duplicated), cold);
        assert_eq!(table.get(&beyond, Redundancy::Duplicated), cold);
        assert_eq!(analyses(), bound + 2, "analysed per call, not stored");
        assert_eq!(table.entries().len() as u64, bound);
        table.get(&model, Redundancy::Duplicated);
        assert_eq!(analyses(), bound + 2, "stored structures still hit");
    }

    /// A template sized through the process-wide table is the template a
    /// cold analysis gives, whatever the seed, token count and payload.
    #[test]
    fn for_model_through_the_table_equals_a_cold_analysis() {
        // A model no other test of this binary sizes, so the first call
        // below is the one that fills its entries.
        let model = model_with_period_ms(23.5);
        let describe = |job: &JobTemplate| {
            let (net, ids) = job.build();
            let horizon = des_horizon(&model, job.expected_tokens());
            let run = execute(job, &JobRuntime::DiscreteEvent { horizon });
            format!(
                "{job:?} {} {:?} {net:?} {:?} {:?} {:?}",
                job.replica_count(),
                job.bounds(),
                net.channel(ids.replicator),
                net.channel(ids.selector),
                run.arrival_log,
            )
        };
        let empty: PayloadGenerator = Arc::new(|_| Payload::Empty);
        let batches: [(u64, u64, PayloadGenerator); 2] =
            [(9, 16, Arc::new(Payload::U64)), (0xBEEF, 24, empty)];
        for redundancy in STRUCTURES {
            for (seed, tokens, payload) in &batches {
                let warm =
                    JobTemplate::for_model(&model, redundancy, *seed, *tokens, Arc::clone(payload));
                let cold = JobTemplate::from_sized(
                    SizedStructure::analyze(&model, redundancy),
                    &model,
                    *seed,
                    *tokens,
                    Arc::clone(payload),
                );
                assert_eq!(describe(&warm), describe(&cold), "{redundancy:?}");
            }
            let stored = SIZED
                .entries()
                .iter()
                .filter(|(key, _)| *key == (model, redundancy))
                .count();
            assert_eq!(stored, 1, "{redundancy:?}: both batches share one entry");
        }
    }

    /// `with_batch` attaches a batch and touches nothing the recipe
    /// derived, on every variant.
    #[test]
    fn with_batch_changes_only_the_batch() {
        let model = DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        );
        let empty: PayloadGenerator = Arc::new(|_| Payload::Empty);
        for redundancy in STRUCTURES {
            let plan = JobTemplate::for_model(&model, redundancy, 9, 0, Arc::clone(&empty));
            let plan = plan.with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_ms(150)));
            let job = plan.with_batch(16, Arc::new(Payload::U64));
            assert_eq!(plan.expected_tokens(), 0, "{plan:?}");
            assert_eq!(job.expected_tokens(), 16, "{job:?}");
            assert_eq!(job.replica_count(), plan.replica_count());
            assert_eq!(
                format!("{:?}", job.bounds()),
                format!("{:?}", plan.bounds())
            );
            // The batch is what runs, under the plan's armed fault.
            let horizon = des_horizon(&model, 16);
            let run = execute(&job, &JobRuntime::DiscreteEvent { horizon });
            assert_eq!(run.faulty_replicas, [0], "{job:?}");
            // (A sampled checker cannot stand in for a stopped main.)
            assert!((1..=16).contains(&run.arrivals), "{job:?}");
            for (i, &(_, digest)) in run.arrival_log.iter().enumerate() {
                assert_eq!(digest, Payload::U64(i as u64).digest(), "{job:?}");
            }
        }
    }

    /// `execute` feeds health live, and what it reads equals the latch
    /// records of a separate run of the same template: per replica, the
    /// injection instant of its plan and the earliest latch at either
    /// channel. Every structure, each replica faulted in turn.
    #[test]
    fn live_health_equals_the_latch_records() {
        let model = model_with_period_ms(30.0);
        let at = TimeNs::from_ms(300);
        let horizon = des_horizon(&model, 48);
        for redundancy in STRUCTURES {
            let mut plans = vec![FaultPlan::fail_stop_at(at)];
            if redundancy != Redundancy::Duplicated {
                plans.push(FaultPlan::corrupt_at(CorruptionMode::BitFlip(3), at));
            }
            for plan in plans {
                for replica in 0..redundancy.replicas() {
                    let job =
                        JobTemplate::for_model(&model, redundancy, 5, 48, Arc::new(Payload::U64))
                            .with_fault(replica, plan);
                    let run = execute(&job, &JobRuntime::DiscreteEvent { horizon });

                    let (net, ids) = job.build();
                    let mut engine = Engine::new(net);
                    engine.run_until(horizon);
                    let latches = [ids.replicator, ids.selector].map(|id| {
                        as_arbiter(engine.network().channel(id))
                            .expect("arbitration channel")
                            .latches()
                    });
                    let reference: Vec<_> = job
                        .faults()
                        .iter()
                        .enumerate()
                        .map(|(i, plan)| {
                            let injected = match plan.trigger {
                                FaultTrigger::AtTime(t) => Some(t.as_ns()),
                                _ => None,
                            };
                            let detected = latches.iter().filter_map(|l| l[i]).map(|f| f.at).min();
                            (injected, detected.map(TimeNs::as_ns))
                        })
                        .collect();
                    let live: Vec<_> = run
                        .health
                        .replicas()
                        .iter()
                        .map(|r| (r.fault_injected_at_ns, r.first_detected_at_ns))
                        .collect();
                    let case = format!("{redundancy:?}, replica {replica}, {plan:?}");
                    assert_eq!(live, reference, "{case}");
                    assert!(
                        reference.iter().any(|r| r.1.is_some()),
                        "{case}: nothing latched"
                    );
                }
            }
        }
    }
}
