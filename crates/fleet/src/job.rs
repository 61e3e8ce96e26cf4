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
    as_arbiter, build_duplicated, build_hetero, build_n_modular, build_n_modular_voting,
    instrument_duplicated, ArbFault, DuplicatedIds, DuplicationConfig, FaultPlan, FaultTrigger,
    HeteroModel, HeteroSelector, HeteroSizingReport, HeteroStageReplica, JitterStageReplica,
    NJitterStageReplica, NModularModel, NSizingReport, PayloadGenerator, ReplicaFactory,
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
    /// The n-replica generalisation (`build_n_modular`).
    NModular {
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
            JobTemplate::NModular {
                token_count,
                faults,
                ..
            } => f
                .debug_struct("JobTemplate::NModular")
                .field("replicas", &faults.len())
                .field("token_count", token_count)
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
        match &mut self {
            JobTemplate::Duplicated { cfg, .. } => cfg.faults[replica] = plan,
            JobTemplate::NModular { faults, .. } | JobTemplate::NModularVoting { faults, .. } => {
                faults[replica] = plan
            }
            JobTemplate::Hetero { faults, .. } => faults[replica] = plan,
        }
        self
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
            JobTemplate::NModular {
                token_count,
                payload: of_job,
                ..
            }
            | JobTemplate::NModularVoting {
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
            JobTemplate::NModular {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            }
            | JobTemplate::NModularVoting {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            } => {
                let build = if matches!(self, JobTemplate::NModular { .. }) {
                    build_n_modular
                } else {
                    build_n_modular_voting
                };
                build(
                    model,
                    sizing,
                    *token_count,
                    *seeds,
                    Arc::clone(payload),
                    factory.as_ref(),
                    faults,
                )
            }
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
            JobTemplate::NModular { model, sizing, .. }
            | JobTemplate::NModularVoting { model, sizing, .. } => {
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
        match self {
            JobTemplate::Duplicated { .. } | JobTemplate::Hetero { .. } => 2,
            JobTemplate::NModular { faults, .. } | JobTemplate::NModularVoting { faults, .. } => {
                faults.len()
            }
        }
    }

    /// Tokens the consumer is expected to receive (0 if unbounded).
    pub fn expected_tokens(&self) -> u64 {
        match self {
            JobTemplate::Duplicated { cfg, .. } => cfg.token_count.unwrap_or(0),
            JobTemplate::NModular { token_count, .. }
            | JobTemplate::NModularVoting { token_count, .. }
            | JobTemplate::Hetero { token_count, .. } => *token_count,
        }
    }

    /// A copy of the template with every fault plan cleared — what a
    /// replacement run is built from.
    pub fn healed(&self) -> JobTemplate {
        let mut healed = self.clone();
        match &mut healed {
            JobTemplate::Duplicated { cfg, .. } => cfg.faults.fill(FaultPlan::healthy()),
            JobTemplate::NModular { faults, .. } | JobTemplate::NModularVoting { faults, .. } => {
                faults.fill(FaultPlan::healthy())
            }
            JobTemplate::Hetero { faults, .. } => faults.fill(FaultPlan::healthy()),
        }
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
    /// Replica health (duplicated jobs only; n-modular jobs report faults
    /// through `faulty_replicas`).
    pub health: Option<HealthModel>,
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

    /// Per-replica latch records of an arbitration channel.
    fn latches(&self, id: ChannelId) -> Vec<Option<ArbFault>> {
        self.channel(id, |c| as_arbiter(c).map(|a| a.latches()))
            .flatten()
            .unwrap_or_default()
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
/// was still running behind the sampled stream when the run ended.
fn record_hetero_metrics(registry: &MetricsRegistry, selector: &dyn ChannelBehavior) {
    let (samples, verified, lag) =
        selector
            .as_any()
            .downcast_ref::<HeteroSelector>()
            .map_or((0, 0, 0), |s| {
                let check = s.policy();
                (check.samples(), check.verified(), check.checker_lag())
            });
    registry.counter("hetero.tokens.sampled").add(samples);
    registry.counter("hetero.tokens.verified").add(verified);
    registry.gauge("hetero.checker_lag").set(lag);
}

/// Builds a hetero run's health view after the fact: injection instants
/// from the fault plans, detection instants from the two channels' latch
/// records. The front-end reads detection latencies off this exactly as
/// it does for duplicated jobs.
fn hetero_health(
    faults: &[FaultPlan; 2],
    rep: &[Option<ArbFault>],
    sel: &[Option<ArbFault>],
) -> HealthModel {
    let health = HealthModel::new(2);
    for (i, plan) in faults.iter().enumerate() {
        if let FaultTrigger::AtTime(t) = plan.trigger {
            health.note_fault_injected(i, t.as_ns());
        }
    }
    for i in 0..2 {
        let mut events: Vec<_> = [(rep, true), (sel, false)]
            .into_iter()
            .filter_map(|(latches, at_replicator)| {
                let f = latches.get(i).copied().flatten()?;
                Some((f.cause.site(at_replicator), f.at.as_ns()))
            })
            .collect();
        // `on_detection` takes the first call as the first detection, so
        // feed the sites in time order.
        events.sort_by_key(|e| e.1);
        for (site, at) in events {
            health.on_detection(i, site, at);
        }
    }
    health
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
    // Duplicated jobs get their health model attached live; hetero jobs
    // get one reconstructed from the latches after the run.
    let live_health = match template {
        JobTemplate::Duplicated { cfg, .. } => {
            Some(instrument_duplicated(&mut net, &ids, cfg, &registry))
        }
        _ => None,
    };
    let finished = run(net, runtime, &registry);

    let rep = finished.latches(ids.replicator);
    let sel = finished.latches(ids.selector);
    let latched =
        |latches: &[Option<ArbFault>], i: usize| latches.get(i).is_some_and(Option::is_some);
    let faulty_replicas = (0..template.replica_count())
        .filter(|&i| latched(&rep, i) || latched(&sel, i))
        .collect();

    let health = match template {
        JobTemplate::Hetero { faults, .. } => {
            finished.channel(ids.selector, |c| record_hetero_metrics(&registry, c));
            Some(hetero_health(faults, &rep, &sel))
        }
        _ => live_health,
    };
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
        let recipe = |r| JobTemplate::for_model(&model, r, 9, 0, Arc::clone(&empty));
        let JobTemplate::NModularVoting {
            model: n_model,
            sizing,
            token_count,
            seeds,
            payload,
            factory,
            faults,
        } = recipe(Redundancy::TriVoting)
        else {
            unreachable!("tri-voting is the voting variant");
        };
        let timing_only = JobTemplate::NModular {
            model: n_model,
            sizing,
            token_count,
            seeds,
            payload,
            factory,
            faults,
        };
        let plans = [
            recipe(Redundancy::Duplicated),
            timing_only,
            recipe(Redundancy::TriVoting),
            recipe(Redundancy::Hetero { k: 4 }),
        ];
        for plan in plans {
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
}
