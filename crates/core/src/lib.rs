//! # rtft-core — timing fault detection & tolerance for process networks
//!
//! The primary contribution of *"An Efficient Real Time Fault Detection and
//! Tolerance Framework Validated on the Intel SCC Processor"* (Rai, Huang,
//! Stoimenov, Thiele — DAC 2014), reimplemented as a Rust library.
//!
//! A safety-critical streaming application (a Kahn-style process network)
//! is made tolerant to a single permanent **timing fault** by duplicating
//! its critical subnetwork and wrapping the two replicas between two
//! special arbitration channels:
//!
//! * the [`Replicator`] duplicates the producer stream to both replicas and
//!   detects a replica that stops (or slows) *consuming* — a write attempt
//!   that finds a replica queue full latches that replica faulty (§3.3) and
//!   un-blocks the producer, avoiding the deadlock of §1.1;
//! * the [`Selector`] merges the replica outputs, delivering the first
//!   token of each duplicate pair and discarding the late one (§3.1), and
//!   detects a replica that stops (or slows) *producing* via the
//!   divergence threshold `D` of eq. (5) and/or the stall rule.
//!
//! Neither channel ever reads a clock — all detection is counter-based,
//! with the counters' thresholds derived offline by `rtft-rtc` from the
//! application's arrival-curve models.
//!
//! Both channels exist once, for any replica count. [`Replicator`] is the
//! n-way replicator ([`NReplicator`] is the same type); every selector is
//! a [`PolicySelector`] over the shared [`ArbiterLedger`], differing only
//! in its [`ComparePolicy`]: [`Selector`] (the paper's pair,
//! [`PaperPair`]), [`NSelector`] ([`FirstOfGroup`]), [`VotingSelector`]
//! (majority digest vote) and [`HeteroSelector`] (sampled checker, fed by
//! the [`SampledReplicator`]). A latch at any of them is one [`ArbFault`],
//! read back through [`Arbiter`] / [`as_arbiter`]; the four `build_*`
//! functions assemble the same producer → replicator → replicas →
//! selector → consumer shape and return the same [`DuplicatedIds`].
//!
//! # Quick start
//!
//! ```
//! use rtft_core::{
//!     build_duplicated, DuplicationConfig, FaultPlan, JitterStageReplica,
//! };
//! use rtft_kpn::{Engine, Payload};
//! use rtft_rtc::sizing::DuplicationModel;
//! use rtft_rtc::{PjdModel, TimeNs};
//! use std::sync::Arc;
//!
//! // Interface models: ~30 fps with differing replica jitter (Table 1).
//! let model = DuplicationModel::symmetric(
//!     PjdModel::from_ms(30.0, 2.0, 0.0),
//!     PjdModel::from_ms(30.0, 2.0, 90.0), // consumer starts one hyperperiod late
//!     [PjdModel::from_ms(30.0, 5.0, 0.0), PjdModel::from_ms(30.0, 30.0, 0.0)],
//! );
//! let cfg = DuplicationConfig::from_model(model)?
//!     .with_token_count(100)
//!     .with_payload(Arc::new(Payload::U64))
//!     // Replica 0 fail-stops after one second.
//!     .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
//!
//! let replica = JitterStageReplica::from_model(&cfg.model).with_seeds([11, 22]);
//! let (net, ids) = build_duplicated(&cfg, &replica);
//! let mut engine = Engine::new(net);
//! engine.run_until(TimeNs::from_secs(20));
//!
//! // The fault was detected…
//! let faults = ids.selector_faults(engine.network());
//! assert!(faults[0].is_some() || ids.replicator_faults(engine.network())[0].is_some());
//! // …and masked: the consumer received every token.
//! assert_eq!(ids.consumer_arrivals(engine.network()).len(), 100);
//! # Ok::<(), rtft_rtc::CurveAnalysisError>(())
//! ```

#![warn(missing_docs)]

pub mod arbitration;
mod builder;
pub mod dot;
pub mod equivalence;
mod fault;
pub mod hetero;
pub mod nmodular;
mod obs;
mod replicator;
mod selector;
mod voting;

// The streaming checksum the equivalence checks and the WAL record format
// share — re-exported so fault-tolerance code can name it without reaching
// into the runtime crate.
pub use rtft_kpn::{digest_bytes, Digest};

pub use arbitration::{
    as_arbiter, ArbFault, ArbFaultCause, Arbiter, ArbiterLedger, ComparePolicy, FirstOfGroup,
    PolicySelector,
};
pub use builder::{
    build_duplicated, build_reference, instrument_duplicated, DuplicatedIds, DuplicationConfig,
    JitterStageReplica, PayloadGenerator, ReferenceIds, ReplicaFactory,
};
pub use fault::{CorruptionMode, FaultKind, FaultPlan, FaultTrigger, FaultyProcess};
pub use hetero::{
    build_hetero, HeteroIds, HeteroModel, HeteroSelector, HeteroSizingReport, HeteroStageReplica,
    SampledCheck, SampledReplicator,
};
pub use nmodular::{
    build_n_modular, NJitterStageReplica, NModularIds, NModularModel, NReplicator, NSelector,
    NSizingReport,
};
pub use obs::DetectionObs;
pub use replicator::{Replicator, ReplicatorConfig};
pub use selector::{PaperPair, Selector, SelectorConfig};
pub use voting::{build_n_modular_voting, VotingSelector};
