//! # rtft-fleet — multi-tenant fleet execution for rtft networks
//!
//! The paper makes *one* application tolerant to *one* timing fault. This
//! crate scales that out: a stream of independent jobs — each a duplicated
//! or n-modular fault-tolerant network built by `rtft-core` — executes
//! concurrently on a bounded worker pool, and the fleet layer supplies
//! what a single network cannot:
//!
//! * **Admission control with backpressure** — [`FleetExecutor::submit`]
//!   is non-blocking; when the outstanding-job limit is reached it returns
//!   [`Admission::Rejected`] so the caller sheds load, just as the paper's
//!   replicator drops a faulty replica's stream rather than deadlocking.
//! * **Earliest-deadline-first scheduling** — each job's absolute deadline
//!   (admission time + relative deadline) is its priority on the
//!   [`WorkerPool`](rtft_kpn::WorkerPool)'s single run queue: a free
//!   worker always takes the globally most urgent run, and a worker with
//!   nothing to run sleeps until the next submission.
//! * **Health-aware replica replacement** — a run whose arbitration
//!   channels latched a replica faulty still completes (fault masking),
//!   then the fleet re-spawns the job from a healed copy of its template
//!   and records the time-to-recovery; the [`FleetSupervisor`] folds every
//!   run's metrics and [`HealthModel`](rtft_obs::HealthModel) into one
//!   fleet-level registry.
//!
//! # Example
//!
//! ```
//! use rtft_fleet::{Admission, FleetConfig, FleetExecutor, JobRuntime, JobSpec, JobTemplate};
//! use rtft_core::{DuplicationConfig, FaultPlan, JitterStageReplica};
//! use rtft_rtc::sizing::DuplicationModel;
//! use rtft_rtc::{PjdModel, TimeNs};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let model = DuplicationModel::symmetric(
//!     PjdModel::from_ms(30.0, 2.0, 0.0),
//!     PjdModel::from_ms(30.0, 2.0, 90.0),
//!     [PjdModel::from_ms(30.0, 5.0, 0.0), PjdModel::from_ms(30.0, 30.0, 0.0)],
//! );
//! let cfg = DuplicationConfig::from_model(model)?
//!     .with_token_count(50)
//!     .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
//! let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
//!
//! let fleet = FleetExecutor::new(FleetConfig::default());
//! let admission = fleet.submit(JobSpec {
//!     name: "tenant-a".into(),
//!     template: JobTemplate::Duplicated { cfg, factory },
//!     relative_deadline: Duration::from_secs(30),
//!     runtime: JobRuntime::DiscreteEvent { horizon: TimeNs::from_secs(20) },
//! });
//! assert!(matches!(admission, Admission::Admitted(_)));
//!
//! let report = fleet.join();
//! // The fault was observed, the job was re-spawned healed, and recovered.
//! assert_eq!(report.status.replaced, 1);
//! assert_eq!(report.status.recovered, 1);
//! assert!(!report.runs[0].failed);
//! # Ok::<(), rtft_rtc::CurveAnalysisError>(())
//! ```

#![warn(missing_docs)]

mod executor;
mod job;
mod supervisor;

pub use executor::{
    Admission, FleetConfig, FleetExecutor, FleetLoad, FleetReport, JobNotifier, JobRecord,
    RejectReason,
};
pub use job::{
    des_horizon, execute, execute_spec, structure_bounds, JobId, JobRunResult, JobRuntime, JobSpec,
    JobTemplate, Redundancy, SharedFactory, StructureBounds, SERVICE_DIVISOR,
};
pub use supervisor::{FleetStatus, FleetSupervisor};
