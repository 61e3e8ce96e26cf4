//! # rtft-tenant — tenant lifecycle for the fault-tolerant fleet
//!
//! The paper's framework supervises a fixed set of replicated task
//! graphs; this crate makes the *tenant* — the principal those graphs
//! run on behalf of — a first-class runtime object (S21 in DESIGN.md).
//! A [`TenantManager`] owns:
//!
//! * **Lifecycle** — tenants attach, serve traffic, drain, and detach at
//!   runtime without restarting the fleet:
//!   [`Attaching`](TenantState::Attaching) →
//!   [`Active`](TenantState::Active) →
//!   [`Draining`](TenantState::Draining) →
//!   [`Detached`](TenantState::Detached). Illegal transitions are
//!   rejected, and a detach cannot complete while the tenant still has
//!   jobs in flight.
//! * **Policy** — a per-tenant [`TenantConfig`]: a deterministic
//!   token-bucket [`TokenRate`] limit, a max-in-flight-jobs cap, and a
//!   queue quota on buffered tokens. All updatable at runtime via
//!   [`TenantManager::update`].
//! * **Sharded supervision** — tenants are hashed across N supervisor
//!   shards, so admission checks and metrics folding stop serializing on
//!   one lock. Each shard folds its tenants' per-job registries into a
//!   per-shard rollup; [`TenantManager::report`] merges the shards with
//!   commutative operations only, so the report is **byte-identical at
//!   any shard count**.
//! * **Admission** — [`TenantManager::admit_tokens`] (queue quota,
//!   checked before tokens are buffered) and
//!   [`TenantManager::admit_flush`] (state, in-flight cap, token rate —
//!   checked *before* a flush reaches the fleet executor). Refusals are
//!   structured [`TenantReject`] values that carry the fleet's
//!   [`RejectReason`](rtft_fleet::RejectReason) vocabulary, so a server
//!   can map every refusal 1:1 onto a wire code. Refusals are lossless:
//!   nothing the caller buffered is dropped.
//!
//! Accounting per tenant ends up in a [`TenantReport`]: jobs, tokens,
//! faults detected, detection-latency histogram, and time-to-recovery.
//!
//! ```
//! use rtft_tenant::{TenantConfig, TenantManager, TenantState};
//!
//! let mgr = TenantManager::new(4);
//! let id = mgr.attach("acme", TenantConfig::default()).unwrap();
//! assert_eq!(mgr.get(id).unwrap().state(), TenantState::Active);
//! mgr.admit_tokens(id, 16).unwrap();
//! mgr.admit_flush(id, 16, 0).unwrap();
//! mgr.begin_detach(id).unwrap();
//! assert!(mgr.admit_tokens(id, 1).is_err()); // draining refuses new work
//! ```

#![warn(missing_docs)]

mod manager;
mod rate;
mod report;
mod tenant;

pub use manager::{AttachError, Shard, TenantError, TenantManager, TenantReject};
pub use rate::{RateDecision, TokenBucket};
pub use report::{TenantDirectoryReport, TenantReport};
pub use tenant::{Tenant, TenantConfig, TenantId, TenantState, TokenRate};
