//! The tenant directory: sharded lookup, lifecycle transitions, and
//! admission routing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtft_fleet::{JobRecord, JobRunResult, RejectReason};
use rtft_obs::MetricsRegistry;

use crate::report::{TenantDirectoryReport, TenantReport};
use crate::tenant::{Tenant, TenantConfig, TenantId, TenantState};

/// Why an attach was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The name is already attached (and not yet detached) under this id.
    NameTaken(TenantId),
    /// An explicit id (recovery re-attach) is already in use.
    IdTaken(TenantId),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::NameTaken(id) => write!(f, "tenant name already attached as {id}"),
            AttachError::IdTaken(id) => write!(f, "tenant id {id} already in use"),
        }
    }
}

impl std::error::Error for AttachError {}

/// Why a lifecycle or lookup operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantError {
    /// No tenant under that id.
    Unknown(TenantId),
    /// The requested transition is not legal from the current state.
    IllegalTransition {
        /// State the tenant was actually in.
        from: TenantState,
    },
    /// A detach cannot complete while jobs are still in flight.
    StillBusy {
        /// Jobs in flight at the time of the attempt.
        inflight: u64,
    },
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Unknown(id) => write!(f, "unknown tenant {id}"),
            TenantError::IllegalTransition { from } => {
                write!(f, "illegal transition from {}", from.label())
            }
            TenantError::StillBusy { inflight } => {
                write!(f, "tenant still has {inflight} jobs in flight")
            }
        }
    }
}

impl std::error::Error for TenantError {}

/// A structured admission refusal. Lossless by contract: the caller's
/// buffered tokens are untouched and the operation may be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantReject {
    /// The tenant is draining (or already detached / still attaching) —
    /// new work is refused until the lifecycle says otherwise.
    Draining,
    /// A fleet-vocabulary refusal: queue quota, in-flight cap, token
    /// rate, executor backpressure, or executor shutdown.
    Fleet(RejectReason),
}

impl From<RejectReason> for TenantReject {
    fn from(r: RejectReason) -> Self {
        TenantReject::Fleet(r)
    }
}

impl std::fmt::Display for TenantReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantReject::Draining => write!(f, "tenant is draining"),
            TenantReject::Fleet(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for TenantReject {}

/// One supervisor shard: a slice of the tenant directory plus the rollup
/// state its tenants fold into. Shards are picked by hashing the tenant
/// id, so two tenants on different shards never contend on the same lock
/// for lookup, admission, or settle-time folding.
#[derive(Debug)]
pub struct Shard {
    tenants: Mutex<HashMap<u64, Arc<Tenant>>>,
    /// Per-shard metrics rollup; settled jobs' registries are absorbed
    /// here (commutative fold, so the merged total is shard-invariant).
    rollup: MetricsRegistry,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            tenants: Mutex::new(HashMap::new()),
            rollup: MetricsRegistry::new(),
        }
    }

    /// The shard's metrics rollup (absorbed job registries).
    pub fn rollup(&self) -> &MetricsRegistry {
        &self.rollup
    }

    fn get(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.tenants.lock().unwrap().get(&id.0).cloned()
    }
}

/// SplitMix64 finalizer — spreads dense sequential tenant ids uniformly
/// over shards.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tenant directory and admission front door.
///
/// See the [crate docs](crate) for the full picture. Everything here is
/// `&self` and thread-safe; the manager is typically shared in an `Arc`
/// between a server's connection threads and its settle notifiers.
#[derive(Debug)]
pub struct TenantManager {
    shards: Box<[Shard]>,
    names: Mutex<HashMap<String, TenantId>>,
    next_id: AtomicU64,
    streams_opened: AtomicU64,
}

impl TenantManager {
    /// A manager with `shards` supervisor shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> TenantManager {
        let n = shards.max(1);
        TenantManager {
            shards: (0..n).map(|_| Shard::new()).collect(),
            names: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            streams_opened: AtomicU64::new(0),
        }
    }

    /// The shard a tenant id lives on.
    fn shard_of(&self, id: TenantId) -> &Shard {
        &self.shards[(mix(id.0) % self.shards.len() as u64) as usize]
    }

    /// Attach a tenant under `name` with `config`; returns its fresh id.
    ///
    /// The tenant passes through `Attaching` and lands `Active`. A name
    /// that is currently attached (any state but `Detached`) is refused;
    /// re-attaching a detached name yields a new id and a new lifecycle.
    pub fn attach(&self, name: &str, config: TenantConfig) -> Result<TenantId, AttachError> {
        let mut names = self.names.lock().unwrap();
        if let Some(&existing) = names.get(name) {
            let live = self
                .shard_of(existing)
                .get(existing)
                .is_some_and(|t| t.state() != TenantState::Detached);
            if live {
                return Err(AttachError::NameTaken(existing));
            }
        }
        let id = TenantId(self.next_id.fetch_add(1, Ordering::AcqRel));
        names.insert(name.to_string(), id);
        drop(names);
        self.install(id, name, config);
        Ok(id)
    }

    /// Attach a tenant under an explicit id — the durable-log recovery
    /// path, which must re-create tenants with the ids streams were
    /// logged under. Bumps the id allocator past `id`.
    pub fn attach_with_id(
        &self,
        id: TenantId,
        name: &str,
        config: TenantConfig,
    ) -> Result<TenantId, AttachError> {
        if self.shard_of(id).get(id).is_some() {
            return Err(AttachError::IdTaken(id));
        }
        // Keep the allocator ahead of every explicit id.
        let _ = self
            .next_id
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.max(id.0 + 1))
            });
        self.names.lock().unwrap().insert(name.to_string(), id);
        self.install(id, name, config);
        Ok(id)
    }

    fn install(&self, id: TenantId, name: &str, config: TenantConfig) {
        let tenant = Arc::new(Tenant::new(id, name.to_string(), config));
        let activated = tenant.transition(TenantState::Attaching, TenantState::Active);
        debug_assert!(activated, "fresh tenant must activate");
        let shard = self.shard_of(id);
        shard.tenants.lock().unwrap().insert(id.0, tenant);
    }

    /// Look up a tenant id by the name it attached under.
    pub fn resolve(&self, name: &str) -> Option<TenantId> {
        self.names.lock().unwrap().get(name).copied()
    }

    /// The tenant under `id`, if attached (any state).
    pub fn get(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.shard_of(id).get(id)
    }

    /// Replace a tenant's policy at runtime; applies on the next
    /// admission.
    pub fn update(&self, id: TenantId, config: TenantConfig) -> Result<(), TenantError> {
        let tenant = self.get(id).ok_or(TenantError::Unknown(id))?;
        tenant.set_config(config);
        Ok(())
    }

    /// Begin detaching: `Active → Draining`. From then on every
    /// admission for the tenant answers [`TenantReject::Draining`];
    /// in-flight jobs run to completion.
    pub fn begin_detach(&self, id: TenantId) -> Result<(), TenantError> {
        let tenant = self.get(id).ok_or(TenantError::Unknown(id))?;
        if tenant.transition(TenantState::Active, TenantState::Draining) {
            Ok(())
        } else {
            Err(TenantError::IllegalTransition {
                from: tenant.state(),
            })
        }
    }

    /// Complete a detach: `Draining → Detached`. Fails with
    /// [`TenantError::StillBusy`] while jobs are in flight — poll until
    /// the drain empties.
    pub fn finish_detach(&self, id: TenantId) -> Result<(), TenantError> {
        let tenant = self.get(id).ok_or(TenantError::Unknown(id))?;
        let inflight = tenant.inflight();
        if inflight > 0 {
            return Err(TenantError::StillBusy { inflight });
        }
        if tenant.transition(TenantState::Draining, TenantState::Detached) {
            Ok(())
        } else {
            Err(TenantError::IllegalTransition {
                from: tenant.state(),
            })
        }
    }

    /// Admission for buffering `tokens` ingested tokens (queue quota).
    pub fn admit_tokens(&self, id: TenantId, tokens: u64) -> Result<(), TenantReject> {
        let tenant = self
            .get(id)
            .ok_or(TenantReject::Fleet(RejectReason::ShuttingDown))?;
        tenant.admit_tokens(tokens)
    }

    /// Admission for flushing `tokens` buffered tokens into one fleet job
    /// at instant `now_ns`: lifecycle, in-flight cap, token rate — all
    /// checked *before* the executor sees the job.
    pub fn admit_flush(&self, id: TenantId, tokens: u64, now_ns: u64) -> Result<(), TenantReject> {
        let tenant = self
            .get(id)
            .ok_or(TenantReject::Fleet(RejectReason::ShuttingDown))?;
        tenant.admit_flush(tokens, now_ns)
    }

    /// Undo an [`admit_flush`](Self::admit_flush) the executor refused:
    /// returns the in-flight slot, the buffered tokens, and the rate
    /// tokens, so executor backpressure stays lossless for the tenant.
    pub fn cancel_flush(&self, id: TenantId, tokens: u64) {
        if let Some(tenant) = self.get(id) {
            tenant.cancel_flush(tokens);
        }
    }

    /// Bill a replayed (recovery) job as in-flight without quota or rate
    /// checks.
    pub fn admit_replay(&self, id: TenantId) {
        if let Some(tenant) = self.get(id) {
            tenant.admit_replay();
        }
    }

    /// Undo an [`admit_replay`](Self::admit_replay) whose fleet submission
    /// was refused: no settle will release the slot.
    pub fn cancel_replay(&self, id: TenantId) {
        if let Some(tenant) = self.get(id) {
            tenant.cancel_replay();
        }
    }

    /// Note a stream opening under a tenant. Stream ids are unique per
    /// server, so the count of calls is the count of distinct streams.
    pub fn on_stream_opened(&self, _tenant: TenantId, _stream: u64) {
        self.streams_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Release buffered tokens that will never flush (close/shutdown with
    /// an undelivered tail).
    pub fn release_buffered(&self, id: TenantId, tokens: u64) {
        if let Some(tenant) = self.get(id) {
            tenant.release_buffered(tokens);
        }
    }

    /// Fold a settled job into its tenant and the tenant's shard rollup.
    /// Call exactly once per settled job (the executor's notifier fires
    /// exactly once).
    pub fn on_settle(&self, id: TenantId, record: &JobRecord, result: Option<&JobRunResult>) {
        let Some(tenant) = self.get(id) else { return };
        tenant.on_settle(record, result);
        if let Some(result) = result {
            self.shard_of(id).rollup.absorb(&result.registry);
        }
    }

    /// A point-in-time report for one tenant, if attached (any state).
    pub fn tenant_report(&self, id: TenantId) -> Option<TenantReport> {
        self.get(id).map(|t| TenantReport::snapshot(&t))
    }

    /// Build the directory report: every tenant's [`TenantReport`]
    /// sorted by id, the merged shard rollup, and exact unique-tenant /
    /// unique-stream counts. Byte-identical at any shard count:
    /// per-tenant state is shard-independent, and every cross-shard fold
    /// (counter add, histogram bucket add, gauge high-water max) is
    /// commutative. Tenants are never removed and a re-attach gets a new
    /// id, so every directory entry is a distinct tenant.
    pub fn report(&self) -> TenantDirectoryReport {
        let mut tenants: Vec<Arc<Tenant>> = Vec::new();
        for shard in self.shards.iter() {
            tenants.extend(shard.tenants.lock().unwrap().values().cloned());
        }
        tenants.sort_by_key(|t| t.id().0);
        let rollup = MetricsRegistry::new();
        for shard in self.shards.iter() {
            rollup.absorb(&shard.rollup);
        }
        TenantDirectoryReport {
            tenants: tenants.iter().map(|t| TenantReport::snapshot(t)).collect(),
            unique_tenants: tenants.len() as u64,
            unique_streams: self.streams_opened.load(Ordering::Relaxed),
            rollup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_walks_forward_only() {
        let mgr = TenantManager::new(2);
        let id = mgr.attach("a", TenantConfig::default()).unwrap();
        assert_eq!(mgr.get(id).unwrap().state(), TenantState::Active);
        // Cannot finish a detach that never began.
        assert!(matches!(
            mgr.finish_detach(id),
            Err(TenantError::IllegalTransition { .. })
        ));
        mgr.begin_detach(id).unwrap();
        // Draining twice is illegal.
        assert!(matches!(
            mgr.begin_detach(id),
            Err(TenantError::IllegalTransition {
                from: TenantState::Draining
            })
        ));
        mgr.finish_detach(id).unwrap();
        assert_eq!(mgr.get(id).unwrap().state(), TenantState::Detached);
    }

    #[test]
    fn names_are_exclusive_while_attached() {
        let mgr = TenantManager::new(1);
        let id = mgr.attach("acme", TenantConfig::default()).unwrap();
        assert_eq!(
            mgr.attach("acme", TenantConfig::default()),
            Err(AttachError::NameTaken(id))
        );
        mgr.begin_detach(id).unwrap();
        mgr.finish_detach(id).unwrap();
        let id2 = mgr.attach("acme", TenantConfig::default()).unwrap();
        assert_ne!(id, id2, "re-attach gets a fresh lifecycle");
        assert_eq!(mgr.resolve("acme"), Some(id2));
    }

    #[test]
    fn quota_is_enforced_and_lossless() {
        let mgr = TenantManager::new(1);
        let id = mgr
            .attach(
                "q",
                TenantConfig {
                    queue_quota: 10,
                    ..TenantConfig::default()
                },
            )
            .unwrap();
        mgr.admit_tokens(id, 8).unwrap();
        let err = mgr.admit_tokens(id, 3).unwrap_err();
        assert!(matches!(
            err,
            TenantReject::Fleet(RejectReason::QuotaExceeded { used: 8, quota: 10 })
        ));
        // The refused batch was not billed.
        assert_eq!(mgr.get(id).unwrap().buffered(), 8);
        mgr.admit_tokens(id, 2).unwrap();
    }

    #[test]
    fn inflight_cap_and_rate_limit_reject_structurally() {
        let mgr = TenantManager::new(1);
        let id = mgr
            .attach(
                "r",
                TenantConfig {
                    max_inflight: 1,
                    rate: Some(crate::TokenRate {
                        tokens_per_sec: 1_000,
                        burst: 4,
                    }),
                    ..TenantConfig::default()
                },
            )
            .unwrap();
        mgr.admit_tokens(id, 16).unwrap();
        mgr.admit_flush(id, 2, 0).unwrap();
        // Second flush trips the in-flight cap first.
        assert!(matches!(
            mgr.admit_flush(id, 2, 0),
            Err(TenantReject::Fleet(RejectReason::QuotaExceeded {
                used: 1,
                quota: 1
            }))
        ));
        mgr.cancel_flush(id, 2);
        // With the slot back, a burst-sized batch drains the bucket...
        mgr.admit_flush(id, 4, 0).unwrap();
        mgr.cancel_flush(id, 0); // free the slot, keep the bucket drained
        assert!(matches!(
            mgr.admit_flush(id, 4, 0),
            Err(TenantReject::Fleet(RejectReason::RateLimited { .. }))
        ));
        // ...and refills deterministically 4 ms later (1000/s × 4 ms = 4).
        mgr.admit_flush(id, 4, 4_000_000).unwrap();
    }

    #[test]
    fn recovery_reattach_keeps_ids_stable() {
        let mgr = TenantManager::new(4);
        mgr.attach_with_id(TenantId(7), "recovered-7", TenantConfig::default())
            .unwrap();
        assert_eq!(
            mgr.attach_with_id(TenantId(7), "dup", TenantConfig::default()),
            Err(AttachError::IdTaken(TenantId(7)))
        );
        // Fresh ids allocate past the recovered one.
        let fresh = mgr.attach("new", TenantConfig::default()).unwrap();
        assert!(fresh.0 > 7);
    }

    #[test]
    fn report_is_sorted_and_shard_invariant() {
        let build = |shards: usize| {
            let mgr = TenantManager::new(shards);
            for i in 0..9u64 {
                let id = mgr
                    .attach(&format!("t{i}"), TenantConfig::default())
                    .unwrap();
                mgr.admit_tokens(id, 10 + i).unwrap();
                mgr.on_stream_opened(id, 100 + i);
            }
            mgr.report().to_json()
        };
        let one = build(1);
        assert_eq!(one, build(2));
        assert_eq!(one, build(4));
    }
}
