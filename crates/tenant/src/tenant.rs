//! One tenant: identity, lifecycle state, policy, and accounting.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use rtft_fleet::{JobRecord, JobRunResult, RejectReason};
use rtft_obs::Histogram;

use crate::manager::TenantReject;
use crate::rate::{RateDecision, TokenBucket};

/// Fleet-wide tenant identifier, assigned at attach time and never
/// reused — a re-attached name gets a fresh id (new lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Lifecycle state. Legal transitions move strictly rightward:
/// `Attaching → Active → Draining → Detached`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Being attached (recovery rebuild, staged attach); not admitting.
    Attaching,
    /// Serving traffic.
    Active,
    /// Detach requested: in-flight work finishes, new work is refused.
    Draining,
    /// Fully detached; kept for reporting only.
    Detached,
}

impl TenantState {
    /// Stable lowercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            TenantState::Attaching => "attaching",
            TenantState::Active => "active",
            TenantState::Draining => "draining",
            TenantState::Detached => "detached",
        }
    }

    fn from_u8(v: u8) -> TenantState {
        match v {
            0 => TenantState::Attaching,
            1 => TenantState::Active,
            2 => TenantState::Draining,
            _ => TenantState::Detached,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TenantState::Attaching => 0,
            TenantState::Active => 1,
            TenantState::Draining => 2,
            TenantState::Detached => 3,
        }
    }
}

/// Token-rate limit: a bucket of `burst` tokens refilling at
/// `tokens_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenRate {
    /// Sustained refill rate in tokens per second (0 = burst only).
    pub tokens_per_sec: u64,
    /// Bucket capacity: the largest batch admissible at once.
    pub burst: u64,
}

/// Per-tenant policy. Every field is enforced at admission time and can
/// be changed at runtime with [`TenantManager::update`](crate::TenantManager::update).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Token-rate limit on flushed work; `None` = unlimited.
    pub rate: Option<TokenRate>,
    /// Cap on concurrently in-flight jobs (`u64::MAX` = unlimited).
    pub max_inflight: u64,
    /// Cap on buffered (ingested but not yet flushed) tokens
    /// (`u64::MAX` = unlimited).
    pub queue_quota: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            rate: None,
            max_inflight: 64,
            queue_quota: 65_536,
        }
    }
}

/// A live tenant. Obtained from
/// [`TenantManager::get`](crate::TenantManager::get); all state is
/// internally synchronized, and the accounting fields feed the tenant's
/// [`TenantReport`](crate::TenantReport).
#[derive(Debug)]
pub struct Tenant {
    id: TenantId,
    name: String,
    state: AtomicU8,
    config: Mutex<TenantConfig>,
    bucket: Mutex<TokenBucket>,
    /// Jobs admitted but not yet settled.
    inflight: AtomicU64,
    /// Tokens buffered (ingested, not yet flushed into a job).
    buffered: AtomicU64,
    jobs: AtomicU64,
    tokens_in: AtomicU64,
    delivered: AtomicU64,
    faults: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_rate: AtomicU64,
    rejected_draining: AtomicU64,
    detection_latency_ns: Histogram,
    recovery_ns: Histogram,
}

impl Tenant {
    pub(crate) fn new(id: TenantId, name: String, config: TenantConfig) -> Tenant {
        Tenant {
            id,
            name,
            state: AtomicU8::new(TenantState::Attaching.as_u8()),
            config: Mutex::new(config),
            bucket: Mutex::new(TokenBucket::new()),
            inflight: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            tokens_in: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_rate: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            detection_latency_ns: Histogram::default(),
            recovery_ns: Histogram::default(),
        }
    }

    /// The tenant's fleet-wide id.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The name the tenant attached under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TenantState {
        TenantState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Attempt the transition `from → to`; `false` if the tenant was not
    /// in `from` (state machine refuses skips and reversals).
    pub(crate) fn transition(&self, from: TenantState, to: TenantState) -> bool {
        debug_assert!(to.as_u8() == from.as_u8() + 1, "states only move forward");
        self.state
            .compare_exchange(
                from.as_u8(),
                to.as_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Snapshot of the current policy.
    pub fn config(&self) -> TenantConfig {
        *self.config.lock().unwrap()
    }

    pub(crate) fn set_config(&self, config: TenantConfig) {
        *self.config.lock().unwrap() = config;
    }

    /// Jobs currently in flight.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Tokens currently buffered against the queue quota.
    pub fn buffered(&self) -> u64 {
        self.buffered.load(Ordering::Acquire)
    }

    /// Admission check for buffering `tokens` more tokens (the queue
    /// quota). On success the tokens are billed to the tenant's buffer;
    /// on refusal nothing changes except the matching rejection counter.
    pub(crate) fn admit_tokens(&self, tokens: u64) -> Result<(), TenantReject> {
        if self.state() != TenantState::Active {
            self.rejected_draining.fetch_add(tokens, Ordering::Relaxed);
            return Err(TenantReject::Draining);
        }
        let quota = self.config.lock().unwrap().queue_quota;
        // Reserve optimistically; roll back on overflow so concurrent
        // admits never double-spend the quota.
        let used = self.buffered.fetch_add(tokens, Ordering::AcqRel);
        if used.saturating_add(tokens) > quota {
            self.buffered.fetch_sub(tokens, Ordering::AcqRel);
            self.rejected_quota.fetch_add(tokens, Ordering::Relaxed);
            return Err(TenantReject::Fleet(RejectReason::QuotaExceeded {
                used,
                quota,
            }));
        }
        self.tokens_in.fetch_add(tokens, Ordering::Relaxed);
        Ok(())
    }

    /// Admission check for flushing `tokens` buffered tokens into one
    /// fleet job at instant `now_ns`: lifecycle state, the in-flight-jobs
    /// cap, then the token-rate bucket. On success the tenant is billed
    /// one in-flight job and the buffer is drained by `tokens`; a refusal
    /// is lossless — the caller keeps its buffer and may retry.
    pub(crate) fn admit_flush(&self, tokens: u64, now_ns: u64) -> Result<(), TenantReject> {
        if self.state() != TenantState::Active {
            self.rejected_draining.fetch_add(tokens, Ordering::Relaxed);
            return Err(TenantReject::Draining);
        }
        let config = *self.config.lock().unwrap();
        let used = self.inflight.fetch_add(1, Ordering::AcqRel);
        if used >= config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.rejected_quota.fetch_add(tokens, Ordering::Relaxed);
            return Err(TenantReject::Fleet(RejectReason::QuotaExceeded {
                used,
                quota: config.max_inflight,
            }));
        }
        if let Some(rate) = config.rate {
            let decision = self.bucket.lock().unwrap().try_take(&rate, tokens, now_ns);
            if let RateDecision::Denied { retry_after_ns } = decision {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                self.rejected_rate.fetch_add(tokens, Ordering::Relaxed);
                return Err(TenantReject::Fleet(RejectReason::RateLimited {
                    retry_after_ns,
                }));
            }
        }
        // The flushed tokens leave the buffer (they ride in the job now).
        // Saturating: direct fleet-facing callers (chaos) flush without
        // buffering first.
        let _ = self
            .buffered
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(tokens))
            });
        Ok(())
    }

    /// Undo an [`admit_flush`](Self::admit_flush) whose fleet submission
    /// was refused downstream: the in-flight slot, buffer, and rate
    /// tokens all come back, so the tenant is not billed for work the
    /// fleet never ran.
    pub(crate) fn cancel_flush(&self, tokens: u64) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.buffered.fetch_add(tokens, Ordering::AcqRel);
        if let Some(rate) = self.config.lock().unwrap().rate {
            self.bucket.lock().unwrap().refund(&rate, tokens);
        }
    }

    /// Record a job that was re-submitted from a durable log during
    /// recovery: it occupies an in-flight slot (so a detach drains it)
    /// but bypasses quota and rate checks — replay is operator work, not
    /// tenant traffic.
    pub(crate) fn admit_replay(&self) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
    }

    /// Undo an [`admit_replay`](Self::admit_replay) the fleet refused.
    pub(crate) fn cancel_replay(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Fold a settled job into the tenant's accounting.
    pub(crate) fn on_settle(&self, record: &JobRecord, result: Option<&JobRunResult>) {
        // Saturating: a settle for a replayed job admitted before a crash
        // must never underflow a fresh tenant.
        let _ = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(1))
            });
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.delivered.fetch_add(record.arrivals, Ordering::Relaxed);
        self.faults
            .fetch_add(record.faulty_replicas.len() as u64, Ordering::Relaxed);
        if record.recovered {
            self.recovery_ns.record(record.completion_ns);
        }
        if let Some(health) = result.and_then(|r| r.health.as_ref()) {
            self.detection_latency_ns
                .merge_from(health.detection_latency());
        }
    }

    /// Release `tokens` buffered tokens without flushing them (stream
    /// closed or server shut down with an undelivered tail).
    pub(crate) fn release_buffered(&self, tokens: u64) {
        let _ = self
            .buffered
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(tokens))
            });
    }

    pub(crate) fn counters(&self) -> TenantCounters {
        TenantCounters {
            jobs: self.jobs.load(Ordering::Acquire),
            tokens_in: self.tokens_in.load(Ordering::Acquire),
            delivered: self.delivered.load(Ordering::Acquire),
            buffered: self.buffered.load(Ordering::Acquire),
            inflight: self.inflight.load(Ordering::Acquire),
            faults: self.faults.load(Ordering::Acquire),
            rejected_quota: self.rejected_quota.load(Ordering::Acquire),
            rejected_rate: self.rejected_rate.load(Ordering::Acquire),
            rejected_draining: self.rejected_draining.load(Ordering::Acquire),
        }
    }

    pub(crate) fn detection_latency_ns(&self) -> &Histogram {
        &self.detection_latency_ns
    }

    pub(crate) fn recovery_ns(&self) -> &Histogram {
        &self.recovery_ns
    }
}

/// Point-in-time counter values, pulled for reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TenantCounters {
    pub jobs: u64,
    pub tokens_in: u64,
    pub delivered: u64,
    pub buffered: u64,
    pub inflight: u64,
    pub faults: u64,
    pub rejected_quota: u64,
    pub rejected_rate: u64,
    pub rejected_draining: u64,
}
