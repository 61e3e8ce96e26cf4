//! Per-tenant and directory-level reports.

use rtft_obs::export::registry_to_json;
use rtft_obs::json::{array, JsonObject};
use rtft_obs::{HistogramSnapshot, MetricsRegistry};

use crate::tenant::{Tenant, TenantState};

/// Point-in-time accounting for one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's id.
    pub id: u64,
    /// The name it attached under.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: TenantState,
    /// Jobs settled on the tenant's behalf.
    pub jobs: u64,
    /// Tokens admitted past the queue quota.
    pub tokens_in: u64,
    /// Tokens delivered by settled jobs.
    pub delivered: u64,
    /// Tokens buffered (admitted, not yet flushed) right now.
    pub buffered: u64,
    /// Jobs in flight right now.
    pub inflight: u64,
    /// Faulty replicas detected across the tenant's jobs.
    pub faults: u64,
    /// Tokens refused by the queue quota or in-flight cap.
    pub rejected_quota: u64,
    /// Tokens refused by the token-rate limit.
    pub rejected_rate: u64,
    /// Tokens refused because the tenant was draining or detached.
    pub rejected_draining: u64,
    /// Detection latency across the tenant's jobs (DES: virtual ns).
    pub detection_latency_ns: HistogramSnapshot,
}

impl TenantReport {
    pub(crate) fn snapshot(tenant: &Tenant) -> TenantReport {
        let c = tenant.counters();
        TenantReport {
            id: tenant.id().0,
            name: tenant.name().to_string(),
            state: tenant.state(),
            jobs: c.jobs,
            tokens_in: c.tokens_in,
            delivered: c.delivered,
            buffered: c.buffered,
            inflight: c.inflight,
            faults: c.faults,
            rejected_quota: c.rejected_quota,
            rejected_rate: c.rejected_rate,
            rejected_draining: c.rejected_draining,
            detection_latency_ns: tenant.detection_latency_ns().snapshot(),
        }
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64_field("id", self.id)
            .str_field("name", &self.name)
            .str_field("state", self.state.label())
            .u64_field("jobs", self.jobs)
            .u64_field("tokens_in", self.tokens_in)
            .u64_field("delivered", self.delivered)
            .u64_field("buffered", self.buffered)
            .u64_field("inflight", self.inflight)
            .u64_field("faults", self.faults)
            .u64_field("rejected_quota", self.rejected_quota)
            .u64_field("rejected_rate", self.rejected_rate)
            .u64_field("rejected_draining", self.rejected_draining)
            .raw_field("detection_latency_ns", &hist(&self.detection_latency_ns))
            .finish()
    }
}

fn hist(s: &HistogramSnapshot) -> String {
    JsonObject::new()
        .u64_field("count", s.count)
        .u64_field("max", s.max)
        .u64_field("p50", s.p50)
        .u64_field("p99", s.p99)
        .finish()
}

/// The whole directory: every tenant (sorted by id), the merged shard
/// rollup registry, and exact distinct-tenant / distinct-stream counts.
///
/// Serialization is byte-identical at any shard count — tenants are
/// sorted globally and every cross-shard merge is commutative. The shard
/// count itself is deliberately *not* part of the report.
#[derive(Debug, Clone)]
pub struct TenantDirectoryReport {
    /// Per-tenant reports, ascending by id.
    pub tenants: Vec<TenantReport>,
    /// Distinct tenants ever attached.
    pub unique_tenants: u64,
    /// Distinct streams opened across all tenants.
    pub unique_streams: u64,
    /// The merged per-shard rollup (absorbed job registries).
    pub rollup: MetricsRegistry,
}

impl TenantDirectoryReport {
    /// Renders the directory as a JSON object (tenants sorted by id).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64_field("attached", self.tenants.len() as u64)
            .u64_field("unique_tenants", self.unique_tenants)
            .u64_field("unique_streams", self.unique_streams)
            .raw_field("tenants", &array(self.tenants.iter().map(|t| t.to_json())))
            .raw_field("rollup", &registry_to_json(&self.rollup))
            .finish()
    }

    /// The report for one tenant id, if present.
    pub fn tenant(&self, id: u64) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.id == id)
    }
}
