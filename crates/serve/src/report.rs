//! The server's end-of-life accounting.

use rtft_fleet::FleetReport;
use rtft_obs::json::{array, JsonObject};
use rtft_tenant::TenantDirectoryReport;

/// Final accounting for one stream.
///
/// The core invariant every shutdown upholds:
/// `tokens_in == delivered + undelivered` — an accepted token is either
/// delivered back to the client as an `Output` frame or reported here as
/// undelivered (still buffered, or lost to an incomplete faulty run).
/// Tokens a tenant quota refused were never accepted: they count in
/// `rejected`, not `tokens_in`, so the client's offered total is
/// `delivered + undelivered + rejected`. Tokens are never silently
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAccount {
    /// Stream id (global open order).
    pub id: u32,
    /// Tenant the stream was admitted under (0 = untenanted server).
    pub tenant: u64,
    /// Application label (`mjpeg` / `adpcm` / `h264`).
    pub app: &'static str,
    /// Replica count the stream ran under.
    pub redundancy: u8,
    /// Tokens accepted from the client.
    pub tokens_in: u64,
    /// Tokens delivered back as `Output` frames.
    pub delivered: u64,
    /// Accepted tokens not delivered (buffered at shutdown, or withheld
    /// by an incomplete run); always `tokens_in - delivered`.
    pub undelivered: u64,
    /// Tokens refused at admission (queue quota, draining tenant) and
    /// never accepted — the client still holds them.
    pub rejected: u64,
    /// Fault latches pushed to the client.
    pub faults: u64,
    /// Busy refusals the stream saw (each one retryable, lossless).
    pub busy: u64,
    /// Whether the client closed the stream before shutdown.
    pub closed: bool,
    /// Whether the stream's connection was evicted for violating a read
    /// deadline (idle or stalled). Eviction is lossless: the accepted
    /// tokens stay in the books, still buffered ones as `undelivered`.
    pub evicted: bool,
}

impl StreamAccount {
    /// Renders the account as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64_field("id", self.id as u64)
            .u64_field("tenant", self.tenant)
            .str_field("app", self.app)
            .u64_field("redundancy", self.redundancy as u64)
            .u64_field("tokens_in", self.tokens_in)
            .u64_field("delivered", self.delivered)
            .u64_field("undelivered", self.undelivered)
            .u64_field("rejected", self.rejected)
            .u64_field("faults", self.faults)
            .u64_field("busy", self.busy)
            .bool_field("closed", self.closed)
            .bool_field("evicted", self.evicted)
            .finish()
    }
}

/// Everything [`Server::shutdown`](crate::Server::shutdown) returns: the
/// per-stream token accounting, connection/frame/byte totals, and the
/// drained fleet's own report. Deterministic for a given seed and client
/// schedule under the discrete-event runtime.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-stream accounting, ascending by stream id.
    pub streams: Vec<StreamAccount>,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames pushed to clients.
    pub frames_out: u64,
    /// Wire bytes read from clients.
    pub bytes_in: u64,
    /// Wire bytes pushed to clients.
    pub bytes_out: u64,
    /// Streams rebuilt from the write-ahead log at startup (0 without a
    /// WAL). Recovered streams keep their accounting: their `tokens_in`
    /// counts logged tokens, so the balance invariant spans the restart.
    pub recovered_streams: u64,
    /// Logged-but-undelivered tokens resubmitted through the fleet at
    /// startup.
    pub replayed_tokens: u64,
    /// Torn-tail records dropped by WAL recovery at startup (tokens in
    /// those records were never acknowledged `Durable`, so dropping them
    /// loses nothing the client was promised).
    pub wal_truncated_records: u64,
    /// Connections evicted for read-deadline violations (idle or
    /// stalled writers). Each eviction is lossless — see
    /// [`StreamAccount::evicted`].
    pub evictions: u64,
    /// The tenant directory at shutdown (tenancy-enabled servers only):
    /// per-tenant reports sorted by id, the merged shard rollup, and the
    /// unique-stream / unique-tenant counts.
    pub tenants: Option<TenantDirectoryReport>,
    /// The drained fleet's report (job records, status, pool counters).
    pub fleet: FleetReport,
}

impl ServeReport {
    /// Total tokens accepted across all streams.
    pub fn tokens_in(&self) -> u64 {
        self.streams.iter().map(|s| s.tokens_in).sum()
    }

    /// Total tokens delivered back across all streams.
    pub fn delivered(&self) -> u64 {
        self.streams.iter().map(|s| s.delivered).sum()
    }

    /// Total fault latches pushed across all streams.
    pub fn faults(&self) -> u64 {
        self.streams.iter().map(|s| s.faults).sum()
    }

    /// `true` if every stream's books balance
    /// (`tokens_in == delivered + undelivered`).
    pub fn balanced(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.tokens_in == s.delivered + s.undelivered)
    }

    /// Renders the report as a JSON object. Tenants (when present) are
    /// emitted sorted by id, so the section is byte-identical at any
    /// shard count.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        if let Some(tenants) = &self.tenants {
            obj = obj.raw_field("tenants", &tenants.to_json());
        }
        obj.raw_field("streams", &array(self.streams.iter().map(|s| s.to_json())))
            .u64_field("connections", self.connections)
            .u64_field("frames_in", self.frames_in)
            .u64_field("frames_out", self.frames_out)
            .u64_field("bytes_in", self.bytes_in)
            .u64_field("bytes_out", self.bytes_out)
            .u64_field("recovered_streams", self.recovered_streams)
            .u64_field("replayed_tokens", self.replayed_tokens)
            .u64_field("wal_truncated_records", self.wal_truncated_records)
            .u64_field("evictions", self.evictions)
            .u64_field("tokens_in", self.tokens_in())
            .u64_field("delivered", self.delivered())
            .u64_field("faults", self.faults())
            .raw_field("fleet", &self.fleet.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_fleet::FleetStatus;
    use rtft_kpn::PoolStats;

    fn account(tokens_in: u64, delivered: u64) -> StreamAccount {
        StreamAccount {
            id: 0,
            tenant: 0,
            app: "mjpeg",
            redundancy: 2,
            tokens_in,
            delivered,
            undelivered: tokens_in - delivered,
            rejected: 0,
            faults: 1,
            busy: 2,
            closed: true,
            evicted: false,
        }
    }

    fn report(streams: Vec<StreamAccount>) -> ServeReport {
        ServeReport {
            streams,
            connections: 1,
            frames_in: 10,
            frames_out: 20,
            bytes_in: 300,
            bytes_out: 400,
            recovered_streams: 0,
            replayed_tokens: 0,
            wal_truncated_records: 0,
            evictions: 0,
            tenants: None,
            fleet: FleetReport {
                runs: Vec::new(),
                status: FleetStatus::default(),
                pool: PoolStats {
                    workers: 2,
                    executed: 0,
                    panicked: 0,
                    lent: 0,
                },
            },
        }
    }

    #[test]
    fn accounting_totals_and_balance() {
        let r = report(vec![account(8, 8), account(5, 3)]);
        assert_eq!(r.tokens_in(), 13);
        assert_eq!(r.delivered(), 11);
        assert_eq!(r.faults(), 2);
        assert!(r.balanced());
    }

    #[test]
    fn json_contains_stream_accounts() {
        let json = report(vec![account(8, 8)]).to_json();
        assert!(json.contains("\"app\":\"mjpeg\""), "{json}");
        assert!(json.contains("\"tokens_in\":8"), "{json}");
        assert!(json.contains("\"fleet\":{"), "{json}");
    }
}
