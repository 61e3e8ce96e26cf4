//! Network-on-chip timing model: MPB messaging with ≤3 KB chunks.
//!
//! The paper sends and receives "in chunk sizes not exceeding 3 KB,
//! ensuring that all messages are routed exclusively via the message
//! passing buffers" (§4.1). This module models the cost of such a
//! transfer:
//!
//! ```text
//! t(msg) = Σ_chunks [ setup + bytes·copy_in + hops·per_hop + bytes·wire + bytes·copy_out ]
//! ```
//!
//! * `setup` — per-chunk software overhead (flag handling, iRCCE
//!   bookkeeping) on the 533 MHz core;
//! * `copy_in` / `copy_out` — the core moving the chunk into / out of the
//!   MPB (8 bytes per core cycle);
//! * `per_hop` — router traversal (4 cycles at 800 MHz per hop);
//! * `wire` — link serialisation at 8 bytes per router cycle.
//!
//! The absolute constants are derived from the published SCC
//! micro-architecture parameters; the framework results only require the
//! paper's qualitative property — on-chip communication being orders of
//! magnitude faster than token periods — which holds with large margin
//! (a 10 KB frame transfers in ~10 µs vs a 30 ms period).

use crate::clock::SccClocks;
use crate::topology::{route_links, CoreId, Link};
use rtft_obs::{Counter, Histogram, MetricsRegistry};
use rtft_rtc::TimeNs;

/// Maximum chunk size for MPB-only routing (§4.1).
pub const MAX_CHUNK_BYTES: usize = 3 * 1024;

/// Per-core MPB capacity: 16 KB per tile, split across two cores.
pub const MPB_BYTES_PER_CORE: usize = 8 * 1024;

/// Router cycles to traverse one hop.
pub const ROUTER_CYCLES_PER_HOP: u64 = 4;

/// Bytes moved per core cycle during an MPB copy.
pub const COPY_BYTES_PER_CYCLE: u64 = 8;

/// Bytes serialised per router cycle on a mesh link.
pub const LINK_BYTES_PER_CYCLE: u64 = 8;

/// Core cycles of per-chunk software overhead (flag write/poll, iRCCE
/// descriptor handling).
pub const CHUNK_SETUP_CORE_CYCLES: u64 = 200;

/// The NoC timing model.
#[derive(Debug, Clone, Copy)]
pub struct NocModel {
    clocks: SccClocks,
}

impl NocModel {
    /// Model under the given clock configuration.
    pub fn new(clocks: SccClocks) -> Self {
        NocModel { clocks }
    }

    /// Model under the paper's boot configuration.
    pub fn paper_boot() -> Self {
        NocModel::new(SccClocks::paper_boot())
    }

    /// The clock configuration.
    pub fn clocks(&self) -> &SccClocks {
        &self.clocks
    }

    /// Number of ≤3 KB chunks needed for `bytes`.
    pub fn chunks(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1 // a bare flag/doorbell message still costs a chunk setup
        } else {
            bytes.div_ceil(MAX_CHUNK_BYTES)
        }
    }

    /// Latency of one chunk of `bytes` bytes over `hops` mesh hops.
    pub fn chunk_latency(&self, bytes: usize, hops: u8) -> TimeNs {
        let core = &self.clocks.tile;
        let router = &self.clocks.router;
        let setup = core.duration_of(CHUNK_SETUP_CORE_CYCLES);
        let copy_cycles = (bytes as u64).div_ceil(COPY_BYTES_PER_CYCLE);
        let copy = core.duration_of(copy_cycles); // writer side
        let copy_out = core.duration_of(copy_cycles); // reader side
        let hop = router.duration_of(ROUTER_CYCLES_PER_HOP * hops as u64);
        let wire = router.duration_of((bytes as u64).div_ceil(LINK_BYTES_PER_CYCLE));
        setup + copy + hop + wire + copy_out
    }

    /// End-to-end latency of a `bytes`-byte message from `from` to `to`,
    /// chunked per the paper's ≤3 KB rule. Same-tile transfers skip the
    /// mesh but still pay MPB copies and setup.
    pub fn message_latency(&self, from: CoreId, to: CoreId, bytes: usize) -> TimeNs {
        let hops = from.tile().hops_to(to.tile());
        let full_chunks = bytes / MAX_CHUNK_BYTES;
        let tail = bytes % MAX_CHUNK_BYTES;
        let mut total = TimeNs::ZERO;
        for _ in 0..full_chunks {
            total += self.chunk_latency(MAX_CHUNK_BYTES, hops);
        }
        if tail > 0 || bytes == 0 {
            total += self.chunk_latency(tail, hops);
        }
        total
    }

    /// [`message_latency`](Self::message_latency) plus traffic accounting:
    /// bumps `traffic`'s message/chunk/byte counters and records the
    /// computed latency in its histogram. The latency value is identical
    /// to the untracked call.
    pub fn message_latency_tracked(
        &self,
        from: CoreId,
        to: CoreId,
        bytes: usize,
        traffic: &NocTraffic,
    ) -> TimeNs {
        let latency = self.message_latency(from, to, bytes);
        traffic.messages.inc();
        traffic.chunks.add(self.chunks(bytes) as u64);
        traffic.bytes.add(bytes as u64);
        traffic.latency.record(latency.as_ns());
        latency
    }
}

/// NoC-level fault injection: extra latency and link-down windows folded
/// into the message-latency model.
///
/// A chaos campaign perturbs the interconnect *below* everything the
/// detectors model: uniform congestion (`extra_per_chunk` /
/// `extra_per_hop`), per-link degradation, and link outages during which a
/// message needing the link stalls until the window closes. The plan is
/// pure data — evaluating it never draws randomness — so identical plans
/// yield identical latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NocFaultPlan {
    /// Extra latency added to every chunk (congestion floor).
    pub extra_per_chunk: TimeNs,
    /// Extra latency added per mesh hop, per chunk.
    pub extra_per_hop: TimeNs,
    /// Per-link degradation: each chunk whose x-y route crosses the link
    /// pays the extra latency.
    pub degraded_links: Vec<(Link, TimeNs)>,
    /// Link outages `(link, from, until)`: a message departing at `now ∈
    /// [from, until)` whose route crosses the link stalls until `until`.
    pub down_windows: Vec<(Link, TimeNs, TimeNs)>,
}

impl NocFaultPlan {
    /// A plan with uniform per-chunk and per-hop extra latency only.
    pub fn uniform(extra_per_chunk: TimeNs, extra_per_hop: TimeNs) -> Self {
        NocFaultPlan {
            extra_per_chunk,
            extra_per_hop,
            ..Default::default()
        }
    }

    /// Adds a degraded link.
    pub fn degrade(mut self, link: Link, extra: TimeNs) -> Self {
        self.degraded_links.push((link, extra));
        self
    }

    /// Adds a link-down window.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn down(mut self, link: Link, from: TimeNs, until: TimeNs) -> Self {
        assert!(until > from, "down window must be non-empty");
        self.down_windows.push((link, from, until));
        self
    }

    /// `true` if the plan perturbs nothing.
    pub fn is_benign(&self) -> bool {
        *self == NocFaultPlan::default()
    }

    /// The stall a message departing at `now` over `route` suffers from
    /// link-down windows (zero when no crossed link is down).
    pub fn departure_stall(&self, route: &[Link], now: TimeNs) -> TimeNs {
        let mut release = now;
        for (link, from, until) in &self.down_windows {
            if now >= *from && now < *until && route.contains(link) {
                release = release.max(*until);
            }
        }
        release - now
    }
}

impl NocModel {
    /// [`message_latency`](Self::message_latency) under a fault plan: base
    /// latency plus uniform and per-link extras, plus the departure stall
    /// if a crossed link is down at `now`.
    ///
    /// With a benign plan this equals the unperturbed latency exactly.
    pub fn message_latency_under(
        &self,
        plan: &NocFaultPlan,
        from: CoreId,
        to: CoreId,
        bytes: usize,
        now: TimeNs,
    ) -> TimeNs {
        let base = self.message_latency(from, to, bytes);
        if plan.is_benign() {
            return base;
        }
        let chunks = self.chunks(bytes) as u64;
        let hops = from.tile().hops_to(to.tile()) as u64;
        let mut extra = plan.extra_per_chunk * chunks + plan.extra_per_hop * (chunks * hops);
        let route = route_links(from.tile(), to.tile());
        for (link, degrade) in &plan.degraded_links {
            if route.contains(link) {
                extra += *degrade * chunks;
            }
        }
        plan.departure_stall(&route, now) + base + extra
    }
}

/// Traffic accounting handles for the NoC model — the emulation-side
/// equivalent of per-link flit counters. Resolve once with
/// [`NocTraffic::from_registry`] and pass to
/// [`NocModel::message_latency_tracked`].
///
/// Metrics registered: `scc.noc.messages`, `scc.noc.chunks`,
/// `scc.noc.bytes` (counters) and `scc.noc.message_latency_ns`
/// (histogram).
#[derive(Debug, Clone)]
pub struct NocTraffic {
    messages: Counter,
    chunks: Counter,
    bytes: Counter,
    latency: Histogram,
}

impl NocTraffic {
    /// Resolves the traffic handles in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        NocTraffic {
            messages: registry.counter("scc.noc.messages"),
            chunks: registry.counter("scc.noc.chunks"),
            bytes: registry.counter("scc.noc.bytes"),
            latency: registry.histogram("scc.noc.message_latency_ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NocModel {
        NocModel::paper_boot()
    }

    #[test]
    fn chunking_matches_3kb_rule() {
        let m = model();
        assert_eq!(m.chunks(0), 1);
        assert_eq!(m.chunks(1), 1);
        assert_eq!(m.chunks(3 * 1024), 1);
        assert_eq!(m.chunks(3 * 1024 + 1), 2);
        assert_eq!(m.chunks(10 * 1024), 4); // one MJPEG encoded frame
        assert_eq!(m.chunks(76_800), 25); // one decoded 320x240 frame
    }

    #[test]
    fn latency_grows_with_size_and_distance() {
        let m = model();
        let near = CoreId::new(0);
        let same_tile = CoreId::new(1);
        let far = CoreId::new(47);
        let small = m.message_latency(near, same_tile, 1024);
        let big = m.message_latency(near, same_tile, 10 * 1024);
        assert!(big > small);
        let near_hop = m.message_latency(near, CoreId::new(2), 1024); // 1 hop
        let far_hop = m.message_latency(near, far, 1024); // 8 hops
        assert!(far_hop > near_hop);
        assert!(near_hop > small, "mesh hops must cost something");
    }

    #[test]
    fn transfers_are_fast_relative_to_token_periods() {
        // The paper's premise: comms do not significantly influence FIFO
        // sizes or detection timings. A full 76.8 KB decoded frame across
        // the whole die must cost well under 1 ms (vs a 30 ms period).
        let m = model();
        let t = m.message_latency(CoreId::new(0), CoreId::new(47), 76_800);
        assert!(t < TimeNs::from_ms(1), "{t}");
        assert!(
            t > TimeNs::from_us(10),
            "a 25-chunk transfer is not free: {t}"
        );
    }

    #[test]
    fn zero_byte_message_still_costs_setup() {
        let m = model();
        let t = m.message_latency(CoreId::new(0), CoreId::new(2), 0);
        assert!(t > TimeNs::ZERO);
    }

    #[test]
    fn same_core_is_cheapest() {
        let m = model();
        let same = m.message_latency(CoreId::new(4), CoreId::new(4), 3000);
        let neighbor = m.message_latency(CoreId::new(4), CoreId::new(6), 3000);
        assert!(same < neighbor);
    }

    #[test]
    fn latency_is_additive_in_chunks() {
        let m = model();
        let one = m.message_latency(CoreId::new(0), CoreId::new(10), 3 * 1024);
        let four = m.message_latency(CoreId::new(0), CoreId::new(10), 12 * 1024);
        assert_eq!(four.as_ns(), one.as_ns() * 4);
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        let m = model();
        let plan = NocFaultPlan::default();
        assert!(plan.is_benign());
        for bytes in [0usize, 100, 3 * 1024, 76_800] {
            assert_eq!(
                m.message_latency_under(
                    &plan,
                    CoreId::new(0),
                    CoreId::new(47),
                    bytes,
                    TimeNs::ZERO
                ),
                m.message_latency(CoreId::new(0), CoreId::new(47), bytes)
            );
        }
    }

    #[test]
    fn uniform_extras_scale_with_chunks_and_hops() {
        let m = model();
        let plan = NocFaultPlan::uniform(TimeNs::from_us(10), TimeNs::from_us(1));
        let from = CoreId::new(0);
        let to = CoreId::new(47); // 8 hops
        let bytes = 12 * 1024; // 4 chunks
        let base = m.message_latency(from, to, bytes);
        let faulty = m.message_latency_under(&plan, from, to, bytes, TimeNs::ZERO);
        // 4 chunks × 10 µs + 4 chunks × 8 hops × 1 µs.
        assert_eq!(faulty, base + TimeNs::from_us(40) + TimeNs::from_us(32));
    }

    #[test]
    fn degraded_link_charges_only_routes_crossing_it() {
        use crate::topology::{route_links, TileId};
        let m = model();
        let link = route_links(TileId::at(0, 0), TileId::at(1, 0))[0];
        let plan = NocFaultPlan::default().degrade(link, TimeNs::from_us(100));
        // CoreId 0 is on tile (0,0); CoreId 2 on tile (1,0): crosses.
        let crossing =
            m.message_latency_under(&plan, CoreId::new(0), CoreId::new(2), 1024, TimeNs::ZERO);
        assert_eq!(
            crossing,
            m.message_latency(CoreId::new(0), CoreId::new(2), 1024) + TimeNs::from_us(100)
        );
        // Same-tile transfer does not cross the link.
        let local =
            m.message_latency_under(&plan, CoreId::new(0), CoreId::new(1), 1024, TimeNs::ZERO);
        assert_eq!(
            local,
            m.message_latency(CoreId::new(0), CoreId::new(1), 1024)
        );
    }

    #[test]
    fn down_window_stalls_departures_inside_it() {
        use crate::topology::{route_links, TileId};
        let m = model();
        let link = route_links(TileId::at(0, 0), TileId::at(1, 0))[0];
        let plan = NocFaultPlan::default().down(link, TimeNs::from_ms(10), TimeNs::from_ms(20));
        let base = m.message_latency(CoreId::new(0), CoreId::new(2), 512);
        // Departing mid-window: stalls until 20 ms.
        let stalled = m.message_latency_under(
            &plan,
            CoreId::new(0),
            CoreId::new(2),
            512,
            TimeNs::from_ms(12),
        );
        assert_eq!(stalled, TimeNs::from_ms(8) + base);
        // Before and after the window: unperturbed.
        for t in [TimeNs::ZERO, TimeNs::from_ms(20), TimeNs::from_ms(30)] {
            assert_eq!(
                m.message_latency_under(&plan, CoreId::new(0), CoreId::new(2), 512, t),
                base
            );
        }
    }

    #[test]
    fn tracked_latency_matches_and_accounts_traffic() {
        let m = model();
        let registry = MetricsRegistry::new();
        let traffic = NocTraffic::from_registry(&registry);
        let plain = m.message_latency(CoreId::new(0), CoreId::new(47), 10 * 1024);
        let tracked =
            m.message_latency_tracked(CoreId::new(0), CoreId::new(47), 10 * 1024, &traffic);
        assert_eq!(plain, tracked, "tracking must not change the model");
        m.message_latency_tracked(CoreId::new(0), CoreId::new(1), 100, &traffic);
        assert_eq!(registry.counter("scc.noc.messages").get(), 2);
        assert_eq!(registry.counter("scc.noc.chunks").get(), 4 + 1);
        assert_eq!(registry.counter("scc.noc.bytes").get(), 10 * 1024 + 100);
        let h = registry.histogram("scc.noc.message_latency_ns").snapshot();
        assert_eq!(h.count, 2);
        assert_eq!(
            h.max,
            plain.as_ns().max(
                m.message_latency(CoreId::new(0), CoreId::new(1), 100)
                    .as_ns(),
            )
        );
    }
}
