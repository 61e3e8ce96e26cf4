//! Bridging the SCC model into the KPN runtime.
//!
//! [`SccPlatform`] implements [`rtft_kpn::Platform`]: every KPN channel is
//! given a route (source core → destination core), and each token write is
//! charged the corresponding MPB transfer latency, chunked per the ≤3 KB
//! rule. Unrouted channels (e.g. tile-local connections) cost nothing,
//! matching shared-MPB communication within a tile being effectively free
//! at the token periods of interest.
//!
//! Routes live in a table indexed by channel id, and each remembers the
//! last `(bytes, latency)` it charged. The memo is exact: a route's latency
//! is a pure function of its endpoints, the byte count and the fault plan,
//! which is fixed once the platform is built (its windows are evaluated at
//! `t = 0`), and a channel's tokens are nearly always one size.

use crate::noc::{NocFaultPlan, NocModel};
use crate::topology::CoreId;
use rtft_kpn::{ChannelId, NodeId, Platform};
use rtft_rtc::TimeNs;
use std::cell::Cell;

/// One routed channel and the last transfer it was charged.
#[derive(Debug)]
struct Route {
    from: CoreId,
    to: CoreId,
    last: Cell<Option<(usize, TimeNs)>>,
}

/// SCC timing model for the KPN engine.
#[derive(Debug)]
pub struct SccPlatform {
    noc: NocModel,
    /// Indexed by `ChannelId`; `None` for unrouted channels.
    routes: Vec<Option<Route>>,
    /// Stationary NoC perturbation folded into every routed transfer.
    noc_faults: NocFaultPlan,
    /// `noc_faults.is_benign()`, evaluated once.
    benign: bool,
}

impl SccPlatform {
    /// A platform over the given NoC model with no routes yet.
    pub fn new(noc: NocModel) -> Self {
        SccPlatform {
            noc,
            routes: Vec::new(),
            noc_faults: NocFaultPlan::default(),
            benign: true,
        }
    }

    /// A platform under the paper's boot configuration.
    pub fn paper_boot() -> Self {
        SccPlatform::new(NocModel::paper_boot())
    }

    /// Routes `channel` from `from` to `to`; writes on the channel are
    /// charged the corresponding transfer latency.
    pub fn route(&mut self, channel: ChannelId, from: CoreId, to: CoreId) -> &mut Self {
        if self.routes.len() <= channel.0 {
            self.routes.resize_with(channel.0 + 1, || None);
        }
        self.routes[channel.0] = Some(Route {
            from,
            to,
            last: Cell::new(None),
        });
        self
    }

    /// The underlying NoC model.
    pub fn noc(&self) -> &NocModel {
        &self.noc
    }

    /// Applies a [`NocFaultPlan`] to every routed transfer. The
    /// [`Platform`] trait has no notion of current time, so only the
    /// plan's *stationary* perturbations (uniform and per-link extras)
    /// take effect here; timed down-windows are evaluated as of `t = 0`.
    /// Harnesses that need windowed outages call
    /// [`NocModel::message_latency_under`] directly.
    pub fn with_noc_faults(mut self, plan: NocFaultPlan) -> Self {
        self.benign = plan.is_benign();
        self.noc_faults = plan;
        for route in self.routes.iter().flatten() {
            route.last.set(None);
        }
        self
    }
}

impl Platform for SccPlatform {
    fn transfer_latency(&self, _writer: NodeId, channel: ChannelId, bytes: usize) -> TimeNs {
        let Some(Some(route)) = self.routes.get(channel.0) else {
            return TimeNs::ZERO;
        };
        if let Some((last_bytes, latency)) = route.last.get() {
            if last_bytes == bytes {
                return latency;
            }
        }
        let latency = if self.benign {
            self.noc.message_latency(route.from, route.to, bytes)
        } else {
            self.noc.message_latency_under(
                &self.noc_faults,
                route.from,
                route.to,
                bytes,
                TimeNs::ZERO,
            )
        };
        route.last.set(Some((bytes, latency)));
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::{Collector, Engine, Fifo, Network, Payload, PjdSource, PortId, RunOutcome};
    use rtft_rtc::PjdModel;

    #[test]
    fn routed_channel_is_charged() {
        let mut p = SccPlatform::paper_boot();
        let ch = ChannelId(0);
        p.route(ch, CoreId::new(0), CoreId::new(47));
        let t = p.transfer_latency(NodeId(0), ch, 10 * 1024);
        assert!(t > TimeNs::from_us(1));
        // Unrouted channel is free.
        assert_eq!(
            p.transfer_latency(NodeId(0), ChannelId(9), 1024),
            TimeNs::ZERO
        );
    }

    #[test]
    fn engine_run_with_scc_timing() {
        // A 30 fps source shipping 10 KB frames across the die: transfers
        // delay tokens by microseconds, not milliseconds.
        let mut net = Network::new();
        let ch = net.add_channel(Fifo::new("frames", 8));
        let model = PjdModel::periodic(TimeNs::from_ms(30));
        net.add_process(PjdSource::new(
            "cam",
            PortId::of(ch),
            model,
            0,
            Some(10),
            |_| Payload::from(vec![0u8; 10 * 1024]),
        ));
        let col = net.add_process(Collector::new("col", PortId::of(ch), Some(10)));

        let mut platform = SccPlatform::paper_boot();
        platform.route(ch, CoreId::new(0), CoreId::new(47));
        let mut engine = Engine::with_platform(net, Box::new(platform));
        let out = engine.run_until(TimeNs::from_secs(2));
        assert!(matches!(out, RunOutcome::Completed { .. }), "{out:?}");
        let col = engine.network().process_as::<Collector>(col).unwrap();
        assert_eq!(col.tokens().len(), 10);
        // Frame n is produced at n·30ms + transfer; spacing stays ~30ms.
        let times: Vec<TimeNs> = col.tokens().iter().map(|t| t.produced_at).collect();
        for (i, t) in times.iter().enumerate() {
            let nominal = TimeNs::from_ms(30) * i as u64;
            assert!(*t >= nominal);
            assert!(
                *t < nominal + TimeNs::from_ms(1),
                "transfer cost must be tiny: {t}"
            );
        }
    }

    /// The memoised charge equals a fresh `NocModel` evaluation on every
    /// write: sizes alternating on one channel, unrouted ids inside and
    /// past the table, a re-route, and a fault plan applied after routing.
    #[test]
    fn memoised_latency_equals_the_noc_model() {
        let sizes = [
            0usize,
            1,
            3 * 1024,
            3 * 1024,
            3 * 1024 + 1,
            10 * 1024,
            76_800,
        ];
        let noc = NocModel::paper_boot();
        let links = crate::topology::route_links(CoreId::new(0).tile(), CoreId::new(47).tile());
        let plan = NocFaultPlan::uniform(TimeNs::from_us(10), TimeNs::from_us(5))
            .degrade(links[2], TimeNs::from_us(3))
            .down(links[5], TimeNs::ZERO, TimeNs::from_us(50));
        let check = |p: &SccPlatform, ch: usize, route: Option<(CoreId, CoreId)>| {
            // Forward, backward and forward again, so each size follows a
            // different one. Every walk starts on the size the previous one
            // ended on, so a memo that outlived a re-plan would be read.
            let last = sizes[sizes.len() - 1];
            let walk = std::iter::once(&last)
                .chain(&sizes)
                .chain(sizes.iter().rev())
                .chain(&sizes);
            for &bytes in walk {
                let expect = route.map_or(TimeNs::ZERO, |(from, to)| {
                    if p.noc_faults.is_benign() {
                        noc.message_latency(from, to, bytes)
                    } else {
                        noc.message_latency_under(&p.noc_faults, from, to, bytes, TimeNs::ZERO)
                    }
                });
                assert_eq!(
                    p.transfer_latency(NodeId(0), ChannelId(ch), bytes),
                    expect,
                    "channel {ch}, {bytes} bytes"
                );
            }
        };
        let (a, b, c) = (CoreId::new(0), CoreId::new(47), CoreId::new(20));

        let mut p = SccPlatform::paper_boot();
        p.route(ChannelId(3), a, b);
        check(&p, 3, Some((a, b)));
        check(&p, 1, None); // inside the table, unrouted
        check(&p, 4, None); // past the table
        check(&p, 1_000, None);
        // Re-routing replaces the memo with the new endpoints'.
        p.route(ChannelId(3), a, c);
        check(&p, 3, Some((a, c)));
        // A plan applied after routing clears the memos.
        let mut p = p.with_noc_faults(plan);
        check(&p, 3, Some((a, c)));
        p.route(ChannelId(0), c, b);
        check(&p, 0, Some((c, b)));
        check(&p, 3, Some((a, c)));
        // And back to a benign plan.
        let p = p.with_noc_faults(NocFaultPlan::default());
        check(&p, 0, Some((c, b)));
        check(&p, 3, Some((a, c)));
    }

    #[test]
    fn noc_fault_plan_inflates_routed_transfers() {
        let route = (CoreId::new(0), CoreId::new(47));
        let ch = ChannelId(0);
        let mut healthy = SccPlatform::paper_boot();
        healthy.route(ch, route.0, route.1);
        let base = healthy.transfer_latency(NodeId(0), ch, 10 * 1024);

        let mut degraded = SccPlatform::paper_boot().with_noc_faults(NocFaultPlan::uniform(
            TimeNs::from_us(10),
            TimeNs::from_us(5),
        ));
        degraded.route(ch, route.0, route.1);
        // 10 KB = 4 chunks, 0 → 47 = 8 hops: 4·10 µs + 4·8·5 µs = 200 µs.
        assert_eq!(
            degraded.transfer_latency(NodeId(0), ch, 10 * 1024),
            base + TimeNs::from_us(200)
        );
        // Unrouted channels stay free even under a fault plan.
        assert_eq!(
            degraded.transfer_latency(NodeId(0), ChannelId(9), 1024),
            TimeNs::ZERO
        );
    }
}
