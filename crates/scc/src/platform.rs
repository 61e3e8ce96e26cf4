//! Bridging the SCC model into the KPN runtime.
//!
//! [`SccPlatform`] implements [`rtft_kpn::Platform`]: every KPN channel is
//! given a route (source core → destination core), and each token write is
//! charged the corresponding MPB transfer latency, chunked per the ≤3 KB
//! rule. Unrouted channels (e.g. tile-local connections) cost nothing,
//! matching shared-MPB communication within a tile being effectively free
//! at the token periods of interest.

use crate::noc::{NocFaultPlan, NocModel};
use crate::topology::CoreId;
use rtft_kpn::{ChannelId, NodeId, Platform};
use rtft_rtc::TimeNs;
use std::collections::HashMap;

/// SCC timing model for the KPN engine.
#[derive(Debug)]
pub struct SccPlatform {
    noc: NocModel,
    routes: HashMap<ChannelId, (CoreId, CoreId)>,
    /// Stationary NoC perturbation folded into every routed transfer.
    noc_faults: NocFaultPlan,
}

impl SccPlatform {
    /// A platform over the given NoC model with no routes yet.
    pub fn new(noc: NocModel) -> Self {
        SccPlatform {
            noc,
            routes: HashMap::new(),
            noc_faults: NocFaultPlan::default(),
        }
    }

    /// A platform under the paper's boot configuration.
    pub fn paper_boot() -> Self {
        SccPlatform::new(NocModel::paper_boot())
    }

    /// Routes `channel` from `from` to `to`; writes on the channel are
    /// charged the corresponding transfer latency.
    pub fn route(&mut self, channel: ChannelId, from: CoreId, to: CoreId) -> &mut Self {
        self.routes.insert(channel, (from, to));
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
        self.noc_faults = plan;
        self
    }
}

impl Platform for SccPlatform {
    fn transfer_latency(&self, _writer: NodeId, channel: ChannelId, bytes: usize) -> TimeNs {
        match self.routes.get(&channel) {
            Some((from, to)) => {
                if self.noc_faults.is_benign() {
                    self.noc.message_latency(*from, *to, bytes)
                } else {
                    self.noc.message_latency_under(
                        &self.noc_faults,
                        *from,
                        *to,
                        bytes,
                        TimeNs::ZERO,
                    )
                }
            }
            None => TimeNs::ZERO,
        }
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
