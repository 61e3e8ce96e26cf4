//! Execution-platform hooks: communication latency.
//!
//! The simulation engine is platform-agnostic; a [`Platform`] implementation
//! injects the timing properties of the hardware the network is "mapped"
//! onto. `rtft-scc` provides the Intel SCC model; [`IdealPlatform`] is the
//! zero-cost default (infinite-bandwidth shared memory).

use crate::channel::ChannelId;
use crate::process::NodeId;
use rtft_rtc::TimeNs;
use std::fmt;

/// Platform timing model consulted by the runtime.
pub trait Platform: fmt::Debug + Send {
    /// Time the writing process spends transferring `bytes` into `channel`.
    ///
    /// Charged to the writer *before* the write attempt (the send occupies
    /// the producing core, as iRCCE-style MPB messaging does on the SCC).
    fn transfer_latency(&self, writer: NodeId, channel: ChannelId, bytes: usize) -> TimeNs;

    /// `true` when [`Platform::transfer_latency`] is identically zero, so
    /// the engine can skip the per-write latency query entirely.
    fn zero_transfer(&self) -> bool {
        false
    }
}

/// Zero-latency, unit-speed platform: pure Kahn semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealPlatform;

impl Platform for IdealPlatform {
    fn transfer_latency(&self, _writer: NodeId, _channel: ChannelId, _bytes: usize) -> TimeNs {
        TimeNs::ZERO
    }

    fn zero_transfer(&self) -> bool {
        true
    }
}

/// A platform with a fixed per-byte cost and per-message overhead on every
/// channel — a simple bus model, useful in tests and ablations.
#[derive(Debug, Clone, Copy)]
pub struct UniformBusPlatform {
    /// Fixed cost per message.
    pub per_message: TimeNs,
    /// Cost per payload byte, in picoseconds (sub-nanosecond rates are
    /// common: 1 GB/s ≈ 931 ps per byte).
    pub per_byte_ps: u64,
}

impl Platform for UniformBusPlatform {
    fn transfer_latency(&self, _writer: NodeId, _channel: ChannelId, bytes: usize) -> TimeNs {
        self.per_message + TimeNs::from_ns((bytes as u64 * self.per_byte_ps) / 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_platform_is_free() {
        let p = IdealPlatform;
        assert_eq!(
            p.transfer_latency(NodeId(0), ChannelId(0), 1 << 20),
            TimeNs::ZERO
        );
    }

    #[test]
    fn uniform_bus_charges_linear_cost() {
        let p = UniformBusPlatform {
            per_message: TimeNs::from_us(1),
            per_byte_ps: 1000,
        };
        // 1 µs + 3000 B × 1 ns.
        assert_eq!(
            p.transfer_latency(NodeId(0), ChannelId(0), 3000),
            TimeNs::from_us(1) + TimeNs::from_us(3)
        );
    }
}
