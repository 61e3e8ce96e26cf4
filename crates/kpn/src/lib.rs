//! # rtft-kpn — Kahn-process-network runtime
//!
//! The execution substrate of the `rtft` reproduction of *"An Efficient
//! Real Time Fault Detection and Tolerance Framework Validated on the Intel
//! SCC Processor"* (Rai et al., DAC 2014).
//!
//! The paper's applications are dataflow process networks with FIFO
//! channels and blocking semantics (Kahn process networks, §2 of the
//! paper). This crate provides two runtimes over a single network
//! description:
//!
//! * [`Engine`] — a deterministic discrete-event simulator under virtual
//!   nanosecond time. All experiment tables are produced here: seeded
//!   jitter makes the paper's 20-run campaigns exactly reproducible.
//! * [`threaded::run_threaded`] — the same networks on real OS threads and
//!   wall-clock time, demonstrating the framework on an actual multicore.
//!
//! Channel semantics are pluggable through [`ChannelBehavior`]; the paper's
//! replicator and selector channels (in `rtft-core`) implement that trait
//! and therefore run unchanged under both runtimes.
//!
//! # Example
//!
//! ```
//! use rtft_kpn::{Engine, Fifo, Network, Payload, PjdSink, PjdSource, PortId, RunOutcome};
//! use rtft_rtc::{PjdModel, TimeNs};
//!
//! // producer --[fifo]--> consumer at 30 fps.
//! let mut net = Network::new();
//! let link = net.add_channel(Fifo::new("link", 4));
//! let rate = PjdModel::from_ms(30.0, 2.0, 0.0);
//! net.add_process(PjdSource::new("camera", PortId::of(link), rate, 1, Some(100), Payload::U64));
//! let sink = net.add_process(PjdSink::new("display", PortId::of(link), rate, 2, Some(100)));
//!
//! let mut engine = Engine::new(net);
//! assert!(matches!(engine.run_until(TimeNs::from_secs(10)), RunOutcome::Completed { .. }));
//! let display = engine.network().process_as::<PjdSink>(sink).expect("sink");
//! assert_eq!(display.arrivals().len(), 100);
//! ```

#![warn(missing_docs)]

mod calendar;
mod channel;
mod digest;
mod engine;
mod network;
pub mod parallel;
mod payload_pool;
mod platform;
pub mod pool;
mod process;
pub mod rng;
pub mod threaded;
mod token;

pub use channel::{
    ChannelBehavior, ChannelId, Fifo, PortId, ReadOutcome, UnboundedFifo, WriteOutcome,
};
pub use digest::{copy_digest4, digest_bytes, digest_bytes4, Digest};
pub use engine::{Engine, RunOutcome};
pub use network::{port, ChannelSlot, Network, ProcessSlot};
pub use parallel::{campaign_workers, parallel_map_ordered};
pub use payload_pool::{PayloadPool, PayloadPoolStats, PoolBuf};
pub use platform::{IdealPlatform, Platform, UniformBusPlatform};
pub use pool::{PoolLoad, PoolStats, WorkerPool};
pub use process::{
    Collector, JitterSampler, NodeId, PjdShaper, PjdSink, PjdSource, Process, Syscall, Transform,
    Wakeup,
};
pub use rng::SplitMix64;
pub use token::{Bytes, Payload, Token};
