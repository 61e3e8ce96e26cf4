//! # rtft-scc — Intel SCC processor emulation
//!
//! A timing-faithful software model of the hardware the paper validated
//! its framework on: Intel's 48-core Single-Chip Cloud Computer in
//! bare-metal mode (§4.1 of Rai et al., DAC 2014). The real silicon is a
//! discontinued 2010 research vehicle; this crate reproduces the
//! properties the paper's experiments actually depend on:
//!
//! * [`topology`] — 24 dual-core tiles on a 6×4 mesh, deterministic X-Y
//!   routing;
//! * [`clock`] — the paper's boot clocks (tile 533 MHz / router 800 MHz /
//!   DDR3 800 MHz) and per-core timestamp counters with boot-time
//!   synchronisation;
//! * [`noc`] — MPB message timing with the ≤3 KB chunk rule;
//! * [`mpb`] — per-core 8 KB message-passing-buffer budgets;
//! * [`mapping`] — the low-contention one-process-per-tile placement of
//!   §4.1;
//! * [`SccPlatform`] — the bridge charging these latencies to a
//!   `rtft-kpn` simulation: every message a network sends across the
//!   emulated die is timed there, at the writing process.
//!
//! # Example: timing a frame transfer across the die
//!
//! ```
//! use rtft_scc::{CoreId, NocModel};
//! use rtft_rtc::TimeNs;
//!
//! let noc = NocModel::paper_boot();
//! // One 10 KB encoded MJPEG frame, corner to corner (8 hops, 4 chunks).
//! let t = noc.message_latency(CoreId::new(0), CoreId::new(47), 10 * 1024);
//! assert!(t < TimeNs::from_ms(1)); // ≪ the 30 ms frame period
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod mapping;
pub mod mpb;
pub mod noc;
mod platform;
pub mod topology;

pub use clock::{ClockDomain, SccClocks, Tsc, TscBank};
pub use mapping::{low_contention_pipeline, row_major, snake_order, Mapping};
pub use mpb::{MpbAllocator, MpbExhausted, MpbRegion};
pub use noc::{NocFaultPlan, NocModel, MAX_CHUNK_BYTES, MPB_BYTES_PER_CORE};
pub use platform::SccPlatform;
pub use topology::{route_links, CoreId, Link, TileId, CORE_COUNT, TILE_COUNT};
