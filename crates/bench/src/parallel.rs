//! Campaign-level parallelism for the experiment harness.
//!
//! The driver itself lives in [`rtft_kpn::parallel`] so `rtft-chaos` (a
//! dependency of this crate) can use the same implementation; this module
//! is the harness-facing façade. Every campaign in
//! [`crate::campaign`] scatters its independent seeded runs through
//! [`parallel_map_ordered`] and folds the gathered per-run results in
//! scenario-index order, which keeps the emitted JSON byte-identical for
//! any worker count (see `DESIGN.md`, "Parallel campaign execution").
//!
//! Worker count defaults to [`campaign_workers`] — all available cores;
//! each campaign's `*_with_workers` form pins it (`1` forces the inline
//! sequential path).

pub use rtft_kpn::parallel::{campaign_workers, parallel_map_ordered};
