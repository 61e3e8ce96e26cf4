//! # rtft-chaos — deterministic fault-space campaigns
//!
//! Chaos-engineering harness for the rtft workspace (the DAC'14 real-time
//! fault detection and tolerance framework). Where the unit tests of
//! `rtft-core` pin down single mechanisms, this crate sweeps the *fault
//! space*: hundreds of seeded scenarios crossing
//!
//! * **applications** — the paper's Table 1 timing profiles (MJPEG,
//!   ADPCM, H.264) via `rtft-apps`;
//! * **redundancy structures** — the paper's two-replica duplication with
//!   the timing selector, three-replica value voting, and the sampled
//!   checker (full-rate main spot-checked every `k`-th token, swept by
//!   [`generate_hetero_scenarios`]);
//! * **platforms** — ideal Kahn semantics, the SCC mesh, and the SCC mesh
//!   with a degraded NoC (`rtft-scc`);
//! * **fault kinds** — fail-stop, permanent slow-down, silent data
//!   corruption, transient and intermittent stalls, token omission, plus
//!   fault-free surveillance runs.
//!
//! Every scenario outcome is classified **against the analytic bounds** of
//! `rtft-rtc` ([`rtft_rtc::DetectionBounds`]): a permanent timing fault
//! latched inside its bound is [`OutcomeClass::DetectedInBound`]; a latch
//! on a healthy replica is a [`OutcomeClass::FalsePositive`]; an unlatched
//! fault whose output stream is wrong is a
//! [`OutcomeClass::SilentFailure`]. The campaign is the empirical check
//! that the framework's guarantees — and only its guarantees — hold.
//!
//! Everything is seed-driven: the same `(campaign_seed, count)` produces a
//! byte-identical [`CampaignReport::to_json`]. Wall-clock validation lives
//! in the separate [`threaded`] spot checks, and [`chaos_under_load`]
//! replays faulty tenants through the `rtft-fleet` executor.
//!
//! The [`net`] module extends the sweep to the *network* dimension:
//! [`run_net_chaos`] drives a live `rtft-serve` server with hundreds of
//! concurrent connections while a seeded subset injects replica faults,
//! slow-loris stalls, malformed frames, partial writes, abrupt
//! disconnects and quota storms — then proves the token books balanced
//! and the write-ahead log replays clean.
//!
//! ```
//! use rtft_chaos::{Campaign, OutcomeClass};
//!
//! let report = Campaign::generate(0xDAC14, 25).run();
//! assert_eq!(report.outcomes.len(), 25);
//! // No healthy replica may ever be latched.
//! assert_eq!(report.count(OutcomeClass::FalsePositive), 0);
//! ```

#![warn(missing_docs)]

mod bounds;
mod campaign;
mod load;
pub mod net;
pub mod replay;
mod runner;
mod scenario;
mod tenants;
pub mod threaded;

pub use bounds::BoundCheck;
pub use campaign::{Campaign, CampaignReport};
pub use load::chaos_under_load;
pub use net::{
    generate_net_scenarios, run_net_chaos, soak_net_chaos, NetChaosConfig, NetChaosReport,
    NetFaultKind, NetOutcome, NetScenario, NetScenarioOutcome, NetSoakReport,
};
pub use replay::{classify_replay, ReplayVerdict};
pub use runner::{run_scenario, OutcomeClass, ScenarioOutcome};
pub use scenario::{
    generate_hetero_scenarios, generate_scenarios, kind_label, FaultSpec, PlatformKind, Redundancy,
    Scenario, SCENARIO_TOKENS, SERVICE_DIVISOR,
};
pub use tenants::{
    chaos_with_tenants, TenantChaosReport, CHAOS_TENANTS, DETACHED_TENANT, FAULTY_TENANT,
};
pub use threaded::{run_spot_checks, SpotCheck};
