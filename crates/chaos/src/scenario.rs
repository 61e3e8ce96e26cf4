//! Deterministic fault-space scenario generation.
//!
//! A [`Scenario`] fixes every axis of one chaos experiment — application,
//! redundancy structure, execution platform, fault specification, and RNG
//! seed — so the same scenario always produces the same outcome. The
//! generator expands a single campaign seed into an arbitrary number of
//! scenarios by walking a [`SplitMix64`] stream; nothing else feeds it, so
//! two campaigns built from the same `(seed, count)` are identical.

use rtft_apps::networks::App;
use rtft_core::{CorruptionMode, FaultKind, FaultPlan, FaultTrigger};
pub use rtft_fleet::{Redundancy, SERVICE_DIVISOR};
use rtft_kpn::SplitMix64;
use rtft_rtc::sizing::SizingReport;
use rtft_rtc::TimeNs;

/// Tokens every scenario's producer emits.
pub const SCENARIO_TOKENS: u64 = 140;

/// Which timing model the DES charges for communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Zero-cost ideal platform (pure Kahn semantics).
    Ideal,
    /// The SCC mesh under the paper's boot clocks.
    Scc,
    /// The SCC mesh with a uniformly degraded NoC
    /// (`NocFaultPlan::uniform`).
    SccDegradedNoc,
}

impl PlatformKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::Ideal => "ideal",
            PlatformKind::Scc => "scc",
            PlatformKind::SccDegradedNoc => "scc-degraded-noc",
        }
    }
}

/// One injected fault: which replica, what kind, when.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Index of the replica the fault attaches to.
    pub replica: usize,
    /// The failure mode.
    pub kind: FaultKind,
    /// Virtual injection instant (the fault takes effect at the replica's
    /// next activation at or after this time).
    pub at: TimeNs,
}

impl FaultSpec {
    /// The runnable fault plan, seeded for the probabilistic kinds.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            trigger: FaultTrigger::AtTime(self.at),
            kind: self.kind,
            seed,
        }
    }

    /// `true` for faults that permanently degrade the replica's *timing*
    /// (fail-stop or a permanent slow-down that actually shows at the
    /// output) — the class the paper's detectors guarantee to catch.
    pub fn is_permanent_timing(&self) -> bool {
        match self.kind {
            FaultKind::FailStop => true,
            FaultKind::SlowBy(f) => f > SERVICE_DIVISOR as f64,
            _ => false,
        }
    }

    /// `true` for silent-data-corruption faults.
    pub fn is_value(&self) -> bool {
        matches!(self.kind, FaultKind::Corrupt(_))
    }

    /// Report label of the fault kind.
    pub fn kind_label(&self) -> &'static str {
        kind_label(&self.kind)
    }
}

/// Report label of a [`FaultKind`] (stable across parameterisations, so
/// latency statistics can aggregate by kind).
pub fn kind_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::FailStop => "fail-stop",
        FaultKind::SlowBy(_) => "slow-by",
        FaultKind::Corrupt(_) => "corrupt",
        FaultKind::Transient { .. } => "transient",
        FaultKind::Intermittent { .. } => "intermittent",
        FaultKind::Omission(_) => "omission",
    }
}

/// One point of the fault space: everything needed to build, run, and
/// classify a single experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Position in the campaign (also the report ordering key).
    pub id: u64,
    /// Which application's Table 1 timing profile drives the network.
    pub app: App,
    /// Replication structure.
    pub redundancy: Redundancy,
    /// Communication timing model.
    pub platform: PlatformKind,
    /// The injected fault; `None` is a fault-free surveillance run (any
    /// latch is a false positive by construction).
    pub fault: Option<FaultSpec>,
    /// Scenario RNG seed (payloads, jitter, probabilistic faults).
    pub seed: u64,
    /// Tokens the producer emits.
    pub token_count: u64,
}

/// Expands `campaign_seed` into `count` scenarios, deterministically.
///
/// The palette interleaves every fault kind with both redundancy
/// structures: permanent timing faults (which the analytic bounds must
/// catch), self-healing transient/intermittent stalls, token omission,
/// silent data corruption (on both the timing selector — where it can slip
/// through — and the voting selector — where it must not), and fault-free
/// surveillance runs.
pub fn generate_scenarios(campaign_seed: u64, count: u64) -> Vec<Scenario> {
    let mut rng = SplitMix64::seed_from_u64(campaign_seed);
    // Pre-compute each app's permanent-fault detection bound once; the
    // transient/intermittent window lengths are expressed relative to it.
    let apps = App::ALL;
    let permanent_bounds: Vec<TimeNs> = apps
        .iter()
        .map(|app| {
            let model = app.profile().model;
            let sizing = SizingReport::analyze(&model).expect("profile models are bounded");
            sizing.detection_bounds(&model).permanent_timing()
        })
        .collect();

    let platforms = [
        PlatformKind::Ideal,
        PlatformKind::Scc,
        PlatformKind::SccDegradedNoc,
    ];

    (0..count)
        .map(|id| {
            let app_ix = (rng.next_u64() % apps.len() as u64) as usize;
            let app = apps[app_ix];
            let platform = platforms[(rng.next_u64() % platforms.len() as u64) as usize];
            let period = app.profile().model.producer.period;
            let bound = permanent_bounds[app_ix];
            let palette = rng.next_u64() % 15;
            let (kind, redundancy) = match palette {
                0 => (Some(FaultKind::FailStop), Redundancy::Duplicated),
                1 => (Some(FaultKind::FailStop), Redundancy::TriVoting),
                2 => (Some(FaultKind::SlowBy(4.0)), Redundancy::Duplicated),
                3 => (Some(FaultKind::SlowBy(8.0)), Redundancy::Duplicated),
                4 => (Some(FaultKind::SlowBy(6.0)), Redundancy::TriVoting),
                5 => (
                    Some(FaultKind::Corrupt(CorruptionMode::BitFlip(
                        (rng.next_u64() % 64) as u32,
                    ))),
                    Redundancy::TriVoting,
                ),
                6 => (
                    Some(FaultKind::Corrupt(CorruptionMode::Substitute(
                        rng.next_u64() | 1,
                    ))),
                    Redundancy::TriVoting,
                ),
                7 => (
                    Some(FaultKind::Corrupt(CorruptionMode::BitFlip(
                        (rng.next_u64() % 64) as u32,
                    ))),
                    Redundancy::Duplicated,
                ),
                8 => (Some(FaultKind::Omission(0.3)), Redundancy::TriVoting),
                9 => (Some(FaultKind::Omission(0.5)), Redundancy::Duplicated),
                10 => (
                    Some(FaultKind::Transient {
                        duration: bound * 2,
                    }),
                    Redundancy::Duplicated,
                ),
                11 => (
                    Some(FaultKind::Transient {
                        duration: period / 2,
                    }),
                    Redundancy::Duplicated,
                ),
                12 => (
                    Some(FaultKind::Intermittent {
                        on: bound * 2,
                        off: bound,
                    }),
                    Redundancy::Duplicated,
                ),
                13 => (None, Redundancy::Duplicated),
                _ => (None, Redundancy::TriVoting),
            };
            let fault = kind.map(|kind| {
                let replica = (rng.next_u64() % redundancy.replicas() as u64) as usize;
                // Inject inside [20%, 50%] of the stream so enough traffic
                // remains for every detector to play out.
                let frac = 0.2 + 0.3 * rng.next_f64();
                let stream_ns = period.as_ns() * SCENARIO_TOKENS;
                FaultSpec {
                    replica,
                    kind,
                    at: TimeNs::from_ns((frac * stream_ns as f64) as u64),
                }
            });
            Scenario {
                id,
                app,
                redundancy,
                platform,
                fault,
                seed: rng.next_u64(),
                token_count: SCENARIO_TOKENS,
            }
        })
        .collect()
}

/// Expands `campaign_seed` into `count` sampled-checker scenarios at
/// stride `k`, deterministically. Kept separate from
/// [`generate_scenarios`] so existing campaign reports stay byte-identical.
///
/// Value faults only target the **main** replica (side `0`): the checker
/// is the trusted side by construction, so a corrupted checker latching
/// the healthy main would be misclassified as a false positive. Timing
/// faults target either side. Streams are stretched by `8·k` tokens so the
/// sampled-divergence detector (latency `∝ k`) has room to play out.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn generate_hetero_scenarios(campaign_seed: u64, count: u64, k: u64) -> Vec<Scenario> {
    assert!(k > 0, "sampling stride must be positive");
    let mut rng = SplitMix64::seed_from_u64(campaign_seed ^ 0x8E7E_0000 ^ k);
    let apps = App::ALL;
    let permanent_bounds: Vec<TimeNs> = apps
        .iter()
        .map(|app| {
            let model = app.profile().model;
            let sizing = SizingReport::analyze(&model).expect("profile models are bounded");
            sizing.detection_bounds(&model).permanent_timing()
        })
        .collect();
    let platforms = [
        PlatformKind::Ideal,
        PlatformKind::Scc,
        PlatformKind::SccDegradedNoc,
    ];
    let token_count = SCENARIO_TOKENS + 8 * k;

    (0..count)
        .map(|id| {
            let app_ix = (rng.next_u64() % apps.len() as u64) as usize;
            let app = apps[app_ix];
            let platform = platforms[(rng.next_u64() % platforms.len() as u64) as usize];
            let period = app.profile().model.producer.period;
            let bound = permanent_bounds[app_ix];
            let palette = rng.next_u64() % 8;
            let (kind, replica) = match palette {
                0 => (Some(FaultKind::FailStop), 0),
                1 => (Some(FaultKind::FailStop), 1),
                2 => (Some(FaultKind::SlowBy(6.0)), 0),
                3 => (
                    Some(FaultKind::Corrupt(CorruptionMode::BitFlip(
                        (rng.next_u64() % 64) as u32,
                    ))),
                    0,
                ),
                4 => (
                    Some(FaultKind::Corrupt(CorruptionMode::Substitute(
                        rng.next_u64() | 1,
                    ))),
                    0,
                ),
                5 => (Some(FaultKind::Omission(0.4)), 0),
                6 => (
                    Some(FaultKind::Transient {
                        duration: bound * 2,
                    }),
                    0,
                ),
                _ => (None, 0),
            };
            let fault = kind.map(|kind| {
                let frac = 0.2 + 0.3 * rng.next_f64();
                let stream_ns = period.as_ns() * token_count;
                FaultSpec {
                    replica,
                    kind,
                    at: TimeNs::from_ns((frac * stream_ns as f64) as u64),
                }
            });
            Scenario {
                id,
                app,
                redundancy: Redundancy::Hetero { k },
                platform,
                fault,
                seed: rng.next_u64(),
                token_count,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_scenarios(42, 100);
        let b = generate_scenarios(42, 100);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        // A different campaign seed permutes the space.
        let c = generate_scenarios(43, 100);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| format!("{x:?}") != format!("{y:?}")),
            "different seeds must generate different campaigns"
        );
    }

    #[test]
    fn palette_covers_every_kind_and_structure() {
        let scenarios = generate_scenarios(7, 300);
        let mut labels: Vec<&str> = scenarios
            .iter()
            .filter_map(|s| s.fault.map(|f| f.kind_label()))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels,
            [
                "corrupt",
                "fail-stop",
                "intermittent",
                "omission",
                "slow-by",
                "transient"
            ]
        );
        assert!(scenarios
            .iter()
            .any(|s| s.redundancy == Redundancy::TriVoting && s.fault.is_none()));
        assert!(scenarios
            .iter()
            .any(|s| s.platform == PlatformKind::SccDegradedNoc));
        // Corruption hits both selector types.
        assert!(scenarios.iter().any(|s| s
            .fault
            .is_some_and(|f| f.is_value() && s.redundancy == Redundancy::Duplicated)));
        assert!(scenarios.iter().any(|s| s
            .fault
            .is_some_and(|f| f.is_value() && s.redundancy == Redundancy::TriVoting)));
    }

    #[test]
    fn hetero_generation_is_deterministic_and_trusts_the_checker() {
        let a = generate_hetero_scenarios(42, 80, 4);
        let b = generate_hetero_scenarios(42, 80, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let mut kinds = std::collections::BTreeSet::new();
        for s in &a {
            assert_eq!(s.redundancy, Redundancy::Hetero { k: 4 });
            assert_eq!(s.redundancy.label(), "hetero-k4");
            assert_eq!(s.token_count, SCENARIO_TOKENS + 32);
            if let Some(f) = s.fault {
                kinds.insert(f.kind_label());
                if f.is_value() {
                    assert_eq!(f.replica, 0, "value faults only hit the main side");
                }
                assert!(f.replica < 2);
            }
        }
        assert!(kinds.contains("fail-stop") && kinds.contains("corrupt"));
        // A different stride generates a different campaign.
        let c = generate_hetero_scenarios(42, 80, 16);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| format!("{x:?}") != format!("{y:?}")));
        assert!(c.iter().all(|s| s.token_count == SCENARIO_TOKENS + 128));
    }

    #[test]
    fn injection_times_sit_inside_the_stream() {
        for s in generate_scenarios(11, 200) {
            if let Some(f) = s.fault {
                let stream = s.app.profile().model.producer.period * s.token_count;
                assert!(f.at >= TimeNs::from_ns(stream.as_ns() / 5));
                assert!(f.at <= TimeNs::from_ns(stream.as_ns() / 2 + 1));
                assert!(f.replica < s.redundancy.replicas());
            }
        }
    }
}
