//! Scenario execution and outcome classification.
//!
//! [`run_scenario`] builds the scenario's network, runs it to completion
//! under the deterministic DES, and classifies what happened against the
//! analytic detection bounds of `rtft-rtc`:
//!
//! * [`OutcomeClass::DetectedInBound`] — the faulty replica was latched
//!   within its analytic bound (plus one activation period of grace, since
//!   an `AtTime` fault takes effect at the replica's next resume);
//! * [`OutcomeClass::DetectedLate`] — latched, but after the bound (or the
//!   fault class carries no guarantee at all);
//! * [`OutcomeClass::Masked`] — never latched, yet every expected token
//!   arrived with the correct payload digest;
//! * [`OutcomeClass::SilentFailure`] — never latched and the output is
//!   wrong (missing tokens or corrupted digests reached the consumer);
//! * [`OutcomeClass::FalsePositive`] — a *healthy* replica was latched.

use crate::bounds::BoundCheck;
use crate::scenario::{FaultSpec, PlatformKind, Redundancy, Scenario, SERVICE_DIVISOR};
use rtft_core::{FaultKind, PayloadGenerator};
use rtft_fleet::{des_horizon, JobTemplate, StructureBounds};
use rtft_kpn::{Bytes, ChannelId, Engine, Network, Payload, SplitMix64};
use rtft_rtc::detection::{DetectionBounds, HeteroBounds};
use rtft_rtc::{PjdModel, TimeNs};
use rtft_scc::{low_contention_pipeline, NocFaultPlan, SccPlatform};
use std::sync::Arc;

/// How a scenario ended, relative to the framework's guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// Faulty replica latched within the analytic bound.
    DetectedInBound,
    /// Faulty replica latched after the bound (or no bound exists).
    DetectedLate,
    /// No latch, and the delivered stream is complete and value-correct.
    Masked,
    /// No latch, and the delivered stream is wrong.
    SilentFailure,
    /// A healthy replica was latched.
    FalsePositive,
    /// Deterministic WAL replay of the stream produced different output
    /// digests than the live run recorded — a transient fault in the
    /// original execution detected after the fact (see [`crate::replay`]).
    ReplayDivergence,
}

impl OutcomeClass {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeClass::DetectedInBound => "detected-in-bound",
            OutcomeClass::DetectedLate => "detected-late",
            OutcomeClass::Masked => "masked",
            OutcomeClass::SilentFailure => "silent-failure",
            OutcomeClass::FalsePositive => "false-positive",
            OutcomeClass::ReplayDivergence => "replay-divergence",
        }
    }

    /// Every class, in report order.
    pub const ALL: [OutcomeClass; 6] = [
        OutcomeClass::DetectedInBound,
        OutcomeClass::DetectedLate,
        OutcomeClass::Masked,
        OutcomeClass::SilentFailure,
        OutcomeClass::FalsePositive,
        OutcomeClass::ReplayDivergence,
    ];
}

/// The classified result of one scenario run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// Classification against the analytic bounds.
    pub class: OutcomeClass,
    /// Earliest latch on the *faulty* replica, if any.
    pub detected_at: Option<TimeNs>,
    /// `detected_at − injection instant` (scheduled, not effective).
    pub detection_latency: Option<TimeNs>,
    /// The analytic bound the latency was judged against.
    pub bound: Option<TimeNs>,
    /// Tokens the consumer received.
    pub arrivals: u64,
    /// Delivered tokens whose payload digest differed from the reference.
    pub value_errors: u64,
}

/// The analytic latch bound for this scenario's fault, from the
/// [`DetectionBounds`] table. `None` means the framework makes no promise
/// (mild slow-downs the shaper hides; corruption under the timing
/// selector).
fn analytic_bound(s: &Scenario, f: &FaultSpec, b: &DetectionBounds) -> Option<TimeNs> {
    match f.kind {
        FaultKind::FailStop => Some(b.permanent_timing()),
        FaultKind::SlowBy(raw) => {
            let eff = raw / SERVICE_DIVISOR as f64;
            if eff > 1.0 {
                b.slow_by(eff)
            } else {
                None
            }
        }
        FaultKind::Corrupt(_) => match s.redundancy {
            Redundancy::TriVoting => Some(b.value_vote()),
            Redundancy::Duplicated => None,
            // Hetero scenarios are judged by [`hetero_analytic_bound`].
            Redundancy::Hetero { .. } => None,
        },
        // A stalled window behaves fail-stop while it lasts; if it latches
        // at all, it must latch like a permanent fault.
        FaultKind::Transient { .. } | FaultKind::Intermittent { .. } => Some(b.permanent_timing()),
        // Heuristic: each token is dropped with probability `p`, so the
        // divergence surplus accrues `p`-fold slower than under fail-stop.
        FaultKind::Omission(p) => Some(TimeNs::from_ns(
            (b.fail_stop.as_ns() as f64 / p).ceil() as u64
        )),
    }
}

/// The analytic latch bound for a hetero scenario's fault, from the
/// [`HeteroBounds`] table. Side 0 is the full-rate main (overflow and
/// sampled-divergence detectors race; digest mismatches convict it), side 1
/// the trusted checker (only the sampled-divergence detector sees it).
fn hetero_analytic_bound(f: &FaultSpec, b: &HeteroBounds) -> Option<TimeNs> {
    match f.kind {
        FaultKind::FailStop | FaultKind::Transient { .. } | FaultKind::Intermittent { .. } => {
            Some(if f.replica == 0 {
                b.permanent_timing()
            } else {
                b.sampled_divergence
            })
        }
        FaultKind::SlowBy(raw) => {
            let eff = raw / SERVICE_DIVISOR as f64;
            if f.replica == 0 && eff > 1.0 {
                b.slow_by(eff)
            } else {
                None
            }
        }
        // The checker is trusted: a corrupting main is convicted at the
        // next verified sample; a corrupting checker convicts the main
        // instead, so no per-side promise exists there.
        FaultKind::Corrupt(_) => {
            if f.replica == 0 {
                Some(b.value)
            } else {
                None
            }
        }
        // Sample surplus accrues `p`-fold slower, on the sampled stream.
        FaultKind::Omission(p) => Some(TimeNs::from_ns(
            (b.sampled_divergence.as_ns() as f64 / p).ceil() as u64,
        )),
    }
}

/// Deterministic token payloads: a cycle of eight byte blocks of the
/// application's Table 1 token size, filled from the scenario seed and
/// hashed in lanes as a batch, so every later `digest()` is a memo read.
pub(crate) fn payload_cycle(seed: u64, bytes: usize) -> PayloadGenerator {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let blocks: Vec<Bytes> = (0..8)
        .map(|_| {
            let mut buf = vec![0u8; bytes];
            let mut words = buf.chunks_exact_mut(8);
            for word in &mut words {
                word.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let tail = words.into_remainder();
            if !tail.is_empty() {
                tail.copy_from_slice(&rng.next_u64().to_le_bytes()[..tail.len()]);
            }
            Bytes::from(buf)
        })
        .collect();
    Bytes::digest_all(&blocks);
    Arc::new(move |seq| Payload::from(blocks[(seq % 8) as usize].clone()))
}

/// Wraps the built network in the scenario's platform and returns the
/// engine. SCC platforms route the two arbitration channels across the
/// mesh with the low-contention mapping; the degraded variant adds a
/// uniform [`NocFaultPlan`] (10 µs per chunk, 5 µs per chunk-hop).
fn engine_for(s: &Scenario, net: Network, replicator: ChannelId, selector: ChannelId) -> Engine {
    match s.platform {
        PlatformKind::Ideal => Engine::new(net),
        PlatformKind::Scc | PlatformKind::SccDegradedNoc => {
            let mapping = low_contention_pipeline(4);
            let mut platform = if s.platform == PlatformKind::SccDegradedNoc {
                SccPlatform::paper_boot().with_noc_faults(NocFaultPlan::uniform(
                    TimeNs::from_us(10),
                    TimeNs::from_us(5),
                ))
            } else {
                SccPlatform::paper_boot()
            };
            platform.route(replicator, mapping.core(0), mapping.core(1));
            platform.route(selector, mapping.core(2), mapping.core(3));
            Engine::with_platform(net, Box::new(platform))
        }
    }
}

/// Classifies a finished run from its per-replica latch times and the
/// consumer's arrival record. `bound` is the precomputed analytic bound
/// for this scenario's fault ([`analytic_bound`] or
/// [`hetero_analytic_bound`]); `producer` feeds the activation grace of
/// the shared [`BoundCheck`] rule.
fn classify(
    s: &Scenario,
    producer: &PjdModel,
    bound: Option<TimeNs>,
    latches: &[Option<TimeNs>],
    arrivals: &[(TimeNs, u64)],
    expected_digests: &[u64],
) -> ScenarioOutcome {
    let value_errors = arrivals
        .iter()
        .enumerate()
        .filter(|(k, (_, digest))| *digest != expected_digests[k % expected_digests.len()])
        .count() as u64;
    let complete = arrivals.len() as u64 == s.token_count;

    let (class, detected_at, latency, bound) = match s.fault {
        None => {
            if latches.iter().any(Option::is_some) {
                (OutcomeClass::FalsePositive, None, None, None)
            } else if complete && value_errors == 0 {
                (OutcomeClass::Masked, None, None, None)
            } else {
                (OutcomeClass::SilentFailure, None, None, None)
            }
        }
        Some(f) => {
            let healthy_latched = latches
                .iter()
                .enumerate()
                .any(|(i, l)| i != f.replica && l.is_some());
            let detected_at = latches[f.replica];
            if healthy_latched {
                (OutcomeClass::FalsePositive, detected_at, None, bound)
            } else if let Some(at) = detected_at {
                // An AtTime fault takes effect at the replica's next
                // activation, up to one period after the scheduled
                // instant — grant that grace before judging the bound.
                let latency = at.saturating_sub(f.at);
                let class = match bound {
                    Some(b) if BoundCheck::with_producer_grace(b, producer).admits_at(at, f.at) => {
                        OutcomeClass::DetectedInBound
                    }
                    _ => OutcomeClass::DetectedLate,
                };
                (class, Some(at), Some(latency), bound)
            } else if complete && value_errors == 0 {
                (OutcomeClass::Masked, None, None, bound)
            } else {
                (OutcomeClass::SilentFailure, None, None, bound)
            }
        }
    };

    ScenarioOutcome {
        scenario: *s,
        class,
        detected_at,
        detection_latency: latency,
        bound,
        arrivals: arrivals.len() as u64,
        value_errors,
    }
}

/// Builds, runs, and classifies one scenario under the deterministic DES.
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    let profile = s.app.profile();
    let model = profile.model;
    let payload = payload_cycle(s.seed, profile.input_token_bytes);
    let expected_digests: Vec<u64> = (0..8).map(|i| payload(i).digest()).collect();
    let horizon = des_horizon(&model, s.token_count);

    let mut template = JobTemplate::for_model(&model, s.redundancy, s.seed, s.token_count, payload);
    if let Some(f) = s.fault {
        template = template.with_fault(f.replica, f.plan(s.seed ^ 0xFA01));
    }
    let bound = s.fault.and_then(|f| match template.bounds() {
        StructureBounds::Timing(b) => analytic_bound(s, &f, &b),
        StructureBounds::Sampled(b) => hetero_analytic_bound(&f, &b),
    });
    let (net, ids) = template.build();

    let mut engine = engine_for(s, net, ids.replicator, ids.selector);
    engine.run_until(horizon);
    let net = engine.network();
    // Each replica's earliest latch over both arbitration channels.
    let latches: Vec<Option<TimeNs>> = ids
        .replicator_faults(net)
        .iter()
        .zip(&ids.selector_faults(net))
        .map(|(rep, sel)| [rep, sel].into_iter().flatten().map(|f| f.at).min())
        .collect();
    classify(
        s,
        &model.producer,
        bound,
        &latches,
        ids.consumer_arrivals(net),
        &expected_digests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SCENARIO_TOKENS;
    use rtft_apps::networks::App;
    use rtft_core::CorruptionMode;

    fn base(app: App, redundancy: Redundancy, fault: Option<FaultSpec>) -> Scenario {
        Scenario {
            id: 0,
            app,
            redundancy,
            platform: PlatformKind::Ideal,
            fault,
            seed: 0xDECADE,
            token_count: SCENARIO_TOKENS,
        }
    }

    /// The chunked fill writes the bytes the per-word `copy_from_slice`
    /// loop wrote, tail included; the Table 1 token sizes are pinned by
    /// digest besides.
    #[test]
    fn payload_fill_is_byte_identical_to_the_per_word_loop() {
        let per_word_loop = |seed: u64, bytes: usize| -> Vec<Vec<u8>> {
            let mut rng = SplitMix64::seed_from_u64(seed);
            (0..8)
                .map(|_| {
                    let mut buf = vec![0u8; bytes];
                    for chunk in buf.chunks_mut(8) {
                        let w = rng.next_u64().to_le_bytes();
                        chunk.copy_from_slice(&w[..chunk.len()]);
                    }
                    buf
                })
                .collect()
        };
        for bytes in (0..=17).chain([3_072, 10_240, 76_800]) {
            let payload = payload_cycle(0xDECADE, bytes);
            for (i, block) in per_word_loop(0xDECADE, bytes).iter().enumerate() {
                let filled = payload(i as u64 + 8);
                assert_eq!(
                    &filled.as_bytes().expect("byte block")[..],
                    &block[..],
                    "{bytes} B, block {i}"
                );
            }
        }
        let pinned = [
            (3_072, 0x1f66_3d9c_5aad_3b4bu64),
            (10_240, 0x2572_831c_59c2_82d8),
            (76_800, 0x298b_5e49_3b6d_faa8),
        ];
        for (bytes, pin) in pinned {
            let payload = payload_cycle(0xDECADE, bytes);
            let fnv = (0..8).fold(0u64, |acc, i| acc.rotate_left(7) ^ payload(i).digest());
            assert_eq!(fnv, pin, "{bytes} B: {fnv:#018x}");
        }
    }

    #[test]
    fn fault_free_scenario_is_masked() {
        for redundancy in [Redundancy::Duplicated, Redundancy::TriVoting] {
            let out = run_scenario(&base(App::Adpcm, redundancy, None));
            assert_eq!(out.class, OutcomeClass::Masked, "{out:?}");
            assert_eq!(out.arrivals, SCENARIO_TOKENS);
            assert_eq!(out.value_errors, 0);
        }
    }

    #[test]
    fn fail_stop_is_detected_in_bound_on_both_structures() {
        let at = TimeNs::from_ms(400);
        for redundancy in [Redundancy::Duplicated, Redundancy::TriVoting] {
            let fault = FaultSpec {
                replica: 1,
                kind: FaultKind::FailStop,
                at,
            };
            let out = run_scenario(&base(App::Adpcm, redundancy, Some(fault)));
            assert_eq!(out.class, OutcomeClass::DetectedInBound, "{out:?}");
            assert!(out.detected_at.expect("latched") > at);
        }
    }

    #[test]
    fn corruption_is_caught_by_voting_but_can_slip_past_the_timing_selector() {
        let fault = FaultSpec {
            replica: 0,
            kind: FaultKind::Corrupt(CorruptionMode::BitFlip(9)),
            at: TimeNs::from_ms(300),
        };
        let voting = run_scenario(&base(App::Adpcm, Redundancy::TriVoting, Some(fault)));
        assert!(
            matches!(
                voting.class,
                OutcomeClass::DetectedInBound | OutcomeClass::DetectedLate
            ),
            "{voting:?}"
        );
        assert_eq!(voting.value_errors, 0, "voting must mask the bad values");

        let duplicated = run_scenario(&base(App::Adpcm, Redundancy::Duplicated, Some(fault)));
        assert!(
            matches!(
                duplicated.class,
                OutcomeClass::SilentFailure | OutcomeClass::Masked
            ),
            "timing selector cannot *detect* corruption: {duplicated:?}"
        );
    }

    #[test]
    fn scc_platform_preserves_detection() {
        let fault = FaultSpec {
            replica: 0,
            kind: FaultKind::FailStop,
            at: TimeNs::from_secs(1),
        };
        for platform in [PlatformKind::Scc, PlatformKind::SccDegradedNoc] {
            let s = Scenario {
                platform,
                ..base(App::Mjpeg, Redundancy::Duplicated, Some(fault))
            };
            let out = run_scenario(&s);
            assert_eq!(out.class, OutcomeClass::DetectedInBound, "{out:?}");
        }
    }

    #[test]
    fn short_transient_is_masked_long_transient_is_detected() {
        let period = App::Adpcm.profile().model.producer.period;
        let short = FaultSpec {
            replica: 1,
            kind: FaultKind::Transient {
                duration: period / 2,
            },
            at: TimeNs::from_ms(300),
        };
        let out = run_scenario(&base(App::Adpcm, Redundancy::Duplicated, Some(short)));
        assert_eq!(out.class, OutcomeClass::Masked, "{out:?}");

        let long = FaultSpec {
            replica: 1,
            kind: FaultKind::Transient {
                duration: TimeNs::from_secs(2),
            },
            at: TimeNs::from_ms(300),
        };
        let out = run_scenario(&base(App::Adpcm, Redundancy::Duplicated, Some(long)));
        assert_eq!(out.class, OutcomeClass::DetectedInBound, "{out:?}");
    }

    #[test]
    fn hetero_fault_free_is_masked_fail_stop_is_in_bound_on_either_side() {
        let healthy = run_scenario(&base(App::Adpcm, Redundancy::Hetero { k: 4 }, None));
        assert_eq!(healthy.class, OutcomeClass::Masked, "{healthy:?}");
        assert_eq!(healthy.arrivals, SCENARIO_TOKENS);
        assert_eq!(healthy.value_errors, 0);

        let at = TimeNs::from_ms(400);
        for replica in [0, 1] {
            let fault = FaultSpec {
                replica,
                kind: FaultKind::FailStop,
                at,
            };
            let out = run_scenario(&base(App::Adpcm, Redundancy::Hetero { k: 4 }, Some(fault)));
            assert_eq!(out.class, OutcomeClass::DetectedInBound, "{out:?}");
            assert!(out.detected_at.expect("latched") > at);
        }
    }

    #[test]
    fn hetero_corruption_on_main_is_caught_by_the_sampled_check() {
        let fault = FaultSpec {
            replica: 0,
            kind: FaultKind::Corrupt(CorruptionMode::BitFlip(9)),
            at: TimeNs::from_ms(300),
        };
        let out = run_scenario(&base(App::Adpcm, Redundancy::Hetero { k: 1 }, Some(fault)));
        assert_eq!(out.class, OutcomeClass::DetectedInBound, "{out:?}");
    }

    #[test]
    fn hetero_scenarios_run_deterministically() {
        let fault = FaultSpec {
            replica: 0,
            kind: FaultKind::Omission(0.4),
            at: TimeNs::from_ms(250),
        };
        let s = base(App::Adpcm, Redundancy::Hetero { k: 4 }, Some(fault));
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn same_scenario_same_outcome() {
        let fault = FaultSpec {
            replica: 2,
            kind: FaultKind::Omission(0.3),
            at: TimeNs::from_ms(250),
        };
        let s = base(App::Adpcm, Redundancy::TriVoting, Some(fault));
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
