//! Wall-clock spot checks on the threaded runtime.
//!
//! Campaign scenarios run under the DES, where time is virtual and every
//! run is reproducible. These spot checks re-validate the two load-bearing
//! detection paths — fail-stop under the timing selector and silent data
//! corruption under the voting selector — on **real OS threads**, where
//! nothing is simulated. They are deliberately *not* part of
//! [`crate::CampaignReport`]: wall-clock latencies vary run to run, and
//! the campaign report must stay byte-identical for a given seed.
//!
//! Following `tests/platforms.rs`, the PJD models here use jitter budgets
//! (tens of milliseconds against millisecond periods) that dominate OS
//! scheduling stalls on a shared host; the no-false-positive guarantee
//! only holds when the declared curves bound the platform's actual jitter.

use rtft_core::{
    as_arbiter, build_duplicated, build_n_modular_voting, CorruptionMode, DuplicationConfig,
    FaultPlan, JitterStageReplica, NJitterStageReplica, NModularModel, NSizingReport,
};
use rtft_kpn::threaded::{run_threaded, ThreadedRun};
use rtft_kpn::{Payload, PjdSink};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;
use std::time::Duration;

/// Result of one wall-clock spot check.
#[derive(Debug, Clone, Copy)]
pub struct SpotCheck {
    /// Which check ran.
    pub name: &'static str,
    /// The injected fault was latched on the faulty replica (and only it).
    pub detected: bool,
    /// The consumer received every expected token.
    pub complete: bool,
    /// Every delivered payload carried the expected digest.
    pub value_clean: bool,
}

impl SpotCheck {
    /// `true` when the check holds in full.
    pub fn passed(&self) -> bool {
        self.detected && self.complete && self.value_clean
    }
}

const SPOT_TOKENS: u64 = 300;
const DEADLINE: Duration = Duration::from_secs(20);

/// Duplicated structure, replica 1 fail-stops at 100 ms: the timing
/// selector (or replicator overflow) must latch it and the healthy replica
/// must carry the stream to completion.
pub fn spot_duplicated_fail_stop() -> SpotCheck {
    let model = DuplicationModel::symmetric(
        PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::ZERO),
        PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::from_ms(6)),
        [
            PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::ZERO),
            PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(45), TimeNs::ZERO),
        ],
    );
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded")
        .with_token_count(SPOT_TOKENS)
        .with_payload(Arc::new(Payload::U64))
        .with_fault(1, FaultPlan::fail_stop_at(TimeNs::from_ms(100)));
    let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([0xC1, 0xC2]);
    let (net, _ids) = build_duplicated(&cfg, &factory);

    // Replicator overflow or either selector rule may catch a fail-stop.
    verdict(
        "duplicated-fail-stop",
        &run_threaded(net, DEADLINE),
        1,
        &[0, 1],
    )
}

/// Judges a finished run whose `faulty` replica had a fault injected:
/// that replica must be latched at one of `detectors`, no other replica
/// anywhere, and the consumer must hold the complete, digest-clean
/// `Payload::U64(seq)` stream. Builder channel order: the replicator is
/// channel 0, the selector channel 1; a channel that cannot be read back
/// fails the check.
fn verdict(name: &'static str, run: &ThreadedRun, faulty: usize, detectors: &[usize]) -> SpotCheck {
    let latches = |channel: usize| {
        run.channel(channel, |c| as_arbiter(c).map(|a| a.latches()))
            .flatten()
    };
    let faulty_latched = detectors
        .iter()
        .any(|&ch| latches(ch).is_some_and(|l| l[faulty].is_some()));
    let healthy_latched = [0, 1].into_iter().any(|ch| {
        latches(ch).is_none_or(|l| {
            l.iter()
                .enumerate()
                .any(|(i, f)| i != faulty && f.is_some())
        })
    });
    let arrivals = run
        .process_as::<PjdSink>("consumer")
        .map_or(&[][..], |s| s.arrivals());
    let value_clean = arrivals
        .iter()
        .enumerate()
        .all(|(seq, (_, digest))| *digest == Payload::U64(seq as u64).digest());
    SpotCheck {
        name,
        detected: faulty_latched && !healthy_latched,
        complete: arrivals.len() as u64 == SPOT_TOKENS,
        value_clean,
    }
}

/// Tri-voting structure, replica 0 flips payload bits from 100 ms on: the
/// voting selector must latch the value mismatch while the delivered
/// stream stays complete and digest-clean.
pub fn spot_voting_corruption() -> SpotCheck {
    let period = TimeNs::from_ms(2);
    let model = NModularModel {
        producer: PjdModel::new(period, TimeNs::from_ms(40), TimeNs::ZERO),
        consumer: PjdModel::new(period, TimeNs::from_ms(40), TimeNs::from_ms(6)),
        replicas: vec![
            PjdModel::new(period, TimeNs::from_ms(40), TimeNs::ZERO),
            PjdModel::new(period, TimeNs::from_ms(45), TimeNs::ZERO),
            PjdModel::new(period, TimeNs::from_ms(42), TimeNs::ZERO),
        ],
    };
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = NJitterStageReplica::from_model(&model).with_seed_base(0xD0);
    let faults = vec![
        FaultPlan::corrupt_at(CorruptionMode::BitFlip(11), TimeNs::from_ms(100)),
        FaultPlan::healthy(),
        FaultPlan::healthy(),
    ];
    let (net, _ids) = build_n_modular_voting(
        &model,
        &sizing,
        SPOT_TOKENS,
        (0xE1, 0xE2),
        Arc::new(Payload::U64),
        &factory,
        &faults,
    );

    // Only the voting selector sees values.
    verdict("voting-corruption", &run_threaded(net, DEADLINE), 0, &[1])
}

/// Runs every wall-clock spot check.
pub fn run_spot_checks() -> Vec<SpotCheck> {
    vec![spot_duplicated_fail_stop(), spot_voting_corruption()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_spot_checks_hold() {
        for check in run_spot_checks() {
            assert!(check.passed(), "{check:?}");
        }
    }
}
