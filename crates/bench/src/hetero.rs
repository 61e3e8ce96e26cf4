//! E16: the sampled-checker frontier — detection latency vs. compute
//! overhead as a function of the sampling stride `k`.
//!
//! The third redundancy structure trades detection latency for compute:
//! a full-rate main replica plus a `1/k`-rate checker costs `1 + 1/k`
//! execution slots instead of duplication's flat `2.0`, while the
//! sampled-divergence detection bound stretches proportionally to `k`.
//! For each stride the sweep runs a seeded hetero chaos campaign
//! ([`Campaign::generate_hetero`]) and reduces it to one frontier point:
//! the closed-form bounds from `rtft-rtc`, the outcome-class census, and
//! the worst observed detection latency — the empirical check that every
//! latch landed inside the k-dependent bound.

use rtft_apps::networks::App;
use rtft_chaos::{Campaign, CampaignReport, OutcomeClass, Redundancy};
use rtft_fleet::{structure_bounds, StructureBounds};
use rtft_rtc::detection::HeteroBounds;
use rtft_rtc::TimeNs;

/// The stride values E16 sweeps (log-spaced; `k = 1` degenerates to a
/// full-rate checker, i.e. duplication's detection behaviour at
/// duplication's cost).
pub const HETERO_SWEEP_KS: [u64; 4] = [1, 4, 16, 64];

/// The closed-form bound table for `app` at stride `k`, from the
/// structure recipe the chaos runner and the serve layer build through
/// (main replica keeps its profile jitter, the checker inherits replica
/// 1's).
///
/// # Panics
///
/// Panics if the app profile's rates diverge (cannot happen for the
/// built-in profiles).
pub fn hetero_bounds_for(app: App, k: u64) -> HeteroBounds {
    match structure_bounds(&app.profile().model, Redundancy::Hetero { k }) {
        StructureBounds::Sampled(bounds) => bounds,
        StructureBounds::Timing(_) => unreachable!("a hetero structure has sampled bounds"),
    }
}

/// One point of the latency/overhead frontier.
#[derive(Debug, Clone)]
pub struct HeteroPoint {
    /// Sampling stride.
    pub k: u64,
    /// Execution-slot cost relative to an unprotected replica
    /// (`1 + 1/k`; duplication is `2.0`).
    pub compute_factor: f64,
    /// MJPEG sampled-divergence bound (grows with `k`).
    pub sampled_bound: TimeNs,
    /// MJPEG value-mismatch bound (digest re-verification).
    pub value_bound: TimeNs,
    /// MJPEG permanent-timing bound on the main replica.
    pub permanent_bound: TimeNs,
    /// Scenarios in the campaign.
    pub scenarios: usize,
    /// Latches inside the analytic bound.
    pub detected_in_bound: usize,
    /// Latches after the bound (must be zero).
    pub detected_late: usize,
    /// Fault-free or tolerated runs with correct output.
    pub masked: usize,
    /// Unlatched faults with wrong output (must be zero).
    pub silent_failures: usize,
    /// Healthy-replica latches (must be zero).
    pub false_positives: usize,
    /// Worst observed detection latency across the campaign.
    pub max_latency: TimeNs,
    /// The campaign report (canonical JSON is seed-stable per `k`).
    pub report: CampaignReport,
}

/// Runs the stride sweep: one `count`-scenario hetero campaign per `k`.
///
/// # Panics
///
/// Panics if the app profile's rates diverge.
pub fn hetero_frontier(seed: u64, count: u64, ks: &[u64]) -> Vec<HeteroPoint> {
    ks.iter()
        .map(|&k| {
            let report = Campaign::generate_hetero(seed, count, k).run();
            let sizing_factor = 1.0 + 1.0 / k as f64;
            let bounds = hetero_bounds_for(App::Mjpeg, k);
            let max_latency = report
                .outcomes
                .iter()
                .filter_map(|o| o.detection_latency)
                .max()
                .unwrap_or(TimeNs::ZERO);
            HeteroPoint {
                k,
                compute_factor: sizing_factor,
                sampled_bound: bounds.sampled_divergence,
                value_bound: bounds.value,
                permanent_bound: bounds.permanent_timing(),
                scenarios: report.outcomes.len(),
                detected_in_bound: report.count(OutcomeClass::DetectedInBound),
                detected_late: report.count(OutcomeClass::DetectedLate),
                masked: report.count(OutcomeClass::Masked),
                silent_failures: report.count(OutcomeClass::SilentFailure),
                false_positives: report.count(OutcomeClass::FalsePositive),
                max_latency,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_trades_latency_for_compute() {
        let points = hetero_frontier(0xE16, 12, &[1, 8]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.detected_late, 0, "k={}: {:?}", p.k, p.report.to_json());
            assert_eq!(p.silent_failures, 0, "k={}", p.k);
            assert_eq!(p.false_positives, 0, "k={}", p.k);
            assert!(p.compute_factor <= 2.0, "never costlier than duplication");
        }
        // The frontier's defining trade: higher stride, cheaper compute,
        // longer sampled-detection bound.
        assert!(points[1].compute_factor < points[0].compute_factor);
        assert!(points[1].sampled_bound > points[0].sampled_bound);
    }

    #[test]
    fn bounds_table_is_monotone_in_k() {
        let mut last = TimeNs::ZERO;
        for k in HETERO_SWEEP_KS {
            let b = hetero_bounds_for(App::Mjpeg, k);
            assert!(b.sampled_divergence > last, "sampled bound grows with k");
            last = b.sampled_divergence;
        }
    }
}
