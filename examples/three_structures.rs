//! Three-structure campaign sweep — the CI smoke for the sampled-checker
//! redundancy structure riding next to the original two.
//!
//! Runs a seeded chaos campaign over the duplicated + tri-voting
//! structures (the classic generator) and one hetero campaign per
//! sampling stride k ∈ {1, 4, 16}, each sweep **twice per seed**, and
//! checks:
//!
//! 1. **Determinism** — every re-run serialises to byte-identical JSON
//!    (the stacked-campaign replay contract now covers all three
//!    structures);
//! 2. **No false positives anywhere; no silent failures or late
//!    latches under the sampled checker** (the duplicated structure's
//!    timing selector is value-blind by design, so classic campaigns may
//!    legally mask corruption silently — the new structure must not);
//! 3. **The frontier trade** — the sampled checker's compute factor
//!    `1 + 1/k` stays strictly below duplication's `2.0` for `k > 1`
//!    while its closed-form sampled-detection bound grows with `k`.
//!
//! Exits non-zero on any violation, so CI can run it as a smoke test:
//!
//! ```sh
//! cargo run --release -p rtft-examples --bin three_structures
//! ```

use rtft_apps::networks::App;
use rtft_chaos::{Campaign, OutcomeClass, Redundancy};
use rtft_fleet::structure_bounds;
use rtft_rtc::TimeNs;

const SEED: u64 = 0xDAC14;
const CLASSIC_SCENARIOS: u64 = 30;
const HETERO_SCENARIOS: u64 = 16;
const STRIDES: [u64; 3] = [1, 4, 16];

fn main() {
    let mut violations = 0u64;
    println!("three_structures: seed {SEED:#x}");

    // Structures one and two: the classic generator interleaves
    // duplicated and tri-voting scenarios.
    let classic = Campaign::generate(SEED, CLASSIC_SCENARIOS).run();
    if classic.to_json() != Campaign::generate(SEED, CLASSIC_SCENARIOS).run().to_json() {
        println!("FAIL: duplicated/voting campaign report not seed-stable");
        violations += 1;
    }
    println!(
        "  duplicated+voting: {} scenarios, {} in-bound, {} masked",
        classic.outcomes.len(),
        classic.count(OutcomeClass::DetectedInBound),
        classic.count(OutcomeClass::Masked),
    );
    // The classic structures promise in-bound detection of permanent
    // timing faults and zero false positives; value corruption under the
    // duplicated timing selector is legally silent (value-blind), so it
    // is not in this census.
    violations += census_violations("classic", &classic, &[OutcomeClass::FalsePositive]);
    for outcome in &classic.outcomes {
        if let Some(fault) = outcome.scenario.fault {
            if fault.is_permanent_timing() && outcome.class != OutcomeClass::DetectedInBound {
                println!(
                    "FAIL: classic scenario {} permanent timing fault -> {}",
                    outcome.scenario.id,
                    outcome.class.label()
                );
                violations += 1;
            }
        }
    }

    // Structure three: one sweep per sampling stride.
    let mut last_bound = TimeNs::ZERO;
    for k in STRIDES {
        let report = Campaign::generate_hetero(SEED, HETERO_SCENARIOS, k).run();
        let replay = Campaign::generate_hetero(SEED, HETERO_SCENARIOS, k).run();
        if report.to_json() != replay.to_json() {
            println!("FAIL: hetero k={k} campaign report not seed-stable");
            violations += 1;
        }
        let sampled_bound =
            structure_bounds(&App::Mjpeg.profile().model, Redundancy::Hetero { k }).divergence(0);
        let compute = 1.0 + 1.0 / k as f64;
        println!(
            "  hetero k={k}: {} scenarios, {} in-bound, {} masked, \
             compute {compute:.3}x, sampled bound {:.0} ms",
            report.outcomes.len(),
            report.count(OutcomeClass::DetectedInBound),
            report.count(OutcomeClass::Masked),
            sampled_bound.as_ms_f64(),
        );
        violations += census_violations(
            "hetero",
            &report,
            &[
                OutcomeClass::FalsePositive,
                OutcomeClass::SilentFailure,
                OutcomeClass::DetectedLate,
            ],
        );
        if k > 1 && compute >= 2.0 {
            println!("FAIL: hetero k={k} compute factor not below duplication");
            violations += 1;
        }
        if sampled_bound <= last_bound {
            println!("FAIL: hetero k={k} sampled bound did not grow with k");
            violations += 1;
        }
        last_bound = sampled_bound;
    }

    if violations > 0 {
        println!("three_structures: {violations} violation(s)");
        std::process::exit(1);
    }
    println!(
        "three_structures: all three structures deterministic, \
         no false positives, no silent failures"
    );
}

/// Counts outcomes in classes the given structure must never produce.
fn census_violations(
    label: &str,
    report: &rtft_chaos::CampaignReport,
    forbidden: &[OutcomeClass],
) -> u64 {
    let mut violations = 0;
    for &class in forbidden {
        let n = report.count(class);
        if n > 0 {
            println!("FAIL: {label}: {n} {} outcome(s)", class.label());
            violations += n as u64;
        }
    }
    violations
}
