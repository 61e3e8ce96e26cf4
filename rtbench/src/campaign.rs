//! The `campaign` workload: the paper's evaluation as a batch job.
//!
//! A fixed, seed-generated list of DES runs at workers = 1 — classic chaos
//! scenarios (duplicated + voting, three platforms), sampled-checker
//! scenarios at stride 4, and Table 2's fail-stop campaign over the three
//! apps with their real DSP stages. No sockets, no threads: engine, `core`
//! arbitration, `rtc` bounds, `scc` platform and `apps` kernels do all the
//! work.

use crate::stats::Samples;
use rtft_apps::networks::App;
use rtft_bench::campaign::fault_campaign_observed_with_workers;
use rtft_chaos::{run_scenario, Campaign, OutcomeClass, Redundancy, Scenario, ScenarioOutcome};
use rtft_core::{build_duplicated, FaultPlan};
use rtft_kpn::{Digest, Engine};
use rtft_obs::MetricsRegistry;
use rtft_rtc::TimeNs;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Scenarios the seed is expanded into before stratifying, and how many
/// are kept per cell (see [`stratified`]).
const CLASSIC_POOL: u64 = 4096;
const CLASSIC_PER_CELL: usize = 2;
const HETERO_POOL: u64 = 2048;
const HETERO_PER_CELL: usize = 1;
/// Stride of the sampled-checker scenarios.
pub const HETERO_K: u64 = 4;
/// Table 2 chunk: runs per call and tokens per run.
pub const TABLE2_RUNS: usize = 2;
pub const TABLE2_TOKENS: u64 = 300;

/// Keeps the first `per_cell` scenarios of every (app, platform,
/// structure, fault kind, faulty side) cell, in pool order.
///
/// What a run costs is set by its cell — token size, replica count, NoC
/// model, how soon the fault ends the stream. A plain `generate(seed, n)`
/// draws the cells at random, so the list's total cost moved several per
/// cent from seed to seed; the driver compares runs of *different* seeds,
/// so that would read as noise. With a fixed count per cell every seed
/// gives the same mix, and the seed still chooses each scenario's fault
/// instant, payloads and jitter.
fn stratified(pool: Vec<Scenario>, per_cell: usize) -> Vec<Scenario> {
    let mut taken: BTreeMap<_, usize> = BTreeMap::new();
    pool.into_iter()
        .filter(|s| {
            let fault = s
                .fault
                .map_or(("healthy", 0), |f| (f.kind_label(), f.replica));
            let cell = (
                s.app.label(),
                s.platform.label(),
                s.redundancy.label(),
                fault.0,
                // The side only matters where it changes the structure's
                // work: the sampled checker's main vs checker.
                if matches!(s.redundancy, Redundancy::Hetero { .. }) {
                    fault.1
                } else {
                    0
                },
            );
            let n = taken.entry(cell).or_default();
            *n += 1;
            *n <= per_cell
        })
        .collect()
}

/// One entry of the interleaved work list.
#[derive(Debug, Clone, Copy)]
pub enum Item {
    Classic(usize),
    Hetero(usize),
    Table2(App),
}

/// The fixed work list built from `--seed`.
#[derive(Debug)]
pub struct Work {
    pub classic: Vec<Scenario>,
    pub hetero: Vec<Scenario>,
    pub order: Vec<Item>,
}

impl Work {
    /// `divisor` shrinks the list for `--smoke`.
    pub fn generate(seed: u64, divisor: usize) -> Work {
        let mut classic = stratified(
            Campaign::generate(seed, CLASSIC_POOL).scenarios,
            CLASSIC_PER_CELL,
        );
        let mut hetero = stratified(
            Campaign::generate_hetero(seed, HETERO_POOL, HETERO_K).scenarios,
            HETERO_PER_CELL,
        );
        classic.truncate((classic.len() / divisor).max(16));
        hetero.truncate((hetero.len() / divisor).max(4));
        // Four classic runs, then one hetero; one Table 2 chunk every
        // sixteen classic runs, rotating over the apps.
        let mut order = Vec::new();
        let mut h = 0usize;
        for c in 0..classic.len() {
            order.push(Item::Classic(c));
            if c % 4 == 3 {
                order.push(Item::Hetero(h % hetero.len()));
                h += 1;
            }
            if c % 16 == 15 {
                order.push(Item::Table2(App::ALL[(c / 16) % App::ALL.len()]));
            }
        }
        Work {
            classic,
            hetero,
            order,
        }
    }

    /// The cold pass set-up pays: a fixed prefix of the list (about a
    /// quarter of it), so lazy initialisation is outside the window.
    pub fn cold_pass(&self, tally: &mut Tally) {
        let prefix = self.order.len().min(72);
        for item in &self.order[..prefix] {
            tally.run(self, *item);
        }
    }
}

/// Whether a classic outcome breaks one of the framework's guarantees —
/// the rules `tests/tests/chaos.rs` asserts. (Silent corruption under the
/// timing selector is its documented blind spot, not a violation.)
fn classic_violation(o: &ScenarioOutcome) -> bool {
    let s = &o.scenario;
    if o.class == OutcomeClass::FalsePositive {
        return true;
    }
    match s.fault {
        Some(f) if f.is_permanent_timing() => o.class != OutcomeClass::DetectedInBound,
        Some(f) if f.is_value() && s.redundancy == Redundancy::TriVoting => {
            o.class == OutcomeClass::SilentFailure || o.value_errors != 0
        }
        None => o.class != OutcomeClass::Masked,
        _ => false,
    }
}

/// The sampled-checker campaign promises no late, silent or false latch.
fn hetero_violation(o: &ScenarioOutcome) -> bool {
    matches!(
        o.class,
        OutcomeClass::DetectedLate | OutcomeClass::SilentFailure | OutcomeClass::FalsePositive
    )
}

/// Measured latency ÷ (analytic bound + activation grace), in virtual
/// time, for a latch the runner classed in-bound.
fn bound_ratio(o: &ScenarioOutcome) -> Option<f64> {
    if o.class != OutcomeClass::DetectedInBound {
        return None;
    }
    let producer = o.scenario.app.profile().model.producer;
    let allowed = o.bound? + producer.period + producer.jitter;
    Some(o.detection_latency?.as_ns() as f64 / allowed.as_ns() as f64)
}

/// Running totals over executed items.
#[derive(Debug, Default)]
pub struct Tally {
    pub runs: u64,
    pub violations: u64,
    /// Wall time of each completed pass over the list (ms).
    pub pass_ms: Samples,
    pub bound_ratio_max: f64,
    /// Wall time and runs per phase: classic, hetero, table 2.
    pub phase: [(Duration, u64); 3],
    /// Digest over every outcome's class, latch time and arrivals, in
    /// execution order: repeats exactly per seed.
    pub outcomes: Digest,
}

impl Tally {
    fn mix(&mut self, v: u64) {
        self.outcomes.update(&v.to_le_bytes());
    }

    fn note_outcome(&mut self, o: &ScenarioOutcome, violated: bool) {
        self.violations += violated as u64;
        if let Some(r) = bound_ratio(o) {
            self.bound_ratio_max = self.bound_ratio_max.max(r);
        }
        self.mix(o.class as u64);
        self.mix(o.detected_at.map_or(u64::MAX, |t| t.as_ns()));
        self.mix(o.arrivals);
        self.mix(o.value_errors);
    }

    /// Executes one item and books it.
    pub fn run(&mut self, work: &Work, item: Item) {
        let t = Instant::now();
        let (phase, runs) = match item {
            Item::Classic(i) => {
                let o = run_scenario(&work.classic[i]);
                self.note_outcome(&o, classic_violation(&o));
                (0, 1)
            }
            Item::Hetero(i) => {
                let o = run_scenario(&work.hetero[i]);
                self.note_outcome(&o, hetero_violation(&o));
                (1, 1)
            }
            Item::Table2(app) => {
                let fault_at = app.profile().model.producer.period * 100;
                let (fc, _) = fault_campaign_observed_with_workers(
                    app,
                    TABLE2_RUNS,
                    TABLE2_TOKENS,
                    fault_at,
                    1,
                );
                // Table 2's claim: the fault is masked and both sites
                // latch inside their analytic bounds, in every run.
                for site in [fc.replicator, fc.selector] {
                    let late = site.detections != site.runs || site.stats.max > site.bound;
                    self.violations += late as u64;
                    let ratio = site.stats.max.as_ns() as f64 / site.bound.as_ns() as f64;
                    self.bound_ratio_max = self.bound_ratio_max.max(ratio);
                    self.mix(site.stats.max.as_ns());
                }
                self.violations += !fc.all_masked as u64;
                (2, TABLE2_RUNS as u64)
            }
        };
        let took = t.elapsed();
        self.runs += runs;
        self.phase[phase].0 += took;
        self.phase[phase].1 += runs;
    }

    /// Runs that broke a guarantee, plus one if any in-bound latch came
    /// later than its bound allows.
    pub fn failed(&self) -> u64 {
        self.violations + (self.bound_ratio_max > 1.0) as u64
    }

    /// Runs per second of one phase (0 = classic, 1 = hetero, 2 = table 2).
    pub fn phase_rate(&self, phase: usize) -> f64 {
        let (t, n) = self.phase[phase];
        n as f64 / t.as_secs_f64().max(1e-9)
    }
}

/// Cycles through the list until `seconds` have passed. One operation
/// is one pass over the whole list — input to complete result, what a
/// user of a batch job waits for — so every sample has the same content.
pub fn window(work: &Work, seconds: f64) -> (Tally, Duration) {
    let mut tally = Tally::default();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut pass_start = start;
    let mut i = 0usize;
    while Instant::now() < until {
        tally.run(work, work.order[i % work.order.len()]);
        i += 1;
        if i.is_multiple_of(work.order.len()) {
            let now = Instant::now();
            tally.pass_ms.push((now - pass_start).as_secs_f64() * 1e3);
            pass_start = now;
        }
    }
    if tally.pass_ms.is_empty() {
        // Window shorter than one pass: scale what was done to a pass.
        let scale = work.order.len() as f64 / i.max(1) as f64;
        tally
            .pass_ms
            .push(start.elapsed().as_secs_f64() * 1e3 * scale);
    }
    (tally, start.elapsed())
}

/// One pass over the whole list: the fixed work whose counts and digest
/// must repeat exactly per seed.
pub fn full_pass(work: &Work) -> Tally {
    let mut tally = Tally::default();
    for item in &work.order {
        tally.run(work, *item);
    }
    tally
}

/// Engine events of one Table 2 run (run 0 of `fault_campaign`, rebuilt
/// from the same public builders so the engine can be metered): an exact
/// count that repeats on every run of the same code.
pub fn table2_run_events(app: App) -> u64 {
    let fault_at = app.profile().model.producer.period * 100;
    let cfg = app
        .duplication_config(1, TABLE2_TOKENS)
        .expect("bounded profile")
        .with_seeds(1, 2)
        .with_fault(0, FaultPlan::fail_stop_at(fault_at));
    let factory = app.replica_factory([11, 22]);
    let horizon = cfg.model.producer.period * (TABLE2_TOKENS + 20)
        + cfg.model.consumer.delay
        + cfg.sizing.selector_detection_bound * 4
        + TimeNs::from_secs(1);
    let registry = MetricsRegistry::new();
    let (net, _) = build_duplicated(&cfg, &factory);
    Engine::new(net).with_metrics(&registry).run_until(horizon);
    registry.counter("kpn.engine.events").get()
}
