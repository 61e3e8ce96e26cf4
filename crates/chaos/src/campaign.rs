//! Campaign orchestration: run many scenarios, aggregate, report.
//!
//! A [`Campaign`] is nothing more than a campaign seed expanded into a
//! scenario list ([`generate_scenarios`]); [`Campaign::run`] executes every
//! scenario under the deterministic DES and folds the outcomes into a
//! [`CampaignReport`]. Because scenarios, runs, and the report serialiser
//! are all seed-driven and allocation-order independent, the same
//! `(seed, count)` pair produces a **byte-identical** `to_json()` on every
//! run — the property the campaign regression tests pin down.

use crate::runner::{run_scenario, OutcomeClass, ScenarioOutcome};
use crate::scenario::{generate_hetero_scenarios, generate_scenarios, Scenario};
use rtft_kpn::parallel::{campaign_workers, parallel_map_ordered};
use rtft_obs::json::{array, JsonObject};
use rtft_obs::{registry_to_json, HistogramSnapshot, MetricsRegistry};

/// A seeded set of scenarios ready to execute.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Seed the scenario list was expanded from.
    pub seed: u64,
    /// The scenarios, in id order.
    pub scenarios: Vec<Scenario>,
}

/// Registry metric name for a fault-kind latency histogram. Metric names
/// are interned `&'static str`s, so the kind labels map through a match.
fn latency_metric(kind_label: &str) -> &'static str {
    match kind_label {
        "fail-stop" => "chaos.latency.fail_stop",
        "slow-by" => "chaos.latency.slow_by",
        "corrupt" => "chaos.latency.corrupt",
        "transient" => "chaos.latency.transient",
        "intermittent" => "chaos.latency.intermittent",
        "omission" => "chaos.latency.omission",
        other => panic!("unknown fault kind label: {other}"),
    }
}

/// Registry metric name for an outcome-class counter.
fn class_metric(class: OutcomeClass) -> &'static str {
    match class {
        OutcomeClass::DetectedInBound => "chaos.class.detected_in_bound",
        OutcomeClass::DetectedLate => "chaos.class.detected_late",
        OutcomeClass::Masked => "chaos.class.masked",
        OutcomeClass::SilentFailure => "chaos.class.silent_failure",
        OutcomeClass::FalsePositive => "chaos.class.false_positive",
        OutcomeClass::ReplayDivergence => "chaos.class.replay_divergence",
    }
}

impl Campaign {
    /// Expands `seed` into a `count`-scenario campaign.
    pub fn generate(seed: u64, count: u64) -> Self {
        Campaign {
            seed,
            scenarios: generate_scenarios(seed, count),
        }
    }

    /// Expands `seed` into a `count`-scenario campaign over the
    /// sampled-checker structure with stride `k`. Kept separate from
    /// [`Campaign::generate`] so existing `(seed, count)` reports stay
    /// byte-identical.
    pub fn generate_hetero(seed: u64, count: u64, k: u64) -> Self {
        Campaign {
            seed,
            scenarios: generate_hetero_scenarios(seed, count, k),
        }
    }

    /// Runs every scenario and aggregates the outcomes.
    ///
    /// Scenarios are independent seeded simulations; they execute across
    /// [`campaign_workers`] threads ([`Campaign::run_with_workers`] with
    /// `1` forces the sequential inline path) and are folded into the
    /// report in scenario-index order, so [`CampaignReport::to_json`] stays
    /// byte-identical for any worker count — the replay contract now also
    /// covers worker-count independence.
    pub fn run(&self) -> CampaignReport {
        self.run_with_workers(campaign_workers())
    }

    /// [`Campaign::run`] with an explicit worker count.
    pub fn run_with_workers(&self, workers: usize) -> CampaignReport {
        // Scatter: each scenario simulates in isolation, touching no shared
        // state. Gather: `parallel_map_ordered` returns outcomes in input
        // order, and all metric folding happens below, sequentially, so the
        // registry contents are independent of execution interleaving.
        let outcomes = parallel_map_ordered(self.scenarios.clone(), workers, |_, scenario| {
            run_scenario(&scenario)
        });

        let metrics = MetricsRegistry::new();
        let scenarios_run = metrics.counter("chaos.scenarios");
        let detections = metrics.counter("chaos.detections");
        let value_errors = metrics.counter("chaos.value_errors");
        for outcome in &outcomes {
            scenarios_run.inc();
            metrics.counter(class_metric(outcome.class)).inc();
            value_errors.add(outcome.value_errors);
            if let (Some(latency), Some(fault)) =
                (outcome.detection_latency, outcome.scenario.fault)
            {
                detections.inc();
                metrics
                    .histogram(latency_metric(fault.kind_label()))
                    .record(latency.as_ns());
                metrics
                    .histogram("chaos.latency.all")
                    .record(latency.as_ns());
            }
        }
        let mut outcomes = outcomes;
        outcomes.sort_by_key(|o| o.scenario.id);

        CampaignReport {
            campaign_seed: self.seed,
            outcomes,
            metrics,
        }
    }
}

/// Aggregated result of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the campaign was generated from.
    pub campaign_seed: u64,
    /// Per-scenario classified outcomes, in scenario-id order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Campaign metrics (outcome counters, detection-latency histograms).
    pub metrics: MetricsRegistry,
}

impl CampaignReport {
    /// Number of outcomes in `class`.
    pub fn count(&self, class: OutcomeClass) -> usize {
        self.outcomes.iter().filter(|o| o.class == class).count()
    }

    /// The detection-latency distribution for one fault-kind label.
    pub fn latency_snapshot(&self, kind_label: &str) -> HistogramSnapshot {
        self.metrics
            .histogram(latency_metric(kind_label))
            .snapshot()
    }

    fn outcome_json(o: &ScenarioOutcome) -> String {
        let s = &o.scenario;
        let mut obj = JsonObject::new()
            .u64_field("id", s.id)
            .str_field("app", s.app.profile().name)
            .str_field("redundancy", s.redundancy.label())
            .str_field("platform", s.platform.label())
            .u64_field("seed", s.seed);
        match s.fault {
            Some(f) => {
                obj = obj
                    .str_field("fault", f.kind_label())
                    .u64_field("replica", f.replica as u64)
                    .u64_field("injected_ns", f.at.as_ns());
            }
            None => {
                obj = obj.str_field("fault", "healthy");
            }
        }
        obj.str_field("class", o.class.label())
            .opt_u64_field("detected_ns", o.detected_at.map(|t| t.as_ns()))
            .opt_u64_field("latency_ns", o.detection_latency.map(|t| t.as_ns()))
            .opt_u64_field("bound_ns", o.bound.map(|t| t.as_ns()))
            .u64_field("arrivals", o.arrivals)
            .u64_field("value_errors", o.value_errors)
            .finish()
    }

    /// The full campaign report as one JSON object. Byte-identical for
    /// identical `(campaign_seed, count)` inputs.
    pub fn to_json(&self) -> String {
        let mut classes = JsonObject::new();
        for class in OutcomeClass::ALL {
            classes = classes.u64_field(class.label(), self.count(class) as u64);
        }
        JsonObject::new()
            .str_field("schema", "rtft-chaos-campaign-v1")
            .u64_field("campaign_seed", self.campaign_seed)
            .u64_field("scenarios", self.outcomes.len() as u64)
            .raw_field("classes", &classes.finish())
            .raw_field(
                "outcomes",
                &array(self.outcomes.iter().map(Self::outcome_json)),
            )
            .raw_field("metrics", &registry_to_json(&self.metrics))
            .finish()
    }

    /// One-line summary for `BENCH_chaos.json`: outcome-class counts plus
    /// detection-latency p50/p99 per fault kind.
    pub fn bench_line(&self) -> String {
        let mut obj = JsonObject::new()
            .str_field("bench", "chaos_campaign")
            .u64_field("campaign_seed", self.campaign_seed)
            .u64_field("scenarios", self.outcomes.len() as u64);
        for class in OutcomeClass::ALL {
            obj = obj.u64_field(class.label(), self.count(class) as u64);
        }
        for kind in [
            "fail-stop",
            "slow-by",
            "corrupt",
            "transient",
            "intermittent",
            "omission",
        ] {
            let snap = self.latency_snapshot(kind);
            if snap.count > 0 {
                let key = latency_metric(kind)
                    .strip_prefix("chaos.latency.")
                    .expect("metric prefix");
                obj = obj.raw_field(
                    key,
                    &JsonObject::new()
                        .u64_field("count", snap.count)
                        .u64_field("p50_ns", snap.p50)
                        .u64_field("p99_ns", snap.p99)
                        .u64_field("max_ns", snap.max)
                        .finish(),
                );
            }
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_runs_and_reports() {
        let report = Campaign::generate(0xC0FFEE, 20).run();
        assert_eq!(report.outcomes.len(), 20);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"rtft-chaos-campaign-v1\""));
        assert!(json.contains("\"campaign_seed\":12648430"));
        // Every scenario classified.
        let total: usize = OutcomeClass::ALL.iter().map(|c| report.count(*c)).sum();
        assert_eq!(total, 20);
        // Bench line carries the class counts.
        assert!(report.bench_line().contains("\"bench\":\"chaos_campaign\""));
    }

    #[test]
    fn reports_are_byte_identical_for_the_same_seed() {
        let a = Campaign::generate(99, 12).run().to_json();
        let b = Campaign::generate(99, 12).run().to_json();
        assert_eq!(a, b);
    }
}
