//! Experiment campaigns: the simulation runs behind every regenerated
//! table.
//!
//! All campaigns run on the deterministic discrete-event engine with
//! seeded jitter, so every table regenerates bit-identically. The paper's
//! fault-injection points (after 18 000 frames / 20 000 samples) are
//! scaled down to keep a full `cargo bench` in minutes; the scaling is
//! harmless because detection state depends only on steady-state queue
//! occupancy, which is reached within a few tokens (documented in
//! `EXPERIMENTS.md`).

use rtft_apps::networks::App;
use rtft_core::equivalence::TimingStats;
use rtft_core::{
    as_arbiter, build_duplicated, build_reference, instrument_duplicated, DuplicationConfig,
    FaultPlan, ReplicaFactory,
};
use rtft_distfn::{tap_stage, DistanceMonitor, LRepetitive, StreamTap};
use rtft_kpn::parallel::{campaign_workers, parallel_map_ordered};
use rtft_kpn::{Engine, Fifo, Network, NodeId, PortId};
use rtft_obs::{BenchMetrics, MetricsRegistry, ReplicaStatus};
use rtft_rtc::sizing::SizingReport;
use rtft_rtc::{PjdModel, TimeNs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Number of experiment repetitions, matching the paper's "20 such runs".
pub const RUNS: usize = 20;

/// Aggregate results of the fault-free campaign (Table 2's "Max. Observed
/// fill" and "Inter-Frame Timings" blocks).
#[derive(Debug, Clone)]
pub struct NoFaultStats {
    /// Max observed replicator queue fills across all runs.
    pub max_fill_replicator: [usize; 2],
    /// Max observed selector physical-queue fill.
    pub max_fill_selector: usize,
    /// Consumer inter-arrival stats, duplicated network (pooled over runs).
    pub duplicated_inter: TimingStats,
    /// Consumer inter-arrival stats, reference network.
    pub reference_inter: TimingStats,
    /// Any spurious fault detection (must be false — eq. (5) guarantee).
    pub false_positive: bool,
    /// All runs delivered every token with identical value sequences.
    pub equivalent: bool,
}

/// Per-run output of the fault-free campaign, gathered in run order and
/// folded sequentially so the aggregate is worker-count independent.
struct NoFaultRun {
    max_fill_replicator: [usize; 2],
    max_fill_selector: usize,
    false_positive: bool,
    equivalent: bool,
    dup_gaps: Vec<TimeNs>,
    ref_gaps: Vec<TimeNs>,
}

/// Runs the fault-free campaign for `app`: `runs` paired
/// reference/duplicated executions over `tokens` tokens each.
///
/// Runs are independent seeded simulations, so they execute in parallel
/// ([`campaign_workers`] threads) and are reduced in run order — the
/// aggregate is identical at any worker count.
///
/// # Panics
///
/// Panics if the app profile's rates diverge (cannot happen for the
/// built-in profiles).
pub fn no_fault_campaign(app: App, runs: usize, tokens: u64) -> NoFaultStats {
    let workers = campaign_workers();
    let results = parallel_map_ordered((0..runs as u64).collect::<Vec<_>>(), workers, |_, run| {
        let cfg = app
            .duplication_config(run + 1, tokens)
            .expect("bounded profile")
            .with_seeds(run * 3 + 1, run * 3 + 2);
        let factory = app.replica_factory([run * 7 + 11, run * 7 + 22]);
        let horizon = sim_horizon(&cfg, tokens);

        let (dup_net, dup_ids) = build_duplicated(&cfg, &factory);
        let mut dup = Engine::new(dup_net);
        dup.run_until(horizon);
        let (ref_net, ref_ids) = build_reference(&cfg, &factory);
        let mut reference = Engine::new(ref_net);
        reference.run_until(horizon);

        let dnet = dup.network();
        let mut max_fill_replicator = [0usize; 2];
        for (i, fill) in max_fill_replicator.iter_mut().enumerate() {
            *fill = dnet.channel(dup_ids.replicator).max_fill(i);
        }
        let rep = dup_ids.replicator_faults(dnet);
        let sel = dup_ids.selector_faults(dnet);

        let d = dup_ids.consumer_arrivals(dnet);
        let r = ref_ids.consumer_arrivals(reference.network());
        NoFaultRun {
            max_fill_replicator,
            max_fill_selector: dnet.channel(dup_ids.selector).max_fill(0),
            false_positive: rep.iter().any(Option::is_some) || sel.iter().any(Option::is_some),
            equivalent: d.len() == r.len() && d.iter().map(|a| a.1).eq(r.iter().map(|a| a.1)),
            dup_gaps: d.windows(2).map(|w| w[1].0 - w[0].0).collect(),
            ref_gaps: r.windows(2).map(|w| w[1].0 - w[0].0).collect(),
        }
    });

    let mut max_fill_replicator = [0usize; 2];
    let mut max_fill_selector = 0usize;
    let mut dup_gaps: Vec<TimeNs> = Vec::new();
    let mut ref_gaps: Vec<TimeNs> = Vec::new();
    let mut false_positive = false;
    let mut equivalent = true;
    for run in results {
        for (i, fill) in max_fill_replicator.iter_mut().enumerate() {
            *fill = (*fill).max(run.max_fill_replicator[i]);
        }
        max_fill_selector = max_fill_selector.max(run.max_fill_selector);
        false_positive |= run.false_positive;
        equivalent &= run.equivalent;
        dup_gaps.extend(run.dup_gaps);
        ref_gaps.extend(run.ref_gaps);
    }

    NoFaultStats {
        max_fill_replicator,
        max_fill_selector,
        duplicated_inter: TimingStats::from_durations(&dup_gaps).expect("gaps recorded"),
        reference_inter: TimingStats::from_durations(&ref_gaps).expect("gaps recorded"),
        false_positive,
        equivalent,
    }
}

/// Aggregate detection latencies of one site across a fault campaign.
#[derive(Debug, Clone, Copy)]
pub struct DetectionStats {
    /// Observed latencies (fault instant → detection instant).
    pub stats: TimingStats,
    /// The analytic worst-case bound for this site.
    pub bound: TimeNs,
    /// Runs in which this site detected the fault.
    pub detections: usize,
    /// Total runs.
    pub runs: usize,
}

/// Results of the fault-injection campaign (Table 2's "Fault Detection
/// Latency" block).
#[derive(Debug, Clone, Copy)]
pub struct FaultCampaign {
    /// Replicator-side detection.
    pub replicator: DetectionStats,
    /// Selector-side detection.
    pub selector: DetectionStats,
    /// All runs delivered every token despite the fault.
    pub all_masked: bool,
}

/// Runs the fail-stop fault campaign for `app`: `runs` executions,
/// alternating the faulty replica, fault injected at `fault_at`.
///
/// # Panics
///
/// Panics if the app profile's rates diverge.
pub fn fault_campaign(app: App, runs: usize, tokens: u64, fault_at: TimeNs) -> FaultCampaign {
    fault_campaign_observed(app, runs, tokens, fault_at).0
}

/// [`fault_campaign`] with the observability subsystem attached: every run
/// executes with engine metrics on and a [`rtft_obs::HealthModel`] wired
/// through [`instrument_duplicated`], and the pooled results come back as a
/// [`BenchMetrics`] bundle for the result JSON. The detection numbers are
/// identical to the untracked campaign — instrumentation never touches
/// virtual time.
///
/// # Panics
///
/// Panics if the app profile's rates diverge.
pub fn fault_campaign_observed(
    app: App,
    runs: usize,
    tokens: u64,
    fault_at: TimeNs,
) -> (FaultCampaign, BenchMetrics) {
    fault_campaign_observed_with_workers(app, runs, tokens, fault_at, campaign_workers())
}

/// Per-run output of the fault campaign. Each run records into its own
/// [`MetricsRegistry`]; the aggregate registry absorbs them in run order,
/// which yields the same histogram state as sequential recording (bucket
/// counts, sum and max all add/combine exactly — see `rtft_obs`).
struct FaultRun {
    registry: MetricsRegistry,
    rep_lat: Option<(TimeNs, &'static str)>,
    sel_lat: Option<(TimeNs, &'static str)>,
    max_fills: [u64; 3],
    masked: bool,
    sizing: SizingReport,
}

/// [`fault_campaign_observed`] with an explicit worker count.
///
/// # Panics
///
/// Panics if the app profile's rates diverge.
pub fn fault_campaign_observed_with_workers(
    app: App,
    runs: usize,
    tokens: u64,
    fault_at: TimeNs,
    workers: usize,
) -> (FaultCampaign, BenchMetrics) {
    let results = parallel_map_ordered((0..runs as u64).collect::<Vec<_>>(), workers, |_, run| {
        let registry = MetricsRegistry::new();
        let latency = registry.histogram("bench.detection_latency_ns");
        let faulty = (run % 2) as usize;
        let cfg = app
            .duplication_config(run + 1, tokens)
            .expect("bounded profile")
            .with_seeds(run * 3 + 1, run * 3 + 2)
            .with_fault(faulty, FaultPlan::fail_stop_at(fault_at));
        let sizing = cfg.sizing;
        let factory = app.replica_factory([run * 7 + 11, run * 7 + 22]);
        let horizon = sim_horizon(&cfg, tokens);

        let (mut net, ids) = build_duplicated(&cfg, &factory);
        let health = instrument_duplicated(&mut net, &ids, &cfg, &registry);
        let mut engine = Engine::new(net).with_metrics(&registry);
        engine.run_until(horizon);
        let net = engine.network();

        // The faulty replica's latch at one arbitration channel: latency
        // (recorded into the pooled histogram) and detection-site label.
        let detection = |channel, at_replicator| {
            let f = as_arbiter(net.channel(channel))?.latched(faulty)?;
            let lat = f.at.saturating_sub(fault_at);
            latency.record(lat.as_ns());
            Some((lat, f.cause.site(at_replicator).label()))
        };
        let rep_lat = detection(ids.replicator, true);
        let sel_lat = detection(ids.selector, false);
        let mut max_fills = [0u64; 3]; // replicator.q0, replicator.q1, selector
        for (i, fill) in max_fills.iter_mut().take(2).enumerate() {
            *fill = net.channel(ids.replicator).max_fill(i) as u64;
        }
        max_fills[2] = net.channel(ids.selector).max_fill(0) as u64;

        let masked = ids.consumer_arrivals(net).len() as u64 == tokens
                // The healthy replica must never be flagged.
                && ids.replicator_faults(net)[1 - faulty].is_none()
                && ids.selector_faults(net)[1 - faulty].is_none()
                // The health model's folded view must agree with the raw
                // latches.
                && health.status(faulty) == ReplicaStatus::Faulty
                && health.status(1 - faulty) == ReplicaStatus::Healthy;

        FaultRun {
            registry,
            rep_lat,
            sel_lat,
            max_fills,
            masked,
            sizing,
        }
    });

    let registry = MetricsRegistry::new();
    let latency = registry.histogram("bench.detection_latency_ns");
    let mut by_site: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut max_fills = [0u64; 3];
    let mut rep_lat = Vec::new();
    let mut sel_lat = Vec::new();
    let mut all_masked = true;
    let mut sizing: Option<SizingReport> = None;
    for run in &results {
        registry.absorb(&run.registry);
        if let Some((lat, site)) = run.rep_lat {
            rep_lat.push(lat);
            *by_site.entry(site).or_insert(0) += 1;
        }
        if let Some((lat, site)) = run.sel_lat {
            sel_lat.push(lat);
            *by_site.entry(site).or_insert(0) += 1;
        }
        for (i, fill) in max_fills.iter_mut().enumerate() {
            *fill = (*fill).max(run.max_fills[i]);
        }
        all_masked &= run.masked;
        sizing.get_or_insert(run.sizing);
    }

    let metrics = BenchMetrics {
        detection_latency: latency.snapshot(),
        detections_by_site: by_site
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        max_fills: vec![
            ("replicator.q0".to_owned(), max_fills[0]),
            ("replicator.q1".to_owned(), max_fills[1]),
            ("selector".to_owned(), max_fills[2]),
        ],
        runs: runs as u64,
    };
    let sizing = sizing.expect("at least one run");
    let site_stats = |latencies: &[TimeNs], bound| DetectionStats {
        stats: TimingStats::from_durations(latencies).unwrap_or(TimingStats {
            min: TimeNs::ZERO,
            max: TimeNs::ZERO,
            mean: TimeNs::ZERO,
            samples: 0,
        }),
        bound,
        detections: latencies.len(),
        runs,
    };
    let campaign = FaultCampaign {
        replicator: site_stats(&rep_lat, sizing.replicator_detection_bound),
        selector: site_stats(&sel_lat, sizing.selector_detection_bound),
        all_masked,
    };
    (campaign, metrics)
}

/// Table 3 campaign result: our approach vs the distance-function monitor
/// on the same fault, timing variations minimised (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct ComparisonStats {
    /// Our approach (replicator overflow detection).
    pub ours: TimingStats,
    /// Distance-function monitor (1 ms polling, l = 1).
    pub distance_fn: TimingStats,
}

/// A [`ReplicaFactory`] decorator inserting a distance-function tap on the
/// replica's input stream (the consumption events the paper's Table 3
/// monitors at the replicator).
struct TappedFactory<'a> {
    inner: &'a dyn ReplicaFactory,
    taps: [Arc<StreamTap>; 2],
}

impl ReplicaFactory for TappedFactory<'_> {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        let mid = net.add_channel(Fifo::new(format!("r{replica}.tap"), 1));
        let tap = net.add_process(tap_stage(
            format!("r{replica}.tapstage"),
            input,
            PortId::of(mid),
            Arc::clone(&self.taps[replica]),
        ));
        let mut nodes = vec![tap];
        nodes.extend(
            self.inner
                .build(net, PortId::of(mid), output, replica, fault),
        );
        nodes
    }
}

/// Runs the Table 3 comparison for `app`: replica timing variations
/// minimised (0.2 ms jitter), fail-stop fault in replica 0, `runs`
/// repetitions. Returns `None` if either detector missed in some run
/// (should not happen; surfaced rather than panicking so the table can
/// report it).
pub fn comparison_campaign(app: App, runs: usize) -> Option<ComparisonStats> {
    let profile = app.profile();
    let period = profile.model.producer.period;
    let tiny = TimeNs::from_us(200);
    // Minimised-variation model (paper: "timing variations from the
    // replicas were minimized, enabling ... l = 1").
    let model = rtft_rtc::sizing::DuplicationModel::symmetric(
        profile.model.producer,
        profile.model.consumer,
        [
            PjdModel::new(period, tiny, TimeNs::ZERO),
            PjdModel::new(period, tiny, TimeNs::ZERO),
        ],
    );
    let tokens = 120u64;
    let fault_at = period * 40;
    let horizon = period * (tokens + 40) + TimeNs::from_secs(1);

    let results = parallel_map_ordered(
        (0..runs as u64).collect::<Vec<_>>(),
        campaign_workers(),
        |_, run| -> Option<(TimeNs, TimeNs)> {
            let make_cfg = || {
                DuplicationConfig::from_model(model)
                    .expect("bounded")
                    .with_token_count(tokens)
                    .with_seeds(run * 3 + 1, run * 3 + 2)
                    .with_payload(app.payload_generator(run + 1))
                    .with_fault(0, FaultPlan::fail_stop_at(fault_at))
            };
            let factory = app
                .replica_factory([run * 7 + 11, run * 7 + 22])
                .with_jitter([tiny, tiny]);

            // Run 1 — our approach, unmodified network: replicator overflow
            // detection with no observation machinery in the data path.
            let (net, ids) = build_duplicated(&make_cfg(), &factory);
            let mut engine = Engine::new(net);
            engine.run_until(horizon + TimeNs::from_secs(2));
            let our_record = ids.replicator_faults(engine.network())[0]?;
            let ours = our_record.at.saturating_sub(fault_at);

            // Run 2 — the baseline: identical seeds, plus the tap stage the
            // distance-function monitor needs to timestamp consumption
            // events (the observation cost our counters avoid).
            let taps = [StreamTap::new(), StreamTap::new()];
            let tapped = TappedFactory {
                inner: &factory,
                taps: [Arc::clone(&taps[0]), Arc::clone(&taps[1])],
            };
            let (mut net, _ids) = build_duplicated(&make_cfg(), &tapped);
            // l = 1, 1 ms polling, fail-silent (overdue) rule — §4.3's setup.
            let bounds = LRepetitive::from_pjd(
                &PjdModel::new(period, tiny + profile.model.producer.jitter, TimeNs::ZERO),
                1,
            );
            let monitor = net.add_process(DistanceMonitor::new(
                "distfn",
                Arc::clone(&taps[0]),
                bounds,
                TimeNs::from_ms(1),
                Some(horizon),
            ));
            let mut engine = Engine::new(net);
            engine.run_until(horizon + TimeNs::from_secs(2));
            let verdict = engine
                .network()
                .process_as::<DistanceMonitor>(monitor)?
                .verdict()?;
            Some((ours, verdict.detected_at.saturating_sub(fault_at)))
        },
    );

    let mut ours = Vec::with_capacity(runs);
    let mut theirs = Vec::with_capacity(runs);
    for pair in results {
        // A missed detection in any run is surfaced rather than panicking.
        let (o, t) = pair?;
        ours.push(o);
        theirs.push(t);
    }

    Some(ComparisonStats {
        ours: TimingStats::from_durations(&ours)?,
        distance_fn: TimingStats::from_durations(&theirs)?,
    })
}

/// Simulation horizon comfortably covering `tokens` tokens plus startup
/// and detection transients.
fn sim_horizon(cfg: &DuplicationConfig, tokens: u64) -> TimeNs {
    cfg.model.producer.period * (tokens + 20)
        + cfg.model.consumer.delay
        + cfg.sizing.selector_detection_bound * 4
        + TimeNs::from_secs(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_campaign_is_clean_adpcm() {
        let stats = no_fault_campaign(App::Adpcm, 3, 60);
        assert!(!stats.false_positive);
        assert!(stats.equivalent);
        for i in 0..2 {
            assert!(stats.max_fill_replicator[i] >= 1, "queues actually used");
        }
        // Mean inter-arrival tracks the 6.3 ms sample period.
        let mean_ms = stats.duplicated_inter.mean.as_ms_f64();
        assert!((5.5..7.1).contains(&mean_ms), "mean {mean_ms}");
    }

    #[test]
    fn fault_campaign_detects_and_masks_adpcm() {
        let c = fault_campaign(App::Adpcm, 4, 80, TimeNs::from_ms(189));
        assert!(c.all_masked);
        assert_eq!(c.replicator.detections, 4);
        assert_eq!(c.selector.detections, 4);
        assert!(c.replicator.stats.max <= c.replicator.bound, "within bound");
        assert!(c.selector.stats.max <= c.selector.bound, "within bound");
    }

    #[test]
    fn observed_campaign_pools_bench_metrics() {
        let (c, m) = fault_campaign_observed(App::Adpcm, 4, 80, TimeNs::from_ms(189));
        assert!(c.all_masked, "health model must agree with raw latches");
        assert_eq!(m.runs, 4);
        // One latency sample per detection, both sites pooled.
        assert_eq!(
            m.detection_latency.count as usize,
            c.replicator.detections + c.selector.detections
        );
        assert!(
            m.detection_latency.max <= c.selector.bound.as_ns().max(c.replicator.bound.as_ns())
        );
        let sites: Vec<&str> = m
            .detections_by_site
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        assert!(sites
            .iter()
            .all(|s| s.starts_with("replicator.") || s.starts_with("selector.")));
        assert_eq!(m.detections_by_site.iter().map(|(_, n)| n).sum::<u64>(), 8);
        assert_eq!(m.max_fills.len(), 3);
        assert!(
            m.max_fills.iter().all(|(_, f)| *f >= 1),
            "queues actually used"
        );
        let json = m.to_json();
        assert!(json.contains("\"detection_latency_ns\""));
        assert!(json.contains("\"max_observed_fills\""));
    }

    #[test]
    fn comparison_campaign_ours_beats_distfn_adpcm() {
        let c = comparison_campaign(App::Adpcm, 3).expect("both detect");
        // The distance-function monitor pays the polling quantisation.
        assert!(
            c.distance_fn.mean >= c.ours.mean,
            "distfn {} vs ours {}",
            c.distance_fn.mean,
            c.ours.mean
        );
    }
}
