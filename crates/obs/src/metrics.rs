//! Atomic metric primitives and the registry that names them.
//!
//! Everything here is wait-free on the hot path: a counter increment is one
//! `fetch_add(Relaxed)`, a gauge update two atomic ops, a histogram record
//! three. Handles are `Arc`-backed and resolved **once** (at construction /
//! instrumentation time), so the instrumented inner loops never touch the
//! registry's lock — the same discipline the paper applies to its
//! counter-only fault detection: no timekeeping, no allocation, no
//! synchronisation on the observed path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh unregistered counter (registered ones come from
    /// [`MetricsRegistry::counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest value plus its high-water mark.
///
/// The watermark is what Table 2 calls "Max. Observed fill": queue
/// occupancy gauges keep the peak alongside the instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    current: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// A fresh unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current value, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.current.store(v, Ordering::Relaxed);
        self.value.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.current.load(Ordering::Relaxed)
    }

    /// High-water mark since construction.
    pub fn max(&self) -> u64 {
        self.value.max.load(Ordering::Relaxed)
    }

    /// Folds another gauge into this one: the current value is overwritten
    /// (last writer wins) and the high-water marks are combined. Used by
    /// [`MetricsRegistry::absorb`] for fleet-level aggregation.
    pub fn merge_from(&self, other: &Gauge) {
        if Arc::ptr_eq(&self.value, &other.value) {
            return;
        }
        self.value.current.store(
            other.value.current.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.value
            .max
            .fetch_max(other.value.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`,
/// plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-layout log₂-bucket histogram.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Quantile queries therefore return an estimate that is
/// exact to within one power of two — plenty for detection-latency and
/// queue-occupancy distributions, at the cost of 65 atomics and no
/// allocation ever.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

/// Bucket index of `v`: 0 for 0, else `floor(log2 v) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Upper bound (inclusive representative) of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Quantile estimate for `q ∈ [0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `q·count` (the exact max for
    /// the last occupied bucket). Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last_occupied = 0usize;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                last_occupied = i;
                seen += n;
                if seen >= rank {
                    // Clamp the top bucket's estimate to the true max.
                    return Some(bucket_upper(i).min(self.max()));
                }
            }
        }
        Some(bucket_upper(last_occupied).min(self.max()))
    }

    /// Folds another histogram's distribution into this one: buckets,
    /// count and sum add; the maxima combine. Quantile estimates of the
    /// merged histogram are exactly those of recording both input streams
    /// into one histogram (the log₂ layout is mergeable bucket-by-bucket).
    /// Used by [`MetricsRegistry::absorb`] for fleet-level aggregation.
    pub fn merge_from(&self, other: &Histogram) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        for (mine, theirs) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inner
            .count
            .fetch_add(other.inner.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .sum
            .fetch_add(other.inner.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .max
            .fetch_max(other.inner.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An immutable copy of the distribution's summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Summary statistics captured from a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Median estimate (log-bucket upper bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the captured distribution (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named registry of metrics.
///
/// Names are interned `&'static str`s: instrumentation sites name their
/// metrics with string literals and resolve the handle once. Repeated
/// lookups return clones of the same underlying atomic, so a registry can
/// be shared between the engine, the channels and the exporters.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Dynamic-name gauges (per-channel occupancy uses runtime names).
    named_gauges: BTreeMap<String, Gauge>,
    /// Dynamic-name counters (per-tenant serve traffic uses runtime names).
    named_counters: BTreeMap<String, Counter>,
    /// Dynamic-name histograms (per-segment WAL commit batches and other
    /// runtime-keyed distributions).
    named_histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .lock()
            .unwrap()
            .counters
            .entry(name)
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .entry(name)
            .or_default()
            .clone()
    }

    /// A counter under a runtime-constructed name (per-tenant traffic:
    /// `"serve.app.<name>.tokens"`), created on first use.
    pub fn counter_named(&self, name: impl Into<String>) -> Counter {
        self.inner
            .lock()
            .unwrap()
            .named_counters
            .entry(name.into())
            .or_default()
            .clone()
    }

    /// A gauge under a runtime-constructed name (per-channel occupancy:
    /// `"kpn.channel.<name>.fill"`), created on first use.
    pub fn gauge_named(&self, name: impl Into<String>) -> Gauge {
        self.inner
            .lock()
            .unwrap()
            .named_gauges
            .entry(name.into())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name)
            .or_default()
            .clone()
    }

    /// A histogram under a runtime-constructed name (per-stream WAL replay
    /// sizes: `"wal.stream.<id>.replay"`), created on first use.
    fn histogram_named(&self, name: impl Into<String>) -> Histogram {
        self.inner
            .lock()
            .unwrap()
            .named_histograms
            .entry(name.into())
            .or_default()
            .clone()
    }

    /// Folds another registry's metrics into this one, creating metrics on
    /// first sight: counters add, histograms merge bucket-wise, gauges keep
    /// the combined high-water mark. Each source registry should be
    /// absorbed **once** (counters would double-add otherwise) — the fleet
    /// supervisor absorbs every completed job's registry exactly once.
    ///
    /// Ordered-absorb determinism: counters and histograms are commutative
    /// (pure additions / max-combines), so any absorb order yields the
    /// same values; a gauge's *current* value is last-writer-wins, so
    /// absorbing per-run registries **in run order** reproduces exactly
    /// the state sequential execution over one shared registry would have
    /// left. The parallel campaign drivers rely on this: they gather
    /// per-run registries in scenario-index order and absorb them
    /// sequentially, making campaign reports byte-identical at any worker
    /// count.
    ///
    /// Lock discipline: `other`'s handles are collected under its lock,
    /// the lock is dropped, then `self` is updated — the two registry
    /// locks are never held together, so `a.absorb(&b)` can race with
    /// `b.absorb(&a)` without deadlocking. Absorbing a registry into
    /// itself is a no-op.
    pub fn absorb(&self, other: &MetricsRegistry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let (counters, gauges, histograms, named_gauges, named_counters, named_histograms) = {
            let g = other.inner.lock().unwrap();
            (
                g.counters
                    .iter()
                    .map(|(k, v)| (*k, v.get()))
                    .collect::<Vec<_>>(),
                g.gauges
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>(),
                g.histograms
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>(),
                g.named_gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                g.named_counters
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get()))
                    .collect::<Vec<_>>(),
                g.named_histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        for (name, value) in counters {
            self.counter(name).add(value);
        }
        for (name, value) in named_counters {
            self.counter_named(name).add(value);
        }
        for (name, gauge) in gauges {
            self.gauge(name).merge_from(&gauge);
        }
        for (name, histogram) in histograms {
            self.histogram(name).merge_from(&histogram);
        }
        for (name, gauge) in named_gauges {
            self.gauge_named(name).merge_from(&gauge);
        }
        for (name, histogram) in named_histograms {
            self.histogram_named(name).merge_from(&histogram);
        }
    }

    /// All counters as `(name, value)`, sorted by name; runtime-named
    /// counters follow the static ones.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let g = self.inner.lock().unwrap();
        g.counters
            .iter()
            .map(|(k, v)| (k.to_string(), v.get()))
            .chain(g.named_counters.iter().map(|(k, v)| (k.clone(), v.get())))
            .collect()
    }

    /// All gauges as `(name, current, max)`, sorted by name; runtime-named
    /// gauges follow the static ones.
    pub fn gauge_values(&self) -> Vec<(String, u64, u64)> {
        let g = self.inner.lock().unwrap();
        g.gauges
            .iter()
            .map(|(k, v)| (k.to_string(), v.get(), v.max()))
            .chain(
                g.named_gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get(), v.max())),
            )
            .collect()
    }

    /// All histograms as `(name, snapshot)`, sorted by name; runtime-named
    /// histograms follow the static ones.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let g = self.inner.lock().unwrap();
        g.histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .chain(
                g.named_histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.snapshot())),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the value.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn gauge_tracks_watermark() {
        let g = Gauge::new();
        g.set(3);
        g.set(9);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.max(), 9);
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.counter("x").get(), 2);
        assert_eq!(r.counter_values(), vec![("x".to_string(), 2)]);
    }

    #[test]
    fn histogram_empty_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().p50, 0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [0u64, 1, 7, 100] {
            a.record(v);
            combined.record(v);
        }
        for v in [3u64, 9_000, 9_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
        // Self-merge is a no-op, not a doubling.
        let before = a.snapshot();
        a.merge_from(&a.clone());
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn registry_absorb_aggregates_all_kinds() {
        let fleet = MetricsRegistry::new();
        fleet.counter("jobs").add(1);

        let job = MetricsRegistry::new();
        job.counter("jobs").add(2);
        job.gauge("fill").set(9);
        job.histogram("lat").record(40);
        job.gauge_named("chan.a.fill").set(5);
        job.counter_named("serve.app.mjpeg.tokens").add(7);
        job.histogram_named("wal.stream.0.replay").record(12);

        fleet.absorb(&job);
        assert_eq!(fleet.counter("jobs").get(), 3);
        assert_eq!(fleet.gauge("fill").max(), 9);
        assert_eq!(fleet.histogram("lat").count(), 1);
        assert_eq!(fleet.gauge_named("chan.a.fill").get(), 5);
        assert_eq!(fleet.counter_named("serve.app.mjpeg.tokens").get(), 7);
        assert_eq!(fleet.histogram_named("wal.stream.0.replay").count(), 1);
        assert!(fleet
            .histogram_snapshots()
            .iter()
            .any(|(name, snap)| name == "wal.stream.0.replay" && snap.count == 1));
        assert!(fleet
            .counter_values()
            .contains(&("serve.app.mjpeg.tokens".to_string(), 7)));

        // Absorbing into itself changes nothing.
        fleet.absorb(&fleet.clone());
        assert_eq!(fleet.counter("jobs").get(), 3);
    }

    #[test]
    fn ordered_absorb_reproduces_sequential_recording() {
        // The parallel campaign contract: per-run registries absorbed in
        // run order leave the aggregate in exactly the state sequential
        // recording into one shared registry would have.
        let sequential = MetricsRegistry::new();
        let per_run: Vec<MetricsRegistry> = (0..4u64)
            .map(|run| {
                let r = MetricsRegistry::new();
                for reg in [&sequential, &r] {
                    reg.counter("runs").inc();
                    reg.histogram("lat").record(run * 100 + 7);
                    reg.gauge("fill").set(10 - run); // decreasing: max ≠ last
                }
                r
            })
            .collect();

        let gathered = MetricsRegistry::new();
        for r in &per_run {
            gathered.absorb(r);
        }
        assert_eq!(gathered.counter_values(), sequential.counter_values());
        assert_eq!(gathered.gauge_values(), sequential.gauge_values());
        let snaps = |r: &MetricsRegistry| {
            r.histogram_snapshots()
                .into_iter()
                .map(|(n, s)| (n, s.count, s.sum, s.max, s.p50, s.p99))
                .collect::<Vec<_>>()
        };
        assert_eq!(snaps(&gathered), snaps(&sequential));
        // Gauge current is last-writer-wins: run order preserved it.
        assert_eq!(gathered.gauge("fill").get(), 7);
        assert_eq!(gathered.gauge("fill").max(), 10);
    }
}
