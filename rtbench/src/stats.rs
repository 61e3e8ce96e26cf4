//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is a quantile of the sorted sample
//! vector, never of an `rtft_obs::Histogram`: its log₂ buckets return
//! `min(bucket_upper, max)`, which is why `BENCH_e17.json` carries
//! `flush_p50_ms == flush_p99_ms`.

/// Raw samples of one quantity, kept until the run ends.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile by the nearest-rank rule on the sorted samples:
    /// the smallest sample with at least `q·n` samples at or below it.
    /// Exact (always one of the samples); `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// Median; the mean of the two middle samples when `n` is even.
    pub fn median(&mut self) -> Option<f64> {
        let hi = self.quantile(0.5)?;
        let n = self.values.len();
        if n % 2 == 1 {
            return Some(hi);
        }
        Some((self.values[n / 2 - 1] + self.values[n / 2]) / 2.0)
    }

    /// The highest of p99.9 / p99 / p90 that still has at least ten
    /// samples beyond it, with its label; `None` under 100 samples.
    pub fn supported_tail(&mut self) -> Option<(&'static str, f64)> {
        let n = self.values.len();
        // Whole-number shares: 1.0 - 0.9 is not exactly a tenth.
        for (label, q, one_in) in [("p99.9", 0.999, 1000), ("p99", 0.99, 100), ("p90", 0.9, 10)] {
            if n / one_in >= 10 {
                return self.quantile(q).map(|v| (label, v));
            }
        }
        None
    }
}

/// Median of a small slice (copies and sorts it).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method: position `(n+1)·k/4`, linear interpolation, extrapolating past
/// the ends as Python does). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // 1-based position (n+1)·k/4, split into index and fraction.
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median_of(values)?;
    if m == 0.0 {
        return None;
    }
    Some((q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn quantiles_are_exact_on_a_known_vector() {
        // 1..=100 shuffled by a fixed stride: p50 = 50, p99 = 99, max = 100.
        let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let mut s = samples(&v);
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.5));
    }

    #[test]
    fn one_octave_does_not_collapse() {
        // The case the log2 histogram cannot resolve: everything inside
        // [44, 48] ms. p50 and p99 must differ.
        let v: Vec<f64> = (0..1000).map(|i| 44.0 + (i % 400) as f64 / 100.0).collect();
        let mut s = samples(&v);
        let (p50, p99) = (s.quantile(0.5).unwrap(), s.quantile(0.99).unwrap());
        assert!(p50 < 46.1 && p99 > 47.9, "p50 {p50} p99 {p99}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(samples(&[1.0; 99]).supported_tail().is_none());
        assert_eq!(samples(&[1.0; 100]).supported_tail().unwrap().0, "p90");
        assert_eq!(samples(&[1.0; 1000]).supported_tail().unwrap().0, "p99");
        assert_eq!(samples(&[1.0; 10_000]).supported_tail().unwrap().0, "p99.9");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!((spread_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
