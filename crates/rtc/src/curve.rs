//! Arrival curves and curve algebra.
//!
//! An *arrival curve* bounds the number of tokens (events) a stream can
//! carry in any half-open time window `[s, s + Δ)`. An upper curve `α^u(Δ)`
//! is the maximum, a lower curve `α^l(Δ)` the minimum, over all window
//! placements `s` — see eq. (2) of the paper and Chakraborty et al.,
//! RTSS 2006.
//!
//! All curves here are *integer staircases over integer nanoseconds*: they
//! are non-decreasing, change value only at countably many breakpoints, and
//! are evaluated exactly. This makes the sup/inf searches in
//! [`crate::sizing`] and [`crate::detection`] exact rather than sampled.
//!
//! # Conventions
//!
//! * Window semantics are half-open `[s, s + Δ)`, so every curve satisfies
//!   `eval(0) == 0`.
//! * Curves are **left-continuous** staircases: `eval(b)` is the value *at*
//!   a breakpoint `b`, and the post-jump value is visible at `b + 1` ns.
//!   Searches therefore probe both `b` and `b + 1` for each breakpoint.

use crate::time::TimeNs;
use std::fmt;
use std::sync::Arc;

/// A non-decreasing integer staircase curve over integer-nanosecond window
/// lengths.
///
/// Implementors must guarantee:
///
/// * `eval(TimeNs::ZERO) == 0`;
/// * `eval` is non-decreasing;
/// * between consecutive values returned by [`Curve::jump_points`] the curve
///   is constant (jump points may be over-approximated — extra points are
///   harmless, missing points are not).
pub trait Curve: fmt::Debug + Send + Sync {
    /// Number of tokens bounded for a window of length `delta`.
    fn eval(&self, delta: TimeNs) -> u64;

    /// All `Δ ∈ (0, horizon]` at which the curve *may* change value.
    ///
    /// Used by sup/inf searches; over-approximation is allowed.
    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs>;

    /// Long-run growth rate, as tokens per nanosecond, expressed as the
    /// exact rational `tokens / per`. `None` means the curve is eventually
    /// constant (rate zero).
    fn long_run_rate(&self) -> Option<Rate>;

    /// Length of the initial transient after which the curve is in its
    /// periodic steady state (`eval(Δ + p) = eval(Δ) + k` for the long-run
    /// rate `k / p`). For a PJD curve this is the jitter. Used to size
    /// default search horizons; over-approximation is allowed.
    fn transient(&self) -> TimeNs {
        TimeNs::ZERO
    }
}

impl<C: Curve + ?Sized> Curve for &C {
    fn eval(&self, delta: TimeNs) -> u64 {
        (**self).eval(delta)
    }
    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        (**self).jump_points(horizon)
    }
    fn long_run_rate(&self) -> Option<Rate> {
        (**self).long_run_rate()
    }
    fn transient(&self) -> TimeNs {
        (**self).transient()
    }
}

impl<C: Curve + ?Sized> Curve for Arc<C> {
    fn eval(&self, delta: TimeNs) -> u64 {
        (**self).eval(delta)
    }
    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        (**self).jump_points(horizon)
    }
    fn long_run_rate(&self) -> Option<Rate> {
        (**self).long_run_rate()
    }
    fn transient(&self) -> TimeNs {
        (**self).transient()
    }
}

impl Curve for Box<dyn Curve> {
    fn eval(&self, delta: TimeNs) -> u64 {
        (**self).eval(delta)
    }
    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        (**self).jump_points(horizon)
    }
    fn long_run_rate(&self) -> Option<Rate> {
        (**self).long_run_rate()
    }
    fn transient(&self) -> TimeNs {
        (**self).transient()
    }
}

/// An exact rational token rate: `tokens` tokens every `per` nanoseconds.
///
/// Rates compare by cross-multiplication so `1/30ms` vs `2/60ms` are equal
/// without any floating-point round-off.
///
/// # Examples
///
/// ```
/// use rtft_rtc::{Rate, TimeNs};
///
/// let a = Rate::new(1, TimeNs::from_ms(30));
/// let b = Rate::new(2, TimeNs::from_ms(60));
/// assert_eq!(a, b);
/// assert!(Rate::new(1, TimeNs::from_ms(20)) > a);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    tokens: u64,
    per: TimeNs,
}

impl Rate {
    /// Creates a rate of `tokens` tokens per `per` duration.
    ///
    /// # Panics
    ///
    /// Panics if `per` is zero.
    pub fn new(tokens: u64, per: TimeNs) -> Self {
        assert!(per > TimeNs::ZERO, "rate period must be positive");
        Rate { tokens, per }
    }

    /// Zero tokens per second.
    pub fn zero() -> Self {
        Rate {
            tokens: 0,
            per: TimeNs::from_secs(1),
        }
    }

    /// Token count component.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Duration component.
    pub fn per(&self) -> TimeNs {
        self.per
    }

    /// Rate as fractional tokens per second.
    pub fn tokens_per_sec(&self) -> f64 {
        self.tokens as f64 / self.per.as_secs_f64()
    }

    fn cross(&self, other: &Rate) -> (u128, u128) {
        (
            self.tokens as u128 * other.per.as_ns() as u128,
            other.tokens as u128 * self.per.as_ns() as u128,
        )
    }
}

impl PartialEq for Rate {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = self.cross(other);
        a == b
    }
}

impl Eq for Rate {}

impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = self.cross(other);
        a.cmp(&b)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} per {}", self.tokens, self.per)
    }
}

/// The identically-zero curve; the upper arrival curve of a fail-stopped
/// replica (`ᾱ^u = 0` in eq. (8)).
///
/// # Examples
///
/// ```
/// use rtft_rtc::{Curve, ZeroCurve, TimeNs};
///
/// assert_eq!(ZeroCurve.eval(TimeNs::from_secs(100)), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroCurve;

impl Curve for ZeroCurve {
    fn eval(&self, _delta: TimeNs) -> u64 {
        0
    }
    fn jump_points(&self, _horizon: TimeNs) -> Vec<TimeNs> {
        Vec::new()
    }
    fn long_run_rate(&self) -> Option<Rate> {
        None
    }
}

/// An explicit staircase curve given by `(breakpoint, value)` pairs.
///
/// The curve evaluates to `value_k` for `Δ ∈ (b_{k-1}, b_k]`-style
/// left-continuous semantics: concretely, `eval(Δ)` is the value of the last
/// point whose breakpoint is `< Δ`, i.e. a point `(b, v)` means "from just
/// after `b` onwards the curve is `v`". A point at `TimeNs::ZERO` sets the
/// value immediately after 0. Beyond the last point the curve saturates.
///
/// # Examples
///
/// ```
/// use rtft_rtc::{Curve, StaircaseCurve, TimeNs};
///
/// // One token immediately, a second one after 10ms, then no more.
/// let c = StaircaseCurve::new(vec![(TimeNs::ZERO, 1), (TimeNs::from_ms(10), 2)]);
/// assert_eq!(c.eval(TimeNs::from_ns(1)), 1);
/// assert_eq!(c.eval(TimeNs::from_ms(10)), 1);
/// assert_eq!(c.eval(TimeNs::from_ms(10) + TimeNs::from_ns(1)), 2);
/// assert_eq!(c.eval(TimeNs::from_ms(35)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaircaseCurve {
    points: Vec<(TimeNs, u64)>,
}

impl StaircaseCurve {
    /// Creates a staircase from `(breakpoint, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the breakpoints are not strictly increasing or the values
    /// are decreasing.
    pub fn new(points: Vec<(TimeNs, u64)>) -> Self {
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "staircase values must be non-decreasing");
        }
        StaircaseCurve { points }
    }

    /// The explicit points of the staircase.
    pub fn points(&self) -> &[(TimeNs, u64)] {
        &self.points
    }

    fn last_point(&self) -> (TimeNs, u64) {
        self.points.last().copied().unwrap_or((TimeNs::ZERO, 0))
    }
}

impl Curve for StaircaseCurve {
    fn eval(&self, delta: TimeNs) -> u64 {
        if delta == TimeNs::ZERO {
            return 0;
        }
        // Value of the last point with breakpoint < delta.
        match self.points.partition_point(|(b, _)| *b < delta) {
            0 => 0,
            i => self.points[i - 1].1,
        }
    }

    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        self.points
            .iter()
            .map(|(b, _)| *b)
            .filter(|b| *b <= horizon)
            .collect()
    }

    fn long_run_rate(&self) -> Option<Rate> {
        None
    }

    fn transient(&self) -> TimeNs {
        self.last_point().0
    }
}

/// Pointwise minimum of two curves (e.g. combining a jitter bound with a
/// minimum-distance bound).
#[derive(Debug, Clone)]
pub struct MinCurve<A, B>(pub A, pub B);

impl<A: Curve, B: Curve> Curve for MinCurve<A, B> {
    fn transient(&self) -> TimeNs {
        self.0.transient().max(self.1.transient())
    }

    fn eval(&self, delta: TimeNs) -> u64 {
        self.0.eval(delta).min(self.1.eval(delta))
    }
    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        let mut v = self.0.jump_points(horizon);
        v.extend(self.1.jump_points(horizon));
        v.sort_unstable();
        v.dedup();
        v
    }
    fn long_run_rate(&self) -> Option<Rate> {
        match (self.0.long_run_rate(), self.1.long_run_rate()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            // min with an eventually-constant curve is eventually constant
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PjdModel;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_ms(v)
    }

    #[test]
    fn zero_curve_is_zero_everywhere() {
        assert_eq!(ZeroCurve.eval(TimeNs::ZERO), 0);
        assert_eq!(ZeroCurve.eval(TimeNs::MAX), 0);
        assert!(ZeroCurve.jump_points(ms(100)).is_empty());
        assert!(ZeroCurve.long_run_rate().is_none());
    }

    #[test]
    fn staircase_basic_eval() {
        let c = StaircaseCurve::new(vec![(TimeNs::ZERO, 1), (ms(10), 2), (ms(20), 5)]);
        assert_eq!(c.eval(TimeNs::ZERO), 0);
        assert_eq!(c.eval(TimeNs::from_ns(1)), 1);
        assert_eq!(c.eval(ms(10)), 1, "left-continuous at breakpoint");
        assert_eq!(c.eval(ms(10) + TimeNs::from_ns(1)), 2);
        assert_eq!(c.eval(ms(20)), 2);
        assert_eq!(c.eval(ms(21)), 5);
        assert_eq!(c.eval(ms(1000)), 5, "no extension: saturates");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn staircase_rejects_unsorted_points() {
        let _ = StaircaseCurve::new(vec![(ms(10), 1), (ms(5), 2)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn staircase_rejects_decreasing_values() {
        let _ = StaircaseCurve::new(vec![(ms(5), 3), (ms(10), 2)]);
    }

    #[test]
    fn min_max_sum_combinators() {
        // a = ⌈Δ/10ms⌉ + 1, b = ⌈Δ/5ms⌉.
        let a = PjdModel::new(ms(10), ms(10), TimeNs::ZERO).upper();
        let b = PjdModel::new(ms(5), TimeNs::ZERO, TimeNs::ZERO).upper();
        let t = ms(17);
        let (va, vb) = (a.eval(t), b.eval(t));
        assert_eq!(MinCurve(&a, &b).eval(t), va.min(vb));
        // Rate: min = 1/10ms.
        assert_eq!(MinCurve(&a, &b).long_run_rate(), Some(Rate::new(1, ms(10))));
    }

    #[test]
    fn rate_ordering_is_exact() {
        let a = Rate::new(1, ms(30));
        let b = Rate::new(3, ms(90));
        let c = Rate::new(1, ms(29));
        assert_eq!(a, b);
        assert!(c > a);
        assert!(Rate::zero() < a);
    }
}
