//! The ⟨period, jitter, delay⟩ (PJD) event model.
//!
//! The paper characterises every interface of the process networks with a
//! `<period, jitter, delay>` tuple (Table 1), the standard event model of
//! SymTA-S-style compositional analysis:
//!
//! * events occur nominally every `period`,
//! * each event may be displaced by up to `jitter` (so the *n*-th event
//!   occurs somewhere in `[n·period, n·period + jitter]`),
//! * `delay` is a constant interface latency — it shifts every event by the
//!   same amount, so it does **not** change the arrival curves (the window
//!   bounds are placement-invariant) but does contribute to end-to-end
//!   latency accounting.
//!
//! The induced arrival curves are the classical staircases
//!
//! ```text
//! α^u(Δ) = ⌈(Δ + J) / P⌉
//! α^l(Δ) = max(0, ⌊(Δ − J) / P⌋)
//! ```
//!
//! for `Δ > 0`, and `α(0) = 0`.

use crate::curve::{Curve, Rate};
use crate::time::TimeNs;

/// A ⟨period, jitter, delay⟩ event model for one stream interface.
///
/// # Examples
///
/// ```
/// use rtft_rtc::{Curve, PjdModel, TimeNs};
///
/// // The MJPEG producer: 30 ms period, 2 ms jitter (paper Table 1).
/// let producer = PjdModel::new(TimeNs::from_ms(30), TimeNs::from_ms(2), TimeNs::ZERO);
/// let upper = producer.upper();
/// let lower = producer.lower();
/// // In a 30 ms window: at most 2 frames (jitter can pull one in),
/// // at least 0 (jitter can push one out).
/// assert_eq!(upper.eval(TimeNs::from_ms(30)), 2);
/// assert_eq!(lower.eval(TimeNs::from_ms(30)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PjdModel {
    /// Nominal event period `P`.
    pub period: TimeNs,
    /// Maximum displacement `J` of any event from its nominal time.
    pub jitter: TimeNs,
    /// Constant interface latency (does not affect the curves).
    pub delay: TimeNs,
}

impl PjdModel {
    /// Creates a PJD model.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: TimeNs, jitter: TimeNs, delay: TimeNs) -> Self {
        assert!(period > TimeNs::ZERO, "PJD period must be positive");
        PjdModel {
            period,
            jitter,
            delay,
        }
    }

    /// Convenience constructor from fractional milliseconds, matching the
    /// paper's `<p, j, d>` tuples (e.g. `PjdModel::from_ms(30.0, 2.0, 30.0)`).
    ///
    /// # Panics
    ///
    /// Panics if `period_ms` rounds to zero nanoseconds.
    pub fn from_ms(period_ms: f64, jitter_ms: f64, delay_ms: f64) -> Self {
        Self::new(
            TimeNs::from_ms_f64(period_ms),
            TimeNs::from_ms_f64(jitter_ms),
            TimeNs::from_ms_f64(delay_ms),
        )
    }

    /// Strictly periodic model (zero jitter, zero delay).
    pub fn periodic(period: TimeNs) -> Self {
        Self::new(period, TimeNs::ZERO, TimeNs::ZERO)
    }

    /// The upper arrival curve `α^u` induced by this model.
    pub fn upper(&self) -> PjdUpper {
        PjdUpper {
            period: self.period,
            jitter: self.jitter,
        }
    }

    /// The lower arrival curve `α^l` induced by this model.
    pub fn lower(&self) -> PjdLower {
        PjdLower {
            period: self.period,
            jitter: self.jitter,
        }
    }

    /// Long-run rate `1 / period`.
    pub fn rate(&self) -> Rate {
        Rate::new(1, self.period)
    }

    /// Returns a copy with different jitter — the paper expresses the design
    /// diversity between replicas purely through differing jitter values.
    pub fn with_jitter(&self, jitter: TimeNs) -> Self {
        PjdModel { jitter, ..*self }
    }

    /// Returns a copy with a different constant delay.
    pub fn with_delay(&self, delay: TimeNs) -> Self {
        PjdModel { delay, ..*self }
    }
}

impl std::fmt::Display for PjdModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.period, self.jitter, self.delay)
    }
}

/// Upper arrival curve of a PJD stream: `α^u(Δ) = ⌈(Δ + J) / P⌉` for
/// `Δ > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PjdUpper {
    period: TimeNs,
    jitter: TimeNs,
}

impl Curve for PjdUpper {
    fn eval(&self, delta: TimeNs) -> u64 {
        if delta == TimeNs::ZERO {
            return 0;
        }
        (delta + self.jitter).div_ceil(self.period)
    }

    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        // ⌈(Δ+J)/P⌉ increases just after Δ = k·P − J for k ≥ 1 (and has its
        // first positive value immediately after Δ = 0).
        let mut out = vec![TimeNs::ZERO];
        let mut k: u64 = 1;
        loop {
            let b = self.period * k;
            if b <= self.jitter {
                k += 1;
                continue;
            }
            let b = b - self.jitter;
            if b > horizon {
                break;
            }
            out.push(b);
            k += 1;
        }
        out
    }

    fn long_run_rate(&self) -> Option<Rate> {
        Some(Rate::new(1, self.period))
    }

    fn transient(&self) -> TimeNs {
        self.jitter
    }
}

/// Lower arrival curve of a PJD stream: `α^l(Δ) = max(0, ⌊(Δ − J) / P⌋)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PjdLower {
    period: TimeNs,
    jitter: TimeNs,
}

impl Curve for PjdLower {
    fn eval(&self, delta: TimeNs) -> u64 {
        match delta.checked_sub(self.jitter) {
            Some(d) => d.div_floor(self.period),
            None => 0,
        }
    }

    fn jump_points(&self, horizon: TimeNs) -> Vec<TimeNs> {
        // ⌊(Δ−J)/P⌋ reaches k exactly at Δ = k·P + J.
        let mut out = Vec::new();
        let mut k: u64 = 1;
        loop {
            let b = self.period * k + self.jitter;
            if b > horizon {
                break;
            }
            out.push(b);
            k += 1;
        }
        out
    }

    fn long_run_rate(&self) -> Option<Rate> {
        Some(Rate::new(1, self.period))
    }

    fn transient(&self) -> TimeNs {
        self.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_ms(v)
    }

    fn ns1() -> TimeNs {
        TimeNs::from_ns(1)
    }

    #[test]
    fn strictly_periodic_curves() {
        let m = PjdModel::periodic(ms(30));
        let (u, l) = (m.upper(), m.lower());
        assert_eq!(u.eval(TimeNs::ZERO), 0);
        assert_eq!(u.eval(ns1()), 1);
        assert_eq!(u.eval(ms(30)), 1);
        assert_eq!(u.eval(ms(30) + ns1()), 2);
        assert_eq!(l.eval(ms(30) - ns1()), 0);
        assert_eq!(l.eval(ms(30)), 1);
        assert_eq!(l.eval(ms(90)), 3);
    }

    #[test]
    fn jitter_widens_the_band() {
        // MJPEG replica 2: ⟨30, 30⟩ per the reconstructed Table 1.
        let m = PjdModel::new(ms(30), ms(30), TimeNs::ZERO);
        let (u, l) = (m.upper(), m.lower());
        // A tiny window can catch two displaced events.
        assert_eq!(u.eval(ns1()), 2);
        assert_eq!(u.eval(ms(30) + ns1()), 3);
        // A 59.999ms window can contain zero events.
        assert_eq!(l.eval(ms(60) - ns1()), 0);
        assert_eq!(l.eval(ms(60)), 1);
    }

    #[test]
    fn min_distance_caps_the_upper_curve() {
        // A minimum inter-event distance d_min caps α^u at ⌈Δ / d_min⌉,
        // the upper curve of a jitter-free stream of period d_min.
        let m = PjdModel::new(ms(30), ms(30), TimeNs::ZERO);
        let d_min = PjdModel::new(ms(10), TimeNs::ZERO, TimeNs::ZERO);
        let u = crate::MinCurve(m.upper(), d_min.upper());
        // Without the cap a 1ns window would allow 2 events.
        assert_eq!(u.eval(ns1()), 1);
        assert_eq!(u.eval(ms(10) + ns1()), 2);
    }

    #[test]
    fn upper_jump_points_are_exact() {
        let m = PjdModel::new(ms(30), ms(2), TimeNs::ZERO);
        let u = m.upper();
        // Jumps just after 0, 28, 58, 88 ms.
        assert_eq!(
            u.jump_points(ms(90)),
            vec![TimeNs::ZERO, ms(28), ms(58), ms(88)]
        );
        for b in u.jump_points(ms(90)).iter().skip(1) {
            assert_eq!(
                u.eval(*b) + 1,
                u.eval(*b + ns1()),
                "value must jump by one just after breakpoint {b}"
            );
        }
    }

    #[test]
    fn lower_jump_points_are_exact() {
        let m = PjdModel::new(ms(30), ms(5), TimeNs::ZERO);
        let l = m.lower();
        assert_eq!(l.jump_points(ms(100)), vec![ms(35), ms(65), ms(95)]);
        for b in l.jump_points(ms(100)) {
            assert_eq!(
                l.eval(b - ns1()) + 1,
                l.eval(b),
                "lower reaches next step at {b}"
            );
        }
    }

    #[test]
    fn jitter_larger_than_period_still_consistent() {
        // ADPCM replica 2: jitter ≈ 2.5 periods.
        let m = PjdModel::from_ms(6.3, 16.0, 0.0);
        let (u, l) = (m.upper(), m.lower());
        // Upper at 1ns: ⌈16.000001/6.3⌉ = 3.
        assert_eq!(u.eval(ns1()), 3);
        assert_eq!(l.eval(TimeNs::from_ms_f64(22.3)), 1);
        for delta in [1u64, 1_000, 6_300_000, 22_300_000, 100_000_000] {
            let d = TimeNs::from_ns(delta);
            assert!(u.eval(d) >= l.eval(d), "upper dominates lower at {d}");
        }
    }

    #[test]
    fn display_format() {
        let m = PjdModel::from_ms(30.0, 2.0, 30.0);
        assert_eq!(format!("{m}"), "⟨30ms, 2ms, 30ms⟩");
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = PjdModel::new(TimeNs::ZERO, TimeNs::ZERO, TimeNs::ZERO);
    }
}
