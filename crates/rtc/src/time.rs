//! Integer nanosecond time arithmetic.
//!
//! All real-time calculus in this crate works on an integer nanosecond
//! timeline. Using integers (rather than `f64`) keeps curve evaluation,
//! breakpoint enumeration and sup/inf searches exact, which matters because
//! the paper's guarantees (no false positives, eq. (5)) are stated over
//! exact token counts.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A duration (or instant on the virtual timeline) in integer nanoseconds.
///
/// `TimeNs` is deliberately a thin newtype over `u64`: one `TimeNs` can
/// represent about 584 years of simulated time, far beyond any experiment
/// horizon in this repository.
///
/// # Examples
///
/// ```
/// use rtft_rtc::TimeNs;
///
/// let frame_period = TimeNs::from_ms(30);
/// assert_eq!(frame_period.as_ns(), 30_000_000);
/// assert_eq!(frame_period * 2, TimeNs::from_ms(60));
/// assert_eq!(format!("{frame_period}"), "30ms");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeNs(u64);

impl TimeNs {
    /// The zero duration.
    pub const ZERO: TimeNs = TimeNs(0);
    /// The largest representable duration; used as an "infinite" sentinel in
    /// searches that may not terminate (e.g. a lower curve that never reaches
    /// a target count).
    pub const MAX: TimeNs = TimeNs(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        TimeNs(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeNs(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds (e.g. the ADPCM
    /// sample period of 6.3 ms). Rounds to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        TimeNs((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration in (fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub const fn saturating_sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition, clamped at [`TimeNs::MAX`].
    pub const fn saturating_add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_add(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: TimeNs) -> Option<TimeNs> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(TimeNs(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub const fn checked_sub(self, rhs: TimeNs) -> Option<TimeNs> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(TimeNs(v)),
            None => None,
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: TimeNs) -> TimeNs {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: TimeNs) -> TimeNs {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// `ceil(self / divisor)` as a token count; the workhorse of upper
    /// arrival-curve evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_ceil(self, divisor: TimeNs) -> u64 {
        assert!(divisor.0 != 0, "division by zero duration");
        self.0.div_ceil(divisor.0)
    }

    /// `floor(self / divisor)` as a token count.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_floor(self, divisor: TimeNs) -> u64 {
        assert!(divisor.0 != 0, "division by zero duration");
        self.0 / divisor.0
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "∞")
        } else if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000 && ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 && ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl SubAssign for TimeNs {
    fn sub_assign(&mut self, rhs: TimeNs) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeNs {
    type Output = TimeNs;
    fn mul(self, rhs: u64) -> TimeNs {
        TimeNs(self.0 * rhs)
    }
}

impl Div<u64> for TimeNs {
    type Output = TimeNs;
    fn div(self, rhs: u64) -> TimeNs {
        TimeNs(self.0 / rhs)
    }
}

impl Rem for TimeNs {
    type Output = TimeNs;
    fn rem(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 % rhs.0)
    }
}

impl Sum for TimeNs {
    fn sum<I: Iterator<Item = TimeNs>>(iter: I) -> TimeNs {
        iter.fold(TimeNs::ZERO, |a, b| a + b)
    }
}

impl From<u64> for TimeNs {
    fn from(ns: u64) -> Self {
        TimeNs(ns)
    }
}

impl From<TimeNs> for u64 {
    fn from(t: TimeNs) -> u64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(TimeNs::from_ms(1), TimeNs::from_us(1_000));
        assert_eq!(TimeNs::from_secs(1), TimeNs::from_ms(1_000));
        assert_eq!(TimeNs::from_ms_f64(6.3), TimeNs::from_us(6_300));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(format!("{}", TimeNs::from_ms(30)), "30ms");
        assert_eq!(format!("{}", TimeNs::from_us(500)), "500us");
        assert_eq!(format!("{}", TimeNs::from_ns(17)), "17ns");
        assert_eq!(format!("{}", TimeNs::from_ms_f64(6.3)), "6.300ms");
        assert_eq!(format!("{}", TimeNs::from_secs(2)), "2s");
        assert_eq!(format!("{}", TimeNs::MAX), "∞");
    }

    #[test]
    fn div_ceil_and_floor() {
        let p = TimeNs::from_ms(30);
        assert_eq!(TimeNs::from_ms(60).div_ceil(p), 2);
        assert_eq!(TimeNs::from_ms(61).div_ceil(p), 3);
        assert_eq!(TimeNs::from_ms(61).div_floor(p), 2);
        assert_eq!(TimeNs::ZERO.div_ceil(p), 0);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            TimeNs::from_ms(1).saturating_sub(TimeNs::from_ms(2)),
            TimeNs::ZERO
        );
        assert_eq!(TimeNs::MAX.saturating_add(TimeNs::from_ns(1)), TimeNs::MAX);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_zero_divisor_panics() {
        let _ = TimeNs::from_ms(1).div_ceil(TimeNs::ZERO);
    }
}
