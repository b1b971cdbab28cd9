//! Microsecond-granularity trace time: [`Timestamp`] and [`TimeDelta`].
//!
//! All codecs normalize their native clock into microseconds since an
//! arbitrary per-trace epoch (the AliCloud release already uses
//! microseconds; MSRC uses Windows 100 ns ticks, which the MSRC codec
//! divides down). Microseconds in a `u64` cover ~584,000 years, far beyond
//! any trace duration — but replay-time arithmetic (timestamps scaled by
//! a ×0.1…×1000 rate multiplier, deltas summed across remapped volumes)
//! *can* reach the edge, so the `+` operators are overflow-checked in
//! every build profile and the `checked_*`/`saturating_*` variants exist
//! for paths where overflow is an expected input rather than a bug.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Number of microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds per millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;
/// Number of microseconds per minute.
pub const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
/// Number of microseconds per hour.
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
/// Number of microseconds per day.
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

/// A point in trace time, in microseconds since the trace epoch.
///
/// `Timestamp` is a transparent newtype over `u64` ([C-NEWTYPE]): it makes
/// "a point in time" and "a length of time" ([`TimeDelta`]) distinct types
/// so they cannot be confused in analysis code.
///
/// # Example
///
/// ```
/// use cbs_trace::{TimeDelta, Timestamp};
///
/// let t0 = Timestamp::from_secs(10);
/// let t1 = t0 + TimeDelta::from_millis(1_500);
/// assert_eq!(t1.as_micros(), 11_500_000);
/// assert_eq!(t1 - t0, TimeDelta::from_micros(1_500_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
// Layout-compatible with its microsecond count, so column kernels can
// view `&[Timestamp]` as `&[u64]`.
#[repr(transparent)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch (time zero).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from microseconds since the trace epoch.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from milliseconds since the trace epoch.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * MICROS_PER_MILLI)
    }

    /// Creates a timestamp from seconds since the trace epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * MICROS_PER_SEC)
    }

    /// Creates a timestamp from minutes since the trace epoch.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        Timestamp(mins * MICROS_PER_MIN)
    }

    /// Creates a timestamp from hours since the trace epoch.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        Timestamp(hours * MICROS_PER_HOUR)
    }

    /// Creates a timestamp from days since the trace epoch.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        Timestamp(days * MICROS_PER_DAY)
    }

    /// Returns the number of whole microseconds since the trace epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole seconds since the trace epoch.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the time since the epoch as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the zero-based index of the day this timestamp falls in.
    ///
    /// Day boundaries are multiples of 24 h from the trace epoch, matching
    /// the paper's per-day activeness analysis (Fig. 3).
    #[inline]
    pub const fn day_index(self) -> u64 {
        self.0 / MICROS_PER_DAY
    }

    /// Returns the zero-based index of the interval of length `interval`
    /// this timestamp falls in.
    ///
    /// The paper's fine-grained activeness analysis (Figs. 8-9) uses
    /// 10-minute intervals.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[inline]
    pub fn interval_index(self, interval: TimeDelta) -> u64 {
        assert!(!interval.is_zero(), "interval must be non-zero");
        self.0 / interval.as_micros()
    }

    /// Returns the elapsed time since `earlier`, or `None` if `earlier`
    /// is later than `self`.
    #[inline]
    pub const fn checked_duration_since(self, earlier: Timestamp) -> Option<TimeDelta> {
        match self.0.checked_sub(earlier.0) {
            Some(d) => Some(TimeDelta(d)),
            None => None,
        }
    }

    /// Returns the elapsed time since `earlier`, or [`TimeDelta::ZERO`]
    /// if `earlier` is later than `self`.
    #[inline]
    pub const fn saturating_duration_since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Adds a delta, returning `None` on overflow.
    #[inline]
    pub const fn checked_add(self, delta: TimeDelta) -> Option<Timestamp> {
        match self.0.checked_add(delta.0) {
            Some(t) => Some(Timestamp(t)),
            None => None,
        }
    }

    /// Adds a delta, clamping to [`Timestamp::MAX`] on overflow — the
    /// shape replay schedulers use, where a saturated deadline means
    /// "never", not a wrapped-around early issue.
    #[inline]
    pub const fn saturating_add(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(delta.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;

    /// Adds a delta.
    ///
    /// # Panics
    ///
    /// Panics on overflow in **all** build profiles. The bare `+` this
    /// replaced wrapped silently in release builds, so a saturated
    /// source timestamp plus a scaled delta could land *before* the
    /// epoch and reorder a replay schedule; use
    /// [`Timestamp::checked_add`] / [`Timestamp::saturating_add`] when
    /// overflow is an expected input, not a bug.
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        match self.0.checked_add(rhs.0) {
            Some(t) => Timestamp(t),
            // cbs-lint: allow(no-panic-in-lib) -- overflow here is arithmetic corruption (584k years of trace time); wrapping silently was the bug this guard fixes
            None => panic!("Timestamp + TimeDelta overflowed: {} + {}", self.0, rhs.0),
        }
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    /// In-place [`Add`]; panics on overflow in all build profiles (see
    /// [`Add`](Timestamp::add)).
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;

    /// Returns the elapsed time between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (standard
    /// integer-underflow behaviour). Use
    /// [`Timestamp::checked_duration_since`] when the ordering is not
    /// statically known.
    #[inline]
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl From<u64> for Timestamp {
    /// Interprets the integer as microseconds since the trace epoch.
    #[inline]
    fn from(micros: u64) -> Self {
        Timestamp(micros)
    }
}

impl From<Timestamp> for u64 {
    #[inline]
    fn from(ts: Timestamp) -> u64 {
        ts.0
    }
}

/// A length of trace time, in microseconds.
///
/// # Example
///
/// ```
/// use cbs_trace::TimeDelta;
///
/// let d = TimeDelta::from_mins(5);
/// assert_eq!(d.as_secs(), 300);
/// assert!(d < TimeDelta::from_hours(1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// The zero-length delta.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The maximum representable delta.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Creates a delta from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        TimeDelta(micros)
    }

    /// Creates a delta from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        TimeDelta(millis * MICROS_PER_MILLI)
    }

    /// Creates a delta from seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs * MICROS_PER_SEC)
    }

    /// Creates a delta from minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        TimeDelta(mins * MICROS_PER_MIN)
    }

    /// Creates a delta from hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        TimeDelta(hours * MICROS_PER_HOUR)
    }

    /// Creates a delta from days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        TimeDelta(days * MICROS_PER_DAY)
    }

    /// Creates a delta from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative, got {secs}"
        );
        let micros = secs * MICROS_PER_SEC as f64;
        // Strict `<`: `u64::MAX as f64` rounds *up* to 2^64, so a `<=`
        // bound admits microsecond values in (u64::MAX, 2^64] whose
        // `as u64` cast silently saturates. Every f64 strictly below
        // 2^64 fits in a u64, and at that magnitude f64s are integral,
        // so `round()` cannot push a passing value over the edge.
        assert!(
            micros < u64::MAX as f64,
            "seconds value {secs} overflows TimeDelta"
        );
        TimeDelta(micros.round() as u64)
    }

    /// Returns the number of whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// Returns the number of whole seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the delta as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the delta as fractional minutes.
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MIN as f64
    }

    /// Returns the delta as fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_HOUR as f64
    }

    /// Returns the delta as fractional days.
    #[inline]
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_DAY as f64
    }

    /// Returns `true` if the delta is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: TimeDelta) -> Option<TimeDelta> {
        match self.0.checked_add(rhs.0) {
            Some(d) => Some(TimeDelta(d)),
            None => None,
        }
    }

    /// Checked integer scaling, `None` on overflow.
    #[inline]
    pub const fn checked_mul(self, factor: u64) -> Option<TimeDelta> {
        match self.0.checked_mul(factor) {
            Some(d) => Some(TimeDelta(d)),
            None => None,
        }
    }

    /// Scales the delta by a non-negative factor, rounding to the
    /// nearest microsecond — the rate-multiplier primitive: replaying
    /// at ×`r` stretches every inter-arrival gap by `1/r`.
    ///
    /// Returns `None` if `factor` is negative, NaN, or the product
    /// overflows the microsecond range (same strict 2^64 bound as
    /// [`TimeDelta::from_secs_f64`]). Infinity is rejected as an
    /// overflow rather than a panic, so callers can treat "multiplier
    /// too extreme" uniformly.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Option<TimeDelta> {
        if factor.is_nan() || factor < 0.0 {
            return None;
        }
        let scaled = self.0 as f64 * factor;
        // Strict `<` for the same reason as `from_secs_f64`: 2^64
        // itself must be rejected, not saturated into.
        if scaled < u64::MAX as f64 {
            Some(TimeDelta(scaled.round() as u64))
        } else {
            None
        }
    }

    /// Like [`TimeDelta::mul_f64`] but clamps overflow (and rejects of
    /// NaN/negative factors) to [`TimeDelta::MAX`] / [`TimeDelta::ZERO`]
    /// instead of returning `None`.
    #[inline]
    pub fn saturating_mul_f64(self, factor: f64) -> TimeDelta {
        if factor.is_nan() || factor < 0.0 {
            return TimeDelta::ZERO;
        }
        self.mul_f64(factor).unwrap_or(TimeDelta::MAX)
    }

    /// Checked integer division of two deltas (a dimensionless ratio).
    #[inline]
    pub fn ratio(self, rhs: TimeDelta) -> Option<f64> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.0 as f64 / rhs.0 as f64)
        }
    }
}

impl fmt::Display for TimeDelta {
    /// Formats with an adaptive unit (µs, ms, s, min, h, d).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < MICROS_PER_MILLI {
            write!(f, "{us}us")
        } else if us < MICROS_PER_SEC {
            write!(f, "{:.2}ms", us as f64 / MICROS_PER_MILLI as f64)
        } else if us < MICROS_PER_MIN {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if us < MICROS_PER_HOUR {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else if us < MICROS_PER_DAY {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else {
            write!(f, "{:.2}d", self.as_days_f64())
        }
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;

    /// Adds two deltas.
    ///
    /// # Panics
    ///
    /// Panics on overflow in **all** build profiles (the bare `+` this
    /// replaced wrapped silently in release builds). Use
    /// [`TimeDelta::checked_add`] / [`TimeDelta::saturating_add`] when
    /// overflow is an expected input.
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        match self.0.checked_add(rhs.0) {
            Some(d) => TimeDelta(d),
            // cbs-lint: allow(no-panic-in-lib) -- overflow here is arithmetic corruption (584k years of trace time); wrapping silently was the bug this guard fixes
            None => panic!("TimeDelta + TimeDelta overflowed: {} + {}", self.0, rhs.0),
        }
    }
}

impl AddAssign for TimeDelta {
    /// In-place [`Add`]; panics on overflow in all build profiles (see
    /// [`Add`](TimeDelta::add)).
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;

    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl From<u64> for TimeDelta {
    /// Interprets the integer as microseconds.
    #[inline]
    fn from(micros: u64) -> Self {
        TimeDelta(micros)
    }
}

impl From<TimeDelta> for u64 {
    #[inline]
    fn from(delta: TimeDelta) -> u64 {
        delta.0
    }
}

impl std::iter::Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> Self {
        iter.fold(TimeDelta::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Timestamp::from_secs(1), Timestamp::from_micros(1_000_000));
        assert_eq!(Timestamp::from_mins(2), Timestamp::from_secs(120));
        assert_eq!(Timestamp::from_hours(1), Timestamp::from_mins(60));
        assert_eq!(Timestamp::from_days(1), Timestamp::from_hours(24));
        assert_eq!(TimeDelta::from_millis(1), TimeDelta::from_micros(1000));
        assert_eq!(TimeDelta::from_days(2), TimeDelta::from_hours(48));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(100);
        let d = TimeDelta::from_secs(23);
        assert_eq!((t + d).as_secs(), 123);
        assert_eq!((t + d) - t, d);
        let mut u = t;
        u += d;
        assert_eq!(u, t + d);
    }

    #[test]
    fn checked_duration_since_handles_ordering() {
        let a = Timestamp::from_secs(5);
        let b = Timestamp::from_secs(9);
        assert_eq!(b.checked_duration_since(a), Some(TimeDelta::from_secs(4)));
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(a.saturating_duration_since(b), TimeDelta::ZERO);
    }

    #[test]
    fn day_and_interval_indices() {
        let ten_min = TimeDelta::from_mins(10);
        assert_eq!(Timestamp::ZERO.day_index(), 0);
        assert_eq!(Timestamp::from_hours(23).day_index(), 0);
        assert_eq!(Timestamp::from_hours(24).day_index(), 1);
        assert_eq!(Timestamp::from_mins(9).interval_index(ten_min), 0);
        assert_eq!(Timestamp::from_mins(10).interval_index(ten_min), 1);
        assert_eq!(Timestamp::from_mins(25).interval_index(ten_min), 2);
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn interval_index_rejects_zero() {
        let _ = Timestamp::ZERO.interval_index(TimeDelta::ZERO);
    }

    #[test]
    fn fractional_accessors() {
        let d = TimeDelta::from_mins(90);
        assert!((d.as_hours_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_days_f64() - 0.0625).abs() < 1e-12);
        assert!((d.as_mins_f64() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            TimeDelta::from_secs_f64(0.0000015),
            TimeDelta::from_micros(2)
        );
        assert_eq!(
            TimeDelta::from_secs_f64(1.25),
            TimeDelta::from_micros(1_250_000)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = TimeDelta::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "overflows TimeDelta")]
    fn from_secs_f64_rejects_saturating_boundary() {
        // Regression: `u64::MAX as f64` rounds up to 2^64 exactly, and
        // this seconds value multiplies back to 2^64 exactly, so the
        // old `micros <= u64::MAX as f64` bound admitted it and the
        // `as u64` cast silently saturated. The strict `<` bound must
        // reject it.
        let secs = u64::MAX as f64 / MICROS_PER_SEC as f64;
        let _ = TimeDelta::from_secs_f64(secs);
    }

    #[test]
    fn from_secs_f64_accepts_values_below_the_boundary() {
        // The largest delta the guard admits converts without
        // saturation: the result must round-trip to its own input.
        let below = f64::from_bits((u64::MAX as f64).to_bits() - 1); // 2^64 - 2048
        let d = TimeDelta::from_secs_f64(below / 2.0 / MICROS_PER_SEC as f64);
        assert!(d.as_micros() < u64::MAX / 2 + 2048);
        assert!(d.as_micros() > u64::MAX / 2 - 4096);
    }

    #[test]
    #[should_panic(expected = "Timestamp + TimeDelta overflowed")]
    fn timestamp_add_panics_on_overflow_in_release_too() {
        // Built and run with `--release` by the tier-1 gate: the old
        // bare `+` wrapped here instead of panicking.
        let t = Timestamp::MAX + TimeDelta::from_micros(1);
        let _ = std::hint::black_box(t);
    }

    #[test]
    #[should_panic(expected = "TimeDelta + TimeDelta overflowed")]
    fn delta_add_panics_on_overflow_in_release_too() {
        let d = TimeDelta::MAX + TimeDelta::from_micros(1);
        let _ = std::hint::black_box(d);
    }

    #[test]
    fn saturating_and_checked_add() {
        assert_eq!(
            Timestamp::MAX.saturating_add(TimeDelta::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(Timestamp::MAX.checked_add(TimeDelta::from_micros(1)), None);
        assert_eq!(
            Timestamp::from_secs(1).saturating_add(TimeDelta::from_secs(2)),
            Timestamp::from_secs(3)
        );
        assert_eq!(TimeDelta::MAX.checked_add(TimeDelta::from_micros(1)), None);
        assert_eq!(
            TimeDelta::from_secs(1).checked_add(TimeDelta::from_secs(2)),
            Some(TimeDelta::from_secs(3))
        );
    }

    #[test]
    fn checked_mul_scales_and_guards() {
        assert_eq!(
            TimeDelta::from_millis(3).checked_mul(4),
            Some(TimeDelta::from_millis(12))
        );
        assert_eq!(TimeDelta::MAX.checked_mul(2), None);
        assert_eq!(TimeDelta::ZERO.checked_mul(u64::MAX), Some(TimeDelta::ZERO));
    }

    #[test]
    fn mul_f64_rounds_and_guards() {
        // ×10 slowdown of a 1 µs gap (replaying at ×0.1).
        assert_eq!(
            TimeDelta::from_micros(1).mul_f64(10.0),
            Some(TimeDelta::from_micros(10))
        );
        // ×1000 speedup compresses 1 s to 1 ms.
        assert_eq!(
            TimeDelta::from_secs(1).mul_f64(1e-3),
            Some(TimeDelta::from_millis(1))
        );
        // Rounds to nearest microsecond.
        assert_eq!(
            TimeDelta::from_micros(3).mul_f64(0.5),
            Some(TimeDelta::from_micros(2))
        );
        assert_eq!(
            TimeDelta::from_micros(5).mul_f64(0.0),
            Some(TimeDelta::ZERO)
        );
        // NaN, negative, and overflowing factors are rejected.
        assert_eq!(TimeDelta::from_secs(1).mul_f64(f64::NAN), None);
        assert_eq!(TimeDelta::from_secs(1).mul_f64(-1.0), None);
        assert_eq!(TimeDelta::MAX.mul_f64(2.0), None);
        assert_eq!(TimeDelta::from_secs(1).mul_f64(f64::INFINITY), None);
        // The saturating twin clamps instead.
        assert_eq!(TimeDelta::MAX.saturating_mul_f64(2.0), TimeDelta::MAX);
        assert_eq!(
            TimeDelta::from_secs(1).saturating_mul_f64(f64::NAN),
            TimeDelta::ZERO
        );
        assert_eq!(
            TimeDelta::from_secs(2).saturating_mul_f64(0.5),
            TimeDelta::from_secs(1)
        );
    }

    #[test]
    fn display_is_adaptive() {
        assert_eq!(TimeDelta::from_micros(500).to_string(), "500us");
        assert_eq!(TimeDelta::from_millis(20).to_string(), "20.00ms");
        assert_eq!(TimeDelta::from_secs(3).to_string(), "3.00s");
        assert_eq!(TimeDelta::from_mins(5).to_string(), "5.00min");
        assert_eq!(TimeDelta::from_hours(3).to_string(), "3.00h");
        assert_eq!(TimeDelta::from_days(2).to_string(), "2.00d");
    }

    #[test]
    fn ratio_guards_zero() {
        let d = TimeDelta::from_secs(10);
        assert_eq!(d.ratio(TimeDelta::ZERO), None);
        assert_eq!(d.ratio(TimeDelta::from_secs(4)), Some(2.5));
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = [1u64, 2, 3].into_iter().map(TimeDelta::from_secs).sum();
        assert_eq!(total, TimeDelta::from_secs(6));
    }
}
