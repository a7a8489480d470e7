//! Simulated time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both are integer microsecond counts. Microsecond resolution comfortably
//! covers the dynamic range this simulator needs: NAND page reads are tens of
//! microseconds, block erases are a few milliseconds, and the page-cache
//! flusher period is seconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since simulation start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Subtracting
/// two instants yields a [`SimDuration`]; adding a duration to an instant
/// yields a later instant.
///
/// # Example
///
/// ```
/// use jitgc_sim::{SimTime, SimDuration};
///
/// let start = SimTime::from_secs(10);
/// let end = start + SimDuration::from_millis(2_500);
/// assert_eq!(end - start, SimDuration::from_millis(2_500));
/// assert_eq!(end.as_micros(), 12_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// Durations support addition, subtraction (saturating via
/// [`SimDuration::saturating_sub`] or panicking via `-`), scaling by integer
/// factors, construction from seconds, milliseconds and microseconds, and
/// conversion to microseconds and fractional seconds.
///
/// # Example
///
/// ```
/// use jitgc_sim::SimDuration;
///
/// let tick = SimDuration::from_secs(5);
/// assert_eq!(tick * 6, SimDuration::from_secs(30));
/// assert_eq!(tick.as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant. Useful as an "infinitely far in the
    /// future" sentinel for event scheduling.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the instant is past
    /// [`SimTime::MAX`].
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(SimDuration::from_millis(millis).0)
    }

    /// Creates an instant `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the instant is past
    /// [`SimTime::MAX`].
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(SimDuration::from_secs(secs).0)
    }

    /// Microseconds since simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only; never
    /// used in simulation arithmetic).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds `d`, saturating at [`SimTime::MAX`] instead of overflowing.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// A duration of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the duration is longer than
    /// [`SimDuration::MAX`].
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(micros) => SimDuration(micros),
            None => panic!("the simulated clock overflows: too many milliseconds"),
        }
    }

    /// A duration of `secs` seconds, or `None` if it is longer than
    /// [`SimDuration::MAX`] (about 585 000 years).
    #[must_use]
    pub const fn checked_from_secs(secs: u64) -> Option<Self> {
        match secs.checked_mul(1_000_000) {
            Some(micros) => Some(SimDuration(micros)),
            None => None,
        }
    }

    /// A duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the duration is longer than
    /// [`SimDuration::MAX`]: a wrapped conversion would silently turn a
    /// long run into a short one, or a short one into a near-endless one.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        match Self::checked_from_secs(secs) {
            Some(d) => d,
            None => panic!("the simulated clock overflows: too many seconds"),
        }
    }

    /// A duration from fractional seconds, rounded to the nearest
    /// microsecond. Intended for configuration ergonomics, not simulation
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The duration in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float (for reporting and rate math).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplication clamped at [`SimDuration::MAX`].
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// How many whole times `other` fits into `self`; `u64::MAX` when
    /// `other` is zero and `self` is non-zero, `0` when both are zero.
    #[must_use]
    pub fn div_duration(self, other: SimDuration) -> u64 {
        match self.0.checked_div(other.0) {
            Some(q) => q,
            None if self.0 == 0 => 0,
            None => u64::MAX,
        }
    }
}

/// Advancing the clock past [`SimTime::MAX`] panics in every build
/// profile: a wrapped clock would put the later event before the earlier
/// one and every check downstream would see a lie.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(t) => SimTime(t),
            None => panic!("the simulated clock overflows: {self} + {rhs}"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            // Print with millisecond precision to keep output deterministic.
            write!(f, "{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
        } else if us >= 1_000 {
            write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(2_500).as_micros(), 2_500_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_secs(6));
        let mut at = SimTime::MAX - d;
        at += d;
        assert_eq!(at, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "the simulated clock overflows")]
    fn advancing_past_the_last_instant_panics_instead_of_wrapping() {
        let _ = SimTime::MAX + SimDuration::from_micros(1);
    }

    #[test]
    fn conversions_panic_past_the_clock_instead_of_wrapping() {
        const LAST_SEC: u64 = u64::MAX / 1_000_000;
        const LAST_MILLI: u64 = u64::MAX / 1_000;
        assert_eq!(
            SimDuration::from_secs(LAST_SEC).as_micros(),
            LAST_SEC * 1_000_000
        );
        assert_eq!(
            SimTime::from_secs(LAST_SEC).as_micros(),
            LAST_SEC * 1_000_000
        );
        assert_eq!(SimDuration::checked_from_secs(LAST_SEC + 1), None);
        assert_eq!(
            SimDuration::checked_from_secs(LAST_SEC),
            Some(SimDuration::from_secs(LAST_SEC))
        );
        assert_eq!(
            SimTime::from_millis(LAST_MILLI).as_micros(),
            LAST_MILLI * 1_000
        );
        let past: [fn(); 4] = [
            || {
                let _ = SimDuration::from_secs(LAST_SEC + 1);
            },
            || {
                let _ = SimTime::from_secs(20_000_000_000_000);
            },
            || {
                let _ = SimDuration::from_millis(LAST_MILLI + 1);
            },
            || {
                let _ = SimTime::from_millis(u64::MAX);
            },
        ];
        for conversion in past {
            let message = std::panic::catch_unwind(conversion).expect_err("wrapped");
            let message = message.downcast_ref::<&str>().expect("a message");
            assert!(
                message.starts_with("the simulated clock overflows"),
                "{message}"
            );
        }
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(250);
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / 4, d);
    }

    #[test]
    fn duration_saturating_ops() {
        let small = SimDuration::from_secs(1);
        let big = SimDuration::from_secs(2);
        assert_eq!(small.saturating_sub(big), SimDuration::ZERO);
        assert_eq!(big.saturating_sub(small), SimDuration::from_secs(1));
        assert_eq!(SimDuration::MAX.saturating_mul(2), SimDuration::MAX);
    }

    #[test]
    fn div_duration_handles_zero() {
        let d = SimDuration::from_secs(30);
        let p = SimDuration::from_secs(5);
        assert_eq!(d.div_duration(p), 6);
        assert_eq!(d.div_duration(SimDuration::ZERO), u64::MAX);
        assert_eq!(SimDuration::ZERO.div_duration(SimDuration::ZERO), 0);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t=2.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
