//! Simulation time: nanosecond-resolution integer instants and durations.
//!
//! All discrete-event machinery keys on [`SimTime`], a `u64` count of
//! nanoseconds since the start of the simulation. Arithmetic that could wrap
//! is checked in debug builds and saturating in the few APIs that explicitly
//! say so; everything else panics on overflow, which for a simulation clock
//! is an invariant violation worth crashing on (584 years of simulated time).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Why an `f64` could not be converted into a time value.
///
/// The panicking conversions ([`SimTime::from_secs_f64`],
/// [`SimDuration::from_secs_f64`], [`SimDuration::mul_f64`]) treat these
/// as logic errors; the `try_` variants return them so layers that accept
/// external input (session configuration, trace files, the service
/// protocol) can reject a bad value with a proper error instead of
/// crashing the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeError {
    /// The value was NaN or infinite.
    NotFinite(f64),
    /// The value was negative; simulated time is non-negative.
    Negative(f64),
    /// The value exceeds what a `u64` of nanoseconds can represent.
    OutOfRange(f64),
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeError::NotFinite(v) => write!(f, "time value must be finite, got {v}"),
            TimeError::Negative(v) => write!(f, "time value must be non-negative, got {v}"),
            TimeError::OutOfRange(v) => {
                write!(f, "time value {v} does not fit in a u64 of nanoseconds")
            }
        }
    }
}

impl std::error::Error for TimeError {}

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `nanos` nanoseconds after the origin.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Instant `micros` microseconds after the origin.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Instant `millis` milliseconds after the origin.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Instant `secs` seconds after the origin.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Instant `secs` (fractional) seconds after the origin.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    /// Use [`SimTime::try_from_secs_f64`] for untrusted input.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Fallible version of [`SimTime::from_secs_f64`]: rejects NaN,
    /// infinite, negative, and unrepresentably large values with a typed
    /// error instead of panicking.
    #[inline]
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, TimeError> {
        try_secs_to_nanos(secs).map(SimTime)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics (in debug and release) if `earlier` is later than `self`:
    /// simulated time never runs backwards, so this is a logic error.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        match self.0.checked_sub(earlier.0) {
            Some(d) => SimDuration(d),
            None => panic!(
                "duration_since: earlier instant {} is after {}",
                SimTime(earlier.0),
                self
            ),
        }
    }

    /// Duration since `earlier`, or [`SimDuration::ZERO`] if `earlier` is later.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, clamping at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// `self + d`, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as "forever".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// `secs` whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// `secs` fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    /// Use [`SimDuration::try_from_secs_f64`] for untrusted input.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Fallible version of [`SimDuration::from_secs_f64`]: rejects NaN,
    /// infinite, negative, and unrepresentably large values with a typed
    /// error instead of panicking.
    #[inline]
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, TimeError> {
        try_secs_to_nanos(secs).map(SimDuration)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self * k`, clamping at [`SimDuration::MAX`].
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by an `f64` factor (used for e.g. mean-RTT smoothing).
    ///
    /// # Precision
    /// The product is computed in `f64`, whose mantissa holds 53 bits:
    /// durations beyond 2^53 ns (≈ 104 days of simulated time) lose
    /// nanosecond granularity, so `d.mul_f64(1.0)` is only guaranteed
    /// exact below that boundary. Scale with [`Mul<u64>`](SimDuration#impl-Mul<u64>-for-SimDuration)
    /// / [`Div<u64>`](SimDuration#impl-Div<u64>-for-SimDuration) when the
    /// factor is integral and the duration may be astronomically large.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN, or if the product
    /// overflows. Use [`SimDuration::try_mul_f64`] for untrusted input.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        match self.try_mul_f64(factor) {
            Ok(d) => d,
            Err(e) => panic!("mul_f64: {e}"),
        }
    }

    /// Fallible version of [`SimDuration::mul_f64`]: rejects NaN,
    /// infinite, and negative factors — and products too large for a
    /// `u64` of nanoseconds — with a typed error instead of panicking
    /// (a negative factor would otherwise saturate the `f64 → u64` cast
    /// to 0, silently collapsing the duration).
    #[inline]
    pub fn try_mul_f64(self, factor: f64) -> Result<SimDuration, TimeError> {
        if !factor.is_finite() {
            return Err(TimeError::NotFinite(factor));
        }
        if factor < 0.0 {
            return Err(TimeError::Negative(factor));
        }
        let nanos = (self.0 as f64 * factor).round();
        if nanos > u64::MAX as f64 {
            return Err(TimeError::OutOfRange(factor));
        }
        Ok(SimDuration(nanos as u64))
    }

    /// Ratio `self / other` as `f64`. Returns 0 when `other` is zero.
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

/// Shared conversion core: `f64` seconds → `u64` nanoseconds with full
/// validation, so a NaN or negative value can never slip through the
/// saturating `as` cast as a silent 0.
fn try_secs_to_nanos(secs: f64) -> Result<u64, TimeError> {
    if !secs.is_finite() {
        return Err(TimeError::NotFinite(secs));
    }
    if secs < 0.0 {
        return Err(TimeError::Negative(secs));
    }
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos > u64::MAX as f64 {
        return Err(TimeError::OutOfRange(secs));
    }
    Ok(nanos.round() as u64)
}

fn secs_to_nanos(secs: f64) -> u64 {
    match try_secs_to_nanos(secs) {
        Ok(n) => n,
        Err(e) => panic!("time from seconds: {e}"),
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime + SimDuration overflowed"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimDuration underflowed"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration + SimDuration overflowed"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration - SimDuration underflowed"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration * u64 overflowed"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "forever")
        } else if ns >= NANOS_PER_SEC {
            write!(f, "{:.3}s", ns as f64 / NANOS_PER_SEC as f64)
        } else if ns >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
        } else if ns >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(1).as_nanos(), NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(1).as_nanos(), NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
    }

    #[test]
    fn float_roundtrip_is_exact_at_ns_granularity() {
        let t = SimTime::from_secs_f64(1.234_567_891);
        assert_eq!(t.as_nanos(), 1_234_567_891);
        assert!((t.as_secs_f64() - 1.234_567_891).abs() < 1e-12);
    }

    #[test]
    fn instant_and_duration_arithmetic() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1.as_nanos(), 1_500 * NANOS_PER_MILLI);
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(500));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn negative_elapsed_panics() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn add_overflow_panics() {
        let _ = SimTime::MAX + SimDuration::from_nanos(1);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 4, SimDuration::from_millis(500));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
        assert!((d.ratio(SimDuration::from_secs(8)) - 0.25).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs(1).ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimDuration::MAX), "forever");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn try_from_secs_rejects_bad_values_with_typed_errors() {
        assert_eq!(
            SimDuration::try_from_secs_f64(-1.0),
            Err(TimeError::Negative(-1.0))
        );
        assert!(matches!(
            SimDuration::try_from_secs_f64(f64::NAN),
            Err(TimeError::NotFinite(_))
        ));
        assert_eq!(
            SimTime::try_from_secs_f64(f64::INFINITY),
            Err(TimeError::NotFinite(f64::INFINITY))
        );
        assert_eq!(
            SimTime::try_from_secs_f64(1e30),
            Err(TimeError::OutOfRange(1e30))
        );
        assert_eq!(
            SimTime::try_from_secs_f64(2.5),
            Ok(SimTime::from_millis(2_500))
        );
        assert_eq!(SimDuration::try_from_secs_f64(0.0), Ok(SimDuration::ZERO));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_panics_on_negative() {
        let _ = SimDuration::from_secs_f64(-0.5);
    }

    #[test]
    fn try_mul_f64_rejects_negative_and_nan_factors() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.try_mul_f64(-2.0), Err(TimeError::Negative(-2.0)));
        assert!(matches!(
            d.try_mul_f64(f64::NAN),
            Err(TimeError::NotFinite(_))
        ));
        assert_eq!(
            d.try_mul_f64(f64::INFINITY),
            Err(TimeError::NotFinite(f64::INFINITY))
        );
        assert_eq!(
            SimDuration::MAX.try_mul_f64(2.0),
            Err(TimeError::OutOfRange(2.0))
        );
        assert_eq!(d.try_mul_f64(0.5), Ok(SimDuration::from_millis(500)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_panics_on_negative_factor() {
        let _ = SimDuration::from_secs(1).mul_f64(-1.0);
    }

    #[test]
    fn mul_f64_is_exact_below_the_2p53_boundary() {
        // Identity scaling is bit-exact for any duration whose nanosecond
        // count fits the f64 mantissa (documented precision boundary).
        let just_below = SimDuration::from_nanos((1u64 << 53) - 1);
        assert_eq!(just_below.mul_f64(1.0), just_below);
        let errors = TimeError::NotFinite(f64::NAN).to_string();
        assert!(errors.contains("finite"));
    }
}
