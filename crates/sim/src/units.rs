//! Bandwidth and data-size units.
//!
//! The simulators move *bits* around; humans and the paper speak in Mbps and
//! gigabytes. [`Rate`] and [`ByteSize`] are thin newtypes that keep the
//! conversions in one audited place (the custody-cache feasibility numbers in
//! §3.3 of the paper — "a 10GB cache after a 40Gbps link can hold incoming
//! traffic for 2 seconds" — are exactly one division in these units).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// Bits-per-second bandwidth, stored as `f64` for fluid-model arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero bandwidth.
    pub const ZERO: Rate = Rate(0.0);

    /// From raw bits per second.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn bps(bits_per_sec: f64) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec >= 0.0,
            "rate must be finite and non-negative, got {bits_per_sec}"
        );
        Rate(bits_per_sec)
    }

    /// Megabits per second (10⁶).
    #[inline]
    pub fn mbps(v: f64) -> Self {
        Rate::bps(v * 1e6)
    }

    /// Gigabits per second (10⁹).
    #[inline]
    pub fn gbps(v: f64) -> Self {
        Rate::bps(v * 1e9)
    }

    /// Raw bits per second.
    #[inline]
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// In megabits per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Bits transferred in `d` at this rate.
    #[inline]
    pub fn bits_in(self, d: SimDuration) -> f64 {
        self.0 * d.as_secs_f64()
    }

    /// Time to transfer `bits` at this rate ([`SimDuration::MAX`] if the
    /// rate is zero).
    #[inline]
    pub fn time_to_send(self, bits: f64) -> SimDuration {
        assert!(bits >= 0.0, "cannot send negative bits");
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bits / self.0)
    }

    /// True when zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Smaller of the two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Larger of the two rates.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// `self - other`, floored at zero (fluid models never go negative).
    #[inline]
    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate((self.0 - other.0).max(0.0))
    }

    /// Fraction `self / other` in `[0, inf)`; 0 when `other` is zero.
    #[inline]
    pub fn fraction_of(self, other: Rate) -> f64 {
        if other.0 <= 0.0 {
            0.0
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        let v = self.0 - rhs.0;
        assert!(v >= -1e-6, "rate went negative: {} - {}", self.0, rhs.0);
        Rate(v.max(0.0))
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate::bps(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        Rate::bps(self.0 / rhs)
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1e9 {
            write!(f, "{:.2}Gbps", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2}Mbps", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2}Kbps", b / 1e3)
        } else {
            write!(f, "{b:.0}bps")
        }
    }
}

/// A count of bytes (storage, chunk sizes, cache budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From raw bytes.
    #[inline]
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Kilobytes (10³ bytes).
    #[inline]
    pub const fn kb(v: u64) -> Self {
        ByteSize(v * 1_000)
    }

    /// Megabytes (10⁶ bytes).
    #[inline]
    pub const fn mb(v: u64) -> Self {
        ByteSize(v * 1_000_000)
    }

    /// Gigabytes (10⁹ bytes).
    #[inline]
    pub const fn gb(v: u64) -> Self {
        ByteSize(v * 1_000_000_000)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// As bits.
    #[inline]
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }

    /// Time a link at `rate` needs to transfer this much data.
    #[inline]
    pub fn transfer_time(self, rate: Rate) -> SimDuration {
        rate.time_to_send(self.as_bits() as f64)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: ByteSize) -> Option<ByteSize> {
        self.0.checked_add(other.0).map(ByteSize)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("ByteSize overflow"))
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("ByteSize underflow"))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000_000 {
            write!(f, "{:.2}GB", b as f64 / 1e9)
        } else if b >= 1_000_000 {
            write!(f, "{:.2}MB", b as f64 / 1e6)
        } else if b >= 1_000 {
            write!(f, "{:.2}KB", b as f64 / 1e3)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Convenience: bits for a byte count (u64 → f64 fluid domain).
#[inline]
pub fn bits(bytes: u64) -> f64 {
    (bytes * 8) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_conversions() {
        assert_eq!(Rate::mbps(10.0).as_bps(), 10e6);
        assert_eq!(Rate::gbps(40.0).as_mbps(), 40_000.0);
    }

    #[test]
    fn rate_arithmetic() {
        let a = Rate::mbps(10.0);
        let b = Rate::mbps(4.0);
        assert_eq!((a + b).as_mbps(), 14.0);
        assert_eq!((a - b).as_mbps(), 6.0);
        assert_eq!((a * 0.5).as_mbps(), 5.0);
        assert_eq!((a / 2.0).as_mbps(), 5.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Rate::ZERO);
        assert!((b.fraction_of(a) - 0.4).abs() < 1e-12);
        assert_eq!(a.fraction_of(Rate::ZERO), 0.0);
        let total: Rate = [a, b, b].into_iter().sum();
        assert_eq!(total.as_mbps(), 18.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_rejected() {
        let _ = Rate::bps(-1.0);
    }

    #[test]
    fn transfer_times() {
        // Paper §3.3: 10GB cache behind a 40Gbps link holds ~2s of traffic.
        let t = ByteSize::gb(10).transfer_time(Rate::gbps(40.0));
        assert_eq!(t, SimDuration::from_secs(2));
        assert_eq!(Rate::ZERO.time_to_send(100.0), SimDuration::MAX);
        let t = Rate::mbps(8.0).time_to_send(bits(1_000_000));
        assert_eq!(t, SimDuration::from_secs(1));
    }

    #[test]
    fn rate_bits_in_window() {
        let got = Rate::mbps(10.0).bits_in(SimDuration::from_millis(500));
        assert!((got - 5e6).abs() < 1.0);
    }

    #[test]
    fn bytesize_arithmetic_and_display() {
        let a = ByteSize::mb(2);
        let b = ByteSize::kb(500);
        assert_eq!((a + b).as_bytes(), 2_500_000);
        assert_eq!((a - b).as_bytes(), 1_500_000);
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a.as_bits(), 16_000_000);
        assert_eq!(format!("{}", ByteSize::gb(10)), "10.00GB");
        assert_eq!(format!("{}", ByteSize::bytes(12)), "12B");
        assert_eq!(format!("{}", Rate::gbps(40.0)), "40.00Gbps");
        assert_eq!(format!("{}", Rate::bps(512.0)), "512bps");
        let total: ByteSize = [a, b].into_iter().sum();
        assert_eq!(total.as_bytes(), 2_500_000);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn bytesize_underflow_panics() {
        let _ = ByteSize::kb(1) - ByteSize::kb(2);
    }
}
