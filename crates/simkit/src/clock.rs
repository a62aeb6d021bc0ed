//! Simulated time.
//!
//! All device models in this workspace express operation costs in
//! microseconds of *simulated* time, as a [`Duration`]. There is no clock:
//! each operation *returns* its cost, and the replay harness sums those
//! costs into a run's simulated time. That keeps the timing model
//! composable (a cache manager can, for example, overlap a disk write and a
//! flash write by charging only the maximum of the two costs).
//!
//! [`Duration`] is a thin wrapper over a `u64` microsecond count, so that
//! unit conversions are spelled out at the call site.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored with microsecond resolution.
///
/// # Examples
///
/// ```
/// use simkit::Duration;
///
/// let d = Duration::from_micros(1_500);
/// assert_eq!(d.as_micros(), 1_500);
/// assert_eq!(d.as_millis_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Returns the span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `true` if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs(3).as_micros(), 3_000_000);
        assert!((Duration::from_micros(1_500).as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((Duration::from_micros(2_500_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(100);
        let b = Duration::from_micros(40);
        assert_eq!((a + b).as_micros(), 140);
        assert_eq!((a - b).as_micros(), 60);
        assert_eq!((a * 3).as_micros(), 300);
        assert_eq!((a / 4).as_micros(), 25);
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        let total: Duration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_micros(), 180);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }
}
