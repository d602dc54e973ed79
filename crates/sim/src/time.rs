//! Virtual time for the discrete-event simulator.
//!
//! Time is a `u64` count of **microseconds** since simulation start. All
//! protocol code sees only [`SimTime`] and [`SimDuration`]; wall-clock time
//! never enters the simulation, which is what makes runs replayable.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after this one, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0 as f64 / 1e6)
    }
}

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a span from fractional milliseconds, rounding to microseconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The sum of two spans, saturating at `u64::MAX` µs.
    pub const fn saturating_add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }

    /// Multiplies the span by an integer factor, saturating.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0 as f64 / 1e6)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(1500).as_millis(), 1);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert!((SimTime::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_micros(7);
        assert_eq!(t2.as_micros(), 7);
        assert_eq!(
            (SimDuration::from_millis(5) - SimDuration::from_millis(7)).as_micros(),
            0,
            "subtraction saturates"
        );
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(9);
        assert_eq!(b.duration_since(a).as_millis(), 4);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_millis_f64_clamps() {
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_micros(u64::MAX).saturating_add(SimDuration::from_micros(1)),
            SimDuration::from_micros(u64::MAX)
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000).saturating_mul(u64::MAX),
            SimDuration::from_micros(u64::MAX)
        );
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }
}
