//! Virtual time for the discrete-event simulator.
//!
//! Time is integer nanoseconds so that event ordering is exact and runs are
//! reproducible; all public APIs also accept/produce `f64` seconds for
//! convenience.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use ursa_stats::round::{ceil_u64, round_u64};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `ns.ceil().max(1.0) as u64` without the libm call: the next integer at
/// or above `ns`, at least 1 (so NaN and every `ns <= 1` give 1),
/// saturating at `u64::MAX`.
#[inline]
pub(crate) fn ceil_nanos(ns: f64) -> u64 {
    ceil_u64(ns).max(1)
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid time {secs}");
        SimTime(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Span since an earlier instant; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The zero-length span.
    pub const ZERO: SimDur = SimDur(0);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Creates a span from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration {secs}");
        SimDur(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDur(secs * NANOS_PER_SEC)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDur(mins * 60 * NANOS_PER_SEC)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Multiplies the span by an integer factor.
    pub const fn times(self, k: u64) -> SimDur {
        SimDur(self.0 * k)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        self.since(rhs)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(2.0) + SimDur::from_millis(500);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
        let d = t - SimTime::from_secs_f64(1.0);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(a.since(b), SimDur::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDur::from_secs(60), SimDur::from_mins(1));
        assert_eq!(SimDur::from_millis(1000), SimDur::from_secs(1));
        assert_eq!(SimDur::from_secs(2).times(3), SimDur::from_secs(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
        assert_eq!(format!("{}", SimDur::from_millis(10)), "0.010s");
    }
}
