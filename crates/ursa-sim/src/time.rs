//! Virtual time for the discrete-event simulator.
//!
//! Time is integer nanoseconds so that event ordering is exact and runs are
//! reproducible; all public APIs also accept/produce `f64` seconds for
//! convenience.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `ns.round() as u64` — half away from zero, saturating as `as u64` does
/// (NaN and negatives to 0) — without the libm call. Below 2^53 the
/// truncation and `ns - t` are exact; at and above it `ns` is an integer.
/// Branch-free: the fraction of a sampled gap is a coin flip, and a
/// branch on it mispredicts half the time.
#[inline]
fn round_nanos(ns: f64) -> u64 {
    let t = ns as u64;
    t.saturating_add((ns - t as f64 >= 0.5) as u64)
}

/// `ns.ceil().max(1.0) as u64` without the libm call: the next integer at
/// or above `ns`, at least 1 (so NaN and every `ns <= 1` give 1),
/// saturating at `u64::MAX`.
#[inline]
pub(crate) fn ceil_nanos(ns: f64) -> u64 {
    let t = ns as u64;
    if (t as f64) < ns {
        t.saturating_add(1)
    } else {
        t.max(1)
    }
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
        SimTime(round_nanos(secs * NANOS_PER_SEC as f64))
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
        SimDur(round_nanos(secs * NANOS_PER_SEC as f64))
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The integer helpers equal the libm expressions they replace, bit
    /// for bit, at `ns` and at its two neighbouring doubles.
    fn check_rounding(ns: f64) -> Result<(), TestCaseError> {
        let bits = ns.to_bits();
        for x in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)].map(f64::from_bits) {
            let (got, libm) = (round_nanos(x), x.round() as u64);
            prop_assert_eq!(got, libm, "round_nanos({x:e}) = {got}, libm {libm}");
            let (got, libm) = (ceil_nanos(x), x.ceil().max(1.0) as u64);
            prop_assert_eq!(got, libm, "ceil_nanos({x:e}) = {got}, libm {libm}");
        }
        Ok(())
    }

    #[test]
    fn integer_rounding_matches_libm_at_the_edges() {
        let p = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.0,
            p(52) - 0.5,
            p(52) + 0.5,
            p(53),
            p(63),
            p(64),
            p(65),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -1.5,
            -p(64),
            f64::NEG_INFINITY,
        ];
        edges.extend((0..1000).map(|k| k as f64 + 0.5));
        edges.extend((0..1000).map(|k| 1e9 + k as f64 + 0.5));
        for ns in edges {
            check_rounding(ns).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_rounding_matches_libm(bits in any::<u64>(), ns in 0.0f64..4.0e15) {
            check_rounding(f64::from_bits(bits))?;
            check_rounding(ns)?;
        }
    }

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
