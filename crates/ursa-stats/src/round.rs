//! Integer rounding of `f64` without libm.
//!
//! `x.floor()`, `x.ceil()` and `x.round()` are out-of-line libm calls on
//! the targets this workspace builds for; the percentile, replica-count and
//! simulated-time conversions only ever want the rounded value as an
//! unsigned integer. An `as` cast truncates toward zero and saturates (NaN
//! and negatives to 0, too-large values to the maximum), which is already
//! the floor of every value the cast does not saturate. Each helper here
//! equals the libm expression in its doc, bit for bit, for every `f64`.
//! Below 2^53 the truncation and the difference `x - t` are exact; at and
//! above it every `f64` is an integer.

/// `x.floor() as usize`: truncation is the floor of a non-negative `x`, and
/// both saturate the same way everywhere else.
#[inline]
pub fn floor_usize(x: f64) -> usize {
    x as usize
}

/// `x.ceil() as usize`: the next integer at or above `x`, saturating at
/// `usize::MAX` (so never overflowing on the `+ 1`).
#[inline]
pub fn ceil_usize(x: f64) -> usize {
    let t = x as usize;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// `x.ceil() as u64`: [`ceil_usize`] at 64 bits on every target.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// `x.round() as u64`: half away from zero. Branch-free: the fraction of a
/// sampled gap is a coin flip, and a branch on it mispredicts half the
/// time.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Every helper equals the libm expression it replaces, bit for bit,
    /// at `x` and at its two neighbouring doubles.
    fn check_rounding(x: f64) -> Result<(), TestCaseError> {
        let bits = x.to_bits();
        for x in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)].map(f64::from_bits) {
            let (got, libm) = (floor_usize(x), x.floor() as usize);
            prop_assert_eq!(got, libm, "floor_usize({x:e}) = {got}, libm {libm}");
            let (got, libm) = (ceil_usize(x), x.ceil() as usize);
            prop_assert_eq!(got, libm, "ceil_usize({x:e}) = {got}, libm {libm}");
            let (got, libm) = (ceil_u64(x), x.ceil() as u64);
            prop_assert_eq!(got, libm, "ceil_u64({x:e}) = {got}, libm {libm}");
            // What the simulator's next-completion time asks of it.
            let (got, libm) = (ceil_u64(x).max(1), x.ceil().max(1.0) as u64);
            prop_assert_eq!(got, libm, "ceil_u64({x:e}).max(1) = {got}, libm {libm}");
            let (got, libm) = (round_u64(x), x.round() as u64);
            prop_assert_eq!(got, libm, "round_u64({x:e}) = {got}, libm {libm}");
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
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.0,
            p(52) - 0.5,
            p(52) + 0.5,
            p(53) - 0.5,
            p(53) + 0.5,
            p(53),
            p(63),
            p(64),
            p(65),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::from_bits(1),
            -0.5,
            -1.5,
            -p(64),
            f64::MIN,
            f64::NEG_INFINITY,
        ];
        edges.extend((0..1000).map(|k| k as f64));
        edges.extend((0..1000).map(|k| k as f64 + 0.5));
        edges.extend((0..1000).map(|k| 1e9 + k as f64 + 0.5));
        for x in edges {
            check_rounding(x).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_rounding_matches_libm(bits in any::<u64>(), x in 0.0f64..4.0e15) {
            check_rounding(f64::from_bits(bits))?;
            check_rounding(x)?;
        }
    }
}
