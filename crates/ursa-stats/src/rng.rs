//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately avoids external RNG crates and global RNG
//! state: all randomness is owned by explicit [`Rng`] values seeded by the
//! caller, which makes every simulation and experiment reproducible.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded from a single
//! `u64` via SplitMix64 — the construction recommended by the xoshiro
//! authors. It is not cryptographically secure; it is fast, has a period of
//! 2^256 − 1, and passes BigCrush.

/// A deterministic pseudo-random number generator (xoshiro256\*\*).
///
/// # Example
///
/// ```
/// use ursa_stats::rng::Rng;
///
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators built from the same seed produce identical streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { state }
    }

    /// Derives an independent child generator.
    ///
    /// Used to hand each simulation component (per-service noise, workload
    /// arrivals, ML initialization, ...) its own stream so that adding a
    /// consumer of randomness in one component does not perturb the others.
    pub fn split(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling yields [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the open interval `(0, 1]`.
    ///
    /// Useful for `ln(u)` transforms where `u == 0` would produce `-inf`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns a uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is non-finite.
    #[inline]
    pub fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(low.is_finite() && high.is_finite() && low <= high);
        low + (high - low) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "choose_weighted requires weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

impl Default for Rng {
    /// Equivalent to `Rng::seed_from(0)`; deterministic like everything else.
    fn default() -> Self {
        Rng::seed_from(0)
    }
}

/// Number of `u64` draws a [`BlockRng`] buffers per refill.
pub const RNG_BLOCK: usize = 64;

/// A [`Rng`] wrapper that draws `u64`s in refillable blocks.
///
/// Consumers that draw one value per event (e.g. a simulator's Poisson
/// arrival sources) pay the full xoshiro state-update dependency chain on
/// every draw. `BlockRng` amortizes that: a refill runs [`RNG_BLOCK`]
/// state updates back to back (a tight, branch-predictable loop the CPU
/// can pipeline), and the per-draw path is a buffer load plus a cursor
/// bump.
///
/// The buffered values are handed out **in exactly the order the wrapped
/// `Rng` produced them**, so any sequence of `next_u64`/`next_f64`/
/// `next_f64_open` calls observes the same stream as calling the wrapped
/// [`Rng`] directly — blocking is invisible to the output. (Values still
/// buffered when the consumer stops are simply never observed.)
#[derive(Debug, Clone)]
pub struct BlockRng {
    rng: Rng,
    buf: [u64; RNG_BLOCK],
    pos: usize,
}

impl BlockRng {
    pub fn new(rng: Rng) -> Self {
        BlockRng {
            rng,
            buf: [0; RNG_BLOCK],
            pos: RNG_BLOCK,
        }
    }

    #[cold]
    fn refill(&mut self) {
        for v in self.buf.iter_mut() {
            *v = self.rng.next_u64();
        }
        self.pos = 0;
    }

    /// Same stream as [`Rng::next_u64`] on the wrapped generator.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.pos == RNG_BLOCK {
            self.refill();
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Same value stream as [`Rng::next_f64`]: uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Same value stream as [`Rng::next_f64_open`]: uniform in `(0, 1]`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rng_matches_plain_stream() {
        let mut plain = Rng::seed_from(0xB10C);
        let mut block = BlockRng::new(Rng::seed_from(0xB10C));
        // Cross a few refill boundaries with a mix of draw kinds; every
        // call must observe the identical underlying stream.
        for i in 0..(3 * RNG_BLOCK + 17) {
            match i % 3 {
                0 => assert_eq!(block.next_u64(), plain.next_u64()),
                1 => assert_eq!(block.next_f64().to_bits(), plain.next_f64().to_bits()),
                _ => assert_eq!(
                    block.next_f64_open().to_bits(),
                    plain.next_f64_open().to_bits()
                ),
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut rng = Rng::seed_from(4);
        for _ in 0..10_000 {
            assert!(rng.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Rng::seed_from(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_bounded_and_covers() {
        let mut rng = Rng::seed_from(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        Rng::seed_from(0).next_below(0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_usage() {
        let mut parent = Rng::seed_from(5);
        let mut child = parent.split();
        let first = child.next_u64();
        // Re-derive: same parent seed, same split point -> same child.
        let mut parent2 = Rng::seed_from(5);
        let mut child2 = parent2.split();
        assert_eq!(first, child2.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Rng::seed_from(31);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn range_f64_bounds() {
        let mut rng = Rng::seed_from(41);
        for _ in 0..1000 {
            let x = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(51);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
