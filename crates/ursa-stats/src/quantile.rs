//! Quantile estimation over latency samples.
//!
//! Ursa's performance model is built entirely on latency *distributions*
//! discretized at a handful of percentiles (paper §IV), so the telemetry
//! layer needs cheap, windowed quantile queries. We keep exact samples in
//! bounded windows: evaluation-scale runs produce at most a few hundred
//! thousand samples per window, where exact quantiles are affordable and
//! remove approximation error from the reproduction.

use crate::round::{ceil_usize, floor_usize};

/// Returns the `p`-th percentile (0–100) of an ascending-sorted slice using
/// nearest-rank interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// use ursa_stats::quantile::percentile_of_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_of_sorted(&xs, 0.0), 1.0);
/// assert_eq!(percentile_of_sorted(&xs, 100.0), 4.0);
/// assert_eq!(percentile_of_sorted(&xs, 50.0), 2.5);
/// ```
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = floor_usize(rank);
    let hi = ceil_usize(rank);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A bounded sliding window of samples supporting exact quantile queries.
///
/// When the window is full, the oldest sample is evicted (ring buffer), so
/// queries always reflect the most recent `capacity` observations — matching
/// how Prometheus-style telemetry windows behave in the paper's setup.
///
/// The window answers no query itself: the simulator reads it once per
/// harvest, through [`drain`](Self::drain), and asks the drained samples;
/// [`sorted`](Self::sorted) sorts a fresh copy, which a caller that queries
/// repeatedly keeps.
#[derive(Debug, Clone)]
pub struct QuantileWindow {
    /// The retained samples. Until the ring is full they are pushed, in
    /// arrival order, into capacity reserved up front and never zeroed, so
    /// a window touches only the memory its samples use.
    buf: Vec<f64>,
    cap: usize,
    /// Oldest sample once the ring is full; 0 until then.
    head: usize,
    total_count: u64,
    /// `total_count` at the last [`clear`](Self::clear).
    cleared_at: u64,
}

impl QuantileWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        QuantileWindow {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            total_count: 0,
            cleared_at: 0,
        }
    }

    /// Records a sample, evicting the oldest if full.
    ///
    /// Hot path of the simulator's telemetry plane — branches instead of
    /// `%` (an integer division) for the ring wrap-around.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.total_count += 1;
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no samples have been recorded (or all evicted — impossible).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total samples ever recorded (including evicted ones).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Samples recorded since the last [`clear`](Self::clear) (or since
    /// creation) that the window no longer holds: the ring evicted them.
    pub fn evicted(&self) -> u64 {
        self.total_count - self.cleared_at - self.buf.len() as u64
    }

    /// Removes all samples but keeps the capacity and total count.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.cleared_at = self.total_count;
    }

    /// Copies the current window contents in arrival order (oldest first):
    /// the ring's two contiguous runs, the second empty unless it wrapped.
    fn to_vec(&self) -> Vec<f64> {
        let (newest, oldest) = self.buf.split_at(self.head);
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(oldest);
        out.extend_from_slice(newest);
        out
    }

    /// Copies the window out in arrival order and [`clear`](Self::clear)s
    /// it — what a telemetry harvest does to every window.
    pub fn drain(&mut self) -> Vec<f64> {
        let out = self.to_vec();
        self.clear();
        out
    }

    /// Returns the current window contents in ascending order
    /// ([`f64::total_cmp`], so a NaN sorts last instead of panicking).
    pub fn sorted(&self) -> Vec<f64> {
        let mut out = self.to_vec();
        out.sort_unstable_by(f64::total_cmp);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_edges() {
        let xs = [3.0];
        assert_eq!(percentile_of_sorted(&xs, 0.0), 3.0);
        assert_eq!(percentile_of_sorted(&xs, 99.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile_of_sorted(&xs, 50.0), 5.0);
        assert_eq!(percentile_of_sorted(&xs, 25.0), 2.5);
    }

    /// The formula `percentile_of_sorted` computed with libm's floor and
    /// ceil.
    fn percentile_libm(sorted: &[f64], p: f64) -> f64 {
        if sorted.len() == 1 {
            return sorted[0];
        }
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Bit for bit the libm formula, at both ends, at every p whose
        /// rank is an integer, and at a random p.
        #[test]
        fn percentile_matches_the_libm_formula(
            xs in proptest::collection::vec(0.0f64..10.0, 1..200),
            p in 0.0f64..100.0,
        ) {
            let mut xs = xs.clone();
            xs.sort_by(f64::total_cmp);
            let last = (xs.len() - 1).max(1) as f64;
            let integral = (0..xs.len()).map(|k| 100.0 * k as f64 / last);
            for p in [0.0, 100.0, p].into_iter().chain(integral.filter(|p| *p <= 100.0)) {
                let (got, libm) = (percentile_of_sorted(&xs, p), percentile_libm(&xs, p));
                prop_assert_eq!(got.to_bits(), libm.to_bits(), "p {p}: {got} vs {libm}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_of_sorted(&[], 50.0);
    }

    #[test]
    fn window_eviction_keeps_latest() {
        let mut w = QuantileWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.record(v);
        }
        assert_eq!(w.sorted(), vec![3.0, 4.0, 5.0]);
        assert_eq!(w.total_count(), 5);
        assert_eq!(w.len(), 3);
        assert_eq!(w.evicted(), 2);
        w.clear();
        w.record(6.0);
        assert_eq!(w.evicted(), 0, "clear restarts the eviction count");
    }

    #[test]
    fn copies_keep_arrival_order_across_the_wrap() {
        let mut w = QuantileWindow::new(4);
        for v in [9.0, 1.0, 8.0] {
            w.record(v);
        }
        assert_eq!(w.to_vec(), vec![9.0, 1.0, 8.0], "not yet wrapped");
        for v in [2.0, 7.0, 3.0] {
            w.record(v);
        }
        assert_eq!(
            w.to_vec(),
            vec![8.0, 2.0, 7.0, 3.0],
            "wrapped, head mid-ring"
        );
        assert_eq!(w.drain(), vec![8.0, 2.0, 7.0, 3.0]);
        assert!(w.is_empty());
        assert_eq!(w.total_count(), 6, "drain keeps the lifetime count");
        assert_eq!(w.drain(), Vec::<f64>::new());
        w.record(5.0);
        assert_eq!(w.to_vec(), vec![5.0]);
    }

    /// A new window reserves its capacity but writes none of it: the ring
    /// fills by `push`, so memory a window never uses is never touched.
    #[test]
    fn new_window_reserves_without_filling() {
        let w = QuantileWindow::new(1024);
        assert!(w.buf.is_empty() && w.buf.capacity() >= 1024);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `VecDeque` that drops its front when over capacity:
        /// records, drains and clones (a clone's `Vec` keeps only its
        /// length, not the reserved capacity) in any order keep the same
        /// samples in the same order, and the same counts.
        #[test]
        fn window_matches_a_deque_reference(
            capacity in 1usize..12,
            ops in proptest::collection::vec(0u8..8, 0..120),
        ) {
            let mut w = QuantileWindow::new(capacity);
            let mut reference = std::collections::VecDeque::new();
            let (mut total, mut evicted) = (0u64, 0u64);
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        prop_assert_eq!(w.drain(), Vec::from(reference.clone()));
                        reference.clear();
                        evicted = 0;
                    }
                    1 => w = w.clone(),
                    _ => {
                        w.record(i as f64);
                        reference.push_back(i as f64);
                        total += 1;
                        if reference.len() > capacity {
                            reference.pop_front();
                            evicted += 1;
                        }
                    }
                }
                prop_assert_eq!(w.to_vec(), Vec::from(reference.clone()));
                prop_assert_eq!(
                    (w.len(), w.total_count(), w.evicted()),
                    (reference.len(), total, evicted)
                );
            }
        }
    }

    #[test]
    fn window_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantileWindow>();
    }

    #[test]
    fn window_clear_resets_samples_not_count() {
        let mut w = QuantileWindow::new(4);
        w.record(1.0);
        w.record(2.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.total_count(), 2);
        assert_eq!(w.sorted(), Vec::<f64>::new());
        w.record(7.0);
        assert_eq!(w.sorted(), vec![7.0]);
    }

    #[test]
    fn queries_see_record_and_clear() {
        let mut w = QuantileWindow::new(8);
        w.record(1.0);
        w.record(3.0);
        assert_eq!(w.sorted(), vec![1.0, 3.0]);
        w.record(9.0);
        assert_eq!(w.sorted(), vec![1.0, 3.0, 9.0]); // must see the new max
        w.clear();
        assert!(w.sorted().is_empty());
        w.record(5.0);
        assert_eq!(w.sorted(), vec![5.0]);
    }

    #[test]
    fn queries_see_eviction() {
        let mut w = QuantileWindow::new(3);
        for v in [10.0, 20.0, 30.0] {
            w.record(v);
        }
        assert_eq!(w.sorted(), vec![10.0, 20.0, 30.0]);
        w.record(40.0); // evicts 10.0
        assert_eq!(w.sorted(), vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn clone_preserves_window_state() {
        let mut w = QuantileWindow::new(4);
        for v in [4.0, 1.0, 3.0] {
            w.record(v);
        }
        let mut c = w.clone();
        assert_eq!(c.sorted(), vec![1.0, 3.0, 4.0]);
        c.record(2.0);
        assert_eq!(c.sorted(), vec![1.0, 2.0, 3.0, 4.0]);
        // The original is unaffected by the clone's mutation.
        assert_eq!(w.len(), 3);
        assert_eq!(w.sorted(), vec![1.0, 3.0, 4.0]);
    }
}
