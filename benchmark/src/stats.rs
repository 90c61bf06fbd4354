//! Order statistics used for every reported timing.

/// Sorts a copy of `xs` ascending. Timings are finite, so `total_cmp`
/// ordering is the numeric one.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method, including its extrapolation on
/// very small samples), so spreads computed here equal the ones the
/// acceptance check computes. A single sample is its own three quartiles;
/// an empty one gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    match xs.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (xs[0], xs[0], xs[0]),
        _ => {}
    }
    let s = sorted(xs);
    let len = s.len() as i64;
    let q = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The `p`-th percentile (0–100) of `xs`, linear between closest ranks
/// (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    ursa_stats::percentile_of_sorted(&sorted(xs), p)
}

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0];

/// The highest percentile of the ladder, not above `cap`, that still has
/// at least ten of `n` samples beyond it; `None` when even the median has
/// fewer (n < 20), in which case only the maximum is worth reporting.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && (n as f64) * (100.0 - p) / 100.0 >= 10.0)
}

/// `(percentile used, value)` for the tail of `xs` under
/// [`tail_percentile`]; falls back to `(100, max)` on small samples.
pub fn tail(xs: &[f64], cap: f64) -> (f64, f64) {
    match tail_percentile(xs.len(), cap) {
        Some(p) => (p, percentile(xs, p)),
        None => (100.0, xs.iter().copied().fold(0.0, f64::max)),
    }
}
