//! Welch's t-test.
//!
//! Ursa uses Welch's unequal-variances t-test in two places (paper §III and
//! §V):
//!
//! 1. the **backpressure profiling engine** compares proxy latency samples
//!    under consecutive CPU limits and declares convergence when the test no
//!    longer rejects equality of means;
//! 2. the **resource controller** gates every scale-*in*: it shrinks a
//!    service only when the test concludes that the binding class's recent
//!    loads sit below the smaller allocation's capacity (scale-out is
//!    immediate).
//!
//! The p-value requires the Student-t CDF, which we evaluate through the
//! regularized incomplete beta function (continued fraction, Lentz's
//! algorithm) — implemented here so the workspace stays dependency-free.
//! The controller's one-sided test at 5 % needs it rarely:
//! [`welch_greater_at_5pct`] decides from the t statistic against a
//! critical-value bracket per integer degree of freedom, and evaluates the
//! p-value only for a t inside its bracket.

/// Outcome of a Welch's t-test comparing the means of two samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic (positive when the first sample's mean is larger).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value for the hypothesis `mean(a) == mean(b)`.
    pub p_two_sided: f64,
}

impl TTestResult {
    /// One-sided p-value for the alternative `mean(a) > mean(b)`.
    pub fn p_greater(&self) -> f64 {
        if self.t > 0.0 {
            0.5 * self.p_two_sided
        } else {
            1.0 - 0.5 * self.p_two_sided
        }
    }

    /// True if the two-sided test rejects equality at significance `alpha`.
    pub fn rejects_equality(&self, alpha: f64) -> bool {
        self.p_two_sided < alpha
    }

    /// True if the one-sided test concludes `mean(a) > mean(b)` at
    /// significance `alpha`.
    pub fn concludes_greater(&self, alpha: f64) -> bool {
        self.p_greater() < alpha
    }
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Runs Welch's t-test on two samples.
///
/// Returns `None` if either sample has fewer than two observations, or if
/// both samples have zero variance (the test is then degenerate; callers
/// should compare means directly).
///
/// # Example
///
/// ```
/// use ursa_stats::ttest::welch_t_test;
///
/// let a = [5.0, 5.1, 4.9, 5.2, 5.0];
/// let b = [9.0, 9.2, 8.9, 9.1, 9.0];
/// let r = welch_t_test(&b, &a).expect("valid samples");
/// assert!(r.rejects_equality(0.01)); // clearly different means
/// ```
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    let (t, df) = welch_statistic(a, b)?;
    Some(result(t, df))
}

/// `welch_t_test(a, b).map(|r| r.concludes_greater(0.05))`, bit for bit,
/// without the p-value wherever the t statistic alone decides: at or below
/// zero, and outside the critical-value bracket tabulated for the integer
/// part of the degrees of freedom. The p-value is evaluated only for a `t`
/// inside its bracket, or for degrees of freedom the table does not cover
/// (below 3 or from 15).
pub fn welch_greater_at_5pct(a: &[f64], b: &[f64]) -> Option<bool> {
    let (t, df) = welch_statistic(a, b)?;
    Some(greater_from_t(t, df).unwrap_or_else(|| result(t, df).concludes_greater(0.05)))
}

/// The one-sided 5 % decision at statistic `t` with `df` degrees of
/// freedom, where `t` alone makes it; `None` where it takes the p-value.
fn greater_from_t(t: f64, df: f64) -> Option<bool> {
    if t <= 0.0 {
        // The one-sided p-value is then at least one half.
        return Some(false);
    }
    let &(lo, hi) = CRITICAL_05.get((df as usize).wrapping_sub(CRITICAL_05_MIN_DF))?;
    if t > hi {
        Some(true)
    } else if t < lo {
        Some(false)
    } else {
        None
    }
}

/// The smallest degrees of freedom [`CRITICAL_05`] covers.
const CRITICAL_05_MIN_DF: usize = 3;

/// `(lo, hi)` for each integer `d` from [`CRITICAL_05_MIN_DF`]: for every
/// `df` in `[d, d + 1)`, `P(T_df > t)` is above 0.05 for `t < lo` and below
/// it for `t > hi`. `hi` is the one-sided 5 % critical value at `d` and `lo`
/// the one at `d + 1` (it falls as `df` grows), each rounded outwards to
/// 0.001 after a 1e-4 margin. `student_t_sf` misses 0.05 at either end by
/// at least 8e-6, nine orders of magnitude above its continued fraction's
/// 1e-14 tolerance. Welch's `df` for two samples of `k` lies in
/// `[k - 1, 2(k - 1)]`, so the table covers the controller's 4–8 windows.
const CRITICAL_05: [(f64, f64); 12] = [
    (2.131, 2.354),
    (2.014, 2.132),
    (1.943, 2.016),
    (1.894, 1.944),
    (1.859, 1.895),
    (1.833, 1.860),
    (1.812, 1.834),
    (1.795, 1.813),
    (1.782, 1.796),
    (1.770, 1.783),
    (1.761, 1.772),
    (1.752, 1.762),
];

/// A test's result at statistic `t` with `df` degrees of freedom.
fn result(t: f64, df: f64) -> TTestResult {
    let p_two_sided = 2.0 * student_t_sf(t.abs(), df);
    TTestResult { t, df, p_two_sided }
}

/// Welch's t statistic and Welch–Satterthwaite degrees of freedom, or
/// `None` where [`welch_t_test`] returns it.
fn welch_statistic(a: &[f64], b: &[f64]) -> Option<(f64, f64)> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, va) = mean_var(a);
    let (mb, vb) = mean_var(b);
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return None;
    }
    let t = (ma - mb) / se2.sqrt();
    let df_num = se2 * se2;
    let df_den = (va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0);
    let df = if df_den > 0.0 {
        df_num / df_den
    } else {
        na + nb - 2.0
    };
    Some((t, df))
}

/// Survival function of the Student-t distribution: `P(T > t)` for `t >= 0`.
///
/// # Panics
///
/// Panics if `df <= 0` or `t < 0`.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0 && t >= 0.0);
    // P(T > t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2)
    let x = df / (df + t * t);
    0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0");
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9_f64;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (core::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued-fraction evaluation (Numerical Recipes style) with the symmetry
/// transform for fast convergence.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x` outside `[0, 1]`.
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "a and b must be positive");
    assert!((0.0..=1.0).contains(&x), "x must be in [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::Rng;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - core::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_boundaries() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.0, 0.9)] {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "({a},{b},{x}): {lhs} vs {rhs}");
        }
    }

    #[test]
    fn incomplete_beta_uniform_case() {
        // I_x(1,1) = x
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((regularized_incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn student_t_sf_matches_tables() {
        // Classic table values: P(T > 2.228) = 0.025 for df = 10.
        let p = student_t_sf(2.228, 10.0);
        assert!((p - 0.025).abs() < 5e-4, "p {p}");
        // df = 1 (Cauchy): P(T > 1) = 0.25.
        let p = student_t_sf(1.0, 1.0);
        assert!((p - 0.25).abs() < 1e-6, "p {p}");
        // Large df -> normal: P(T > 1.96) ~ 0.025.
        let p = student_t_sf(1.96, 10_000.0);
        assert!((p - 0.025).abs() < 1e-3, "p {p}");
    }

    #[test]
    fn equal_means_rarely_rejected() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = Rng::seed_from(42);
        let mut rejections = 0;
        let trials = 400;
        for _ in 0..trials {
            let a: Vec<f64> = (0..30).map(|_| d.sample(&mut rng)).collect();
            let b: Vec<f64> = (0..30).map(|_| d.sample(&mut rng)).collect();
            if welch_t_test(&a, &b).unwrap().rejects_equality(0.05) {
                rejections += 1;
            }
        }
        // Expected false positive rate 5%; allow generous slack.
        let rate = rejections as f64 / trials as f64;
        assert!(rate < 0.12, "false positive rate {rate}");
    }

    #[test]
    fn different_means_detected() {
        let mut rng = Rng::seed_from(43);
        let d1 = Normal::new(10.0, 1.0);
        let d2 = Normal::new(12.0, 1.0);
        let a: Vec<f64> = (0..40).map(|_| d1.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..40).map(|_| d2.sample(&mut rng)).collect();
        let r = welch_t_test(&b, &a).unwrap();
        assert!(r.rejects_equality(0.001));
        assert!(r.concludes_greater(0.001));
        assert!(r.t > 0.0);
    }

    #[test]
    fn one_sided_direction() {
        let mut rng = Rng::seed_from(44);
        let d1 = Normal::new(10.0, 1.0);
        let d2 = Normal::new(12.0, 1.0);
        let a: Vec<f64> = (0..40).map(|_| d1.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..40).map(|_| d2.sample(&mut rng)).collect();
        // a < b, so "a greater than b" must NOT be concluded.
        let r = welch_t_test(&a, &b).unwrap();
        assert!(!r.concludes_greater(0.05));
        assert!(r.p_greater() > 0.5);
    }

    #[test]
    fn critical_brackets_hold_across_their_degrees_of_freedom() {
        let mut above = f64::INFINITY;
        for (i, &(lo, hi)) in CRITICAL_05.iter().enumerate() {
            assert!(lo < hi && hi < above, "brackets must fall with df");
            above = hi;
            let d = (i + CRITICAL_05_MIN_DF) as f64;
            // The survival function falls with t and, past t = 1, with df:
            // the ends of [d, d + 1] are the worst cases, the midpoint a
            // check on that claim.
            for df in [d, d + 0.5, d + 1.0] {
                let (p_lo, p_hi) = (student_t_sf(lo, df), student_t_sf(hi, df));
                assert!(p_lo > 0.05 + 5e-6, "df {df}: P(T > {lo}) = {p_lo}");
                assert!(p_hi < 0.05 - 5e-6, "df {df}: P(T > {hi}) = {p_hi}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[1.0, 1.0], &[2.0, 2.0]).is_none()); // zero variance both
        assert_eq!(welch_greater_at_5pct(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(welch_greater_at_5pct(&[2.0; 8], &[1.0; 8]), None);
    }

    /// The pseudo-sample the controller tests the binding class's `loads`
    /// against before scaling in: `capacity` with the loads' spread.
    fn at_capacity(loads: &[f64], capacity: f64) -> Vec<f64> {
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        loads.iter().map(|x| capacity + (x - mean)).collect()
    }

    /// Checks the bracketed decision against the p-value's and returns the
    /// branch that made it: `Some(true)` the t statistic alone,
    /// `Some(false)` the p-value, `None` a degenerate test.
    fn check_decision(a: &[f64], b: &[f64]) -> Result<Option<bool>, TestCaseError> {
        let got = welch_greater_at_5pct(a, b);
        let want = welch_t_test(a, b).map(|r| r.concludes_greater(0.05));
        prop_assert_eq!(got, want, "a {a:?}, b {b:?}");
        Ok(welch_statistic(a, b).map(|(t, df)| greater_from_t(t, df).is_some()))
    }

    /// `k` loads around `load`, each `load × (1 + spread × (u − ½))`.
    fn loads(units: &[f64], load: f64, spread: f64) -> Vec<f64> {
        units
            .iter()
            .map(|u| load * (1.0 + spread * (u - 0.5)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Scale-in-shaped samples over 4–8 windows, at any spread (down
        /// to none, a degenerate test) and any gap to capacity: far below
        /// the mean (t ≤ 0), close to it, and far above the spread, where
        /// the two samples' variances differ in floating point and df
        /// drifts off 2(k − 1).
        #[test]
        fn bracketed_decision_matches_the_p_value(
            units in proptest::collection::vec(0.0f64..1.0, 4..9),
            load in 1.0f64..1e4,
            spread_exp in -17.0f64..0.0,
            gap_exp in -17.0f64..12.0,
            below in any::<bool>(),
        ) {
            let b = loads(&units, load, 10f64.powf(spread_exp));
            let gap = load * 10f64.powf(gap_exp);
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            let capacity = if below { mean - gap } else { mean + gap };
            check_decision(&at_capacity(&b, capacity), &b)?;
        }

        /// Capacities swept across every bracket a test of these loads can
        /// fall into: the t statistic decides most of them, the p-value
        /// the rest, and both agree with the p-value everywhere.
        #[test]
        fn both_branches_decide_across_the_critical_region(
            units in proptest::collection::vec(0.0f64..1.0, 4..9),
            load in 1.0f64..1e4,
            spread_exp in -6.0f64..-0.3,
        ) {
            let b = loads(&units, load, 10f64.powf(spread_exp));
            let k = b.len() as f64;
            let mean = b.iter().sum::<f64>() / k;
            let sd = (b.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (k - 1.0)).sqrt();
            let (mut fast, mut exact) = (0, 0);
            for i in 0..=1000 {
                // t from −0.5 to 3.0, past both ends of every bracket.
                let t = -0.5 + 3.5 * f64::from(i) / 1000.0;
                let capacity = mean + t * sd * (2.0 / k).sqrt();
                match check_decision(&at_capacity(&b, capacity), &b)? {
                    Some(true) => fast += 1,
                    Some(false) => exact += 1,
                    None => {}
                }
            }
            prop_assert!(fast > 900 && exact > 0, "fast {fast}, exact {exact}");
        }
    }

    #[test]
    fn unequal_sizes_supported() {
        let mut rng = Rng::seed_from(45);
        let d = Normal::new(5.0, 1.0);
        let a: Vec<f64> = (0..10).map(|_| d.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..200).map(|_| d.sample(&mut rng)).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.df > 0.0 && r.p_two_sided > 0.0);
    }
}
