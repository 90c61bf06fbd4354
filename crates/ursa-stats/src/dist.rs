//! Sampling distributions for service times, arrivals, and noise.
//!
//! The simulator models microservice compute cost with heavy-tailed
//! distributions (log-normal, Pareto) because measured microservice service
//! times are heavy-tailed, and that tail is what makes p99 SLAs interesting.
//! Arrival processes use [`Exponential`] inter-arrival times (Poisson
//! process), matching the paper's Locust configuration (§VII-A).

use crate::rng::Rng;

/// A sampleable one-dimensional distribution.
///
/// Implementors must return finite values; service-time distributions must
/// additionally be non-negative (enforced by construction below).
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution mean, used for capacity planning heuristics.
    fn mean(&self) -> f64;
}

/// Degenerate distribution: always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// Uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is non-finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite() && low <= high);
        Uniform { low, high }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.low, self.high)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Inter-arrival times of a Poisson process with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be > 0");
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }

    /// The rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Normal (Gaussian) distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Normal { mu, sigma }
    }

    /// Draws a standard normal variate.
    pub fn standard_sample(rng: &mut Rng) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mu + self.sigma * Normal::standard_sample(rng)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
}

/// Log-normal distribution, parameterized by the *target* mean and the
/// coefficient of variation of the resulting samples.
///
/// Microservice service times are commonly modeled as log-normal; the
/// convenience constructor avoids callers having to invert the μ/σ
/// relationship by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    mu: f64,
    /// Std dev of the underlying normal.
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal whose samples have the given `mean` and
    /// coefficient of variation `cv` (= std/mean).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        LogNormal::new(mu, sigma2.sqrt())
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Used for the heaviest-tailed request classes (e.g. video transcoding,
/// whose cost depends on upload size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0);
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.x_min / rng.next_f64_open().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_nonnegative() {
        let d = Exponential::new(2.0);
        let mut rng = Rng::seed_from(2);
        assert!((0..10_000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        let mut rng = Rng::seed_from(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn lognormal_from_mean_cv() {
        let d = LogNormal::from_mean_cv(5.0, 1.0);
        assert!((d.mean() - 5.0).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 4);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn lognormal_positive() {
        let d = LogNormal::from_mean_cv(1.0, 2.0);
        let mut rng = Rng::seed_from(5);
        assert!((0..10_000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    fn pareto_tail_heavier_than_exponential() {
        let p = Pareto::new(1.0, 1.5);
        let e = Exponential::with_mean(p.mean());
        let mut rng = Rng::seed_from(6);
        let n = 100_000;
        let big_p = (0..n).filter(|_| p.sample(&mut rng) > 20.0).count();
        let big_e = (0..n).filter(|_| e.sample(&mut rng) > 20.0).count();
        assert!(big_p > big_e * 5, "pareto {big_p} vs exp {big_e}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 8.0);
        let mut rng = Rng::seed_from(11);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..8.0).contains(&x));
        }
        assert!((d.mean() - 5.0).abs() < 1e-12);
    }
}
