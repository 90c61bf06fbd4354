//! Deterministic statistics substrate for the Ursa reproduction.
//!
//! Every stochastic component in this workspace — the discrete-event
//! simulator, the workload generators, the ML baselines — draws randomness
//! through this crate so that experiments are reproducible bit-for-bit from
//! an explicit seed. The crate provides:
//!
//! * [`rng`] — a deterministic, splittable pseudo-random number generator
//!   (xoshiro256\*\* seeded via SplitMix64), with no global state;
//! * [`dist`] — sampling distributions (constant, uniform, exponential,
//!   normal, log-normal, Pareto) used for service times and arrivals;
//! * [`ttest`] — Welch's t-test, the hypothesis test Ursa uses both in the
//!   backpressure profiling engine (§III of the paper) and in the resource
//!   controller's threshold check (§V);
//! * [`quantile`] — the bounded sample window telemetry records into, and
//!   the exact percentile of a sorted slice;
//! * [`round`] — floor, ceil and round to an unsigned integer without libm.
//!
//! # Example
//!
//! ```
//! use ursa_stats::rng::Rng;
//! use ursa_stats::dist::{Distribution, Exponential};
//!
//! let mut rng = Rng::seed_from(42);
//! let exp = Exponential::new(1.0 / 5.0); // mean 5
//! let x = exp.sample(&mut rng);
//! assert!(x >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod quantile;
pub mod rng;
pub mod round;
pub mod ttest;

pub use dist::Distribution;
pub use quantile::{percentile_of_sorted, QuantileWindow};
pub use rng::Rng;
pub use ttest::{welch_t_test, TTestResult};
