//! Exact multiple-choice MIP solver for Ursa's SLA-to-resource mapping.
//!
//! The paper (§IV) formulates resource allocation as a mixed-integer
//! program: pick one load-per-replica (LPR) threshold per service and one
//! percentile per (service, class) such that, for every request class, the
//! sum of per-service latencies bounds the end-to-end SLA (Theorem 1) while
//! total resource cost is minimized. The authors solve it with Gurobi; this
//! crate replaces Gurobi with an exact solver that exploits the model's
//! multiple-choice structure (see [`solve()`]):
//!
//! * branch-and-bound over the per-service LPR choices (the δ variables),
//! * with each class's percentile assignment (the γ variables) solved
//!   exactly by dynamic programming over the percentile-residual budget —
//!   for a class with a small option space, once per assignment when a
//!   [`Solver`] is prepared, so that re-solving at a new load looks the
//!   class's verdicts and choices up,
//! * seeded by a greedy descent incumbent.
//!
//! Solutions are proved optimal for evaluation-scale instances (tens of
//! services × ~10 LPR options × several classes) and are cross-validated
//! against brute-force enumeration in the test suite.
//!
//! # Example
//!
//! ```
//! use ursa_mip::{LatencyMatrix, MipModel, ServiceModel, SlaConstraint, solve};
//!
//! // One service, two LPR options: 4 cores (fast) or 2 cores (slower).
//! let model = MipModel {
//!     percentiles: vec![99.0, 99.9],
//!     services: vec![ServiceModel {
//!         name: "api".into(),
//!         resource: vec![4.0, 2.0],
//!         latency: vec![Some(LatencyMatrix::new(
//!             2,
//!             2,
//!             vec![0.010, 0.020, 0.030, 0.060],
//!         ))],
//!     }],
//!     constraints: vec![SlaConstraint { class: 0, percentile: 99.0, target: 0.050 }],
//! };
//! let solution = solve(&model)?;
//! assert_eq!(solution.lpr_choice, vec![1]); // 2 cores meet the 50 ms SLA
//! assert_eq!(solution.objective, 2.0);
//! # Ok::<(), ursa_mip::ModelError>(())
//! ```

#![forbid(unsafe_code)]

pub mod dp;
pub mod model;
pub mod solve;

pub use model::{LatencyMatrix, MipModel, ModelError, ServiceModel, SlaConstraint};
pub use solve::{solve, solve_brute_force, solve_greedy, Solution, Solver};
