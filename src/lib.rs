//! # Ursa — lightweight resource management for cloud-native microservices
//!
//! A from-scratch Rust reproduction of *"Ursa: Lightweight Resource
//! Management for Cloud-Native Microservices"* (HPCA 2024): the analytical
//! SLA-decomposition autoscaler, every substrate it depends on, the ML
//! baselines it is compared against, and a benchmark harness regenerating
//! every table and figure of the paper's evaluation.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`stats`] | `ursa-stats` | deterministic RNG, distributions, Welch's t-test, quantiles |
//! | [`metrics`] | `ursa-metrics` | columnar time-series store, series digests, HTML page template and dashboard |
//! | [`sim`] | `ursa-sim` | discrete-event microservice simulator, its tracing plane, control-plane traits |
//! | [`apps`] | `ursa-apps` | the §VI benchmark applications and §III study chains |
//! | [`mip`] | `ursa-mip` | the exact multiple-choice MIP solver (Gurobi stand-in) |
//! | [`ml`] | `ursa-ml` | MLP / boosted trees / DQN for the baselines |
//! | [`core`] | `ursa-core` | Ursa itself: profiling, exploration, optimizer, controller |
//! | [`baselines`] | `ursa-baselines` | Sinan-style, Firm-style, Auto-a/b managers |
//! | [`trace`] | `ursa-trace` | critical-path analysis, blame, Chrome trace exporter |
//!
//! # Quickstart
//!
//! ```no_run
//! use ursa::apps::social_network;
//! use ursa::core::manager::{Ursa, UrsaConfig};
//! use ursa::sim::prelude::*;
//!
//! // 1. Pick an application and its SLAs (paper Table II).
//! let app = social_network(true);
//! let sum: f64 = app.mix.iter().sum();
//! let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();
//!
//! // 2. Offline: profile backpressure thresholds, explore LPRs, solve the MIP.
//! let mut manager = Ursa::explore_and_prepare(
//!     &app.topology, &app.slas, &rates, UrsaConfig::default(), 42,
//! )?;
//!
//! // 3. Online: deploy under load; scaling decisions are threshold checks.
//! let mut sim = app.build_sim(7);
//! app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
//! manager.apply_initial_allocation(&rates, &mut sim);
//! let report = run_deployment(&mut sim, &app.slas, &mut manager, &DeployConfig::default());
//! println!("SLA violation rate: {:.2}%", 100.0 * report.overall_violation_rate());
//! # Ok::<(), ursa::mip::ModelError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the full
//! system inventory and paper-to-code substitution map.

#![forbid(unsafe_code)]

pub use ursa_apps as apps;
pub use ursa_baselines as baselines;
pub use ursa_core as core;
pub use ursa_metrics as metrics;
pub use ursa_mip as mip;
pub use ursa_ml as ml;
pub use ursa_sim as sim;
pub use ursa_stats as stats;
pub use ursa_trace as trace;
