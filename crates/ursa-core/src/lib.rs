//! Ursa: lightweight analytical resource management for cloud-native
//! microservices — a from-scratch reproduction of the HPCA'24 paper's core
//! contribution.
//!
//! The pipeline, following the paper's structure:
//!
//! 1. [`profiling`] (§III) — discover each RPC-connected service's
//!    *backpressure-free CPU utilization threshold* by sweeping its CPU
//!    limit under a proxy harness until the proxy's latency converges
//!    (Welch's t-test). Operating below these thresholds makes services
//!    independent, collapsing the modeling problem from O(N²) to O(N).
//! 2. [`exploration`] (Algorithm 1) — per-service, individually and in
//!    parallel: replay the workload while stepping replicas down, recording
//!    latency distributions per load-per-replica (LPR) level; stop at the
//!    backpressure threshold or on SLA violations. Orders of magnitude
//!    fewer samples than ML-driven managers need (Table V).
//! 3. [`decompose`] + [`optimizer`] (§IV) — Theorem 1 splits each
//!    end-to-end percentile SLA into per-service percentile budgets; the
//!    MIP (solved exactly by `ursa-mip`) picks the cheapest LPR threshold
//!    per service that keeps every class's latency bound under its SLA.
//! 4. [`controller`] + [`anomaly`] (§V) — online, scaling decisions are a
//!    threshold check (sub-millisecond); anomaly detection recalculates
//!    thresholds on request-mix drift and requests re-exploration on
//!    persistent SLA violations.
//!
//! [`manager::Ursa`] packages all of it behind the common
//! [`ursa_sim::control::ResourceManager`] interface.
//!
//! # Example
//!
//! ```no_run
//! use ursa_apps::social_network;
//! use ursa_core::manager::{Ursa, UrsaConfig};
//! use ursa_sim::prelude::*;
//!
//! let app = social_network(true);
//! let sum: f64 = app.mix.iter().sum();
//! let rates: Vec<f64> = app.mix.iter().map(|w| 250.0 * w / sum).collect();
//! let mut ursa = Ursa::explore_and_prepare(
//!     &app.topology, &app.slas, &rates, UrsaConfig::default(), 42,
//! )?;
//! let mut sim = app.build_sim(7);
//! app.apply_load(&mut sim, RateFn::Constant(250.0));
//! ursa.apply_initial_allocation(&rates, &mut sim);
//! let report = run_deployment(&mut sim, &app.slas, &mut ursa, &DeployConfig::default());
//! println!("violations: {:.2}%", 100.0 * report.overall_violation_rate());
//! # Ok::<(), ursa_mip::ModelError>(())
//! ```

#![forbid(unsafe_code)]

pub mod anomaly;
pub mod controller;
pub mod decision_log;
pub mod decompose;
pub mod exploration;
pub mod harness;
pub mod manager;
pub mod optimizer;
pub mod profiling;

pub use anomaly::{Anomaly, AnomalyDetector};
pub use controller::{ScaleAction, ThresholdScaler};
pub use decision_log::{DecisionKind, DecisionLog, DecisionRecord, ServiceDelta};
pub use decompose::{empirical_e2e_percentile, latency_bound, PercentileSplit};
pub use exploration::{explore_all, explore_service, ExplorationConfig, ExplorationReport};
pub use harness::{IsolatedHarness, ServiceProfile};
pub use manager::{OfflineStats, ReexplorationStats, Ursa, UrsaConfig};
pub use optimizer::{
    build_model, optimize, OptimizeOutcome, OverestimationTracker, PreparedOptimizer,
    ScalingThreshold,
};
pub use profiling::{profile_service, BackpressureProfile, ProfilingConfig};
