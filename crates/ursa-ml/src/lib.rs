//! Minimal ML substrate for the Ursa baselines.
//!
//! The paper compares Ursa against two ML-driven resource managers: Sinan
//! (a CNN + boosted-trees latency/violation predictor searched by a
//! centralized scheduler) and Firm (per-service RL agents). This crate
//! provides the learning machinery those baselines are rebuilt on, written
//! from scratch and fully deterministic:
//!
//! * [`mlp`] — dense networks with Adam (Sinan's predictor, DQN's Q-network);
//! * [`gbt`] — gradient-boosted regression trees (Sinan's violation model);
//! * [`rl`] — a DQN-style per-service agent with replay and target network
//!   (Firm's actor; DDPG → DQN substitution documented in DESIGN.md).
//!
//! # Example
//!
//! ```
//! use ursa_ml::mlp::{Activation, Mlp, Output};
//!
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Output::Linear, 7);
//! let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
//! let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 2.0]).collect();
//! for _ in 0..200 {
//!     net.train_batch(&xs, &ys, 0.01);
//! }
//! assert!((net.predict(&[0.5])[0] - 1.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]

pub mod gbt;
pub mod metrics;
pub mod mlp;
pub mod rl;

pub use gbt::{GbtParams, GbtRegressor};
pub use metrics::{accuracy, auc};
pub use mlp::{Activation, Mlp, Output};
pub use rl::{DqnAgent, DqnParams, ReplayBuffer, Transition};
