//! Baseline resource managers the paper compares Ursa against (§VII-B).
//!
//! * [`sinan`] — model-based ML: a trained latency predictor (MLP) plus a
//!   violation-probability model (gradient-boosted trees) searched by a
//!   centralized scheduler, with Sinan's balanced data-collection episode.
//! * [`firm`] — model-free ML: one DQN agent per microservice, rewarded by
//!   a weighted sum of resource savings and SLA compliance, trained online
//!   against injected anomalies.
//! * [`autoscaler`] — threshold autoscaling: the AWS step-scaling default
//!   (Auto-a) and a manually tuned conservative configuration (Auto-b).
//!
//! All three implement [`ursa_sim::control::ResourceManager`], so they run
//! under the exact same deployment driver as Ursa itself.

#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod firm;
pub mod sinan;

pub use autoscaler::Autoscaler;
pub use firm::{train_firm, Firm};
pub use sinan::{collect, collect_and_train, CollectConfig, Dataset, Sinan};
