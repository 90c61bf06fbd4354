//! The perf ledger: four workloads, four end-to-end metrics, and per-layer
//! metrics from spans recorded around every call into a layer. The
//! program under `crates/` is measured from outside, through public
//! functions only; see `README.md` for the API surface bound.

pub mod catalogue;
pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
