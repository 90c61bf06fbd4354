//! Critical-path analysis, per-service blame and the Chrome trace-event
//! exporter for per-request traces produced by the `ursa-sim` tracing
//! layer (see `ursa_sim::trace`).

#![forbid(unsafe_code)]

pub mod blame;
pub mod critical_path;
pub mod export;

pub use blame::{service_blame, top_percentile, BlameReport, ServiceBlame};
pub use critical_path::{critical_path, PathCategory, PathSegment};
pub use export::ChromeTrace;
