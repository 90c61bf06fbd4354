//! Metrics pipeline: the continuous-observation layer of the reproduction.
//!
//! The paper's Ursa deployment harvests per-tier latency distributions, CPU
//! usage, and request counts from a Prometheus stack every interval (§V,
//! component 1); this crate is the simulator-side analog. It provides:
//!
//! * [`store`] — an in-memory columnar time-series store, keyed by
//!   [`SeriesKey`] (metric name + sorted [`Labels`]), that a collector
//!   appends one row of current values to per harvest interval.
//! * [`export`] — the one self-contained HTML page template (head,
//!   stylesheet, escaped table writer) and the zero-dependency dashboard
//!   built on it (inline SVG). The paper's Prometheus stack is replaced by
//!   this in-process pull, so no exposition format is written: the
//!   dashboard carries the series.
//! * [`json`] — the one hand-rolled JSON layer (escaping, number rendering,
//!   a minimal parser) behind run manifests, Chrome traces and
//!   `ursa-bench diff`.
//! * [`logging`] — the leveled progress-logging layer shared by the
//!   workspace (`--quiet`/`--verbose` in `ursa-bench`).
//! * [`pool`] — the ordered scoped worker pool shared by the workspace
//!   (`--jobs` cells in `ursa-bench`, per-service exploration and
//!   profiling in `ursa-core`).
//!
//! Everything here is *pull*-based: the simulator and control plane are
//! never instrumented inline — callers scrape already-produced
//! `MetricsSnapshot`s (see `ursa_sim::metrics`) — so collection cannot
//! perturb simulation results (no RNG draws, no simulated-time effects),
//! and a run with metrics disabled skips the pipeline entirely.
//!
//! Rows are deterministic: series keys are totally ordered, so the store's
//! key order is independent of the order a row lists its cells in and of
//! label-insertion order (property-tested).

#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod logging;
pub mod pool;
pub mod store;

pub use export::dashboard::{render_dashboard, Annotation, PanelSpec};
pub use store::{Labels, SeriesKey, TimeSeriesStore};
