//! A deterministic discrete-event simulator of cloud-native microservice
//! applications — the testbed substrate for the Ursa reproduction.
//!
//! The simulator stands in for the paper's 8-node Kubernetes/Dapr cluster:
//! it models services as graphs connected by nested RPCs, event-driven RPCs,
//! and message queues; replicas with processor-sharing CPUs and bounded
//! worker pools; strict-priority request scheduling; Poisson (optionally
//! time-varying) open-loop load; and Prometheus-style telemetry. Resource
//! managers actuate it through the [`control::ControlPlane`] trait exactly
//! as they would actuate Kubernetes. Machines are not modelled.
//!
//! The queueing mechanics are faithful enough that the paper's central
//! observation — RPC backpressure exists, MQ backpressure does not, and
//! bounded CPU utilization eliminates it (§III) — *emerges* from the model
//! rather than being hard-coded. See `DESIGN.md` at the workspace root for
//! the full substitution argument.
//!
//! # Example
//!
//! ```
//! use ursa_sim::prelude::*;
//!
//! // One service, one request class, Poisson load.
//! let topo = Topology::new(
//!     vec![ServiceCfg::new("api", 2.0)],
//!     vec![ClassCfg {
//!         name: "get".into(),
//!         priority: Priority::HIGH,
//!         root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
//!     }],
//! )?;
//! let mut sim = Simulation::new(topo, SimConfig::default(), 1);
//! sim.set_rate(ClassId(0), RateFn::Constant(100.0));
//! sim.run_for(SimDur::from_secs(60));
//! let metrics = sim.harvest();
//! assert!(metrics.e2e_latency[0].percentile(99.0).is_some());
//! # Ok::<(), ursa_sim::topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod control;
pub mod engine;
pub mod evq;
pub mod metrics;
pub mod profiler;
pub mod ps;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;
pub mod workload;

/// Convenient glob-import of the commonly used simulator types.
pub mod prelude {
    pub use crate::control::{
        run_deployment, run_deployment_observed, ControlPlane, DeployConfig, DeployObserver,
        DeploymentReport, ResourceManager, Sla, StaticManager, WindowRecord,
    };
    pub use crate::engine::{SimConfig, Simulation};
    pub use crate::metrics::SimMetrics;
    pub use crate::profiler::{PhaseProfiler, PhaseStat, ProfilerReport, SimPhase};
    pub use crate::telemetry::{LatencySeries, MetricsSnapshot, ServiceMetrics};
    pub use crate::time::{SimDur, SimTime};
    pub use crate::topology::{
        CallMode, CallNode, ClassCfg, ClassId, EdgeKind, Priority, ServiceCfg, ServiceId, Topology,
        WorkDist, WorkSampler,
    };
    pub use crate::trace::{Trace, TraceSpan, Tracer};
    pub use crate::workload::RateFn;
}
