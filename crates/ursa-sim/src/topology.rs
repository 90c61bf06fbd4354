//! Microservice application topologies.
//!
//! A [`Topology`] declares the services of an application (with their
//! per-replica resource configuration) and one [`CallNode`] tree per request
//! class, describing how a request of that class flows through the services:
//! which service handles each hop, how much compute it costs, and whether
//! each inter-service edge is a nested RPC, an event-driven RPC, or a
//! message queue — the three communication styles whose backpressure
//! behaviour §III of the paper characterizes.

use std::sync::Arc;

use ursa_stats::dist::{Constant, Distribution, Exponential, LogNormal, Pareto, Uniform};
use ursa_stats::rng::Rng;

/// Index of a service within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub usize);

/// Index of a request class within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

/// Request priority: lower value = higher priority (0 is highest).
///
/// Queues serve strictly by priority, matching the video-processing
/// pipeline's semantics in the paper ("low-priority requests are processed
/// only when there is no high-priority request waiting").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

impl Priority {
    /// The highest priority.
    pub const HIGH: Priority = Priority(0);
    /// A standard low priority.
    pub const LOW: Priority = Priority(1);
}

/// How an upstream service communicates with a downstream service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Synchronous RPC: the caller's worker thread blocks until the callee
    /// responds (Fig. 1a). Exhibits backpressure.
    NestedRpc,
    /// Event-driven RPC: the handler submits a continuation to a bounded
    /// daemon pool and responds immediately; the continuation performs the
    /// RPC and waits (Fig. 1b). Exhibits backpressure when the daemon pool
    /// and its submission queue fill up.
    EventDrivenRpc,
    /// Message queue: the producer publishes and continues; consumers pull
    /// from an unbounded queue (Fig. 1c). No backpressure.
    Mq,
}

/// A cloneable service-time distribution (CPU-seconds of work per request).
///
/// This is a closed enum rather than a boxed trait object so that topologies
/// can be cloned, inspected, and re-profiled (the profiling engine in
/// `ursa-core` builds synthetic single-service topologies from these specs).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkDist {
    /// Fixed compute cost.
    Constant(f64),
    /// Uniform on `[low, high)`.
    Uniform { low: f64, high: f64 },
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Log-normal with the given mean and coefficient of variation.
    LogNormal { mean: f64, cv: f64 },
    /// Pareto with scale `x_min` and shape `alpha`.
    Pareto { x_min: f64, alpha: f64 },
}

impl WorkDist {
    /// Draws one compute cost in CPU-seconds (always non-negative).
    ///
    /// Compiles on every call; code that draws repeatedly should
    /// [`compile`](Self::compile) once and keep the [`WorkSampler`] (the
    /// engine's flattened call trees do).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.compile().sample(rng)
    }

    /// Constructs the `ursa-stats` distribution this spec describes,
    /// deriving its parameters (rate, underlying-normal μ/σ) once.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside the distribution's domain;
    /// [`Topology::new`] rejects every such spec first.
    pub fn compile(&self) -> WorkSampler {
        match *self {
            WorkDist::Constant(c) => WorkSampler::Constant(Constant(c)),
            WorkDist::Uniform { low, high } => WorkSampler::Uniform(Uniform::new(low, high)),
            WorkDist::Exponential { mean } => {
                WorkSampler::Exponential(Exponential::with_mean(mean))
            }
            WorkDist::LogNormal { mean, cv } => {
                WorkSampler::LogNormal(LogNormal::from_mean_cv(mean, cv))
            }
            WorkDist::Pareto { x_min, alpha } => WorkSampler::Pareto(Pareto::new(x_min, alpha)),
        }
    }

    /// The distribution mean in CPU-seconds.
    pub fn mean(&self) -> f64 {
        match self {
            WorkDist::Constant(c) => *c,
            WorkDist::Uniform { low, high } => 0.5 * (low + high),
            WorkDist::Exponential { mean } => *mean,
            WorkDist::LogNormal { mean, .. } => *mean,
            WorkDist::Pareto { x_min, alpha } => Pareto::new(*x_min, *alpha).mean(),
        }
    }

    /// Validates parameters, returning a description of the first problem.
    fn validate(&self) -> Result<(), String> {
        let ok = match self {
            WorkDist::Constant(c) => *c >= 0.0 && c.is_finite(),
            WorkDist::Uniform { low, high } => *low >= 0.0 && high >= low && high.is_finite(),
            // The derived parameters must be finite too, or `compile`
            // would panic where this should have returned an error.
            WorkDist::Exponential { mean } => {
                *mean > 0.0 && mean.is_finite() && (1.0 / mean).is_finite()
            }
            WorkDist::LogNormal { mean, cv } => {
                *mean > 0.0 && mean.is_finite() && *cv >= 0.0 && (cv * cv).is_finite()
            }
            WorkDist::Pareto { x_min, alpha } => *x_min > 0.0 && *alpha > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid work distribution {self:?}"))
        }
    }
}

/// A [`WorkDist`] compiled for repeated draws: the already-constructed
/// `ursa-stats` distribution, so a draw re-derives nothing. Same RNG
/// draws and arithmetic as constructing the distribution per draw, hence
/// the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkSampler {
    /// Fixed compute cost.
    Constant(Constant),
    /// Uniform on `[low, high)`.
    Uniform(Uniform),
    /// Exponential.
    Exponential(Exponential),
    /// Log-normal.
    LogNormal(LogNormal),
    /// Pareto.
    Pareto(Pareto),
}

impl WorkSampler {
    /// Draws one compute cost in CPU-seconds (always non-negative).
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let v = match self {
            WorkSampler::Constant(d) => d.sample(rng),
            WorkSampler::Uniform(d) => d.sample(rng),
            WorkSampler::Exponential(d) => d.sample(rng),
            WorkSampler::LogNormal(d) => d.sample(rng),
            WorkSampler::Pareto(d) => d.sample(rng),
        };
        v.max(0.0)
    }
}

/// Whether a node's nested child calls are issued one-by-one or all at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CallMode {
    /// Children are called in order; each nested call completes before the
    /// next child is issued.
    #[default]
    Sequential,
    /// All children are issued immediately; the node waits for every nested
    /// response before continuing (fan-out).
    Parallel,
}

/// One hop of a request-class call tree.
#[derive(Debug, Clone)]
pub struct CallNode {
    /// Which service executes this hop.
    pub service: ServiceId,
    /// Compute performed before issuing child calls.
    pub pre_work: WorkDist,
    /// Compute performed after all nested children respond.
    pub post_work: WorkDist,
    /// Sequential or parallel issuance of children.
    pub mode: CallMode,
    /// Downstream calls made by this hop.
    pub children: Vec<(EdgeKind, CallNode)>,
}

impl CallNode {
    /// Creates a leaf hop with the given pre-work and no post-work.
    pub fn leaf(service: ServiceId, work: WorkDist) -> Self {
        CallNode {
            service,
            pre_work: work,
            post_work: WorkDist::Constant(0.0),
            mode: CallMode::Sequential,
            children: Vec::new(),
        }
    }

    /// Adds a downstream call, returning `self` for chaining.
    pub fn with_child(mut self, edge: EdgeKind, node: CallNode) -> Self {
        self.children.push((edge, node));
        self
    }

    /// Sets the post-children compute, returning `self` for chaining.
    pub fn with_post_work(mut self, work: WorkDist) -> Self {
        self.post_work = work;
        self
    }

    /// Sets the child call mode, returning `self` for chaining.
    pub fn with_mode(mut self, mode: CallMode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of hops in the subtree rooted here.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|(_, c)| c.node_count())
            .sum::<usize>()
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a CallNode)) {
        f(self);
        for (_, c) in &self.children {
            c.visit(f);
        }
    }
}

/// Per-replica configuration of a service.
#[derive(Debug, Clone)]
pub struct ServiceCfg {
    /// Human-readable name (unique within a topology).
    pub name: String,
    /// CPU cores per replica (the Kubernetes CPU limit; fractional allowed
    /// for throttling experiments).
    pub cores: f64,
    /// Request worker threads per replica. A worker is held for the entire
    /// synchronous lifetime of a request, including nested-RPC waits.
    pub workers: usize,
    /// Daemon threads per replica serving event-driven continuations.
    pub daemon_workers: usize,
    /// Bounded submission queue in front of the daemon pool; when full,
    /// handlers block on submission (the §III event-driven backpressure
    /// mechanism).
    pub daemon_queue_cap: usize,
    /// Replica count at simulation start.
    pub initial_replicas: usize,
}

impl ServiceCfg {
    /// A service with the given name and core count, with defaults sized so
    /// that thread pools are not the bottleneck at moderate load
    /// (64 workers, 32 daemons, 64-deep daemon queue, 1 replica).
    pub fn new(name: impl Into<String>, cores: f64) -> Self {
        ServiceCfg {
            name: name.into(),
            cores,
            workers: 64,
            daemon_workers: 32,
            daemon_queue_cap: 64,
            initial_replicas: 1,
        }
    }

    /// Sets the worker pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the daemon pool size and submission queue depth.
    pub fn with_daemons(mut self, daemons: usize, queue_cap: usize) -> Self {
        self.daemon_workers = daemons;
        self.daemon_queue_cap = queue_cap;
        self
    }

    /// Sets the starting replica count.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.initial_replicas = replicas;
        self
    }
}

/// A request class: a named call tree with a priority.
#[derive(Debug, Clone)]
pub struct ClassCfg {
    /// Human-readable name (unique within a topology).
    pub name: String,
    /// Scheduling priority of this class's requests.
    pub priority: Priority,
    /// The call tree executed by each request of this class.
    pub root: CallNode,
}

/// Error produced when a topology fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(String);

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid topology: {}", self.0)
    }
}

impl std::error::Error for TopologyError {}

/// One call-tree hop flattened into dense per-class indices — the engine's
/// hot-path view of a [`CallNode`]. Children/parent are indices into the
/// owning [`FlatClass::nodes`] array.
#[derive(Debug)]
pub struct FlatNode {
    /// Service executing this hop (dense index into the services array).
    pub service: usize,
    /// Parent hop and the edge kind through which this hop is reached
    /// (`None` for the root).
    pub parent: Option<(u16, EdgeKind)>,
    /// Child hops with their edge kinds, in issue order.
    pub children: Vec<(u16, EdgeKind)>,
    /// Sequential or parallel child issuance.
    pub mode: CallMode,
    /// Compute before issuing children.
    pub pre: WorkSampler,
    /// Compute after all nested children respond.
    pub post: WorkSampler,
}

/// A request class flattened for the engine: hops in preorder plus the
/// class priority as a dense level.
#[derive(Debug)]
pub struct FlatClass {
    /// Hops in preorder (root first).
    pub nodes: Vec<FlatNode>,
    /// Priority level (0 = highest).
    pub prio: usize,
}

fn flatten(root: &CallNode, out: &mut Vec<FlatNode>, parent: Option<(u16, EdgeKind)>) -> u16 {
    let idx = out.len() as u16;
    out.push(FlatNode {
        service: root.service.0,
        parent,
        children: Vec::new(),
        mode: root.mode,
        pre: root.pre_work.compile(),
        post: root.post_work.compile(),
    });
    for (edge, child) in &root.children {
        let cidx = flatten(child, out, Some((idx, *edge)));
        out[idx as usize].children.push((cidx, *edge));
    }
    idx
}

/// Sentinel for [`HotTable::nested_parent`]: no nested-RPC parent.
pub const NO_NESTED_PARENT: u16 = u16::MAX;

/// Struct-of-arrays view of the per-hop fields the engine reads on *every*
/// arrival and response. A [`FlatNode`] is large (two compiled [`WorkSampler`]s
/// plus a child vector), so walking `flat[class].nodes[node].service` on the hot
/// path drags a whole cache line of cold payload along. The hot table packs
/// the per-event fields into dense primitive arrays indexed by
/// `class_base[class] + node`, one global namespace across classes.
#[derive(Debug)]
pub struct HotTable {
    /// Per class: base index of its hops in the node arrays below.
    pub class_base: Vec<u32>,
    /// Per class: priority level (0 = highest), same as [`FlatClass::prio`].
    pub class_prio: Vec<u8>,
    /// Per hop: service executing it.
    pub service: Vec<u16>,
    /// Per hop: true iff it is reached through an [`EdgeKind::Mq`] edge.
    pub via_mq: Vec<bool>,
    /// Per hop: parent hop index when reached via [`EdgeKind::NestedRpc`],
    /// else [`NO_NESTED_PARENT`] — exactly the question `respond` asks.
    pub nested_parent: Vec<u16>,
    /// Per hop: number of child calls it issues.
    pub n_children: Vec<u16>,
}

impl HotTable {
    fn build(flat: &[FlatClass]) -> Self {
        let total: usize = flat.iter().map(|c| c.nodes.len()).sum();
        let mut t = HotTable {
            class_base: Vec::with_capacity(flat.len()),
            class_prio: Vec::with_capacity(flat.len()),
            service: Vec::with_capacity(total),
            via_mq: Vec::with_capacity(total),
            nested_parent: Vec::with_capacity(total),
            n_children: Vec::with_capacity(total),
        };
        for class in flat {
            t.class_base.push(t.service.len() as u32);
            t.class_prio.push(class.prio as u8);
            for node in &class.nodes {
                t.service.push(node.service as u16);
                t.via_mq
                    .push(matches!(node.parent, Some((_, EdgeKind::Mq))));
                t.nested_parent.push(match node.parent {
                    Some((p, EdgeKind::NestedRpc)) => p,
                    _ => NO_NESTED_PARENT,
                });
                t.n_children.push(node.children.len() as u16);
            }
        }
        t
    }

    /// Index of hop `node` of `class` into the per-hop arrays.
    #[inline]
    pub fn node(&self, class: usize, node: u16) -> usize {
        self.class_base[class] as usize + node as usize
    }
}

/// A validated microservice application: services plus request classes.
///
/// The flattened per-class call trees ([`FlatClass`]) are built once at
/// construction and shared via `Arc`: cloning a topology — or building many
/// [`Simulation`](crate::engine::Simulation)s of it — never re-clones the
/// work distributions.
#[derive(Debug, Clone)]
pub struct Topology {
    services: Vec<ServiceCfg>,
    classes: Vec<ClassCfg>,
    flat: Arc<Vec<FlatClass>>,
    hot: Arc<HotTable>,
}

impl Topology {
    /// Validates and constructs a topology.
    ///
    /// # Errors
    ///
    /// Returns an error if any of the following hold: no services; a
    /// service with non-positive cores, zero workers, or zero replicas;
    /// duplicate service or class names; a call node referencing an
    /// out-of-range service; or an invalid work distribution.
    pub fn new(services: Vec<ServiceCfg>, classes: Vec<ClassCfg>) -> Result<Self, TopologyError> {
        if services.is_empty() {
            return Err(TopologyError("no services".into()));
        }
        let mut names = std::collections::HashSet::new();
        for s in &services {
            if !(s.cores > 0.0 && s.cores.is_finite()) {
                return Err(TopologyError(format!(
                    "service {} has invalid cores",
                    s.name
                )));
            }
            if s.workers == 0 {
                return Err(TopologyError(format!(
                    "service {} has zero workers",
                    s.name
                )));
            }
            if s.initial_replicas == 0 {
                return Err(TopologyError(format!(
                    "service {} has zero replicas",
                    s.name
                )));
            }
            if !names.insert(s.name.clone()) {
                return Err(TopologyError(format!("duplicate service name {}", s.name)));
            }
        }
        let mut cnames = std::collections::HashSet::new();
        for c in &classes {
            if !cnames.insert(c.name.clone()) {
                return Err(TopologyError(format!("duplicate class name {}", c.name)));
            }
            let mut err = None;
            c.root.visit(&mut |node| {
                if node.service.0 >= services.len() {
                    err = Some(format!(
                        "class {} references unknown service {}",
                        c.name, node.service.0
                    ));
                }
                if let Err(e) = node.pre_work.validate() {
                    err = Some(format!("class {}: {e}", c.name));
                }
                if let Err(e) = node.post_work.validate() {
                    err = Some(format!("class {}: {e}", c.name));
                }
            });
            if let Some(e) = err {
                return Err(TopologyError(e));
            }
        }
        let flat: Arc<Vec<FlatClass>> = Arc::new(
            classes
                .iter()
                .map(|c| {
                    let mut nodes = Vec::with_capacity(c.root.node_count());
                    flatten(&c.root, &mut nodes, None);
                    FlatClass {
                        nodes,
                        prio: c.priority.0 as usize,
                    }
                })
                .collect(),
        );
        let hot = Arc::new(HotTable::build(&flat));
        Ok(Topology {
            services,
            classes,
            flat,
            hot,
        })
    }

    /// The services of this application.
    pub fn services(&self) -> &[ServiceCfg] {
        &self.services
    }

    /// The flattened per-class call trees, shared by reference count —
    /// the engine indexes these on every hop instead of cloning work
    /// distributions per simulation.
    pub fn flat_classes(&self) -> Arc<Vec<FlatClass>> {
        Arc::clone(&self.flat)
    }

    /// The SoA hot table over the flattened call trees, shared by
    /// reference count like [`flat_classes`](Self::flat_classes).
    pub fn hot_table(&self) -> Arc<HotTable> {
        Arc::clone(&self.hot)
    }

    /// The request classes of this application.
    pub fn classes(&self) -> &[ClassCfg] {
        &self.classes
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// Number of request classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Finds a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(ServiceId)
    }

    /// Finds a request class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId)
    }

    /// All `(class, node)` pairs whose node runs on `service`, with the
    /// edge kind through which the node is reached (`None` for roots).
    ///
    /// Used by the profiling engine to synthesize per-service workloads.
    pub fn nodes_on_service(
        &self,
        service: ServiceId,
    ) -> Vec<(ClassId, &CallNode, Option<EdgeKind>)> {
        let mut out = Vec::new();
        for (ci, class) in self.classes.iter().enumerate() {
            fn walk<'a>(
                node: &'a CallNode,
                via: Option<EdgeKind>,
                service: ServiceId,
                ci: usize,
                out: &mut Vec<(ClassId, &'a CallNode, Option<EdgeKind>)>,
            ) {
                if node.service == service {
                    out.push((ClassId(ci), node, via));
                }
                for (edge, child) in &node.children {
                    walk(child, Some(*edge), service, ci, out);
                }
            }
            walk(&class.root, None, service, ci, &mut out);
        }
        out
    }

    /// True if any request class reaches `service` via a synchronous
    /// (nested or event-driven) RPC edge, i.e. the service can exert
    /// backpressure on an upstream caller.
    pub fn is_rpc_connected(&self, service: ServiceId) -> bool {
        self.nodes_on_service(service).iter().any(|(_, _, via)| {
            matches!(
                via,
                Some(EdgeKind::NestedRpc) | Some(EdgeKind::EventDrivenRpc)
            )
        })
    }

    /// Services traversed by the given class's call tree (deduplicated,
    /// in visit order).
    pub fn services_of_class(&self, class: ClassId) -> Vec<ServiceId> {
        let mut seen = Vec::new();
        self.classes[class.0].root.visit(&mut |node| {
            if !seen.contains(&node.service) {
                seen.push(node.service);
            }
        });
        seen
    }

    /// Request classes whose call tree touches the given service.
    pub fn classes_on_service(&self, service: ServiceId) -> Vec<ClassId> {
        (0..self.classes.len())
            .map(ClassId)
            .filter(|&c| self.services_of_class(c).contains(&service))
            .collect()
    }
}

/// FNV-1a 64-bit, the workspace's one digest hash: the run manifest's
/// table digests and the tests' bit pins (no dependencies, stable across
/// platforms — unlike `DefaultHasher`, whose output is unspecified).
#[derive(Debug, Clone, Copy)]
pub struct Fnv;

impl Fnv {
    /// FNV-1a 64 of `bytes`.
    pub fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> Topology {
        let services = vec![
            ServiceCfg::new("frontend", 2.0),
            ServiceCfg::new("backend", 2.0),
        ];
        let root = CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
            EdgeKind::NestedRpc,
            CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.002 }),
        );
        let classes = vec![ClassCfg {
            name: "get".into(),
            priority: Priority::HIGH,
            root,
        }];
        Topology::new(services, classes).expect("valid")
    }

    #[test]
    fn builds_and_queries() {
        let t = two_tier();
        assert_eq!(t.num_services(), 2);
        assert_eq!(t.num_classes(), 1);
        assert_eq!(t.service_by_name("backend"), Some(ServiceId(1)));
        assert_eq!(t.class_by_name("get"), Some(ClassId(0)));
        assert_eq!(t.class_by_name("nope"), None);
        assert_eq!(t.classes()[0].root.node_count(), 2);
    }

    #[test]
    fn nodes_on_service_reports_edges() {
        let t = two_tier();
        let on_backend = t.nodes_on_service(ServiceId(1));
        assert_eq!(on_backend.len(), 1);
        assert_eq!(on_backend[0].2, Some(EdgeKind::NestedRpc));
        let on_frontend = t.nodes_on_service(ServiceId(0));
        assert_eq!(on_frontend[0].2, None);
    }

    #[test]
    fn rpc_connectivity() {
        let t = two_tier();
        assert!(t.is_rpc_connected(ServiceId(1)));
        assert!(!t.is_rpc_connected(ServiceId(0))); // root is not called via RPC
    }

    #[test]
    fn services_and_classes_cross_index() {
        let t = two_tier();
        assert_eq!(
            t.services_of_class(ClassId(0)),
            vec![ServiceId(0), ServiceId(1)]
        );
        assert_eq!(t.classes_on_service(ServiceId(1)), vec![ClassId(0)]);
    }

    #[test]
    fn rejects_unknown_service() {
        let services = vec![ServiceCfg::new("a", 1.0)];
        let classes = vec![ClassCfg {
            name: "c".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(3), WorkDist::Constant(0.001)),
        }];
        assert!(Topology::new(services, classes).is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let services = vec![ServiceCfg::new("a", 1.0), ServiceCfg::new("a", 1.0)];
        assert!(Topology::new(services, vec![]).is_err());
    }

    #[test]
    fn rejects_bad_work_dist() {
        // Out-of-domain parameters, and in-domain ones whose derived
        // parameters overflow: all must be errors, never a `compile` panic.
        for work in [
            WorkDist::Exponential { mean: -1.0 },
            WorkDist::Exponential { mean: 1e-320 },
            WorkDist::Exponential {
                mean: f64::INFINITY,
            },
            WorkDist::LogNormal {
                mean: f64::INFINITY,
                cv: 1.0,
            },
            WorkDist::LogNormal {
                mean: 0.01,
                cv: 1e200,
            },
            WorkDist::Uniform {
                low: 0.02,
                high: 0.01,
            },
            WorkDist::Pareto {
                x_min: 0.0,
                alpha: 2.0,
            },
        ] {
            let services = vec![ServiceCfg::new("a", 1.0)];
            let classes = vec![ClassCfg {
                name: "c".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), work.clone()),
            }];
            assert!(Topology::new(services, classes).is_err(), "{work:?}");
        }
    }

    /// `WorkDist::sample` as it was before samplers were compiled: the
    /// distribution constructed afresh on every draw. Kept as the
    /// reference the compiled sampler is compared against.
    fn sample_uncompiled(work: &WorkDist, rng: &mut Rng) -> f64 {
        let v = match work {
            WorkDist::Constant(c) => Constant(*c).sample(rng),
            WorkDist::Uniform { low, high } => Uniform::new(*low, *high).sample(rng),
            WorkDist::Exponential { mean } => Exponential::with_mean(*mean).sample(rng),
            WorkDist::LogNormal { mean, cv } => LogNormal::from_mean_cv(*mean, *cv).sample(rng),
            WorkDist::Pareto { x_min, alpha } => Pareto::new(*x_min, *alpha).sample(rng),
        };
        v.max(0.0)
    }

    fn valid_work_dist() -> impl proptest::strategy::Strategy<Value = WorkDist> {
        use proptest::prelude::*;
        (0usize..5, 1e-6f64..10.0, 0.0f64..4.0).prop_map(|(kind, a, b)| match kind {
            0 => WorkDist::Constant(a),
            1 => WorkDist::Uniform {
                low: a,
                high: a * (1.0 + b),
            },
            2 => WorkDist::Exponential { mean: a },
            3 => WorkDist::LogNormal { mean: a, cv: b },
            _ => WorkDist::Pareto {
                x_min: a,
                alpha: 0.05 + b,
            },
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A compiled sampler returns the bits the per-draw construction
        /// returned, from the same RNG draws.
        #[test]
        fn compiled_sampler_matches_per_draw_construction(
            work in valid_work_dist(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let services = vec![ServiceCfg::new("a", 1.0)];
            let classes = vec![ClassCfg {
                name: "c".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), work.clone()),
            }];
            let topo = Topology::new(services, classes).expect("valid by construction");
            let compiled = topo.flat_classes()[0].nodes[0].pre;
            let mut reference_rng = Rng::seed_from(seed);
            let mut compiled_rng = reference_rng.clone();
            let mut delegating_rng = reference_rng.clone();
            for _ in 0..32 {
                let want = sample_uncompiled(&work, &mut reference_rng).to_bits();
                proptest::prop_assert_eq!(compiled.sample(&mut compiled_rng).to_bits(), want);
                proptest::prop_assert_eq!(work.sample(&mut delegating_rng).to_bits(), want);
            }
            proptest::prop_assert_eq!(&compiled_rng, &reference_rng);
            proptest::prop_assert_eq!(&delegating_rng, &reference_rng);
        }
    }

    #[test]
    fn rejects_zero_replicas() {
        let services = vec![ServiceCfg::new("a", 1.0).with_replicas(0)];
        assert!(Topology::new(services, vec![]).is_err());
    }

    #[test]
    fn work_dist_sampling_nonnegative_and_mean() {
        let mut rng = Rng::seed_from(3);
        let dists = [
            WorkDist::Constant(0.01),
            WorkDist::Uniform {
                low: 0.0,
                high: 0.02,
            },
            WorkDist::Exponential { mean: 0.01 },
            WorkDist::LogNormal {
                mean: 0.01,
                cv: 1.0,
            },
            WorkDist::Pareto {
                x_min: 0.005,
                alpha: 2.0,
            },
        ];
        for d in &dists {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!(mean >= 0.0);
            assert!(
                (mean - d.mean()).abs() / d.mean() < 0.15,
                "{d:?}: sampled {mean} vs {}",
                d.mean()
            );
        }
    }

    #[test]
    fn call_node_builder_chains() {
        let node = CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001))
            .with_post_work(WorkDist::Constant(0.002))
            .with_mode(CallMode::Parallel)
            .with_child(
                EdgeKind::Mq,
                CallNode::leaf(ServiceId(0), WorkDist::Constant(0.003)),
            );
        assert_eq!(node.mode, CallMode::Parallel);
        assert_eq!(node.children.len(), 1);
        assert_eq!(node.node_count(), 2);
    }
}
