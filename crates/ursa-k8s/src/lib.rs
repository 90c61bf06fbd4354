//! Kubernetes-style resource-model authoring for the Ursa simulator —
//! the layer above the engine's memory plane, the way `ursa-chaos`
//! sits above the chaos plane.
//!
//! The engine consumes low-level pieces: per-service [`ResourceSpec`]s
//! on the topology and a [`MemPlan`] of demand profiles and node
//! capacities. This crate provides the operator-facing vocabulary that
//! produces them consistently:
//!
//! * a [`PodTemplate`] declares a service's requests/limits (deriving its
//!   QoS class exactly as the kubelet does) and its deterministic memory
//!   demand profile;
//! * a [`NodePool`] declares homogeneous nodes `(count, cores, bytes)`;
//! * an [`EvictionPolicy`] carries the kubelet-flavoured thresholds
//!   (pressure eviction, noisy-neighbor interference, scan cadence);
//! * a [`K8sPlane`] composes them and lowers onto an existing topology:
//!   [`K8sPlane::annotate`] attaches the resource specs,
//!   [`K8sPlane::mem_plan`] builds the engine plan, and
//!   [`K8sPlane::install`] arms a simulation in one call.
//!
//! Everything here is a pure, deterministic transformation — no RNG, no
//! wall clock — so a `(topology, plane)` pair always lowers to the same
//! engine configuration.
//!
//! # Example
//!
//! ```
//! use ursa_k8s::{EvictionPolicy, K8sPlane, PodTemplate, GIB, MIB};
//! use ursa_sim::prelude::*;
//!
//! let topo = Topology::new(
//!     vec![ServiceCfg::new("api", 2.0).with_replicas(2)],
//!     vec![ClassCfg {
//!         name: "get".into(),
//!         priority: Priority::HIGH,
//!         root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
//!     }],
//! )?;
//! let plane = K8sPlane::new()
//!     .pool(4, 8.0, 32 * GIB)
//!     .pod(
//!         "api",
//!         PodTemplate::guaranteed(2.0, GIB).with_memory(256 * MIB, MIB),
//!     );
//! let topo = plane.annotate(topo)?;
//! let mut sim = Simulation::new(topo, SimConfig::default(), 1);
//! plane.install(&mut sim)?;
//! assert!(sim.memory_plane_installed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use ursa_sim::engine::Simulation;
use ursa_sim::memory::{MemPlan, MemProfile, NodeMemCfg};
use ursa_sim::time::SimDur;
use ursa_sim::topology::{QosClass, ResourceSpec, Topology, TopologyError};

/// One mebibyte, for readable template literals.
pub const MIB: u64 = 1 << 20;
/// One gibibyte, for readable template literals.
pub const GIB: u64 = 1 << 30;

/// A pod template: the service's declared requests/limits plus its
/// deterministic memory demand profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodTemplate {
    /// Requests/limits; `None` leaves the service BestEffort.
    pub resources: Option<ResourceSpec>,
    /// Demand profile; `None` means zero modeled memory demand (the
    /// service neither OOMs nor contributes to node pressure).
    pub profile: Option<MemProfile>,
}

impl PodTemplate {
    /// A template with no requests, no limits, no demand — BestEffort.
    pub fn best_effort() -> Self {
        PodTemplate {
            resources: None,
            profile: None,
        }
    }

    /// Guaranteed QoS: requests equal limits in both dimensions.
    pub fn guaranteed(cpu: f64, mem_bytes: u64) -> Self {
        PodTemplate {
            resources: Some(ResourceSpec::guaranteed(cpu, mem_bytes)),
            profile: None,
        }
    }

    /// Burstable QoS: requests below limits.
    pub fn burstable(cpu_request: f64, cpu_limit: f64, mem_request: u64, mem_limit: u64) -> Self {
        PodTemplate {
            resources: Some(ResourceSpec::burstable(
                cpu_request,
                cpu_limit,
                mem_request,
                mem_limit,
            )),
            profile: None,
        }
    }

    /// Attaches a demand profile (baseline + per-in-flight-request
    /// bytes), returning `self`.
    pub fn with_memory(mut self, baseline_bytes: u64, per_request_bytes: u64) -> Self {
        self.profile = Some(MemProfile::new(baseline_bytes, per_request_bytes));
        self
    }

    /// Adds a slow heap-leak term to the demand profile, returning
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if no profile is attached yet (call
    /// [`with_memory`](Self::with_memory) first).
    pub fn with_leak(mut self, bytes_per_sec: f64) -> Self {
        let p = self.profile.expect("with_memory before with_leak");
        self.profile = Some(p.with_growth(bytes_per_sec));
        self
    }

    /// The template's derived QoS class (kubelet rules).
    pub fn qos_class(&self) -> QosClass {
        self.resources
            .map_or(QosClass::BestEffort, |r| r.qos_class())
    }
}

/// A homogeneous pool of nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePool {
    /// Number of nodes in the pool.
    pub count: usize,
    /// Allocatable cores per node.
    pub cores: f64,
    /// Allocatable memory per node in bytes.
    pub mem_bytes: u64,
}

/// Kubelet-flavoured eviction/interference thresholds and cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionPolicy {
    /// Node usage fraction above which pressure eviction starts.
    pub pressure_threshold: f64,
    /// Node usage fraction above which co-located services suffer
    /// noisy-neighbor CPU interference.
    pub interference_threshold: f64,
    /// Service-time multiplier while interference is active (≥ 1).
    pub interference_factor: f64,
    /// Usage-scan cadence (the housekeeping tick).
    pub check_interval: SimDur,
    /// Delay before a killed/evicted replica restarts.
    pub restart_delay: SimDur,
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy {
            pressure_threshold: 1.0,
            interference_threshold: 0.85,
            interference_factor: 1.3,
            check_interval: ursa_sim::memory::DEFAULT_CHECK_INTERVAL,
            restart_delay: ursa_sim::memory::DEFAULT_RESTART_DELAY,
        }
    }
}

/// A composed Kubernetes-style resource plane: pod templates by service
/// name, node pools, and the eviction policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct K8sPlane {
    templates: Vec<(String, PodTemplate)>,
    pools: Vec<NodePool>,
    policy: Option<EvictionPolicy>,
}

/// Error lowering a plane onto a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum K8sError {
    /// A template names a service the topology does not have.
    UnknownService(String),
    /// The plane has no nodes (no pools, or all pools empty).
    NoNodes,
    /// Rebuilding the annotated topology failed.
    Topology(String),
}

impl core::fmt::Display for K8sError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            K8sError::UnknownService(name) => {
                write!(f, "pod template for unknown service {name:?}")
            }
            K8sError::NoNodes => write!(f, "plane has no nodes"),
            K8sError::Topology(msg) => write!(f, "topology rebuild failed: {msg}"),
        }
    }
}

impl std::error::Error for K8sError {}

impl From<TopologyError> for K8sError {
    fn from(e: TopologyError) -> Self {
        K8sError::Topology(e.to_string())
    }
}

impl K8sPlane {
    /// An empty plane: no templates, no pools, default policy.
    pub fn new() -> Self {
        K8sPlane::default()
    }

    /// Adds a node pool, returning `self`.
    pub fn pool(mut self, count: usize, cores: f64, mem_bytes: u64) -> Self {
        self.pools.push(NodePool {
            count,
            cores,
            mem_bytes,
        });
        self
    }

    /// Attaches a pod template to the named service, returning `self`.
    /// Later templates for the same name override earlier ones.
    pub fn pod(mut self, service: impl Into<String>, template: PodTemplate) -> Self {
        let name = service.into();
        if let Some(entry) = self.templates.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = template;
        } else {
            self.templates.push((name, template));
        }
        self
    }

    /// Sets the eviction policy, returning `self`.
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The effective eviction policy (defaults when unset).
    pub fn effective_policy(&self) -> EvictionPolicy {
        self.policy.unwrap_or_default()
    }

    /// Total node count across pools.
    pub fn node_count(&self) -> usize {
        self.pools.iter().map(|p| p.count).sum()
    }

    /// The attached `(service name, template)` pairs, in insertion order.
    pub fn templates(&self) -> &[(String, PodTemplate)] {
        &self.templates
    }

    /// The attached node pools, in insertion order.
    pub fn pools(&self) -> &[NodePool] {
        &self.pools
    }

    fn template_of(&self, name: &str) -> Option<&PodTemplate> {
        self.templates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Checks every template names a real service.
    fn check_names(&self, topo: &Topology) -> Result<(), K8sError> {
        for (name, _) in &self.templates {
            if !topo.services().iter().any(|s| &s.name == name) {
                return Err(K8sError::UnknownService(name.clone()));
            }
        }
        Ok(())
    }

    /// Rebuilds the topology with each templated service's
    /// [`ResourceSpec`] attached (services without a template keep
    /// whatever they had).
    ///
    /// # Errors
    ///
    /// [`K8sError::UnknownService`] if a template names a missing
    /// service; [`K8sError::Topology`] if the rebuilt topology fails
    /// validation (e.g. an invalid spec).
    pub fn annotate(&self, topo: Topology) -> Result<Topology, K8sError> {
        self.check_names(&topo)?;
        let classes = topo.classes().to_vec();
        let services = topo
            .services()
            .iter()
            .map(
                |s| match self.template_of(&s.name).and_then(|t| t.resources) {
                    Some(spec) => s.clone().with_resources(spec),
                    None => s.clone(),
                },
            )
            .collect();
        Ok(Topology::new(services, classes)?)
    }

    /// Lowers the plane into an engine [`MemPlan`] for `topo` (profiles
    /// are keyed by service *name* here, by index there).
    ///
    /// # Errors
    ///
    /// [`K8sError::UnknownService`] on a dangling template name,
    /// [`K8sError::NoNodes`] when no pool contributes a node.
    pub fn mem_plan(&self, topo: &Topology) -> Result<MemPlan, K8sError> {
        self.check_names(topo)?;
        let nodes: Vec<NodeMemCfg> = self
            .pools
            .iter()
            .flat_map(|p| std::iter::repeat_n(NodeMemCfg::new(p.mem_bytes), p.count))
            .collect();
        if nodes.is_empty() {
            return Err(K8sError::NoNodes);
        }
        let policy = self.effective_policy();
        let mut plan = MemPlan::new(nodes)
            .with_check_interval(policy.check_interval)
            .with_restart_delay(policy.restart_delay)
            .with_thresholds(
                policy.pressure_threshold,
                policy.interference_threshold,
                policy.interference_factor,
            );
        for (i, svc) in topo.services().iter().enumerate() {
            if let Some(profile) = self.template_of(&svc.name).and_then(|t| t.profile) {
                plan = plan.with_profile(i, profile);
            }
        }
        Ok(plan)
    }

    /// Annotate-free installation: builds the [`MemPlan`] against the
    /// simulation's own topology and installs it.
    ///
    /// # Errors
    ///
    /// Same as [`mem_plan`](Self::mem_plan).
    ///
    /// # Panics
    ///
    /// Panics if the simulation already has a memory plane.
    pub fn install(&self, sim: &mut Simulation) -> Result<(), K8sError> {
        let plan = self.mem_plan(sim.topology())?;
        sim.install_memory_plane(&plan);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_sim::prelude::*;

    fn topo() -> Topology {
        let services = vec![
            ServiceCfg::new("front", 2.0).with_replicas(2),
            ServiceCfg::new("back", 4.0),
        ];
        let root = CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
            EdgeKind::NestedRpc,
            CallNode::leaf(ServiceId(1), WorkDist::Constant(0.001)),
        );
        Topology::new(
            services,
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root,
            }],
        )
        .unwrap()
    }

    fn plane() -> K8sPlane {
        K8sPlane::new()
            .pool(2, 8.0, 32 * GIB)
            .pool(1, 16.0, 64 * GIB)
            .pod(
                "front",
                PodTemplate::guaranteed(2.0, GIB).with_memory(256 * MIB, MIB),
            )
            .pod(
                "back",
                PodTemplate::burstable(1.0, 4.0, 512 * MIB, 2 * GIB)
                    .with_memory(128 * MIB, 2 * MIB)
                    .with_leak(1024.0),
            )
    }

    #[test]
    fn templates_derive_kubelet_qos() {
        assert_eq!(
            PodTemplate::guaranteed(1.0, GIB).qos_class(),
            QosClass::Guaranteed
        );
        assert_eq!(
            PodTemplate::burstable(0.5, 2.0, GIB, 2 * GIB).qos_class(),
            QosClass::Burstable
        );
        assert_eq!(PodTemplate::best_effort().qos_class(), QosClass::BestEffort);
    }

    #[test]
    fn annotate_attaches_specs_by_name() {
        let topo = plane().annotate(topo()).unwrap();
        assert_eq!(topo.services()[0].qos_class(), Some(QosClass::Guaranteed));
        assert_eq!(topo.services()[1].qos_class(), Some(QosClass::Burstable));
        // Un-templated services stay untouched.
        let partial = K8sPlane::new()
            .pool(1, 8.0, GIB)
            .pod("front", PodTemplate::guaranteed(2.0, GIB));
        let topo = partial.annotate(topo).unwrap();
        // "back" keeps the spec from the earlier annotation.
        assert_eq!(topo.services()[1].qos_class(), Some(QosClass::Burstable));
    }

    #[test]
    fn mem_plan_lowers_names_to_indices() {
        let t = topo();
        let plan = plane().mem_plan(&t).unwrap();
        assert_eq!(plan.nodes.len(), 3);
        assert_eq!(plan.nodes[0].mem_bytes, 32 * GIB);
        assert_eq!(plan.nodes[2].mem_bytes, 64 * GIB);
        assert_eq!(plan.profiles.len(), 2);
        let back = plan.profiles.iter().find(|(i, _)| *i == 1).unwrap();
        assert_eq!(back.1.baseline_bytes, 128 * MIB);
        assert_eq!(back.1.growth_bytes_per_sec, 1024.0);
    }

    #[test]
    fn install_arms_the_simulation() {
        let topo = plane().annotate(topo()).unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 1);
        plane().install(&mut sim).unwrap();
        assert!(sim.memory_plane_installed());
        let st = sim.memory_plane().unwrap();
        assert_eq!(st.nodes.len(), 3);
        assert_eq!(st.qos[0], QosClass::Guaranteed);
    }

    #[test]
    fn errors_are_specific() {
        let t = topo();
        let dangling = plane().pod("ghost", PodTemplate::best_effort());
        assert_eq!(
            dangling.mem_plan(&t),
            Err(K8sError::UnknownService("ghost".into()))
        );
        let nodeless = K8sPlane::new().pod("front", PodTemplate::best_effort());
        assert_eq!(nodeless.mem_plan(&t), Err(K8sError::NoNodes));
    }

    #[test]
    fn pod_overrides_replace_by_name() {
        let p = K8sPlane::new()
            .pool(1, 4.0, GIB)
            .pod("front", PodTemplate::best_effort())
            .pod("front", PodTemplate::guaranteed(1.0, GIB));
        assert_eq!(
            p.template_of("front").unwrap().qos_class(),
            QosClass::Guaranteed
        );
        assert_eq!(p.templates.len(), 1);
    }
}
