//! The memory plane: deterministic per-replica memory demand, node
//! capacities, OOM-kill, and QoS-ordered pressure eviction.
//!
//! The simulator's CPU model is *compressible* — an overloaded replica
//! slows down but keeps running. Memory is *incompressible*: a replica
//! whose usage crosses its limit is OOM-killed, and a node whose total
//! usage crosses the pressure threshold evicts replicas in Kubernetes QoS
//! order (BestEffort first, then Burstable, then Guaranteed; ties by
//! highest usage-over-request — the kubelet's ordering). Both are ordinary
//! discrete events in the engine loop ([`MemPlan`] is installed via
//! `Simulation::install_memory_plane`), reusing the chaos plane's
//! graceful-drain/restart machinery.
//!
//! Demand is a deterministic function of observable engine state — no RNG:
//!
//! ```text
//! usage(replica) = baseline_bytes
//!                + per_request_bytes × in-flight requests on the replica
//!                + growth_bytes_per_sec × seconds since replica start
//! ```
//!
//! so identical workloads produce identical OOM/eviction schedules. Like
//! the chaos plane, the whole plane is `Option`-boxed: a simulation
//! without a plan installed is bit-identical to a build without the plane.

use crate::time::{SimDur, SimTime};
use crate::topology::{QosClass, Topology};

/// Interval between usage scans (the kubelet's housekeeping tick).
pub const CHECK_INTERVAL: SimDur = SimDur::from_millis(500);
/// Delay before a killed/evicted replica is restarted.
pub const RESTART_DELAY: SimDur = SimDur::from_secs(10);
/// Node usage fraction above which pressure eviction starts (evictions
/// proceed until usage drops back under it).
pub const PRESSURE_THRESHOLD: f64 = 0.92;
/// Node usage fraction above which co-located services suffer
/// noisy-neighbor CPU interference (paging/reclaim stealing cycles).
pub const INTERFERENCE_THRESHOLD: f64 = 0.80;
/// Service-time multiplier applied while interference is active.
pub const INTERFERENCE_FACTOR: f64 = 1.35;

/// Deterministic per-replica memory demand profile of a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemProfile {
    /// Fixed footprint of an idle replica (code, runtime, caches).
    pub baseline_bytes: u64,
    /// Marginal bytes per in-flight request (buffers, session state).
    pub per_request_bytes: u64,
    /// Optional slow heap growth in bytes/second (0 = none) — the leak
    /// term that makes long-lived replicas drift toward their limit.
    pub growth_bytes_per_sec: f64,
}

impl MemProfile {
    /// A profile with the given baseline and per-request cost, no growth.
    pub const fn new(baseline_bytes: u64, per_request_bytes: u64) -> Self {
        MemProfile {
            baseline_bytes,
            per_request_bytes,
            growth_bytes_per_sec: 0.0,
        }
    }

    /// Adds a slow heap-growth term, returning `self` for chaining.
    pub fn with_growth(mut self, bytes_per_sec: f64) -> Self {
        self.growth_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Usage of a replica with `in_flight` requests that has been alive
    /// for `age` seconds.
    pub fn usage(&self, in_flight: usize, age_secs: f64) -> u64 {
        let grown = (self.growth_bytes_per_sec * age_secs.max(0.0)) as u64;
        self.baseline_bytes + self.per_request_bytes * in_flight as u64 + grown
    }
}

/// A memory-plane plan: which services have demand profiles and the node
/// capacities they share. Scan cadence, restart delay and the kubelet
/// thresholds are this module's constants.
///
/// Replica slot `r` of service `s` lives on node `(s + r) % nodes.len()`
/// — the same synthetic deterministic placement the chaos plane's
/// node-failure faults use.
#[derive(Debug, Clone, PartialEq)]
pub struct MemPlan {
    /// `(service index, profile)` pairs; services without a profile have
    /// zero memory demand and never trigger OOM or eviction.
    pub profiles: Vec<(usize, MemProfile)>,
    /// Allocatable memory of each node, in bytes.
    pub nodes: Vec<u64>,
}

impl MemPlan {
    /// A plan over nodes with the given allocatable bytes, no profiles.
    pub fn new(nodes: Vec<u64>) -> Self {
        MemPlan {
            profiles: Vec::new(),
            nodes,
        }
    }

    /// Attaches a demand profile to a service, returning `self`.
    pub fn with_profile(mut self, service: usize, profile: MemProfile) -> Self {
        self.profiles.push((service, profile));
        self
    }

    /// Structural digest (FNV-1a) for run manifests — same role as
    /// `FaultPlan::digest`.
    pub fn digest(&self) -> u64 {
        let mut h = crate::topology::Fnv::new();
        h.write_usize(self.nodes.len());
        for &bytes in &self.nodes {
            h.write_usize(bytes as usize);
        }
        h.write_usize(self.profiles.len());
        for (s, p) in &self.profiles {
            h.write_usize(*s);
            h.write_usize(p.baseline_bytes as usize);
            h.write_usize(p.per_request_bytes as usize);
            h.write_f64(p.growth_bytes_per_sec);
        }
        // The five constants are still hashed, so plan digests in
        // manifests written when they were plan fields still match.
        h.write_usize(CHECK_INTERVAL.as_nanos() as usize);
        h.write_usize(RESTART_DELAY.as_nanos() as usize);
        h.write_f64(PRESSURE_THRESHOLD);
        h.write_f64(INTERFERENCE_THRESHOLD);
        h.write_f64(INTERFERENCE_FACTOR);
        h.finish()
    }
}

/// What happened in one memory-plane incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEventKind {
    /// A replica crossed its own memory limit and was killed.
    OomKill,
    /// A replica was evicted to relieve node memory pressure.
    Evict,
    /// A killed/evicted replica was restarted.
    Restart,
}

impl MemEventKind {
    /// Stable snake_case label for metrics annotations and tables.
    pub fn label(&self) -> &'static str {
        match self {
            MemEventKind::OomKill => "oom_kill",
            MemEventKind::Evict => "evict",
            MemEventKind::Restart => "restart",
        }
    }
}

/// One memory-plane incident, surfaced through
/// [`MetricsSnapshot`](crate::telemetry::MetricsSnapshot) like the chaos
/// plane's `FaultEvent`s.
#[derive(Debug, Clone, PartialEq)]
pub struct MemEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: MemEventKind,
    /// The service whose replica was affected.
    pub service: usize,
    /// The node the replica lived on (by the synthetic placement).
    pub node: usize,
    /// QoS class of the affected service.
    pub qos: QosClass,
    /// Replica usage at the time, in bytes.
    pub usage_bytes: u64,
}

impl MemEvent {
    /// One-line human-readable label.
    pub fn label(&self) -> String {
        format!(
            "{} svc {} node {} ({}, {} MiB)",
            self.kind.label(),
            self.service,
            self.node,
            self.qos.label(),
            self.usage_bytes >> 20
        )
    }
}

/// Per-window memory statistics attached to a
/// [`MetricsSnapshot`](crate::telemetry::MetricsSnapshot) when the plane
/// is installed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemSnapshot {
    /// Per-node memory utilization at the last scan, in `[0, ∞)`
    /// (values above 1 mean overcommit).
    pub node_util: Vec<f64>,
    /// OOM-kills during the window.
    pub oom_kills: u64,
    /// Pressure evictions during the window, indexed by QoS tier in
    /// eviction order (`[BestEffort, Burstable, Guaranteed]`).
    pub evictions: [u64; 3],
    /// Per-service seconds spent under noisy-neighbor CPU interference
    /// during the window (the compressible analog of throttling).
    pub throttle_secs: Vec<f64>,
    /// Incidents during the window, in order.
    pub events: Vec<MemEvent>,
}

/// One replica considered for pressure eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimCandidate {
    /// Service index.
    pub service: usize,
    /// Replica slot index.
    pub replica: usize,
    /// QoS class of the service.
    pub qos: QosClass,
    /// Current memory usage in bytes.
    pub usage_bytes: u64,
    /// Declared memory request in bytes (0 when none declared).
    pub request_bytes: u64,
    /// False when the replica cannot be killed (its service would drop
    /// to zero live replicas — the engine always keeps one alive).
    pub evictable: bool,
}

impl VictimCandidate {
    /// The kubelet's secondary sort key: how far usage exceeds the
    /// request, relatively. Replicas without a declared request are
    /// entirely "over" their request.
    fn usage_over_request(&self) -> f64 {
        self.usage_bytes as f64 / self.request_bytes.max(1) as f64
    }
}

/// Picks the next eviction victim with the kubelet's ordering: lowest QoS
/// tier first (BestEffort before Burstable before Guaranteed), then
/// highest usage-over-request, then lowest `(service, replica)` index for
/// determinism. Returns an index into `candidates`, or `None` when
/// nothing is evictable.
pub fn select_victim(candidates: &[VictimCandidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.evictable)
        .min_by(|(_, a), (_, b)| {
            a.qos
                .cmp(&b.qos)
                .then(
                    b.usage_over_request()
                        .partial_cmp(&a.usage_over_request())
                        .expect("finite ratios"),
                )
                .then(a.service.cmp(&b.service))
                .then(a.replica.cmp(&b.replica))
        })
        .map(|(i, _)| i)
}

/// Engine-side state of the installed memory plane (the payload behind
/// `Simulation`'s `Option<Box<MemState>>`; same pattern as `ChaosState`).
#[derive(Debug)]
pub(crate) struct MemState {
    /// Dense per-service profiles (`None` = zero demand).
    pub profiles: Vec<Option<MemProfile>>,
    /// Per-service memory limit in bytes (0 = unlimited).
    pub limits: Vec<u64>,
    /// Per-service memory request in bytes (0 = none declared).
    pub requests: Vec<u64>,
    /// Per-service QoS class (BestEffort when no spec is attached).
    pub qos: Vec<QosClass>,
    /// Node capacities in bytes.
    pub nodes: Vec<u64>,
    /// Current per-service interference multiplier (1.0 = none). Composes
    /// multiplicatively with the chaos plane's slowdown factor in the
    /// engine's PS rate hook.
    pub interf: Vec<f64>,
    /// Per-service, per-replica-slot first-seen times — the age base of
    /// the growth term. Reset on OOM (container restart zeroes the heap).
    pub births: Vec<Vec<Option<SimTime>>>,
    /// Per-node utilization at the last scan.
    pub node_util: Vec<f64>,
    /// Window counter: OOM-kills since the last harvest.
    pub oom_kills: u64,
    /// Window counter: evictions by QoS tier since the last harvest.
    pub evictions: [u64; 3],
    /// Window accumulator: per-service interference seconds.
    pub throttle_secs: Vec<f64>,
    /// Previous scan time (for throttle integration).
    pub last_check: SimTime,
    /// Incidents since the last harvest.
    pub events: Vec<MemEvent>,
}

impl MemState {
    /// Builds plane state for `plan` over `topology` (limits, requests,
    /// and QoS come from each service's
    /// [`ResourceSpec`](crate::topology::ResourceSpec), when attached).
    ///
    /// # Panics
    ///
    /// Panics if the plan has no nodes, a node has no memory, or a
    /// profile references an unknown service.
    pub fn new(plan: &MemPlan, topology: &Topology) -> Self {
        assert!(!plan.nodes.is_empty(), "memory plan needs nodes");
        assert!(
            plan.nodes.iter().all(|&bytes| bytes > 0),
            "node memory must be positive"
        );
        let ns = topology.num_services();
        let mut profiles: Vec<Option<MemProfile>> = vec![None; ns];
        for (s, p) in &plan.profiles {
            assert!(*s < ns, "profile targets service {s}, topology has {ns}");
            profiles[*s] = Some(*p);
        }
        let mut limits = vec![0u64; ns];
        let mut requests = vec![0u64; ns];
        let mut qos = vec![QosClass::BestEffort; ns];
        for (s, cfg) in topology.services().iter().enumerate() {
            if let Some(spec) = &cfg.resources {
                limits[s] = spec.mem_limit;
                requests[s] = spec.mem_request;
                qos[s] = spec.qos_class();
            }
        }
        MemState {
            profiles,
            limits,
            requests,
            qos,
            nodes: plan.nodes.clone(),
            interf: vec![1.0; ns],
            births: vec![Vec::new(); ns],
            node_util: vec![0.0; plan.nodes.len()],
            oom_kills: 0,
            evictions: [0; 3],
            throttle_secs: vec![0.0; ns],
            last_check: SimTime::ZERO,
            events: Vec::new(),
        }
    }

    /// The node hosting replica slot `r` of service `s`: the chaos
    /// plane's synthetic placement, [`node_of`](crate::chaos::node_of),
    /// over this plan's nodes.
    #[inline]
    pub fn node_of(&self, s: usize, r: usize) -> usize {
        crate::chaos::node_of(s, r, self.nodes.len())
    }

    /// Records an incident.
    pub fn record(&mut self, event: MemEvent) {
        self.events.push(event);
    }

    /// Index into the per-tier eviction counters for a QoS class.
    pub fn tier_index(qos: QosClass) -> usize {
        match qos {
            QosClass::BestEffort => 0,
            QosClass::Burstable => 1,
            QosClass::Guaranteed => 2,
        }
    }

    /// Drains the window counters into a [`MemSnapshot`] (called by the
    /// engine's harvest).
    pub fn take_snapshot(&mut self) -> MemSnapshot {
        MemSnapshot {
            node_util: self.node_util.clone(),
            oom_kills: std::mem::take(&mut self.oom_kills),
            evictions: std::mem::take(&mut self.evictions),
            throttle_secs: {
                let mut fresh = vec![0.0; self.throttle_secs.len()];
                std::mem::swap(&mut fresh, &mut self.throttle_secs);
                fresh
            },
            events: std::mem::take(&mut self.events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, Priority, ResourceSpec, ServiceCfg, WorkDist};
    use crate::topology::{ServiceId, Topology};

    fn cand(
        service: usize,
        qos: QosClass,
        usage: u64,
        request: u64,
        evictable: bool,
    ) -> VictimCandidate {
        VictimCandidate {
            service,
            replica: 0,
            qos,
            usage_bytes: usage,
            request_bytes: request,
            evictable,
        }
    }

    #[test]
    fn victim_selection_follows_qos_order() {
        // A Guaranteed replica hugely over its request still loses to any
        // BestEffort replica: QoS strictly dominates.
        let cands = [
            cand(0, QosClass::Guaranteed, 10 << 30, 1 << 20, true),
            cand(1, QosClass::Burstable, 5 << 30, 1 << 30, true),
            cand(2, QosClass::BestEffort, 1 << 20, 0, true),
        ];
        assert_eq!(select_victim(&cands), Some(2));
        // Without the BestEffort candidate, Burstable goes first.
        assert_eq!(select_victim(&cands[..2]), Some(1));
    }

    #[test]
    fn victim_ties_break_by_usage_over_request() {
        // Same tier: the replica furthest over its request goes first.
        let cands = [
            cand(0, QosClass::Burstable, 2 << 30, 1 << 30, true), // 2x over
            cand(1, QosClass::Burstable, 3 << 30, 1 << 30, true), // 3x over
            cand(2, QosClass::Burstable, 1 << 30, 1 << 30, true), // at request
        ];
        assert_eq!(select_victim(&cands), Some(1));
        // Exact ratio tie: lowest (service, replica) index wins.
        let tied = [
            cand(3, QosClass::Burstable, 2 << 30, 1 << 30, true),
            cand(1, QosClass::Burstable, 2 << 30, 1 << 30, true),
        ];
        assert_eq!(select_victim(&tied), Some(1));
    }

    #[test]
    fn victim_selection_skips_unevictable() {
        let cands = [
            cand(0, QosClass::BestEffort, 4 << 30, 0, false),
            cand(1, QosClass::Guaranteed, 1 << 30, 1 << 30, true),
        ];
        assert_eq!(select_victim(&cands), Some(1));
        assert_eq!(select_victim(&cands[..1]), None);
        assert_eq!(select_victim(&[]), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The kubelet's tier order is strict: no Guaranteed replica is
        /// evicted while a lower-tier one can be, and in general the
        /// victim comes from the lowest tier holding an evictable replica.
        #[test]
        fn victim_comes_from_the_lowest_evictable_tier(
            raw in proptest::collection::vec(
                (0usize..3, 0u64..(4 << 30), 0u64..(2 << 30), proptest::prelude::any::<bool>()),
                0..12,
            ),
        ) {
            let cands: Vec<VictimCandidate> = raw
                .iter()
                .enumerate()
                .map(|(i, &(tier, usage, request, evictable))| {
                    cand(i, QosClass::ALL[tier], usage, request, evictable)
                })
                .collect();
            let lowest = cands.iter().filter(|c| c.evictable).map(|c| c.qos).min();
            let victim = select_victim(&cands);
            proptest::prop_assert_eq!(victim.map(|v| cands[v].qos), lowest);
            if let Some(v) = victim {
                proptest::prop_assert!(cands[v].evictable);
            }
        }
    }

    #[test]
    fn profile_usage_is_deterministic() {
        let p = MemProfile::new(100 << 20, 1 << 20).with_growth(1024.0 * 1024.0);
        assert_eq!(p.usage(0, 0.0), 100 << 20);
        assert_eq!(p.usage(10, 0.0), 110 << 20);
        assert_eq!(p.usage(0, 2.0), 102 << 20);
        // Negative ages clamp (replica first seen after `now` can't shrink).
        assert_eq!(p.usage(0, -5.0), 100 << 20);
    }

    fn topo_with_specs() -> Topology {
        let services = vec![
            ServiceCfg::new("guaranteed", 2.0)
                .with_resources(ResourceSpec::guaranteed(2.0, 1 << 30)),
            ServiceCfg::new("besteffort", 2.0),
        ];
        let classes = vec![ClassCfg {
            name: "c".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }];
        Topology::new(services, classes).unwrap()
    }

    #[test]
    fn state_derives_limits_and_qos_from_topology() {
        let plan =
            MemPlan::new(vec![4 << 30; 2]).with_profile(0, MemProfile::new(1 << 28, 1 << 20));
        let st = MemState::new(&plan, &topo_with_specs());
        assert_eq!(st.limits, vec![1 << 30, 0]);
        assert_eq!(st.requests, vec![1 << 30, 0]);
        assert_eq!(st.qos, vec![QosClass::Guaranteed, QosClass::BestEffort]);
        assert!(st.profiles[0].is_some());
        assert!(st.profiles[1].is_none());
        assert_eq!(st.node_of(0, 0), 0);
        assert_eq!(st.node_of(0, 1), 1);
        assert_eq!(st.node_of(1, 1), 0);
    }

    #[test]
    fn snapshot_drains_window_counters() {
        let plan = MemPlan::new(vec![4 << 30]);
        let mut st = MemState::new(&plan, &topo_with_specs());
        st.oom_kills = 3;
        st.evictions = [2, 1, 0];
        st.throttle_secs[0] = 1.5;
        st.record(MemEvent {
            at: SimTime::ZERO,
            kind: MemEventKind::OomKill,
            service: 0,
            node: 0,
            qos: QosClass::Guaranteed,
            usage_bytes: 2 << 30,
        });
        let snap = st.take_snapshot();
        assert_eq!(snap.oom_kills, 3);
        assert_eq!(snap.evictions, [2, 1, 0]);
        assert_eq!(snap.throttle_secs[0], 1.5);
        assert_eq!(snap.events.len(), 1);
        assert!(snap.events[0].label().contains("oom_kill"));
        let empty = st.take_snapshot();
        assert_eq!(empty.oom_kills, 0);
        assert_eq!(empty.evictions, [0, 0, 0]);
        assert!(empty.events.is_empty());
    }

    #[test]
    fn plan_digest_is_structure_sensitive() {
        let base = MemPlan::new(vec![4 << 30]);
        let same = MemPlan::new(vec![4 << 30]);
        assert_eq!(base.digest(), same.digest());
        let bigger_node = MemPlan::new(vec![8 << 30]);
        assert_ne!(base.digest(), bigger_node.digest());
        let with_profile = base
            .clone()
            .with_profile(0, MemProfile::new(1 << 28, 1 << 20));
        assert_ne!(base.digest(), with_profile.digest());
    }
}
