//! Isolated per-service harnesses (paper Fig. 3).
//!
//! Both the backpressure profiling engine (§III) and the LPR exploration
//! (Algorithm 1) study one microservice at a time. This module extracts a
//! service's per-class work profile from an application [`Topology`] and
//! builds a small simulation around it: a high-concurrency proxy tier that
//! forwards requests to the tested service (nested RPC for RPC-reached
//! classes, message queue for MQ-reached classes), mirroring the paper's
//! proxy harness and its synthesized aggregate loads.

use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::topology::{
    CallNode, ClassCfg, ClassId, EdgeKind, Priority, ServiceCfg, ServiceId, Topology, WorkDist,
};
use ursa_sim::workload::RateFn;

/// One request class's behaviour at a single service.
#[derive(Debug, Clone)]
pub struct ClassWork {
    /// Class index in the original application topology.
    pub class: ClassId,
    /// Class name (diagnostics).
    pub name: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// True if the class reaches this service through a message queue.
    pub via_mq: bool,
    /// Compute before downstream calls (downstream calls themselves are
    /// excluded from per-service latency and therefore from the harness).
    pub pre: WorkDist,
    /// Compute after downstream calls.
    pub post: WorkDist,
    /// Arrival rate of this class at this service (requests/second).
    pub rate: f64,
    /// Call-tree nodes of this class on this service (visit multiplicity).
    pub visits: f64,
}

/// A service's extracted profile: configuration plus per-class work.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Service name in the application.
    pub name: String,
    /// The service's per-replica configuration (workers, daemons, cores).
    pub cfg: ServiceCfg,
    /// Per-class work and load (classes that never touch the service are
    /// omitted).
    pub per_class: Vec<ClassWork>,
}

impl ServiceProfile {
    /// Extracts the profile of `service` from an application topology.
    ///
    /// `class_rates[j]` is the application-level arrival rate of class `j`;
    /// the per-service rate counts one arrival per call-tree node of the
    /// class on this service.
    ///
    /// # Panics
    ///
    /// Panics if `class_rates.len()` differs from the topology's class count.
    pub fn extract(topology: &Topology, service: ServiceId, class_rates: &[f64]) -> Self {
        assert_eq!(
            class_rates.len(),
            topology.num_classes(),
            "rate vector mismatch"
        );
        let nodes = topology.nodes_on_service(service);
        let mut per_class: Vec<ClassWork> = Vec::new();
        for (class, node, via) in nodes {
            let rate = class_rates[class.0];
            let cfg = &topology.classes()[class.0];
            // Multiple visits by one class are modelled as additional rate
            // on the same work profile (paper §IV: cumulative latency).
            if let Some(existing) = per_class.iter_mut().find(|c| c.class == class) {
                existing.rate += rate;
                existing.visits += 1.0;
                continue;
            }
            per_class.push(ClassWork {
                class,
                name: cfg.name.clone(),
                priority: cfg.priority,
                via_mq: matches!(via, Some(EdgeKind::Mq)),
                pre: node.pre_work.clone(),
                post: node.post_work.clone(),
                rate,
                visits: 1.0,
            });
        }
        ServiceProfile {
            name: topology.services()[service.0].name.clone(),
            cfg: topology.services()[service.0].clone(),
            per_class,
        }
    }

    /// Mean CPU demand of the aggregate load in cores
    /// (`Σ_j rate_j · E[work_j]`).
    pub fn cpu_demand(&self) -> f64 {
        self.per_class
            .iter()
            .map(|c| c.rate * (c.pre.mean() + c.post.mean()))
            .sum()
    }

    /// Total arrival rate across classes.
    pub fn total_rate(&self) -> f64 {
        self.per_class.iter().map(|c| c.rate).sum()
    }
}

/// An isolated proxy → tested-service simulation.
#[derive(Debug)]
pub struct IsolatedHarness {
    sim: Simulation,
    /// Classes of the harness, aligned with `ServiceProfile::per_class`.
    n_classes: usize,
}

/// The proxy tier's index inside the harness topology.
pub const PROXY: ServiceId = ServiceId(0);
/// The tested service's index inside the harness topology.
pub const TESTED: ServiceId = ServiceId(1);

impl IsolatedHarness {
    /// Builds the harness: a generously provisioned proxy forwarding every
    /// class to the tested service (nested RPC or MQ according to how the
    /// class reaches the service in the application), with the tested
    /// service at `replicas` replicas, `work_scale` applied to its service
    /// times, and arrivals at `rate_scale ×` the profile's rates.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no classes.
    pub fn build(
        profile: &ServiceProfile,
        replicas: usize,
        work_scale: f64,
        rate_scale: f64,
        seed: u64,
    ) -> Self {
        assert!(!profile.per_class.is_empty(), "profile has no classes");
        let proxy = ServiceCfg::new("proxy", 8.0)
            .with_workers(1 << 16)
            .with_replicas(1);
        let mut tested = profile.cfg.clone();
        tested.name = "tested".into();
        tested.initial_replicas = replicas.max(1);
        let classes: Vec<ClassCfg> = profile
            .per_class
            .iter()
            .map(|c| {
                let edge = if c.via_mq {
                    EdgeKind::Mq
                } else {
                    EdgeKind::NestedRpc
                };
                ClassCfg {
                    name: c.name.clone(),
                    priority: c.priority,
                    root: CallNode::leaf(PROXY, WorkDist::Constant(5e-5)).with_child(
                        edge,
                        CallNode::leaf(TESTED, c.pre.clone()).with_post_work(c.post.clone()),
                    ),
                }
            })
            .collect();
        let topo = Topology::new(vec![proxy, tested], classes).expect("harness topology is valid");
        let mut sim = Simulation::new(topo, SimConfig::default(), seed);
        sim.set_work_scale(TESTED, work_scale);
        for (i, c) in profile.per_class.iter().enumerate() {
            sim.set_rate(ClassId(i), RateFn::Constant(c.rate * rate_scale));
        }
        IsolatedHarness {
            sim,
            n_classes: profile.per_class.len(),
        }
    }

    /// The underlying simulation (e.g. to adjust CPU limits or replicas).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Number of harness classes.
    pub fn num_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_sim::time::SimDur;

    #[test]
    fn harness_tracing_passthrough() {
        let app = social_network(false);
        let rates: Vec<f64> = app.mix.iter().map(|w| w * 50.0).collect();
        let ps = app.service("post-store").unwrap();
        let profile = ServiceProfile::extract(&app.topology, ps, &rates);
        let mut h = IsolatedHarness::build(&profile, 2, 1.0, 1.0, 9);
        h.sim_mut().enable_tracing(10_000, 1.0);
        h.sim_mut().run_for(SimDur::from_secs(5));
        let traces = h.sim_mut().take_traces();
        assert!(!traces.is_empty());
        assert!(traces.iter().all(|t| t.root().service == PROXY));
        assert!(traces
            .iter()
            .any(|t| t.spans.iter().any(|s| s.service == TESTED)));
    }

    #[test]
    fn extracts_profile_with_rates() {
        let app = social_network(false);
        let rates: Vec<f64> = app.mix.iter().map(|w| w * 2.0).collect();
        let ps = app.service("post-store").unwrap();
        let profile = ServiceProfile::extract(&app.topology, ps, &rates);
        assert_eq!(profile.name, "post-store");
        // upload-post, read-timeline, update-timeline all touch post-store.
        assert!(profile.per_class.len() >= 3);
        assert!(profile.cpu_demand() > 0.0);
        let names: Vec<&str> = profile.per_class.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"upload-post"));
    }

    #[test]
    fn mq_reached_classes_marked() {
        let app = social_network(false);
        let det = app.service("object-detect").unwrap();
        let profile = ServiceProfile::extract(&app.topology, det, &vec![1.0; app.mix.len()]);
        assert!(profile.per_class.iter().all(|c| c.via_mq));
    }

    #[test]
    fn harness_runs_and_measures_tested_service() {
        let app = social_network(false);
        let ps = app.service("post-store").unwrap();
        let rates: Vec<f64> = app.mix.clone();
        let profile = ServiceProfile::extract(&app.topology, ps, &rates);
        let mut h = IsolatedHarness::build(&profile, 1, 1.0, 1.0, 3);
        h.sim_mut().run_for(SimDur::from_secs(60));
        let snap = h.sim_mut().harvest();
        // The tested service saw traffic for each harness class.
        for i in 0..h.num_classes() {
            assert!(
                snap.services[TESTED.0].arrivals[i] > 0,
                "class {i} not observed"
            );
            assert!(!snap.services[TESTED.0].tier_latency[i].is_empty());
        }
        assert!(snap.services[TESTED.0].cpu_utilization > 0.0);
    }

    #[test]
    fn work_scale_applies_to_tested() {
        let app = social_network(false);
        let det = app.service("object-detect").unwrap();
        let mut rates = vec![0.0; app.mix.len()];
        rates[app.class("object-detect").unwrap().0] = 1.0;
        let profile = ServiceProfile::extract(&app.topology, det, &rates);
        let run = |scale: f64| {
            let mut h = IsolatedHarness::build(&profile, 4, scale, 1.0, 5);
            h.sim_mut().run_for(SimDur::from_secs(120));
            let snap = h.sim_mut().harvest();
            let idx = profile
                .per_class
                .iter()
                .position(|c| c.name == "object-detect")
                .unwrap();
            snap.services[TESTED.0].tier_latency[idx].mean().unwrap()
        };
        let full = run(1.0);
        let light = run(0.25);
        assert!(light < full * 0.5, "{full} -> {light}");
    }
}
