//! Control-plane abstractions and the deployment driver.
//!
//! [`ControlPlane`] is the actuation surface a resource manager sees —
//! replica counts and CPU limits, mirroring the Kubernetes APIs Ursa uses
//! in the paper (§V). [`ResourceManager`] is the common interface behind
//! which Ursa, Sinan-style, Firm-style, and autoscaling controllers all
//! plug into the same experiment driver, [`run_deployment`].

use crate::engine::Simulation;
use crate::telemetry::MetricsSnapshot;
use crate::time::{SimDur, SimTime};
use crate::topology::{ClassId, ServiceId};

/// An end-to-end latency SLA for one request class (paper Tables II–IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// The request class this SLA constrains.
    pub class: ClassId,
    /// The constrained percentile (e.g. 99.0, or 50.0 for the pipeline's
    /// low-priority class).
    pub percentile: f64,
    /// Latency target in seconds.
    pub target: f64,
}

impl Sla {
    /// Creates an SLA on the given percentile of `class` with `target`
    /// seconds.
    pub fn new(class: ClassId, percentile: f64, target: f64) -> Self {
        assert!((0.0..=100.0).contains(&percentile));
        assert!(target > 0.0);
        Sla {
            class,
            percentile,
            target,
        }
    }

    /// The window's end-to-end latency of this SLA's class at its
    /// percentile, or `None` when the class completed nothing in it.
    pub fn window_latency(&self, snapshot: &MetricsSnapshot) -> Option<f64> {
        snapshot.e2e_latency[self.class.0].percentile(self.percentile)
    }

    /// The window verdict every violation number counts: the window's
    /// latency at the SLA percentile exceeds the target (`None` when the
    /// class completed nothing in the window).
    pub fn violated_in(&self, snapshot: &MetricsSnapshot) -> Option<bool> {
        self.window_latency(snapshot).map(|lat| lat > self.target)
    }
}

/// Actuation interface offered to resource managers.
pub trait ControlPlane {
    /// Current simulated time (timestamps the manager's decision log).
    fn now(&self) -> SimTime;
    /// Number of services in the application.
    fn num_services(&self) -> usize;
    /// Human-readable service name.
    fn service_name(&self, service: ServiceId) -> String;
    /// Live replica count.
    fn replicas(&self, service: ServiceId) -> usize;
    /// Sets the replica count (graceful drain on scale-in).
    fn set_replicas(&mut self, service: ServiceId, n: usize);
    /// CPU cores per replica.
    fn cpu_limit(&self, service: ServiceId) -> f64;
    /// Sets the per-replica CPU limit.
    fn set_cpu_limit(&mut self, service: ServiceId, cores: f64);
    /// Total CPU cores currently allocated across all services.
    fn total_allocated_cores(&self) -> f64;
}

impl ControlPlane for Simulation {
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }
    fn num_services(&self) -> usize {
        self.topology().num_services()
    }
    fn service_name(&self, service: ServiceId) -> String {
        self.topology().services()[service.0].name.clone()
    }
    fn replicas(&self, service: ServiceId) -> usize {
        Simulation::replicas(self, service)
    }
    fn set_replicas(&mut self, service: ServiceId, n: usize) {
        Simulation::set_replicas(self, service, n);
    }
    fn cpu_limit(&self, service: ServiceId) -> f64 {
        Simulation::cpu_limit(self, service)
    }
    fn set_cpu_limit(&mut self, service: ServiceId, cores: f64) {
        Simulation::set_cpu_limit(self, service, cores);
    }
    fn total_allocated_cores(&self) -> f64 {
        Simulation::total_allocated_cores(self)
    }
}

/// A resource management policy invoked on every control tick.
pub trait ResourceManager {
    /// Short identifier used in experiment output ("ursa", "sinan", ...).
    fn name(&self) -> &str;
    /// Reacts to the latest metrics window by actuating the control plane.
    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane);
    /// Self-profiling series exported after each tick when the run is
    /// metered (see [`crate::metrics::SimMetrics::observe_decision`]):
    /// `(metric name, value)` pairs labeled with the manager's name. Names
    /// ending in `_total` are treated as cumulative counters, everything
    /// else as gauges. The default exports nothing.
    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Downcast hook for callers that hold a `&dyn ResourceManager` and
    /// need manager-specific state (fig9/10's observer reads Ursa's latency
    /// estimate through this, the ledger's control workload its decision
    /// log). The default opts out; managers with inspectable state return
    /// `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Observer hook on the deployment driver: how a caller reads each window
/// of a run without writing its own deployment loop (fig9/10 pairs
/// measured latency with Ursa's estimate, `examples/video_pipeline.rs`
/// keeps every latency sample).
///
/// The observer is called strictly *after* the window has simulated, the
/// manager has ticked, and (when metered) the metrics collector has
/// scraped. It sees the manager and the window's snapshot through `&`
/// only, so it can never perturb the run.
pub trait DeployObserver {
    /// Called once per control window, after the manager's tick.
    fn after_tick(&mut self, manager: &dyn ResourceManager, snapshot: &MetricsSnapshot);
}

/// A manager that never changes anything (static allocation baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticManager;

impl ResourceManager for StaticManager {
    fn name(&self) -> &str {
        "static"
    }
    fn on_tick(&mut self, _snapshot: &MetricsSnapshot, _control: &mut dyn ControlPlane) {}
}

/// Configuration of a managed deployment run.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Total simulated run length.
    pub duration: SimDur,
    /// Metrics/actuation interval (paper: one sample per minute).
    pub control_interval: SimDur,
    /// Initial span excluded from the report (manager still runs).
    pub warmup: SimDur,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            duration: SimDur::from_mins(30),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        }
    }
}

/// Per-window observations retained by the deployment driver.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Window end time.
    pub at: SimTime,
    /// Per-class latency at the SLA percentile (None if no completions).
    pub class_latency: Vec<Option<f64>>,
    /// Per-class SLA violation in this window (None if no completions).
    pub class_violation: Vec<Option<bool>>,
    /// Per-class offered load (requests/second).
    pub class_rps: Vec<f64>,
    /// Per-service live replica counts.
    pub service_replicas: Vec<usize>,
    /// Per-service arrival rate (requests/second).
    pub service_rps: Vec<f64>,
    /// Per-service CPU utilization in `[0, 1]`.
    pub service_cpu_util: Vec<f64>,
    /// Total allocated CPU cores at window end.
    pub total_cores: f64,
}

/// Outcome of a managed deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// SLAs the run was evaluated against.
    pub slas: Vec<Sla>,
    /// One record per post-warmup control window.
    pub records: Vec<WindowRecord>,
    /// Mean wall-clock cost of one manager decision, in milliseconds.
    pub decision_wall_ms: f64,
}

impl DeploymentReport {
    /// Fraction of windows in which `class` violated its SLA
    /// (windows without completions are excluded).
    pub fn class_violation_rate(&self, class: ClassId) -> f64 {
        let mut violated = 0usize;
        let mut total = 0usize;
        for rec in &self.records {
            if let Some(v) = rec.class_violation[class.0] {
                total += 1;
                if v {
                    violated += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            violated as f64 / total as f64
        }
    }

    /// Mean violation rate across all SLA-constrained classes.
    pub fn overall_violation_rate(&self) -> f64 {
        if self.slas.is_empty() {
            return 0.0;
        }
        self.slas
            .iter()
            .map(|s| self.class_violation_rate(s.class))
            .sum::<f64>()
            / self.slas.len() as f64
    }

    /// Time-averaged total CPU allocation in cores (0 with no windows).
    pub fn avg_cpu_allocation(&self) -> f64 {
        let n = self.records.len();
        if n == 0 {
            return 0.0;
        }
        self.records.iter().map(|r| r.total_cores).sum::<f64>() / n as f64
    }
}

/// Runs a managed deployment: alternates simulation windows with manager
/// decisions, recording SLA compliance and resource usage.
///
/// The caller sets arrival rates on `sim` beforehand. Warmup windows tick
/// the manager but are excluded from the report.
pub fn run_deployment(
    sim: &mut Simulation,
    slas: &[Sla],
    manager: &mut dyn ResourceManager,
    cfg: &DeployConfig,
) -> DeploymentReport {
    run_deployment_observed(sim, slas, manager, cfg, None, None)
}

/// [`run_deployment`] with an optional metrics collector and an optional
/// [`DeployObserver`].
///
/// When `metrics` is given, every harvest window is scraped into it
/// (utilization, latency percentiles, SLA verdicts), each manager tick is
/// wall-clock timed and its [`self_profile`](ResourceManager::self_profile)
/// exported, and replica changes become `scale` annotations. The collector
/// observes the simulation only through pure accessors *after* each window
/// has run, so the simulated outcome is bit-identical with `None` (see
/// `metered_and_unmetered_runs_are_identical` in `crate::metrics`).
///
/// The observer is invoked after every control window. It too reads the
/// run through `&` only, so the simulated outcome is bit-identical with
/// `None`.
pub fn run_deployment_observed(
    sim: &mut Simulation,
    slas: &[Sla],
    manager: &mut dyn ResourceManager,
    cfg: &DeployConfig,
    mut metrics: Option<&mut crate::metrics::SimMetrics>,
    mut observer: Option<&mut dyn DeployObserver>,
) -> DeploymentReport {
    let num_classes = sim.topology().num_classes();
    let num_services = sim.topology().num_services();
    let mut sla_of_class: Vec<Option<Sla>> = vec![None; num_classes];
    for sla in slas {
        sla_of_class[sla.class.0] = Some(*sla);
    }
    let mut records = Vec::new();
    let mut decision_nanos = 0u128;
    let mut decisions = 0u64;

    let end = sim.now() + cfg.duration;
    let warm_until = sim.now() + cfg.warmup;
    while sim.now() < end {
        sim.run_for(cfg.control_interval);
        let snapshot = sim.harvest();
        if let Some(m) = metrics.as_mut() {
            m.observe_snapshot(sim, &snapshot);
        }
        let in_warmup = snapshot.at <= warm_until;
        if !in_warmup {
            let mut class_latency = vec![None; num_classes];
            let mut class_violation = vec![None; num_classes];
            let mut class_rps = vec![0.0; num_classes];
            for c in 0..num_classes {
                class_rps[c] = snapshot.class_rps(ClassId(c));
                if let Some(sla) = sla_of_class[c] {
                    class_latency[c] = sla.window_latency(&snapshot);
                    class_violation[c] = sla.violated_in(&snapshot);
                }
            }
            records.push(WindowRecord {
                at: snapshot.at,
                class_latency,
                class_violation,
                class_rps,
                service_replicas: snapshot.services.iter().map(|s| s.replicas).collect(),
                service_rps: (0..num_services)
                    .map(|s| snapshot.services[s].arrival_rps(snapshot.window))
                    .collect(),
                service_cpu_util: snapshot
                    .services
                    .iter()
                    .map(|s| s.cpu_utilization)
                    .collect(),
                total_cores: sim.total_allocated_cores(),
            });
        }
        // Replica counts before the tick, for scale-event detection. Only
        // read when metered; wall-clock time never feeds back into the sim.
        let before: Option<Vec<usize>> = metrics.as_ref().map(|_| {
            (0..num_services)
                .map(|s| Simulation::replicas(sim, ServiceId(s)))
                .collect()
        });
        let t0 = std::time::Instant::now();
        manager.on_tick(&snapshot, sim);
        let wall = t0.elapsed();
        decision_nanos += wall.as_nanos();
        decisions += 1;
        if let Some(m) = metrics.as_mut() {
            let before = before.expect("captured when metered");
            let changes: Vec<(String, usize, usize)> = (0..num_services)
                .filter_map(|s| {
                    let after = Simulation::replicas(sim, ServiceId(s));
                    (after != before[s])
                        .then(|| (sim.topology().services()[s].name.clone(), before[s], after))
                })
                .collect();
            m.observe_decision(
                snapshot.at,
                wall.as_secs_f64() * 1e3,
                &manager.self_profile(),
                &changes,
            );
            m.scrape(snapshot.at);
        }
        if let Some(obs) = observer.as_deref_mut() {
            obs.after_tick(&*manager, &snapshot);
        }
    }
    DeploymentReport {
        slas: slas.to_vec(),
        records,
        decision_wall_ms: if decisions > 0 {
            decision_nanos as f64 / decisions as f64 / 1e6
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, Topology, WorkDist};
    use crate::workload::RateFn;

    fn sim() -> Simulation {
        let topo = Topology::new(
            vec![ServiceCfg::new("svc", 2.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
            }],
        )
        .unwrap();
        Simulation::new(topo, SimConfig::default(), 3)
    }

    #[test]
    fn control_plane_roundtrip() {
        let mut s = sim();
        let cp: &mut dyn ControlPlane = &mut s;
        assert_eq!(cp.num_services(), 1);
        assert_eq!(cp.service_name(ServiceId(0)), "svc");
        cp.set_replicas(ServiceId(0), 3);
        assert_eq!(cp.replicas(ServiceId(0)), 3);
        cp.set_cpu_limit(ServiceId(0), 1.5);
        assert!((cp.cpu_limit(ServiceId(0)) - 1.5).abs() < 1e-12);
        assert!((cp.total_allocated_cores() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn deployment_report_static_manager() {
        let mut s = sim();
        s.set_rate(ClassId(0), RateFn::Constant(200.0));
        let slas = [Sla::new(ClassId(0), 99.0, 0.100)];
        let cfg = DeployConfig {
            duration: SimDur::from_mins(10),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        };
        let report = run_deployment(&mut s, &slas, &mut StaticManager, &cfg);
        assert_eq!(report.records.len(), 8); // 10 windows - 2 warmup
                                             // Comfortably provisioned: rho = 0.2, SLA should hold.
        assert_eq!(report.overall_violation_rate(), 0.0);
        assert!((report.avg_cpu_allocation() - 2.0).abs() < 1e-12);
        assert!(report.decision_wall_ms >= 0.0);
    }

    #[test]
    fn deployment_detects_violations_when_underprovisioned() {
        let mut s = sim();
        s.set_rate(ClassId(0), RateFn::Constant(1400.0)); // rho = 1.4 on 2 cores
        let slas = [Sla::new(ClassId(0), 99.0, 0.050)];
        let cfg = DeployConfig {
            duration: SimDur::from_mins(6),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(1),
        };
        let report = run_deployment(&mut s, &slas, &mut StaticManager, &cfg);
        assert!(
            report.overall_violation_rate() > 0.9,
            "rate {}",
            report.overall_violation_rate()
        );
    }

    #[test]
    fn sla_constructor_validates() {
        let sla = Sla::new(ClassId(0), 99.0, 0.5);
        assert_eq!(sla.percentile, 99.0);
    }

    #[test]
    #[should_panic]
    fn sla_rejects_bad_percentile() {
        Sla::new(ClassId(0), 101.0, 0.5);
    }
}
