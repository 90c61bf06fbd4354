//! Threshold autoscaling baselines (paper §VII-B).
//!
//! Two configurations, mirroring the paper:
//!
//! * **Auto-a** — the AWS step-scaling default: add a replica when a
//!   service's CPU utilization exceeds 60 %, remove one below 30 %.
//!   Resource-frugal but SLA-blind (the paper measures > 40 % violations).
//! * **Auto-b** — a manually tuned, conservative configuration that scales
//!   out early and proportionally (HPA-style toward a low utilization
//!   target), preserving SLAs at a large resource premium.

use ursa_sim::control::{ControlPlane, ResourceManager};
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::topology::ServiceId;

/// How scale-out amounts are computed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScalePolicy {
    /// Add/remove one replica per breach (AWS step scaling default).
    Step,
    /// Jump to `ceil(current × utilization / target)` (Kubernetes HPA).
    Proportional {
        /// Utilization the controller steers toward.
        target: f64,
    },
}

/// A per-service CPU-utilization autoscaler.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    name: String,
    /// Scale out above this utilization.
    up_threshold: f64,
    /// Scale in below this utilization.
    down_threshold: f64,
    /// Scale-out policy.
    policy: ScalePolicy,
    /// Consecutive below-threshold windows required before scaling in.
    down_patience: usize,
    below: Vec<usize>,
    scale_outs: u64,
    scale_ins: u64,
}

impl Autoscaler {
    /// The AWS-default configuration the paper calls Auto-a
    /// (60 % up / 30 % down, one-step moves).
    pub fn auto_a(num_services: usize) -> Self {
        Autoscaler {
            name: "auto-a".into(),
            up_threshold: 0.60,
            down_threshold: 0.30,
            policy: ScalePolicy::Step,
            down_patience: 2,
            below: vec![0; num_services],
            scale_outs: 0,
            scale_ins: 0,
        }
    }

    /// The manually tuned, SLA-preserving configuration the paper calls
    /// Auto-b (scale out from 35 % toward a 25 % utilization target, scale
    /// in only below 12 % after sustained quiet).
    pub fn auto_b(num_services: usize) -> Self {
        Autoscaler {
            name: "auto-b".into(),
            up_threshold: 0.35,
            down_threshold: 0.12,
            policy: ScalePolicy::Proportional { target: 0.25 },
            down_patience: 4,
            below: vec![0; num_services],
            scale_outs: 0,
            scale_ins: 0,
        }
    }
}

impl ResourceManager for Autoscaler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane) {
        for s in 0..control.num_services() {
            let util = snapshot.services[s].cpu_utilization;
            let current = control.replicas(ServiceId(s));
            if util > self.up_threshold {
                self.below[s] = 0;
                let desired = match self.policy {
                    ScalePolicy::Step => current + 1,
                    ScalePolicy::Proportional { target } => {
                        ((current as f64 * util / target).ceil() as usize).max(current + 1)
                    }
                };
                self.scale_outs += 1;
                control.set_replicas(ServiceId(s), desired);
            } else if util < self.down_threshold && current > 1 {
                self.below[s] += 1;
                if self.below[s] >= self.down_patience {
                    let desired = match self.policy {
                        ScalePolicy::Step => current - 1,
                        ScalePolicy::Proportional { target } => {
                            ((current as f64 * util / target).ceil() as usize).clamp(1, current - 1)
                        }
                    };
                    self.scale_ins += 1;
                    control.set_replicas(ServiceId(s), desired.max(1));
                    self.below[s] = 0;
                }
            } else {
                self.below[s] = 0;
            }
        }
    }

    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ctrl_scale_outs_total", self.scale_outs as f64),
            ("ctrl_scale_ins_total", self.scale_ins as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_sim::engine::{SimConfig, Simulation};
    use ursa_sim::telemetry::Telemetry;
    use ursa_sim::time::SimTime;
    use ursa_sim::topology::{CallNode, ClassCfg, Priority, ServiceCfg, Topology, WorkDist};

    fn topo() -> Topology {
        Topology::new(
            vec![ServiceCfg::new("svc", 2.0)],
            vec![ClassCfg {
                name: "c".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
            }],
        )
        .unwrap()
    }

    fn snapshot_with_util(topology: &Topology, util: f64) -> MetricsSnapshot {
        let mut t = Telemetry::new(topology);
        t.record_cpu(ServiceId(0), util * 60.0, 60.0);
        t.harvest(
            SimTime::from_secs_f64(60.0),
            &["svc".to_string()],
            &[1],
            &[2.0],
            &[0],
        )
    }

    #[test]
    fn auto_a_steps_up_and_down() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 1);
        sim.set_replicas(ServiceId(0), 3);
        let mut auto = Autoscaler::auto_a(1);
        auto.on_tick(&snapshot_with_util(&topology, 0.8), &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 4);
        // One low window is not enough (patience 2)…
        auto.on_tick(&snapshot_with_util(&topology, 0.1), &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 4);
        auto.on_tick(&snapshot_with_util(&topology, 0.1), &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 3);
    }

    #[test]
    fn auto_b_scales_proportionally() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 2);
        sim.set_replicas(ServiceId(0), 2);
        let mut auto = Autoscaler::auto_b(1);
        // 80% util at 2 replicas, target 25% -> ceil(2*0.8/0.25) = 7.
        auto.on_tick(&snapshot_with_util(&topology, 0.8), &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 7);
    }

    #[test]
    fn never_scales_below_one() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 3);
        let mut auto = Autoscaler::auto_a(1);
        for _ in 0..5 {
            auto.on_tick(&snapshot_with_util(&topology, 0.0), &mut sim);
        }
        assert_eq!(sim.replicas(ServiceId(0)), 1);
    }

    #[test]
    fn mid_band_is_stable() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 4);
        sim.set_replicas(ServiceId(0), 3);
        let mut auto = Autoscaler::auto_a(1);
        for _ in 0..5 {
            auto.on_tick(&snapshot_with_util(&topology, 0.45), &mut sim);
        }
        assert_eq!(sim.replicas(ServiceId(0)), 3);
    }
}
