//! The resource controller (paper §V, component 4).
//!
//! With the per-service LPR thresholds fixed by the optimizer, the critical
//! path of every scaling decision reduces to a threshold check: count
//! arrivals per service per class, divide by the threshold, take the
//! ceiling. This is why Ursa's control-plane latency is orders of magnitude
//! below ML inference (Table VI). To absorb load noise, scale-*in*
//! decisions require the recent load history to support the smaller
//! allocation (Welch's t-test when enough history exists, matching §V's
//! description); scale-*out* is immediate.
//!
//! A tick owns nothing it has to build: the loads of the window are read
//! once into a [`ServiceLoads`] the anomaly detector shares, the thresholds
//! are the optimizer's own, and history lives in fixed-size rings.

use crate::optimizer::ScalingThreshold;
use ursa_sim::control::ControlPlane;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::topology::ServiceId;
use ursa_stats::ttest::welch_greater_at_5pct;

/// One replica-count change actuated by [`ThresholdScaler::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleAction {
    /// The scaled service.
    pub service: usize,
    /// Replicas before the action.
    pub from: usize,
    /// Replicas requested (the control plane may clamp, e.g. on a
    /// capacity-capped cluster).
    pub to: usize,
}

/// Every service's per-class arrival rate (requests/second) over one
/// metrics window: what a control tick's threshold and anomaly checks
/// compare against, read out of the snapshot once.
#[derive(Debug, Clone, Default)]
pub struct ServiceLoads {
    classes: usize,
    /// `services × classes`, service-major.
    rates: Vec<f64>,
}

impl ServiceLoads {
    /// Overwrites the loads with `snapshot`'s.
    pub fn read(&mut self, snapshot: &MetricsSnapshot) {
        let window_secs = snapshot.window.as_secs_f64().max(1e-9);
        self.classes = snapshot.injections.len();
        self.rates.clear();
        for service in &snapshot.services {
            debug_assert_eq!(service.arrivals.len(), self.classes);
            self.rates
                .extend(service.arrivals.iter().map(|&a| a as f64 / window_secs));
        }
    }

    /// One service's load per class.
    pub fn of(&self, service: usize) -> &[f64] {
        &self.rates[service * self.classes..(service + 1) * self.classes]
    }
}

/// Windows of desired-replica history consulted before scaling in.
const PATIENCE: usize = 3;
/// Windows of load history kept for the t-test.
const LOAD_WINDOWS: usize = 8;

/// Threshold-based replica controller.
#[derive(Debug, Clone)]
pub struct ThresholdScaler {
    classes: usize,
    /// Windows recorded per service; window `w` sits in slot `w % len` of
    /// each of the service's rings.
    seen: Vec<usize>,
    /// The last [`PATIENCE`] desired replica counts of every service (for
    /// damped scale-in).
    desired: Vec<usize>,
    /// The last [`LOAD_WINDOWS`] per-class load rows of every service (for
    /// the t-test).
    loads: Vec<f64>,
    /// What the latest tick did.
    actions: Vec<ScaleAction>,
}

impl ThresholdScaler {
    /// Creates a scaler for an application of `num_services` services and
    /// `num_classes` request classes.
    pub fn new(num_services: usize, num_classes: usize) -> Self {
        ThresholdScaler {
            classes: num_classes,
            seen: vec![0; num_services],
            desired: vec![0; num_services * PATIENCE],
            loads: vec![0.0; num_services * LOAD_WINDOWS * num_classes],
            actions: Vec::new(),
        }
    }

    /// Where service `s`'s load row of window `window` sits in `loads`.
    fn load_row(&self, s: usize, window: usize) -> std::ops::Range<usize> {
        let at = (s * LOAD_WINDOWS + window % LOAD_WINDOWS) * self.classes;
        at..at + self.classes
    }

    /// Applies one control tick: compares the window's `loads` with the
    /// optimizer's `thresholds` (services without one are unmanaged) and
    /// adjusts replica counts through the control plane, services in index
    /// order. Returns the actions it took, for the manager's decision log.
    pub fn tick(
        &mut self,
        loads: &ServiceLoads,
        thresholds: &[ScalingThreshold],
        control: &mut dyn ControlPlane,
    ) -> &[ScaleAction] {
        self.actions.clear();
        for s in 0..self.seen.len() {
            let Some(threshold) = thresholds.iter().find(|t| t.service == s) else {
                continue;
            };
            let load = loads.of(s);
            let desired = threshold.replicas_for(load);
            let current = control.replicas(ServiceId(s));

            let window = self.seen[s];
            self.seen[s] += 1;
            self.desired[s * PATIENCE + window % PATIENCE] = desired;
            let row = self.load_row(s, window);
            self.loads[row].copy_from_slice(load);

            if desired > current {
                // Scale out immediately: the threshold was chosen so that
                // operating above it risks the per-service SLA budget.
                control.set_replicas(ServiceId(s), desired);
                self.actions.push(ScaleAction {
                    service: s,
                    from: current,
                    to: desired,
                });
            } else if desired < current && self.seen[s] >= PATIENCE {
                // Scale in only when recent history consistently supports
                // the smaller allocation…
                let recent = &self.desired[s * PATIENCE..(s + 1) * PATIENCE];
                let recent_max = recent.iter().copied().max().unwrap_or(desired);
                // …and, when we have enough samples, the t-test agrees
                // that the binding class's mean load sits below the
                // smaller allocation's capacity.
                if recent_max < current && self.scale_in_supported(s, threshold, recent_max) {
                    control.set_replicas(ServiceId(s), recent_max);
                    self.actions.push(ScaleAction {
                        service: s,
                        from: current,
                        to: recent_max,
                    });
                }
            }
        }
        &self.actions
    }

    /// Welch-tests whether the binding class's recent loads are
    /// significantly *below* the capacity of `target_replicas`, one-sided
    /// at 5 % (the p-value is evaluated only where the t statistic alone
    /// cannot decide). With fewer than 4 history windows, falls back to
    /// accepting (the max-based patience already damps noise).
    fn scale_in_supported(
        &self,
        s: usize,
        threshold: &ScalingThreshold,
        target_replicas: usize,
    ) -> bool {
        let kept = self.seen[s].min(LOAD_WINDOWS);
        if kept < 4 {
            return true;
        }
        // Find the binding class (largest load/threshold ratio).
        let latest = &self.loads[self.load_row(s, self.seen[s] - 1)];
        let mut binding = None;
        let mut best_ratio = 0.0;
        for (j, (&a, &y)) in latest.iter().zip(&threshold.lpr).enumerate() {
            if y > 0.0 {
                let r = a / y;
                if r > best_ratio {
                    best_ratio = r;
                    binding = Some(j);
                }
            }
        }
        let Some(j) = binding else { return true };
        let y = threshold.lpr[j];
        let capacity = y * target_replicas as f64;
        // The binding class's loads, oldest window first.
        let oldest = self.seen[s] - kept;
        let mut samples = [0.0; LOAD_WINDOWS];
        for (i, x) in samples[..kept].iter_mut().enumerate() {
            *x = self.loads[self.load_row(s, oldest + i)][j];
        }
        let samples = &samples[..kept];
        let mean = samples.iter().sum::<f64>() / kept as f64;
        // H1: capacity > mean(load). Construct via one-sided Welch against
        // a pseudo-sample at the capacity level with matching spread.
        let mut cap_samples = [0.0; LOAD_WINDOWS];
        for (c, x) in cap_samples.iter_mut().zip(samples) {
            *c = capacity + (x - mean);
        }
        welch_greater_at_5pct(&cap_samples[..kept], samples).unwrap_or(mean <= capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_sim::engine::{SimConfig, Simulation};
    use ursa_sim::telemetry::Telemetry;
    use ursa_sim::time::SimTime;
    use ursa_sim::topology::{
        CallNode, ClassCfg, ClassId, Priority, ServiceCfg, Topology, WorkDist,
    };

    fn threshold(lpr: f64) -> ScalingThreshold {
        ScalingThreshold {
            service: 0,
            name: "svc".into(),
            lpr: vec![lpr],
            cores_per_replica: 2.0,
        }
    }

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

    fn loads_at(topology: &Topology, rps: f64, window: f64) -> ServiceLoads {
        let mut t = Telemetry::new(topology);
        for _ in 0..(rps * window) as usize {
            t.record_arrival(ServiceId(0), ClassId(0));
        }
        let snapshot = t.harvest(
            SimTime::from_secs_f64(window),
            &["svc".to_string()],
            &[1],
            &[2.0],
            &[0],
        );
        let mut loads = ServiceLoads::default();
        loads.read(&snapshot);
        loads
    }

    #[test]
    fn scales_out_immediately() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 1);
        let mut scaler = ThresholdScaler::new(1, 1);
        let loads = loads_at(&topology, 170.0, 60.0);
        let actions = scaler.tick(&loads, &[threshold(50.0)], &mut sim).to_vec();
        assert_eq!(sim.replicas(ServiceId(0)), 4); // ceil(170/50)
        assert_eq!(
            actions,
            vec![ScaleAction {
                service: 0,
                from: 1,
                to: 4
            }]
        );
    }

    #[test]
    fn scales_in_only_after_patience() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 2);
        sim.set_replicas(ServiceId(0), 5);
        let mut scaler = ThresholdScaler::new(1, 1);
        // Low load for one window: no scale-in yet.
        let low = loads_at(&topology, 60.0, 60.0);
        scaler.tick(&low, &[threshold(50.0)], &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 5);
        // After `PATIENCE` consistent windows, scale-in happens.
        for _ in 0..4 {
            scaler.tick(&low, &[threshold(50.0)], &mut sim);
        }
        assert_eq!(sim.replicas(ServiceId(0)), 2); // ceil(60/50)
    }

    #[test]
    fn burst_within_history_blocks_scale_in() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 3);
        sim.set_replicas(ServiceId(0), 4);
        let mut scaler = ThresholdScaler::new(1, 1);
        // Alternating loads: the max over history keeps replicas up.
        for rps in [190.0, 60.0, 190.0, 60.0] {
            let loads = loads_at(&topology, rps, 60.0);
            scaler.tick(&loads, &[threshold(50.0)], &mut sim);
        }
        assert_eq!(sim.replicas(ServiceId(0)), 4);
    }

    #[test]
    fn unmanaged_services_untouched() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 4);
        let mut scaler = ThresholdScaler::new(1, 1);
        let loads = loads_at(&topology, 500.0, 60.0);
        let actions = scaler.tick(&loads, &[], &mut sim);
        assert!(actions.is_empty());
        assert_eq!(sim.replicas(ServiceId(0)), 1);
    }

    #[test]
    fn new_thresholds_apply_at_once_and_keep_history() {
        let topology = topo();
        let mut sim = Simulation::new(topology.clone(), SimConfig::default(), 5);
        sim.set_replicas(ServiceId(0), 4);
        let mut scaler = ThresholdScaler::new(1, 1);
        let loads = loads_at(&topology, 190.0, 60.0);
        // ceil(190/50) = 4: nothing to do, three windows running.
        for _ in 0..3 {
            assert!(scaler.tick(&loads, &[threshold(50.0)], &mut sim).is_empty());
        }
        // A recalculated threshold (ceil(190/100) = 2) is what the next
        // tick reads, but the windows desired under the old one still
        // count towards its patience.
        scaler.tick(&loads, &[threshold(100.0)], &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 4);
        scaler.tick(&loads, &[threshold(100.0)], &mut sim);
        scaler.tick(&loads, &[threshold(100.0)], &mut sim);
        assert_eq!(sim.replicas(ServiceId(0)), 2);
    }
}
