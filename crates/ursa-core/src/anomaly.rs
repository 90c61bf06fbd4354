//! The anomaly detector (paper §V, component 5).
//!
//! Watches every metrics window for two anomaly kinds:
//!
//! * **Load anomalies** — the request mix drifts from what exploration saw,
//!   measured by the *request-ratio deviation*: the binding class's replica
//!   demand relative to the average demand across classes. A mix matching
//!   exploration yields ≈ 1; skew pushes it up. Past a threshold, the
//!   optimizer should recalculate LPR thresholds with the current load.
//! * **Latency anomalies** — end-to-end SLA violations exceeding a
//!   frequency threshold, indicating the exploration-time latency
//!   distributions are stale (e.g. the service's business logic changed).
//!   These request re-exploration of the implicated service.

use crate::controller::ServiceLoads;
use crate::optimizer::ScalingThreshold;
use ursa_sim::control::Sla;
use ursa_sim::telemetry::MetricsSnapshot;

/// An anomaly raised by [`AnomalyDetector::check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// Request mix drifted; thresholds should be recalculated.
    LoadMix {
        /// Service with the largest request-ratio deviation.
        service: usize,
        /// The deviation value.
        deviation: f64,
    },
    /// Persistent SLA violations; the implicated service should be
    /// re-explored.
    Latency {
        /// Violating class.
        class: usize,
        /// Most-utilized service on the class's path (re-exploration
        /// candidate).
        service: usize,
        /// Violation frequency observed.
        violation_rate: f64,
    },
}

/// Sliding-window anomaly detector.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    /// Request-ratio deviation above which a load anomaly fires.
    pub ratio_threshold: f64,
    /// Relative latency excess above which a window counts as violating:
    /// the measured latency at the SLA percentile must exceed
    /// `target × (1 + violation_threshold)` (after `latency_patience`
    /// consecutive windows).
    pub violation_threshold: f64,
    /// Consecutive violating windows required.
    pub latency_patience: usize,
    violating_windows: Vec<usize>,
}

impl AnomalyDetector {
    /// Creates a detector with the paper-flavoured defaults
    /// (deviation > 1.25; SLA percentile > 1.1× target for 3 windows).
    ///
    /// The deviation metric is `max_j(L_j/y_j) / mean_j(L_j/y_j)`; a 2×
    /// skew of one of three classes yields ≈ 1.33, so the threshold sits
    /// between load noise (≈ 1.05) and the paper's mildest skew scenario.
    pub fn new(num_classes: usize) -> Self {
        AnomalyDetector {
            ratio_threshold: 1.25,
            violation_threshold: 0.10,
            latency_patience: 3,
            violating_windows: vec![0; num_classes],
        }
    }

    /// Computes one service's request-ratio deviation:
    /// `max_j (L_j / y_j) / mean_j (L_j / y_j)` over classes with load and
    /// a positive threshold. Returns 1.0 when fewer than two classes apply.
    pub fn request_ratio_deviation(loads: &[f64], threshold: &ScalingThreshold) -> f64 {
        // One pass; the sum adds the ratios in class order, which is the
        // order the mean's rounding is pinned to.
        let (mut n, mut max, mut sum) = (0usize, f64::NEG_INFINITY, 0.0);
        for (&a, &y) in loads.iter().zip(&threshold.lpr) {
            if a > 0.0 && y > 0.0 {
                let ratio = a / y;
                n += 1;
                max = max.max(ratio);
                sum += ratio;
            }
        }
        if n < 2 {
            return 1.0;
        }
        let mean = sum / n as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Checks one metrics window and appends what it finds to `anomalies`.
    /// `loads` are the window's per-service loads, `thresholds` the active
    /// scaling thresholds; `class_services[j]` lists the services on class
    /// `j`'s path (for picking the re-exploration candidate).
    pub fn check(
        &mut self,
        snapshot: &MetricsSnapshot,
        loads: &ServiceLoads,
        slas: &[Sla],
        thresholds: &[ScalingThreshold],
        class_services: &[Vec<usize>],
        anomalies: &mut Vec<Anomaly>,
    ) {
        // Load anomalies: worst deviation across managed services.
        let mut worst: Option<(usize, f64)> = None;
        for t in thresholds {
            let dev = Self::request_ratio_deviation(loads.of(t.service), t);
            if dev > self.ratio_threshold && worst.map(|(_, d)| dev > d).unwrap_or(true) {
                worst = Some((t.service, dev));
            }
        }
        if let Some((service, deviation)) = worst {
            anomalies.push(Anomaly::LoadMix { service, deviation });
        }

        // Latency anomalies: the SLA percentile breaching its target (with
        // a tolerance band) for `latency_patience` consecutive windows.
        for sla in slas {
            let c = sla.class.0;
            let breached = snapshot.e2e_latency[c]
                .percentile(sla.percentile)
                .map(|l| l > sla.target * (1.0 + self.violation_threshold))
                .unwrap_or(false);
            if breached {
                self.violating_windows[c] += 1;
            } else {
                self.violating_windows[c] = 0;
            }
            if self.violating_windows[c] >= self.latency_patience {
                // Candidate: the most CPU-utilized service on the path.
                let service = class_services[c]
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        snapshot.services[a]
                            .cpu_utilization
                            .partial_cmp(&snapshot.services[b].cpu_utilization)
                            .expect("finite")
                    })
                    .unwrap_or(0);
                // The violation rate is read only for the anomaly that
                // carries it: a binary search of every window otherwise.
                let violation_rate = snapshot.e2e_latency[c]
                    .fraction_above(sla.target)
                    .unwrap_or(0.0);
                anomalies.push(Anomaly::Latency {
                    class: c,
                    service,
                    violation_rate,
                });
                self.violating_windows[c] = 0; // reset after raising
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_sim::telemetry::Telemetry;
    use ursa_sim::time::SimTime;
    use ursa_sim::topology::{
        CallNode, ClassCfg, ClassId, Priority, ServiceCfg, ServiceId, Topology, WorkDist,
    };

    fn threshold(lpr: Vec<f64>) -> ScalingThreshold {
        ScalingThreshold {
            service: 0,
            name: "svc".into(),
            lpr,
            cores_per_replica: 2.0,
        }
    }

    #[test]
    fn balanced_mix_has_unit_deviation() {
        let t = threshold(vec![10.0, 20.0]);
        // Loads proportional to the thresholds: ratios equal.
        let dev = AnomalyDetector::request_ratio_deviation(&[30.0, 60.0], &t);
        assert!((dev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_mix_raises_deviation() {
        let t = threshold(vec![10.0, 20.0]);
        // Class 0 doubled relative to exploration mix.
        let dev = AnomalyDetector::request_ratio_deviation(&[60.0, 60.0], &t);
        assert!(dev > 1.3, "dev {dev}");
    }

    /// One window through `det`, loads read from the snapshot as the
    /// manager's tick does.
    fn check(
        det: &mut AnomalyDetector,
        snapshot: &MetricsSnapshot,
        slas: &[Sla],
        thresholds: &[ScalingThreshold],
        class_services: &[Vec<usize>],
    ) -> Vec<Anomaly> {
        let mut loads = ServiceLoads::default();
        loads.read(snapshot);
        let mut anomalies = Vec::new();
        det.check(
            snapshot,
            &loads,
            slas,
            thresholds,
            class_services,
            &mut anomalies,
        );
        anomalies
    }

    fn two_class_topo() -> Topology {
        let mk = |name: &str| ClassCfg {
            name: name.into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        };
        Topology::new(vec![ServiceCfg::new("svc", 2.0)], vec![mk("a"), mk("b")]).unwrap()
    }

    #[test]
    fn latency_anomaly_needs_patience() {
        let topo = two_class_topo();
        let slas = [Sla::new(ClassId(0), 99.0, 0.010)];
        let mut det = AnomalyDetector::new(2);
        let class_services = vec![vec![0], vec![0]];
        let mk_snapshot = |violating: bool| {
            let mut t = Telemetry::new(&topo);
            for _ in 0..100 {
                t.record_e2e(ClassId(0), if violating { 0.100 } else { 0.001 });
            }
            t.harvest(
                SimTime::from_secs_f64(60.0),
                &["svc".to_string()],
                &[1],
                &[2.0],
                &[0],
            )
        };
        for i in 0..2 {
            let a = check(&mut det, &mk_snapshot(true), &slas, &[], &class_services);
            assert!(a.is_empty(), "window {i}: {a:?}");
        }
        let a = check(&mut det, &mk_snapshot(true), &slas, &[], &class_services);
        assert!(matches!(a[0], Anomaly::Latency { class: 0, .. }));
        // Counter resets after raising.
        let a = check(&mut det, &mk_snapshot(false), &slas, &[], &class_services);
        assert!(a.is_empty());
    }

    #[test]
    fn load_anomaly_detected_on_skew() {
        let topo = two_class_topo();
        let mut det = AnomalyDetector::new(2);
        let t = {
            let mut t = threshold(vec![1.0, 4.0]);
            t.service = 0;
            t
        };
        let mut tel = Telemetry::new(&topo);
        // Exploration mix would be 1:4; offered 1:1 (class a heavily
        // over-represented): ratios 10 vs 2.5 -> deviation 1.6 > 1.5.
        for _ in 0..600 {
            tel.record_arrival(ServiceId(0), ClassId(0));
            tel.record_arrival(ServiceId(0), ClassId(1));
        }
        let snap = tel.harvest(
            SimTime::from_secs_f64(60.0),
            &["svc".to_string()],
            &[1],
            &[2.0],
            &[0],
        );
        let a = check(&mut det, &snap, &[], &[t], &[vec![0], vec![0]]);
        assert!(matches!(a[0], Anomaly::LoadMix { service: 0, .. }));
    }
}
