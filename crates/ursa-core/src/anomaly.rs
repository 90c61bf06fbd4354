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

/// Request-ratio deviation above which a load anomaly fires. The deviation
/// metric is `max_j(L_j/y_j) / mean_j(L_j/y_j)`; a 2× skew of one of three
/// classes yields ≈ 1.33, so the threshold sits between load noise (≈ 1.05)
/// and the paper's mildest skew scenario.
const RATIO_THRESHOLD: f64 = 1.25;
/// Relative latency excess above which a window counts as violating: the
/// measured latency at the SLA percentile must exceed
/// `target × (1 + VIOLATION_THRESHOLD)`.
const VIOLATION_THRESHOLD: f64 = 0.10;
/// Consecutive violating windows required before a latency anomaly fires.
const LATENCY_PATIENCE: usize = 3;

/// Sliding-window anomaly detector.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    violating_windows: Vec<usize>,
}

impl AnomalyDetector {
    /// Creates a detector with the paper-flavoured thresholds
    /// (deviation > 1.25; SLA percentile > 1.1× target for 3 windows).
    pub fn new(num_classes: usize) -> Self {
        AnomalyDetector {
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
            if dev > RATIO_THRESHOLD && worst.map(|(_, d)| dev > d).unwrap_or(true) {
                worst = Some((t.service, dev));
            }
        }
        if let Some((service, deviation)) = worst {
            anomalies.push(Anomaly::LoadMix { service, deviation });
        }

        // Latency anomalies: the SLA percentile breaching its target (with
        // a tolerance band) for `LATENCY_PATIENCE` consecutive windows.
        for sla in slas {
            let c = sla.class.0;
            let breached = snapshot.e2e_latency[c]
                .percentile(sla.percentile)
                .map(|l| l > sla.target * (1.0 + VIOLATION_THRESHOLD))
                .unwrap_or(false);
            if breached {
                self.violating_windows[c] += 1;
            } else {
                self.violating_windows[c] = 0;
            }
            if self.violating_windows[c] >= LATENCY_PATIENCE {
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

    /// Every anomaly raised over 1 000 random windows of the two-class
    /// topology, to the bit: one threshold with random per-class LPRs,
    /// random per-class arrivals, and class 0's latency at 0.9–1.3× its
    /// SLA. Each of the three thresholds moves it; no pinned replay or
    /// committed table sees a load-mix threshold of 1.26 in place of 1.25.
    #[test]
    fn verdicts_are_pinned() {
        let topo = two_class_topo();
        let slas = [Sla::new(ClassId(0), 99.0, 0.010)];
        let mut det = AnomalyDetector::new(2);
        let mut rng = ursa_stats::rng::Rng::seed_from(0xA40);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..1_000 {
            let t = threshold(vec![1.0 + 9.0 * rng.next_f64(), 1.0 + 9.0 * rng.next_f64()]);
            let mut tel = Telemetry::new(&topo);
            for c in 0..2 {
                for _ in 0..rng.index(600) {
                    tel.record_arrival(ServiceId(0), ClassId(c));
                }
            }
            let latency = 0.010 * (0.9 + 0.4 * rng.next_f64());
            for _ in 0..100 {
                tel.record_e2e(ClassId(0), latency);
            }
            let snap = tel.harvest(
                SimTime::from_secs_f64(60.0),
                &["svc".to_string()],
                &[1],
                &[2.0],
                &[0],
            );
            for a in check(&mut det, &snap, &slas, &[t], &[vec![0], vec![0]]) {
                match a {
                    Anomaly::LoadMix { service, deviation } => {
                        word(service as u64);
                        word(deviation.to_bits());
                    }
                    Anomaly::Latency {
                        class,
                        service,
                        violation_rate,
                    } => {
                        word(100 + class as u64);
                        word(service as u64);
                        word(violation_rate.to_bits());
                    }
                }
            }
            word(u64::MAX);
        }
        assert_eq!(digest, 0x2c1d_b29f_2b51_aa2a, "got {digest:#018x}");
    }
}
