//! The optimization engine (paper §V, component 3).
//!
//! Translates exploration data plus the current user load into the MIP of
//! §IV (built and solved by the `ursa-mip` crate), and extracts per-service
//! load-per-replica scaling thresholds from the solution. Also maintains
//! the latency-overestimation correction: Theorem 1's bound is an upper
//! bound, so Ursa tracks the observed ratio of measured to bounded latency
//! per class and multiplies future estimates by it (§IV, "mitigating
//! latency overestimation"; evaluated in Figs. 9–10).

use crate::exploration::ExplorationReport;
use ursa_mip::{LatencyMatrix, MipModel, ModelError, ServiceModel, SlaConstraint, Solution};
use ursa_sim::control::Sla;

/// A per-service scaling threshold chosen by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingThreshold {
    /// Service index in the application topology.
    pub service: usize,
    /// Service name.
    pub name: String,
    /// Chosen load-per-replica vector (requests/second per class; 0 where
    /// the class does not touch the service).
    pub lpr: Vec<f64>,
    /// CPU cores per replica (`u_i`).
    pub cores_per_replica: f64,
}

impl ScalingThreshold {
    /// Replicas needed at the given per-class loads so that no class's
    /// per-replica load exceeds the threshold (Equation 3's `max` term).
    pub fn replicas_for(&self, loads: &[f64]) -> usize {
        let mut needed = 1usize;
        for (a, y) in loads.iter().zip(&self.lpr) {
            if *y > 0.0 && *a > 0.0 {
                needed = needed.max((a / y).ceil() as usize);
            }
        }
        needed
    }
}

/// Optimization outcome: thresholds plus the solved model for inspection.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// One threshold per explored service.
    pub thresholds: Vec<ScalingThreshold>,
    /// The MIP solution (objective = projected total cores).
    pub solution: Solution,
    /// Theorem-1 latency bound per SLA constraint, aligned with `slas`.
    pub latency_bounds: Vec<f64>,
    /// The SLA constraints in model order.
    pub slas: Vec<Sla>,
}

/// Builds the §IV MIP from exploration data and the current load.
///
/// `class_rates[j]` is the *application-level* arrival rate of class `j`;
/// each service's per-class load is derived from its explored LPR mix
/// (which encodes how many times the class hits the service).
pub fn build_model(
    report: &ExplorationReport,
    slas: &[Sla],
    class_rates: &[f64],
    grid: &[f64],
) -> MipModel {
    let services = report
        .services
        .iter()
        .map(|exp| {
            let resource: Vec<f64> = exp
                .options
                .iter()
                .map(|opt| {
                    let mut replicas = 1usize;
                    for (j, &y) in opt.lpr.iter().enumerate() {
                        // Service-level load: application rate times the
                        // class's visit multiplicity on this service (the
                        // explored LPR is also service-level).
                        let load = class_rates[j] * exp.visits[j];
                        if y > 0.0 && load > 0.0 {
                            replicas = replicas.max((load / y).ceil() as usize);
                        }
                    }
                    replicas as f64 * exp.cores_per_replica
                })
                .collect();
            let num_classes = class_rates.len();
            let latency: Vec<Option<LatencyMatrix>> = (0..num_classes)
                .map(|c| {
                    if exp.options.iter().all(|o| o.latency[c].is_some()) {
                        let mut data = Vec::with_capacity(exp.options.len() * grid.len());
                        for o in &exp.options {
                            data.extend_from_slice(o.latency[c].as_deref().expect("checked"));
                        }
                        Some(LatencyMatrix::new(exp.options.len(), grid.len(), data))
                    } else {
                        None
                    }
                })
                .collect();
            ServiceModel {
                name: exp.name.clone(),
                resource,
                latency,
            }
        })
        .collect();
    let constraints = slas
        .iter()
        .map(|s| SlaConstraint {
            class: s.class.0,
            percentile: s.percentile,
            target: s.target,
        })
        .collect();
    MipModel {
        percentiles: grid.to_vec(),
        services,
        constraints,
    }
}

/// Solves the model and extracts scaling thresholds.
///
/// # Errors
///
/// Propagates [`ModelError`] from validation or an infeasible model.
pub fn optimize(
    report: &ExplorationReport,
    slas: &[Sla],
    class_rates: &[f64],
    grid: &[f64],
) -> Result<OptimizeOutcome, ModelError> {
    let model = build_model(report, slas, class_rates, grid);
    let solution = ursa_mip::solve(&model)?;
    let thresholds = report
        .services
        .iter()
        .zip(&solution.lpr_choice)
        .map(|(exp, &alpha)| ScalingThreshold {
            service: exp.service,
            name: exp.name.clone(),
            lpr: exp.options[alpha].lpr.clone(),
            cores_per_replica: exp.cores_per_replica,
        })
        .collect();
    let latency_bounds = (0..slas.len())
        .map(|k| solution.estimated_latency(&model, k))
        .collect();
    Ok(OptimizeOutcome {
        thresholds,
        solution,
        latency_bounds,
        slas: slas.to_vec(),
    })
}

/// Tracks the ratio of measured end-to-end latency to the Theorem-1 bound
/// and corrects future estimates with it (exponential moving average).
#[derive(Debug, Clone)]
pub struct OverestimationTracker {
    ratios: Vec<f64>,
    seen: Vec<bool>,
    alpha: f64,
}

impl OverestimationTracker {
    /// Creates a tracker for `n_constraints` SLA constraints with EMA
    /// coefficient `alpha` (weight of the newest observation).
    pub fn new(n_constraints: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        OverestimationTracker {
            ratios: vec![1.0; n_constraints],
            seen: vec![false; n_constraints],
            alpha,
        }
    }

    /// Records a measured latency against the current bound for constraint
    /// `k`.
    pub fn observe(&mut self, k: usize, measured: f64, bound: f64) {
        if bound > 0.0 && measured > 0.0 {
            let r = (measured / bound).min(2.0);
            if self.seen[k] {
                self.ratios[k] = (1.0 - self.alpha) * self.ratios[k] + self.alpha * r;
            } else {
                // Snap to the first observation: starting from the
                // uncorrected bound would bias early estimates high.
                self.ratios[k] = r;
                self.seen[k] = true;
            }
        }
    }

    /// The corrected latency estimate for constraint `k`.
    pub fn estimate(&self, k: usize, bound: f64) -> f64 {
        bound * self.ratios[k]
    }

    /// Current correction ratio for constraint `k`.
    pub fn ratio(&self, k: usize) -> f64 {
        self.ratios[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exploration::{LprOption, ServiceExploration};
    use ursa_sim::time::SimDur;
    use ursa_sim::topology::ClassId;

    fn fake_report() -> ExplorationReport {
        // One service, one class, two options:
        //  opt 0: 10 rps/replica, p99 = 10 ms; opt 1: 20 rps/replica, 40 ms.
        let grid_len = 2; // grid [99, 99.9]
        let mk_opt = |lpr: f64, lat: f64| LprOption {
            replicas: 1,
            lpr: vec![lpr],
            utilization: 0.4,
            latency: vec![Some(vec![lat; grid_len])],
        };
        ExplorationReport {
            services: vec![ServiceExploration {
                service: 0,
                name: "svc".into(),
                cores_per_replica: 2.0,
                bp_threshold: 0.6,
                visits: vec![1.0],
                options: vec![mk_opt(10.0, 0.010), mk_opt(20.0, 0.040)],
                samples: 20,
                time: SimDur::from_mins(20),
            }],
            total_samples: 20,
            wall_time: SimDur::from_mins(20),
        }
    }

    #[test]
    fn model_resources_follow_equation_3() {
        let report = fake_report();
        let slas = [Sla::new(ClassId(0), 99.0, 0.050)];
        let model = build_model(&report, &slas, &[40.0], &[99.0, 99.9]);
        // At 40 rps: opt0 needs ceil(40/10)=4 replicas * 2 cores = 8;
        // opt1 needs ceil(40/20)=2 * 2 = 4.
        assert_eq!(model.services[0].resource, vec![8.0, 4.0]);
    }

    #[test]
    fn optimizer_picks_cheapest_feasible_option() {
        let report = fake_report();
        // 50 ms target: both options feasible (10 ms and 40 ms) -> pick
        // the cheaper LPR 20.
        let slas = [Sla::new(ClassId(0), 99.0, 0.050)];
        let out = optimize(&report, &slas, &[40.0], &[99.0, 99.9]).unwrap();
        assert_eq!(out.thresholds[0].lpr, vec![20.0]);
        assert_eq!(out.solution.objective, 4.0);
        // 20 ms target: only option 0 feasible.
        let slas = [Sla::new(ClassId(0), 99.0, 0.020)];
        let out = optimize(&report, &slas, &[40.0], &[99.0, 99.9]).unwrap();
        assert_eq!(out.thresholds[0].lpr, vec![10.0]);
        assert_eq!(out.solution.objective, 8.0);
    }

    #[test]
    fn infeasible_when_target_below_best_latency() {
        let report = fake_report();
        let slas = [Sla::new(ClassId(0), 99.0, 0.005)];
        assert!(optimize(&report, &slas, &[40.0], &[99.0, 99.9]).is_err());
    }

    #[test]
    fn threshold_replica_computation() {
        let t = ScalingThreshold {
            service: 0,
            name: "svc".into(),
            lpr: vec![20.0, 0.0],
            cores_per_replica: 2.0,
        };
        assert_eq!(t.replicas_for(&[40.0, 100.0]), 2);
        assert_eq!(t.replicas_for(&[41.0, 0.0]), 3);
        assert_eq!(t.replicas_for(&[0.0, 0.0]), 1);
    }

    #[test]
    fn overestimation_tracker_converges() {
        let mut t = OverestimationTracker::new(1, 0.5);
        for _ in 0..20 {
            t.observe(0, 0.8, 1.0);
        }
        assert!((t.ratio(0) - 0.8).abs() < 0.01);
        assert!((t.estimate(0, 2.0) - 1.6).abs() < 0.02);
    }
}
