//! The optimization engine (paper §V, component 3).
//!
//! Translates exploration data plus the current user load into the MIP of
//! §IV (built and solved by the `ursa-mip` crate), and extracts per-service
//! load-per-replica scaling thresholds from the solution. Load enters that
//! model through its resource costs alone (Equation 3), so the rest of it —
//! every latency row, residual budget and SLA target — is prepared once per
//! exploration report ([`PreparedOptimizer`]) and a recalculation only
//! re-prices it. Also maintains the latency-overestimation correction:
//! Theorem 1's bound is an upper bound, so Ursa tracks the observed ratio
//! of measured to bounded latency per class and multiplies future estimates
//! by it (§IV, "mitigating latency overestimation"; evaluated in
//! Figs. 9–10).

use crate::exploration::{replicas_for, ExplorationReport};
use ursa_mip::{
    LatencyMatrix, MipModel, ModelError, ServiceModel, SlaConstraint, Solution, Solver,
};
use ursa_sim::control::Sla;

/// A per-service scaling threshold chosen by the optimizer.
#[derive(Debug, Clone, Default, PartialEq)]
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
        replicas_for(&self.lpr, loads)
    }
}

/// Optimization outcome: thresholds plus the solved model for inspection.
#[derive(Debug, Clone, Default)]
pub struct OptimizeOutcome {
    /// One threshold per explored service, in the report's service order.
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
    let mut loads = Vec::new();
    let services = report
        .services
        .iter()
        .map(|exp| {
            exp.loads_at(class_rates, &mut loads);
            let resource: Vec<f64> = exp.resources_at(&loads).collect();
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

/// The optimizer prepared for one exploration report and one set of SLAs.
///
/// Everything [`build_model`] copies out of the report except the resource
/// costs is fixed by exploration, so it is copied, validated and checked
/// for feasibility here, once; [`optimize_at`](Self::optimize_at) re-prices
/// the resource table for the rates of the moment and solves. Whoever
/// changes the report's rows or the SLA targets prepares again.
#[derive(Debug, Clone)]
pub struct PreparedOptimizer {
    solver: Solver,
    slas: Vec<Sla>,
    /// The resource table of the latest call, laid out as the solver
    /// takes it: services in report order, one entry per option.
    resource: Vec<f64>,
    /// One service's loads while it is priced.
    loads: Vec<f64>,
}

impl PreparedOptimizer {
    /// Prepares the model of `report` under `slas`. `class_rates` only has
    /// to be a load the report can be priced at; it decides nothing here.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from validation, or from a class whose SLA
    /// no allocation can meet.
    pub fn new(
        report: &ExplorationReport,
        slas: &[Sla],
        class_rates: &[f64],
        grid: &[f64],
    ) -> Result<Self, ModelError> {
        let model = build_model(report, slas, class_rates, grid);
        Ok(PreparedOptimizer {
            solver: Solver::new(&model)?,
            slas: slas.to_vec(),
            resource: Vec::new(),
            loads: Vec::new(),
        })
    }

    /// Prepares, and solves at the same `class_rates`: the optimizer and its
    /// first outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from validation or an infeasible model.
    pub fn with_outcome(
        report: &ExplorationReport,
        slas: &[Sla],
        class_rates: &[f64],
        grid: &[f64],
    ) -> Result<(Self, OptimizeOutcome), ModelError> {
        let mut prepared = Self::new(report, slas, class_rates, grid)?;
        let mut outcome = OptimizeOutcome::default();
        prepared.optimize_at(report, class_rates, &mut outcome)?;
        Ok((prepared, outcome))
    }

    /// Solves at `class_rates` and rewrites `outcome` in place (left
    /// untouched on error). `report` is the one this was prepared from.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from an infeasible model.
    pub fn optimize_at(
        &mut self,
        report: &ExplorationReport,
        class_rates: &[f64],
        outcome: &mut OptimizeOutcome,
    ) -> Result<(), ModelError> {
        self.resource.clear();
        for exp in &report.services {
            exp.loads_at(class_rates, &mut self.loads);
            self.resource.extend(exp.resources_at(&self.loads));
        }
        self.solver
            .solve_at(&self.resource, &mut outcome.solution)?;

        outcome
            .thresholds
            .resize_with(report.services.len(), ScalingThreshold::default);
        let chosen = report.services.iter().zip(&outcome.solution.lpr_choice);
        for (t, (exp, &alpha)) in outcome.thresholds.iter_mut().zip(chosen) {
            t.service = exp.service;
            t.name.clone_from(&exp.name);
            t.lpr.clone_from(&exp.options[alpha].lpr);
            t.cores_per_replica = exp.cores_per_replica;
        }
        outcome.latency_bounds.clear();
        outcome.latency_bounds.extend(
            (0..self.slas.len()).map(|k| self.solver.estimated_latency(&outcome.solution, k)),
        );
        outcome.slas.clone_from(&self.slas);
        Ok(())
    }
}

/// Solves the model and extracts scaling thresholds: a
/// [`PreparedOptimizer`] used once.
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
    PreparedOptimizer::with_outcome(report, slas, class_rates, grid).map(|(_, outcome)| outcome)
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
