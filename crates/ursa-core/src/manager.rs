//! The end-to-end Ursa resource manager (paper §V, Fig. 5).
//!
//! [`Ursa`] packages the full pipeline: offline backpressure profiling
//! (§III) → per-service LPR exploration (Algorithm 1) → MIP optimization
//! (§IV) → online threshold scaling with anomaly detection (§V). Online it
//! implements [`ResourceManager`], so it plugs into the same deployment
//! driver as the Sinan/Firm/autoscaling baselines.

use crate::anomaly::{Anomaly, AnomalyDetector};
use crate::controller::{ServiceLoads, ThresholdScaler};
use crate::decision_log::{DecisionKind, DecisionLog, DecisionRecord, ServiceDelta};
use crate::exploration::{
    explore_all, explore_service, replicas_for, ExplorationConfig, ExplorationReport,
    MQ_UTILIZATION_CAP,
};
use crate::harness::ServiceProfile;
use crate::optimizer::{
    OptimizeOutcome, OverestimationTracker, PreparedOptimizer, ScalingThreshold,
};
use crate::profiling::{profile_service, BackpressureProfile, ProfilingConfig};
use ursa_metrics::pool;
use ursa_mip::ModelError;
use ursa_sim::control::{ControlPlane, ResourceManager, Sla};
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::{SimDur, SimTime};
use ursa_sim::topology::{ServiceId, Topology};

/// Ursa configuration.
#[derive(Debug, Clone, Default)]
pub struct UrsaConfig {
    /// Exploration (Algorithm 1) parameters.
    pub exploration: ExplorationConfig,
    /// Backpressure profiling parameters.
    pub profiling: ProfilingConfig,
}

/// Statistics of the offline phase (drives Table V).
#[derive(Debug, Clone)]
pub struct OfflineStats {
    /// Telemetry samples consumed by exploration.
    pub exploration_samples: usize,
    /// Exploration wall-time analog (longest single service).
    pub exploration_time: SimDur,
    /// Services that went through backpressure profiling.
    pub profiled_services: usize,
}

/// Outcome of an online re-exploration (drives §VII-G / Fig. 14).
#[derive(Debug, Clone)]
pub struct ReexplorationStats {
    /// Service that was re-explored.
    pub service: usize,
    /// Samples collected during the partial exploration.
    pub samples: usize,
    /// Simulated time the partial exploration took.
    pub time: SimDur,
}

/// The Ursa resource manager.
#[derive(Debug, Clone)]
pub struct Ursa {
    topology: Topology,
    slas: Vec<Sla>,
    cfg: UrsaConfig,
    seed: u64,
    profiles: Vec<Option<BackpressureProfile>>,
    report: ExplorationReport,
    /// The optimizer prepared from `report` under the relaxed SLAs, or why
    /// it cannot be: rebuilt wherever either changes (`explore_and_prepare`,
    /// `re_explore`, `override_for_ablation`), re-priced by every
    /// recalculation in between.
    prepared: Result<PreparedOptimizer, ModelError>,
    /// The thresholds the scaler and the detector read; `thresholds[i]`
    /// belongs to `report.services[i]`.
    outcome: OptimizeOutcome,
    scaler: ThresholdScaler,
    detector: AnomalyDetector,
    tracker: OverestimationTracker,
    class_services: Vec<Vec<usize>>,
    /// Per-SLA-constraint target relaxation (the calibrated bound/measured
    /// overestimation ratio, >= 1).
    relaxation: Vec<f64>,
    /// Known per-service work scales (updated by re-exploration after
    /// business-logic changes; used when recalibrating).
    work_scales: Vec<f64>,
    /// Raised when a latency anomaly asks for re-exploration; the operator
    /// (or experiment driver) answers with [`Ursa::re_explore`].
    pending_reexploration: Option<usize>,
    recalc_cooldown: usize,
    recalcs: u64,
    last_recalc_wall_ms: f64,
    /// Fault-plane events witnessed through telemetry (chaos experiments).
    faults_seen: u64,
    /// Audit trail of every allocation decision (bounded ring).
    decisions: DecisionLog,
    /// Rates of the most recent allocation decision: the "before" basis
    /// when logging a model update (a recalculation changes the projected
    /// allocation through the rates as much as through the thresholds).
    last_rates: Vec<f64>,
    /// Simulated time of the latest control tick (timestamps decisions
    /// taken outside a [`ControlPlane`] call, e.g. recalculations).
    clock: SimTime,
    /// Buffers a tick or a recalculation fills and empties again, kept so
    /// that neither allocates them: the window's per-service loads, its
    /// anomalies and class rates, one service's loads while it is
    /// projected, and the projected allocation before a model update.
    loads: ServiceLoads,
    anomalies: Vec<Anomaly>,
    window_rates: Vec<f64>,
    service_loads: Vec<f64>,
    projected_before: Vec<Projection>,
}

/// A service, with the replica count and per-replica cores its threshold
/// projects at some rates.
type Projection = (usize, usize, f64);

/// What each threshold projects at `class_rates` — what the scaler
/// converges to under steady load, and the before/after basis for
/// model-level decisions (which change thresholds, not live replicas).
/// `thresholds[i]` belongs to `report.services[i]`.
fn project<'a>(
    report: &'a ExplorationReport,
    thresholds: &'a [ScalingThreshold],
    class_rates: &'a [f64],
    loads: &'a mut Vec<f64>,
) -> impl Iterator<Item = Projection> + 'a {
    thresholds
        .iter()
        .zip(&report.services)
        .map(move |(t, exp)| {
            debug_assert_eq!(t.service, exp.service);
            exp.loads_at(class_rates, loads);
            (t.service, t.replicas_for(loads), t.cores_per_replica)
        })
}

impl Ursa {
    /// Runs the complete offline phase — backpressure profiling of every
    /// RPC-connected service, Algorithm-1 exploration of every service, and
    /// the initial MIP solve at `class_rates` — and returns a ready manager.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if no allocation can satisfy the
    /// SLAs, or [`ModelError::Invalid`] if exploration produced a malformed
    /// model.
    pub fn explore_and_prepare(
        topology: &Topology,
        slas: &[Sla],
        class_rates: &[f64],
        cfg: UrsaConfig,
        seed: u64,
    ) -> Result<Ursa, ModelError> {
        // 1. Backpressure-free thresholds for RPC-connected services
        //    (profiled in parallel on the shared pool; per-service seeds
        //    keep results independent of scheduling).
        let profiles: Vec<Option<BackpressureProfile>> = pool::map_ordered(
            pool::default_workers(),
            (0..topology.num_services()).collect(),
            |_, s| {
                let sid = ServiceId(s);
                let profile = ServiceProfile::extract(topology, sid, class_rates);
                let rpc_connected =
                    topology.is_rpc_connected(sid) || profile.per_class.iter().any(|c| !c.via_mq);
                (rpc_connected && profile.total_rate() > 0.0)
                    .then(|| profile_service(&profile, &cfg.profiling, seed ^ ((s as u64) << 24)))
            },
        );
        let bp: Vec<Option<f64>> = profiles
            .iter()
            .map(|p| p.as_ref().map(|p| p.threshold))
            .collect();

        // 2. Algorithm-1 exploration of every loaded service.
        let mut report = explore_all(topology, slas, class_rates, &bp, &cfg.exploration, seed);

        // 3. Initial optimization. If the raw Theorem-1 bound makes the
        //    model infeasible (it overestimates long chains at low
        //    percentiles — e.g. the video pipeline's 4-hop p50 SLA, where
        //    the bound is ~2x the measured latency), fall back to the
        //    paper's "mitigating latency overestimation" refinement:
        //    measure the bound/measured ratio on a briefly deployed
        //    full-provisioned allocation and relax the MIP targets by it
        //    (with a 0.9 safety factor, never below 1).
        let work_scales = vec![1.0; topology.num_services()];
        let grid = &cfg.exploration.percentile_grid;
        let (relaxation, (prepared, outcome)) =
            match PreparedOptimizer::with_outcome(&report, slas, class_rates, grid) {
                Ok(solved) => (vec![1.0; slas.len()], solved),
                Err(ModelError::Infeasible { .. }) => {
                    let relaxation = calibrate_relaxation(
                        topology,
                        slas,
                        class_rates,
                        &work_scales,
                        &mut report,
                        &cfg.exploration,
                        seed ^ 0xCA11B,
                    );
                    let relaxed = relax_slas(slas, &relaxation);
                    let solved =
                        PreparedOptimizer::with_outcome(&report, &relaxed, class_rates, grid)?;
                    (relaxation, solved)
                }
                Err(e) => return Err(e),
            };

        let scaler = ThresholdScaler::new(topology.num_services(), topology.num_classes());
        let detector = AnomalyDetector::new(topology.num_classes());
        let tracker = OverestimationTracker::new(slas.len(), 0.25);
        let class_services = (0..topology.num_classes())
            .map(|c| {
                topology
                    .services_of_class(ursa_sim::topology::ClassId(c))
                    .into_iter()
                    .map(|s| s.0)
                    .collect()
            })
            .collect();
        Ok(Ursa {
            topology: topology.clone(),
            slas: slas.to_vec(),
            cfg,
            seed,
            profiles,
            report,
            prepared: Ok(prepared),
            outcome,
            scaler,
            detector,
            tracker,
            class_services,
            relaxation,
            work_scales,
            pending_reexploration: None,
            recalc_cooldown: 0,
            recalcs: 0,
            last_recalc_wall_ms: 0.0,
            faults_seen: 0,
            decisions: DecisionLog::default(),
            last_rates: class_rates.to_vec(),
            clock: SimTime::ZERO,
            loads: ServiceLoads::default(),
            anomalies: Vec::new(),
            window_rates: Vec::new(),
            service_loads: Vec::new(),
            projected_before: Vec::new(),
        })
    }

    /// Offline-phase statistics (Table V's Ursa row).
    pub fn offline_stats(&self) -> OfflineStats {
        OfflineStats {
            exploration_samples: self.report.total_samples,
            exploration_time: self.report.wall_time,
            profiled_services: self.profiles.iter().flatten().count(),
        }
    }

    /// The backpressure profiles (Fig. 4 curves).
    pub fn profiles(&self) -> &[Option<BackpressureProfile>] {
        &self.profiles
    }

    /// The exploration data.
    pub fn exploration(&self) -> &ExplorationReport {
        &self.report
    }

    /// The current optimization outcome (thresholds, bounds, objective).
    pub fn outcome(&self) -> &OptimizeOutcome {
        &self.outcome
    }

    /// Number of threshold recalculations triggered online.
    pub fn recalcs(&self) -> u64 {
        self.recalcs
    }

    /// Wall-clock milliseconds of the most recent model recalculation
    /// (Table VI's "update" latency).
    pub fn last_recalc_wall_ms(&self) -> f64 {
        self.last_recalc_wall_ms
    }

    /// Latency anomaly waiting for a re-exploration, if any.
    pub fn pending_reexploration(&self) -> Option<usize> {
        self.pending_reexploration
    }

    /// The decision log: every allocation decision this manager has taken,
    /// with timestamps, before/after allocations, and the model's estimated
    /// latencies.
    pub fn decisions(&self) -> &DecisionLog {
        &self.decisions
    }

    /// Replaces the exploration data and optimization outcome wholesale.
    ///
    /// An ablation/testing hook: lets experiments splice in exploration
    /// data gathered under non-standard stop conditions (e.g. with the
    /// backpressure ceiling lifted) while keeping the rest of the manager.
    /// `outcome` must come from `report` (one threshold per service, in
    /// its order).
    #[doc(hidden)]
    pub fn override_for_ablation(&mut self, report: ExplorationReport, outcome: OptimizeOutcome) {
        self.report = report;
        self.outcome = outcome;
        self.prepare_optimizer();
    }

    /// Prepares the optimizer again, from the report and relaxation as they
    /// now stand (priced, for want of anything it matters to, at the rates
    /// of the last decision).
    fn prepare_optimizer(&mut self) {
        self.prepared = PreparedOptimizer::new(
            &self.report,
            &relax_slas(&self.slas, &self.relaxation),
            &self.last_rates,
            &self.cfg.exploration.percentile_grid,
        );
    }

    /// The Theorem-1 latency bound for SLA constraint `k`, corrected by the
    /// observed overestimation ratio (the paper's estimated latency in
    /// Figs. 9–10).
    pub fn estimated_latency(&self, k: usize) -> f64 {
        self.tracker.estimate(k, self.outcome.latency_bounds[k])
    }

    /// The uncorrected Theorem-1 bound for SLA constraint `k`.
    pub fn latency_bound(&self, k: usize) -> f64 {
        self.outcome.latency_bounds[k]
    }

    /// Applies the initial allocation for the given application rates and
    /// logs the resulting per-service deltas.
    pub fn apply_initial_allocation(
        &mut self,
        class_rates: &[f64],
        control: &mut dyn ControlPlane,
    ) {
        let mut deltas = Vec::new();
        let projected = project(
            &self.report,
            &self.outcome.thresholds,
            class_rates,
            &mut self.service_loads,
        );
        for (service, replicas, _) in projected {
            let sid = ServiceId(service);
            let replicas_before = control.replicas(sid);
            let cores_before = control.cpu_limit(sid);
            control.set_replicas(sid, replicas);
            // Read back: a capacity-capped control plane may clamp.
            let replicas_after = control.replicas(sid);
            if replicas_after != replicas_before {
                deltas.push(ServiceDelta {
                    service,
                    replicas_before,
                    replicas_after,
                    cores_before,
                    cores_after: control.cpu_limit(sid),
                });
            }
        }
        self.clock = control.now();
        let record = DecisionRecord {
            at: self.clock,
            kind: DecisionKind::InitialAllocation,
            deltas,
            estimated_latency: self.estimated_latencies(),
            objective: Some(self.outcome.solution.objective),
        };
        self.decisions.push(record);
        self.last_rates.clear();
        self.last_rates.extend_from_slice(class_rates);
    }

    /// Recalculates LPR thresholds from existing exploration data at the
    /// given application-level rates (§V: load-anomaly response).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; on error the previous thresholds stay
    /// active.
    pub fn recalculate(&mut self, class_rates: &[f64]) -> Result<(), ModelError> {
        self.project_before();
        self.recalculate_inner(class_rates)?;
        self.log_model_update(DecisionKind::Recalculate, class_rates);
        Ok(())
    }

    /// [`recalculate`](Self::recalculate) without the decision-log entry
    /// (used by `re_explore`, which logs one combined record instead):
    /// re-prices the prepared optimizer and rewrites the outcome in place.
    fn recalculate_inner(&mut self, class_rates: &[f64]) -> Result<(), ModelError> {
        let t0 = std::time::Instant::now();
        let prepared = self.prepared.as_mut().map_err(|e| e.clone())?;
        prepared.optimize_at(&self.report, class_rates, &mut self.outcome)?;
        self.last_recalc_wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
        self.recalcs += 1;
        Ok(())
    }

    /// The model's estimated latency for every SLA constraint.
    fn estimated_latencies(&self) -> Vec<f64> {
        (0..self.slas.len())
            .map(|k| self.estimated_latency(k))
            .collect()
    }

    /// Notes what the current thresholds project at the rates of the last
    /// decision: the "before" of the model update about to be made.
    fn project_before(&mut self) {
        self.projected_before.clear();
        self.projected_before.extend(project(
            &self.report,
            &self.outcome.thresholds,
            &self.last_rates,
            &mut self.service_loads,
        ));
    }

    /// Logs a model-level decision as the change in projected allocation
    /// since [`project_before`](Self::project_before).
    fn log_model_update(&mut self, kind: DecisionKind, class_rates: &[f64]) {
        let mut deltas = Vec::new();
        let projected = project(
            &self.report,
            &self.outcome.thresholds,
            class_rates,
            &mut self.service_loads,
        );
        for (service, replicas_after, cores_after) in projected {
            let (replicas_before, cores_before) = self
                .projected_before
                .iter()
                .find(|(s, _, _)| *s == service)
                .map(|&(_, r, c)| (r, c))
                .unwrap_or((0, 0.0));
            if replicas_before != replicas_after || (cores_before - cores_after).abs() > 1e-12 {
                deltas.push(ServiceDelta {
                    service,
                    replicas_before,
                    replicas_after,
                    cores_before,
                    cores_after,
                });
            }
        }
        let record = DecisionRecord {
            at: self.clock,
            kind,
            deltas,
            estimated_latency: self.estimated_latencies(),
            objective: Some(self.outcome.solution.objective),
        };
        self.decisions.push(record);
        self.last_rates.clear();
        self.last_rates.extend_from_slice(class_rates);
    }

    /// Partially re-explores one service (e.g. after a business-logic
    /// update; §VII-G) with `work_scale` applied to its service times, then
    /// re-optimizes. Returns the partial-exploration cost.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn re_explore(
        &mut self,
        service: usize,
        work_scale: f64,
        class_rates: &[f64],
    ) -> Result<ReexplorationStats, ModelError> {
        let sid = ServiceId(service);
        self.project_before();
        let mut profile = ServiceProfile::extract(&self.topology, sid, class_rates);
        // Fold the logic change into the replayed work profile.
        for cw in &mut profile.per_class {
            cw.pre = scale_work(&cw.pre, work_scale);
            cw.post = scale_work(&cw.post, work_scale);
        }
        let mut sla_of_class = vec![None; self.topology.num_classes()];
        for s in &self.slas {
            sla_of_class[s.class.0] = Some(*s);
        }
        let bp = self.profiles[service]
            .as_ref()
            .map(|p| p.threshold)
            .unwrap_or(MQ_UTILIZATION_CAP);
        let exp = explore_service(
            &profile,
            service,
            &sla_of_class,
            bp,
            &self.cfg.exploration,
            self.seed ^ 0xA11CE,
        );
        let stats = ReexplorationStats {
            service,
            samples: exp.samples,
            time: exp.time,
        };
        if let Some(slot) = self
            .report
            .services
            .iter_mut()
            .find(|e| e.service == service)
        {
            *slot = exp;
        } else {
            self.report.services.push(exp);
        }
        self.report.total_samples += stats.samples;
        self.work_scales[service] = work_scale;
        self.prepare_optimizer();
        match self.recalculate_inner(class_rates) {
            Ok(()) => {}
            Err(ModelError::Infeasible { .. }) => {
                // The refreshed latency rows over-constrain the model:
                // recalibrate the overestimation relaxation against the
                // updated application (paper §IV's refinement) and retry.
                self.relaxation = calibrate_relaxation(
                    &self.topology,
                    &self.slas,
                    class_rates,
                    &self.work_scales,
                    &mut self.report,
                    &self.cfg.exploration,
                    self.seed ^ 0xCA11B2,
                );
                self.prepare_optimizer();
                self.recalculate_inner(class_rates)?;
            }
            Err(e) => return Err(e),
        }
        self.log_model_update(DecisionKind::ReExplore { service }, class_rates);
        self.pending_reexploration = None;
        Ok(stats)
    }
}

/// Applies per-constraint target relaxation.
fn relax_slas(slas: &[Sla], relaxation: &[f64]) -> Vec<Sla> {
    slas.iter()
        .zip(relaxation)
        .map(|(s, r)| Sla::new(s.class, s.percentile, s.target * r))
        .collect()
}

/// Measures the Theorem-1 overestimation ratio per SLA constraint by
/// deploying the most-provisioned explored allocation and comparing the
/// model's latency bound against measured end-to-end percentiles.
///
/// Returns one relaxation factor per constraint, clamped to `[1, 3]`.
/// Calibration windows are charged to the exploration sample count.
#[doc(hidden)]
pub fn calibrate_relaxation(
    topology: &Topology,
    slas: &[Sla],
    class_rates: &[f64],
    work_scales: &[f64],
    report: &mut crate::exploration::ExplorationReport,
    cfg: &ExplorationConfig,
    seed: u64,
) -> Vec<f64> {
    use ursa_mip::solve_greedy;

    if slas.is_empty() {
        return Vec::new();
    }
    // Deploy the most-provisioned explored allocation briefly and measure
    // end-to-end latencies per class.
    let mut sim = ursa_sim::engine::Simulation::new(
        topology.clone(),
        ursa_sim::engine::SimConfig::default(),
        seed,
    );
    for (svc, &scale) in work_scales.iter().enumerate() {
        if (scale - 1.0).abs() > 1e-12 {
            sim.set_work_scale(ServiceId(svc), scale);
        }
    }
    let mut loads = Vec::new();
    for exp in &report.services {
        if let Some(opt) = exp.options.first() {
            exp.loads_at(class_rates, &mut loads);
            sim.set_replicas(ServiceId(exp.service), replicas_for(&opt.lpr, &loads));
        }
    }
    for (j, &rate) in class_rates.iter().enumerate() {
        sim.set_rate(
            ursa_sim::topology::ClassId(j),
            ursa_sim::workload::RateFn::Constant(rate),
        );
    }
    // Warm up one window, then measure a few.
    let windows = 4usize;
    sim.run_for(cfg.window);
    sim.harvest();
    let mut pooled: Vec<Vec<f64>> = vec![Vec::new(); class_rates.len()];
    for _ in 0..windows {
        sim.run_for(cfg.window);
        let snap = sim.harvest();
        for (c, acc) in pooled.iter_mut().enumerate() {
            acc.extend_from_slice(snap.e2e_latency[c].samples());
        }
    }
    report.total_samples += windows;
    report.wall_time += cfg.window.times(windows as u64 + 1);

    // The ratio at the SLA percentile is noisy when the measured tail is
    // thin (p99 of a few hundred samples is itself an extreme order
    // statistic), so measure the ratio at the closest *stable* percentile:
    // the one leaving at least ~30 samples beyond it. The overestimation
    // ratio of a chain varies slowly with the percentile, so the stable
    // ratio transfers to the SLA percentile.
    let stable_pct: Vec<f64> = slas
        .iter()
        .map(|sla| {
            let n = pooled[sla.class.0].len() as f64;
            let stable = if n > 60.0 {
                100.0 * (1.0 - 30.0 / n)
            } else {
                50.0
            };
            sla.percentile.min(stable).max(50.0)
        })
        .collect();

    // The model's bound at the stable percentile, with every service forced
    // to its most-provisioned option and targets disabled: the greedy
    // solver's DP then returns the tightest Theorem-1 bound.
    let mut single = report.clone();
    for svc in &mut single.services {
        svc.options.truncate(1);
    }
    let generous: Vec<Sla> = slas
        .iter()
        .zip(&stable_pct)
        .map(|(s, &p)| Sla::new(s.class, p, s.target * 1e6))
        .collect();
    let model =
        crate::optimizer::build_model(&single, &generous, class_rates, &cfg.percentile_grid);
    let Ok(solution) = solve_greedy(&model) else {
        return vec![1.0; slas.len()];
    };

    slas.iter()
        .enumerate()
        .map(|(k, sla)| {
            let bound = solution.estimated_latency(&model, k);
            let samples = &mut pooled[sla.class.0];
            if samples.is_empty() || bound <= 0.0 {
                return 1.0;
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let measured = ursa_stats::quantile::percentile_of_sorted(samples, stable_pct[k]);
            ursa_metrics::log_debug!(
                "[calibrate] class {} stable_p {:.2} bound {:.3}s measured {:.3}s n {}",
                sla.class.0,
                stable_pct[k],
                bound,
                measured,
                samples.len()
            );
            // 0.9 safety factor: the overestimation ratio shrinks as
            // allocations tighten (queueing correlates the hops), so
            // relaxing by the full-provisioning ratio would be optimistic.
            (0.9 * bound / measured.max(1e-9)).clamp(1.0, 3.0)
        })
        .collect()
}

/// Scales a work distribution's magnitude by `k` (logic-update hook).
fn scale_work(w: &ursa_sim::topology::WorkDist, k: f64) -> ursa_sim::topology::WorkDist {
    use ursa_sim::topology::WorkDist::*;
    match w {
        Constant(c) => Constant(c * k),
        Uniform { low, high } => Uniform {
            low: low * k,
            high: high * k,
        },
        Exponential { mean } => Exponential { mean: mean * k },
        LogNormal { mean, cv } => LogNormal {
            mean: mean * k,
            cv: *cv,
        },
        Pareto { x_min, alpha } => Pareto {
            x_min: x_min * k,
            alpha: *alpha,
        },
    }
}

impl ResourceManager for Ursa {
    fn name(&self) -> &str {
        "ursa"
    }

    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane) {
        self.clock = snapshot.at;

        // 0. Witness fault-plane events so chaos recovery timelines are
        // attributable in the decision log.
        for fault in &snapshot.faults {
            self.faults_seen += 1;
            self.decisions.push(DecisionRecord {
                at: fault.at,
                kind: DecisionKind::FaultWitnessed {
                    service: fault.service,
                    recovered: fault.phase == ursa_sim::chaos::FaultPhase::Recovered,
                },
                deltas: Vec::new(),
                estimated_latency: Vec::new(),
                objective: None,
            });
        }

        // 1. Threshold scaling (the fast path).
        self.loads.read(snapshot);
        let actions = self
            .scaler
            .tick(&self.loads, &self.outcome.thresholds, control);
        if !actions.is_empty() {
            let deltas = actions
                .iter()
                .map(|a| {
                    let sid = ServiceId(a.service);
                    let cores = control.cpu_limit(sid);
                    ServiceDelta {
                        service: a.service,
                        replicas_before: a.from,
                        // Read back: the control plane may clamp (capped cluster).
                        replicas_after: control.replicas(sid),
                        cores_before: cores,
                        cores_after: cores,
                    }
                })
                .collect();
            let record = DecisionRecord {
                at: snapshot.at,
                kind: DecisionKind::ThresholdScale,
                deltas,
                estimated_latency: self.estimated_latencies(),
                objective: None,
            };
            self.decisions.push(record);
        }

        // 2. Track overestimation ratios for the latency estimate.
        for (k, sla) in self.slas.iter().enumerate() {
            if let Some(measured) = snapshot.e2e_latency[sla.class.0].percentile(sla.percentile) {
                let bound = self.outcome.latency_bounds[k];
                self.tracker.observe(k, measured, bound);
            }
        }

        // 3. Anomaly detection.
        if self.recalc_cooldown > 0 {
            self.recalc_cooldown -= 1;
        }
        let mut anomalies = std::mem::take(&mut self.anomalies);
        self.detector.check(
            snapshot,
            &self.loads,
            &self.slas,
            &self.outcome.thresholds,
            &self.class_services,
            &mut anomalies,
        );
        for anomaly in anomalies.drain(..) {
            match anomaly {
                Anomaly::LoadMix { .. } if self.recalc_cooldown == 0 => {
                    let window = snapshot.window.as_secs_f64().max(1e-9);
                    let mut rates = std::mem::take(&mut self.window_rates);
                    rates.clear();
                    rates.extend(snapshot.injections.iter().map(|&n| n as f64 / window));
                    // Ignore solver errors online; stale thresholds remain.
                    let _ = self.recalculate(&rates);
                    self.window_rates = rates;
                    self.recalc_cooldown = 5;
                }
                Anomaly::LoadMix { .. } => {}
                Anomaly::Latency {
                    service,
                    violation_rate,
                    ..
                } => {
                    // Log the implicated service and observed violation
                    // rate before queueing, so chaos recovery timelines
                    // are attributable even if the operator never answers.
                    if self.pending_reexploration != Some(service) {
                        self.decisions.push(DecisionRecord {
                            at: snapshot.at,
                            kind: DecisionKind::AnomalyReExplore {
                                service,
                                violation_bps: (violation_rate * 10_000.0).round() as u32,
                            },
                            deltas: Vec::new(),
                            estimated_latency: self.estimated_latencies(),
                            objective: None,
                        });
                    }
                    self.pending_reexploration = Some(service);
                }
            }
        }
        self.anomalies = anomalies;
    }

    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ctrl_recalcs_total", self.recalcs as f64),
            ("ctrl_decisions_total", self.decisions.len() as f64),
            (
                "ctrl_exploration_samples_total",
                self.report.total_samples as f64,
            ),
            ("ctrl_mip_solve_ms_last", self.last_recalc_wall_ms),
            (
                "ctrl_reexploration_pending",
                self.pending_reexploration.is_some() as u8 as f64,
            ),
            ("ctrl_fault_events_seen_total", self.faults_seen as f64),
        ]
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Opt in to observer downcasts: the post-mortem pipeline reads the
        // decision log and re-exploration state through this.
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_sim::control::{run_deployment, DeployConfig};
    use ursa_sim::workload::RateFn;

    fn quick_cfg() -> UrsaConfig {
        UrsaConfig {
            exploration: ExplorationConfig {
                samples_per_option: 3,
                window: SimDur::from_secs(15),
                max_options: 5,
                ..Default::default()
            },
            profiling: ProfilingConfig {
                windows_per_level: 4,
                window: SimDur::from_secs(8),
                levels: 6,
            },
        }
    }

    #[test]
    fn prepares_and_manages_vanilla_social() {
        let app = social_network(true);
        let total = 250.0;
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| total * w / sum).collect();
        let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, quick_cfg(), 42)
            .expect("prepare");

        let stats = ursa.offline_stats();
        assert!(stats.exploration_samples > 0);
        assert!(
            stats.profiled_services >= 3,
            "profiled {}",
            stats.profiled_services
        );
        assert!(ursa.outcome().solution.objective > 0.0);

        // Deploy under the exploration mix.
        let mut sim = app.build_sim(7);
        app.apply_load(&mut sim, RateFn::Constant(total));
        ursa.apply_initial_allocation(&rates, &mut sim);
        let cfg = DeployConfig {
            duration: SimDur::from_mins(12),
            warmup: SimDur::from_mins(2),
            ..Default::default()
        };
        let report = run_deployment(&mut sim, &app.slas, &mut ursa, &cfg);
        let viol = report.overall_violation_rate();
        assert!(viol < 0.25, "violation rate {viol}");
        // The decision log opens with the initial allocation and exports as
        // one JSONL line per decision.
        let log = ursa.decisions();
        let first = log.records().next().expect("log non-empty");
        assert_eq!(
            first.kind,
            crate::decision_log::DecisionKind::InitialAllocation
        );
        assert!(!first.deltas.is_empty());
        assert_eq!(first.estimated_latency.len(), app.slas.len());
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), log.len());
        // Latency estimate is in the right ballpark of the bound.
        for k in 0..app.slas.len() {
            let bound = ursa.latency_bound(k);
            let est = ursa.estimated_latency(k);
            assert!(bound > 0.0 && est > 0.0 && est <= bound * 2.0);
        }
    }

    #[test]
    fn recalculate_updates_thresholds() {
        let app = social_network(true);
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| 200.0 * w / sum).collect();
        let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, quick_cfg(), 43)
            .expect("prepare");
        let obj_before = ursa.outcome().solution.objective;
        // Double the load: objective (projected cores) must grow.
        let doubled: Vec<f64> = rates.iter().map(|r| r * 2.0).collect();
        ursa.recalculate(&doubled).expect("recalc");
        assert!(ursa.outcome().solution.objective > obj_before);
        assert_eq!(ursa.recalcs(), 1);
        assert!(ursa.last_recalc_wall_ms() > 0.0);
        // Doubling the load grows the projected allocation, which the
        // decision log must capture.
        let last = ursa.decisions().last().expect("recalc logged");
        assert_eq!(last.kind, crate::decision_log::DecisionKind::Recalculate);
        assert!(!last.deltas.is_empty());
        // Doubled load grows at least one service's projected allocation
        // (individual services may shrink if the solver switches their LPR
        // option, but the total allocation cannot).
        assert!(last
            .deltas
            .iter()
            .any(|d| d.replicas_after > d.replicas_before));
        assert_eq!(last.objective, Some(ursa.outcome().solution.objective));
    }

    #[test]
    fn re_explore_shrinks_latency_rows_after_speedup() {
        let app = social_network(true);
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| 200.0 * w / sum).collect();
        let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, quick_cfg(), 44)
            .expect("prepare");
        let svc = app.service("timeline-update").unwrap().0;
        let before: f64 = ursa
            .exploration()
            .services
            .iter()
            .find(|e| e.service == svc)
            .and_then(|e| e.options[0].latency.iter().flatten().next().cloned())
            .map(|row| row[0])
            .expect("row");
        let stats = ursa.re_explore(svc, 0.25, &rates).expect("re-explore");
        assert!(stats.samples > 0);
        assert_eq!(
            ursa.decisions().last().expect("re-explore logged").kind,
            crate::decision_log::DecisionKind::ReExplore { service: svc }
        );
        let after: f64 = ursa
            .exploration()
            .services
            .iter()
            .find(|e| e.service == svc)
            .and_then(|e| e.options[0].latency.iter().flatten().next().cloned())
            .map(|row| row[0])
            .expect("row");
        assert!(after < before, "{before} -> {after}");
    }

    /// The optimizer a re-exploration prepares again is the one the updated
    /// report prepares from scratch: same outcome at the re-exploration's
    /// rates, and at others after it.
    #[test]
    fn re_explore_prepares_what_the_updated_report_prepares() {
        let app = social_network(true);
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| 200.0 * w / sum).collect();
        let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, quick_cfg(), 44)
            .expect("prepare");
        let svc = app.service("timeline-update").unwrap().0;
        ursa.re_explore(svc, 0.25, &rates).expect("re-explore");
        let grid = quick_cfg().exploration.percentile_grid;
        let same_as_scratch = |ursa: &Ursa, rates: &[f64]| {
            let got = ursa.outcome();
            let want = crate::optimizer::optimize(ursa.exploration(), &got.slas, rates, &grid)
                .expect("feasible from scratch");
            assert_eq!(got.thresholds, want.thresholds);
            assert_eq!(got.solution, want.solution);
            let bits = |bounds: &[f64]| bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.latency_bounds), bits(&want.latency_bounds));
            assert_eq!(got.slas, want.slas);
        };
        same_as_scratch(&ursa, &rates);
        let skewed: Vec<f64> = rates
            .iter()
            .enumerate()
            .map(|(j, r)| r * (1.0 + j as f64))
            .collect();
        ursa.recalculate(&skewed).expect("recalc");
        same_as_scratch(&ursa, &skewed);
    }
}
