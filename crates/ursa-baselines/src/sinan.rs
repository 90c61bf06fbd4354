//! A Sinan-style model-based ML resource manager (paper §VII-B).
//!
//! Sinan trains (i) a neural network predicting the end-to-end latency a
//! candidate allocation would produce and (ii) a boosted-trees model
//! predicting the probability the allocation leads to an SLA violation
//! later; a centralized scheduler then queries the models over candidate
//! allocations each interval and picks the cheapest one predicted safe.
//!
//! Data collection follows Sinan's recipe: explore allocations around the
//! feasible boundary, keeping violating and satisfying samples roughly
//! balanced (1:1), one sample per telemetry interval — which is exactly why
//! the paper's Table V charges it 10 000 samples ≈ 166.7 hours per
//! application.

use ursa_ml::gbt::{GbtParams, GbtRegressor};
use ursa_ml::mlp::{Activation, Mlp, Output};
use ursa_sim::control::{ControlPlane, ResourceManager, Sla};
use ursa_sim::engine::Simulation;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::SimDur;
use ursa_sim::topology::ServiceId;
use ursa_stats::rng::Rng;

/// One training sample: allocation + load → latency outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Feature vector (normalized replicas per service ++ normalized RPS
    /// per class).
    pub features: Vec<f64>,
    /// Per-SLA-class latency as a fraction of its SLA target.
    pub latency_ratio: Vec<f64>,
    /// Whether any SLA class violated its target in this window.
    pub violated: bool,
}

/// A collected training set plus the normalization constants.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Collected samples.
    pub samples: Vec<Sample>,
    /// Per-service replica normalizer (max replicas seen).
    pub replica_scale: Vec<f64>,
    /// Per-class RPS normalizer.
    pub rps_scale: Vec<f64>,
    /// Simulated time the collection took.
    pub collection_time: SimDur,
}

impl Dataset {
    /// Fraction of samples labelled as violations.
    pub fn violation_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.violated).count() as f64 / self.samples.len() as f64
    }
}

/// Collection configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Number of samples (the paper uses 10 000).
    pub samples: usize,
    /// Telemetry interval per sample (the paper samples once per minute).
    pub window: SimDur,
    /// Maximum replicas per service explored.
    pub max_replicas: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            samples: 10_000,
            window: SimDur::from_mins(1),
            max_replicas: 24,
        }
    }
}

/// The feature vector of an allocation under a load: each service's
/// replicas, then each class's requests per second, over their normalisers.
fn features<'a>(
    replicas: &'a [usize],
    rps: &'a [f64],
    replica_scale: &'a [f64],
    rps_scale: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    replicas
        .iter()
        .zip(replica_scale)
        .map(|(&r, &s)| r as f64 / s.max(1.0))
        .chain(rps.iter().zip(rps_scale).map(|(&a, &s)| a / s.max(1e-9)))
}

/// Runs Sinan's data-collection episode on a fresh simulation.
///
/// Each window, the collector perturbs the allocation; it biases the
/// perturbations to keep violating and satisfying windows near 1:1 (Sinan's
/// balance requirement): after a violating window it adds resources, after
/// a comfortable window it removes them.
pub fn collect(sim: &mut Simulation, slas: &[Sla], cfg: &CollectConfig, seed: u64) -> Dataset {
    let n_services = sim.topology().num_services();
    let mut rng = Rng::seed_from(seed);
    let mut samples = Vec::with_capacity(cfg.samples);
    let replica_scale = vec![cfg.max_replicas as f64; n_services];
    let mut rps_scale = vec![1e-9; sim.topology().num_classes()];
    let t0 = sim.now();

    // Warm-up window.
    sim.run_for(cfg.window);
    sim.harvest();

    let mut last_violated = false;
    for _ in 0..cfg.samples {
        // Perturb the allocation, biased toward the violation boundary.
        for s in 0..n_services {
            let cur = sim.replicas(ServiceId(s));
            let delta: i64 = if last_violated {
                // Mostly add.
                [0, 1, 1, 2][rng.index(4)]
            } else {
                // Mostly remove.
                [0, -1, -1, -2, 1][rng.index(5)]
            };
            let next = (cur as i64 + delta).clamp(1, cfg.max_replicas as i64) as usize;
            sim.set_replicas(ServiceId(s), next);
        }
        sim.run_for(cfg.window);
        let snap = sim.harvest();
        let replicas: Vec<usize> = (0..n_services).map(|s| snap.services[s].replicas).collect();
        let rps: Vec<f64> = (0..sim.topology().num_classes())
            .map(|c| snap.class_rps(ursa_sim::topology::ClassId(c)))
            .collect();
        for (sc, &a) in rps_scale.iter_mut().zip(&rps) {
            *sc = f64::max(*sc, a);
        }
        let mut latency_ratio = Vec::with_capacity(slas.len());
        let mut violated = false;
        for sla in slas {
            let ratio = snap.e2e_latency[sla.class.0]
                .percentile(sla.percentile)
                .map(|l| l / sla.target)
                .unwrap_or(0.0);
            if ratio > 1.0 {
                violated = true;
            }
            latency_ratio.push(ratio.min(5.0));
        }
        last_violated = violated;
        samples.push(Sample {
            features: features(&replicas, &rps, &replica_scale, &rps_scale).collect(),
            latency_ratio,
            violated,
        });
    }
    Dataset {
        samples,
        replica_scale,
        rps_scale,
        collection_time: sim.now() - t0,
    }
}

/// The trained Sinan-style manager.
#[derive(Debug, Clone)]
pub struct Sinan {
    latency_model: Mlp,
    violation_model: GbtRegressor,
    replica_scale: Vec<f64>,
    rps_scale: Vec<f64>,
    slas: Vec<Sla>,
    /// Predicted latency-ratio ceiling accepted as safe.
    safety_ratio: f64,
    /// Predicted violation probability accepted as safe.
    safety_violation_prob: f64,
    max_replicas: usize,
    rng: Rng,
    training_wall: std::time::Duration,
    /// Candidates drawn over all ticks, priced or not: the self-profile's
    /// `ctrl_candidates_evaluated_total`.
    candidates_evaluated: u64,
    fallback_scaleouts: u64,
    faults_seen: u64,
    tick: TickBuffers,
}

/// What one decision works in, kept between ticks: the live allocation,
/// the load, each service's CPU limit, the candidates, one allocation after
/// another, and each candidate's `(cost, index)` in pricing order; then what
/// the predictors work in — one chunk's feature vectors (feature-major), the
/// latency model's outputs and hidden activations, and the violation
/// model's outputs.
#[derive(Debug, Default)]
struct TickBuffers {
    current: Vec<usize>,
    rps: Vec<f64>,
    limits: Vec<f64>,
    candidates: Vec<usize>,
    order: Vec<(f64, usize)>,
    features: Vec<f64>,
    ratios: Vec<f64>,
    hidden: Vec<f64>,
    violations: Vec<f64>,
}

/// Candidates priced together: the forward kernel's lane width, and the
/// boosted trees' batch.
const CHUNK: usize = 8;

/// A copy starts with empty buffers: every tick rewrites them before it
/// reads them, so copying a manager need not copy them.
impl Clone for TickBuffers {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Sinan {
    /// Candidate allocations drawn per decision. The cheapest predicted
    /// safe wins, so a decision prices candidates only up to it.
    pub const CANDIDATES_PER_TICK: usize = 64;

    /// Trains the latency MLP and violation GBT on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(dataset: &Dataset, slas: &[Sla], epochs: usize, seed: u64) -> Self {
        assert!(!dataset.samples.is_empty(), "empty dataset");
        let t0 = std::time::Instant::now();
        let in_dim = dataset.samples[0].features.len();
        let out_dim = slas.len();
        let mut latency_model = Mlp::new(
            &[in_dim, 64, 64, out_dim],
            Activation::Relu,
            Output::Linear,
            seed,
        );
        let xs: Vec<Vec<f64>> = dataset.samples.iter().map(|s| s.features.clone()).collect();
        let ys: Vec<Vec<f64>> = dataset
            .samples
            .iter()
            .map(|s| s.latency_ratio.clone())
            .collect();
        let mut rng = Rng::seed_from(seed ^ 0xBEEF);
        let batch = 64.min(xs.len());
        for _ in 0..epochs {
            // Mini-batch SGD over shuffled indices.
            let mut idx: Vec<usize> = (0..xs.len()).collect();
            rng.shuffle(&mut idx);
            for chunk in idx.chunks(batch) {
                let bx: Vec<&[f64]> = chunk.iter().map(|&i| xs[i].as_slice()).collect();
                let by: Vec<&[f64]> = chunk.iter().map(|&i| ys[i].as_slice()).collect();
                latency_model.train_batch(&bx, &by, 1e-3);
            }
        }
        let labels: Vec<f64> = dataset
            .samples
            .iter()
            .map(|s| if s.violated { 1.0 } else { 0.0 })
            .collect();
        let violation_model = GbtRegressor::fit(&xs, &labels, &GbtParams::default(), seed ^ 0xCAFE);
        Sinan {
            latency_model,
            violation_model,
            replica_scale: dataset.replica_scale.clone(),
            rps_scale: dataset.rps_scale.clone(),
            slas: slas.to_vec(),
            safety_ratio: 0.85,
            safety_violation_prob: 0.45,
            max_replicas: dataset.replica_scale[0] as usize,
            rng: Rng::seed_from(seed ^ 0xD00D),
            training_wall: t0.elapsed(),
            candidates_evaluated: 0,
            fallback_scaleouts: 0,
            faults_seen: 0,
            tick: TickBuffers::default(),
        }
    }

    /// Wall-clock time spent training (Table VI's "update" latency analog).
    pub fn training_wall(&self) -> std::time::Duration {
        self.training_wall
    }

    /// The SLAs this manager was trained against.
    pub fn slas(&self) -> &[Sla] {
        &self.slas
    }

    /// The trained latency predictor: feature row → latency ratio per SLA.
    pub fn latency_model(&self) -> &Mlp {
        &self.latency_model
    }

    /// The trained violation model: feature row → violation probability
    /// (unclamped).
    pub fn violation_model(&self) -> &GbtRegressor {
        &self.violation_model
    }

    /// Evaluates the violation predictor on a dataset: returns
    /// (classification accuracy at the 0.5 threshold, AUC if both classes
    /// are present). The paper reports Sinan's predictor reaching only
    /// 80–85 % accuracy with multiple request classes, which it links to
    /// Sinan's residual SLA violations.
    pub fn evaluate_violation_predictor(&self, dataset: &Dataset) -> (f64, Option<f64>) {
        let scores: Vec<f64> = dataset
            .samples
            .iter()
            .map(|s| self.violation_model.predict(&s.features).clamp(0.0, 1.0))
            .collect();
        let labels: Vec<f64> = dataset
            .samples
            .iter()
            .map(|s| if s.violated { 1.0 } else { 0.0 })
            .collect();
        (
            ursa_ml::metrics::accuracy(&scores, &labels, 0.5),
            ursa_ml::metrics::auc(&scores, &labels),
        )
    }

    /// Predicts (max latency ratio, violation probability) for an
    /// allocation under a load.
    pub fn predict(&mut self, replicas: &[usize], rps: &[f64]) -> (f64, f64) {
        let TickBuffers {
            features,
            ratios,
            hidden,
            ..
        } = &mut self.tick;
        features.clear();
        features.extend(self::features(
            replicas,
            rps,
            &self.replica_scale,
            &self.rps_scale,
        ));
        self.latency_model.predict_into(features, ratios, hidden);
        let max_ratio = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let viol = self.violation_model.predict(features).clamp(0.0, 1.0);
        (max_ratio, viol)
    }

    /// The cheapest of the `count` allocations in `buf.candidates` (one
    /// after another) predicted safe under `buf.rps`, by index; the first
    /// on ties. Also returns how many candidates it priced.
    ///
    /// The candidates are priced in order of `(cost, index)`, [`CHUNK`] at a
    /// time, and the first predicted safe is the answer: no candidate after
    /// it is priced. Each prediction has the bits
    /// [`predict`](Self::predict) gives its candidate alone.
    fn cheapest_safe(&self, buf: &mut TickBuffers, count: usize) -> (Option<usize>, usize) {
        if count == 0 {
            return (None, 0);
        }
        let TickBuffers {
            rps,
            limits,
            candidates,
            order,
            features,
            ratios,
            hidden,
            violations,
            ..
        } = buf;
        let n = candidates.len() / count;
        order.clear();
        order.extend(
            candidates
                .chunks_exact(n)
                .enumerate()
                .map(|(k, candidate)| {
                    let cores: f64 = candidate
                        .iter()
                        .zip(limits.iter())
                        .map(|(&r, &limit)| r as f64 * limit)
                        .sum();
                    (cores, k)
                }),
        );
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut priced = 0;
        for chunk in order.chunks(CHUNK) {
            let width = chunk.len();
            features.clear();
            features.resize((n + rps.len()) * width, 0.0);
            for (c, &(_, k)) in chunk.iter().enumerate() {
                let column = features[c..].iter_mut().step_by(width);
                let candidate = &candidates[k * n..(k + 1) * n];
                let values = self::features(candidate, rps, &self.replica_scale, &self.rps_scale);
                for (slot, v) in column.zip(values) {
                    *slot = v;
                }
            }
            self.latency_model
                .predict_batch(features, width, ratios, hidden);
            violations.clear();
            violations.resize(width, 0.0);
            self.violation_model.predict_batch(features, violations);
            priced += width;
            for (c, &(_, k)) in chunk.iter().enumerate() {
                let ratio = ratios[c..]
                    .iter()
                    .step_by(width)
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let viol = violations[c].clamp(0.0, 1.0);
                if ratio < self.safety_ratio && viol < self.safety_violation_prob {
                    return (Some(k), priced);
                }
            }
        }
        (None, priced)
    }
}

impl ResourceManager for Sinan {
    fn name(&self) -> &str {
        "sinan"
    }

    /// The centralized decision loop: draw candidate allocations, price
    /// them with the models cheapest first, keep the first predicted safe.
    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane) {
        self.faults_seen += snapshot.faults.len() as u64;
        let n = control.num_services();
        let mut buf = std::mem::take(&mut self.tick);
        buf.current.clear();
        buf.current
            .extend((0..n).map(|s| control.replicas(ServiceId(s))));
        buf.rps.clear();
        buf.rps.extend(
            (0..snapshot.injections.len())
                .map(|c| snapshot.class_rps(ursa_sim::topology::ClassId(c))),
        );
        buf.limits.clear();
        buf.limits
            .extend((0..n).map(|s| control.cpu_limit(ServiceId(s))));

        // Every candidate is drawn before any is priced, so the draws do not
        // depend on how many are priced.
        let count = Self::CANDIDATES_PER_TICK;
        buf.candidates.clear();
        for k in 0..count {
            if k == 0 {
                buf.candidates.extend_from_slice(&buf.current);
            } else {
                buf.candidates.extend(buf.current.iter().map(|&r| {
                    let delta = [-2i64, -1, -1, 0, 0, 1, 1, 2][self.rng.index(8)];
                    (r as i64 + delta).clamp(1, self.max_replicas as i64) as usize
                }));
            }
        }
        self.candidates_evaluated += count as u64;
        match self.cheapest_safe(&mut buf, count).0 {
            Some(k) => {
                let best = &buf.candidates[k * n..(k + 1) * n];
                for (s, (&r, &live)) in best.iter().zip(&buf.current).enumerate() {
                    if r != live {
                        control.set_replicas(ServiceId(s), r);
                    }
                }
            }
            None => {
                // No candidate predicted safe: scale everything out.
                self.fallback_scaleouts += 1;
                for (s, &r) in buf.current.iter().enumerate() {
                    control.set_replicas(ServiceId(s), (r + 1).min(self.max_replicas));
                }
            }
        }
        self.tick = buf;
    }

    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "ctrl_candidates_evaluated_total",
                self.candidates_evaluated as f64,
            ),
            (
                "ctrl_fallback_scaleouts_total",
                self.fallback_scaleouts as f64,
            ),
            (
                "ctrl_model_train_ms",
                self.training_wall.as_secs_f64() * 1e3,
            ),
            ("ctrl_fault_events_seen_total", self.faults_seen as f64),
        ]
    }
}

/// Convenience: collect and train in one call on a fresh sim.
///
/// The caller configures arrival rates on the sim before passing it in.
pub fn collect_and_train(
    sim: &mut Simulation,
    slas: &[Sla],
    cfg: &CollectConfig,
    epochs: usize,
    seed: u64,
) -> (Sinan, Dataset) {
    let dataset = collect(sim, slas, cfg, seed);
    let sinan = Sinan::train(&dataset, slas, epochs, seed ^ 1);
    (sinan, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ursa_apps::social_network;
    use ursa_ml::mlp::{Activation, Output};
    use ursa_sim::topology::ClassId;
    use ursa_sim::workload::RateFn;

    /// The decision rule priced in full, the reference for the search:
    /// every candidate through both models in one batch, then the cheapest
    /// predicted safe, the first on ties.
    fn cheapest_safe_sweep(sinan: &Sinan, buf: &mut TickBuffers, count: usize) -> Option<usize> {
        if count == 0 {
            return None;
        }
        let TickBuffers {
            rps,
            limits,
            candidates,
            features,
            ratios,
            hidden,
            violations,
            ..
        } = buf;
        let n = candidates.len() / count;
        features.clear();
        features.resize((n + rps.len()) * count, 0.0);
        for (k, candidate) in candidates.chunks_exact(n).enumerate() {
            let column = features[k..].iter_mut().step_by(count);
            let values = super::features(candidate, rps, &sinan.replica_scale, &sinan.rps_scale);
            for (slot, v) in column.zip(values) {
                *slot = v;
            }
        }
        sinan
            .latency_model
            .predict_batch(features, count, ratios, hidden);
        violations.clear();
        violations.resize(count, 0.0);
        sinan.violation_model.predict_batch(features, violations);

        let mut best: Option<(f64, usize)> = None;
        for (k, candidate) in candidates.chunks_exact(n).enumerate() {
            let ratio = ratios[k..]
                .iter()
                .step_by(count)
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let viol = violations[k].clamp(0.0, 1.0);
            if ratio < sinan.safety_ratio && viol < sinan.safety_violation_prob {
                let cores: f64 = candidate
                    .iter()
                    .zip(limits.iter())
                    .map(|(&r, &limit)| r as f64 * limit)
                    .sum();
                if best.map(|(c, _)| cores < c).unwrap_or(true) {
                    best = Some((cores, k));
                }
            }
        }
        best.map(|(_, k)| k)
    }

    /// A Sinan over `services` services and `classes` classes whose models
    /// are fitted to random data: a latency network with `hidden`-wide
    /// layers and `outputs` outputs after one Adam step, and eight boosted
    /// trees.
    fn random_sinan(
        services: usize,
        classes: usize,
        outputs: usize,
        hidden: usize,
        seed: u64,
    ) -> Sinan {
        let mut rng = Rng::seed_from(seed);
        let dim = services + classes;
        let xs: Vec<Vec<f64>> = (0..48)
            .map(|_| (0..dim).map(|_| rng.next_f64()).collect())
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| (0..outputs).map(|o| x[o % dim] + rng.next_f64()).collect())
            .collect();
        let labels: Vec<f64> = xs
            .iter()
            .map(|x| f64::from(u8::from(x[0] + x[dim - 1] > 1.0)))
            .collect();
        let dims = [dim, hidden, hidden, outputs];
        let mut latency_model = Mlp::new(&dims, Activation::Relu, Output::Linear, seed);
        latency_model.train_batch(&xs, &ys, 0.05);
        let params = GbtParams {
            n_trees: 8,
            ..GbtParams::default()
        };
        Sinan {
            latency_model,
            violation_model: GbtRegressor::fit(&xs, &labels, &params, seed),
            replica_scale: vec![8.0; services],
            rps_scale: vec![100.0; classes],
            slas: Vec::new(),
            safety_ratio: 0.85,
            safety_violation_prob: 0.45,
            max_replicas: 8,
            rng: Rng::seed_from(seed),
            training_wall: std::time::Duration::ZERO,
            candidates_evaluated: 0,
            fallback_scaleouts: 0,
            faults_seen: 0,
            tick: TickBuffers::default(),
        }
    }

    /// A decision's buffers holding `candidates` under `rps` and `limits`.
    fn buffers(candidates: &[Vec<usize>], rps: &[f64], limits: &[f64]) -> TickBuffers {
        TickBuffers {
            rps: rps.to_vec(),
            limits: limits.to_vec(),
            candidates: candidates.concat(),
            ..TickBuffers::default()
        }
    }

    /// The candidate first in `(cost, index)` order, or last if `dearest`.
    fn by_cost(candidates: &[Vec<usize>], limits: &[f64], dearest: bool) -> usize {
        let cost = |c: &[usize]| -> f64 { c.iter().zip(limits).map(|(&r, &l)| r as f64 * l).sum() };
        let keyed = (0..candidates.len()).map(|k| (cost(&candidates[k]), k));
        let order = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let pick = if dearest {
            keyed.max_by(order)
        } else {
            keyed.min_by(order)
        };
        pick.expect("a candidate").1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Pricing cheapest first and stopping at the first safe candidate
        /// picks what pricing every candidate picks — over random models,
        /// candidates, loads and CPU limits, with thresholds drawn from the
        /// candidates' own predictions. Cases 1–4 force equal-cost ties,
        /// nothing safe, only the dearest candidate safe and the cheapest
        /// candidate safe.
        #[test]
        fn lazy_search_picks_what_the_full_sweep_picks(
            services in 1usize..6,
            classes in 1usize..4,
            outputs in 1usize..4,
            hidden in 1usize..24,
            count in 1usize..71,
            case in 0u8..5,
            seed in any::<u64>(),
        ) {
            let mut sinan = random_sinan(services, classes, outputs, hidden, seed);
            let mut rng = Rng::seed_from(seed ^ 0x5AFE);
            let ties = case == 1;
            let most = if ties { 2 } else { 8 };
            let mut candidates: Vec<Vec<usize>> = (0..count)
                .map(|_| (0..services).map(|_| 1 + rng.index(most)).collect())
                .collect();
            let limits: Vec<f64> = (0..services)
                .map(|_| if ties { 1.0 } else { 0.25 * (1 + rng.index(16)) as f64 })
                .collect();
            let rps: Vec<f64> = (0..classes).map(|_| 100.0 * rng.next_f64()).collect();
            let predicted: Vec<(f64, f64)> =
                candidates.iter().map(|c| sinan.predict(c, &rps)).collect();
            // Safe below both thresholds, strictly: at a candidate's own
            // prediction's next value up, that candidate is safe.
            let mut safe_at = |k: usize| {
                sinan.safety_ratio = predicted[k].0.next_up();
                sinan.safety_violation_prob = predicted[k].1.next_up();
            };
            let forced = match case {
                0 | 1 => {
                    safe_at(rng.index(count));
                    sinan.safety_ratio = predicted[rng.index(count)].0.next_up();
                    None
                }
                2 => {
                    sinan.safety_ratio = predicted.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
                    Some(None)
                }
                3 => {
                    let dearest = by_cost(&candidates, &limits, true);
                    safe_at(dearest);
                    let (ratio, viol) = (sinan.safety_ratio, sinan.safety_violation_prob);
                    let keep: Vec<usize> = (0..count)
                        .filter(|&k| k == dearest || predicted[k].0 >= ratio || predicted[k].1 >= viol)
                        .collect();
                    let at = keep.iter().position(|&k| k == dearest);
                    candidates = keep.into_iter().map(|k| candidates[k].clone()).collect();
                    Some(at)
                }
                _ => {
                    let cheapest = by_cost(&candidates, &limits, false);
                    safe_at(cheapest);
                    Some(Some(cheapest))
                }
            };
            let count = candidates.len();
            let mut buf = buffers(&candidates, &rps, &limits);
            let want = cheapest_safe_sweep(&sinan, &mut buf, count);
            let (got, priced) = sinan.cheapest_safe(&mut buf, count);
            prop_assert_eq!(got, want);
            if let Some(forced) = forced {
                prop_assert_eq!(got, forced);
            }
            if got.is_none() {
                prop_assert_eq!(priced, count);
            }
        }
    }

    /// When the cheapest candidate is predicted safe, a decision prices one
    /// chunk and no more; when none is, it prices them all.
    #[test]
    fn safe_cheapest_candidate_prices_one_chunk() {
        let mut sinan = random_sinan(4, 2, 3, 16, 7);
        let mut rng = Rng::seed_from(11);
        let candidates: Vec<Vec<usize>> = (0..64)
            .map(|_| (0..4).map(|_| 1 + rng.index(8)).collect())
            .collect();
        let (rps, limits) = ([40.0, 70.0], [0.5, 1.0, 2.0, 1.5]);
        let cheapest = by_cost(&candidates, &limits, false);
        let (ratio, viol) = sinan.predict(&candidates[cheapest], &rps);
        sinan.safety_ratio = ratio.next_up();
        sinan.safety_violation_prob = viol.next_up();
        let mut buf = buffers(&candidates, &rps, &limits);
        assert_eq!(sinan.cheapest_safe(&mut buf, 64), (Some(cheapest), CHUNK));
        sinan.safety_ratio = f64::NEG_INFINITY;
        assert_eq!(sinan.cheapest_safe(&mut buf, 64), (None, 64));
    }

    /// The picks of a manager that `Sinan::train` built, over 256 random
    /// candidate sets, to the bit: each set's cheapest predicted safe and
    /// how many candidates were priced to find it. Either safety threshold
    /// moves it; the trained manager's replay in
    /// `tests/control_plane_replay.rs` does not see a ratio ceiling of
    /// 0.86 in place of 0.85, since no decision it replays prices a
    /// candidate between the two.
    #[test]
    fn trained_picks_are_pinned() {
        let (services, classes) = (4, 2);
        let mut rng = Rng::seed_from(0x5AFE7);
        let samples = (0..128)
            .map(|_| {
                let features: Vec<f64> = (0..services + classes).map(|_| rng.next_f64()).collect();
                let supply: f64 = features[..services].iter().sum::<f64>() / services as f64;
                let latency_ratio: Vec<f64> = features[services..]
                    .iter()
                    .map(|load| 0.3 + 1.4 * load - 0.8 * supply + 0.1 * rng.next_f64())
                    .collect();
                let violated = latency_ratio
                    .iter()
                    .any(|&r| r > 0.9 + 0.2 * rng.next_f64());
                Sample {
                    features,
                    latency_ratio,
                    violated,
                }
            })
            .collect();
        let dataset = Dataset {
            samples,
            replica_scale: vec![8.0; services],
            rps_scale: vec![100.0; classes],
            collection_time: SimDur::ZERO,
        };
        let slas: Vec<Sla> = (0..classes)
            .map(|c| Sla::new(ClassId(c), 99.0, 0.1))
            .collect();
        let sinan = Sinan::train(&dataset, &slas, 20, 3);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..256 {
            let candidates: Vec<Vec<usize>> = (0..64)
                .map(|_| (0..services).map(|_| 1 + rng.index(8)).collect())
                .collect();
            let rps: Vec<f64> = (0..classes).map(|_| 100.0 * rng.next_f64()).collect();
            let limits: Vec<f64> = (0..services)
                .map(|_| 0.25 * (1 + rng.index(8)) as f64)
                .collect();
            let mut buf = buffers(&candidates, &rps, &limits);
            let (pick, priced) = sinan.cheapest_safe(&mut buf, 64);
            word(pick.map_or(0, |k| k as u64 + 1));
            word(priced as u64);
        }
        assert_eq!(digest, 0xc78d_e938_be38_574d, "got {digest:#018x}");
    }

    fn quick_collect(samples: usize) -> (Sinan, Dataset) {
        let app = social_network(true);
        let mut sim = app.build_sim(5);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        let cfg = CollectConfig {
            samples,
            window: SimDur::from_secs(15),
            max_replicas: 12,
        };
        collect_and_train(&mut sim, &app.slas, &cfg, 6, 9)
    }

    #[test]
    fn collection_balances_labels() {
        let (_, dataset) = quick_collect(120);
        let frac = dataset.violation_fraction();
        assert!(
            (0.15..=0.85).contains(&frac),
            "violation fraction {frac} should be near-balanced"
        );
        assert_eq!(dataset.samples.len(), 120);
        assert!(dataset.collection_time >= SimDur::from_secs(15 * 120));
    }

    #[test]
    fn model_distinguishes_rich_from_poor_allocations() {
        let (mut sinan, dataset) = quick_collect(200);
        let n_services = dataset.replica_scale.len();
        let rps: Vec<f64> = dataset.rps_scale.clone();
        // The violation model (GBT) is the sample-efficient half; with a
        // small training set it must already separate starved from rich.
        let (_, viol_rich) = sinan.predict(&vec![12; n_services], &rps);
        let (_, viol_poor) = sinan.predict(&vec![1; n_services], &rps);
        assert!(
            viol_poor > viol_rich,
            "poor {viol_poor} should predict worse than rich {viol_rich}"
        );
    }

    /// Train/test evaluation of the violation predictor: well above chance
    /// but imperfect — the regime the paper attributes Sinan's residual
    /// violations to.
    #[test]
    fn violation_predictor_accuracy_in_paper_band() {
        let app = social_network(true);
        let mut sim = app.build_sim(5);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        let cfg = CollectConfig {
            samples: 260,
            window: SimDur::from_secs(15),
            max_replicas: 12,
        };
        let full = collect(&mut sim, &app.slas, &cfg, 9);
        // Deterministic stride split: every 4th sample held out.
        let (train_idx, test_idx) = ursa_ml::metrics::split_indices(full.samples.len(), 4);
        let train = Dataset {
            samples: train_idx.iter().map(|&i| full.samples[i].clone()).collect(),
            ..full.clone()
        };
        let test = Dataset {
            samples: test_idx.iter().map(|&i| full.samples[i].clone()).collect(),
            ..full.clone()
        };
        let sinan = Sinan::train(&train, &app.slas, 6, 10);
        let (acc, auc) = sinan.evaluate_violation_predictor(&test);
        assert!(acc > 0.6, "held-out accuracy {acc}");
        if let Some(auc) = auc {
            assert!(auc > 0.6, "held-out AUC {auc}");
        }
    }

    #[test]
    fn manager_acts_on_control_plane() {
        let app = social_network(true);
        let (mut sinan, _) = quick_collect(80);
        let mut sim = app.build_sim(11);
        app.apply_load(&mut sim, RateFn::Constant(250.0));
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        sinan.on_tick(&snap, &mut sim);
        // Every service still has at least one replica.
        for s in 0..app.topology.num_services() {
            assert!(sim.replicas(ServiceId(s)) >= 1);
        }
        let _ = snap.class_rps(ClassId(0));
    }
}
