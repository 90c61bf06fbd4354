//! Allocation-space exploration (paper §IV, Algorithm 1).
//!
//! Each microservice is explored *individually*: its observed workload is
//! replayed against an isolated harness while the replica count is stepped
//! down, raising the load per replica (LPR). Each step records the
//! per-class latency distribution; exploration stops as soon as either the
//! service's CPU utilization reaches its backpressure-free threshold (the
//! independence assumption would break) or SLA violations appear. The
//! recorded `(LPR → latency distribution)` map is the input to the
//! optimization engine.
//!
//! Because services are explored independently, total exploration *time* is
//! the longest single service's exploration, while total *samples* sum over
//! services — exactly how Table V accounts for Ursa's overhead.

use crate::harness::{IsolatedHarness, ServiceProfile, TESTED};
use ursa_metrics::pool;
use ursa_sim::control::Sla;
use ursa_sim::time::SimDur;
use ursa_sim::topology::{ServiceId, Topology};
use ursa_stats::quantile::percentile_of_sorted;
use ursa_stats::round::ceil_usize;

/// Tail estimates from few samples systematically understate extreme
/// percentiles. With fewer than this many samples beyond the requested
/// percentile, the estimate is partially blended toward the observed
/// maximum — biasing exploration toward SLA safety, consistent with
/// §VII-E's "Ursa prioritizes maintaining SLAs and makes conservative
/// decisions".
const MIN_TAIL_SAMPLES: f64 = 8.0;
/// Largest fraction of the (max − percentile) gap the blend may add.
const MAX_TAIL_BLEND: f64 = 0.6;
/// SLA-violation frequency that terminates exploration (`F_sla`).
const SLA_VIOLATION_THRESHOLD: f64 = 0.10;
/// Target starting utilization (sets the initial replica count).
const START_UTILIZATION: f64 = 0.22;
/// Utilization cap for MQ-only services (no backpressure, but queues must
/// stay stable): their stop condition in place of a profiled threshold.
pub(crate) const MQ_UTILIZATION_CAP: f64 = 0.88;

/// Percentile of sorted samples, conservative in thin tails.
fn conservative_percentile(sorted: &[f64], p: f64) -> f64 {
    let base = percentile_of_sorted(sorted, p);
    let tail = sorted.len() as f64 * (1.0 - p / 100.0);
    if tail >= MIN_TAIL_SAMPLES {
        return base;
    }
    let max = *sorted.last().expect("non-empty");
    let blend = MAX_TAIL_BLEND * (1.0 - (tail / MIN_TAIL_SAMPLES).clamp(0.0, 1.0));
    base + (max - base) * blend
}

/// One recorded LPR option (a row of the paper's `D_i` matrix).
#[derive(Debug, Clone, PartialEq)]
pub struct LprOption {
    /// Replica count used while recording this option.
    pub replicas: usize,
    /// Load per replica per application class (requests/second; 0.0 for
    /// classes that do not touch the service).
    pub lpr: Vec<f64>,
    /// Mean CPU utilization observed.
    pub utilization: f64,
    /// Per-class latency at the percentile grid (`None` for absent classes).
    pub latency: Vec<Option<Vec<f64>>>,
}

/// Everything learned about one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceExploration {
    /// Service index in the application topology.
    pub service: usize,
    /// Service name.
    pub name: String,
    /// CPU cores per replica (resource unit `u_i` of Equation 3).
    pub cores_per_replica: f64,
    /// Backpressure-free utilization threshold used as the stop condition.
    pub bp_threshold: f64,
    /// Visit multiplicity per application class (call-tree nodes of the
    /// class on this service; 0 for absent classes).
    pub visits: Vec<f64>,
    /// Recorded options, most-provisioned first.
    pub options: Vec<LprOption>,
    /// Telemetry samples consumed (including the terminal iteration).
    pub samples: usize,
    /// Simulated time spent exploring this service.
    pub time: SimDur,
}

/// Replicas a service needs at per-class `loads` so that no class's
/// per-replica load exceeds `lpr` (Equation 3's `max_j ⌈load_j / LPR_j⌉`;
/// at least one, classes with no threshold or no load ask for nothing).
pub fn replicas_for(lpr: &[f64], loads: &[f64]) -> usize {
    let mut needed = 1usize;
    for (a, y) in loads.iter().zip(lpr) {
        if *y > 0.0 && *a > 0.0 {
            needed = needed.max(ceil_usize(a / y));
        }
    }
    needed
}

impl ServiceExploration {
    /// This service's per-class load at application-level `class_rates`:
    /// each rate times the class's visit multiplicity here (the explored
    /// LPRs are service-level too). Overwrites `out`.
    pub fn loads_at(&self, class_rates: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(class_rates.iter().zip(&self.visits).map(|(r, v)| r * v));
    }

    /// Equation 3: the cores each recorded option costs at service-level
    /// `loads`, in option order.
    pub fn resources_at<'a>(&'a self, loads: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.options
            .iter()
            .map(move |opt| replicas_for(&opt.lpr, loads) as f64 * self.cores_per_replica)
    }
}

/// Exploration configuration (Algorithm 1's inputs).
#[derive(Debug, Clone)]
pub struct ExplorationConfig {
    /// Percentile grid `P` shared with the optimizer.
    pub percentile_grid: Vec<f64>,
    /// Samples (windows) per LPR option — the paper collects 10.
    pub samples_per_option: usize,
    /// Window length (the paper samples once per minute).
    pub window: SimDur,
    /// Maximum LPR options to record per service.
    pub max_options: usize,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            percentile_grid: vec![90.0, 95.0, 99.0, 99.5, 99.9],
            samples_per_option: 10,
            window: SimDur::from_mins(1),
            max_options: 10,
        }
    }
}

/// Explores one service (Algorithm 1).
///
/// `sla_of_class[j]` carries class `j`'s end-to-end SLA if any — used as a
/// generous per-service latency cap for the violation stop-condition (a
/// single service consuming the entire end-to-end budget is certainly a
/// violation).
///
/// # Panics
///
/// Panics if the profile has no classes or carries no load.
pub fn explore_service(
    profile: &ServiceProfile,
    service_index: usize,
    sla_of_class: &[Option<Sla>],
    bp_threshold: f64,
    cfg: &ExplorationConfig,
    seed: u64,
) -> ServiceExploration {
    assert!(profile.total_rate() > 0.0, "profile carries no load");
    let num_classes = sla_of_class.len();
    let demand = profile.cpu_demand();
    let start_replicas =
        ((demand / (profile.cfg.cores * START_UTILIZATION)).ceil() as usize).max(1);
    let step = (start_replicas as f64 / cfg.max_options as f64).ceil() as usize;
    let step = step.max(1);

    let mut options = Vec::new();
    let mut samples = 0usize;
    let mut time = SimDur::ZERO;
    let mut replicas = start_replicas;

    loop {
        let mut harness = IsolatedHarness::build(
            profile,
            replicas,
            1.0,
            1.0,
            seed ^ ((replicas as u64) << 16),
        );
        // Warm-up half a window, unmeasured.
        harness
            .sim_mut()
            .run_for(SimDur::from_nanos(cfg.window.as_nanos() / 2));
        harness.sim_mut().harvest();
        let mut per_class_samples: Vec<Vec<f64>> = vec![Vec::new(); profile.per_class.len()];
        let mut utils = Vec::new();
        for _ in 0..cfg.samples_per_option {
            harness.sim_mut().run_for(cfg.window);
            let snap = harness.sim_mut().harvest();
            for (i, acc) in per_class_samples.iter_mut().enumerate() {
                acc.extend_from_slice(snap.services[TESTED.0].tier_latency[i].samples());
            }
            utils.push(snap.services[TESTED.0].cpu_utilization);
            samples += 1;
            time += cfg.window;
        }
        time += SimDur::from_nanos(cfg.window.as_nanos() / 2);
        let utilization = utils.iter().sum::<f64>() / utils.len().max(1) as f64;

        // Stop condition 1: backpressure-free threshold reached.
        if utilization >= bp_threshold {
            break;
        }
        // Stop condition 2: SLA violations observed.
        let mut violated = false;
        for (i, cw) in profile.per_class.iter().enumerate() {
            if let Some(sla) = sla_of_class[cw.class.0] {
                let s = &per_class_samples[i];
                if !s.is_empty() {
                    let above = s.iter().filter(|&&x| x > sla.target).count();
                    if above as f64 / s.len() as f64 >= SLA_VIOLATION_THRESHOLD {
                        violated = true;
                    }
                }
            }
        }
        if violated {
            break;
        }

        // Record the option.
        let mut lpr = vec![0.0; num_classes];
        for cw in &profile.per_class {
            lpr[cw.class.0] = cw.rate / replicas as f64;
        }
        let mut latency: Vec<Option<Vec<f64>>> = vec![None; num_classes];
        for (i, cw) in profile.per_class.iter().enumerate() {
            let mut s = per_class_samples[i].clone();
            if s.is_empty() {
                continue;
            }
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            latency[cw.class.0] = Some(
                cfg.percentile_grid
                    .iter()
                    .map(|&p| conservative_percentile(&s, p))
                    .collect(),
            );
        }
        options.push(LprOption {
            replicas,
            lpr,
            utilization,
            latency,
        });

        if replicas <= 1 || options.len() >= cfg.max_options {
            break;
        }
        replicas = replicas.saturating_sub(step).max(1);
    }

    // Ensure low-rate classes have a row in every recorded option: carry
    // the nearest recorded row (conservative: from a *less* provisioned
    // option if available, else the more provisioned neighbour).
    for c in 0..num_classes {
        let known: Vec<usize> = (0..options.len())
            .filter(|&o| options[o].latency[c].is_some())
            .collect();
        if known.is_empty() {
            continue;
        }
        for o in 0..options.len() {
            if options[o].latency[c].is_none() {
                let donor = known
                    .iter()
                    .copied()
                    .min_by_key(|&k| (k as isize - o as isize).unsigned_abs())
                    .expect("non-empty known");
                options[o].latency[c] = options[donor].latency[c].clone();
            }
        }
    }

    let mut visits = vec![0.0; num_classes];
    for cw in &profile.per_class {
        visits[cw.class.0] = cw.visits;
    }
    ServiceExploration {
        service: service_index,
        name: profile.name.clone(),
        cores_per_replica: profile.cfg.cores,
        bp_threshold,
        visits,
        options,
        samples,
        time,
    }
}

/// Full-application exploration report (drives Table V).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationReport {
    /// Per-service exploration data.
    pub services: Vec<ServiceExploration>,
    /// Total telemetry samples across services.
    pub total_samples: usize,
    /// Wall-clock analog: the longest single service's exploration time
    /// (services are explored independently, hence in parallel).
    pub wall_time: SimDur,
}

/// Explores every service of an application under the given per-class
/// arrival rates. `bp_thresholds[s]` supplies each service's
/// backpressure-free threshold (from [`crate::profiling`]); MQ-only
/// services fall back to `MQ_UTILIZATION_CAP`.
///
/// Services are explored in parallel — faithful to the paper (per-service
/// exploration is independent, which is why Table V's time is the longest
/// single service) and a real wall-clock win for the harness — on a pool
/// no wider than the host's cores, so at most that many harness
/// simulations exist at once. Results are bit-identical at any width:
/// every service's seed derives from `seed` and its index, never from
/// scheduling.
pub fn explore_all(
    topology: &Topology,
    slas: &[Sla],
    class_rates: &[f64],
    bp_thresholds: &[Option<f64>],
    cfg: &ExplorationConfig,
    seed: u64,
) -> ExplorationReport {
    explore_all_on(
        pool::default_workers(),
        topology,
        slas,
        class_rates,
        bp_thresholds,
        cfg,
        seed,
    )
}

/// [`explore_all`] on an explicit pool width (the tests' handle on the
/// width-independence contract).
fn explore_all_on(
    workers: usize,
    topology: &Topology,
    slas: &[Sla],
    class_rates: &[f64],
    bp_thresholds: &[Option<f64>],
    cfg: &ExplorationConfig,
    seed: u64,
) -> ExplorationReport {
    let mut sla_of_class: Vec<Option<Sla>> = vec![None; topology.num_classes()];
    for s in slas {
        sla_of_class[s.class.0] = Some(*s);
    }
    let jobs: Vec<(usize, ServiceProfile, f64)> = (0..topology.num_services())
        .filter_map(|s| {
            let profile = ServiceProfile::extract(topology, ServiceId(s), class_rates);
            if profile.per_class.is_empty() || profile.total_rate() <= 0.0 {
                return None;
            }
            let threshold = bp_thresholds
                .get(s)
                .copied()
                .flatten()
                .unwrap_or(MQ_UTILIZATION_CAP);
            Some((s, profile, threshold))
        })
        .collect();
    let services = pool::map_ordered(workers, jobs, |_, (s, profile, threshold)| {
        explore_service(
            &profile,
            s,
            &sla_of_class,
            threshold,
            cfg,
            seed ^ ((s as u64) << 32),
        )
    });
    let total_samples = services.iter().map(|e| e.samples).sum();
    let wall_time = services
        .iter()
        .map(|e| e.time)
        .max()
        .unwrap_or(SimDur::ZERO);
    ExplorationReport {
        services,
        total_samples,
        wall_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_sim::topology::ServiceId;

    fn quick_cfg() -> ExplorationConfig {
        ExplorationConfig {
            samples_per_option: 4,
            window: SimDur::from_secs(20),
            max_options: 6,
            ..Default::default()
        }
    }

    fn rates(app: &ursa_apps::App, total: f64) -> Vec<f64> {
        let sum: f64 = app.mix.iter().sum();
        app.mix.iter().map(|w| total * w / sum).collect()
    }

    #[test]
    fn explores_post_store_with_multiple_options() {
        let app = social_network(false);
        let ps = app.service("post-store").unwrap();
        let r = rates(&app, 300.0);
        let profile = ServiceProfile::extract(&app.topology, ps, &r);
        let sla_of: Vec<Option<Sla>> = {
            let mut v = vec![None; app.topology.num_classes()];
            for s in &app.slas {
                v[s.class.0] = Some(*s);
            }
            v
        };
        let exp = explore_service(&profile, ps.0, &sla_of, 0.6, &quick_cfg(), 3);
        assert!(exp.options.len() >= 2, "options {}", exp.options.len());
        // Options are most-provisioned first: replicas decrease, LPR and
        // utilization increase.
        for w in exp.options.windows(2) {
            assert!(w[0].replicas >= w[1].replicas);
            assert!(w[0].utilization <= w[1].utilization + 0.05);
        }
        // All recorded utilizations below the stop threshold.
        assert!(exp.options.iter().all(|o| o.utilization < 0.6));
        assert!(exp.samples >= exp.options.len() * 4);
        // Latency rows exist for every class that touches post-store.
        for cw in &profile.per_class {
            assert!(exp.options[0].latency[cw.class.0].is_some(), "{}", cw.name);
        }
    }

    #[test]
    fn latency_rows_are_monotone_in_percentile() {
        let app = social_network(true);
        let tr = app.service("timeline-read").unwrap();
        let r = rates(&app, 300.0);
        let profile = ServiceProfile::extract(&app.topology, tr, &r);
        let sla_of = vec![None; app.topology.num_classes()];
        let exp = explore_service(&profile, tr.0, &sla_of, 0.7, &quick_cfg(), 5);
        for opt in &exp.options {
            for row in opt.latency.iter().flatten() {
                for w in row.windows(2) {
                    assert!(w[0] <= w[1] + 1e-12, "row not monotone: {row:?}");
                }
            }
        }
    }

    #[test]
    fn explore_all_covers_loaded_services() {
        let app = social_network(true);
        let r = rates(&app, 200.0);
        let bp = vec![Some(0.6); app.topology.num_services()];
        let report = explore_all(&app.topology, &app.slas, &r, &bp, &quick_cfg(), 7);
        assert_eq!(report.services.len(), app.topology.num_services());
        assert!(report.total_samples > 0);
        assert!(report.wall_time > SimDur::ZERO);
        // Wall time equals the longest per-service time.
        let max = report.services.iter().map(|s| s.time).max().unwrap();
        assert_eq!(report.wall_time, max);
        // Total samples is the sum.
        let sum: usize = report.services.iter().map(|s| s.samples).sum();
        assert_eq!(report.total_samples, sum);
    }

    #[test]
    fn explore_all_is_independent_of_pool_width() {
        let app = social_network(true);
        let r = rates(&app, 200.0);
        let bp = vec![Some(0.6); app.topology.num_services()];
        let on =
            |workers| explore_all_on(workers, &app.topology, &app.slas, &r, &bp, &quick_cfg(), 7);
        let sequential = on(1);
        assert_eq!(sequential, on(3));
        assert_eq!(sequential, on(64));
    }

    /// Every exploration of the social network's services with the ceiling
    /// lifted to 0.95 (as the backpressure-ceiling ablation explores), at
    /// seeds 0–2, to the bit: each option's replicas, loads, utilization
    /// and latency rows, the samples and the time. Only past the profiled
    /// ceilings does exploration stop on SLA violations, so this is what
    /// moves with the violation frequency that stops it; no pinned
    /// preparation or committed table does.
    #[test]
    fn lifted_ceiling_explorations_are_pinned() {
        let app = social_network(false);
        let r = rates(&app, app.default_rps);
        let mut sla_of = vec![None; app.topology.num_classes()];
        for s in &app.slas {
            sla_of[s.class.0] = Some(*s);
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for s in 0..app.topology.num_services() {
            let profile = ServiceProfile::extract(&app.topology, ServiceId(s), &r);
            if profile.per_class.is_empty() || profile.total_rate() <= 0.0 {
                continue;
            }
            for seed in 0..3 {
                let exp = explore_service(&profile, s, &sla_of, 0.95, &quick_cfg(), seed);
                for o in &exp.options {
                    word(o.replicas as u64);
                    o.lpr.iter().for_each(|x| word(x.to_bits()));
                    word(o.utilization.to_bits());
                    o.latency
                        .iter()
                        .flatten()
                        .flatten()
                        .for_each(|x| word(x.to_bits()));
                }
                word(exp.samples as u64);
                word(exp.time.as_nanos());
            }
        }
        assert_eq!(digest, 0x4cc6_c469_2b02_356f, "got {digest:#018x}");
    }
}
