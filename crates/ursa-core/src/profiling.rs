//! Backpressure-free CPU-threshold profiling (paper §III, Figs. 3–4).
//!
//! For each RPC-connected microservice, the profiling engine sweeps the
//! service's CPU limit upward under its aggregate load while watching the
//! latency of an upstream proxy. While the service is CPU-starved, its
//! slowness backpressures the proxy; once the proxy's p99 latency
//! *converges* (consecutive limits statistically indistinguishable by
//! Welch's t-test), backpressure is gone. The service's CPU utilization
//! just before convergence is recorded as its backpressure-free threshold —
//! the utilization ceiling Algorithm 1 must respect so that the
//! independence assumption of the performance model holds.

use crate::harness::{IsolatedHarness, ServiceProfile, PROXY, TESTED};
use ursa_sim::time::SimDur;
use ursa_stats::ttest::welch_t_test;

/// Sweep start as a multiple of the load's mean CPU demand (>1 so the
/// service is saturated but not unstable at the first level).
const START_FACTOR: f64 = 1.05;
/// Sweep end as a multiple of the mean CPU demand.
const END_FACTOR: f64 = 2.6;
/// Welch t-test significance for "latencies still differ".
const ALPHA: f64 = 0.05;

/// One CPU-limit level of the sweep (a point on Fig. 4's x-axis).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePoint {
    /// Per-replica CPU limit of the tested service at this level.
    pub cpu_limit: f64,
    /// Mean of per-window proxy p99 latencies (seconds).
    pub proxy_p99_mean: f64,
    /// Standard deviation of per-window proxy p99 latencies.
    pub proxy_p99_std: f64,
    /// Mean of per-window tested-service p99 latencies.
    pub service_p99_mean: f64,
    /// Mean CPU utilization of the tested service in `[0, 1]`.
    pub utilization: f64,
}

/// Result of profiling one service.
#[derive(Debug, Clone, PartialEq)]
pub struct BackpressureProfile {
    /// Service name.
    pub service: String,
    /// Backpressure-free CPU utilization threshold in `[0, 1]`.
    pub threshold: f64,
    /// The full sweep (for Fig. 4-style plots).
    pub points: Vec<ProfilePoint>,
    /// Index into `points` where convergence was declared.
    pub converged_at: usize,
}

/// Profiling-engine configuration.
#[derive(Debug, Clone)]
pub struct ProfilingConfig {
    /// Measurement windows per CPU-limit level (t-test samples).
    pub windows_per_level: usize,
    /// Length of each measurement window.
    pub window: SimDur,
    /// Number of CPU-limit levels in the sweep.
    pub levels: usize,
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        ProfilingConfig {
            windows_per_level: 8,
            window: SimDur::from_secs(15),
            levels: 12,
        }
    }
}

/// Runs the Fig. 3 profiling sweep for one service.
///
/// Returns the backpressure-free threshold and the full latency/utilization
/// curve. Convergence is the first level whose per-window proxy p99 samples
/// are statistically indistinguishable (Welch, `ALPHA`) from the previous
/// level's; the threshold is the utilization measured *just before*
/// convergence, exactly as §III describes. If the sweep never converges,
/// the last level's utilization is used (and `converged_at` points at it).
pub fn profile_service(
    profile: &ServiceProfile,
    cfg: &ProfilingConfig,
    seed: u64,
) -> BackpressureProfile {
    assert!(cfg.levels >= 2, "need at least two sweep levels");
    let demand = profile.cpu_demand().max(1e-6);
    let mut points: Vec<ProfilePoint> = Vec::with_capacity(cfg.levels);
    let mut window_p99s: Vec<Vec<f64>> = Vec::with_capacity(cfg.levels);
    let mut indistinct: Vec<bool> = Vec::with_capacity(cfg.levels);
    let mut converged_at = None;

    for level in 0..cfg.levels {
        let frac = level as f64 / (cfg.levels - 1) as f64;
        let limit = demand * (START_FACTOR + frac * (END_FACTOR - START_FACTOR));
        // Fresh harness per level: no backlog carry-over between levels.
        let mut harness = IsolatedHarness::build(profile, 1, 1.0, 1.0, seed ^ (level as u64) << 8);
        harness.sim_mut().set_cpu_limit(TESTED, limit);
        // Warm up one window before measuring.
        harness.sim_mut().run_for(cfg.window);
        harness.sim_mut().harvest();

        let mut proxy_p99 = Vec::with_capacity(cfg.windows_per_level);
        let mut svc_p99 = Vec::new();
        let mut utils = Vec::new();
        for _ in 0..cfg.windows_per_level {
            harness.sim_mut().run_for(cfg.window);
            let snap = harness.sim_mut().harvest();
            // Pool classes: the proxy's full response latency covers the
            // forwarded (RPC) classes; MQ classes contribute through the
            // tested service's own latency only.
            let mut proxy_samples: Vec<f64> = Vec::new();
            let mut svc_samples: Vec<f64> = Vec::new();
            for c in 0..harness.num_classes() {
                proxy_samples
                    .extend_from_slice(snap.services[PROXY.0].response_latency[c].samples());
                svc_samples.extend_from_slice(snap.services[TESTED.0].tier_latency[c].samples());
            }
            proxy_samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            svc_samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            if !proxy_samples.is_empty() {
                proxy_p99.push(ursa_stats::quantile::percentile_of_sorted(
                    &proxy_samples,
                    99.0,
                ));
            }
            if !svc_samples.is_empty() {
                svc_p99.push(ursa_stats::quantile::percentile_of_sorted(
                    &svc_samples,
                    99.0,
                ));
            }
            utils.push(snap.services[TESTED.0].cpu_utilization);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let std = |xs: &[f64]| {
            let m = mean(xs);
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len().max(1) as f64).sqrt()
        };
        points.push(ProfilePoint {
            cpu_limit: limit,
            proxy_p99_mean: mean(&proxy_p99),
            proxy_p99_std: std(&proxy_p99),
            service_p99_mean: mean(&svc_p99),
            utilization: mean(&utils),
        });
        window_p99s.push(proxy_p99);

        if level > 0 {
            // Welch on log-latency: variance-stabilized, so the huge
            // spread of the saturated levels cannot mask a real drop.
            let logs = |xs: &[f64]| xs.iter().map(|x| x.max(1e-9).ln()).collect::<Vec<_>>();
            let prev = logs(&window_p99s[level - 1]);
            let cur = logs(&window_p99s[level]);
            let indistinguishable = match welch_t_test(&prev, &cur) {
                Some(t) => !t.rejects_equality(ALPHA),
                // Degenerate samples (zero variance) -> compare means.
                None => {
                    let (a, b) = (mean(&prev), mean(&cur));
                    (a - b).abs() <= 0.05_f64.ln_1p()
                }
            };
            indistinct.push(indistinguishable);
            // Convergence requires two consecutive indistinguishable
            // comparisons (one can be a variance fluke); the declared
            // level is the first of the pair.
            let n = indistinct.len();
            if converged_at.is_none() && n >= 2 && indistinct[n - 1] && indistinct[n - 2] {
                converged_at = Some(level - 1);
            }
        }
    }

    let converged_at = converged_at.unwrap_or(points.len() - 1);
    // Utilization just before convergence (paper §III).
    let threshold = points[converged_at.saturating_sub(1)].utilization;
    BackpressureProfile {
        service: profile.name.clone(),
        threshold,
        points,
        converged_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_sim::topology::ServiceId;

    fn quick_cfg() -> ProfilingConfig {
        ProfilingConfig {
            windows_per_level: 5,
            window: SimDur::from_secs(10),
            levels: 8,
        }
    }

    #[test]
    fn post_store_threshold_is_moderate() {
        let app = social_network(false);
        let ps = app.service("post-store").unwrap();
        let total = 250.0;
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| total * w / sum).collect();
        let profile = ServiceProfile::extract(&app.topology, ps, &rates);
        let bp = profile_service(&profile, &quick_cfg(), 11);
        // The paper reports thresholds of 46.2% and 60.0% for two social
        // network services; ours should land in a sane band.
        assert!(
            bp.threshold > 0.25 && bp.threshold < 0.98,
            "threshold {}",
            bp.threshold
        );
        assert_eq!(bp.points.len(), 8);
        assert!(bp.converged_at >= 1);
    }

    #[test]
    fn proxy_latency_decreases_then_flattens() {
        let app = social_network(false);
        let tr = app.service("timeline-read").unwrap();
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| 250.0 * w / sum).collect();
        let profile = ServiceProfile::extract(&app.topology, tr, &rates);
        let bp = profile_service(&profile, &quick_cfg(), 13);
        let first = bp.points.first().unwrap().proxy_p99_mean;
        let last = bp.points.last().unwrap().proxy_p99_mean;
        assert!(
            first > last * 2.0,
            "starved latency {first} should exceed converged latency {last}"
        );
        // Utilization decreases along the sweep (more CPU, same load).
        let utils: Vec<f64> = bp.points.iter().map(|p| p.utilization).collect();
        assert!(utils.first().unwrap() > utils.last().unwrap());
    }

    /// Every sweep of the vanilla social network's profiled services at
    /// seeds 0–3 (`quick_cfg`), to the bit: each level's limit, latencies
    /// and utilization, where the sweep converged and the threshold. The
    /// sweep's range and the t-test's significance level move it; the
    /// prepared-manager digests in `tests/control_plane_replay.rs` do not
    /// see a significance of 0.06 in place of 0.05, since no comparison
    /// they make has a p-value between the two.
    #[test]
    fn sweeps_are_pinned() {
        let app = social_network(true);
        let sum: f64 = app.mix.iter().sum();
        let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for s in 0..app.topology.num_services() {
            let profile = ServiceProfile::extract(&app.topology, ServiceId(s), &rates);
            if profile.per_class.is_empty() {
                continue;
            }
            for seed in 0..4 {
                let bp = profile_service(&profile, &quick_cfg(), seed);
                for p in &bp.points {
                    word(p.cpu_limit.to_bits());
                    word(p.proxy_p99_mean.to_bits());
                    word(p.proxy_p99_std.to_bits());
                    word(p.service_p99_mean.to_bits());
                    word(p.utilization.to_bits());
                }
                word(bp.converged_at as u64);
                word(bp.threshold.to_bits());
            }
        }
        assert_eq!(digest, 0x07be_074a_532a_1beb, "got {digest:#018x}");
    }
}
