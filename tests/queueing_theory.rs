//! The simulator against queueing theory where theory is exact.
//!
//! Every number in the reproduction comes from the engine's queueing
//! model, so its mechanism is checked here against closed forms on
//! one-service topologies, where the model is one of the textbook queues:
//!
//! * **M/G/1-PS insensitivity.** One core and a pool of workers no queue
//!   length reaches: egalitarian processor sharing, whose mean response
//!   time is `E[S] / (1 − ρ)` whatever the work distribution. Checked for
//!   exponential, log-normal (cv 2) and Pareto (α 2.6) work at ρ 0.3, 0.6
//!   and 0.9.
//! * **M/M/c (Erlang C).** `c` cores and one core at most per job: the
//!   number in system is M/M/c's birth–death chain, so Little's law gives
//!   its mean response time.
//! * **M/M/W.** `W` workers on more than `W` cores: at most `W` jobs
//!   compute, the rest wait for a worker in order, which is M/M/W.
//!
//! Each case runs a 2-minute warm-up, then one-minute harvest windows;
//! a window's value is the mean per-tier latency of its requests
//! (`tier_latency[0].mean()`, from arrival at the service to response).
//! The windows are grouped into [`BATCHES`] consecutive batches, and the
//! theoretical mean must lie inside the 99.9 % Student-t interval of the
//! batch means. The interval is also held to at most
//! [`MAX_REL_HALF_WIDTH`] of the theoretical mean, so that passing says
//! something: high-ρ cases run longer until it is that narrow. Tolerances
//! come from the interval alone, never from the observed value.

use ursa::sim::prelude::*;
use ursa::stats::ttest::student_t_sf;

/// Arrivals per second in every case: about 12 000 requests per window,
/// under the 16 384 a per-service latency window retains, so a window's
/// mean covers every request it completed.
const RATE: f64 = 200.0;
/// Warm-up excluded from every estimate.
const WARMUP: SimDur = SimDur::from_mins(2);
/// Batches the windows are grouped into.
const BATCHES: usize = 30;
/// Two-sided confidence of the interval.
const CONFIDENCE: f64 = 0.999;
/// Widest interval accepted, relative to the theoretical mean.
const MAX_REL_HALF_WIDTH: f64 = 0.10;

/// One leaf service `svc` with `cores` and `workers`, one class of `work`
/// at [`RATE`].
fn single_service(cores: f64, workers: usize, work: WorkDist, seed: u64) -> Simulation {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", cores).with_workers(workers)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), work),
        }],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), seed);
    sim.set_rate(ClassId(0), RateFn::Constant(RATE));
    sim
}

/// The batch means of `BATCHES * windows_per_batch` one-minute windows'
/// tier latency after the warm-up: each batch's mean over its requests,
/// its windows' means weighted by their completions.
fn batch_means(mut sim: Simulation, windows_per_batch: usize) -> Vec<f64> {
    sim.run_for(WARMUP);
    let mut seen = sim.harvest().services[0].tier_latency[0].total_count();
    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut sum, mut count) = (0.0, 0.0);
        for _ in 0..windows_per_batch {
            sim.run_for(SimDur::from_mins(1));
            let snap = sim.harvest();
            let tier = &snap.services[0].tier_latency[0];
            let observed = tier.total_count() - seen;
            seen = tier.total_count();
            assert_eq!(observed, tier.len() as u64, "a window evicted samples");
            let n = tier.len() as f64;
            sum += n * tier.mean().expect("a window with completions");
            count += n;
        }
        means.push(sum / count);
    }
    means
}

/// The two-sided Student-t critical value at [`CONFIDENCE`] for `df`
/// degrees of freedom, by bisection on the survival function.
fn t_critical(df: f64) -> f64 {
    let tail = (1.0 - CONFIDENCE) / 2.0;
    let (mut lo, mut hi) = (0.0, 100.0);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if student_t_sf(mid, df) > tail {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Checks that `expected` lies inside the interval of `batches` and that
/// the interval is at most [`MAX_REL_HALF_WIDTH`] of `expected` wide.
fn assert_inside(case: &str, expected: f64, batches: &[f64]) {
    let n = batches.len() as f64;
    let mean = batches.iter().sum::<f64>() / n;
    let var = batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = t_critical(n - 1.0) * (var / n).sqrt();
    eprintln!(
        "{case}: expected {expected:.6} s, measured {mean:.6} ± {half:.6} s (ratio {:.3}, half-width {:.1} %)",
        mean / expected,
        100.0 * half / expected
    );
    assert!(
        (mean - expected).abs() <= half,
        "{case}: theory {expected:.6} s is outside {mean:.6} ± {half:.6} s"
    );
    assert!(
        half <= MAX_REL_HALF_WIDTH * expected,
        "{case}: the interval ±{half:.6} s is wider than {:.0} % of {expected:.6} s; run more windows",
        100.0 * MAX_REL_HALF_WIDTH
    );
}

/// M/G/1-PS at ρ 0.3, 0.6 and 0.9 for `work(mean)`: `E[T] = E[S] / (1 − ρ)`.
fn check_ps(dist: &str, work: impl Fn(f64) -> WorkDist, windows_per_batch: [usize; 3]) {
    for (i, rho) in [0.3, 0.6, 0.9].into_iter().enumerate() {
        let mean = rho / RATE;
        let sim = single_service(1.0, 100_000, work(mean), 0x9E_0000 + i as u64);
        let batches = batch_means(sim, windows_per_batch[i]);
        assert_inside(
            &format!("M/G/1-PS {dist} ρ {rho}"),
            mean / (1.0 - rho),
            &batches,
        );
    }
}

#[test]
fn ps_exponential_is_insensitive() {
    check_ps(
        "exponential",
        |mean| WorkDist::Exponential { mean },
        [1, 1, 6],
    );
}

#[test]
fn ps_lognormal_is_insensitive() {
    check_ps(
        "log-normal cv 2",
        |mean| WorkDist::LogNormal { mean, cv: 2.0 },
        [1, 1, 6],
    );
}

#[test]
fn ps_pareto_is_insensitive() {
    let alpha = 2.6;
    check_ps(
        "Pareto α 2.6",
        |mean| WorkDist::Pareto {
            x_min: mean * (alpha - 1.0) / alpha,
            alpha,
        },
        [1, 1, 6],
    );
}

/// Erlang C: the mean response time of M/M/c with `c` servers, Poisson
/// arrivals at `rate` and exponential work of `mean`.
fn erlang_c_response(c: usize, rate: f64, mean: f64) -> f64 {
    let a = rate * mean;
    let rho = a / c as f64;
    let mut term = 1.0;
    let mut below = 0.0;
    for k in 0..c {
        below += term;
        term *= a / (k + 1) as f64;
    }
    let top = term / (1.0 - rho);
    let wait_prob = top / (below + top);
    mean + wait_prob * mean / (c as f64 * (1.0 - rho))
}

#[test]
fn cores_cap_one_per_job_erlang_c() {
    for (i, rho) in [0.6, 0.9].into_iter().enumerate() {
        let mean = 4.0 * rho / RATE;
        let sim = single_service(
            4.0,
            100_000,
            WorkDist::Exponential { mean },
            0xC4_0000 + i as u64,
        );
        let batches = batch_means(sim, [1, 4][i]);
        assert_inside(
            &format!("M/M/4 ρ {rho}"),
            erlang_c_response(4, RATE, mean),
            &batches,
        );
    }
}

#[test]
fn workers_bound_concurrency_mmw() {
    for (i, rho) in [0.6, 0.9].into_iter().enumerate() {
        let mean = 2.0 * rho / RATE;
        let sim = single_service(8.0, 2, WorkDist::Exponential { mean }, 0xA2_0000 + i as u64);
        let batches = batch_means(sim, [1, 4][i]);
        assert_inside(
            &format!("M/M/2 (2 workers, 8 cores) ρ {rho}"),
            erlang_c_response(2, RATE, mean),
            &batches,
        );
    }
}
