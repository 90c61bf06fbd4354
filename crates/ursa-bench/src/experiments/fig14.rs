//! **Figure 14 / §VII-G** — adapting to business-logic changes.
//!
//! The social network's object-detection service swaps its model from DETR
//! (heavy) to MobileNet (light). Ursa's anomaly-driven response: partially
//! re-explore *only* the changed service (the paper: 75 samples, 1.25 h),
//! recalculate the LPR thresholds, and keep serving the SLA. The figure
//! shows CDFs of the end-to-end object-detect p99 before and after the
//! swap, both within SLA (paper: 0.62 % and 0.50 % violation rates).

use crate::{default_rates, prepare_ursa, RunCtx, Scale, TsvTable};
use ursa_apps::social_network;
use ursa_sim::control::{run_deployment, DeployConfig};
use ursa_sim::time::SimDur;
use ursa_sim::workload::RateFn;

/// Work-scale factor modelling the DETR → MobileNet swap (MobileNet is
/// roughly 4× lighter).
pub const MOBILENET_SCALE: f64 = 0.25;

/// Experiment outcome.
#[derive(Debug, Clone)]
pub struct AdaptationResult {
    /// Violation rate of the object-detect class before the swap.
    pub violation_before: f64,
    /// Violation rate after re-exploration, running MobileNet.
    pub violation_after: f64,
    /// Samples consumed by the partial re-exploration.
    pub reexploration_samples: usize,
    /// Simulated hours of the partial re-exploration.
    pub reexploration_hours: f64,
    /// Sorted p99-window samples before (for the CDF).
    pub p99_before: Vec<f64>,
    /// Sorted p99-window samples after.
    pub p99_after: Vec<f64>,
}

/// Runs the adaptation experiment.
pub fn run(scale: Scale, ctx: &RunCtx) -> AdaptationResult {
    println!("== Figure 14 / §VII-G: adapting to a service-logic change ==");
    let app = social_network(false);
    #[allow(
        clippy::expect_used,
        reason = "object-detect is a class and a service of the social network, and has an SLA"
    )]
    let (detect_class, detect_svc, sla) = {
        let class = app.class("object-detect").expect("class exists");
        let svc = app.service("object-detect").expect("service exists");
        (class, svc, app.sla_of(class).expect("sla exists"))
    };
    let rates = default_rates(&app);
    let mut ursa = prepare_ursa(&app, scale, 0x000F_1614);

    let duration = match scale {
        Scale::Quick => SimDur::from_mins(14),
        Scale::Full => SimDur::from_mins(40),
    };
    let deploy_cfg = DeployConfig {
        duration,
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
    };
    let windows_p99 = |report: &ursa_sim::control::DeploymentReport| -> Vec<f64> {
        let mut v: Vec<f64> = report
            .records
            .iter()
            .filter_map(|r| r.class_latency[detect_class.0])
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };

    // The three phases depend on each other (the re-exploration consumes
    // phase 1's manager, phase 3 deploys the refreshed one), so the whole
    // experiment runs on the calling thread under any `--jobs`.

    // Phase 1: deploy with the original DETR-scale model.
    let mut sim = app.build_sim(0xBEF0E);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    ursa.apply_initial_allocation(&rates, &mut sim);
    let before = run_deployment(&mut sim, &app.slas, &mut ursa, &deploy_cfg);

    // Phase 2: the operators deploy MobileNet — the service gets ~4x
    // lighter. Ursa partially re-explores only that service and
    // re-solves.
    #[allow(
        clippy::expect_used,
        reason = "a 4x lighter service only lowers the latencies of a model prepare_ursa already solved"
    )]
    let stats = ursa
        .re_explore(detect_svc.0, MOBILENET_SCALE, &rates)
        .expect("re-exploration feasible");

    // Phase 3: deploy the updated application with the refreshed model.
    let mut sim = app.build_sim(0xAF7E5);
    sim.set_work_scale(detect_svc, MOBILENET_SCALE);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    ursa.apply_initial_allocation(&rates, &mut sim);
    let after = run_deployment(&mut sim, &app.slas, &mut ursa, &deploy_cfg);
    let violation_before = before.class_violation_rate(detect_class);
    let p99_before = windows_p99(&before);
    let violation_after = after.class_violation_rate(detect_class);
    let p99_after = windows_p99(&after);

    // Emit the CDFs.
    for (name, data) in [("before", &p99_before), ("after", &p99_after)] {
        let mut table = TsvTable::new(&format!("fig14_cdf_{name}"), &["p99_s", "cdf"]);
        for (i, v) in data.iter().enumerate() {
            table.row(vec![
                format!("{v:.3}"),
                format!("{:.4}", (i + 1) as f64 / data.len() as f64),
            ]);
        }
        let _ = table.write_tsv(ctx, "fig14");
    }

    let result = AdaptationResult {
        violation_before,
        violation_after,
        reexploration_samples: stats.samples,
        reexploration_hours: stats.time.as_secs_f64() / 3600.0,
        p99_before,
        p99_after,
    };
    println!(
        "partial re-exploration: {} samples in {:.2} simulated hours (service: object-detect)",
        result.reexploration_samples, result.reexploration_hours
    );
    println!(
        "object-detect violation rate: before {:.2}%, after {:.2}% (SLA p99 <= {}s)",
        100.0 * result.violation_before,
        100.0 * result.violation_after,
        sla.target
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §VII-G's claims: the partial re-exploration is small (tens of
    /// samples, a fraction of the initial exploration) and SLA compliance
    /// holds both before and after the logic change.
    #[test]
    fn adapts_to_model_swap() {
        let r = RunCtx::scratch("fig14", |ctx| run(Scale::Quick, ctx));
        assert!(r.violation_before <= 0.15, "before {}", r.violation_before);
        assert!(r.violation_after <= 0.15, "after {}", r.violation_after);
        assert!(
            r.reexploration_samples < 200,
            "partial exploration used {} samples",
            r.reexploration_samples
        );
        assert!(!r.p99_before.is_empty() && !r.p99_after.is_empty());
        // MobileNet is lighter: the post-swap latency distribution should
        // sit well below the pre-swap one.
        let med = |v: &[f64]| v[v.len() / 2];
        assert!(
            med(&r.p99_after) < med(&r.p99_before),
            "after {} !< before {}",
            med(&r.p99_after),
            med(&r.p99_before)
        );
    }
}
