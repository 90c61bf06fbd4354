//! Ablations of Ursa's design choices (not in the paper's evaluation, but
//! each isolates one mechanism the paper's design rests on).
//!
//! 1. **Percentile-split ablation** — Theorem 1 admits many valid splits of
//!    the end-to-end percentile residual. Ursa optimizes the split jointly
//!    with the LPR choice (the γ variables); the naive alternative gives
//!    every service an equal share. Measures the resource cost of "equal"
//!    vs "optimized".
//! 2. **Backpressure-ceiling ablation** — Algorithm 1 stops exploring at
//!    the §III utilization threshold to preserve the independence
//!    assumption. Exploring past it records LPR options whose latency rows
//!    are no longer valid in composition; deploying on them violates SLAs.
//! 3. **Control-interval sensitivity** — how fast the threshold controller
//!    must observe load to ride out a +100 % burst.

use crate::{default_rates, prepare_ursa, LoadSpec, RunCtx, Scale, TsvTable};
use ursa_apps::social_network;
use ursa_core::exploration::explore_all;
use ursa_core::manager::Ursa;
use ursa_core::optimizer::{build_model, optimize};
use ursa_mip::{LatencyMatrix, MipModel, ServiceModel};
use ursa_sim::control::{run_deployment, DeployConfig};
use ursa_sim::time::SimDur;

/// Outcome of the percentile-split ablation.
#[derive(Debug, Clone)]
pub struct SplitAblation {
    /// Cores with the jointly optimized split.
    pub optimized_cores: f64,
    /// Cores with the equal split (or `None` if the equal split is
    /// infeasible on the grid).
    pub equal_cores: Option<f64>,
}

/// Restricts a model so every class must use one fixed percentile column —
/// the smallest grid point whose residual, taken by every service on the
/// class's path, still fits the class budget (the "equal split").
fn equal_split_model(model: &MipModel) -> Option<MipModel> {
    // Distinct classes may force distinct columns; the shared one-column
    // grid takes the largest forced percentile.
    let forced: Vec<f64> = model
        .constraints
        .iter()
        .map(|c| {
            let n = model.services_of_class(c.class).len().max(1);
            100.0 - (100.0 - c.percentile) / n as f64
        })
        .collect();
    let max_needed = forced.iter().cloned().fold(0.0, f64::max);
    let col = model
        .percentiles
        .iter()
        .position(|&p| p >= max_needed - 1e-9)?;
    let shared_p = model.percentiles[col];
    let services = model
        .services
        .iter()
        .map(|svc| ServiceModel {
            name: svc.name.clone(),
            resource: svc.resource.clone(),
            latency: svc
                .latency
                .iter()
                .map(|m| {
                    m.as_ref().map(|m| {
                        let data: Vec<f64> = (0..m.rows()).map(|r| m.at(r, col)).collect();
                        LatencyMatrix::new(m.rows(), 1, data)
                    })
                })
                .collect(),
        })
        .collect();
    Some(MipModel {
        percentiles: vec![shared_p],
        services,
        constraints: model.constraints.clone(),
    })
}

/// Runs the percentile-split ablation on the social network.
pub fn split_ablation(scale: Scale, seed: u64) -> SplitAblation {
    let app = social_network(false);
    let rates = default_rates(&app);
    let ursa = prepare_ursa(&app, scale, seed);
    let grid = scale.exploration().percentile_grid;
    let model = build_model(ursa.exploration(), &ursa.outcome().slas, &rates, &grid);
    let optimized = ursa_mip::solve(&model)
        .map(|s| s.objective)
        .unwrap_or(f64::NAN);
    let equal = equal_split_model(&model)
        .and_then(|m| ursa_mip::solve(&m).ok())
        .map(|s| s.objective);
    SplitAblation {
        optimized_cores: optimized,
        equal_cores: equal,
    }
}

/// Outcome of the backpressure-ceiling ablation.
#[derive(Debug, Clone)]
pub struct CeilingAblation {
    /// Violation rate with the profiled ceilings.
    pub with_ceiling: f64,
    /// Violation rate with exploration allowed up to 95 % utilization.
    pub without_ceiling: f64,
    /// Cores with / without.
    pub cores_with: f64,
    /// Cores without the ceiling.
    pub cores_without: f64,
}

/// Runs the backpressure-ceiling ablation on the vanilla social network.
pub fn ceiling_ablation(scale: Scale, seed: u64) -> CeilingAblation {
    let app = social_network(true);
    let rates = default_rates(&app);
    let deploy = |ursa: &mut Ursa, seed: u64| {
        let mut sim = app.build_sim(seed);
        LoadSpec::Constant.apply(&app, &mut sim, scale.deploy_duration());
        ursa.apply_initial_allocation(&rates, &mut sim);
        let report = run_deployment(
            &mut sim,
            &app.slas,
            ursa,
            &DeployConfig {
                duration: scale.deploy_duration(),
                control_interval: SimDur::from_mins(1),
                warmup: SimDur::from_mins(2),
            },
        );
        (report.overall_violation_rate(), report.avg_cpu_allocation())
    };

    // With ceilings: the normal pipeline.
    let mut with = prepare_ursa(&app, scale, seed);
    let (viol_with, cores_with) = deploy(&mut with, seed ^ 1);

    // Without ceilings: re-run exploration with the ceiling lifted to 0.95
    // and rebuild thresholds from it.
    let exploration = scale.exploration();
    let lifted = vec![Some(0.95); app.topology.num_services()];
    let report = explore_all(
        &app.topology,
        &app.slas,
        &rates,
        &lifted,
        &exploration,
        seed ^ 2,
    );
    let grid = exploration.percentile_grid;
    let (viol_without, cores_without) = match optimize(&report, &app.slas, &rates, &grid) {
        Ok(outcome) => {
            // Splice the lifted exploration into a manager via recalc-like
            // construction: reuse the normal manager but override its
            // thresholds through a fresh prepare on the lifted data. The
            // simplest faithful route: deploy a manager whose scaler uses
            // the lifted thresholds.
            let mut ursa = prepare_ursa(&app, scale, seed ^ 3);
            ursa.override_for_ablation(report, outcome);
            deploy(&mut ursa, seed ^ 4)
        }
        Err(_) => (1.0, f64::NAN),
    };
    CeilingAblation {
        with_ceiling: viol_with,
        without_ceiling: viol_without,
        cores_with,
        cores_without,
    }
}

/// Control-interval sensitivity under burst load. Each interval is an
/// independent cell (a copy of one prepared manager, fresh simulation) and
/// runs on the configured workers.
pub fn interval_sensitivity(scale: Scale, seed: u64) -> Vec<(f64, f64)> {
    let app = social_network(true);
    let rates = default_rates(&app);
    let prepared = prepare_ursa(&app, scale, seed);
    crate::runner::run_cells(vec![30u64, 60, 120, 300], |_, interval_s| {
        let mut ursa = prepared.clone();
        let mut sim = app.build_sim(seed ^ interval_s);
        LoadSpec::Burst.apply(&app, &mut sim, scale.deploy_duration());
        ursa.apply_initial_allocation(&rates, &mut sim);
        let report = run_deployment(
            &mut sim,
            &app.slas,
            &mut ursa,
            &DeployConfig {
                duration: scale.deploy_duration(),
                control_interval: SimDur::from_secs(interval_s),
                warmup: SimDur::from_mins(2),
            },
        );
        (interval_s as f64, report.overall_violation_rate())
    })
}

/// The three ablation families are mutually independent — fan them out as
/// cells and print in the fixed order.
enum AblationOut {
    Split(SplitAblation),
    Ceiling(CeilingAblation),
    Intervals(Vec<(f64, f64)>),
}

/// Runs all ablations, prints their results and writes one table per
/// ablation under `ablation/`.
pub fn run(scale: Scale, ctx: &RunCtx) {
    println!("== Ablations ==");
    let mut outs = crate::runner::run_cells(vec![0u8, 1, 2], |_, which| match which {
        0 => AblationOut::Split(split_ablation(scale, 0x0AB1)),
        1 => AblationOut::Ceiling(ceiling_ablation(scale, 0x0AB2)),
        _ => AblationOut::Intervals(interval_sensitivity(scale, 0x0AB3)),
    })
    .into_iter();
    let (
        Some(AblationOut::Split(split)),
        Some(AblationOut::Ceiling(ceiling)),
        Some(AblationOut::Intervals(sens)),
    ) = (outs.next(), outs.next(), outs.next())
    else {
        unreachable!("ablation cells return in input order");
    };
    println!(
        "percentile split: optimized {:.0} cores vs equal split {} cores",
        split.optimized_cores,
        split
            .equal_cores
            .map(|c| format!("{c:.0}"))
            .unwrap_or_else(|| "infeasible".into()),
    );
    let mut table = TsvTable::new("ablation_split", &["split", "cores"]);
    table.row(vec![
        "optimized".into(),
        format!("{:.3}", split.optimized_cores),
    ]);
    table.row(vec![
        "equal".into(),
        split
            .equal_cores
            .map(|c| format!("{c:.3}"))
            .unwrap_or_else(|| "infeasible".into()),
    ]);
    let _ = table.write_tsv(ctx, "ablation");
    println!(
        "backpressure ceiling: violations {:.2}% ({:.0} cores) with, {:.2}% ({:.0} cores) without",
        100.0 * ceiling.with_ceiling,
        ceiling.cores_with,
        100.0 * ceiling.without_ceiling,
        ceiling.cores_without,
    );
    let mut table = TsvTable::new(
        "ablation_ceiling",
        &["ceiling", "violation_rate", "avg_cores"],
    );
    for (label, violations, cores) in [
        ("profiled", ceiling.with_ceiling, ceiling.cores_with),
        ("lifted", ceiling.without_ceiling, ceiling.cores_without),
    ] {
        table.row(vec![
            label.into(),
            format!("{violations:.4}"),
            format!("{cores:.3}"),
        ]);
    }
    let _ = table.write_tsv(ctx, "ablation");
    let mut table = TsvTable::new("ablation_interval", &["interval_s", "violation_rate"]);
    for (i, v) in &sens {
        table.row(vec![format!("{i:.0}"), format!("{v:.4}")]);
        println!(
            "control interval {i:>4.0}s -> violation rate {:.2}%",
            100.0 * v
        );
    }
    let _ = table.write_tsv(ctx, "ablation");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The optimized split must never cost more than the equal split (the
    /// equal split is one feasible point of the optimized problem whenever
    /// both are feasible).
    #[test]
    fn optimized_split_never_worse() {
        let r = split_ablation(Scale::Quick, 3);
        assert!(r.optimized_cores.is_finite());
        if let Some(equal) = r.equal_cores {
            assert!(
                r.optimized_cores <= equal + 1e-9,
                "optimized {} > equal {equal}",
                r.optimized_cores
            );
        }
    }

    /// Removing the backpressure ceiling lets exploration record
    /// cheaper-but-invalid options; the ablated system must not *improve*
    /// SLA compliance, and typically worsens it.
    #[test]
    fn ceiling_protects_slas() {
        let r = ceiling_ablation(Scale::Quick, 5);
        assert!(
            r.without_ceiling >= r.with_ceiling - 0.02,
            "ablated {} unexpectedly beats ceiling {}",
            r.without_ceiling,
            r.with_ceiling
        );
    }
}
