//! **Figures 9 & 10** — estimated vs measured end-to-end latency.
//!
//! Fig. 9: four representative social-network classes (upload-post,
//! update-timeline, object-detect, sentiment-analysis). Fig. 10: the video
//! pipeline's two priorities (p99 for high, p50 for low).
//!
//! Procedure mirrors §VII-D: during a managed run with dynamically changing
//! allocations (diurnal load), record per 5-minute window the measured
//! percentile latency and Ursa's estimate — the Theorem-1 bound multiplied
//! by the tracked overestimation ratio. The paper's result: the average
//! estimated/measured ratio stays within 0.96–1.05.

use std::path::Path;

use crate::{default_rates, info, prepare_ursa, warn, RunCtx, Scale, TsvTable};
use ursa_apps::{social_network, video_pipeline, App};
use ursa_core::decision_log::DecisionLog;
use ursa_core::manager::Ursa;
use ursa_sim::control::{
    run_deployment_observed, DeployConfig, DeployObserver, ResourceManager, Sla,
};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::SimDur;
use ursa_sim::workload::RateFn;

/// Series of (measured, estimated) per window for one class.
#[derive(Debug, Clone)]
pub struct AccuracySeries {
    /// Class name.
    pub class: String,
    /// One (time s, measured s, estimated s) triple per window.
    pub points: Vec<(f64, f64, f64)>,
}

impl AccuracySeries {
    /// Mean estimated/measured ratio.
    pub fn mean_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .points
            .iter()
            .filter(|(_, m, _)| *m > 0.0)
            .map(|(_, m, e)| e / m)
            .collect();
        if ratios.is_empty() {
            return f64::NAN;
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Pairs each window's measured latency at every SLA percentile with the
/// estimate Ursa reports for it.
struct Accuracy<'a> {
    slas: &'a [Sla],
    series: Vec<AccuracySeries>,
}

impl DeployObserver for Accuracy<'_> {
    fn after_tick(&mut self, manager: &dyn ResourceManager, snap: &MetricsSnapshot) {
        // The driver ticks first, so the tracker has seen the newest
        // window: read the estimate the controller would report for it.
        let Some(ursa) = manager.as_any().and_then(|a| a.downcast_ref::<Ursa>()) else {
            return;
        };
        let t = snap.at.as_secs_f64() / 60.0;
        for (k, sla) in self.slas.iter().enumerate() {
            if let Some(measured) = snap.e2e_latency[sla.class.0].percentile(sla.percentile) {
                let estimated = ursa.estimated_latency(k);
                self.series[k].points.push((t, measured, estimated));
            }
        }
    }
}

/// Runs the accuracy experiment for one app; returns a series per SLA class
/// in `class_filter` (or all SLA classes when empty).
pub fn run_app(
    app: &App,
    class_filter: &[&str],
    scale: Scale,
    seed: u64,
    ctx: &RunCtx,
) -> Vec<AccuracySeries> {
    let mut ursa = prepare_ursa(app, scale, seed);
    let rates = default_rates(app);
    let mut sim = app.build_sim(seed ^ 0xACC);
    let duration = match scale {
        Scale::Quick => SimDur::from_mins(50),
        Scale::Full => SimDur::from_mins(150),
    };
    app.apply_load(
        &mut sim,
        RateFn::Diurnal {
            base: app.default_rps * 0.7,
            peak: app.default_rps * 1.3,
            period: duration,
        },
    );
    ursa.apply_initial_allocation(&rates, &mut sim);

    let series = app
        .slas
        .iter()
        .map(|sla| AccuracySeries {
            class: app.topology.classes()[sla.class.0].name.clone(),
            points: Vec::new(),
        })
        .collect();
    let mut accuracy = Accuracy {
        slas: &app.slas,
        series,
    };
    let dir = ctx.artifacts_dir.as_deref();
    let mut metrics = dir.map(|_| SimMetrics::for_topology("ursa", &app.topology, &app.slas));
    let cfg = DeployConfig {
        duration,
        control_interval: SimDur::from_mins(5),
        warmup: SimDur::ZERO,
    };
    run_deployment_observed(
        &mut sim,
        &app.slas,
        &mut ursa,
        &cfg,
        metrics.as_mut(),
        Some(&mut accuracy),
    );
    if let (Some(dir), Some(m)) = (dir, metrics.as_ref()) {
        write_dashboard_and_decisions(dir, app, m, ursa.decisions());
    }
    let series = accuracy.series;
    if class_filter.is_empty() {
        series
    } else {
        series
            .into_iter()
            .filter(|s| class_filter.contains(&s.class.as_str()))
            .collect()
    }
}

/// Writes the pair that explains the managed run into `dir`
/// (`--artifacts-dir`): the dashboard `fig9_10_{app}.html`, which plots
/// the standard panels (the SLA verdict among them) with the scale
/// annotations, and the decision log `fig9_10_{app}_decisions.jsonl`. A failed write is
/// reported, never fatal: an artifact must not break the run it describes.
fn write_dashboard_and_decisions(
    dir: &Path,
    app: &App,
    metrics: &SimMetrics,
    decisions: &DecisionLog,
) {
    let stem = format!("fig9_10_{}", app.name);
    let title = format!("Fig. 9/10 — Ursa on {} (diurnal load)", app.name);
    let write = metrics.write_artifacts(dir, &stem, &title).and_then(|_| {
        let mut f = std::fs::File::create(dir.join(format!("{stem}_decisions.jsonl")))?;
        decisions.write_jsonl(&mut f)
    });
    match write {
        Ok(()) => info!(
            "[fig9/10] wrote {stem}.html and {} control-plane decisions under {}",
            decisions.len(),
            dir.display()
        ),
        Err(e) => warn!("[fig9/10] artifact export failed: {e}"),
    }
}

/// Runs both figures and writes the series. The two apps are independent
/// cells (each writes only its own per-app artifacts), so they run in
/// parallel; output stays in figure order.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<AccuracySeries> {
    println!("== Figures 9 & 10: estimated vs measured latency ==");
    let mut all = Vec::new();
    let fig9_filter = [
        "upload-post",
        "update-timeline",
        "object-detect",
        "sentiment-analysis",
    ];
    let cells: Vec<(App, Vec<&str>, u64)> = vec![
        (social_network(false), fig9_filter.to_vec(), 0xF169),
        (video_pipeline(0.5), Vec::new(), 0x000F_1610),
    ];
    let results = crate::runner::run_cells(cells, |_, (app, filter, seed)| {
        run_app(&app, &filter, scale, seed, ctx)
    });
    for (fig, series) in ["fig9", "fig10"].into_iter().zip(results) {
        for s in series {
            let mut table = TsvTable::new(
                &format!("{fig}_{}", s.class),
                &["minute", "measured_s", "estimated_s"],
            );
            for (t, m, e) in &s.points {
                table.row(vec![
                    format!("{t:.0}"),
                    format!("{m:.4}"),
                    format!("{e:.4}"),
                ]);
            }
            let _ = table.write_tsv(ctx, fig);
            println!(
                "{fig} {:<22} windows {:>3}  mean estimated/measured ratio {:.3}",
                s.class,
                s.points.len(),
                s.mean_ratio()
            );
            all.push(s);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §VII-D's claim: the corrected estimate tracks measured latency; the
    /// paper reports mean ratios 0.96–1.05, we accept a looser band on the
    /// quick scale.
    #[test]
    fn estimates_track_measurements_on_social() {
        let app = social_network(true);
        let series = RunCtx::scratch("fig9", |ctx| run_app(&app, &[], Scale::Quick, 77, ctx));
        assert!(!series.is_empty());
        for s in &series {
            assert!(!s.points.is_empty(), "{} has no windows", s.class);
            let r = s.mean_ratio();
            assert!(
                (0.5..=2.0).contains(&r),
                "{}: mean ratio {r} out of band",
                s.class
            );
        }
    }
}
