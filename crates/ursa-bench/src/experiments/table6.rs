//! **Table VI** — control-plane latency (milliseconds).
//!
//! Two rows, as in the paper:
//!
//! * **Deploy** — the wall-clock cost of one online scaling decision:
//!   Ursa's threshold check, Sinan's search of candidate allocations
//!   (priced through both models cheapest first, up to the first predicted
//!   safe), Firm's per-service network inference, and autoscaling's bare
//!   threshold comparison. Measured by timing `on_tick` on a live
//!   snapshot (the ledger rows `core.ursa_tick_us_*`, `baselines.*_tick_*`
//!   and `mip.solve_ms_*` of `bash benchmark/run.sh` give tighter numbers).
//! * **Update** — the cost of refreshing the model: Ursa re-solves the MIP,
//!   Sinan retrains from scratch, Firm performs training iterations
//!   (reported per iteration, as in the paper).
//!
//! The paper's ordering to reproduce: autoscaling < Ursa ≪ Firm ≪ Sinan on
//! deploy; Ursa's one-shot update ≪ Firm's full adaptation; Sinan retraining
//! is minutes.
//!
//! ## Artifacts
//!
//! Wall-clock timings vary run to run (machine, load, thermal state), so
//! committing them produced permanent git drift — every `cargo test`
//! rewrote `table6.tsv` with new numbers. The artifacts are therefore
//! split: the committed `table6.tsv` holds *deterministic decision/update
//! work counts* per system (exactly reproducible, diffed by a test), and
//! the measured milliseconds go to `table6_wall.tsv`, which is gitignored
//! and left out of the run manifest.

use crate::{default_rates, prepare_firm, prepare_sinan, prepare_ursa, RunCtx, Scale, TsvTable};
use ursa_apps::{social_network, App};
use ursa_baselines::{Autoscaler, Dataset, Firm, Sinan};
use ursa_core::manager::Ursa;
use ursa_sim::control::ResourceManager;
use ursa_sim::time::SimDur;
use ursa_sim::workload::RateFn;

/// Measured control-plane latencies in milliseconds.
#[derive(Debug, Clone)]
pub struct ControlPlaneLatency {
    /// System label.
    pub system: String,
    /// Per-decision latency (ms).
    pub deploy_ms: f64,
    /// Model-update latency (ms); `None` = N/A (Sinan retrains offline,
    /// reported separately; autoscaling has nothing to update).
    pub update_ms: Option<f64>,
}

/// Sinan retraining epochs used for the update measurement.
const SINAN_RETRAIN_EPOCHS: usize = 4;
/// Firm training iterations averaged for the update measurement.
const FIRM_TRAIN_ITERS: usize = 5;

/// Times `iters` on_tick calls against a fixed snapshot, after one untimed
/// call: a manager's first decision on the fresh deployment resizes the live
/// simulation (about a millisecond of replica churn on the social network,
/// twenty times Ursa's decision), which is actuation, not the decision
/// latency this row reports.
fn time_ticks(
    manager: &mut dyn ResourceManager,
    snapshot: &ursa_sim::telemetry::MetricsSnapshot,
    sim: &mut ursa_sim::engine::Simulation,
    iters: usize,
) -> f64 {
    manager.on_tick(snapshot, sim);
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        manager.on_tick(snapshot, sim);
    }
    t0.elapsed().as_nanos() as f64 / 1e6 / iters as f64
}

/// The deterministic work counts behind each Table VI row: how many unit
/// operations one scaling decision and one model update cost per system.
/// These depend only on the topology and the training configuration, so
/// the committed `table6.tsv` built from them reproduces byte-identically.
pub fn ops_table(app: &App, dataset: &Dataset) -> TsvTable {
    let n = app.topology.num_services();
    let mut table = TsvTable::new("table6", &["system", "deploy_ops", "update_ops"]);
    // Ursa: one threshold check per service; update = one MIP solve.
    table.row(vec!["ursa".into(), n.to_string(), "1".into()]);
    // Sinan: the candidate allocations drawn, an upper bound on the ones
    // priced through the models (the search stops at the first predicted
    // safe); update = full retraining over the dataset.
    table.row(vec![
        "sinan".into(),
        Sinan::CANDIDATES_PER_TICK.to_string(),
        (dataset.samples.len() * SINAN_RETRAIN_EPOCHS).to_string(),
    ]);
    // Firm: one per-service inference; update = one training step per
    // service per iteration.
    table.row(vec!["firm".into(), n.to_string(), n.to_string()]);
    // Autoscaling: one threshold comparison per service; nothing to update.
    table.row(vec!["autoscaling".into(), n.to_string(), "n/a".into()]);
    table
}

/// The trained managers (phase 1, parallel).
enum Prepared {
    Ursa(Box<Ursa>),
    Sinan(Box<Sinan>, Dataset),
    Firm(Box<Firm>),
}

/// Runs the measurement on the social network.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<ControlPlaneLatency> {
    println!("== Table VI: control plane latency (ms) ==");
    let app = social_network(false);
    let rates = default_rates(&app);

    // A live snapshot to decide against.
    let mut sim = app.build_sim(0x7AB6);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    sim.run_for(SimDur::from_mins(2));
    let snapshot = sim.harvest();

    let iters = match scale {
        Scale::Quick => 20,
        Scale::Full => 100,
    };

    // Phase 1: train the three learned managers in parallel (independent
    // cells). Phase 2 below stays sequential — interleaving wall-clock
    // timing runs across threads would contaminate the measurements.
    let mut prepared = crate::runner::run_cells(vec![0u8, 1, 2], |_, which| match which {
        0 => Prepared::Ursa(Box::new(prepare_ursa(&app, scale, 0x0007_AB60))),
        1 => {
            let (sinan, dataset) = prepare_sinan(&app, scale, 0x0007_AB61);
            Prepared::Sinan(Box::new(sinan), dataset)
        }
        _ => Prepared::Firm(Box::new(prepare_firm(&app, scale, 0x0007_AB62))),
    })
    .into_iter();
    let (
        Some(Prepared::Ursa(mut ursa)),
        Some(Prepared::Sinan(mut sinan, dataset)),
        Some(Prepared::Firm(mut firm)),
    ) = (prepared.next(), prepared.next(), prepared.next())
    else {
        unreachable!("cells return in input order");
    };

    let mut rows = Vec::new();

    // Ursa.
    let deploy = time_ticks(ursa.as_mut(), &snapshot, &mut sim, iters);
    let t0 = std::time::Instant::now();
    #[allow(
        clippy::expect_used,
        reason = "prepare_ursa solved this model at these rates"
    )]
    ursa.recalculate(&rates).expect("recalc");
    let update = t0.elapsed().as_nanos() as f64 / 1e6;
    rows.push(ControlPlaneLatency {
        system: "ursa".into(),
        deploy_ms: deploy,
        update_ms: Some(update),
    });

    // Sinan: deploy = candidate search; update = full retraining.
    let deploy = time_ticks(sinan.as_mut(), &snapshot, &mut sim, iters);
    let t0 = std::time::Instant::now();
    let retrained = Sinan::train(&dataset, &app.slas, SINAN_RETRAIN_EPOCHS, 99);
    let update = t0.elapsed().as_nanos() as f64 / 1e6;
    let _ = retrained;
    rows.push(ControlPlaneLatency {
        system: "sinan".into(),
        deploy_ms: deploy,
        update_ms: Some(update),
    });

    // Firm: deploy = greedy inference; update = one training iteration
    // (the paper reports per-iteration cost and notes full adaptation
    // needs thousands of iterations).
    let deploy = time_ticks(firm.as_mut(), &snapshot, &mut sim, iters);
    firm.training = true;
    let t0 = std::time::Instant::now();
    for _ in 0..FIRM_TRAIN_ITERS {
        firm.on_tick(&snapshot, &mut sim);
    }
    let update = t0.elapsed().as_nanos() as f64 / 1e6 / FIRM_TRAIN_ITERS as f64;
    rows.push(ControlPlaneLatency {
        system: "firm".into(),
        deploy_ms: deploy,
        update_ms: Some(update),
    });

    // Autoscaling.
    let mut auto = Autoscaler::auto_a(app.topology.num_services());
    let deploy = time_ticks(&mut auto, &snapshot, &mut sim, iters);
    rows.push(ControlPlaneLatency {
        system: "autoscaling".into(),
        deploy_ms: deploy,
        update_ms: None,
    });

    // Committed artifact: deterministic work counts only.
    let ops = ops_table(&app, &dataset);
    let _ = ops.write_tsv(ctx, "table6");

    // Measured wall-clock: printed, and written to the gitignored
    // `table6_wall.tsv` without a manifest entry, so two runs of one
    // commit give equal manifests.
    let mut wall = TsvTable::new("table6_wall", &["system", "deploy_ms", "update_ms"]);
    for r in &rows {
        wall.row(vec![
            r.system.clone(),
            format!("{:.4}", r.deploy_ms),
            r.update_ms
                .map(|u| format!("{u:.2}"))
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    print!("{}", wall.render());
    let wall_path = ctx.results.join("table6").join("table6_wall.tsv");
    let _ = std::fs::write(wall_path, wall.to_tsv());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's ordering: autoscaling fastest, then Ursa, then Firm,
    /// then Sinan (centralized candidate search); Ursa's one-shot update beats
    /// Sinan's retraining.
    #[test]
    fn latency_ordering_matches_paper() {
        let rows = RunCtx::scratch("table6", |ctx| {
            let rows = run(Scale::Quick, ctx);
            let manifest = ctx.manifest().to_json();
            assert!(manifest.contains("\"table6\""), "{manifest}");
            assert!(
                !manifest.contains("table6_wall"),
                "host wall-clock stays out of the manifest: {manifest}"
            );
            rows
        });
        let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap();
        let (ursa, sinan, firm, auto) =
            (get("ursa"), get("sinan"), get("firm"), get("autoscaling"));
        assert!(
            auto.deploy_ms <= ursa.deploy_ms * 2.0,
            "auto {} vs ursa {}",
            auto.deploy_ms,
            ursa.deploy_ms
        );
        assert!(
            ursa.deploy_ms < sinan.deploy_ms,
            "ursa {} vs sinan {}",
            ursa.deploy_ms,
            sinan.deploy_ms
        );
        assert!(
            ursa.deploy_ms < firm.deploy_ms,
            "ursa {} vs firm {}",
            ursa.deploy_ms,
            firm.deploy_ms
        );
        assert!(
            firm.deploy_ms < sinan.deploy_ms,
            "firm {} vs sinan {}",
            firm.deploy_ms,
            sinan.deploy_ms
        );
        assert!(
            ursa.update_ms.unwrap() < sinan.update_ms.unwrap(),
            "ursa update {} vs sinan retrain {}",
            ursa.update_ms.unwrap(),
            sinan.update_ms.unwrap()
        );
    }

    /// Regenerating the committed `table6.tsv` must be byte-identical —
    /// the drift fix. Rebuilds the deterministic rows from a fresh Quick
    /// preparation (same seed as `run`) and diffs against the artifact.
    #[test]
    fn committed_table6_artifact_is_reproducible() {
        let app = social_network(false);
        let (_, dataset) = prepare_sinan(&app, Scale::Quick, 0x0007_AB61);
        let regenerated = ops_table(&app, &dataset).to_tsv();
        let path = crate::results_dir().join("table6").join("table6.tsv");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            regenerated, committed,
            "table6.tsv drifted — regeneration is no longer deterministic"
        );
    }
}
