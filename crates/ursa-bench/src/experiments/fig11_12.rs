//! **Figures 11 & 12** — SLA violation rates and average CPU allocation
//! across applications × load patterns × systems.
//!
//! The evaluation grid of §VII-E: four applications (social, vanilla
//! social, media, video pipeline), three load families (constant, dynamic
//! = diurnal & burst, skewed), five systems (Ursa, Sinan, Firm, Auto-a,
//! Auto-b). Figure 11 reports the SLA violation rate; Figure 12 the mean
//! total CPU allocation — both come from the same deployments, so this
//! module produces them together.
//!
//! Shape targets from the paper: Ursa ≤ a few percent violations
//! everywhere; ML systems 9–52 %; Auto-a cheap but > 40 % violations;
//! Auto-b SLA-safe but 44–148 % more CPU than Ursa.

use crate::{LoadSpec, PreparedManagers, RunCtx, Scale, System, TsvTable};
use ursa_apps::{all_apps, App};
use ursa_sim::metrics::SimMetrics;

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application name.
    pub app: String,
    /// Load scenario label.
    pub load: String,
    /// System label.
    pub system: String,
    /// Mean SLA violation rate across classes.
    pub violation_rate: f64,
    /// Mean total allocated CPU cores.
    pub avg_cores: f64,
}

/// Load scenarios per app, in paper order.
pub fn load_specs(app: &App) -> Vec<LoadSpec> {
    if app.name == "video" {
        // Priority-mix skews 40:60 and 60:40 (exploration used 50:50).
        vec![
            LoadSpec::Constant,
            LoadSpec::Diurnal,
            LoadSpec::Burst,
            LoadSpec::Skewed(40.0 / 60.0),
            LoadSpec::Skewed(60.0 / 40.0),
        ]
    } else {
        vec![
            LoadSpec::Constant,
            LoadSpec::Diurnal,
            LoadSpec::Burst,
            LoadSpec::Skewed(2.0),
            LoadSpec::Skewed(0.5),
        ]
    }
}

/// Enumerates one app's grid cells in paper order:
/// `(load index, load, system index)`.
pub fn cell_inputs(app: &App) -> Vec<(usize, LoadSpec, usize)> {
    let mut inputs = Vec::new();
    for (li, load) in load_specs(app).iter().enumerate() {
        for si in 0..System::ALL.len() {
            inputs.push((li, load.clone(), si));
        }
    }
    inputs
}

/// Runs one grid cell on a pristine clone of the trained managers.
///
/// With `artifacts_dir` (`--artifacts-dir`) set, constant-load cells
/// additionally write a dashboard per system
/// (`fig11_12_<app>_<system>.html`), whose "Controller internals" panel
/// plots each controller's self-profiling series — one directly
/// comparable dashboard per competing system.
fn run_cell(
    app: &App,
    managers: &PreparedManagers,
    load: &LoadSpec,
    system: System,
    scale: Scale,
    seed: u64,
    artifacts_dir: Option<&std::path::Path>,
) -> Cell {
    let mut metrics = match (artifacts_dir, load) {
        (Some(_), LoadSpec::Constant) => Some(SimMetrics::for_topology(
            system.label(),
            &app.topology,
            &app.slas,
        )),
        _ => None,
    };
    let report = managers.deploy_cell(app, system, load, scale, seed, metrics.as_mut());
    if let (Some(dir), Some(m)) = (artifacts_dir, metrics.as_ref()) {
        let stem = format!("fig11_12_{}_{}", app.name, system.label());
        let title = format!(
            "Fig. 11/12 — {} on {} (constant load)",
            system.label(),
            app.name
        );
        match m.write_artifacts(dir, &stem, &title) {
            Ok(_) => crate::info!("[fig11/12] wrote {stem}.html under {}", dir.display()),
            Err(e) => crate::warn!("[fig11/12] dashboard export failed: {e}"),
        }
    }
    Cell {
        app: app.name.clone(),
        load: load.label(),
        system: system.label().to_string(),
        violation_rate: report.overall_violation_rate(),
        avg_cores: report.avg_cpu_allocation(),
    }
}

/// Runs the full grid over all four applications.
///
/// Phase 1 trains every app's managers in parallel; phase 2 flattens the
/// whole grid (app × load × system) into one cell list and fans it across
/// the workers, so a wide machine saturates even within a single app.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<Cell> {
    println!("== Figures 11 & 12: SLA violations and CPU allocation ==");
    let apps = all_apps();
    crate::info!(
        "[fig11/12] preparing managers for {} apps ({} workers) ...",
        apps.len(),
        crate::runner::jobs()
    );
    let managers: Vec<PreparedManagers> =
        crate::runner::run_cells((0..apps.len()).collect(), |_, ai| {
            PreparedManagers::prepare(&apps[ai], scale, 0x11_12 + ai as u64)
        });
    let mut inputs: Vec<(usize, usize, LoadSpec, usize)> = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        for (li, load, si) in cell_inputs(app) {
            inputs.push((ai, li, load, si));
        }
    }
    crate::info!("[fig11/12] deploying {} cells ...", inputs.len());
    let cells: Vec<Cell> = crate::runner::run_cells(inputs, |_, (ai, li, load, si)| {
        run_cell(
            &apps[ai],
            &managers[ai],
            &load,
            System::ALL[si],
            scale,
            (0xDE_9107 + ai as u64) ^ ((li as u64) << 8) ^ si as u64,
            ctx.artifacts_dir.as_deref(),
        )
    });
    let mut table = TsvTable::new(
        "fig11_12",
        &["app", "load", "system", "violation_rate", "avg_cores"],
    );
    for c in &cells {
        table.row(vec![
            c.app.clone(),
            c.load.clone(),
            c.system.clone(),
            format!("{:.4}", c.violation_rate),
            format!("{:.1}", c.avg_cores),
        ]);
    }
    print!("{}", table.render());
    let _ = table.write_tsv(ctx, "fig11_12");

    // Headline aggregates, paper-style.
    for system in System::ALL {
        let sys_cells: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.system == system.label())
            .collect();
        let mean_viol =
            sys_cells.iter().map(|c| c.violation_rate).sum::<f64>() / sys_cells.len().max(1) as f64;
        let mean_cores =
            sys_cells.iter().map(|c| c.avg_cores).sum::<f64>() / sys_cells.len().max(1) as f64;
        println!(
            "{:>7}: mean violation rate {:>6.2}%  mean CPU {:>7.1} cores",
            system.label(),
            100.0 * mean_viol,
            mean_cores
        );
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_baselines::Autoscaler;
    use ursa_sim::control::ResourceManager;

    /// A reduced version of the §VII-E comparison on the vanilla social
    /// network: Ursa must beat the ML baselines on violations under the
    /// exploration mix, and Auto-b must burn more CPU than Ursa while
    /// staying SLA-safe-ish.
    #[test]
    fn headline_comparison_vanilla_social() {
        let app = social_network(true);
        let managers = PreparedManagers::prepare(&app, Scale::Quick, 0xCAFE);
        let deploy = |system, seed| {
            managers.deploy_cell(&app, system, &LoadSpec::Constant, Scale::Quick, seed, None)
        };
        let ursa = deploy(System::Ursa, 1);
        let sinan = deploy(System::Sinan, 2);
        let firm = deploy(System::Firm, 3);
        let auto_b = deploy(System::AutoB, 4);

        let vr = |r: &ursa_sim::control::DeploymentReport| r.overall_violation_rate();
        assert!(vr(&ursa) <= 0.10, "ursa violations {:.3}", vr(&ursa));
        // Ursa no worse than the ML-driven systems.
        assert!(
            vr(&ursa) <= vr(&sinan) + 0.02 && vr(&ursa) <= vr(&firm) + 0.02,
            "ursa {:.3} vs sinan {:.3} firm {:.3}",
            vr(&ursa),
            vr(&sinan),
            vr(&firm)
        );
        // Auto-b: safe but expensive relative to Ursa.
        assert!(vr(&auto_b) <= 0.25, "auto-b violations {:.3}", vr(&auto_b));
        assert!(
            auto_b.avg_cpu_allocation() > ursa.avg_cpu_allocation(),
            "auto-b {} cores vs ursa {}",
            auto_b.avg_cpu_allocation(),
            ursa.avg_cpu_allocation()
        );
    }

    /// Every system's constant-load cell writes a dashboard whose
    /// "Controller internals" panel plots that controller's self-profiling
    /// series — the control planes stay comparable side by side.
    #[test]
    fn constant_cells_export_self_profiles_per_system() {
        let app = social_network(true);
        let managers = PreparedManagers::prepare(&app, Scale::Quick, 0x11FE);
        let dir = std::env::temp_dir().join(format!("ursa-fig1112-metrics-{}", std::process::id()));
        for (i, system) in System::ALL.iter().enumerate() {
            let cell = run_cell(
                &app,
                &managers,
                &LoadSpec::Constant,
                *system,
                Scale::Quick,
                0x51 + i as u64,
                Some(&dir),
            );
            assert_eq!(cell.system, system.label());
            let stem = format!("fig11_12_{}_{}", app.name, system.label());
            let html = std::fs::read_to_string(dir.join(format!("{stem}.html"))).unwrap();
            assert!(html.contains("<svg") && !html.contains("<script"));
            assert!(
                html.contains(&format!("system: {} —", system.label())),
                "{stem}: missing system label"
            );
            let (_, internals) = html
                .split_once("<h2>Controller internals</h2>")
                .unwrap_or_else(|| panic!("{stem}: no controller panel"));
            let internals = &internals[..internals.find("</section>").unwrap()];
            let n = app.topology.num_services();
            let profile = match system {
                System::Ursa => managers.ursa.self_profile(),
                System::Sinan => managers.sinan.self_profile(),
                System::Firm => managers.firm.self_profile(),
                System::AutoA => Autoscaler::auto_a(n).self_profile(),
                System::AutoB => Autoscaler::auto_b(n).self_profile(),
            };
            assert!(!profile.is_empty(), "{stem}");
            // The panel strips the names' longest shared prefix that ends
            // at a `_` (`ctrl_`, or `ctrl_scale_` for the autoscaler's two
            // counters); each series is a titled line with its own table
            // column.
            let names: Vec<&str> = profile.iter().map(|&(name, _)| name).collect();
            let mut prefix = if names.len() > 1 { names[0] } else { "" };
            while !names.iter().all(|name| name.starts_with(prefix)) {
                let cut = prefix[..prefix.len() - 1].rfind('_').map_or(0, |i| i + 1);
                prefix = &prefix[..cut];
            }
            for name in names {
                assert!(
                    name.starts_with("ctrl_"),
                    "{stem}: {name} is not a ctrl_ series"
                );
                let short = name.strip_prefix(prefix).expect("a shared prefix");
                assert!(
                    internals.contains(&format!("<g class=\"series\"><title>{short}</title>"))
                        && internals.contains(&format!("<th>{short}</th>")),
                    "{stem}: missing self-profile series {name}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
