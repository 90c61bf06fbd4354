//! The metrics pipeline end to end: deploy Ursa on the social network
//! under diurnal load with a [`SimMetrics`] collector attached, then
//! render the run as a single self-contained HTML dashboard (inline SVG,
//! no JavaScript, no external assets).
//!
//! ```text
//! cargo run --release --example dashboard
//! # then open results/dashboard/social_diurnal.html in any browser
//! ```

use ursa::apps::social_network;
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::profiling::ProfilingConfig;
use ursa::sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = social_network(true);
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();

    println!("offline phase (reduced exploration)...");
    let cfg = UrsaConfig {
        exploration: ExplorationConfig {
            samples_per_option: 4,
            window: SimDur::from_secs(20),
            max_options: 6,
            ..Default::default()
        },
        profiling: ProfilingConfig {
            windows_per_level: 4,
            window: SimDur::from_secs(10),
            levels: 8,
        },
    };
    let mut manager = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 42)?;

    let duration = SimDur::from_mins(40);
    let mut sim = app.build_sim(7);
    app.apply_load(
        &mut sim,
        RateFn::Diurnal {
            base: app.default_rps * 0.6,
            peak: app.default_rps * 1.4,
            period: duration,
        },
    );
    manager.apply_initial_allocation(&rates, &mut sim);

    // The collector scrapes once per control window; passing `None` instead
    // would reproduce the exact same simulation without it.
    let mut metrics = SimMetrics::for_topology("ursa", sim.topology(), &app.slas);
    let deploy = DeployConfig {
        duration,
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
    };
    println!(
        "deploying for {:.0} simulated minutes with metrics attached...",
        duration.as_secs_f64() / 60.0
    );
    let report = run_deployment_observed(
        &mut sim,
        &app.slas,
        &mut manager,
        &deploy,
        Some(&mut metrics),
        None,
    );
    println!(
        "SLA violation rate {:.2}%, mean allocation {:.1} cores, {} scale annotations",
        100.0 * report.overall_violation_rate(),
        report.avg_cpu_allocation(),
        metrics.annotations().len()
    );

    let dir = std::path::Path::new("results/dashboard");
    let paths = metrics.write_artifacts(
        dir,
        "social_diurnal",
        "Ursa on social-network — diurnal load",
    )?;
    println!(
        "wrote {}\nopen it in a browser — one self-contained file, works offline",
        paths[0].display()
    );
    Ok(())
}
