//! The full social network (with ML microservices) under a diurnal load:
//! Ursa versus the tuned autoscaler.
//!
//! ```text
//! cargo run --release --example social_network
//! ```
//!
//! Demonstrates the paper's headline trade-off (§VII-E): a conservative
//! autoscaler can also hold SLAs, but only by burning far more CPU, while
//! heterogeneous services (millisecond text handling next to seconds-long
//! object detection) make naive utilization targets expensive.

use ursa::apps::social_network;
use ursa::baselines::Autoscaler;
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::profiling::ProfilingConfig;
use ursa::sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = social_network(false);
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();
    let duration = SimDur::from_mins(30);
    let diurnal = RateFn::Diurnal {
        base: app.default_rps * 0.6,
        peak: app.default_rps * 1.4,
        period: duration,
    };
    let deploy_cfg = DeployConfig {
        duration,
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
    };

    // --- Ursa ---
    println!("preparing Ursa (offline exploration)...");
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
    let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 1)?;
    let mut sim = app.build_sim(2);
    app.apply_load(&mut sim, diurnal.clone());
    ursa.apply_initial_allocation(&rates, &mut sim);
    let ursa_report = run_deployment(&mut sim, &app.slas, &mut ursa, &deploy_cfg);

    // --- Tuned autoscaler (Auto-b) ---
    println!("running the tuned autoscaler...");
    let mut auto = Autoscaler::auto_b(app.topology.num_services());
    let mut sim = app.build_sim(2);
    app.apply_load(&mut sim, diurnal);
    let auto_report = run_deployment(&mut sim, &app.slas, &mut auto, &deploy_cfg);

    println!(
        "\n{:<10} {:>12} {:>12}",
        "system", "violations", "avg cores"
    );
    for (name, report) in [("ursa", &ursa_report), ("auto-b", &auto_report)] {
        println!(
            "{:<10} {:>11.2}% {:>12.1}",
            name,
            100.0 * report.overall_violation_rate(),
            report.avg_cpu_allocation()
        );
    }
    let savings = 1.0 - ursa_report.avg_cpu_allocation() / auto_report.avg_cpu_allocation();
    println!(
        "\nUrsa matches the autoscaler's SLA compliance with {:.0}% less CPU.",
        100.0 * savings
    );
    Ok(())
}
