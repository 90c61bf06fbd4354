//! Adapting to a business-logic update (§VII-G): the object-detection
//! service swaps DETR for MobileNet, and Ursa re-explores only that
//! service.
//!
//! ```text
//! cargo run --release --example adapt_to_change
//! ```

use ursa::apps::social_network;
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::profiling::ProfilingConfig;
use ursa::sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = social_network(false);
    let detect = app.service("object-detect").expect("service exists");
    let detect_class = app.class("object-detect").expect("class exists");
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();

    println!("initial offline exploration (all services)...");
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
    let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 21)?;
    let full = ursa.offline_stats();
    println!(
        "  full exploration: {} samples, {:.1} simulated minutes",
        full.exploration_samples,
        full.exploration_time.as_secs_f64() / 60.0
    );
    let cores_before = ursa.outcome().solution.objective;

    println!("\nswapping DETR -> MobileNet (4x lighter) and re-exploring only object-detect...");
    let stats = ursa.re_explore(detect.0, 0.25, &rates)?;
    println!(
        "  partial re-exploration: {} samples, {:.1} simulated minutes",
        stats.samples,
        stats.time.as_secs_f64() / 60.0
    );
    let cores_after = ursa.outcome().solution.objective;
    println!(
        "  projected allocation: {cores_before:.0} -> {cores_after:.0} cores (lighter model, fewer replicas)"
    );

    println!("\ndeploying the updated application for 15 minutes...");
    let mut sim = app.build_sim(5);
    sim.set_work_scale(detect, 0.25);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    ursa.apply_initial_allocation(&rates, &mut sim);
    let report = run_deployment(
        &mut sim,
        &app.slas,
        &mut ursa,
        &DeployConfig {
            duration: SimDur::from_mins(15),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        },
    );
    println!(
        "  object-detect violation rate: {:.2}% (SLA p99 <= 10s)",
        100.0 * report.class_violation_rate(detect_class)
    );
    println!(
        "  overall violation rate: {:.2}%, mean allocation {:.1} cores",
        100.0 * report.overall_violation_rate(),
        report.avg_cpu_allocation()
    );
    Ok(())
}
