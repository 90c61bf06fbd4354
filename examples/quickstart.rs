//! Quickstart: manage the vanilla social network with Ursa, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full paper pipeline on one application: backpressure
//! profiling → Algorithm-1 exploration → MIP solve → managed deployment,
//! printing what each phase produced.

use ursa::apps::social_network;
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::profiling::ProfilingConfig;
use ursa::sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The application: vanilla DeathStarBench-style social network with
    //    the paper's Table II SLAs (upload-post p99 <= 75 ms, ...).
    let app = social_network(true);
    println!(
        "app: {} ({} services, {} request classes)",
        app.name,
        app.topology.num_services(),
        app.topology.num_classes()
    );
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();

    // 2. Offline phase. (Reduced knobs so the example runs in ~a minute;
    //    drop the overrides for paper-protocol exploration.)
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
    println!("\nrunning offline phase (profiling + exploration + MIP)...");
    let mut manager = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 42)?;
    let stats = manager.offline_stats();
    println!(
        "  explored with {} samples; wall-time analog {:.1} simulated minutes",
        stats.exploration_samples,
        stats.exploration_time.as_secs_f64() / 60.0
    );
    println!(
        "  projected allocation: {:.0} cores (MIP objective, proved optimal: {})",
        manager.outcome().solution.objective,
        manager.outcome().solution.proved_optimal
    );
    for t in &manager.outcome().thresholds {
        let lpr: Vec<String> = t
            .lpr
            .iter()
            .enumerate()
            .filter(|(_, y)| **y > 0.0)
            .map(|(c, y)| format!("{}={:.0}rps", app.topology.classes()[c].name, y))
            .collect();
        println!("  threshold {:<16} {}", t.name, lpr.join(" "));
    }

    // 3. Online phase: 20 minutes under Poisson load.
    let mut sim = app.build_sim(7);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    manager.apply_initial_allocation(&rates, &mut sim);
    let cfg = DeployConfig {
        duration: SimDur::from_mins(20),
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
    };
    println!(
        "\ndeploying for 20 simulated minutes at {} rps...",
        app.default_rps
    );
    let report = run_deployment(&mut sim, &app.slas, &mut manager, &cfg);
    for sla in &app.slas {
        println!(
            "  {:<18} p{} target {:>6.3}s  violations {:>5.1}%",
            app.topology.classes()[sla.class.0].name,
            sla.percentile,
            sla.target,
            100.0 * report.class_violation_rate(sla.class)
        );
    }
    println!(
        "\noverall violation rate {:.2}%  |  mean allocation {:.1} cores  |  decision latency {:.3} ms",
        100.0 * report.overall_violation_rate(),
        report.avg_cpu_allocation(),
        report.decision_wall_ms
    );
    Ok(())
}
