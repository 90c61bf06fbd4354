//! The video processing pipeline: priorities and per-priority SLAs.
//!
//! ```text
//! cargo run --release --example video_pipeline
//! ```
//!
//! The pipeline's two request priorities share three MQ-connected stages
//! (metadata → snapshot → face recognition). Low-priority requests run only
//! when no high-priority request waits, and the SLAs differ in *percentile*
//! (p99 ≤ 20 s high vs p50 ≤ 4 s low — paper Table IV). Ursa's MIP handles
//! both in one model.

use ursa::apps::video_pipeline;
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::profiling::ProfilingConfig;
use ursa::sim::prelude::*;

/// Every end-to-end latency sample per class from the windows after
/// warm-up, the ones the deployment report counts.
struct Samples {
    after: SimTime,
    per_class: Vec<Vec<f64>>,
}

impl DeployObserver for Samples {
    fn after_tick(
        &mut self,
        _: &Simulation,
        _: &dyn ResourceManager,
        _: Option<&SimMetrics>,
        snapshot: &MetricsSnapshot,
    ) {
        if snapshot.at > self.after {
            for (kept, series) in self.per_class.iter_mut().zip(&snapshot.e2e_latency) {
                kept.extend_from_slice(series.samples());
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = video_pipeline(0.5);
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();

    println!("preparing Ursa for the video pipeline...");
    let cfg = UrsaConfig {
        exploration: ExplorationConfig {
            samples_per_option: 4,
            window: SimDur::from_secs(30),
            max_options: 6,
            ..Default::default()
        },
        profiling: ProfilingConfig {
            windows_per_level: 4,
            window: SimDur::from_secs(15),
            levels: 6,
        },
    };
    let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 3)?;

    // Deploy under a priority mix the exploration never saw (60:40).
    let skewed = app.skewed_mix(1.0); // start from default…
    let mut mix = skewed;
    mix[0] = 60.0;
    mix[1] = 40.0;
    let mut sim = app.build_sim(4);
    app.apply_load_with_mix(&mut sim, RateFn::Constant(app.default_rps), &mix);
    ursa.apply_initial_allocation(&rates, &mut sim);
    let warmup = SimDur::from_mins(3);
    let mut samples = Samples {
        after: sim.now() + warmup,
        per_class: vec![Vec::new(); app.topology.num_classes()],
    };
    let report = run_deployment_observed(
        &mut sim,
        &app.slas,
        &mut ursa,
        &DeployConfig {
            duration: SimDur::from_mins(30),
            control_interval: SimDur::from_mins(1),
            warmup,
        },
        None,
        Some(&mut samples),
    );

    for sla in &app.slas {
        let name = &app.topology.classes()[sla.class.0].name;
        let samples = &mut samples.per_class[sla.class.0];
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let measured = ursa::stats::quantile::percentile_of_sorted(samples, sla.percentile);
        println!(
            "{:<14} p{:<4} measured {:>7.2}s  target {:>5.1}s  window violations {:>5.1}%",
            name,
            sla.percentile,
            measured,
            sla.target,
            100.0 * report.class_violation_rate(sla.class)
        );
    }
    println!(
        "\nmean allocation {:.1} cores across {} stages under a 60:40 priority mix",
        report.avg_cpu_allocation(),
        app.topology.num_services()
    );
    Ok(())
}
