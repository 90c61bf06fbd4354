//! **Figure 13** — Ursa's per-service CPU allocation tracking a diurnal
//! load.
//!
//! Reproduces the paper's time-series: for representative social-network
//! microservices, the per-window arrival rate (RPS, left axis) and the CPU
//! cores Ursa allocates (right axis) as the load ramps up and back down.
//! The claim: Ursa scales each service out and in promptly with its load.

use crate::{default_rates, prepare_ursa, LoadSpec, RunCtx, Scale, TsvTable};
use ursa_apps::social_network;
use ursa_sim::control::{run_deployment, DeployConfig};
use ursa_sim::time::SimDur;

/// Time series for one service.
#[derive(Debug, Clone)]
pub struct ServiceSeries {
    /// Service name.
    pub service: String,
    /// (minute, rps, allocated cores) per window.
    pub points: Vec<(f64, f64, f64)>,
}

/// Representative services plotted by the figure.
pub const SERVICES: [&str; 4] = [
    "compose-post",
    "post-store",
    "timeline-update",
    "object-detect",
];

/// Runs the diurnal deployment and extracts the series.
///
/// This experiment is a single deployment cell (one app, one load, one
/// system), so it runs on the calling thread regardless of `--jobs`.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<ServiceSeries> {
    println!("== Figure 13: per-service RPS vs CPU allocation under diurnal load ==");
    let app = social_network(false);
    let duration = match scale {
        Scale::Quick => SimDur::from_mins(30),
        Scale::Full => SimDur::from_mins(90),
    };
    let mut ursa = prepare_ursa(&app, scale, 0x000F_1613);
    let mut sim = app.build_sim(0xD1);
    LoadSpec::Diurnal.apply(&app, &mut sim, duration);
    ursa.apply_initial_allocation(&default_rates(&app), &mut sim);
    let cfg = DeployConfig {
        duration,
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::ZERO,
    };
    let report = run_deployment(&mut sim, &app.slas, &mut ursa, &cfg);

    let mut out = Vec::new();
    for name in SERVICES {
        #[allow(
            clippy::expect_used,
            reason = "SERVICES names services of the social network"
        )]
        let sid = app.service(name).expect("service exists");
        let cores_per_replica = app.topology.services()[sid.0].cores;
        let points: Vec<(f64, f64, f64)> = report
            .records
            .iter()
            .map(|r| {
                (
                    r.at.as_secs_f64() / 60.0,
                    r.service_rps[sid.0],
                    r.service_replicas[sid.0] as f64 * cores_per_replica,
                )
            })
            .collect();
        let mut table = TsvTable::new(&format!("fig13_{name}"), &["minute", "rps", "cores"]);
        for (t, rps, cores) in &points {
            table.row(vec![
                format!("{t:.0}"),
                format!("{rps:.1}"),
                format!("{cores:.0}"),
            ]);
        }
        let _ = table.write_tsv(ctx, "fig13");
        let peak = points.iter().map(|p| p.2).fold(0.0, f64::max);
        let trough = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
        println!(
            "{name:<18} windows {:>3}  cores {trough:.0}..{peak:.0}",
            points.len()
        );
        out.push(ServiceSeries {
            service: name.to_string(),
            points,
        });
    }
    println!(
        "overall violation rate during the diurnal run: {:.2}%",
        100.0 * report.overall_violation_rate()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocation must track the diurnal ramp: more cores near the peak
    /// than at the start, and scale back in afterwards.
    #[test]
    fn allocation_follows_load() {
        let series = RunCtx::scratch("fig13", |ctx| run(Scale::Quick, ctx));
        // post-store carries most classes: clearest signal.
        let ps = series.iter().find(|s| s.service == "post-store").unwrap();
        let n = ps.points.len();
        assert!(n >= 10);
        let start_cores = ps.points[1].2;
        let mid_cores = ps.points[n / 2].2;
        let end_cores = ps.points[n - 1].2;
        assert!(
            mid_cores > start_cores,
            "peak {mid_cores} should exceed start {start_cores}"
        );
        assert!(
            end_cores < mid_cores,
            "end {end_cores} should drop from peak {mid_cores}"
        );
    }
}
