//! **Figure 4** — backpressure-free threshold profiling curves.
//!
//! Reproduces the profiling sweep for two social-network services: the post
//! service ("post-store") and the timeline-read service. The paper's curve:
//! proxy p99 latency falls as the tested service's CPU limit rises and then
//! converges; the CPU utilization just before convergence is the
//! backpressure-free threshold (paper: 46.2 % for post, 60.0 % for
//! timeline-read).

use crate::{default_rates, RunCtx, Scale, TsvTable};
use ursa_apps::social_network;
use ursa_core::harness::ServiceProfile;
use ursa_core::profiling::{profile_service, BackpressureProfile};

/// Profiles one named service of the social network.
pub fn profile_named(service: &str, scale: Scale, seed: u64) -> BackpressureProfile {
    let app = social_network(false);
    let sid = app.service(service).expect("service exists");
    let rates = default_rates(&app);
    let profile = ServiceProfile::extract(&app.topology, sid, &rates);
    profile_service(&profile, &scale.profiling(), seed)
}

/// Runs the experiment for the two paper services. The two profiling
/// sweeps are independent cells and run in parallel; printing and TSV
/// output stay in paper order.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<BackpressureProfile> {
    println!("== Figure 4: backpressure-free threshold profiling ==");
    let services = ["post-store", "timeline-read"];
    let profiles = crate::runner::run_cells(services.to_vec(), |i, service| {
        profile_named(service, scale, 0xF164 + i as u64)
    });
    let mut out = Vec::new();
    for (service, bp) in services.iter().zip(profiles) {
        let mut table = TsvTable::new(
            &format!("fig4_{service}"),
            &[
                "cpu_limit",
                "proxy_p99_mean",
                "proxy_p99_std",
                "service_p99_mean",
                "utilization",
            ],
        );
        for p in &bp.points {
            table.row(vec![
                format!("{:.3}", p.cpu_limit),
                format!("{:.5}", p.proxy_p99_mean),
                format!("{:.5}", p.proxy_p99_std),
                format!("{:.5}", p.service_p99_mean),
                format!("{:.3}", p.utilization),
            ]);
        }
        println!("\n-- {service} --");
        print!("{}", table.render());
        println!(
            "backpressure-free threshold: {:.1}% CPU utilization (converged at sweep level {})",
            100.0 * bp.threshold,
            bp.converged_at
        );
        let _ = table.write_tsv(ctx, "fig4");
        out.push(bp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_in_paper_band() {
        // The paper reports 46.2% and 60.0%; our substrate differs, but the
        // thresholds must be moderate (neither ~0 nor ~1) and the curves
        // must show the starved-then-converged shape.
        for service in ["post-store", "timeline-read"] {
            let bp = profile_named(service, Scale::Quick, 9);
            assert!(
                bp.threshold > 0.25 && bp.threshold < 0.95,
                "{service}: threshold {}",
                bp.threshold
            );
            let first = bp.points.first().unwrap().proxy_p99_mean;
            let last = bp.points.last().unwrap().proxy_p99_mean;
            assert!(first > last, "{service}: {first} !> {last}");
        }
    }
}
