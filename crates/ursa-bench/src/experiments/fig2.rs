//! **Figure 2** — backpressure heatmaps for nested-RPC, event-driven-RPC,
//! and MQ chains.
//!
//! A 5-tier chain is stressed for 10 minutes; the leaf tier's CPU limit is
//! throttled during minutes 3–6. Each cell of the output is one tier's p99
//! per-tier response time (excluding downstream waits) during one minute.
//! The paper's claims to reproduce: RPC chains backpressure their upstream
//! tiers, strongest at the culprit's parent and fading up the chain; the MQ
//! chain shows none.

use crate::{RunCtx, Scale, TsvTable};
use ursa_apps::chains::{study_chain, TIER_CORES, TIER_WORK};
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::time::{SimDur, SimTime};
use ursa_sim::topology::{ClassId, EdgeKind, ServiceId};
use ursa_sim::workload::RateFn;

/// Result grid for one chain kind: `p99[minute][tier]` in seconds.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Chain kind label.
    pub kind: String,
    /// `grid[minute][tier]` p99 per-tier latency (seconds).
    pub grid: Vec<Vec<f64>>,
}

/// Offered load in requests/second.
pub const LOAD_RPS: f64 = 300.0;
/// Throttled leaf CPU limit during the anomaly (cores). A mild throttle:
/// capacity 275 rps against 300 rps offered, so the backlog grows at
/// ~25 req/s and stays within the bounded regions near the culprit for the
/// 3-minute anomaly (the Fig. 2 gradient is a transient — see DESIGN.md §3).
pub const THROTTLED_CORES: f64 = 1.1;

/// Runs the 10-minute experiment for one edge kind, with span tracing at
/// `sample_rate` (0 disables) and an optional metrics collector scraped
/// once per minute (the throttle transitions become dashboard
/// annotations); returns the collected traces alongside the heatmap.
pub fn run_chain(
    edge: EdgeKind,
    minutes: usize,
    anomaly: std::ops::Range<usize>,
    seed: u64,
    sample_rate: f64,
    mut metrics: Option<&mut SimMetrics>,
) -> (Heatmap, Vec<ursa_sim::trace::Trace>) {
    let topo = study_chain(edge);
    let tiers = topo.num_services();
    let mut sim = Simulation::new(topo, SimConfig::default(), seed);
    if sample_rate > 0.0 {
        sim.enable_tracing(100_000, sample_rate);
    }
    sim.set_rate(ClassId(0), RateFn::Constant(LOAD_RPS));
    let leaf = ServiceId(tiers - 1);
    let mut grid = Vec::with_capacity(minutes);
    for minute in 0..minutes {
        let minute_start = SimTime::from_secs_f64(minute as f64 * 60.0);
        if minute == anomaly.start {
            sim.set_cpu_limit(leaf, THROTTLED_CORES);
            if let Some(m) = metrics.as_mut() {
                m.annotate(
                    minute_start,
                    "anomaly",
                    &format!("leaf throttled {TIER_CORES} -> {THROTTLED_CORES} cores"),
                );
            }
        }
        if minute == anomaly.end {
            sim.set_cpu_limit(leaf, TIER_CORES);
            if let Some(m) = metrics.as_mut() {
                m.annotate(
                    minute_start,
                    "anomaly",
                    &format!("leaf restored to {TIER_CORES} cores"),
                );
            }
        }
        sim.run_for(SimDur::from_mins(1));
        let snap = sim.harvest();
        if let Some(m) = metrics.as_mut() {
            m.observe_snapshot(&sim, &snap);
            m.scrape(snap.at);
        }
        let row: Vec<f64> = (0..tiers)
            .map(|t| {
                snap.services[t].tier_latency[0]
                    .percentile(99.0)
                    .unwrap_or(0.0)
            })
            .collect();
        grid.push(row);
    }
    (
        Heatmap {
            kind: format!("{edge:?}"),
            grid,
        },
        sim.take_traces(),
    )
}

/// Writes one chain's artifacts under `dir` as `<stem>.*`: its dashboard,
/// a Chrome trace-event file (`chrome://tracing` / Perfetto) and a
/// per-tier blame summary.
fn write_chain_artifacts(
    dir: &std::path::Path,
    stem: &str,
    edge: EdgeKind,
    traces: &[ursa_sim::trace::Trace],
    metrics: &SimMetrics,
) -> std::io::Result<()> {
    let title = format!("Fig. 2 — {edge:?} chain backpressure");
    metrics.write_artifacts(dir, stem, &title)?;
    let topo = study_chain(edge);
    let names: Vec<String> = topo.services().iter().map(|s| s.name.clone()).collect();
    let mut chrome = ursa_trace::ChromeTrace::new();
    chrome.add_traces(traces, &names);
    chrome.write(&mut std::fs::File::create(
        dir.join(format!("{stem}.trace.json")),
    )?)?;
    let blame = ursa_trace::service_blame(traces, names.len());
    std::fs::write(dir.join(format!("{stem}.blame.txt")), blame.render(&names))
}

/// Runs all three chains and writes/prints the heatmaps.
pub fn run(scale: Scale, ctx: &RunCtx) -> Vec<Heatmap> {
    let minutes = match scale {
        Scale::Quick => 8,
        Scale::Full => 10,
    };
    let anomaly = match scale {
        Scale::Quick => 2..5,
        Scale::Full => 3..6,
    };
    let mut out = Vec::new();
    println!("== Figure 2: backpressure heatmaps ==");
    println!(
        "5-tier chains, {LOAD_RPS} rps, {TIER_WORK}s/tier, leaf throttled {TIER_CORES}->{THROTTLED_CORES} cores during minutes {}..{}",
        anomaly.start, anomaly.end
    );
    let dir = ctx.artifacts_dir.as_deref();
    // 1% head sampling is plenty for blame over a multi-minute run and
    // keeps the Chrome trace loadable.
    let sample_rate = if dir.is_some() { 0.01 } else { 0.0 };
    // The three chains are independent cells: simulate in parallel, then
    // write artifacts and print in chain order.
    let chains = crate::runner::run_cells(
        vec![EdgeKind::NestedRpc, EdgeKind::EventDrivenRpc, EdgeKind::Mq],
        |i, edge| {
            // The chains run unmanaged (fixed allocation), so the collector
            // is labeled "static" and carries no SLAs.
            let mut metrics =
                dir.map(|_| SimMetrics::for_topology("static", &study_chain(edge), &[]));
            let (hm, traces) = run_chain(
                edge,
                minutes,
                anomaly.clone(),
                0xF162 + i as u64,
                sample_rate,
                metrics.as_mut(),
            );
            (edge, hm, traces, metrics)
        },
    );
    for (edge, hm, traces, metrics) in chains {
        let stem = format!("fig2_{}", hm.kind.to_lowercase());
        if let (Some(dir), Some(m)) = (dir, metrics.as_ref()) {
            // Digest every collected series into the run manifest (main
            // thread, chain order — deterministic), keyed by chain stem.
            ctx.manifest().note_store(&stem, m.store());
            match write_chain_artifacts(dir, &stem, edge, &traces, m) {
                Ok(()) => crate::info!(
                    "[fig2] wrote {stem}.{{html,trace.json,blame.txt}} ({} traces) under {}",
                    traces.len(),
                    dir.display()
                ),
                Err(e) => crate::warn!("[fig2] artifact export failed: {e}"),
            }
        }
        let mut table = TsvTable::new(
            &stem,
            &["minute", "tier1", "tier2", "tier3", "tier4", "tier5"],
        );
        for (m, row) in hm.grid.iter().enumerate() {
            table.row(
                std::iter::once((m + 1).to_string())
                    .chain(row.iter().map(|x| format!("{:.4}", x)))
                    .collect(),
            );
        }
        println!("\n-- {} (p99 per-tier response time, seconds) --", hm.kind);
        print!("{}", table.render());
        let _ = table.write_tsv(ctx, "fig2");
        out.push(hm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline §III result: throttling the leaf inflates the parent
    /// tier's latency in RPC chains but not in the MQ chain, and the effect
    /// fades up the chain.
    #[test]
    fn backpressure_shape_matches_paper() {
        let anomaly = 2..5;
        let chain = |edge, seed| run_chain(edge, 6, anomaly.clone(), seed, 0.0, None).0;
        let nested = chain(EdgeKind::NestedRpc, 1);
        let event = chain(EdgeKind::EventDrivenRpc, 2);
        let mq = chain(EdgeKind::Mq, 3);

        let calm = |hm: &Heatmap, tier: usize| hm.grid[0][tier];
        // Mean over anomaly minutes.
        let hot = |hm: &Heatmap, tier: usize| {
            anomaly.clone().map(|m| hm.grid[m][tier]).sum::<f64>() / anomaly.len() as f64
        };

        for (hm, label) in [(&nested, "nested"), (&event, "event-driven")] {
            // Parent (tier 4, index 3) inflates strongly.
            assert!(
                hot(hm, 3) > 5.0 * calm(hm, 3),
                "{label}: parent {} -> {}",
                calm(hm, 3),
                hot(hm, 3)
            );
            // The effect diminishes up the chain: tier 1 is hit less than
            // the parent.
            assert!(
                hot(hm, 0) < hot(hm, 3),
                "{label}: tier1 {} vs tier4 {}",
                hot(hm, 0),
                hot(hm, 3)
            );
        }
        // MQ: the parent stays calm even while the leaf is throttled.
        assert!(
            hot(&mq, 3) < 2.0 * calm(&mq, 3),
            "mq parent {} -> {}",
            calm(&mq, 3),
            hot(&mq, 3)
        );
    }
}
