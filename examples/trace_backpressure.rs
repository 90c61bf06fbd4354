//! Per-request tracing of the §III backpressure study.
//!
//! ```text
//! cargo run --release --example trace_backpressure [OUT_DIR]
//! ```
//!
//! Runs the 5-tier nested-RPC, event-driven-RPC, and MQ chains with the
//! leaf tier throttled mid-run, sampling 1% of requests into span traces.
//! For each chain it writes a Chrome trace-event file (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) under `OUT_DIR`
//! (default `traces/`), and prints the blame decomposition of the p99 tail
//! during the throttle window.
//!
//! The point the traces make visible: in the RPC chains the parent tier's
//! tail latency is almost entirely *downstream wait* — its workers are
//! held hostage by the throttled leaf (backpressure) — while in the MQ
//! chain the parent stays clean because nothing holds its workers.

use ursa::apps::chains::{study_chain, TIER_CORES};
use ursa::sim::prelude::*;
use ursa::trace::{service_blame, top_percentile, ChromeTrace};

const LOAD_RPS: f64 = 300.0;
const THROTTLED_CORES: f64 = 1.1;
const MINUTES: usize = 8;
const SAMPLE_RATE: f64 = 0.01;

fn main() -> std::io::Result<()> {
    let out_dir =
        std::path::PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "traces".into()));
    std::fs::create_dir_all(&out_dir)?;
    let anomaly = 2..5; // throttle minutes 3-5
    println!(
        "5-tier chains at {LOAD_RPS} rps, leaf {TIER_CORES} -> {THROTTLED_CORES} cores in minutes {}-{}, {:.0}% span sampling\n",
        anomaly.start + 1,
        anomaly.end,
        100.0 * SAMPLE_RATE
    );

    for edge in [EdgeKind::NestedRpc, EdgeKind::EventDrivenRpc, EdgeKind::Mq] {
        let topo = study_chain(edge);
        let names: Vec<String> = topo.services().iter().map(|s| s.name.clone()).collect();
        let tiers = names.len();
        let leaf = ServiceId(tiers - 1);
        let parent = ServiceId(tiers - 2);

        let mut sim = Simulation::new(topo, SimConfig::default(), 0x7AC3);
        sim.enable_tracing(100_000, SAMPLE_RATE);
        sim.set_rate(ClassId(0), RateFn::Constant(LOAD_RPS));
        for minute in 0..MINUTES {
            if minute == anomaly.start {
                sim.set_cpu_limit(leaf, THROTTLED_CORES);
            }
            if minute == anomaly.end {
                sim.set_cpu_limit(leaf, TIER_CORES);
            }
            sim.run_for(SimDur::from_mins(1));
        }
        let traces = sim.take_traces();

        // Blame the p99 tail of requests that *arrived* while the leaf was
        // throttled: that's where backpressure (or its absence) shows.
        let throttled: Vec<_> = traces
            .iter()
            .filter(|t| {
                let m = t.arrival.as_secs_f64() / 60.0;
                m >= anomaly.start as f64 && m < anomaly.end as f64
            })
            .cloned()
            .collect();
        let tail = top_percentile(&throttled, 99.0);
        let blame = service_blame(tail.iter().copied(), tiers);
        let parent_blame = &blame.per_service[parent.0];

        println!("== {edge:?} ==");
        println!(
            "{} traces total, {} during throttle, {} in p99 tail",
            traces.len(),
            throttled.len(),
            tail.len()
        );
        print!("{}", blame.render(&names));
        // The parent's own queue also inflates under backpressure — every
        // worker is parked on the throttled leaf, so arrivals pile up.
        // The worker-held decomposition separates the two: what fraction of
        // the time the parent's workers were occupied was spent waiting on
        // downstream rather than computing.
        println!(
            "parent tier ({}): {:.1}% of p99-tail latency is downstream wait ({:.1}% queued behind held workers)",
            names[parent.0],
            100.0 * parent_blame.downstream_fraction(),
            100.0 * parent_blame.queue_wait / parent_blame.total().max(1e-12),
        );
        println!(
            "parent tier ({}): {:.1}% of held-worker time is backpressure (downstream wait + blocked submission)\n",
            names[parent.0],
            100.0 * parent_blame.backpressure_fraction(),
        );

        let stem = format!("trace_backpressure_{:?}", edge).to_lowercase();
        let mut chrome = ChromeTrace::new();
        chrome.add_traces(&traces, &names);
        let chrome_path = out_dir.join(format!("{stem}.trace.json"));
        chrome.write(&mut std::fs::File::create(&chrome_path)?)?;
        println!("wrote {}\n", chrome_path.display());
    }
    println!("open the .trace.json files in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
