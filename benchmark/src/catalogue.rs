//! Every workload and metric the benchmark reports, by name. The root
//! `BENCHMARK.json` lists the same names (a test holds the two together);
//! `README.md` explains each.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit, printed beside every value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression (0 per layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine_steady",
        "social network at its default rate, no manager: shallow queues and small PS sets, the regime most grid cells run in; engine and harvest do all the work",
    ),
    (
        "engine_overload",
        "one 8-core service under a diurnal rate that exceeds capacity each cycle: deep PS sets, a large arena and evicting telemetry rings; bypasses what shallow-queue tuning helps",
    ),
    (
        "manager_grid",
        "the fig11/12 social block through the harness: manager preparation, then 25 managed deployments; what --exp users wait for; at seed 0 its rows must equal the committed TSV",
    ),
    (
        "control_replay",
        "recorded snapshots replayed through every manager's on_tick, then Ursa recalculations and MIP solves (Table VI, 'lightweight'); the engine is idle, so engine work must not move it",
    ),
];

/// What a user of the system sees. Every workload reports every one.
///
/// Every bound is the widest the contract allows. The 2-core reference
/// host drifts: over two ten-seed sets the spread (quartile distance over
/// median) of `wall_s` stayed within 1.0–5.7 % and that of `peak_rss_mb`
/// within 1.2–11.7 % (`manager_grid`, whose deployments grow differently
/// under each seed), but ten consecutive `engine_overload` runs once went
/// from 0.96 s to 0.78 s in two minutes (spread 11.7 %).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// Single layers, named after this repository's modules. A workload
/// reports 0 for a metric whose layer its traced run does not measure.
pub const PER_LAYER: [Metric; 83] = [
    // ursa-sim::engine
    lo("engine.run_ns_per_event", "ns"),
    lo("engine.events_live", "count"),
    lo("engine.events_stale", "count"),
    lo("engine.in_flight_max", "count"),
    lo("engine.queue_max_depth", "count"),
    lo("engine.queue_resizes", "count"),
    lo("engine.arena_slots_high_water", "count"),
    lo("engine.window_ms_p50", "ms"),
    lo("engine.window_ms_tail", "ms"),
    lo("engine.profile.queue_pop_ns", "ns"),
    lo("engine.profile.queue_push_ns", "ns"),
    lo("engine.profile.ps_admit_ns", "ns"),
    lo("engine.profile.ps_complete_ns", "ns"),
    lo("engine.profile.rng_ns", "ns"),
    lo("engine.profile.telemetry_ns", "ns"),
    lo("engine.profile.other_ns", "ns"),
    lo("engine.profile_sum_ratio", "ratio"),
    lo("engine.profiler_overhead_pct", "%"),
    lo("engine.scale_k1_ns_per_event", "ns"),
    lo("engine.scale_k2_ns_per_event", "ns"),
    lo("engine.scale_k4_ns_per_event", "ns"),
    lo("engine.scale_k8_ns_per_event", "ns"),
    // ursa-sim::telemetry
    lo("telemetry.harvest_ms_p50", "ms"),
    lo("telemetry.harvest_ms_tail", "ms"),
    lo("telemetry.harvest_share_pct", "%"),
    lo("telemetry.evicted_share_pct", "%"),
    hi("telemetry.samples_retained", "count"),
    // ursa-stats
    lo("stats.blockrng_f64_ns", "ns"),
    lo("stats.lognormal_ns", "ns"),
    lo("stats.exponential_ns", "ns"),
    lo("stats.qwindow_record_ns", "ns"),
    lo("stats.qwindow_sorted_us", "us"),
    // ursa-apps
    lo("apps.build_sim_ms", "ms"),
    // ursa-bench (harness)
    lo("bench.prepare_s", "s"),
    lo("bench.deploy_s", "s"),
    lo("bench.cell_s_p50", "s"),
    lo("bench.cell_s_max", "s"),
    lo("bench.deploy_s.ursa", "s"),
    lo("bench.deploy_s.sinan", "s"),
    lo("bench.deploy_s.firm", "s"),
    lo("bench.deploy_s.auto-a", "s"),
    lo("bench.deploy_s.auto-b", "s"),
    lo("bench.clone_ms", "ms"),
    lo("bench.tick_share_pct", "%"),
    hi("bench.jobs2_speedup", "ratio"),
    lo("bench.golden_rows_mismatched", "count"),
    hi("bench.span_coverage_pct", "%"),
    lo("bench.trace_overhead_pct", "%"),
    // ursa-core
    lo("core.prepare_ursa_s", "s"),
    lo("core.exploration_samples", "count"),
    lo("core.optimize_ms", "ms"),
    lo("core.ursa_tick_us_p50", "us"),
    lo("core.ursa_tick_us_p99", "us"),
    lo("core.recalc_share_pct", "%"),
    lo("core.recalc_us_p50", "us"),
    lo("core.recalc_us_p99", "us"),
    lo("core.ursa_violation_pct", "%"),
    lo("core.ursa_avg_cores", "cores"),
    // ursa-mip
    lo("mip.solve_ms_p50", "ms"),
    lo("mip.solve_ms_max", "ms"),
    lo("mip.nodes_explored", "count"),
    lo("mip.ns_per_node", "ns"),
    lo("mip.greedy_ms_p50", "ms"),
    lo("mip.greedy_gap_pct", "%"),
    // ursa-baselines
    lo("baselines.prepare_sinan_s", "s"),
    lo("baselines.sinan_train_s", "s"),
    lo("baselines.sinan_collect_s", "s"),
    lo("baselines.prepare_firm_s", "s"),
    lo("baselines.sinan_tick_us_p50", "us"),
    lo("baselines.sinan_tick_us_p99", "us"),
    lo("baselines.firm_tick_us_p50", "us"),
    lo("baselines.firm_tick_us_p99", "us"),
    lo("baselines.auto_tick_ns_p50", "ns"),
    // ursa-ml
    lo("ml.mlp_train_batch_us", "us"),
    lo("ml.mlp_predict_us", "us"),
    lo("ml.gbt_fit_ms", "ms"),
    // ursa-metrics + ursa-sim::metrics
    lo("metrics.metered_overhead_pct", "%"),
    lo("metrics.observe_us_p50", "us"),
    lo("metrics.scrape_us_p50", "us"),
    lo("metrics.write_artifacts_ms", "ms"),
    lo("metrics.artifact_bytes", "bytes"),
    // ursa-trace
    lo("trace.tracing_overhead_pct", "%"),
    lo("trace.critical_path_us", "us"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}
