//! What one run prints and writes.

use crate::json::Json;
use crate::spans::Recorder;
use crate::workloads::RunResult;
use crate::{catalogue, host, stats};

/// Schema tag of a single run's detail file.
pub const RUN_SCHEMA: &str = "ursa-benchmark-run/v1";

/// The metrics a run reports: every end-to-end metric from an untraced
/// run, every per-layer metric from a traced one.
pub fn reported(result: &RunResult) -> Vec<(&'static catalogue::Metric, f64)> {
    if result.cfg.traced {
        catalogue::PER_LAYER
            .iter()
            .map(|m| (m, result.layers.get(m.name)))
            .collect()
    } else {
        result.end_to_end()
    }
}

/// The reported metrics as `{name: {"value", "unit"}}`.
fn metrics_json(result: &RunResult) -> Json {
    Json::obj(reported(result).into_iter().map(|(m, v)| {
        let metric = Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]);
        (m.name, metric)
    }))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(result)),
    ])
    .render()
}

/// Every metric by name with its unit, one per line, for people; after a
/// traced run also where the last traced unit's time went, layer by layer.
pub fn print_table(result: &RunResult, rec: &Recorder) {
    let c = &result.cfg;
    println!(
        "== {} (seed {}, {} s, {}) ==",
        result.workload,
        c.seed,
        c.seconds,
        if c.traced { "traced" } else { "untraced" }
    );
    for (m, v) in reported(result) {
        println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
    }
    let (q1, median, q3) = stats::quartiles(&result.unit_walls);
    println!(
        "{:<34} {:>16} untraced, as run: median {median:.4} s, quartiles {q1:.4} .. {q3:.4}",
        "timed_units",
        result.unit_walls.len()
    );
    if let Some(unit) = result.traced_unit {
        println!("-- self time by layer, traced unit {unit} --");
        for (layer, t) in rec.by_layer(unit) {
            println!(
                "{layer:<34} {:>16.6} s self of {:.6} s in {} spans, count {}",
                t.self_ns as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                t.spans,
                t.count
            );
        }
    }
    println!("{:<34} {:>16}", "ops_attempted", result.attempted);
    println!("{:<34} {:>16}", "ops_failed", result.failed);
    if let Some(n) = result.selftest_failed {
        println!("{:<34} {:>16}", "selftest_failed", n);
    }
}

/// The detail file of one run: the host block, per-unit walls and every
/// reported metric with its quartiles.
pub fn run_json(result: &RunResult) -> Json {
    let mut host = host::host_block(result.cfg.seed);
    if let Json::Obj(pairs) = &mut host {
        pairs.push(("unit_walls_s".into(), Json::nums(&result.unit_walls)));
        pairs.push(("parts_fastest_s".into(), Json::nums(&result.parts_s)));
        pairs.push(("setup_s".into(), Json::nums(&result.setup_s)));
    }
    Json::obj([
        ("schema", Json::str(RUN_SCHEMA)),
        ("workload", Json::str(result.workload)),
        ("host", host),
        ("seconds", Json::Num(result.cfg.seconds)),
        ("traced", Json::Bool(result.cfg.traced)),
        ("smoke", Json::Bool(result.cfg.smoke)),
        ("correct", Json::Bool(result.correct())),
        ("ops_attempted", Json::Num(result.attempted as f64)),
        ("ops_failed", Json::Num(result.failed as f64)),
        (
            "selftest_failed",
            result
                .selftest_failed
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("metrics", metrics_json(result)),
    ])
}

/// Writes the spans of a traced run to `benchmark/out/trace_<workload>.json`.
///
/// # Errors
///
/// Says which path could not be written.
pub fn write_trace(result: &RunResult, rec: &Recorder) -> Result<(), String> {
    Json::obj([
        ("workload", Json::str(result.workload)),
        ("seed", Json::Num(result.cfg.seed as f64)),
        ("spans", rec.to_json()),
    ])
    .write_to(&host::out_dir().join(format!("trace_{}.json", result.workload)))
}
