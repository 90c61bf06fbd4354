//! `perf` subcommand — the CI regression tripwire on engine throughput.
//!
//! Perf *questions* (where time goes, whether a change paid) belong to the
//! ledger, `bash benchmark/run.sh`. This module only answers "did the
//! engine get dramatically slower?" on three cells, timed best-of-N:
//!
//! * **canonical** — the vanilla social network under constant load; the
//!   general-purpose figure.
//! * **ps_heavy** — one 8-core replica with 512 worker slots driven into
//!   deep overload (hundreds of concurrent jobs sharing the CPU). This is
//!   the regime where a per-job-countdown PS loop goes quadratic; the
//!   virtual-time queue keeps it near-linear, and this cell exists so a
//!   regression back to O(n²) fails `--check` loudly.
//! * **big** — the full social network replicated 7× (63 services) on one
//!   engine: event queue and telemetry tables an order of magnitude wider.
//!
//! `--check <baseline.json>` compares every cell's events/sec against a
//! committed baseline (tolerance from `--tolerance`, default
//! [`REGRESSION_TOLERANCE`]). The schema stays v8: the per-cell
//! `profiler_overhead_pct` of older reports (the committed baseline still
//! carries it) went with the profiler's clock reads and was never read
//! from a baseline.

use std::path::Path;
use std::time::Instant;

use ursa_apps::{scale_app, social_network};
use ursa_metrics::json::{parse_json, JsonValue};
use ursa_sim::prelude::*;

/// Report schema identifier.
pub const SCHEMA: &str = "ursa-bench-perf/v8";
/// Default allowed events/sec regression vs the baseline before
/// `--check` fails (override with `--tolerance`). Generous because the
/// reference numbers come from shared runners where even best-of-N walls
/// wander by tens of percent between machine windows; the check exists to
/// catch complexity-class regressions (the ps_heavy cell slows ~3x if PS
/// goes quadratic again), not single-digit codegen drift.
pub const REGRESSION_TOLERANCE: f64 = 0.35;
/// Wall-clock repetitions per cell. The minimum is reported: far more
/// stable on a shared runner than a single shot.
const REPS: usize = 5;

/// Builds one cell: a loaded simulation and the simulated seconds to run.
type CellFn = fn() -> (Simulation, u64);

/// The cells: the name `--check` aligns on, and the build.
const CELLS: [(&str, CellFn); 3] = [
    ("canonical", canonical_cell),
    ("ps_heavy", ps_heavy_cell),
    ("big", big_cell),
];

fn canonical_cell() -> (Simulation, u64) {
    let app = social_network(true);
    let mut sim = app.build_sim(0xBE7C);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    (sim, 30)
}

fn ps_heavy_cell() -> (Simulation, u64) {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 8.0).with_workers(512)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
        }],
    )
    .expect("static ps_heavy topology");
    let mut sim = Simulation::new(topo, SimConfig::default(), 0x9527);
    sim.set_rate(ClassId(0), RateFn::Constant(4000.0));
    (sim, 10)
}

fn big_cell() -> (Simulation, u64) {
    let app = scale_app(&social_network(false), 7);
    let mut sim = app.build_sim(0x816C);
    // Twice the default rate keeps the cell event-dense enough to time.
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps * 2.0));
    (sim, 20)
}

/// Builds a cell and simulates it to its end.
fn run_cell(build: CellFn) -> Simulation {
    let (mut sim, secs) = build();
    sim.run_for(SimDur::from_secs(secs));
    sim
}

/// One measured cell of the report.
#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    /// The key `--check` aligns on.
    name: &'static str,
    /// Engine events dispatched.
    events: u64,
    /// Single-thread engine throughput (events / best wall).
    events_per_sec: f64,
    wall_ms: f64,
}

/// Times a cell best-of-N, asserting its event count repeats exactly.
fn time_cell(&(name, build): &(&'static str, CellFn)) -> CellResult {
    let mut best_wall = f64::MAX;
    let mut kept = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let events = run_cell(build).events_processed();
        best_wall = best_wall.min(t.elapsed().as_secs_f64());
        assert_eq!(*kept.get_or_insert(events), events, "{name} drifted");
    }
    let events = kept.expect("REPS > 0");
    CellResult {
        name,
        events,
        events_per_sec: events as f64 / best_wall.max(1e-9),
        wall_ms: best_wall * 1e3,
    }
}

/// Renders the report (stable key order, one cell per line).
fn to_json(cells: &[CellResult]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": \"{}\", \"events\": {}, \"events_per_sec\": {:.1}, \
                 \"wall_ms\": {:.2}}}",
                c.name, c.events, c.events_per_sec, c.wall_ms
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"cores_available\": {cores},\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Checks `cells` against a baseline report: every cell's `events_per_sec`
/// must reach `baseline × (1 − tolerance)`. Returns the exit code (0 ok,
/// 1 regression, 2 unusable baseline) and one line per cell, naming the
/// cell and the metric (a multi-cell check that only echoes a number is
/// undebuggable from CI logs) and the margin left before it trips.
fn check(cells: &[CellResult], baseline: &str, tolerance: f64) -> (i32, Vec<String>) {
    let baseline = match parse_json(baseline) {
        Ok(v) if v.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA) => v,
        Ok(_) => return (2, vec![format!("error: baseline is not a {SCHEMA} report")]),
        Err(e) => return (2, vec![format!("error: baseline does not parse: {e}")]),
    };
    let base_cells = baseline.get("cells").and_then(JsonValue::as_arr);
    let (mut code, mut lines) = (0, Vec::new());
    for cell in cells {
        let name = cell.name;
        let base = base_cells
            .unwrap_or(&[])
            .iter()
            .find(|b| b.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(|b| b.get("events_per_sec")?.as_f64());
        let Some(base) = base else {
            lines.push(format!(
                "error: baseline has no `events_per_sec` for cell `{name}`"
            ));
            code = 2;
            continue;
        };
        let (cur, floor) = (cell.events_per_sec, base * (1.0 - tolerance));
        let margin = 100.0 * (cur / floor - 1.0);
        let ok = cur >= floor;
        let verdict = ["PERF REGRESSION", "perf check ok"][usize::from(ok)];
        lines.push(format!(
            "{verdict}: cell `{name}`, metric `events_per_sec`: \
             {cur:.0} vs baseline {base:.0} (floor {floor:.0}, margin {margin:+.0}%)"
        ));
        code = code.max(i32::from(!ok));
    }
    (code, lines)
}

/// Measures every cell (after a warm-up that pages in code and allocator
/// state), writes the report to `out`, and optionally checks it against a
/// baseline at `tolerance`. Returns the process exit code (0 = ok,
/// 1 = regression, 2 = bad baseline or I/O).
pub fn run(out: &Path, check_against: Option<&Path>, tolerance: f64) -> i32 {
    run_cell(canonical_cell);
    let cells: Vec<CellResult> = CELLS.iter().map(time_cell).collect();
    let json = to_json(&cells);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("error: failed to write {}: {e}", out.display());
        return 2;
    }
    println!("wrote {}", out.display());
    print!("{json}");
    let Some(path) = check_against else { return 0 };
    let baseline = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", path.display());
            return 2;
        }
    };
    println!("perf check tolerance: {tolerance:.2}");
    let (code, lines) = check(&cells, &baseline, tolerance);
    for line in lines {
        if line.starts_with("perf check ok") {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic() {
        for build in [canonical_cell, ps_heavy_cell] {
            let first = run_cell(build).events_processed();
            assert!(first > 0);
            assert_eq!(first, run_cell(build).events_processed());
        }
        // Despite hundreds of concurrent jobs sharing the replica, the
        // event queue must stay shallow: the scheduler keeps at most one
        // pending completion check per replica (plus source timers), never
        // one timer per job. A deep queue here means superseded checks are
        // no longer removed.
        let depth = run_cell(ps_heavy_cell).event_heap_max_depth();
        assert!(depth < 64, "ps_heavy event queue blew up: {depth}");
    }

    fn sample() -> Vec<CellResult> {
        let cell = |name, events_per_sec| CellResult {
            name,
            events: 1234,
            events_per_sec,
            wall_ms: 21.7,
        };
        vec![
            cell("canonical", 56789.5),
            cell("ps_heavy", 98765.5),
            cell("big", 5_000_000.0),
        ]
    }

    #[test]
    fn check_gates_floors_over_the_v8_schema() {
        let cells = sample();
        let json = to_json(&cells);
        let verdict = |baseline: &str, tolerance: f64| check(&cells, baseline, tolerance);
        // A report is within any tolerance of itself: three floors, all
        // passing.
        let (code, lines) = verdict(&json, 0.0);
        assert_eq!((code, lines.len()), (0, 3), "{lines:?}");
        // A doubled baseline cell trips the floor, naming cell and metric.
        let (code, lines) = verdict(&json.replace("98765.5", "197531.0"), REGRESSION_TOLERANCE);
        assert_eq!(code, 1);
        let failed = "PERF REGRESSION: cell `ps_heavy`, metric `events_per_sec`: 98766 vs";
        assert!(lines[1].starts_with(failed), "{lines:?}");
        let passed = |l: &&String| l.starts_with("perf check ok");
        assert_eq!(lines.iter().filter(passed).count(), 2, "{lines:?}");
        // A 10 % drift below the baseline passes inside the band only.
        let drifted = json.replace("56789.5", "63099.4");
        assert_eq!(verdict(&drifted, 0.35).0, 0);
        assert_eq!(verdict(&drifted, 0.05).0, 1);
        // Exponent notation is read exactly: 5.0e6 is the big cell's own
        // value (passes at zero tolerance); 6.5e6 puts the floor above it.
        assert_eq!(verdict(&json.replace("5000000.0", "5.0e6"), 0.0).0, 0);
        let (code, lines) = verdict(&json.replace("5000000.0", "6.5e6"), 0.2);
        assert_eq!(code, 1);
        let failed =
            "PERF REGRESSION: cell `big`, metric `events_per_sec`: 5000000 vs baseline 6500000";
        assert!(lines[2].starts_with(failed), "{lines:?}");
        // A missing cell or number, a foreign schema and a torn file are unusable.
        let (code, lines) = verdict(&json.replace("\"ps_heavy\"", "\"renamed\""), 0.35);
        assert_eq!(code, 2);
        assert!(lines[1].ends_with("for cell `ps_heavy`"), "{lines:?}");
        let no_number = json.replace("\"events_per_sec\": 56789.5, ", "");
        assert_eq!(verdict(&no_number, 0.35).0, 2);
        assert_eq!(verdict(&json.replace("/v8", "/v7"), 0.35).0, 2);
        assert_eq!(verdict("{", 0.35).0, 2);
        // The committed baseline, older reports' extra field included, is
        // still a usable v8 report.
        let committed = include_str!("../../../results/bench/BENCH_baseline.json");
        assert_ne!(verdict(committed, 0.35).0, 2);
    }
}
