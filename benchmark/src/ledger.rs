//! A full set: every workload, each run in a process of its own, merged
//! into one JSON that `compare` reads.

use crate::json::Json;
use crate::{catalogue, host, stats};
use std::path::PathBuf;
use std::process::Command;

/// Schema tag of a ledger file.
pub const LEDGER_SCHEMA: &str = "ursa-benchmark-ledger/v1";

/// Options of a set.
#[derive(Debug, Clone)]
pub struct LedgerCfg {
    /// Seed of the first run of each workload; run `k` uses `seed + k`.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Untraced runs per workload; quartiles are taken over them, the way
    /// the acceptance check takes them over its ten runs.
    pub runs: u64,
    /// Also make one traced run per workload (at `seed`).
    pub traced: bool,
    /// Where the ledger is written.
    pub out: PathBuf,
}

/// Runs this executable on one workload and reads its detail file back.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let detail = host::out_dir().join(format!("run-{}-{workload}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&detail)
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (seed {seed}) exited with {status}"));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    Json::parse(&text)
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Makes the set and writes the ledger.
///
/// # Errors
///
/// Fails when a run does, or when the ledger cannot be written.
pub fn run(cfg: &LedgerCfg) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for (name, _) in catalogue::WORKLOADS {
        let runs: Vec<Json> = (0..cfg.runs)
            .map(|k| child(name, cfg.seed + k, cfg.seconds, false))
            .collect::<Result<_, _>>()?;
        let sum = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        let end_to_end = Json::obj(catalogue::END_TO_END.iter().map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let (q1, median, q3) = stats::quartiles(&values);
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.label())),
                    ("bound", Json::Num(m.bound)),
                    ("values", Json::nums(&values)),
                    ("q1", Json::Num(q1)),
                    ("median", Json::Num(median)),
                    ("q3", Json::Num(q3)),
                ]),
            )
        }));
        let mut entry = vec![
            ("ops_attempted".to_string(), Json::Num(sum("ops_attempted"))),
            ("ops_failed".to_string(), Json::Num(sum("ops_failed"))),
            ("end_to_end".to_string(), end_to_end),
        ];
        if cfg.traced {
            let traced = child(name, cfg.seed, cfg.seconds, true)?;
            entry.push((
                "per_layer".into(),
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            ));
            entry.push(("traced_run".into(), traced));
        }
        entry.push(("runs".into(), Json::Arr(runs)));
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    let ledger = Json::obj([
        ("schema", Json::str(LEDGER_SCHEMA)),
        ("host", host::host_block(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("runs", Json::Num(cfg.runs as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    ledger.write_to(&cfg.out)?;
    Ok(ledger)
}
