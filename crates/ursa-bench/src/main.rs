//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ursa-bench -- --exp all [--full] [--jobs N] [--seed N]
//! cargo run --release -p ursa-bench -- --exp fig2|fig4|table5|fig9|fig11|fig13|table6|fig14
//! cargo run --release -p ursa-bench -- --exp chaos [--seed N]
//! cargo run --release -p ursa-bench -- --exp qos [--seed N]
//! cargo run --release -p ursa-bench -- --exp fig2 --trace-dir traces/
//! cargo run --release -p ursa-bench -- --exp fig9 --metrics-dir metrics/
//! cargo run --release -p ursa-bench -- --exp chaos --postmortem-dir results/postmortem
//! cargo run --release -p ursa-bench -- perf [--out BENCH_sim.json] [--check baseline.json] \
//!     [--tolerance 0.35]
//! cargo run --release -p ursa-bench -- diff results/bench/run_baseline.json \
//!     results/bench/run.json [--out results/diff] [--history results/bench/history.jsonl]
//! ```
//!
//! Every experiment writes a `run.json` manifest under its results
//! directory (and `perf` under the `--out` directory); `diff` aligns two
//! such manifests into `diff.tsv` + a script-free `diff.html`.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use ursa_bench::logging::{self, Level};
use ursa_bench::{diff, experiments, info, manifest, perf, results_dir, runner, warn, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("perf") {
        std::process::exit(perf_main(&args[2..]));
    }
    if args.get(1).map(String::as_str) == Some("diff") {
        std::process::exit(diff_main(&args[2..]));
    }
    let mut exp = "all".to_string();
    let mut scale = Scale::Quick;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--quiet" | "-q" => logging::set_level(Level::Quiet),
            "--verbose" | "-v" => logging::set_level(Level::Debug),
            "--jobs" | "-j" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                runner::set_jobs(n.max(1));
            }
            "--seed" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                ursa_bench::set_seed(n);
            }
            "--trace-dir" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                logging::set_trace_dir(Some(dir.into()));
            }
            "--metrics-dir" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                logging::set_metrics_dir(Some(dir.into()));
            }
            "--postmortem-dir" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                logging::set_postmortem_dir(Some(dir.into()));
            }
            "--snapshot-at" => {
                i += 1;
                let t: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                logging::set_snapshot_at(Some(t));
            }
            "--help" | "-h" => {
                usage();
            }
            other => {
                warn!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    let t0 = std::time::Instant::now();
    info!("[runner] {} worker(s)", runner::jobs());
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let run_one = |name: &str| match name {
        "fig2" => {
            experiments::fig2::run(scale);
        }
        "fig4" => {
            experiments::fig4::run(scale);
        }
        "table5" => {
            experiments::table5::run(scale);
        }
        "fig9" | "fig10" | "fig9_10" => {
            experiments::fig9_10::run(scale);
        }
        "fig11" | "fig12" | "fig11_12" => {
            experiments::fig11_12::run(scale);
        }
        "fig13" => {
            experiments::fig13::run(scale);
        }
        "table6" => {
            experiments::table6::run(scale);
        }
        "fig14" => {
            experiments::fig14::run(scale);
        }
        "ablation" => {
            experiments::ablation::run(scale);
        }
        "chaos" => {
            experiments::chaos::run(scale);
        }
        "qos" => {
            experiments::qos::run(scale);
        }
        other => {
            warn!("unknown experiment: {other}");
            usage();
        }
    };
    // Every experiment run is wrapped in a manifest: `begin` arms the
    // global collector the experiment's note_* hooks feed, `finish`
    // writes `results/<exp>/run.json` for `ursa-bench diff`.
    let run_manifested = |name: &str| {
        manifest::begin(name, ursa_bench::global_seed(), runner::jobs(), scale_label);
        run_one(name);
        if let Some(p) = manifest::finish(&results_dir().join(name).join("run.json")) {
            info!("[manifest] wrote {}", p.display());
        }
    };
    if exp == "all" {
        for name in [
            "fig2", "fig4", "table5", "fig9", "fig11", "fig13", "table6", "fig14", "ablation",
        ] {
            println!();
            run_manifested(name);
        }
    } else {
        run_manifested(&exp);
    }
    info!(
        "\n[done in {:.1}s, results under results/]",
        t0.elapsed().as_secs_f64()
    );
}

/// Resolves the perf/diff tolerance: the `--tolerance` operand, then the
/// `URSA_PERF_TOLERANCE` environment variable, then the built-in default.
/// Whichever source supplies it must be a number in `[0, 1)`: from 1 up,
/// `floor = base·(1−t)` is at most zero and every check passes.
fn parse_tolerance(flag: Option<&str>, env: Option<&str>) -> Result<f64, String> {
    let (source, raw) = match (flag, env) {
        (Some(raw), _) => ("--tolerance", raw),
        (None, Some(raw)) => ("URSA_PERF_TOLERANCE", raw),
        (None, None) => return Ok(perf::REGRESSION_TOLERANCE),
    };
    match raw.parse::<f64>() {
        Ok(t) if (0.0..1.0).contains(&t) => Ok(t),
        _ => Err(format!("{source} must be a number in [0, 1), got `{raw}`")),
    }
}

/// [`parse_tolerance`] over the process environment; a bad value from
/// either source is a usage error.
fn resolve_tolerance(flag: Option<&str>) -> f64 {
    let env = std::env::var("URSA_PERF_TOLERANCE").ok();
    parse_tolerance(flag, env.as_deref()).unwrap_or_else(|e| {
        warn!("{e}");
        usage()
    })
}

/// `ursa-bench perf [--out PATH] [--check BASELINE] [--tolerance T] [--jobs N]`
fn perf_main(args: &[String]) -> i32 {
    let mut out = PathBuf::from("BENCH_sim.json");
    let mut check: Option<PathBuf> = None;
    let mut tolerance: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--tolerance" => {
                i += 1;
                tolerance = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--jobs" | "-j" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                runner::set_jobs(n.max(1));
            }
            other => {
                warn!("unknown perf argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    perf::run(
        &out,
        check.as_deref(),
        resolve_tolerance(tolerance.as_deref()),
    )
}

/// `ursa-bench diff RUN_A RUN_B [--out DIR] [--tolerance T] [--history PATH]`
fn diff_main(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut out_dir = results_dir().join("diff");
    let mut tolerance: Option<String> = None;
    let mut history: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--tolerance" => {
                i += 1;
                tolerance = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--history" => {
                i += 1;
                history = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            flag if flag.starts_with("--") => {
                warn!("unknown diff argument: {flag}");
                usage();
            }
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if paths.len() != 2 {
        warn!("diff needs exactly two manifest paths, got {}", paths.len());
        usage();
    }
    let opts = diff::DiffOptions {
        out_dir,
        tolerance: resolve_tolerance(tolerance.as_deref()),
        history,
    };
    diff::run(&paths[0], &paths[1], &opts)
}

fn usage() -> ! {
    eprintln!(
        "usage: ursa-bench [--exp all|fig2|fig4|table5|fig9|fig11|fig13|table6|fig14|ablation|chaos|qos] \
         [--quick|--full] [--jobs N] [--seed N] [--quiet|--verbose] \
         [--trace-dir DIR] [--metrics-dir DIR] [--postmortem-dir DIR] [--snapshot-at SECS]\n\
         \x20      ursa-bench perf [--out BENCH_sim.json] [--check baseline.json] \
         [--tolerance T] [--jobs N]\n\
         \x20      ursa-bench diff RUN_A.json RUN_B.json [--out DIR] [--tolerance T] \
         [--history history.jsonl]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_range_checked_from_flag_and_env() {
        assert_eq!(parse_tolerance(None, None), Ok(perf::REGRESSION_TOLERANCE));
        assert_eq!(parse_tolerance(Some("0.2"), None), Ok(0.2));
        assert_eq!(parse_tolerance(None, Some("0")), Ok(0.0));
        // The flag wins over the environment, and is the one validated.
        assert_eq!(parse_tolerance(Some("0.1"), Some("1.5")), Ok(0.1));
        assert!(parse_tolerance(Some("1.5"), Some("0.1")).is_err());
        for bad in ["1.5", "1", "-0.1", "NaN", "inf", "ten", ""] {
            let flag = parse_tolerance(Some(bad), None).unwrap_err();
            assert!(flag.contains("--tolerance"), "{flag}");
            let env = parse_tolerance(None, Some(bad)).unwrap_err();
            assert!(env.contains("URSA_PERF_TOLERANCE"), "{env}");
        }
    }
}
