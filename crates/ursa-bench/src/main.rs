//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ursa-bench -- --exp all [--full] [--jobs N] [--seed N]
//! cargo run --release -p ursa-bench -- --exp fig2|fig4|table5|fig9|fig11|fig13|table6|fig14
//! cargo run --release -p ursa-bench -- --exp chaos [--seed N]
//! cargo run --release -p ursa-bench -- --exp fig2 --artifacts-dir results/artifacts
//! cargo run --release -p ursa-bench -- --exp chaos --artifacts-dir results/artifacts [--snapshot-at SECS]
//! cargo run --release -p ursa-bench -- diff RUN_A.json RUN_B.json [--out results/diff]
//! ```
//!
//! Every experiment writes a `run.json` manifest under its results
//! directory; `diff` aligns two such manifests into `diff.tsv` + a
//! script-free `diff.html`. `--artifacts-dir DIR` is the one place a run
//! writes what a person reads: dashboards (fig2, fig9, fig11), Chrome
//! traces and blame summaries (fig2), decision logs (fig9) and post-mortem
//! bundles (chaos).

#![forbid(unsafe_code)]

use std::path::PathBuf;

use ursa_bench::manifest::RunManifest;
use ursa_bench::{
    diff, experiments, info, results_dir, runner, set_level, warn, Level, RunCtx, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("diff") {
        std::process::exit(diff_main(&args[2..]));
    }
    let mut exp = "all".to_string();
    let mut scale = Scale::Quick;
    let mut artifacts_dir: Option<PathBuf> = None;
    let mut snapshot_at: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--quiet" | "-q" => set_level(Level::Quiet),
            "--verbose" | "-v" => set_level(Level::Debug),
            "--jobs" | "-j" => {
                i += 1;
                let raw = args.get(i).unwrap_or_else(|| usage());
                runner::set_jobs(or_usage(parse_jobs(raw)));
            }
            "--seed" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                ursa_bench::set_seed(n);
            }
            "--artifacts-dir" => {
                i += 1;
                artifacts_dir = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--snapshot-at" => {
                i += 1;
                snapshot_at = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
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
    let snapshot_at = or_usage(parse_snapshot_at(
        snapshot_at.as_deref(),
        artifacts_dir.is_some(),
    ));
    let t0 = std::time::Instant::now();
    info!("[runner] {} worker(s)", runner::jobs());
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let run_one = |name: &str, ctx: &RunCtx| match name {
        "fig2" => {
            experiments::fig2::run(scale, ctx);
        }
        "fig4" => {
            experiments::fig4::run(scale, ctx);
        }
        "table5" => {
            experiments::table5::run(scale, ctx);
        }
        "fig9" | "fig10" | "fig9_10" => {
            experiments::fig9_10::run(scale, ctx);
        }
        "fig11" | "fig12" | "fig11_12" => {
            experiments::fig11_12::run(scale, ctx);
        }
        "fig13" => {
            experiments::fig13::run(scale, ctx);
        }
        "table6" => {
            experiments::table6::run(scale, ctx);
        }
        "fig14" => {
            experiments::fig14::run(scale, ctx);
        }
        "ablation" => {
            experiments::ablation::run(scale, ctx);
        }
        "chaos" => {
            experiments::chaos::run(scale, ctx);
        }
        other => {
            warn!("unknown experiment: {other}");
            usage();
        }
    };
    // Every experiment gets its own context: the artifact directory from
    // the command line and a fresh manifest its `note_*` calls feed, which
    // lands in `results/<exp>/run.json` for `ursa-bench diff`.
    let run_manifested = |name: &str| {
        let manifest =
            RunManifest::new(name, ursa_bench::global_seed(), runner::jobs(), scale_label);
        let ctx = RunCtx {
            artifacts_dir: artifacts_dir.clone(),
            snapshot_at,
            ..RunCtx::new(results_dir(), manifest)
        };
        run_one(name, &ctx);
        let path = ctx.results.join(name).join("run.json");
        // Never fatal: a manifest must not break the run it describes.
        let written = ctx.manifest().write(&path);
        match written {
            Ok(p) => info!("[manifest] wrote {}", p.display()),
            Err(e) => warn!("failed to write manifest {}: {e}", path.display()),
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

/// Validates `--jobs`: a worker count of at least 1. 0 is refused, not
/// guessed at: `runner::set_jobs(0)` means "all cores", which is what
/// leaving the flag out already selects.
fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "--jobs must be a whole number of workers >= 1, got `{raw}` \
             (leave the flag out to use every core)"
        )),
    }
}

/// Resolves the diff tolerance: the `--tolerance` operand, else
/// [`diff::DEFAULT_TOLERANCE`]. It must be a number in `[0, 1)`: from 1 up,
/// the band `a·(1 ± t)` reaches zero and a value that drops to nothing
/// is not flagged.
fn parse_tolerance(flag: Option<&str>) -> Result<f64, String> {
    let Some(raw) = flag else {
        return Ok(diff::DEFAULT_TOLERANCE);
    };
    match raw.parse::<f64>() {
        Ok(t) if (0.0..1.0).contains(&t) => Ok(t),
        _ => Err(format!(
            "--tolerance must be a number in [0, 1), got `{raw}`"
        )),
    }
}

/// Validates `--snapshot-at`: a finite, non-negative number of simulated
/// seconds (`NaN` would never fire, since `at >= NaN` is false), and only
/// together with `--artifacts-dir`, without which no observer exists to
/// take the snapshot.
fn parse_snapshot_at(raw: Option<&str>, artifacts_dir_set: bool) -> Result<Option<f64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    if !artifacts_dir_set {
        return Err("--snapshot-at needs --artifacts-dir to write its bundle into".into());
    }
    match raw.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(Some(t)),
        _ => Err(format!(
            "--snapshot-at must be a finite number of seconds >= 0, got `{raw}`"
        )),
    }
}

/// Unwraps a validated operand; a bad one is a usage error that says why.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        warn!("{e}");
        usage()
    })
}

/// `ursa-bench diff RUN_A RUN_B [--out DIR] [--tolerance T]`
fn diff_main(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut out_dir = results_dir().join("diff");
    let mut tolerance: Option<String> = None;
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
    let tolerance = or_usage(parse_tolerance(tolerance.as_deref()));
    diff::run(&paths[0], &paths[1], &out_dir, tolerance)
}

fn usage() -> ! {
    eprintln!(
        "usage: ursa-bench [--exp all|fig2|fig4|table5|fig9|fig11|fig13|table6|fig14|ablation|chaos] \
         [--quick|--full] [--jobs N] [--seed N] [--quiet|--verbose] \
         [--artifacts-dir DIR] [--snapshot-at SECS]\n\
         \x20      ursa-bench diff RUN_A.json RUN_B.json [--out DIR] [--tolerance T]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_range_checked_from_the_flag() {
        assert_eq!(parse_tolerance(None), Ok(diff::DEFAULT_TOLERANCE));
        assert_eq!(parse_tolerance(Some("0.2")), Ok(0.2));
        assert_eq!(parse_tolerance(Some("0")), Ok(0.0));
        for bad in ["1.5", "1", "-0.1", "NaN", "inf", "ten", ""] {
            let e = parse_tolerance(Some(bad)).unwrap_err();
            assert!(e.contains("--tolerance") && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn jobs_zero_is_a_usage_error_not_one_worker() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("8"), Ok(8));
        for bad in ["0", "-1", "2.5", "many", ""] {
            let e = parse_jobs(bad).unwrap_err();
            assert!(e.contains("--jobs") && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn snapshot_at_is_range_checked_and_needs_an_artifacts_dir() {
        assert_eq!(parse_snapshot_at(None, false), Ok(None));
        assert_eq!(parse_snapshot_at(None, true), Ok(None));
        assert_eq!(parse_snapshot_at(Some("300"), true), Ok(Some(300.0)));
        assert_eq!(parse_snapshot_at(Some("0"), true), Ok(Some(0.0)));
        for bad in ["NaN", "-5", "inf", "-inf", "soon", ""] {
            let e = parse_snapshot_at(Some(bad), true).unwrap_err();
            assert!(e.contains("--snapshot-at") && e.contains(bad), "{e}");
        }
        // Without an artifacts directory there is nowhere to write the
        // bundle, and the flag used to be silently ignored.
        let e = parse_snapshot_at(Some("300"), false).unwrap_err();
        assert!(e.contains("--artifacts-dir"), "{e}");
    }
}
