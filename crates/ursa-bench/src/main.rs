//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ursa-bench -- --exp all [--full] [--jobs N] [--seed N]
//! cargo run --release -p ursa-bench -- --exp fig2|fig4|table5|fig9|fig11|fig13|table6|fig14
//! cargo run --release -p ursa-bench -- --exp fig2 --artifacts-dir results/artifacts
//! cargo run --release -p ursa-bench -- diff RUN_A.json RUN_B.json [--out results/diff]
//! ```
//!
//! Every experiment writes a `run.json` manifest under its results
//! directory (its seed, jobs and scale, and the row count and digest of
//! every table it wrote); `diff` compares two such manifests row by row
//! into `diff.tsv` + a script-free `diff.html` and exits 1 if a row
//! changed. `--artifacts-dir DIR` is the one place a run writes what a
//! person reads: dashboards (fig2, fig9, fig11), Chrome traces and blame
//! summaries (fig2) and decision logs (fig9).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

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
        other => {
            warn!("unknown experiment: {other}");
            usage();
        }
    };
    // Every experiment gets its own context: the artifact directory from
    // the command line and a fresh manifest its `note_table` calls feed,
    // which lands in `results/<exp>/run.json` for `ursa-bench diff`.
    let run_manifested = |name: &str| {
        let manifest =
            RunManifest::new(name, ursa_bench::global_seed(), runner::jobs(), scale_label);
        let ctx = RunCtx {
            artifacts_dir: artifacts_dir.clone(),
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

/// Unwraps a validated operand; a bad one is a usage error that says why.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        warn!("{e}");
        usage()
    })
}

/// `ursa-bench diff RUN_A RUN_B [--out DIR]`
fn diff_main(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut out_dir = results_dir().join("diff");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
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
    diff::run(&paths[0], &paths[1], &out_dir)
}

fn usage() -> ! {
    eprintln!(
        "usage: ursa-bench [--exp all|fig2|fig4|table5|fig9|fig11|fig13|table6|fig14|ablation] \
         [--quick|--full] [--jobs N] [--seed N] [--quiet|--verbose] \
         [--artifacts-dir DIR]\n\
         \x20      ursa-bench diff RUN_A.json RUN_B.json [--out DIR]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_zero_is_a_usage_error_not_one_worker() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("8"), Ok(8));
        for bad in ["0", "-1", "2.5", "many", ""] {
            let e = parse_jobs(bad).unwrap_err();
            assert!(e.contains("--jobs") && e.contains(bad), "{e}");
        }
    }
}
