//! What the numbers were measured on, and the guard that the benchmark
//! was built the way the program is.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (`benchmark/` in the checkout it was
/// built in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root of the checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

/// Where traces and ledgers are written (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line a command prints, or "unknown" (the checkout the driver
/// runs in is not a git repository, for one).
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host block written into every output file. `BUILD_SECONDS` is set
/// by `run.sh` around `cargo build`.
pub fn host_block(seed: u64) -> Json {
    let build_s = std::env::var("BUILD_SECONDS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(first_line("rustc", &["-V"], &bench_dir())),
        ),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"], &repo_root())),
        ),
        ("seed", Json::Num(seed as f64)),
        ("build_s", build_s.map_or(Json::Null, Json::Num)),
    ])
}

/// The body of `[profile.release]` in a manifest: its `key = value` lines
/// without comments or blanks, sorted, so two blocks compare equal exactly
/// when they set the same keys to the same values.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

/// Refuses to measure a build that differs from the program's own: the
/// benchmark crate is outside the root workspace, so the root profile does
/// not apply to it and `benchmark/Cargo.toml` must copy it.
///
/// # Errors
///
/// Says what differs.
pub fn check_build_parity() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built with debug assertions; build with --release".into());
    }
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let root = release_profile(&read(repo_root().join("Cargo.toml"))?);
    let own = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    if root.is_empty() || root != own {
        return Err(format!(
            "[profile.release] differs: root {root:?} vs benchmark {own:?}"
        ));
    }
    Ok(())
}
