//! `--smoke`: two-simulated-minute units of all four workloads in one
//! process, every check on its failure path once.

use std::process::Command;
use ursa_benchmark::catalogue;
use ursa_benchmark::json::Json;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the binary refuses debug builds: cargo test --release"
)]
fn smoke_runs_every_workload_and_detects_each_injected_failure() {
    let output = Command::new(env!("CARGO_BIN_EXE_ursa-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "smoke failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let doc = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    let runs = doc
        .get("smoke")
        .and_then(Json::as_obj)
        .expect("smoke object");
    let names: Vec<&str> = runs.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.0).collect();
    assert_eq!(names, expected);
    for (name, run) in runs {
        let number = |key: &str| run.get(key).and_then(Json::as_f64);
        assert_eq!(number("ops_failed"), Some(0.0), "{name}");
        assert_eq!(number("selftest_failed"), Some(1.0), "{name}");
        assert!(number("ops_attempted").is_some_and(|n| n >= 1.0), "{name}");
        assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{name}");
        for metric in &catalogue::END_TO_END {
            let value = run
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{name} {}", metric.name);
        }
        let host = run.get("host").expect("host block");
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "git_commit",
            "seed",
            "unit_walls_s",
        ] {
            assert!(host.get(key).is_some(), "{name}: host.{key}");
        }
    }
}
