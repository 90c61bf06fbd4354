//! `ursa-benchmark`: one workload in this process, a full set in child
//! processes, or a comparison of two sets. `run.sh` builds and calls it.

use std::path::PathBuf;
use std::process::ExitCode;
use ursa_benchmark::json::Json;
use ursa_benchmark::ledger::{self, LedgerCfg};
use ursa_benchmark::workloads::{drive_by_name, Cfg};
use ursa_benchmark::{catalogue, compare, host, report};

const USAGE: &str = "usage:
  ursa-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      one run of one workload; the last line printed is the result object
  ursa-benchmark [--seed N] [--seconds S] [--runs K] [--traced] [--out FILE]
      a full set: every workload, each run in its own process, one ledger
  ursa-benchmark --smoke [--out FILE]
      tiny units of every workload plus the injected-failure self-test
  ursa-benchmark compare A.json B.json
      verdict per workload and end-to-end metric; exit 1 on a regression";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    runs: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        runs: 1,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = number(value()?)?,
            "--runs" => parsed.runs = number(value()?)?.max(1),
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds: bad value {v}"))?;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn single(name: &str, args: &Args) -> Result<ExitCode, String> {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    let (result, rec) = drive_by_name(name, &cfg).ok_or_else(|| {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    report::print_table(&result, &rec);
    if cfg.traced {
        report::write_trace(&result, &rec)?;
    }
    if let Some(path) = &args.out {
        report::run_json(&result).write_to(path)?;
    }
    println!("{}", report::result_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Tiny units of every workload, in this process.
fn smoke(args: &Args) -> Result<ExitCode, String> {
    let cfg = Cfg {
        seed: args.seed,
        seconds: 0.0,
        traced: false,
        smoke: true,
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for (name, _) in catalogue::WORKLOADS {
        let (result, rec) = drive_by_name(name, &cfg).expect("catalogue names are driven");
        report::print_table(&result, &rec);
        ok &= result.correct() && result.selftest_failed == Some(1);
        runs.push((name, report::run_json(&result)));
    }
    let doc = Json::obj([("smoke", Json::obj(runs))]);
    if let Some(path) = &args.out {
        doc.write_to(path)?;
    }
    println!("{}", doc.render());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("compare takes two ledger files".into());
        };
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {p}: {e}"))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
        };
        let outcome = compare::compare(&read(a)?, &read(b)?)?;
        print!("{}", outcome.table);
        return Ok(ExitCode::from(outcome.exit_code() as u8));
    }
    let args = parse(args)?;
    host::check_build_parity()?;
    if args.smoke {
        return smoke(&args);
    }
    if let Some(name) = &args.workload {
        return single(name, &args);
    }
    let cfg = LedgerCfg {
        seed: args.seed,
        seconds: args.seconds,
        runs: args.runs,
        traced: args.traced,
        out: args
            .out
            .clone()
            .unwrap_or_else(|| host::out_dir().join("ledger.json")),
    };
    ledger::run(&cfg)?;
    println!("ledger written to {}", cfg.out.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ursa-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
