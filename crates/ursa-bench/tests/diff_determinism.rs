//! Properties of the differential-observability layer: a run manifest is a
//! deterministic artifact (byte-identical under `--jobs 1` and `--jobs 8`
//! for the same cells), `diff(run, run)` of any manifest against itself
//! marks no row and renders deterministic TSV/HTML, a damaged manifest
//! makes `diff` return an error or a report, never panic, and the binary
//! refuses a flag it does not know.

use std::fmt::Write as _;

use proptest::prelude::*;
use ursa_apps::chains::study_chain_with;
use ursa_bench::diff::{diff_manifests, parse_manifest, render_html, render_tsv};
use ursa_bench::manifest::RunManifest;
use ursa_metrics::json::{esc, parse_json, JsonValue};
use ursa_metrics::pool::map_ordered;
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::time::SimDur;
use ursa_sim::topology::{ClassId, EdgeKind};
use ursa_sim::workload::RateFn;

/// One random simulation cell: a chain topology plus a load.
#[derive(Debug, Clone)]
struct CellSpec {
    edge: u8,
    tiers: usize,
    work_us: u64,
    rps: f64,
    seed: u64,
    secs: u64,
}

fn cell_specs() -> impl Strategy<Value = Vec<CellSpec>> {
    proptest::collection::vec(
        (
            0u8..3,
            2usize..4,
            500u64..4000,
            (20.0f64..150.0, 0u64..1_000_000),
            3u64..8,
        )
            .prop_map(|(edge, tiers, work_us, (rps, seed), secs)| CellSpec {
                edge,
                tiers,
                work_us,
                rps,
                seed,
                secs,
            }),
        2..6,
    )
}

/// Runs one cell and records its table into its own [`RunManifest`], as
/// a real experiment would, returning the JSON.
fn manifest_json(index: usize, spec: &CellSpec) -> String {
    let edge = match spec.edge {
        0 => EdgeKind::NestedRpc,
        1 => EdgeKind::EventDrivenRpc,
        _ => EdgeKind::Mq,
    };
    let topo = study_chain_with(edge, spec.tiers, spec.work_us as f64 * 1e-6, 2.0);
    let mut sim = Simulation::new(topo, SimConfig::default(), spec.seed);
    sim.set_rate(ClassId(0), RateFn::Constant(spec.rps));
    sim.run_for(SimDur::from_secs(spec.secs));
    let snap = sim.harvest();

    // Constant jobs/scale: the manifest must not observe the worker count.
    let mut m = RunManifest::new("proptest", spec.seed, 1, "quick");
    let mut tsv = String::from("tier\tp99\n");
    for t in 0..spec.tiers {
        let _ = writeln!(
            tsv,
            "{t}\t{:.6}",
            snap.services[t].tier_latency[0]
                .percentile(99.0)
                .unwrap_or(0.0)
        );
    }
    m.note_table(&format!("cell{index}_p99"), spec.tiers, tsv.as_bytes());
    m.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Manifests are jobs-invariant and self-diff to no changed row with
    /// deterministic report renders.
    #[test]
    fn manifests_are_jobs_invariant_and_self_diff_zero(specs in cell_specs()) {
        let inputs: Vec<(usize, CellSpec)> =
            specs.iter().cloned().enumerate().collect();
        let render = |jobs: usize| -> Vec<String> {
            map_ordered(jobs, inputs.clone(), |_, (i, s)| manifest_json(i, &s))
        };
        let seq = render(1);
        let par = render(8);
        prop_assert_eq!(&seq, &par, "manifest bytes must not depend on --jobs");
        for json in &seq {
            let v = parse_json(json).expect("manifest round-trips through the parser");
            let report = diff_manifests(&v, &v);
            prop_assert!(report.is_zero(), "self-diff must mark no row");
            prop_assert_eq!(report.significant(), 0);
            for section in ["identity", "table"] {
                prop_assert!(report.rows.iter().any(|r| r.section == section), "no {} rows", section);
            }
            // The renders are pure functions of the report: two independent
            // comparisons of the same manifest produce identical bytes.
            let again = diff_manifests(&v, &v);
            prop_assert_eq!(render_tsv(&report), render_tsv(&again));
            prop_assert_eq!(render_html(&report), render_html(&again));
        }
    }
}

/// `ursa-bench diff` on two manifest texts, short of the files it writes:
/// parse both, compare them, render both reports.
fn diff_texts(a: &str, b: &str) -> Result<(String, String), String> {
    let (a, b) = (parse_manifest(a)?, parse_manifest(b)?);
    let report = diff_manifests(&a, &b);
    Ok((render_tsv(&report), render_html(&report)))
}

/// Byte spans of the number tokens outside strings.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let (mut spans, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'-' | b'0'..=b'9' if !in_str => {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                spans.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Renders `v` as JSON with every object member written twice, once with
/// a decoy value (before its own value when `decoy_first`, after it
/// otherwise), so a reader that keeps either one sees a well-formed but
/// different manifest.
fn with_duplicate_keys(v: &JsonValue, decoy_first: bool, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        JsonValue::Num(x) => out.push_str(&format!("{x:?}")),
        JsonValue::Str(x) => out.push_str(&format!("\"{}\"", esc(x))),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                with_duplicate_keys(item, decoy_first, out);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let decoy = format!("\"{}\":[1e400,\"x\",{{}}]", esc(key));
                if decoy_first {
                    out.push_str(&decoy);
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", esc(key)));
                with_duplicate_keys(value, decoy_first, out);
                if !decoy_first {
                    out.push(',');
                    out.push_str(&decoy);
                }
            }
            out.push('}');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `diff` of a damaged manifest against a good one, either way round,
    /// returns `Ok` or `Err` and never panics: the manifest cut at every
    /// byte offset, nested 129 to 200 000 levels deep, a number replaced by
    /// `NaN`, `Inf` or `1e400`, and every key written twice.
    #[test]
    fn diff_of_a_damaged_manifest_never_panics(
        spec in cell_specs(),
        depth in 129usize..200_001,
        pick in any::<u64>(),
    ) {
        let good = manifest_json(0, &spec[0]);
        let mut damaged: Vec<String> = (0..good.len())
            .filter(|&i| good.is_char_boundary(i))
            .map(|i| good[..i].to_string())
            .collect();
        damaged.push(format!("{}{good}{}", "[".repeat(depth), "]".repeat(depth)));
        let spans = number_spans(&good);
        prop_assert!(!spans.is_empty(), "the manifest has numbers");
        let (lo, hi) = spans[pick as usize % spans.len()];
        for token in ["NaN", "Inf", "-Infinity", "1e400", "-1e400", "1e-400"] {
            damaged.push(format!("{}{token}{}", &good[..lo], &good[hi..]));
        }
        // Every number at once, so `1e400` reaches every identity field and table.
        let mut huge = String::new();
        let mut at = 0;
        for &(lo, hi) in &spans {
            huge.push_str(&good[at..lo]);
            huge.push_str("1e400");
            at = hi;
        }
        huge.push_str(&good[at..]);
        damaged.push(huge);
        let parsed = parse_json(&good).expect("a manifest parses");
        for decoy_first in [true, false] {
            let mut dup = String::new();
            with_duplicate_keys(&parsed, decoy_first, &mut dup);
            damaged.push(dup);
        }
        for bad in &damaged {
            let _ = diff_texts(&good, bad);
            let _ = diff_texts(bad, &good);
        }
        prop_assert!(diff_texts(&good, &good).is_ok());
    }
}

/// `diff` takes no tolerance: `--tolerance` is an unknown argument, a
/// usage error with exit code 2, before any manifest is read.
#[test]
fn tolerance_is_an_unknown_argument() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ursa-bench"))
        .args(["diff", "a.json", "b.json", "--tolerance", "0.1"])
        .output()
        .expect("the binary starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown diff argument: --tolerance"),
        "{stderr}"
    );
}
