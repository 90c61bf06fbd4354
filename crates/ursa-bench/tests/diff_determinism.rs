//! Properties of the differential-observability layer: a run manifest is a
//! deterministic artifact (byte-identical under `--jobs 1` and `--jobs 8`
//! for the same cells), and `diff(run, run)` of any manifest against itself
//! reports zero deltas with deterministic TSV/HTML renders.

use std::fmt::Write as _;

use proptest::prelude::*;
use ursa_apps::chains::study_chain_with;
use ursa_bench::diff::{diff_manifests, render_html, render_tsv, DEFAULT_TOLERANCE};
use ursa_bench::manifest::RunManifest;
use ursa_core::decision_log::{DecisionKind, DecisionLog, DecisionRecord, ServiceDelta};
use ursa_metrics::json::parse_json;
use ursa_metrics::pool::map_ordered;
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::time::{SimDur, SimTime};
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

/// Runs one cell and records everything a real experiment would into its
/// own [`RunManifest`], returning the JSON.
fn manifest_json(index: usize, spec: &CellSpec) -> String {
    let edge = match spec.edge {
        0 => EdgeKind::NestedRpc,
        1 => EdgeKind::EventDrivenRpc,
        _ => EdgeKind::Mq,
    };
    let topo = study_chain_with(edge, spec.tiers, spec.work_us as f64 * 1e-6, 2.0);
    let digest = topo.digest();
    let mut metrics = SimMetrics::for_topology("static", &topo, &[]);
    let mut sim = Simulation::new(topo, SimConfig::default(), spec.seed);
    sim.set_rate(ClassId(0), RateFn::Constant(spec.rps));
    sim.run_for(SimDur::from_secs(spec.secs));
    let snap = sim.harvest();
    metrics.observe_snapshot(&sim, &snap);
    metrics.scrape(snap.at);

    // Constant jobs/scale: the manifest must not observe the worker count.
    let mut m = RunManifest::new("proptest", spec.seed, 1, "quick");
    m.set_topology_digest(digest);
    m.note_store(&format!("cell{index}"), metrics.store());
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
    let mut log = DecisionLog::new(16);
    log.push(DecisionRecord {
        at: SimTime::ZERO,
        kind: DecisionKind::InitialAllocation,
        deltas: vec![ServiceDelta {
            service: 0,
            replicas_before: 1,
            replicas_after: spec.tiers,
            cores_before: 1.0,
            cores_after: 2.0,
        }],
        estimated_latency: vec![spec.rps / 1000.0],
        objective: Some(spec.tiers as f64),
    });
    m.note_decisions(&format!("cell{index}"), &log);
    m.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Manifests are jobs-invariant and self-diff to zero deltas with
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
            let report = diff_manifests(&v, &v, DEFAULT_TOLERANCE);
            prop_assert!(report.is_zero(), "self-diff must report zero deltas");
            prop_assert_eq!(report.significant(), 0);
            for section in ["series", "tables"] {
                prop_assert!(report.rows.iter().any(|r| r.section == section), "no {} rows", section);
            }
            // The renders are pure functions of the report: two independent
            // alignments of the same manifest produce identical bytes.
            let again = diff_manifests(&v, &v, DEFAULT_TOLERANCE);
            prop_assert_eq!(render_tsv(&report), render_tsv(&again));
            prop_assert_eq!(render_html(&report), render_html(&again));
        }
    }
}
