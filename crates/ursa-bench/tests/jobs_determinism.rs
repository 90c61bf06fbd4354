//! Property: the parallel cell runner is jobs-invariant. `--jobs 1` and
//! `--jobs 8` must produce byte-identical experiment output — the TSV-style
//! renders and metrics-snapshot digests that every artifact is built from —
//! across random topologies and loads, and across the real fig11/12 cell
//! path.

use std::fmt::Write as _;

use proptest::prelude::*;
use ursa_apps::chains::study_chain_with;
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
            2usize..5,
            500u64..4000,
            (20.0f64..200.0, 0u64..1_000_000),
            5u64..15,
        )
            .prop_map(|(edge, tiers, work_us, (rps, seed), secs)| CellSpec {
                edge,
                tiers,
                work_us,
                rps,
                seed,
                secs,
            }),
        2..9,
    )
}

/// Runs one cell and renders everything the experiments derive artifacts
/// from: event count, injection/completion counters, per-tier and
/// end-to-end latency percentiles.
fn digest(spec: &CellSpec) -> String {
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
    let mut out = String::new();
    let _ = writeln!(out, "events\t{}", sim.events_processed());
    let _ = writeln!(
        out,
        "inj\t{:?}\tcomp\t{:?}",
        snap.injections, snap.completions
    );
    for t in 0..spec.tiers {
        let _ = writeln!(
            out,
            "tier{t}\t{:?}",
            snap.services[t].tier_latency[0].percentile(99.0)
        );
    }
    let _ = writeln!(out, "e2e\t{:?}", snap.e2e_latency[0].percentile(99.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jobs1_and_jobs8_produce_identical_output(specs in cell_specs()) {
        let seq = map_ordered(1, specs.clone(), |_, s| digest(&s));
        let par = map_ordered(8, specs.clone(), |_, s| digest(&s));
        prop_assert_eq!(seq, par);
    }
}

/// The real fig11/12 cell path is jobs-invariant: a slice of the grid on
/// the vanilla social network (two load families × all five systems, for
/// suite-runtime reasons) renders to the same TSV rows under 1 and 8
/// workers.
#[test]
fn fig11_12_grid_jobs_invariant() {
    use ursa_bench::experiments::fig11_12::cell_inputs;
    use ursa_bench::{PreparedManagers, Scale, System};
    let app = ursa_apps::social_network(true);
    let managers = PreparedManagers::prepare(&app, Scale::Quick, 0xCAFE);
    let inputs: Vec<_> = cell_inputs(&app)
        .into_iter()
        .filter(|(li, _, _)| *li == 0 || *li == 3)
        .collect();
    let grid = |jobs: usize| -> Vec<String> {
        map_ordered(jobs, inputs.clone(), |_, (li, load, si)| {
            let report = managers.deploy_cell(
                &app,
                System::ALL[si],
                &load,
                Scale::Quick,
                0xDE_9107 ^ ((li as u64) << 8) ^ si as u64,
                None,
            );
            format!(
                "{}\t{}\t{:.4}\t{:.1}",
                load.label(),
                System::ALL[si].label(),
                report.overall_violation_rate(),
                report.avg_cpu_allocation()
            )
        })
    };
    assert_eq!(grid(1), grid(8));
}
