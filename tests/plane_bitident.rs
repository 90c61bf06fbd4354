//! Property test: every optional plane is zero-cost when it cannot act,
//! alone and in any combination.
//!
//! The observability planes (phase profiler, span tracer) observe the
//! engine and must never perturb it, and neither may the metrics plane, a
//! [`SimMetrics`] scraping every harvested snapshot as the deployment
//! driver does. For random chain topologies, replica counts and loads,
//! each of the 8 on/off subsets of those three planes must digest exactly
//! as the plain simulator does: same event count and byte-identical telemetry. This is the
//! contract that lets `--artifacts-dir` arm the tracer and the dashboards'
//! metrics on experiment cells without changing a single published row.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ursa::sim::prelude::*;

const PROFILER: u32 = 1;
const TRACER: u32 = 1 << 1;
const METRICS: u32 = 1 << 2;

#[derive(Debug, Clone)]
struct ChainSpec {
    services: usize,
    replicas: usize,
    cores: f64,
    work_ms: f64,
    rps: f64,
    seed: u64,
}

fn chain_spec() -> impl Strategy<Value = ChainSpec> {
    (
        1usize..5,
        1usize..5,
        (0usize..3).prop_map(|i| [1.0, 2.0, 4.0][i]),
        0.5f64..5.0,
        5.0f64..80.0,
        any::<u64>(),
    )
        .prop_map(
            |(services, replicas, cores, work_ms, rps, seed)| ChainSpec {
                services,
                replicas,
                cores,
                work_ms,
                rps,
                seed,
            },
        )
}

/// Builds an N-deep RPC chain, drives it with Poisson arrivals, and
/// installs the planes `mask` selects. The profiler's period has two
/// variants, keyed to the tracer's bit so that each runs in half of the
/// subsets the profiler is on in (2 of the 8): a period of 1 with the
/// tracer on, 256 without.
fn build(spec: &ChainSpec, mask: u32) -> Simulation {
    let svcs: Vec<ServiceCfg> = (0..spec.services)
        .map(|i| ServiceCfg::new(format!("s{i}"), spec.cores).with_replicas(spec.replicas))
        .collect();
    let work = || WorkDist::Exponential {
        mean: spec.work_ms / 1000.0,
    };
    let mut root = CallNode::leaf(ServiceId(spec.services - 1), work());
    for i in (0..spec.services - 1).rev() {
        root = CallNode::leaf(ServiceId(i), work()).with_child(EdgeKind::NestedRpc, root);
    }
    let class = ClassCfg {
        name: "chain".into(),
        priority: Priority::HIGH,
        root,
    };
    let topo = Topology::new(svcs, vec![class]).unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), spec.seed);
    sim.set_rate(ClassId(0), RateFn::Constant(spec.rps));
    let on = |plane| mask & plane != 0;
    if on(PROFILER) {
        let every = if on(TRACER) {
            1
        } else {
            PhaseProfiler::DEFAULT_SAMPLE_EVERY
        };
        sim.enable_profiler(every);
    }
    if on(TRACER) {
        sim.enable_tracing(256, 0.05);
    }
    sim
}

/// Runs three windows and returns a byte-exact digest of everything the
/// engine simulates: the debug rendering of every snapshot and the event
/// count. With the [`METRICS`] bit in `mask`, a collector with the chain's
/// SLA observes and scrapes every snapshot once it is rendered (its first
/// percentile query fills the snapshot's sort cache, which the rendering
/// would show; what must not move is every later window).
fn digest(mut sim: Simulation, mask: u32) -> Result<String, TestCaseError> {
    let sla = Sla::new(ClassId(0), 99.0, 0.05);
    let mut metrics =
        (mask & METRICS != 0).then(|| SimMetrics::for_topology("plane", sim.topology(), &[sla]));
    let mut out = String::new();
    for _ in 0..3 {
        sim.run_for(SimDur::from_secs(40));
        let snap = sim.harvest();
        out.push_str(&format!("{snap:?}\n"));
        if let Some(metrics) = &mut metrics {
            metrics.observe_snapshot(&sim, &snap);
            metrics.scrape(snap.at);
        }
    }
    if let Some(metrics) = &metrics {
        prop_assert_eq!(metrics.store().len(), 3, "the collector missed a harvest");
    }
    out.push_str(&format!("events={}", sim.events_processed()));
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_plane_subset_is_bit_identical(spec in chain_spec()) {
        let base = digest(build(&spec, 0), 0)?;
        for mask in 1..8 {
            let planes = digest(build(&spec, mask), mask)?;
            prop_assert_eq!(&planes, &base, "planes {:04b} perturbed the run", mask);
        }
    }
}
