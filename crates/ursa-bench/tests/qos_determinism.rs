//! QoS determinism: with the memory plane active — OOM-kills, pressure
//! eviction, and noisy-neighbor throttling all firing — the qos grid must
//! stay (a) jobs-invariant — `--jobs 1` and `--jobs 8` render
//! byte-identical rows — and (b) seed-stable — re-running with the same
//! seed reproduces the rows exactly.

use ursa_apps::{social_network, App};
use ursa_bench::experiments::qos::{annotated, mem_plan, mem_stats, ServicePlan};
use ursa_bench::{f3, DeploySpec, LoadSpec, PreparedManagers, Scale, System};
use ursa_metrics::pool::map_ordered;
use ursa_sim::memory::{MemPlan, MemProfile};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::topology::ResourceSpec;

const SEED: u64 = 0xA110_57E5;
const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// `(service, requests/limits, memory demand)`. The specs (and hence the
/// annotated topology) are identical across levels, so one
/// prepared-manager set serves the whole reduced grid.
const SERVICES: [ServicePlan; 4] = [
    (
        "frontend",
        Some(ResourceSpec::guaranteed(2.0, 512 * MIB)),
        mem(160, 1),
    ),
    (
        "post-store",
        Some(ResourceSpec::burstable(1.0, 4.0, 192 * MIB, 320 * MIB)),
        mem(192, 2),
    ),
    ("timeline-read", None, mem(128, 1)),
    ("social-graph", None, mem(96, 1)),
];

/// A demand profile: `baseline` MiB plus `per_request` MiB per request in
/// flight.
const fn mem(baseline: u64, per_request: u64) -> Option<MemProfile> {
    Some(MemProfile::new(baseline * MIB, per_request * MIB))
}

/// The vanilla social network with the level-invariant resource specs
/// attached.
fn annotated_app() -> App {
    annotated(social_network(true), &SERVICES)
}

/// The two pressure levels over three nodes: comfortable, and
/// overcommitted with a post-store leak fast enough to cross its 320 MiB
/// limit in ~85 s.
fn plans(app: &App) -> Vec<MemPlan> {
    [(2 * GIB, 0.0), (GIB, 1.5 * MIB as f64)]
        .into_iter()
        .map(|(node_mem, leak)| mem_plan(app, &SERVICES, ("post-store", leak), vec![node_mem; 3]))
        .collect()
}

fn render_rows(jobs: usize, managers: &PreparedManagers) -> Vec<String> {
    let app = annotated_app();
    let plans = plans(&app);
    let systems = [System::Ursa, System::AutoA];
    let inputs: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|li| (0..systems.len()).map(move |si| (li, si)))
        .collect();
    map_ordered(jobs, inputs, |_, (li, si)| {
        let seed = SEED ^ ((li as u64) << 8) ^ si as u64;
        let mut metrics = SimMetrics::for_topology(systems[si].label(), &app.topology, &app.slas);
        let report = managers.clone().deploy(DeploySpec {
            mem: Some(&plans[li]),
            metrics: Some(&mut metrics),
            ..DeploySpec::new(&app, systems[si], &LoadSpec::Constant, Scale::Quick, seed)
        });
        let cores: f64 = report.records.iter().map(|r| r.total_cores).sum();
        let m = mem_stats(&metrics);
        format!(
            "{li}/{si}\tcores={}\toom={}\tevict={}/{}/{}\tutil={}\tthrottle={}",
            f3(cores),
            m.oom_kills,
            m.evictions[0],
            m.evictions[1],
            m.evictions[2],
            f3(m.max_node_util),
            f3(m.throttle_secs),
        )
    })
}

/// The annotated topology and the two plans, pinned bit for bit.
#[test]
fn plans_and_topology_are_pinned() {
    let app = annotated_app();
    assert_eq!(
        format!("{:016x}", app.topology.digest()),
        "72fe33f7ca113b58"
    );
    let digests: Vec<String> = plans(&app)
        .iter()
        .map(|p| format!("{:016x}", p.digest()))
        .collect();
    assert_eq!(digests, ["c5c46bdc9210da28", "48a564166aec013b"]);
}

#[test]
fn qos_grid_is_jobs_invariant_and_seed_stable() {
    let app = annotated_app();
    let managers = PreparedManagers::prepare(&app, Scale::Quick, SEED);
    let serial = render_rows(1, &managers);
    let parallel = render_rows(8, &managers);
    assert_eq!(serial, parallel, "rows must not depend on --jobs");
    let again = render_rows(1, &managers);
    assert_eq!(serial, again, "rows must be reproducible at a fixed seed");
    // The plane actually bit: the overcommit level OOM-killed somewhere.
    assert!(
        serial.iter().any(|row| !row.contains("\toom=0\t")),
        "no cell registered any memory incident: {serial:?}"
    );
    // And the kubelet order held everywhere: a Guaranteed eviction
    // without BestEffort evictions would be out of order.
    for row in &serial {
        let evict = row.split("evict=").nth(1).unwrap();
        let parts: Vec<u64> = evict
            .split('\t')
            .next()
            .unwrap()
            .split('/')
            .map(|x| x.parse().unwrap())
            .collect();
        assert!(
            parts[2] == 0 || parts[0] > 0,
            "Guaranteed evicted before BestEffort: {row}"
        );
    }
}
