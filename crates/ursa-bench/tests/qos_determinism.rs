//! QoS determinism: with the memory plane active — OOM-kills, pressure
//! eviction, and noisy-neighbor throttling all firing — the qos grid must
//! stay (a) jobs-invariant — `--jobs 1` and `--jobs 8` render
//! byte-identical rows — and (b) seed-stable — re-running with the same
//! seed reproduces the rows exactly.

use ursa_apps::{social_network, App};
use ursa_bench::experiments::qos::mem_stats;
use ursa_bench::runner::run_cells_with;
use ursa_bench::{f3, DeploySpec, LoadSpec, PreparedManagers, Scale, System};
use ursa_k8s::{EvictionPolicy, K8sPlane, PodTemplate, GIB, MIB};
use ursa_sim::memory::MemPlan;
use ursa_sim::metrics::SimMetrics;

const SEED: u64 = 0xA110_57E5;

/// One pressure level: node memory plus the post-store leak rate. The
/// templates (and hence the annotated topology) are identical across
/// levels, so one prepared-manager set serves the whole reduced grid.
fn plane(node_mem: u64, leak_bytes_per_sec: f64) -> K8sPlane {
    let mut post_store =
        PodTemplate::burstable(1.0, 4.0, 192 * MIB, 320 * MIB).with_memory(192 * MIB, 2 * MIB);
    if leak_bytes_per_sec > 0.0 {
        post_store = post_store.with_leak(leak_bytes_per_sec);
    }
    K8sPlane::new()
        .pool(3, 16.0, node_mem)
        .policy(EvictionPolicy {
            pressure_threshold: 0.92,
            interference_threshold: 0.80,
            interference_factor: 1.35,
            ..EvictionPolicy::default()
        })
        .pod(
            "frontend",
            PodTemplate::guaranteed(2.0, 512 * MIB).with_memory(160 * MIB, MIB),
        )
        .pod("post-store", post_store)
        .pod(
            "timeline-read",
            PodTemplate::best_effort().with_memory(128 * MIB, MIB),
        )
        .pod(
            "social-graph",
            PodTemplate::best_effort().with_memory(96 * MIB, MIB),
        )
}

/// The vanilla social network with the level-invariant resource specs
/// attached.
fn annotated_app() -> App {
    let mut app = social_network(true);
    app.topology = plane(2 * GIB, 0.0).annotate(app.topology).unwrap();
    app
}

/// The two pressure levels: comfortable, and overcommitted with a leak
/// fast enough to cross the 320 MiB post-store limit in ~85 s.
fn plans(app: &App) -> Vec<MemPlan> {
    [(2 * GIB, 0.0), (GIB, 1.5 * MIB as f64)]
        .into_iter()
        .map(|(mem, leak)| plane(mem, leak).mem_plan(&app.topology).unwrap())
        .collect()
}

fn render_rows(jobs: usize, managers: &PreparedManagers) -> Vec<String> {
    let app = annotated_app();
    let plans = plans(&app);
    let systems = [System::Ursa, System::AutoA];
    let inputs: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|li| (0..systems.len()).map(move |si| (li, si)))
        .collect();
    run_cells_with(jobs, inputs, |_, (li, si)| {
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
