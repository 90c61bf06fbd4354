//! Post-mortem bundles are deterministic artifacts: the same seed must
//! produce byte-identical JSON and HTML regardless of `--jobs`, and the
//! anomaly trigger must actually fire on the chaos grid's guaranteed
//! slowdown cell.

use std::fs;
use std::path::{Path, PathBuf};

use ursa_apps::{social_network, App};
use ursa_baselines::Autoscaler;
use ursa_bench::experiments::chaos::fault_plans;
use ursa_bench::postmortem::PostmortemObserver;
use ursa_bench::{default_rates, prepare_ursa, Scale};
use ursa_metrics::pool::map_ordered;
use ursa_sim::control::{run_deployment_observed, DeployConfig};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::recorder::FlightRecorder;
use ursa_sim::time::SimDur;
use ursa_sim::topology::Fnv;
use ursa_sim::workload::RateFn;

/// Seed base of the chaos grid (`fi = 0`, `si = 0` is the slowdown/Ursa
/// cell whose anomaly re-exploration is the acceptance criterion).
const CHAOS_SEED: u64 = 0xC4A0_5C11;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Reads a bundle pair (JSON + linked HTML) back as named byte blobs.
fn bundle_bytes(json_path: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for path in [json_path.to_path_buf(), json_path.with_extension("html")] {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, fs::read(&path).expect("bundle file readable")));
    }
    out
}

/// One cheap observed deployment (static autoscaler, no training) with an
/// explicit `--snapshot-at` trigger; returns every bundle it wrote.
fn snapshot_cell(app: &App, dir: &Path, seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut sim = app.build_sim(seed);
    sim.arm_flight_recorder(FlightRecorder::DEFAULT_CAPACITY);
    sim.enable_tracing(256, 0.05);
    sim.enable_profiler(ursa_sim::profiler::PhaseProfiler::DEFAULT_SAMPLE_EVERY);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    let mut auto = Autoscaler::auto_a(app.topology.num_services());
    let mut metrics = SimMetrics::for_topology("auto_a", &app.topology, &app.slas);
    let mut obs = PostmortemObserver::new(dir, "snap", Some(240.0));
    let cfg = DeployConfig {
        duration: SimDur::from_mins(6),
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
    };
    run_deployment_observed(
        &mut sim,
        &app.slas,
        &mut auto,
        &cfg,
        Some(&mut metrics),
        Some(&mut obs),
    );
    let written = obs.written().to_vec();
    assert!(!written.is_empty(), "snapshot-at must produce a bundle");
    written.iter().flat_map(|p| bundle_bytes(p)).collect()
}

/// `--snapshot-at` bundles are jobs-invariant: the cells rendered under 1
/// worker and under 8 are byte-identical, and re-running reproduces them.
#[test]
fn snapshot_bundles_are_jobs_invariant() {
    let app = social_network(true);
    let seeds = [11u64, 23, 37];
    let render = |jobs: usize, tag: &str| {
        let inputs: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        map_ordered(jobs, inputs, |_, (i, seed)| {
            let dir = scratch(&format!("pm-{tag}-{jobs}-{i}"));
            snapshot_cell(&app, &dir, seed)
        })
    };
    let serial = render(1, "a");
    let parallel = render(8, "b");
    assert_eq!(serial, parallel, "bundles must not depend on --jobs");
    let again = render(1, "c");
    assert_eq!(
        serial, again,
        "bundles must be reproducible at a fixed seed"
    );
    // Sanity: the bundle records its trigger and schema.
    // Every bundle's JSON bytes are pinned; only its HTML view belongs to
    // the page template and may change with it.
    let json_digests: Vec<(String, String)> = serial
        .iter()
        .flatten()
        .filter(|(name, _)| name.ends_with(".json"))
        .map(|(name, bytes)| (name.clone(), format!("{:016x}", Fnv::digest(bytes))))
        .collect();
    let pinned = [
        ("snap-t60.json", "6bfa8e6b38c2c11c"),
        ("snap-t240.json", "08cc2f768d417bea"),
        ("snap-t60.json", "63ec979c978c8ba9"),
        ("snap-t240.json", "77ba6b13e1086519"),
        ("snap-t60.json", "bab076ec1f0960d6"),
        ("snap-t240.json", "6839f10abcecbf0c"),
    ];
    assert_eq!(
        json_digests,
        pinned.map(|(name, d)| (name.to_string(), d.to_string())),
        "bundle JSON bytes moved"
    );
    let json = String::from_utf8(serial[0][0].1.clone()).unwrap();
    assert!(json.contains("\"schema\":\"ursa-postmortem/v3\""), "{json}");
    let all: String = serial[0]
        .iter()
        .filter(|(name, _)| name.ends_with(".json"))
        .map(|(_, bytes)| String::from_utf8(bytes.clone()).unwrap())
        .collect();
    assert!(all.contains("snapshot-at"), "{all}");
    // The armed profiler's sample counts land in the bundle.
    assert!(
        all.contains("\"phase_profile\":{\"sample_every\":"),
        "{all}"
    );
}

/// The acceptance-criterion path: the chaos grid's slowdown cell, run
/// observed, fires the anomaly-re-exploration trigger and dumps a
/// deterministic bundle correlating the decision-log tail.
#[test]
fn slowdown_cell_dumps_anomaly_bundle() {
    let app = social_network(false);
    let plans = fault_plans(&app, Scale::Quick);
    let (label, plan) = &plans[0];
    assert_eq!(label, "slowdown");
    let run_once = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut ursa = prepare_ursa(&app, Scale::Quick, CHAOS_SEED);
        let mut sim = app.build_sim(CHAOS_SEED);
        sim.install_faults(plan, CHAOS_SEED);
        sim.arm_flight_recorder(FlightRecorder::DEFAULT_CAPACITY);
        sim.enable_tracing(512, 0.02);
        sim.enable_profiler(ursa_sim::profiler::PhaseProfiler::DEFAULT_SAMPLE_EVERY);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        ursa.apply_initial_allocation(&default_rates(&app), &mut sim);
        let mut metrics = SimMetrics::for_topology("ursa", &app.topology, &app.slas);
        let mut obs = PostmortemObserver::new(dir, "chaos-slowdown-ursa", None);
        let cfg = DeployConfig {
            duration: Scale::Quick.deploy_duration(),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        };
        run_deployment_observed(
            &mut sim,
            &app.slas,
            &mut ursa,
            &cfg,
            Some(&mut metrics),
            Some(&mut obs),
        );
        let written = obs.written().to_vec();
        assert!(!written.is_empty(), "slowdown must trigger a bundle");
        written.iter().flat_map(|p| bundle_bytes(p)).collect()
    };
    let first = run_once(&scratch("pm-anomaly-1"));
    // The per-kind bundle budget guarantees the anomaly fires its own
    // bundle even when SLO burn alerts page on earlier windows.
    let json = first
        .iter()
        .filter(|(name, _)| name.ends_with(".json"))
        .map(|(_, bytes)| String::from_utf8(bytes.clone()).unwrap())
        .find(|j| j.contains("anomaly-reexplore"))
        .expect("an anomaly-reexplore bundle must be dumped");
    // The bundle correlates the planes: faults, decisions, events, spans.
    for section in [
        "\"active_faults\"",
        "\"decisions\"",
        "\"flight_recorder\"",
        "\"phase_profile\"",
        "\"spans\"",
        "\"metrics_window\"",
    ] {
        assert!(json.contains(section), "bundle misses {section}");
    }
    let second = run_once(&scratch("pm-anomaly-2"));
    assert_eq!(first, second, "anomaly bundles must be seed-deterministic");
}
