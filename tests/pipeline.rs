//! Cross-crate pipeline integration tests: the full Ursa workflow on real
//! applications, plus cross-system sanity checks that the evaluation
//! depends on.

use ursa::apps::{media_service, social_network, video_pipeline};
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::optimizer::build_model;
use ursa::core::profiling::ProfilingConfig;
use ursa::mip::Solver;
use ursa::sim::prelude::*;

fn quick_cfg() -> UrsaConfig {
    UrsaConfig {
        exploration: ExplorationConfig {
            samples_per_option: 3,
            window: SimDur::from_secs(15),
            max_options: 5,
            ..Default::default()
        },
        profiling: ProfilingConfig {
            windows_per_level: 4,
            window: SimDur::from_secs(8),
            levels: 6,
        },
    }
}

fn rates(app: &ursa::apps::App) -> Vec<f64> {
    let sum: f64 = app.mix.iter().sum();
    app.mix.iter().map(|w| app.default_rps * w / sum).collect()
}

fn deploy_once(app: &ursa::apps::App, manager: &mut Ursa, seed: u64) -> DeploymentReport {
    let mut sim = app.build_sim(seed);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    manager.apply_initial_allocation(&rates(app), &mut sim);
    run_deployment(
        &mut sim,
        &app.slas,
        manager,
        &DeployConfig {
            duration: SimDur::from_mins(10),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        },
    )
}

/// The full pipeline holds SLAs on the media service.
#[test]
fn media_service_end_to_end() {
    let app = media_service();
    let mut ursa =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 11)
            .expect("media exploration feasible");
    let report = deploy_once(&app, &mut ursa, 12);
    let viol = report.overall_violation_rate();
    assert!(viol < 0.20, "media violation rate {viol}");
}

/// The full pipeline holds both priority SLAs on the video pipeline,
/// including the p50 low-priority SLA (the paper's only non-p99 SLA).
///
/// The pipeline's 4-hop p99 SLA forces every hop to the p99.9 grid point
/// (residual budget), so its exploration needs more samples per option
/// than the other quick tests for stable extreme percentiles.
#[test]
fn video_pipeline_end_to_end() {
    let app = video_pipeline(0.5);
    let cfg = UrsaConfig {
        exploration: ExplorationConfig {
            samples_per_option: 8,
            window: SimDur::from_secs(30),
            max_options: 5,
            ..Default::default()
        },
        ..quick_cfg()
    };
    let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), cfg, 13)
        .expect("video exploration feasible");
    let report = deploy_once(&app, &mut ursa, 14);
    for sla in &app.slas {
        let v = report.class_violation_rate(sla.class);
        assert!(
            v < 0.30,
            "{}: violation rate {v}",
            app.topology.classes()[sla.class.0].name
        );
    }
}

/// Offline exploration is deterministic: same seed, same thresholds and
/// sample counts.
#[test]
fn exploration_deterministic() {
    let app = social_network(true);
    let a =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 99).unwrap();
    let b =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 99).unwrap();
    assert_eq!(
        a.offline_stats().exploration_samples,
        b.offline_stats().exploration_samples
    );
    assert_eq!(
        a.outcome().solution.objective,
        b.outcome().solution.objective
    );
    assert_eq!(
        a.outcome().solution.lpr_choice,
        b.outcome().solution.lpr_choice
    );
    let ta: Vec<Vec<f64>> = a
        .outcome()
        .thresholds
        .iter()
        .map(|t| t.lpr.clone())
        .collect();
    let tb: Vec<Vec<f64>> = b
        .outcome()
        .thresholds
        .iter()
        .map(|t| t.lpr.clone())
        .collect();
    assert_eq!(ta, tb);
}

/// Doubling the SLA tightness can only cost more cores.
#[test]
fn tighter_slas_cost_more() {
    let app = social_network(true);
    let loose = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 21)
        .unwrap()
        .outcome()
        .solution
        .objective;
    let tight_slas: Vec<Sla> = app
        .slas
        .iter()
        .map(|s| Sla::new(s.class, s.percentile, s.target * 0.35))
        .collect();
    // Infeasible under 0.35x targets is also an acceptable outcome.
    if let Ok(t) =
        Ursa::explore_and_prepare(&app.topology, &tight_slas, &rates(&app), quick_cfg(), 21)
    {
        let tight = t.outcome().solution.objective;
        assert!(tight >= loose, "tight {tight} < loose {loose}");
    }
}

/// Ursa's anomaly path: under a strongly skewed mix the manager
/// recalculates thresholds online.
#[test]
fn skewed_load_triggers_recalculation() {
    let app = social_network(true);
    let mut ursa =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 31).unwrap();
    let mut sim = app.build_sim(32);
    // Heavy skew: update classes at 3x their exploration share.
    let mix = app.skewed_mix(3.0);
    app.apply_load_with_mix(&mut sim, RateFn::Constant(app.default_rps), &mix);
    ursa.apply_initial_allocation(&rates(&app), &mut sim);
    let _ = run_deployment(
        &mut sim,
        &app.slas,
        &mut ursa,
        &DeployConfig {
            duration: SimDur::from_mins(10),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(1),
        },
    );
    assert!(
        ursa.recalcs() > 0,
        "skewed mix should trigger a recalculation"
    );
}

/// Span tracing during a managed run: trace spans reconstruct per-service
/// latency consistent with telemetry.
#[test]
fn spans_consistent_with_telemetry() {
    let app = social_network(true);
    let mut sim = app.build_sim(43);
    sim.enable_tracing(200_000, 1.0);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    sim.run_for(SimDur::from_mins(2));
    let snap = sim.harvest();
    let traces = sim.take_traces();
    assert!(!traces.is_empty());
    // Mean tier latency from trace spans vs telemetry for the busiest
    // service.
    let ps = app.service("post-store").unwrap();
    let upload = app.class("upload-post").unwrap();
    let span_mean = {
        let xs: Vec<f64> = traces
            .iter()
            .filter(|t| t.class == upload)
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.service == ps)
            .map(|s| s.tier_latency().as_secs_f64())
            .collect();
        assert!(!xs.is_empty());
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let tel_mean = snap.services[ps.0].tier_latency[upload.0].mean().unwrap();
    let rel = (span_mean - tel_mean).abs() / tel_mean;
    // Telemetry windows retain the most recent samples only and traces are
    // assembled per completed request, so allow some divergence.
    assert!(rel < 0.25, "span mean {span_mean} vs telemetry {tel_mean}");
}

/// The §V anomaly loop end-to-end: a mid-run business-logic change that
/// makes a service heavier produces persistent SLA violations, the anomaly
/// detector asks for re-exploration of a service on the violating path, and
/// answering with `re_explore` restores compliance.
#[test]
fn latency_anomaly_requests_reexploration() {
    let app = social_network(true);
    let mut ursa =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), quick_cfg(), 51).unwrap();
    let mut sim = app.build_sim(52);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    ursa.apply_initial_allocation(&rates(&app), &mut sim);

    // Healthy phase.
    for _ in 0..4 {
        sim.run_for(SimDur::from_mins(1));
        let snap = sim.harvest();
        ursa.on_tick(&snap, &mut sim);
    }
    assert!(ursa.pending_reexploration().is_none());

    // The timeline-update logic gets 2x heavier (a bad deploy): its old
    // allocation saturates and its p99 breaches the 500 ms SLA, while the
    // SLA stays attainable at the new cost under a fresh allocation.
    let tu = app.service("timeline-update").unwrap();
    sim.set_work_scale(tu, 2.0);
    let mut raised = None;
    for _ in 0..12 {
        sim.run_for(SimDur::from_mins(1));
        let snap = sim.harvest();
        ursa.on_tick(&snap, &mut sim);
        if let Some(svc) = ursa.pending_reexploration() {
            raised = Some(svc);
            break;
        }
    }
    let svc = raised.expect("persistent violations must raise a re-exploration request");
    // The implicated service lies on some violating class's path.
    let classes = app
        .topology
        .classes_on_service(ursa::sim::topology::ServiceId(svc));
    assert!(!classes.is_empty());

    // Answer the request: re-explore the changed service at its new cost.
    let stats = ursa
        .re_explore(tu.0, 2.0, &rates(&app))
        .expect("re-exploration feasible");
    assert!(stats.samples > 0);
    assert!(ursa.pending_reexploration().is_none());

    // Compliance restored (within the detector's tolerance band) once the
    // refreshed thresholds settle.
    let class = app.class("update-timeline").unwrap();
    let target = app.sla_of(class).unwrap().target;
    let mut violating_windows = 0;
    let mut counted = 0;
    for i in 0..8 {
        sim.run_for(SimDur::from_mins(1));
        let snap = sim.harvest();
        ursa.on_tick(&snap, &mut sim);
        if i >= 3 {
            if let Some(l) = snap.e2e_latency[class.0].percentile(99.0) {
                counted += 1;
                if l > target * 1.1 {
                    violating_windows += 1;
                }
            }
        }
    }
    assert!(counted > 0);
    assert!(
        violating_windows <= counted / 2,
        "still violating after re-exploration: {violating_windows}/{counted}"
    );
}

/// Ursa's model of the social network, prepared as the harness prepares it
/// for Figs. 11–12 (`ursa_bench::Scale::Quick`'s exploration and profiling,
/// seed `0x11_12`), leaves no class to the DP: every recalculation looks
/// its class verdicts up. An exploration change that grows a class past
/// the solver's table bound moves no digest, since the DP gives the same
/// answers; it fails here. `ursa-bench`'s unit tests check all four
/// applications through `prepare_ursa` itself.
#[test]
fn social_model_is_fully_tabulated() {
    let app = social_network(false);
    let cfg = UrsaConfig {
        exploration: ExplorationConfig {
            samples_per_option: 4,
            window: SimDur::from_secs(20),
            max_options: 6,
            ..Default::default()
        },
        profiling: ProfilingConfig {
            windows_per_level: 4,
            window: SimDur::from_secs(10),
            levels: 8,
        },
    };
    let grid = cfg.exploration.percentile_grid.clone();
    let ursa =
        Ursa::explore_and_prepare(&app.topology, &app.slas, &rates(&app), cfg, 0x11_12).unwrap();
    let model = build_model(
        ursa.exploration(),
        &ursa.outcome().slas,
        &rates(&app),
        &grid,
    );
    let solver = Solver::new(&model).expect("prepared once already");
    assert_eq!(solver.untabulated_classes(), 0);
}
