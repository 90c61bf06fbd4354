//! The §V anomaly path through the deployment driver: a service degraded
//! mid-deployment drives its classes past their SLAs for long enough that
//! Ursa's latency-anomaly detector fires, and the re-exploration request
//! lands in the decision log.
//!
//! The degradation comes from outside the manager: between two
//! `run_deployment` calls the service's per-replica CPU limit is cut to a
//! sixth, as a noisy neighbour or a throttled node would. Ursa scales
//! replicas, never limits, so the cut holds for the rest of the run.

use ursa_apps::social_network;
use ursa_core::decision_log::DecisionKind;
use ursa_core::exploration::ExplorationConfig;
use ursa_core::manager::{Ursa, UrsaConfig};
use ursa_core::profiling::ProfilingConfig;
use ursa_sim::control::{run_deployment, DeployConfig};
use ursa_sim::time::SimDur;
use ursa_sim::workload::RateFn;

#[test]
fn slowdown_triggers_anomaly_reexploration() {
    const SEED: u64 = 0xC4A0_5C11;
    let app = social_network(false);
    let sum: f64 = app.mix.iter().sum();
    let rates: Vec<f64> = app.mix.iter().map(|w| app.default_rps * w / sum).collect();
    // The harness's quick-scale offline phase.
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
    let mut ursa = Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, SEED)
        .expect("the social network prepares");
    let mut sim = app.build_sim(SEED);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    ursa.apply_initial_allocation(&rates, &mut sim);
    let deploy = |minutes, warmup| DeployConfig {
        duration: SimDur::from_mins(minutes),
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(warmup),
    };
    // The service each anomaly-reexplore record implicates.
    let implicated = |ursa: &Ursa| -> Vec<usize> {
        ursa.decisions()
            .records()
            .filter_map(|r| match r.kind {
                DecisionKind::AnomalyReExplore { service, .. } => Some(service),
                _ => None,
            })
            .collect()
    };

    // Healthy: five windows raise nothing.
    run_deployment(&mut sim, &app.slas, &mut ursa, &deploy(5, 2));
    assert_eq!(implicated(&ursa), [], "a healthy deployment re-explores");
    assert_eq!(ursa.pending_reexploration(), None);

    // Cut social-graph, which upload-post and read-timeline call, to a
    // sixth of its cores; the detector's patience is three windows.
    let svc = app.service("social-graph").expect("social-graph");
    let cores = sim.cpu_limit(svc);
    sim.set_cpu_limit(svc, cores / 6.0);
    run_deployment(&mut sim, &app.slas, &mut ursa, &deploy(6, 0));
    let logged = implicated(&ursa);
    assert!(
        !logged.is_empty(),
        "a persistent slowdown must log an anomaly-reexplore decision"
    );
    assert!(logged.iter().all(|&s| s == svc.0), "implicated {logged:?}");
    assert_eq!(ursa.pending_reexploration(), Some(svc.0));
}
