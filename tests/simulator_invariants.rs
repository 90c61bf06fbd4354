//! Property-based invariants of the discrete-event simulator.
//!
//! Random small topologies (random edge kinds, fan-outs, priorities, work
//! scales) are driven with random loads and control actions; the simulator
//! must conserve requests, keep utilization in range, and stay
//! deterministic.

use proptest::prelude::*;
use ursa::apps::{scale_app, social_network};
use ursa::sim::prelude::*;

/// Strategy for a random 1–4-tier chain topology with random edge kinds
/// and 1–2 classes.
#[derive(Debug, Clone)]
struct RandomTopo {
    tiers: usize,
    edges: Vec<u8>,
    classes: usize,
    work_ms: Vec<f64>,
    cores: f64,
}

fn random_topo() -> impl Strategy<Value = RandomTopo> {
    (
        1usize..5,
        proptest::collection::vec(0u8..3, 4),
        1usize..3,
        proptest::collection::vec(0.5f64..8.0, 4),
        1.0f64..6.0,
    )
        .prop_map(|(tiers, edges, classes, work_ms, cores)| RandomTopo {
            tiers,
            edges,
            classes,
            work_ms,
            cores,
        })
}

fn build(rt: &RandomTopo) -> Topology {
    let services: Vec<ServiceCfg> = (0..rt.tiers)
        .map(|i| ServiceCfg::new(format!("t{i}"), rt.cores).with_workers(64))
        .collect();
    let edge_of = |i: usize| match rt.edges[i % rt.edges.len()] {
        0 => EdgeKind::NestedRpc,
        1 => EdgeKind::EventDrivenRpc,
        _ => EdgeKind::Mq,
    };
    fn chain(rt: &RandomTopo, i: usize, edge_of: &dyn Fn(usize) -> EdgeKind) -> CallNode {
        let work = WorkDist::Exponential {
            mean: rt.work_ms[i % rt.work_ms.len()] / 1000.0,
        };
        let node = CallNode::leaf(ServiceId(i), work);
        if i + 1 < rt.tiers {
            node.with_child(edge_of(i), chain(rt, i + 1, edge_of))
        } else {
            node
        }
    }
    let classes = (0..rt.classes)
        .map(|c| ClassCfg {
            name: format!("c{c}"),
            priority: Priority(c as u8),
            root: chain(rt, 0, &edge_of),
        })
        .collect();
    Topology::new(services, classes).expect("generated topology is valid")
}

/// Strategy for 1–2 classes whose call trees are chains over services
/// drawn *with repetition*, so a request may re-enter a service it is
/// still blocked in (a→b→a). Lightly loaded on purpose: re-entrant nested
/// RPCs on a saturated worker pool deadlock for real.
#[derive(Debug, Clone)]
struct ReentrantTopo {
    services: usize,
    /// Per class: hop service ids (preorder), edge kind id, sequential?
    classes: Vec<(Vec<usize>, u8, bool)>,
    work_ms: f64,
    rps: f64,
}

fn reentrant_topo() -> impl Strategy<Value = ReentrantTopo> {
    (2usize..6, 0.3f64..2.0, 10.0f64..60.0).prop_flat_map(|(services, work_ms, rps)| {
        let class = (
            proptest::collection::vec(0..services, 1..6),
            0u8..3,
            any::<bool>(),
        );
        proptest::collection::vec(class, 1..3).prop_map(move |classes| ReentrantTopo {
            services,
            classes,
            work_ms,
            rps,
        })
    })
}

fn build_reentrant(rt: &ReentrantTopo) -> Topology {
    let services: Vec<ServiceCfg> = (0..rt.services)
        .map(|i| ServiceCfg::new(format!("s{i}"), 2.0))
        .collect();
    let work = WorkDist::Exponential {
        mean: rt.work_ms / 1000.0,
    };
    let classes = rt
        .classes
        .iter()
        .enumerate()
        .map(|(i, (hops, edge, sequential))| {
            let edge = match edge {
                0 => EdgeKind::NestedRpc,
                1 => EdgeKind::EventDrivenRpc,
                _ => EdgeKind::Mq,
            };
            let mode = if *sequential {
                CallMode::Sequential
            } else {
                CallMode::Parallel
            };
            let mut node = CallNode::leaf(ServiceId(hops[hops.len() - 1]), work.clone());
            for &svc in hops[..hops.len() - 1].iter().rev() {
                node = CallNode::leaf(ServiceId(svc), work.clone())
                    .with_mode(mode)
                    .with_child(edge, node);
            }
            ClassCfg {
                name: format!("c{i}"),
                priority: Priority::HIGH,
                root: node,
            }
        })
        .collect();
    Topology::new(services, classes).expect("generated topology is valid")
}

/// How many hops of the call tree under `node` execute on `service`.
fn multiplicity(node: &CallNode, service: ServiceId) -> u64 {
    u64::from(node.service == service)
        + node
            .children
            .iter()
            .map(|(_, child)| multiplicity(child, service))
            .sum::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: after load stops and the system drains, every injected
    /// request has completed and has arrived exactly once at every hop of
    /// its class tree; metrics stay in range throughout. Checked on a
    /// straight chain and on a re-entrant one.
    #[test]
    fn requests_conserved_and_metrics_sane(
        rt in random_topo(),
        re in reentrant_topo(),
        rps in 5.0f64..80.0,
        seed in any::<u64>(),
    ) {
        for (topo, rps) in [(build(&rt), rps), (build_reentrant(&re), re.rps)] {
            let classes = topo.num_classes();
            let mut sim = Simulation::new(topo.clone(), SimConfig::default(), seed);
            for c in 0..classes {
                sim.set_rate(ClassId(c), RateFn::Constant(rps));
            }
            sim.run_for(SimDur::from_secs(30));
            // Stop arrivals; drain generously.
            for c in 0..classes {
                sim.set_rate(ClassId(c), RateFn::Constant(0.0));
            }
            sim.run_for(SimDur::from_secs(600));
            let snap = sim.harvest();
            prop_assert_eq!(sim.in_flight(), 0, "requests stuck in flight");
            prop_assert_eq!(&snap.injections, &snap.completions);
            for (s, svc) in snap.services.iter().enumerate() {
                prop_assert!((0.0..=1.0).contains(&svc.cpu_utilization), "util {}", svc.cpu_utilization);
                for (c, class) in topo.classes().iter().enumerate() {
                    prop_assert_eq!(
                        svc.arrivals[c],
                        snap.injections[c] * multiplicity(&class.root, ServiceId(s)),
                        "service {} class {}", s, c
                    );
                }
            }
            for series in &snap.e2e_latency {
                for &s in series.samples() {
                    prop_assert!(s >= 0.0 && s.is_finite());
                }
            }
        }
    }

    /// Determinism: identical seeds and action sequences yield identical
    /// telemetry even across scaling actions mid-run.
    #[test]
    fn deterministic_under_control_actions(rt in random_topo(), seed in any::<u64>()) {
        let run = || {
            let mut sim = Simulation::new(build(&rt), SimConfig::default(), seed);
            for c in 0..rt.classes {
                sim.set_rate(ClassId(c), RateFn::Constant(40.0));
            }
            sim.run_for(SimDur::from_secs(10));
            sim.set_replicas(ServiceId(0), 3);
            if rt.tiers > 1 {
                sim.set_cpu_limit(ServiceId(rt.tiers - 1), 1.0);
            }
            sim.run_for(SimDur::from_secs(10));
            sim.set_replicas(ServiceId(0), 1);
            sim.run_for(SimDur::from_secs(10));
            let snap = sim.harvest();
            (
                snap.injections.clone(),
                snap.completions.clone(),
                snap.e2e_latency.iter().map(|l| l.samples().to_vec()).collect::<Vec<_>>(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }

    /// Scaling churn never loses requests: repeatedly scale out/in while
    /// loaded, then drain.
    #[test]
    fn scaling_churn_conserves(rt in random_topo(), seed in any::<u64>()) {
        let mut sim = Simulation::new(build(&rt), SimConfig::default(), seed);
        for c in 0..rt.classes {
            sim.set_rate(ClassId(c), RateFn::Constant(50.0));
        }
        for step in 0..8 {
            sim.run_for(SimDur::from_secs(5));
            for s in 0..rt.tiers {
                let n = 1 + ((step + s) % 4);
                sim.set_replicas(ServiceId(s), n);
            }
        }
        for c in 0..rt.classes {
            sim.set_rate(ClassId(c), RateFn::Constant(0.0));
        }
        sim.run_for(SimDur::from_secs(600));
        let snap = sim.harvest();
        prop_assert_eq!(sim.in_flight(), 0);
        let injected: u64 = snap.injections.iter().sum();
        let completed: u64 = snap.completions.iter().sum();
        prop_assert_eq!(injected, completed);
    }
}

/// Strict-priority discipline: under contention, high-priority e2e latency
/// must not exceed low-priority latency.
#[test]
fn priority_ordering_under_contention() {
    let services = vec![ServiceCfg::new("svc", 1.0).with_workers(2)];
    let mk = |name: &str, p: Priority| ClassCfg {
        name: name.into(),
        priority: p,
        root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.005 }),
    };
    let topo = Topology::new(
        services,
        vec![mk("high", Priority::HIGH), mk("low", Priority::LOW)],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 5);
    sim.set_rate(ClassId(0), RateFn::Constant(90.0));
    sim.set_rate(ClassId(1), RateFn::Constant(90.0)); // rho = 0.9 total
    sim.run_for(SimDur::from_secs(120));
    let snap = sim.harvest();
    let high = snap.e2e_latency[0].percentile(90.0).unwrap();
    let low = snap.e2e_latency[1].percentile(90.0).unwrap();
    assert!(high < low, "high p90 {high} should beat low p90 {low}");
}

/// Rerun determinism on a wide topology: the social network replicated
/// 3× (27 services) for 20 simulated seconds, twice, must give equal
/// per-class injections and completions and an equal event count.
#[test]
fn scaled_app_rerun_is_deterministic() {
    let app = scale_app(&social_network(false), 3);
    let run = || {
        let mut sim = app.build_sim(0x5CA1E);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        sim.run_for(SimDur::from_secs(20));
        let snap = sim.harvest();
        (snap.injections, snap.completions, sim.events_processed())
    };
    let first = run();
    assert!(first.2 > 0);
    assert_eq!(first, run());
}
