//! Unit tests of the engine: queueing and scaling behaviour, tracing, the
//! profiler, and the invariant that the event queue holds only pending
//! checks and sources.

use super::*;
use crate::topology::{CallNode, ClassCfg, EdgeKind, Priority, ServiceCfg, WorkDist};

fn single_service(cores: f64, mean_work: f64) -> Simulation {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", cores)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: mean_work }),
        }],
    )
    .unwrap();
    Simulation::new(topo, SimConfig::default(), 7)
}

#[test]
fn single_service_completes_requests() {
    let mut sim = single_service(4.0, 0.002);
    sim.set_rate(ClassId(0), RateFn::Constant(100.0));
    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let injected = snap.injections[0];
    let completed = snap.completions[0];
    assert!(injected > 2500, "injected {injected}");
    assert!(
        completed as f64 > injected as f64 * 0.98,
        "completed {completed}/{injected}"
    );
    // M/M-ish latency at low load ~ service time.
    let p50 = snap.e2e_latency[0].percentile(50.0).unwrap();
    assert!(p50 < 0.02, "p50 {p50}");
}

#[test]
fn poisson_arrival_rate_matches() {
    let mut sim = single_service(8.0, 0.001);
    sim.set_rate(ClassId(0), RateFn::Constant(500.0));
    sim.run_for(SimDur::from_secs(60));
    let snap = sim.harvest();
    let rps = snap.class_rps(ClassId(0));
    assert!((rps - 500.0).abs() < 25.0, "rps {rps}");
}

#[test]
fn utilization_tracks_load() {
    // rho = lambda * E[S] / cores = 100 * 0.002 / 1 = 0.2
    let mut sim = single_service(1.0, 0.002);
    sim.set_rate(ClassId(0), RateFn::Constant(100.0));
    sim.run_for(SimDur::from_secs(60));
    let snap = sim.harvest();
    let util = snap.services[0].cpu_utilization;
    assert!((util - 0.2).abs() < 0.03, "util {util}");
}

#[test]
fn latency_rises_with_utilization() {
    let mut lats = Vec::new();
    for rps in [100.0, 400.0, 470.0] {
        let mut sim = single_service(1.0, 0.002);
        sim.set_rate(ClassId(0), RateFn::Constant(rps));
        sim.run_for(SimDur::from_secs(60));
        let snap = sim.harvest();
        lats.push(snap.e2e_latency[0].percentile(99.0).unwrap());
    }
    assert!(lats[0] < lats[1] && lats[1] < lats[2], "latencies {lats:?}");
    // Near saturation (rho = 0.94) p99 should blow up well past service time.
    assert!(
        lats[2] > 5.0 * lats[0],
        "saturated {} vs idle {}",
        lats[2],
        lats[0]
    );
}

#[test]
fn more_replicas_reduce_latency() {
    let mut sim = single_service(1.0, 0.002);
    sim.set_rate(ClassId(0), RateFn::Constant(450.0));
    sim.run_for(SimDur::from_secs(40));
    let p99_one = sim.harvest().e2e_latency[0].percentile(99.0).unwrap();
    sim.set_replicas(ServiceId(0), 4);
    sim.run_for(SimDur::from_secs(40));
    let p99_four = sim.harvest().e2e_latency[0].percentile(99.0).unwrap();
    assert!(
        p99_four < p99_one * 0.5,
        "p99 1 replica {p99_one}, 4 replicas {p99_four}"
    );
    assert_eq!(sim.replicas(ServiceId(0)), 4);
}

#[test]
fn scale_in_drains_gracefully() {
    let mut sim = single_service(2.0, 0.002);
    sim.set_replicas(ServiceId(0), 4);
    sim.set_rate(ClassId(0), RateFn::Constant(200.0));
    sim.run_for(SimDur::from_secs(20));
    sim.set_replicas(ServiceId(0), 1);
    assert_eq!(sim.replicas(ServiceId(0)), 1);
    sim.run_for(SimDur::from_secs(20));
    let snap = sim.harvest();
    // No requests lost across the scale-in.
    let injected: u64 = snap.injections.iter().sum();
    let completed: u64 = snap.completions.iter().sum();
    assert!(
        completed as f64 > injected as f64 * 0.97,
        "{completed}/{injected}"
    );
}

/// A linear chain. Worker pools shrink downstream (client-facing tiers
/// admit far more concurrency than deep backend tiers), which is what
/// makes backpressure surface near the culprit rather than at the
/// outermost queue — see DESIGN.md §3.
fn chain(edge: EdgeKind, tiers: usize, work: f64, cores: f64) -> Topology {
    let services: Vec<ServiceCfg> = (0..tiers)
        .map(|i| {
            let workers = (4096usize >> (2 * i).min(12)).max(32);
            ServiceCfg::new(format!("tier{}", i + 1), cores).with_workers(workers)
        })
        .collect();
    fn build(i: usize, tiers: usize, work: f64, edge: EdgeKind) -> CallNode {
        let node = CallNode::leaf(ServiceId(i), WorkDist::Exponential { mean: work });
        if i + 1 < tiers {
            node.with_child(edge, build(i + 1, tiers, work, edge))
        } else {
            node
        }
    }
    Topology::new(
        services,
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: build(0, tiers, work, edge),
        }],
    )
    .unwrap()
}

#[test]
fn nested_chain_end_to_end_latency_sums_tiers() {
    let mut sim = Simulation::new(
        chain(EdgeKind::NestedRpc, 3, 0.002, 4.0),
        SimConfig::default(),
        11,
    );
    sim.set_rate(ClassId(0), RateFn::Constant(100.0));
    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let e2e_mean = snap.e2e_latency[0].mean().unwrap();
    let tier_sum: f64 = (0..3)
        .map(|s| snap.services[s].tier_latency[0].mean().unwrap())
        .sum();
    // e2e = sum of tier means + network hops; allow tolerance.
    assert!(
        (e2e_mean - tier_sum).abs() < 0.35 * e2e_mean,
        "e2e {e2e_mean} vs tier sum {tier_sum}"
    );
    assert!(e2e_mean > tier_sum, "e2e includes network delay");
}

#[test]
fn nested_chain_backpressure_on_throttle() {
    // Throttle the leaf far below the offered load; the parent's
    // tier latency (excluding downstream wait) must inflate
    // (worker exhaustion -> queueing), while without throttling it
    // stays small.
    let mut sim = Simulation::new(
        chain(EdgeKind::NestedRpc, 3, 0.004, 4.0),
        SimConfig::default(),
        12,
    );
    sim.set_rate(ClassId(0), RateFn::Constant(300.0));
    sim.run_for(SimDur::from_secs(30));
    let baseline = sim.harvest();
    let parent_before = baseline.services[1].tier_latency[0]
        .percentile(99.0)
        .unwrap();

    sim.set_cpu_limit(ServiceId(2), 0.5); // leaf capacity 125 rps << 300 rps
    sim.run_for(SimDur::from_secs(60));
    let throttled = sim.harvest();
    let parent_after = throttled.services[1].tier_latency[0]
        .percentile(99.0)
        .unwrap();
    let root_after = throttled.services[0].tier_latency[0]
        .percentile(99.0)
        .unwrap();
    assert!(
        parent_after > parent_before * 5.0,
        "backpressure: parent p99 {parent_before} -> {parent_after}"
    );
    // The gradient diminishes up the chain during the anomaly window.
    assert!(
        root_after < parent_after,
        "root {root_after} vs parent {parent_after}"
    );
}

#[test]
fn mq_chain_no_backpressure_on_throttle() {
    let mut sim = Simulation::new(chain(EdgeKind::Mq, 3, 0.004, 4.0), SimConfig::default(), 13);
    sim.set_rate(ClassId(0), RateFn::Constant(300.0));
    sim.run_for(SimDur::from_secs(30));
    let baseline = sim.harvest();
    let parent_before = baseline.services[1].tier_latency[0]
        .percentile(99.0)
        .unwrap();

    sim.set_cpu_limit(ServiceId(2), 0.5);
    sim.run_for(SimDur::from_secs(30));
    let throttled = sim.harvest();
    let parent_after = throttled.services[1].tier_latency[0]
        .percentile(99.0)
        .unwrap();
    // The MQ producer tier is unaffected by the slow consumer.
    assert!(
        parent_after < parent_before * 2.0,
        "no backpressure expected: {parent_before} -> {parent_after}"
    );
    // But the throttled tier itself suffers and its queue grows.
    assert!(
        throttled.services[2].mq_depth > 1000,
        "depth {}",
        throttled.services[2].mq_depth
    );
}

#[test]
fn priorities_protect_high_class() {
    // Two classes share one overloaded service; the high-priority class
    // must see far lower latency.
    let mk_class = |name: &str, prio: Priority| ClassCfg {
        name: name.into(),
        priority: prio,
        root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
    };
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 1.0).with_workers(1)],
        vec![
            mk_class("high", Priority::HIGH),
            mk_class("low", Priority::LOW),
        ],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 14);
    sim.set_rate(ClassId(0), RateFn::Constant(100.0));
    sim.set_rate(ClassId(1), RateFn::Constant(200.0)); // total rho = 1.2: overload
    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let p50_high = snap.e2e_latency[0].percentile(50.0).unwrap();
    let p50_low = snap.e2e_latency[1].percentile(50.0).unwrap();
    assert!(
        p50_low > 10.0 * p50_high,
        "high {p50_high} vs low {p50_low}"
    );
}

#[test]
fn event_driven_parent_responds_before_child() {
    let topo = Topology::new(
        vec![ServiceCfg::new("front", 4.0), ServiceCfg::new("back", 4.0)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
                EdgeKind::EventDrivenRpc,
                CallNode::leaf(ServiceId(1), WorkDist::Constant(0.050)),
            ),
        }],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 15);
    sim.set_rate(ClassId(0), RateFn::Constant(50.0));
    sim.run_for(SimDur::from_secs(20));
    let snap = sim.harvest();
    // Parent's own response doesn't include the 50 ms child work.
    let parent_p50 = snap.services[0].response_latency[0]
        .percentile(50.0)
        .unwrap();
    assert!(parent_p50 < 0.010, "parent responds fast: {parent_p50}");
    // But e2e completion includes the child.
    let e2e_p50 = snap.e2e_latency[0].percentile(50.0).unwrap();
    assert!(e2e_p50 > 0.050, "e2e includes child: {e2e_p50}");
}

#[test]
fn work_scale_shrinks_latency() {
    let mut sim = single_service(2.0, 0.010);
    sim.set_rate(ClassId(0), RateFn::Constant(50.0));
    sim.run_for(SimDur::from_secs(20));
    let before = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
    sim.set_work_scale(ServiceId(0), 0.2);
    sim.run_for(SimDur::from_secs(20));
    let after = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
    assert!(after < before * 0.5, "{before} -> {after}");
}

#[test]
fn total_allocated_cores_tracks_scaling() {
    let mut sim = single_service(2.0, 0.001);
    assert!((sim.total_allocated_cores() - 2.0).abs() < 1e-12);
    sim.set_replicas(ServiceId(0), 3);
    assert!((sim.total_allocated_cores() - 6.0).abs() < 1e-12);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = single_service(2.0, 0.002);
        sim.set_rate(ClassId(0), RateFn::Constant(200.0));
        sim.run_for(SimDur::from_secs(20));
        let snap = sim.harvest();
        (
            snap.injections[0],
            snap.completions[0],
            snap.e2e_latency[0].percentile(99.0).unwrap(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn zero_rate_injects_nothing() {
    let mut sim = single_service(2.0, 0.002);
    sim.set_rate(ClassId(0), RateFn::Constant(0.0));
    sim.run_for(SimDur::from_secs(10));
    let snap = sim.harvest();
    assert_eq!(snap.injections[0], 0);
}

#[test]
fn manual_injection() {
    let mut sim = single_service(2.0, 0.002);
    for _ in 0..10 {
        sim.inject(ClassId(0));
    }
    sim.run_for(SimDur::from_secs(5));
    let snap = sim.harvest();
    assert_eq!(snap.injections[0], 10);
    assert_eq!(snap.completions[0], 10);
    assert_eq!(sim.in_flight(), 0);
}

#[test]
fn traces_record_hops() {
    let mut sim = two_tier(EdgeKind::NestedRpc, 1);
    sim.enable_tracing(1000, 1.0);
    for _ in 0..20 {
        sim.inject(ClassId(0));
    }
    sim.run_for(SimDur::from_secs(5));
    let traces = sim.take_traces();
    assert_eq!(traces.len(), 20, "every request sampled at rate 1.0");
    for t in &traces {
        assert_eq!(t.spans.len(), 2, "two hops per request");
        let root = t.root();
        let child = &t.spans[1];
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some((0, EdgeKind::NestedRpc)));
        assert_eq!(root.service, ServiceId(0));
        assert_eq!(child.service, ServiceId(1));
        // Timestamp ordering within each span.
        for s in &t.spans {
            assert!(s.enqueue_at >= t.arrival);
            assert!(s.start_at >= s.enqueue_at);
            assert!(s.respond_at >= s.start_at);
            assert!(s.tier_latency() <= s.latency());
        }
        // The root's recorded downstream wait covers the child's span.
        assert!(root.nested_wait > SimDur::ZERO, "root waits on the child");
        assert_eq!(root.waits.len(), 1);
        let (wb, we) = root.waits[0];
        assert!(wb <= child.enqueue_at, "wait opened before child arrived");
        assert!(we >= child.respond_at, "wait closed after child responded");
        let eps = 1e-12;
        assert!(
            (root.downstream_wait().as_secs_f64() - root.nested_wait.as_secs_f64()).abs() < eps,
            "wait intervals sum to the engine's nested_wait"
        );
        assert!(t.end >= root.respond_at);
    }
    // Drained: second take is empty.
    assert!(sim.take_traces().is_empty());
}

#[test]
fn trace_ring_bounded() {
    let mut sim = Simulation::new(one_service(), SimConfig::default(), 2);
    sim.enable_tracing(16, 1.0);
    for _ in 0..100 {
        sim.inject(ClassId(0));
    }
    sim.run_for(SimDur::from_secs(5));
    let traces = sim.take_traces();
    assert_eq!(traces.len(), 16, "ring keeps the newest 16");
    assert_eq!(sim.tracer().expect("enabled").evicted(), 84);
}

#[test]
fn sampling_thins_traces() {
    let mut sim = two_tier(EdgeKind::NestedRpc, 1);
    sim.enable_tracing(100_000, 0.1);
    sim.set_rate(ClassId(0), RateFn::Constant(200.0));
    sim.run_for(SimDur::from_secs(60));
    let snap = sim.harvest();
    let traces = sim.take_traces();
    let rate = traces.len() as f64 / snap.completions[0] as f64;
    assert!(
        (0.05..0.2).contains(&rate),
        "sampled {} of {} completions",
        traces.len(),
        snap.completions[0]
    );
}

#[test]
fn tracing_does_not_perturb_simulation() {
    let run = |trace: bool| {
        let mut sim = two_tier(EdgeKind::NestedRpc, 1);
        if trace {
            sim.enable_tracing(4096, 0.5);
        }
        sim.set_rate(ClassId(0), RateFn::Constant(150.0));
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        (
            snap.completions[0],
            snap.e2e_latency[0].percentile(99.0).unwrap(),
        )
    };
    assert_eq!(run(false), run(true), "sampler must not touch the sim RNG");
}

#[test]
fn tracing_disabled_by_default() {
    let mut sim = Simulation::new(one_service(), SimConfig::default(), 3);
    sim.inject(ClassId(0));
    sim.run_for(SimDur::from_secs(1));
    assert!(sim.take_traces().is_empty());
    assert!(sim.tracer().is_none());
}

fn one_service() -> Topology {
    Topology::new(
        vec![ServiceCfg::new("svc", 4.0)],
        vec![ClassCfg {
            name: "c".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }],
    )
    .unwrap()
}

/// Every `EventKind` variant, sampled, lands in exactly one of the three
/// phases, and the phases' counts add up to the events dispatched.
#[test]
fn profiler_classifies_every_event_kind_exactly_once() {
    let mut sim = Simulation::new(one_service(), SimConfig::default(), 5);
    sim.enable_profiler(1);
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    // One source firing, armed by hand as `arm_source` would; at the
    // default rate of 0 it neither injects nor re-arms.
    let seq = sim.schedule(at(1), EventKind::SourceNext { class: 0 });
    sim.sources[0].pending = Some((at(1), seq));
    sim.inject(ClassId(0));
    sim.run_for(SimDur::from_secs(1));

    let report = sim.profiler().expect("enabled").report();
    // The injected request: root hop arrives, one PS completion.
    let want = [
        (SimPhase::SourceNext, 1),
        (SimPhase::NodeArrive, 1),
        (SimPhase::PsCheck, 1),
    ];
    let got: Vec<(SimPhase, u64)> = report.phases.iter().map(|s| (s.phase, s.count)).collect();
    assert_eq!(got, want);
    assert_eq!(report.events_sampled, 3);
    assert_eq!(report.events_seen, 3);
    assert_eq!(sim.events_processed(), 3);
    assert_eq!(sim.events_stale(), 0);
}

fn two_tier(edge: EdgeKind, replicas: usize) -> Simulation {
    let topo = Topology::new(
        vec![
            ServiceCfg::new("front", 2.0).with_replicas(replicas),
            ServiceCfg::new("back", 2.0).with_replicas(replicas),
        ],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }).with_child(
                edge,
                CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.002 }),
            ),
        }],
    )
    .unwrap();
    Simulation::new(topo, SimConfig::default(), 21)
}

/// Panics unless the queued `PsCheck`s and `SourceNext`s are exactly
/// the pending ones the replicas and sources name: at most one per
/// replica slot and one per class, none for an emptied slot, none
/// superseded.
fn assert_only_pending_events_queued(sim: &Simulation) {
    let (mut checks, mut sources) = (Vec::new(), Vec::new());
    for e in sim.events.entries() {
        match e.kind {
            EventKind::PsCheck { service, replica } => {
                checks.push((service as usize, replica as usize, e.at, e.seq));
            }
            EventKind::SourceNext { class } => sources.push((class as usize, e.at, e.seq)),
            _ => {}
        }
    }
    checks.sort_unstable();
    sources.sort_unstable();
    let mut pending_checks = Vec::new();
    for (s, svc) in sim.services.iter().enumerate() {
        for (r, rep) in svc.replicas.iter().enumerate() {
            if let Some(rep) = rep.as_ref().filter(|rep| rep.has_check) {
                pending_checks.push((s, r, rep.check_at, rep.check_seq));
            }
        }
    }
    let pending_sources: Vec<_> = sim
        .sources
        .iter()
        .enumerate()
        .filter_map(|(c, src)| src.pending.map(|(at, seq)| (c, at, seq)))
        .collect();
    assert_eq!(checks, pending_checks, "at {}", sim.now);
    assert_eq!(sources, pending_sources, "at {}", sim.now);
}

/// Every path that supersedes a pending event — admissions, scaling in
/// and out, CPU-limit cuts and restores, re-armed sources — in one run,
/// the queue
/// checked after every window. The drain path's own check (a slot is
/// never emptied with a check queued) is a `debug_assert!` that is
/// live here.
#[test]
fn queue_holds_only_pending_checks_and_sources_under_churn() {
    let topo = Topology::new(
        vec![
            ServiceCfg::new("front", 2.0).with_replicas(3),
            ServiceCfg::new("back", 2.0).with_replicas(3),
        ],
        vec![
            ClassCfg {
                name: "chain".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 })
                    .with_child(
                        EdgeKind::NestedRpc,
                        CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.004 }),
                    ),
            },
            ClassCfg {
                name: "leaf".into(),
                priority: Priority::LOW,
                root: CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.002 }),
            },
        ],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 23);
    sim.set_rate(ClassId(0), RateFn::Constant(400.0));
    sim.set_rate(ClassId(1), RateFn::Constant(300.0));

    for window in 0..30u64 {
        match window {
            3 => sim.set_replicas(ServiceId(0), 5),
            5 => sim.set_replicas(ServiceId(0), 4),
            9 => sim.set_replicas(ServiceId(0), 5),
            10 => sim.set_cpu_limit(ServiceId(0), 2.0 / 3.0),
            8 => sim.set_rate(
                ClassId(0),
                RateFn::Diurnal {
                    base: 100.0,
                    peak: 700.0,
                    period: SimDur::from_secs(10),
                },
            ),
            12 => sim.set_replicas(ServiceId(0), 2),
            14 => sim.set_cpu_limit(ServiceId(0), 2.0),
            16 => sim.set_cpu_limit(ServiceId(1), 1.0),
            20 => sim.set_rate(ClassId(1), RateFn::Constant(0.0)),
            24 => sim.set_rate(ClassId(1), RateFn::Constant(500.0)),
            _ => {}
        }
        assert_only_pending_events_queued(&sim);
        sim.run_for(SimDur::from_secs(1));
        assert_only_pending_events_queued(&sim);
    }
    assert!(sim.events_processed() > 50_000);
    assert_eq!(sim.events_stale(), 0);
}
