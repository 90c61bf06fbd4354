//! Integration tests of the memory plane: OOM-kill, QoS-ordered pressure
//! eviction, noisy-neighbor interference, and restart — all deterministic
//! functions of the seed and the installed plan.

use ursa_sim::memory::{INTERFERENCE_FACTOR, INTERFERENCE_THRESHOLD, PRESSURE_THRESHOLD};
use ursa_sim::prelude::*;

/// Two-service nested-RPC chain: `front` (Guaranteed) calls `back`
/// (BestEffort), both with two replicas.
fn two_tier_topology() -> Topology {
    let services = vec![
        ServiceCfg::new("front", 2.0)
            .with_replicas(2)
            .with_resources(ResourceSpec::guaranteed(2.0, 256 << 20)),
        ServiceCfg::new("back", 2.0).with_replicas(2),
    ];
    let root = CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
        EdgeKind::NestedRpc,
        CallNode::leaf(ServiceId(1), WorkDist::Constant(0.001)),
    );
    let classes = vec![ClassCfg {
        name: "req".into(),
        priority: Priority::HIGH,
        root,
    }];
    Topology::new(services, classes).unwrap()
}

#[test]
fn heap_growth_triggers_oom_kill_and_restart() {
    // One service, two replicas, 128 MiB limit, 16 MiB/s leak from a
    // 32 MiB baseline: both replicas cross the limit ~6 s after their
    // first scan. The first is drain-killed (capacity drops), the second
    // is the last live replica and restarts in place.
    let topo = Topology::new(
        vec![ServiceCfg::new("leaky", 2.0)
            .with_replicas(2)
            .with_resources(ResourceSpec::burstable(1.0, 2.0, 64 << 20, 128 << 20))],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 7);
    let plan = MemPlan::new(vec![4 << 30; 2]).with_profile(
        0,
        MemProfile::new(32 << 20, 1 << 20).with_growth((16 << 20) as f64),
    );
    sim.install_memory_plane(&plan);
    assert!(sim.memory_plane_installed());

    sim.run_for(SimDur::from_secs(20));
    let snap = sim.harvest();
    let mem = snap.mem.expect("plane installed");
    assert!(mem.oom_kills >= 2, "expected repeated OOM kills");
    assert!(mem
        .events
        .iter()
        .any(|e| e.kind == MemEventKind::OomKill && e.usage_bytes > 128 << 20));
    assert!(
        mem.events.iter().any(|e| e.kind == MemEventKind::Restart),
        "drain-killed replica should restart after the delay"
    );
    // The engine never lets a service black out.
    assert!(snap.services[0].replicas >= 1);
}

#[test]
fn pressure_eviction_spares_guaranteed_tier() {
    // Four 70 MiB replicas on one 256 MiB node: 280 MiB of demand is over
    // the 92 % pressure threshold (235.5 MiB) and forces eviction. The
    // BestEffort service must be the victim; the Guaranteed service must
    // never be evicted (one BestEffort eviction relieves the pressure:
    // 210 MiB <= 235.5 MiB).
    let mut sim = Simulation::new(two_tier_topology(), SimConfig::default(), 7);
    sim.set_rate(ClassId(0), RateFn::Constant(50.0));
    let plan = MemPlan::new(vec![256 << 20])
        .with_profile(0, MemProfile::new(70 << 20, 0))
        .with_profile(1, MemProfile::new(70 << 20, 0));
    sim.install_memory_plane(&plan);

    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let mem = snap.mem.expect("plane installed");
    assert!(mem.evictions[0] >= 1, "BestEffort should be evicted");
    assert_eq!(mem.evictions[2], 0, "Guaranteed must never be evicted");
    assert!(mem
        .events
        .iter()
        .any(|e| e.kind == MemEventKind::Evict && e.service == 1));
    assert!(!mem
        .events
        .iter()
        .any(|e| e.kind == MemEventKind::Evict && e.service == 0));
}

#[test]
fn overcommit_applies_noisy_neighbor_interference() {
    // 230 MiB of steady demand on a 256 MiB node (90 %): under the 92 %
    // pressure threshold (no evictions) but over the 80 % interference
    // threshold, so co-located services accrue throttle time and the node
    // reports high utilization.
    let mut sim = Simulation::new(two_tier_topology(), SimConfig::default(), 7);
    sim.set_rate(ClassId(0), RateFn::Constant(50.0));
    let plan = MemPlan::new(vec![256 << 20])
        .with_profile(0, MemProfile::new(58 << 20, 0))
        .with_profile(1, MemProfile::new(57 << 20, 0));
    sim.install_memory_plane(&plan);

    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let mem = snap.mem.expect("plane installed");
    assert_eq!(mem.evictions, [0, 0, 0]);
    assert_eq!(mem.oom_kills, 0);
    assert!(
        mem.node_util[0] > INTERFERENCE_THRESHOLD && mem.node_util[0] <= PRESSURE_THRESHOLD,
        "{:?}",
        mem.node_util
    );
    assert!(
        mem.throttle_secs.iter().all(|&t| t > 0.0),
        "both co-located services should be throttled: {:?}",
        mem.throttle_secs
    );
    // Requests still complete under interference (slower, not stopped).
    assert!(snap.completions[0] > 0);
}

#[test]
fn interference_slows_service_times() {
    // The same workload with and without memory interference (the 230 MiB
    // node above). At this load a request spends 2 ms in service (1 ms
    // per hop), so interference stretches its latency by 2 ms times the
    // factor's excess over 1.
    let run = |interfere: bool| {
        let mut sim = Simulation::new(two_tier_topology(), SimConfig::default(), 7);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        if interfere {
            let plan = MemPlan::new(vec![256 << 20])
                .with_profile(0, MemProfile::new(58 << 20, 0))
                .with_profile(1, MemProfile::new(57 << 20, 0));
            sim.install_memory_plane(&plan);
        }
        sim.run_for(SimDur::from_secs(60));
        sim.harvest().e2e_latency[0].percentile(99.0).unwrap()
    };
    let base = run(false);
    let interfered = run(true);
    let stretch = 0.002 * (INTERFERENCE_FACTOR - 1.0);
    assert!(
        (interfered - base - stretch).abs() < 1e-5,
        "interference should add {stretch} s to p99: base {base}, interfered {interfered}"
    );
}

#[test]
fn snapshot_counters_reset_between_windows() {
    // The pressure-eviction node above. The first scan (0.5 s) evicts one
    // BestEffort replica, which restarts at 10.5 s — after both 5 s
    // windows, so window 2 evicts nothing.
    let mut sim = Simulation::new(two_tier_topology(), SimConfig::default(), 7);
    let plan = MemPlan::new(vec![256 << 20])
        .with_profile(0, MemProfile::new(70 << 20, 0))
        .with_profile(1, MemProfile::new(70 << 20, 0));
    sim.install_memory_plane(&plan);
    sim.run_for(SimDur::from_secs(5));
    let w1 = sim.harvest().mem.unwrap();
    assert!(w1.evictions[0] >= 1);
    sim.run_for(SimDur::from_secs(5));
    let w2 = sim.harvest().mem.unwrap();
    assert_eq!(w2.evictions, [0, 0, 0], "window counters must drain");
}
