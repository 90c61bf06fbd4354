//! Loading a long arrival trace is linear, not quadratic.
//!
//! The event queue is a vector sorted descending by `(at, seq)`. A trace
//! is ascending in time, so pushed entry by entry every arrival would land
//! at index 0 and shift all the others: ~3 MB per push at this size, 18.6 s
//! in total when measured. `Simulation::schedule_arrivals` loads the batch
//! with one append and one sort instead (7 ms in the dev profile), and the
//! drain pops from the tail.

use std::time::Instant;

use ursa_sim::prelude::*;

const N: u64 = 200_000;
const GAP_NS: u64 = 1_000_000;

#[test]
fn long_ascending_trace_schedules_and_drains_in_order() {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 4.0)],
        vec![ClassCfg {
            name: "c".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }],
    )
    .expect("static topology");
    let mut sim = Simulation::new(topo, SimConfig::default(), 4);
    let times: Vec<SimTime> = (0..N).map(|i| SimTime::from_nanos(i * GAP_NS)).collect();

    let t0 = Instant::now();
    sim.schedule_arrivals(ClassId(0), &times);
    let scheduling = t0.elapsed();
    assert!(scheduling.as_secs_f64() < 0.5, "took {scheduling:?}");
    assert_eq!(sim.event_heap_depth(), N as usize);

    // In order: just before an arrival's time, exactly the requests
    // before it have been injected.
    let mut injected = 0;
    for upto in [1, N / 2, N] {
        sim.run_until(SimTime::from_nanos(upto * GAP_NS - 1));
        injected += sim.harvest().injections[0];
        assert_eq!(injected, upto);
    }
    sim.run_for(SimDur::from_secs(1));
    assert_eq!(sim.in_flight(), 0);
    assert_eq!(sim.event_heap_depth(), 0);
    assert_eq!(sim.event_heap_max_depth(), N as usize);
}
