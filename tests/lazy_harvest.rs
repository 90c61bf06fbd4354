//! Laziness cannot feed back into a run: a snapshot's latency series sort
//! on first query, so a reader that queries everything and one that
//! queries nothing must leave two identically seeded simulations in the
//! same state.

use ursa::apps::social_network;
use ursa::sim::prelude::*;

const WINDOWS: usize = 10;

/// Per-window `(injections, completions)` plus the engine's event counters
/// and the last window's end-to-end sample bits (read only after the run).
#[derive(Debug, PartialEq)]
struct Outcome {
    per_window: Vec<(Vec<u64>, Vec<u64>)>,
    events_processed: u64,
    events_stale: u64,
    last_e2e_bits: Vec<Vec<u64>>,
}

fn run(query_everything: bool) -> Outcome {
    let app = social_network(false);
    let mut sim = app.build_sim(7);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    let mut per_window = Vec::new();
    let mut last = None;
    for _ in 0..WINDOWS {
        sim.run_for(SimDur::from_secs(5));
        let snap = sim.harvest();
        if query_everything {
            let services = snap.services.iter();
            let series = services
                .flat_map(|s| s.tier_latency.iter().chain(&s.response_latency))
                .chain(&snap.e2e_latency);
            for s in series {
                let sorted = s.samples();
                assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(sorted.len(), s.len());
                assert_eq!(s.percentile(100.0), sorted.last().copied());
                assert_eq!(s.mean().is_some(), !s.is_empty());
                assert_eq!(s.fraction_above(f64::MAX), s.mean().map(|_| 0.0));
            }
        }
        per_window.push((snap.injections.clone(), snap.completions.clone()));
        last = Some(snap);
    }
    let last = last.expect("at least one window");
    Outcome {
        per_window,
        events_processed: sim.events_processed(),
        events_stale: sim.events_stale(),
        last_e2e_bits: last
            .e2e_latency
            .iter()
            .map(|s| s.samples().iter().map(|x| x.to_bits()).collect())
            .collect(),
    }
}

#[test]
fn querying_snapshots_does_not_perturb_the_run() {
    let queried = run(true);
    let untouched = run(false);
    assert!(queried.events_processed > 100_000, "the run did real work");
    assert!(queried.last_e2e_bits.iter().any(|bits| !bits.is_empty()));
    assert_eq!(queried, untouched);
}
