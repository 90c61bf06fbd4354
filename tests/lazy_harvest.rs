//! Laziness cannot feed back into a run: a snapshot's latency series sort
//! on first query, so a reader that queries everything and one that
//! queries nothing must leave two identically seeded simulations in the
//! same state. And how a series stores its samples cannot move what it
//! answers: every series of every snapshot of three recordings is pinned
//! to the bit.

use ursa::apps::chains::study_chain;
use ursa::apps::social_network;
use ursa::sim::prelude::*;
use ursa::sim::topology::Fnv;

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

/// FNV-1a over every series of every snapshot, in harvest order: per
/// service and class the tier then the response series, then each class's
/// end-to-end series; per series its `len`, its `total_count` and its
/// samples' bits in ascending order.
fn snapshots_digest(snaps: &[MetricsSnapshot]) -> u64 {
    let mut bytes = Vec::new();
    for snap in snaps {
        let services = snap.services.iter();
        let series = services
            .flat_map(|s| s.tier_latency.iter().zip(&s.response_latency))
            .flat_map(|(tier, response)| [tier, response])
            .chain(&snap.e2e_latency);
        for s in series {
            bytes.extend((s.len() as u64).to_le_bytes());
            bytes.extend(s.total_count().to_le_bytes());
            for x in s.samples() {
                bytes.extend(x.to_bits().to_le_bytes());
            }
        }
    }
    Fnv::digest(&bytes)
}

/// `(service, class)` pairs of one snapshot whose tier and response
/// samples differ.
fn differing_pairs(snap: &MetricsSnapshot) -> usize {
    let bits = |s: &LatencySeries| s.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pairs = snap
        .services
        .iter()
        .flat_map(|s| s.tier_latency.iter().zip(&s.response_latency));
    pairs.filter(|(t, r)| bits(t) != bits(r)).count()
}

/// The social network as `control_replay` records it: its default
/// allocation, the update classes at twice their share, a 0.6×–1.4×
/// diurnal rate with a twenty-minute period, one-minute windows.
fn social_recording(windows: usize) -> Vec<MetricsSnapshot> {
    let app = social_network(false);
    let mut sim = app.build_sim(0x5A4B);
    app.apply_load_with_mix(
        &mut sim,
        RateFn::Diurnal {
            base: 0.6 * app.default_rps,
            peak: 1.4 * app.default_rps,
            period: SimDur::from_mins(20),
        },
        &app.skewed_mix(2.0),
    );
    (0..windows)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect()
}

/// Fig. 2's five-tier chain over `edge` at 300 rps, one-minute windows.
fn chain_recording(edge: EdgeKind, windows: usize) -> Vec<MetricsSnapshot> {
    let mut sim = Simulation::new(study_chain(edge), SimConfig::default(), 2);
    sim.set_rate(ClassId(0), RateFn::Constant(300.0));
    (0..windows)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect()
}

/// Every harvested series, to the bit, on three topologies: the social
/// network under `control_replay`'s recording load (hops that wait on
/// nested RPCs and hops that never do), Fig. 2's nested-RPC chain (every
/// tier but the leaf waits, so tier and response differ) and its MQ chain
/// (no hop waits). A change to how a series stores or sorts its samples
/// must not move a digest; the differing-pair counts show that both kinds
/// of pair are covered.
#[test]
fn every_harvested_series_is_pinned() {
    let cells: [(&str, Vec<MetricsSnapshot>, u64, usize); 3] = [
        ("social", social_recording(5), 0x4696_e624_331f_82b9, 9),
        (
            "nested chain",
            chain_recording(EdgeKind::NestedRpc, 3),
            0xca5a_9eac_d72f_f623,
            4,
        ),
        (
            "mq chain",
            chain_recording(EdgeKind::Mq, 3),
            0x3ae3_2c46_33df_e44c,
            0,
        ),
    ];
    let got = cells.map(|(name, snaps, want, want_differing)| {
        let got = (
            snapshots_digest(&snaps),
            differing_pairs(&snaps[snaps.len() - 1]),
        );
        eprintln!("{name}: ({:#018x}, {})", got.0, got.1);
        (name, got, (want, want_differing))
    });
    for (name, got, want) in got {
        assert_eq!(
            got, want,
            "{name}: (series digest, pairs whose tier and response differ)"
        );
    }
}
