//! Differential tests of the virtual-time processor-sharing queue.
//!
//! The engine's `VtPs` replaces a naive per-job countdown (subtract the
//! elapsed per-job progress from every active job, sweep for
//! completions — O(n) per event). The two models are mathematically
//! equivalent for egalitarian PS; these tests enforce that equivalence:
//!
//! * a queue-level differential proptest drives both models with the
//!   same randomized admit/advance schedule — including rate changes
//!   from varying job counts and a chaos-style slowdown window — and
//!   requires identical completion order plus next-completion distances
//!   within 1e-9 relative tolerance;
//! * an engine-level proptest runs random chain topologies through a
//!   mid-run `Slowdown` fault window and checks conservation and
//!   determinism (the fault rescales the PS rate of in-flight work, so
//!   this exercises the sync → rescale → resync path);
//! * pinned regression tests freeze the completion tie-break (finish
//!   tag, then admission/token order) and the nanosecond quantization
//!   of completion checks;
//! * three engine cells have their work counts pinned exactly, so a
//!   change in complexity class shows up as a count, not as a wall clock,
//!   and a digest of every latency sample's bits, so a nanosecond moved
//!   without moving a count shows up too.

use proptest::prelude::*;
use ursa::apps::{scale_app, social_network};
use ursa::sim::chaos::{Fault, FaultKind, FaultPlan};
use ursa::sim::prelude::*;
use ursa::sim::ps::{ps_rate, VtPs};
use ursa::sim::topology::Fnv;

/// Relative tolerance for comparing the two models' real-valued state.
/// They accumulate floating-point error differently (the countdown
/// subtracts per step, the virtual clock adds once), so exact equality
/// is not expected — but divergence beyond 1e-9 relative means a logic
/// bug, not rounding.
const REL_TOL: f64 = 1e-9;

/// The naive reference: one countdown of remaining work per job,
/// decremented by the common per-job progress on every advance.
#[derive(Default)]
struct NaivePs {
    /// `(remaining_work, admission_seq, item)` per active job.
    jobs: Vec<(f64, u64, u32)>,
    next_seq: u64,
}

impl NaivePs {
    fn admit(&mut self, work: f64, item: u32) {
        self.next_seq += 1;
        self.jobs.push((work, self.next_seq, item));
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    /// O(n) sweep: everyone progresses by `dv` CPU-seconds.
    fn advance(&mut self, dv: f64) {
        for j in &mut self.jobs {
            j.0 -= dv;
        }
    }

    /// Work remaining until the next completion.
    fn next_rem(&self) -> Option<f64> {
        self.jobs
            .iter()
            .map(|j| j.0.max(0.0))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Pops everything due within `eps`, ordered by (remaining, seq) —
    /// the countdown equivalent of finish-tag order.
    fn pop_due(&mut self, eps: f64, out: &mut Vec<u32>) {
        let mut due: Vec<(f64, u64, u32)> = Vec::new();
        self.jobs.retain(|&j| {
            if j.0 <= eps {
                due.push(j);
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out.extend(due.iter().map(|j| j.2));
    }
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One randomized step: real-time gap, then optionally admit a job.
#[derive(Debug, Clone)]
struct Step {
    dt: f64,
    admit: Option<f64>,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0.0f64..0.05, proptest::arbitrary::any::<u64>()), 1..120).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(dt, bits)| Step {
                    dt,
                    // ~2/3 of steps admit a job with work in (1e-5, 0.02].
                    admit: if bits % 3 != 0 {
                        Some(1e-5 + (bits % 1000) as f64 * 2e-5)
                    } else {
                        None
                    },
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive `VtPs` and the countdown reference with an identical
    /// schedule — job-count-dependent rates plus a slowdown window —
    /// and require identical completions and matching distances.
    #[test]
    fn vtps_matches_countdown_reference(
        steps in steps(),
        cores in 1.0f64..8.0,
        slow_factor in 1.5f64..8.0,
        slow_from in 0usize..60,
        slow_len in 1usize..40,
    ) {
        let mut vt: VtPs<u32> = VtPs::new();
        let mut naive = NaivePs::default();
        let mut next_item = 0u32;

        for (i, step) in steps.iter().enumerate() {
            // Chaos-style slowdown: within the window the common rate
            // divides by `slow_factor`, exactly as the engine rescales
            // a slowed replica (tags/remaining work never rewritten).
            let slow = if (slow_from..slow_from + slow_len).contains(&i) {
                slow_factor
            } else {
                1.0
            };
            if !vt.is_empty() {
                let dv = step.dt * ps_rate(cores, vt.len(), slow);
                // Both models must agree on when the next completion
                // lands before we advance past it.
                let (a, b) = (vt.next_rem().unwrap(), naive.next_rem().unwrap());
                prop_assert!(rel_close(a, b), "next_rem diverged: vt={a} naive={b}");
                vt.advance(dv);
                naive.advance(dv);
            }
            let mut got_vt = Vec::new();
            let mut got_naive = Vec::new();
            vt.pop_due(1e-12, &mut got_vt);
            naive.pop_due(1e-12, &mut got_naive);
            prop_assert_eq!(&got_vt, &got_naive, "completion order diverged at step {}", i);
            prop_assert_eq!(vt.len(), naive.len());

            if let Some(work) = step.admit {
                vt.admit(work, next_item);
                naive.admit(work, next_item);
                next_item += 1;
            }
        }

        // Drain: jump both models to each next completion until empty.
        let mut guard = 0;
        while !vt.is_empty() {
            let (a, b) = (vt.next_rem().unwrap(), naive.next_rem().unwrap());
            prop_assert!(rel_close(a, b), "drain next_rem diverged: vt={a} naive={b}");
            vt.advance(a);
            naive.advance(a);
            let mut got_vt = Vec::new();
            let mut got_naive = Vec::new();
            vt.pop_due(1e-12, &mut got_vt);
            naive.pop_due(1e-12, &mut got_naive);
            prop_assert_eq!(&got_vt, &got_naive, "drain order diverged");
            prop_assert!(!got_vt.is_empty(), "due job failed to pop");
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert_eq!(naive.len(), 0);
    }
}

/// Random 1–3-tier chain with nested-RPC edges.
fn chain_topo(tiers: usize, work_ms: f64, cores: f64) -> Topology {
    let services: Vec<ServiceCfg> = (0..tiers)
        .map(|i| ServiceCfg::new(format!("t{i}"), cores).with_workers(64))
        .collect();
    fn chain(i: usize, tiers: usize, work_ms: f64) -> CallNode {
        let node = CallNode::leaf(
            ServiceId(i),
            WorkDist::Exponential {
                mean: work_ms / 1000.0,
            },
        );
        if i + 1 < tiers {
            node.with_child(EdgeKind::NestedRpc, chain(i + 1, tiers, work_ms))
        } else {
            node
        }
    }
    Topology::new(
        services,
        vec![ClassCfg {
            name: "c0".into(),
            priority: Priority::HIGH,
            root: chain(0, tiers, work_ms),
        }],
    )
    .expect("generated topology is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A mid-run slowdown window on a random chain: the engine must
    /// conserve requests through the sync → rescale → resync sequence
    /// (slowdowns stretch in-flight work, they never lose it), and two
    /// identically-seeded runs must agree sample-for-sample.
    #[test]
    fn chain_with_slowdown_window_conserves_and_is_deterministic(
        tiers in 1usize..4,
        work_ms in 1.0f64..6.0,
        rps in 10.0f64..60.0,
        factor in 1.5f64..6.0,
        target in 0usize..4,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut sim = Simulation::new(chain_topo(tiers, work_ms, 2.0), SimConfig::default(), seed);
            let mut plan = FaultPlan::new();
            plan.push(Fault {
                at: SimTime::ZERO + SimDur::from_secs(5),
                until: SimTime::ZERO + SimDur::from_secs(12),
                kind: FaultKind::Slowdown { service: target % tiers, factor },
            });
            sim.install_faults(&plan, seed ^ 0xC0FFEE);
            sim.set_rate(ClassId(0), RateFn::Constant(rps));
            sim.run_for(SimDur::from_secs(20));
            sim.set_rate(ClassId(0), RateFn::Constant(0.0));
            sim.run_for(SimDur::from_secs(600));
            let snap = sim.harvest();
            (
                sim.in_flight(),
                snap.injections.clone(),
                snap.completions.clone(),
                snap.e2e_latency.iter().map(|l| l.samples().to_vec()).collect::<Vec<_>>(),
            )
        };
        let a = run();
        prop_assert_eq!(a.0, 0, "requests stuck in flight after drain");
        let injected: u64 = a.1.iter().sum();
        let completed: u64 = a.2.iter().sum();
        prop_assert_eq!(injected, completed, "injected {} != completed {}", injected, completed);
        let b = run();
        prop_assert_eq!(a, b, "slowdown window broke determinism");
    }
}

/// Pinned tie-break: jobs whose finish tags are bit-identical complete
/// in admission (token) order, even when admitted at different virtual
/// times. The engine schedules the completion check at
/// `((min_rem / rate) * 1e9).ceil().max(1.0)` nanoseconds, so
/// equal-tag jobs become due at the same quantized instant and the
/// `(tag, seq)` heap order is the only thing keeping the drain
/// deterministic.
#[test]
fn equal_finish_tags_drain_in_token_order() {
    let mut ps: VtPs<u32> = VtPs::new();
    ps.admit(2.0, 0); // admitted at V=0, tag 2.0
    ps.advance(1.0);
    ps.admit(1.0, 1); // admitted at V=1, tag 2.0 — collides with job 0
    ps.admit(1.0, 2); // ditto
    ps.advance(0.5);
    ps.admit(0.5, 3); // admitted at V=1.5, tag 2.0 — three-way collision
    ps.advance(0.5);
    let mut out = Vec::new();
    ps.pop_due(0.0, &mut out);
    assert_eq!(
        out,
        vec![0, 1, 2, 3],
        "equal tags must pop in admission order"
    );
}

/// Pinned quantization: completion checks land on whole nanoseconds
/// (`ceil`, never early), so a constant-work job on an uncontended
/// replica yields the same e2e latency on every request to within one
/// quantum — the virtual clock accumulates float error across
/// multi-step advances, which can bump the ceiling by a single
/// nanosecond, never more. A change to the rounding mode or the
/// `max(1.0)` floor shows up here as off-grid or early samples.
#[test]
fn constant_work_latency_is_quantization_stable() {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 8.0).with_workers(8)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            // 0.0003 s * 1e9 is not exactly representable, so the ceil
            // in the check scheduler is actually exercised.
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.0003)),
        }],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 11);
    sim.set_rate(ClassId(0), RateFn::Constant(50.0));
    sim.run_for(SimDur::from_secs(30));
    let snap = sim.harvest();
    let samples = snap.e2e_latency[0].samples();
    assert!(samples.len() > 100, "expected a healthy sample count");
    let first = samples[0];
    for &s in samples {
        assert!(
            (s - first).abs() <= 2e-9,
            "constant-work latencies must agree to the quantum: first={first}, got {s}"
        );
        // The PS service time is quantized up to the next nanosecond.
        assert!(
            s >= 0.0003,
            "ceil quantization can only round completion times up (got {s})"
        );
        // Every completion sits on the nanosecond grid.
        let ns = s * 1e9;
        assert!(
            (ns - ns.round()).abs() < 1e-3,
            "latency {s} is off the nanosecond grid"
        );
    }
}

/// The vanilla social network under constant load for 30 s: the
/// general-purpose cell.
fn canonical_cell() -> (Simulation, u64) {
    let app = social_network(true);
    let mut sim = app.build_sim(0xBE7C);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    (sim, 30)
}

/// One 8-core replica with 512 worker slots in deep overload for 10 s:
/// hundreds of jobs share the CPU at once.
fn ps_heavy_cell() -> (Simulation, u64) {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 8.0).with_workers(512)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
        }],
    )
    .unwrap();
    let mut sim = Simulation::new(topo, SimConfig::default(), 0x9527);
    sim.set_rate(ClassId(0), RateFn::Constant(4000.0));
    (sim, 10)
}

/// The social network replicated 7x (63 services) at twice its default
/// rate for 20 s: an event queue and telemetry tables an order of
/// magnitude wider.
fn big_cell() -> (Simulation, u64) {
    let app = scale_app(&social_network(false), 7);
    let mut sim = app.build_sim(0x816C);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps * 2.0));
    (sim, 20)
}

/// FNV-1a of the bits of every e2e and tier latency sample one harvest at
/// the end of the run retains, plus the final clock and in-flight count.
/// A 1 ns shift from a rounding change moves no count and may not move a
/// 4-decimal TSV; it moves this.
fn bits_digest(sim: &mut Simulation) -> u64 {
    let snap = sim.harvest();
    let tiers = snap.services.iter().flat_map(|s| &s.tier_latency);
    let mut bytes = Vec::new();
    for series in snap.e2e_latency.iter().chain(tiers) {
        bytes.extend((series.len() as u64).to_le_bytes());
        for x in series.samples() {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    bytes.extend(sim.now().as_nanos().to_le_bytes());
    bytes.extend((sim.in_flight() as u64).to_le_bytes());
    Fnv::digest(&bytes)
}

/// Pinned work counts: events dispatched, the event queue's high-water
/// depth and the request arena's high-water slot count, exactly. They
/// guard what a wall-clock band on a shared machine cannot: the engine
/// keeps at most one `PsCheck` per replica and one `SourceNext` per class
/// queued, never one timer per job (ps_heavy's hundreds of concurrent
/// jobs leave the queue 8 deep), and no change that moves the event
/// order goes unnoticed. `VtPs` itself staying free of per-job sweeps is
/// a CI lint ("processor sharing has no per-job traversal"). Beside the
/// counts, [`bits_digest`] pins every nanosecond the runs produced.
#[test]
fn engine_cell_work_counts_are_pinned() {
    type Cell = fn() -> (Simulation, u64);
    // ((events, queue high water, arena slots), latency bits digest)
    type Pins = ((u64, usize, usize), u64);
    let cells: [(&str, Cell, Pins); 3] = [
        (
            "canonical",
            canonical_cell,
            ((289_109, 21, 9_040), 0x7a52_120d_1f3e_8ca4),
        ),
        (
            "ps_heavy",
            ps_heavy_cell,
            ((120_158, 8, 19_869), 0x0b32_09fe_037a_60ca),
        ),
        (
            "big",
            big_cell,
            ((802_341, 211, 390), 0xc2a2_77a7_52a6_fe6f),
        ),
    ];
    for (name, build, (want, want_bits)) in cells {
        let (mut sim, secs) = build();
        sim.run_for(SimDur::from_secs(secs));
        let got = (
            sim.events_processed(),
            sim.event_heap_max_depth(),
            sim.arena_slots_high_water(),
        );
        assert_eq!(got, want, "{name}: (events, queue high water, arena slots)");
        let bits = bits_digest(&mut sim);
        assert_eq!(bits, want_bits, "{name}: latency bits digest {bits:#018x}");
    }
}
