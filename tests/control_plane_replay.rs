//! Ursa's control plane, replayed and pinned.
//!
//! `tests/mip_pinned_tree.rs` holds the solver to its search tree; this
//! holds the manager around it to its decisions. A prepared [`Ursa`] is
//! driven through recorded snapshots and through a recalculation sweep that
//! crosses a re-exploration, and everything it decides — replicas after
//! every tick, the recalculation count, every latency bound to the bit, the
//! decision log as exported — is folded into one digest per scenario. The
//! digests were recorded at the commit before the optimiser was split into
//! "prepared once per exploration, re-priced per recalculation" (PR 24) and
//! have to survive every change that claims the same decisions: a moved
//! tie-break, a float sum in another order or a threshold read one
//! recalculation late moves at least one of them. The `marginal` digest
//! (recorded at the commit before the control tick stopped computing the
//! p-value where the t statistic alone decides) sees what the others
//! cannot: a scale-in t-test decided inside its critical-value bracket,
//! and a latency anomaly's violation rate. The `video_sweep` digest
//! (recorded at the commit before the solver settled its class verdicts at
//! preparation) is the only one that reaches a class whose SLA is not a
//! p99: the video pipeline's low-priority p50, whose residual budget is 501
//! cells wide where every social class's is 11. The two `priced` digests
//! (recorded at the same commit) hand the solver of each prepared model
//! resource tables no load produces: loads reach a sliver of the
//! assignments a class can be checked at, arbitrary prices many more. Each
//! has a `_decisions` twin that folds in the same solutions without their
//! `nodes_explored` (recorded at the commit before the search pruned
//! options that can never be met): a search that prunes more re-pins the
//! first, never the twin. Every one of the 500 solves is now proved at the
//! root (one node) at both models, so each pair reads the same; the video
//! model's took up to six nodes before the viability filter.
//!
//! The baselines are pinned the same way, at the commit before their
//! decision kernels were batched: Sinan's trained predictor over its
//! own training set (every latency ratio and violation probability to the
//! bit), and Sinan's and Firm's replays (every `set_replicas` call and the
//! counters each reports, Firm one round still learning and two deployed).
//!
//! The test prints each digest as computed; `cargo test` shows that output
//! when the test fails, so re-pinning after a change that moves decisions on
//! purpose is pasting the printed values.

use ursa::apps::{social_network, video_pipeline, App};
use ursa::baselines::{collect_and_train, train_firm, CollectConfig, Dataset, Firm, Sinan};
use ursa::core::exploration::ExplorationConfig;
use ursa::core::manager::{Ursa, UrsaConfig};
use ursa::core::optimizer::build_model;
use ursa::core::profiling::ProfilingConfig;
use ursa::mip::{Solution, Solver};
use ursa::sim::prelude::*;
use ursa::stats::rng::Rng;

/// The actuation surface managers see, backed by two vectors: a recorded
/// load does not react to replayed decisions, so no simulation is needed.
struct VecPlane {
    now: SimTime,
    replicas: Vec<usize>,
    cores: Vec<f64>,
    /// Every `set_replicas` call, in order, as `(service, replicas)`.
    sets: Vec<(usize, usize)>,
}

impl VecPlane {
    fn of(app: &App) -> Self {
        let services = app.topology.services();
        VecPlane {
            now: SimTime::ZERO,
            replicas: services.iter().map(|s| s.initial_replicas).collect(),
            cores: services.iter().map(|s| s.cores).collect(),
            sets: Vec::new(),
        }
    }
}

impl ControlPlane for VecPlane {
    fn now(&self) -> SimTime {
        self.now
    }
    fn num_services(&self) -> usize {
        self.replicas.len()
    }
    fn service_name(&self, service: ServiceId) -> String {
        format!("s{}", service.0)
    }
    fn replicas(&self, service: ServiceId) -> usize {
        self.replicas[service.0]
    }
    fn set_replicas(&mut self, service: ServiceId, n: usize) {
        self.sets.push((service.0, n));
        self.replicas[service.0] = n.clamp(1, 1024);
    }
    fn cpu_limit(&self, service: ServiceId) -> f64 {
        self.cores[service.0]
    }
    fn set_cpu_limit(&mut self, service: ServiceId, cores: f64) {
        self.cores[service.0] = cores;
    }
    fn total_allocated_cores(&self) -> f64 {
        self.replicas
            .iter()
            .zip(&self.cores)
            .map(|(&r, &c)| r as f64 * c)
            .sum()
    }
}

/// FNV-1a over everything a scenario observed.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// What the manager's model says right now: the recalculation count,
    /// the objective, every threshold and every latency bound, to the bit.
    fn model(&mut self, ursa: &Ursa) {
        let outcome = ursa.outcome();
        self.word(ursa.recalcs());
        self.word(outcome.solution.objective.to_bits());
        self.word(outcome.solution.nodes_explored);
        for t in &outcome.thresholds {
            self.word(t.service as u64);
            for y in &t.lpr {
                self.word(y.to_bits());
            }
        }
        for bound in &outcome.latency_bounds {
            self.word(bound.to_bits());
        }
    }

    /// The decision log, as the exporter writes it.
    fn log(&mut self, ursa: &Ursa) {
        let mut jsonl = Vec::new();
        ursa.decisions()
            .write_jsonl(&mut jsonl)
            .expect("writing to a Vec cannot fail");
        self.word(ursa.decisions().len() as u64);
        self.bytes(&jsonl);
    }
}

fn rates_at(total: f64, mix: &[f64]) -> Vec<f64> {
    let sum: f64 = mix.iter().sum();
    mix.iter().map(|w| total * w / sum).collect()
}

fn prepared(app: &App) -> Ursa {
    let cfg = UrsaConfig {
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
    };
    let rates = rates_at(app.default_rps, &app.mix);
    Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, 0x24).expect("feasible")
}

/// Sixty one-minute snapshots of the social network, update-heavy (2×
/// skew) under a 0.6×–1.4× diurnal rate with a twenty-minute period — the
/// load `control_replay` records: the mix drifts enough for the anomaly
/// detector to ask for recalculations, and the swing exercises scale-out,
/// damped scale-in and the cooldown.
fn snapshots(app: &App) -> Vec<MetricsSnapshot> {
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
    (0..60)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect()
}

fn replay_digest(app: &App, snapshots: &[MetricsSnapshot], mut ursa: Ursa) -> u64 {
    let mut digest = Digest::new();
    let mut plane = VecPlane::of(app);
    ursa.apply_initial_allocation(&rates_at(app.default_rps, &app.mix), &mut plane);
    // Twice over, as the ledger replays it: the second round starts from
    // the first's history rings, cooldown and thresholds.
    for _ in 0..2 {
        for snap in snapshots {
            plane.now = snap.at;
            ursa.on_tick(snap, &mut plane);
            for &r in &plane.replicas {
                digest.word(r as u64);
            }
            digest.model(&ursa);
        }
    }
    assert!(
        ursa.recalcs() > 0,
        "the skew must trigger recalculations or the replay pins nothing"
    );
    digest.log(&ursa);
    digest.0
}

/// Ursa's ticks at the margins of its decisions. The recorded snapshots
/// are replayed with every arrival count scaled by a seeded, noisy level
/// that moves every twenty windows, so scale-in t-tests land above, below
/// and close to the critical value (the last a few in a thousand). Four
/// windows carry an overloaded run's latencies, so a latency anomaly is
/// raised and its violation rate logged. `replay` alone reaches neither.
fn marginal_digest(
    app: &App,
    snapshots: &[MetricsSnapshot],
    overloaded: &[MetricsSnapshot],
    mut ursa: Ursa,
) -> u64 {
    let mut digest = Digest::new();
    let mut plane = VecPlane::of(app);
    ursa.apply_initial_allocation(&rates_at(app.default_rps, &app.mix), &mut plane);
    let mut rng = Rng::seed_from(0x30);
    let mut level = 1.0;
    for i in 0..2000 {
        if i % 20 == 0 {
            level = 0.5 + rng.next_f64();
        }
        let f = level * (1.0 + 0.4 * (rng.next_f64() - 0.5));
        let mut snap = snapshots[i % snapshots.len()].clone();
        for service in &mut snap.services {
            for a in &mut service.arrivals {
                *a = (*a as f64 * f) as u64;
            }
        }
        if let Some(hot) = i.checked_sub(300).and_then(|k| overloaded.get(k)) {
            snap.e2e_latency.clone_from(&hot.e2e_latency);
        }
        plane.now = snap.at;
        ursa.on_tick(&snap, &mut plane);
        for &r in &plane.replicas {
            digest.word(r as u64);
        }
        digest.model(&ursa);
    }
    digest.log(&ursa);
    digest.0
}

/// Four windows of the social network at three times its default rate and
/// its default allocation: every class's tail far beyond its SLA.
fn overloaded(app: &App) -> Vec<MetricsSnapshot> {
    let mut sim = app.build_sim(0x0BAD);
    app.apply_load(&mut sim, RateFn::Constant(3.0 * app.default_rps));
    (0..4)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect()
}

/// A rate × skew recalculation sweep (the ledger's `recalc_sweep` shape)
/// with a re-exploration of `timeline-update` in the middle, so the second
/// half re-prices a model prepared from the updated report.
fn sweep_digest(app: &App, mut ursa: Ursa) -> u64 {
    let mixes: Vec<Vec<f64>> = [1.0, 2.0, 0.5].iter().map(|&f| app.skewed_mix(f)).collect();
    let point = |i: usize| {
        let total = app.default_rps * (0.6 + 0.8 * (i * 7 % 97) as f64 / 96.0);
        rates_at(total, &mixes[i % mixes.len()])
    };
    let mut digest = Digest::new();
    for i in 0..45 {
        ursa.recalculate(&point(i)).expect("feasible");
        digest.model(&ursa);
    }
    let service = app.service("timeline-update").expect("service").0;
    let stats = ursa
        .re_explore(service, 0.25, &point(45))
        .expect("re-exploration feasible");
    digest.word(stats.samples as u64);
    digest.model(&ursa);
    for i in 46..90 {
        ursa.recalculate(&point(i)).expect("feasible");
        digest.model(&ursa);
    }
    digest.log(&ursa);
    digest.0
}

/// The same kind of sweep over the video pipeline: its rate between 0.6×
/// and 1.4× the default under the four high:low ratios the paper explores,
/// with a re-exploration of `snapshot` in the middle. Every recalculation
/// re-decides the p50 class's percentile split.
fn video_sweep_digest(app: &App, mut ursa: Ursa) -> u64 {
    let mixes = [[0.05, 0.95], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25]];
    let point = |i: usize| {
        let total = app.default_rps * (0.6 + 0.8 * (i * 7 % 97) as f64 / 96.0);
        rates_at(total, &mixes[i % mixes.len()])
    };
    let mut digest = Digest::new();
    for i in 0..45 {
        ursa.recalculate(&point(i)).expect("feasible");
        digest.model(&ursa);
    }
    let service = app.service("snapshot").expect("service").0;
    let stats = ursa
        .re_explore(service, 0.8, &point(45))
        .expect("re-exploration feasible");
    digest.word(stats.samples as u64);
    digest.model(&ursa);
    for i in 46..90 {
        ursa.recalculate(&point(i)).expect("feasible");
        digest.model(&ursa);
    }
    digest.log(&ursa);
    digest.0
}

/// Ursa's prepared model, solved at 500 resource tables drawn at random
/// (each entry between 0.5 and 8.5 cores): the branch order, the greedy
/// descent and the search take paths no load makes them take. Every
/// solution is folded in whole, or the error if there is none. Returns two
/// digests: the first with every solution's `nodes_explored`, the second
/// — the decisions alone — without.
fn priced_digests(app: &App, ursa: &Ursa) -> (u64, u64) {
    let grid = ExplorationConfig::default().percentile_grid;
    let rates = rates_at(app.default_rps, &app.mix);
    let model = build_model(ursa.exploration(), &ursa.outcome().slas, &rates, &grid);
    let mut solver = Solver::new(&model).expect("prepared once already");
    let entries = model.services.iter().map(|s| s.resource.len()).sum();
    let mut rng = Rng::seed_from(0x31);
    let (mut digest, mut decisions) = (Digest::new(), Digest::new());
    let mut solution = Solution::default();
    for _ in 0..500 {
        let table: Vec<f64> = (0..entries).map(|_| 0.5 + 8.0 * rng.next_f64()).collect();
        match solver.solve_at(&table, &mut solution) {
            Ok(()) => {
                digest.word(solution.objective.to_bits());
                digest.word(solution.nodes_explored);
                decisions.word(solution.objective.to_bits());
                decisions.word(u64::from(solution.proved_optimal));
                let lpr = solution.lpr_choice.iter();
                let percentile = solution.percentile_choice.iter().flatten();
                for &choice in lpr.chain(percentile) {
                    digest.word(choice as u64);
                    decisions.word(choice as u64);
                }
            }
            Err(e) => {
                let e = e.to_string();
                digest.bytes(e.as_bytes());
                decisions.bytes(e.as_bytes());
            }
        }
    }
    (digest.0, decisions.0)
}

/// Replays the snapshots through a baseline, round by round, and folds in
/// every `set_replicas` call it makes and the counters it reports: one
/// flipped prediction moves a call or a count.
fn baseline_digest<M: ResourceManager>(
    app: &App,
    snapshots: &[MetricsSnapshot],
    manager: &mut M,
    rounds: usize,
    mut before_round: impl FnMut(usize, &mut M),
) -> u64 {
    let mut digest = Digest::new();
    let mut plane = VecPlane::of(app);
    for round in 0..rounds {
        before_round(round, manager);
        for snap in snapshots {
            plane.now = snap.at;
            manager.on_tick(snap, &mut plane);
        }
    }
    assert!(
        !plane.sets.is_empty(),
        "{} never scaled: the replay pins nothing",
        manager.name()
    );
    digest.word(plane.sets.len() as u64);
    for &(service, n) in &plane.sets {
        digest.word(service as u64);
        digest.word(n as u64);
    }
    for (name, value) in manager.self_profile() {
        if name != "ctrl_model_train_ms" {
            digest.bytes(name.as_bytes());
            digest.word(value.to_bits());
        }
    }
    digest.0
}

/// Sinan trained on a short balanced collection of the same application,
/// as `prepare_sinan` trains it at a smaller scale.
fn trained_sinan(app: &App) -> (Sinan, Dataset) {
    let mut sim = app.build_sim(0x51A4);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    let cfg = CollectConfig {
        samples: 160,
        window: SimDur::from_secs(15),
        max_replicas: 24,
    };
    collect_and_train(&mut sim, &app.slas, &cfg, 4, 0x25)
}

/// The trained predictor over its own training set: every latency ratio the
/// MLP predicts and every violation probability the boosted trees predict,
/// to the bit.
fn predictor_digest(sinan: &Sinan, dataset: &Dataset) -> u64 {
    let mut digest = Digest::new();
    for sample in &dataset.samples {
        for ratio in sinan.latency_model().predict(&sample.features) {
            digest.word(ratio.to_bits());
        }
        digest.word(sinan.violation_model().predict(&sample.features).to_bits());
    }
    digest.0
}

/// Firm's agents trained online against injected anomalies, as
/// `prepare_firm` trains them at a smaller scale.
fn trained_firm(app: &App) -> Firm {
    let service_classes = (0..app.topology.num_services())
        .map(|s| {
            app.topology
                .classes_on_service(ServiceId(s))
                .into_iter()
                .map(|c| c.0)
                .collect()
        })
        .collect();
    let mut firm = Firm::new(
        app.topology.num_services(),
        &app.slas,
        service_classes,
        0x25,
    );
    let mut sim = app.build_sim(0xF1B3);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    train_firm(&mut sim, &mut firm, 80, SimDur::from_secs(15), 7);
    firm
}

#[test]
fn decisions_are_pinned() {
    let app = social_network(false);
    let snapshots = snapshots(&app);
    let ursa = prepared(&app);
    let (mut sinan, dataset) = trained_sinan(&app);
    let mut firm = trained_firm(&app);
    let (priced, priced_decisions) = priced_digests(&app, &ursa);
    let got = [
        ("replay", replay_digest(&app, &snapshots, ursa.clone())),
        (
            "marginal",
            marginal_digest(&app, &snapshots, &overloaded(&app), ursa.clone()),
        ),
        ("priced", priced),
        ("priced_decisions", priced_decisions),
        ("sweep", sweep_digest(&app, ursa)),
        ("sinan_predictor", predictor_digest(&sinan, &dataset)),
        (
            "sinan_replay",
            baseline_digest(&app, &snapshots, &mut sinan, 2, |_, _| {}),
        ),
        // One round still learning online, then two deployed (greedy).
        (
            "firm_replay",
            baseline_digest(&app, &snapshots, &mut firm, 3, |round, firm| {
                firm.training = round == 0;
            }),
        ),
    ];
    for (name, digest) in got {
        println!("(\"{name}\", {digest:#018x}),");
    }
    assert_eq!(
        got,
        [
            ("replay", 0x6205_70a9_db8b_e592),
            ("marginal", 0xfef9_b0dc_fccd_8952),
            ("priced", 0x7401_0f91_ebd6_617f),
            ("priced_decisions", 0x7401_0f91_ebd6_617f),
            ("sweep", 0x5acb_9f3c_026d_5a07),
            ("sinan_predictor", 0x502c_295e_73c5_18b8),
            ("sinan_replay", 0x5aa0_60bf_8fd7_8e02),
            ("firm_replay", 0x5ee7_6157_a08f_ef90),
        ],
        "the control plane's decisions moved (computed digests printed above)"
    );
}

#[test]
fn video_decisions_are_pinned() {
    let app = video_pipeline(0.5);
    let ursa = prepared(&app);
    let (priced, priced_decisions) = priced_digests(&app, &ursa);
    let got = [
        ("video_priced", priced),
        ("video_priced_decisions", priced_decisions),
        ("video_sweep", video_sweep_digest(&app, ursa)),
    ];
    for (name, digest) in got {
        println!("(\"{name}\", {digest:#018x}),");
    }
    assert_eq!(
        got,
        [
            ("video_priced", 0x9bd6_7eee_514b_f485),
            ("video_priced_decisions", 0x9bd6_7eee_514b_f485),
            ("video_sweep", 0x885f_072c_bea0_11c8),
        ],
        "the video pipeline's decisions moved (computed digests printed above)"
    );
}
