//! `control_replay`: the control plane alone (paper Table VI, the
//! "lightweight" claim) — per-decision latency of every manager, Ursa's
//! threshold recalculation, and the MIP solve behind it.
//!
//! Set-up prepares the managers, records one simulated hour of
//! one-minute snapshots under a skewed diurnal load (the part `--seed`
//! reaches), and generates a fixed corpus of MIP instances. A unit is a closed loop with one caller: it replays the
//! snapshots through each manager's `on_tick` against a Vec-backed
//! control plane, sweeps `Ursa::recalculate` over class-rate mixes, and
//! solves the instances. No simulation exists while a unit runs, so engine
//! work cannot move this workload.

use super::{digest, Cfg, Layers, Traced, UnitOut, Workload};
use crate::spans::{Recorder, OWN_LAYER};
use crate::stats;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ursa_apps::{social_network, App};
use ursa_baselines::{Autoscaler, Dataset};
use ursa_bench::{default_rates, prepare_firm, prepare_sinan, prepare_ursa, Scale};
use ursa_core::manager::Ursa;
use ursa_core::optimizer::optimize;
use ursa_mip::{solve, solve_greedy, LatencyMatrix, MipModel, ServiceModel, SlaConstraint};
use ursa_ml::{Activation, GbtParams, GbtRegressor, Mlp, Output};
use ursa_sim::control::{ControlPlane, ResourceManager};
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::{SimDur, SimTime};
use ursa_sim::topology::ServiceId;
use ursa_sim::workload::RateFn;
use ursa_stats::rng::Rng;

const CORE: &str = "ursa-core";
const BASELINES: &str = "ursa-baselines";
const MIP: &str = "ursa-mip";
const SIM: &str = "ursa-sim::engine";

/// The seeds `PreparedManagers::prepare` uses for the fig11/12 "social"
/// block, so the managers replayed here are the ones the grid deploys.
const PREPARE_SEED: u64 = 0x11_12;

/// A capped cluster: requests beyond it are clamped, as
/// `CappedControlPlane` would. The recorded load does not react to the
/// replayed decisions, so an autoscaler that sees high utilization scales
/// out on every tick.
const MAX_REPLICAS: usize = 1024;

/// The actuation surface managers see, backed by two vectors.
#[derive(Debug, Clone)]
struct VecPlane {
    now: SimTime,
    names: Vec<String>,
    replicas: Vec<usize>,
    cores: Vec<f64>,
    /// Requests no real control plane could honour: fewer than one
    /// replica, or a CPU limit that is not a positive finite number.
    bad_requests: u64,
}

impl VecPlane {
    fn of(app: &App) -> Self {
        let services = app.topology.services();
        VecPlane {
            now: SimTime::ZERO,
            names: services.iter().map(|s| s.name.clone()).collect(),
            replicas: services.iter().map(|s| s.initial_replicas).collect(),
            cores: services.iter().map(|s| s.cores).collect(),
            bad_requests: 0,
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
        self.names[service.0].clone()
    }
    fn replicas(&self, service: ServiceId) -> usize {
        self.replicas[service.0]
    }
    fn set_replicas(&mut self, service: ServiceId, n: usize) {
        self.bad_requests += u64::from(n < 1);
        self.replicas[service.0] = n.clamp(1, MAX_REPLICAS);
    }
    fn cpu_limit(&self, service: ServiceId) -> f64 {
        self.cores[service.0]
    }
    fn set_cpu_limit(&mut self, service: ServiceId, cores: f64) {
        if cores.is_finite() && cores > 0.0 {
            self.cores[service.0] = cores;
        } else {
            self.bad_requests += 1;
        }
    }
    fn total_allocated_cores(&self) -> f64 {
        self.replicas
            .iter()
            .zip(&self.cores)
            .map(|(&r, &c)| r as f64 * c)
            .sum()
    }
}

/// A manager replayed by the unit: a factory for pristine copies (every
/// unit starts from the trained state) and how many rounds it gets.
struct Replayed {
    label: &'static str,
    layer: &'static str,
    rounds: usize,
    make: Box<dyn Fn() -> Box<dyn ResourceManager>>,
}

impl std::fmt::Debug for Replayed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Replayed({} × {})", self.label, self.rounds)
    }
}

/// A generated MIP instance with its greedy reference.
#[derive(Debug)]
struct Instance {
    model: MipModel,
    /// Objective of the greedy descent: an upper bound on the optimum.
    greedy_objective: f64,
}

/// `control_replay`.
#[derive(Debug)]
pub struct Control {
    app: App,
    plane: VecPlane,
    snapshots: Vec<MetricsSnapshot>,
    /// The prepared Ursa: recalculations start from it, and its recalc
    /// counter is the base the replayed copy's is read against.
    ursa: Ursa,
    /// The replayed managers, Ursa first.
    managers: Vec<Replayed>,
    recalc_rates: Vec<Vec<f64>>,
    instances: Vec<Instance>,
    /// Sinan's training set, for the `ursa-ml` probes.
    dataset: Option<Dataset>,
    sinan_train_s: f64,
    /// Samples of the latest traced unit.
    detail: Detail,
}

/// Per-call samples of the traced units (nanoseconds), pooled over all of
/// them so that every tail percentile has its ten samples beyond it.
#[derive(Debug, Default)]
struct Detail {
    ticks: Vec<(&'static str, Vec<f64>)>,
    recalcs: Vec<f64>,
    ursa_recalcs_in_ticks: u64,
    /// Nodes explored by one unit's solves (equal across units).
    nodes_explored: u64,
}

impl Detail {
    fn absorb(&mut self, unit: Detail) {
        if self.ticks.is_empty() {
            *self = unit;
            return;
        }
        for ((_, pooled), (_, ns)) in self.ticks.iter_mut().zip(unit.ticks) {
            pooled.extend(ns);
        }
        self.recalcs.extend(unit.recalcs);
        self.ursa_recalcs_in_ticks += unit.ursa_recalcs_in_ticks;
    }
}

/// One simulated hour of one-minute snapshots of `app` at its default
/// allocation, update-heavy (2× skew) under a 0.6×–1.4× diurnal rate with
/// a twenty-minute period: the mix drifts enough that Ursa's anomaly
/// detector asks for recalculations during the replay.
fn record_snapshots(
    app: &App,
    seed: u64,
    windows: usize,
    rec: &mut Recorder,
) -> Vec<MetricsSnapshot> {
    let span = rec.enter("record_snapshots", SIM);
    let mut sim = app.build_sim(0x5A4B ^ seed);
    app.apply_load_with_mix(
        &mut sim,
        RateFn::Diurnal {
            base: 0.6 * app.default_rps,
            peak: 1.4 * app.default_rps,
            period: SimDur::from_mins(20),
        },
        &app.skewed_mix(2.0),
    );
    let snapshots = (0..windows)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect();
    rec.exit(span, windows as u64);
    snapshots
}

/// Class-rate vectors for the recalculation sweep: total rate from 0.6×
/// to 1.4× of the default (the range the grid's loads cover) crossed with
/// the three update-class skews the grid uses.
fn recalc_sweep(app: &App, n: usize) -> Vec<Vec<f64>> {
    let mixes: Vec<Vec<f64>> = [1.0, 2.0, 0.5].iter().map(|&f| app.skewed_mix(f)).collect();
    (0..n)
        .map(|i| {
            let mix = &mixes[i % mixes.len()];
            let total = app.default_rps * (0.6 + 0.8 * (i % 97) as f64 / 96.0);
            let sum: f64 = mix.iter().sum();
            mix.iter().map(|w| total * w / sum).collect()
        })
        .collect()
}

/// A synthetic model shaped like real exploration output — monotone
/// resource/latency options with noise, a handful of services per request
/// path, and targets derived from full provisioning so the instance is
/// feasible but tight. The generator of `ursa-bench/benches/mip_solver.rs`,
/// copied so both measure the same family.
fn synthetic_model(services: usize, options: usize, classes: usize, seed: u64) -> MipModel {
    let grid = vec![90.0, 95.0, 99.0, 99.5, 99.9];
    let mut rng = Rng::seed_from(seed);
    let svc: Vec<ServiceModel> = (0..services)
        .map(|s| {
            let resource: Vec<f64> = (0..options).map(|o| (options - o) as f64 * 2.0).collect();
            let latency = (0..classes)
                .map(|c| {
                    let participates = (s + c) % ((services / 5).max(1)) == 0 || rng.chance(0.25);
                    let participates = participates && (s % services) < 10;
                    participates.then(|| {
                        let base = 0.002 + 0.01 * rng.next_f64();
                        let data: Vec<f64> = (0..options)
                            .flat_map(|o| {
                                let row = base * (1.0 + 0.6 * o as f64);
                                (0..grid.len()).map(move |g| row * (1.0 + 0.4 * g as f64))
                            })
                            .collect();
                        LatencyMatrix::new(options, grid.len(), data)
                    })
                })
                .collect();
            ServiceModel {
                name: format!("s{s}"),
                resource,
                latency,
            }
        })
        .collect();
    // Full provisioning only: every service keeps its first option.
    let mut single = MipModel {
        percentiles: grid.clone(),
        services: svc.clone(),
        constraints: (0..classes)
            .map(|c| SlaConstraint {
                class: c,
                percentile: 99.0,
                target: 1e9,
            })
            .collect(),
    };
    for s in &mut single.services {
        s.resource.truncate(1);
        for m in s.latency.iter_mut().flatten() {
            *m = LatencyMatrix::new(1, grid.len(), m.row(0).to_vec());
        }
    }
    let best = solve_greedy(&single).expect("full provisioning is feasible");
    let constraints = (0..classes)
        .map(|c| SlaConstraint {
            class: c,
            percentile: 99.0,
            target: best.estimated_latency(&single, c) * 1.6,
        })
        .collect();
    MipModel {
        percentiles: grid,
        services: svc,
        constraints,
    }
}

/// An exact solution may not cost more than the greedy one.
fn solution_ok(objective: f64, greedy_objective: f64) -> bool {
    objective.is_finite() && objective <= greedy_objective + 1e-9
}

impl Control {
    /// Replays every snapshot `rounds` times through `manager`, resetting
    /// the plane each round. Returns the ticks made; a traced replay also
    /// returns per-tick nanoseconds.
    fn replay(
        &self,
        manager: &mut dyn ResourceManager,
        rounds: usize,
        plane: &mut VecPlane,
        samples: Option<&mut Vec<f64>>,
    ) -> u64 {
        let mut samples = samples;
        for _ in 0..rounds {
            plane.replicas.clone_from(&self.plane.replicas);
            plane.cores.clone_from(&self.plane.cores);
            for snap in &self.snapshots {
                plane.now = snap.at;
                match samples.as_mut() {
                    None => manager.on_tick(snap, plane),
                    Some(ns) => {
                        let t = Instant::now();
                        manager.on_tick(snap, plane);
                        ns.push(t.elapsed().as_nanos() as f64);
                    }
                }
            }
        }
        (rounds * self.snapshots.len()) as u64
    }
}

impl Workload for Control {
    const NAME: &'static str = "control_replay";
    const SETUP_REPS: usize = 1;
    const WARM_UP: bool = true;
    const MIN_UNITS: usize = 3;

    fn setup(cfg: &Cfg, rec: &mut Recorder) -> Self {
        ursa_bench::runner::set_jobs(1);
        // As in `manager_grid`, the managers are always the ones of the
        // committed results; `--seed` reaches the recorded load and the
        // generated instances.
        ursa_bench::set_seed(0);
        let app = social_network(false);
        let n = app.topology.num_services();

        let span = rec.enter("prepare_ursa", CORE);
        let ursa = prepare_ursa(&app, Scale::Quick, PREPARE_SEED);
        rec.exit(span, ursa.exploration().total_samples as u64);

        let auto = |label, make: fn(usize) -> Autoscaler, rounds| Replayed {
            label,
            layer: BASELINES,
            rounds,
            make: Box::new(move || Box::new(make(n))),
        };
        let replayed = ursa.clone();
        let mut managers = vec![Replayed {
            label: "ursa",
            layer: CORE,
            rounds: if cfg.smoke { 5 } else { 400 },
            make: Box::new(move || Box::new(replayed.clone())),
        }];
        let (mut dataset, mut sinan_train_s) = (None, 0.0);
        // The smoke run leaves Sinan and Firm out: preparing them is eight
        // seconds, and the replay loop they would exercise is the one the
        // other three managers go through.
        if !cfg.smoke {
            let span = rec.enter("prepare_sinan", BASELINES);
            let (sinan, data) = prepare_sinan(&app, Scale::Quick, PREPARE_SEED ^ 0xAA);
            rec.exit(span, data.samples.len() as u64);
            sinan_train_s = sinan.training_wall().as_secs_f64();
            dataset = Some(data);
            managers.push(Replayed {
                label: "sinan",
                layer: BASELINES,
                rounds: 10,
                make: Box::new(move || Box::new(sinan.clone())),
            });

            let span = rec.enter("prepare_firm", BASELINES);
            let firm = prepare_firm(&app, Scale::Quick, PREPARE_SEED ^ 0xBB);
            rec.exit(span, 0);
            managers.push(Replayed {
                label: "firm",
                layer: BASELINES,
                rounds: 100,
                make: Box::new(move || Box::new(firm.clone())),
            });
        }
        let auto_rounds = if cfg.smoke { 2 } else { 400 };
        managers.push(auto("auto-a", Autoscaler::auto_a, auto_rounds));
        managers.push(auto("auto-b", Autoscaler::auto_b, auto_rounds));

        let windows = if cfg.smoke { 10 } else { 60 };
        let snapshots = record_snapshots(&app, cfg.seed, windows, rec);

        // 16×10×6 and 40×16×7 (services × options × classes), two generator
        // seeds each; the smoke run solves two toy instances instead. The
        // corpus does not depend on `--seed`: over 40 generator seeds the
        // solve time of one shape varies fourfold to fortyfold (cv 0.38
        // and 0.88), so a seeded corpus would measure the draw, not the
        // solver.
        let shapes: &[(usize, usize, usize, u64)] = if cfg.smoke {
            &[(5, 5, 2, 2)]
        } else {
            &[(16, 10, 6, 2), (40, 16, 7, 2)]
        };
        let span = rec.enter("generate_instances", MIP);
        let instances: Vec<Instance> = shapes
            .iter()
            .flat_map(|&(s, o, c, seeds)| (0..seeds).map(move |i| (s, o, c, 0x317 + i)))
            .map(|(s, o, c, seed)| {
                let model = synthetic_model(s, o, c, seed);
                let greedy_objective = solve_greedy(&model)
                    .expect("generated instances are feasible")
                    .objective;
                Instance {
                    model,
                    greedy_objective,
                }
            })
            .collect();
        rec.exit(span, instances.len() as u64);

        Control {
            plane: VecPlane::of(&app),
            snapshots,
            ursa,
            managers,
            recalc_rates: recalc_sweep(&app, if cfg.smoke { 20 } else { 4000 }),
            instances,
            dataset,
            sinan_train_s,
            detail: Detail::default(),
            app,
        }
    }

    fn unit(&mut self, rec: &mut Recorder) -> UnitOut {
        let traced = rec.enabled();
        let unit = rec.enter("unit", OWN_LAYER);
        let mut detail = Detail::default();
        let mut plane = self.plane.clone();
        let (mut ops, mut failed) = (0u64, 0u64);
        let mut words: Vec<u64> = Vec::new();
        // Parts: each manager's ticks (Ursa's first), the recalculation
        // sweep, each solve.
        let mut parts = Vec::new();

        // 1. Ticks, Ursa's first. A panic inside a manager fails the
        // whole replay.
        for m in &self.managers {
            let mut manager = (m.make)();
            let mut ns = Vec::new();
            let span = rec.enter("ticks", m.layer);
            let t = Instant::now();
            let replayed = catch_unwind(AssertUnwindSafe(|| {
                self.replay(
                    manager.as_mut(),
                    m.rounds,
                    &mut plane,
                    traced.then_some(&mut ns),
                )
            }));
            parts.push(t.elapsed().as_secs_f64());
            let ticks = (m.rounds * self.snapshots.len()) as u64;
            rec.exit(span, ticks);
            ops += ticks;
            failed += u64::from(replayed.is_err());
            detail.ticks.push((m.label, ns));
            words.extend(plane.replicas.iter().map(|&r| r as u64));
            if let Some(ursa) = manager.as_any().and_then(|a| a.downcast_ref::<Ursa>()) {
                detail.ursa_recalcs_in_ticks = ursa.recalcs() - self.ursa.recalcs();
                words.push(ursa.recalcs());
            }
        }
        failed += plane.bad_requests;

        // 2. Recalculations over the sweep, from the prepared state.
        let mut ursa = self.ursa.clone();
        let span = rec.enter("recalcs", CORE);
        let sweep = Instant::now();
        for rates in &self.recalc_rates {
            let t = traced.then(Instant::now);
            let result = catch_unwind(AssertUnwindSafe(|| ursa.recalculate(rates)));
            if let Some(t) = t {
                detail.recalcs.push(t.elapsed().as_nanos() as f64);
            }
            failed += u64::from(!matches!(result, Ok(Ok(()))));
        }
        parts.push(sweep.elapsed().as_secs_f64());
        rec.exit(span, self.recalc_rates.len() as u64);
        ops += self.recalc_rates.len() as u64;
        words.push(ursa.outcome().solution.objective.to_bits());

        // 3. Exact solves.
        for instance in &self.instances {
            let span = rec.enter("solve", MIP);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| solve(&instance.model)));
            parts.push(t.elapsed().as_secs_f64());
            let nodes = match &result {
                Ok(Ok(solution)) => solution.nodes_explored,
                _ => 0,
            };
            rec.exit(span, nodes);
            detail.nodes_explored += nodes;
            ops += 1;
            match result {
                Ok(Ok(solution)) => {
                    failed +=
                        u64::from(!solution_ok(solution.objective, instance.greedy_objective));
                    words.push(solution.objective.to_bits());
                    words.push(solution.nodes_explored);
                }
                _ => failed += 1,
            }
        }

        if traced {
            self.detail.absorb(detail);
        }
        rec.exit(unit, ops);
        UnitOut {
            ops,
            failed,
            parts,
            work: (self.managers[0].rounds * self.snapshots.len()) as f64,
            work_parts: 1,
            digest: digest(words),
        }
    }

    fn layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers) {
        let setup_s = |name| rec.durations(name, Some(0)).iter().sum::<f64>() / 1e9;
        out.set("core.prepare_ursa_s", setup_s("prepare_ursa"));
        out.set("baselines.prepare_sinan_s", setup_s("prepare_sinan"));
        out.set("baselines.prepare_firm_s", setup_s("prepare_firm"));
        out.set("baselines.sinan_train_s", self.sinan_train_s);
        out.set(
            "baselines.sinan_collect_s",
            setup_s("prepare_sinan") - self.sinan_train_s,
        );
        out.set(
            "core.exploration_samples",
            self.ursa.exploration().total_samples as f64,
        );

        let rates = default_rates(&self.app);
        let grid = Scale::Quick.exploration().percentile_grid;
        let optimize_ms: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                black_box(optimize(
                    self.ursa.exploration(),
                    &self.app.slas,
                    &rates,
                    &grid,
                ))
                .expect("the default rates are feasible");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("core.optimize_ms", stats::median(&optimize_ms));

        let us = |ns: &[f64]| ns.iter().map(|x| x / 1e3).collect::<Vec<_>>();
        let mut auto_ns = Vec::new();
        for (label, ns) in &self.detail.ticks {
            let (p50, p99) = (stats::median(&us(ns)), stats::tail(&us(ns), 99.0).1);
            match *label {
                "ursa" => {
                    out.set("core.ursa_tick_us_p50", p50);
                    out.set("core.ursa_tick_us_p99", p99);
                    out.set(
                        "core.recalc_share_pct",
                        100.0 * self.detail.ursa_recalcs_in_ticks as f64 / ns.len().max(1) as f64,
                    );
                }
                "sinan" | "firm" => {
                    out.set(&format!("baselines.{label}_tick_us_p50"), p50);
                    out.set(&format!("baselines.{label}_tick_us_p99"), p99);
                }
                _ => auto_ns.extend_from_slice(ns),
            }
        }
        out.set("baselines.auto_tick_ns_p50", stats::median(&auto_ns));
        out.set(
            "core.recalc_us_p50",
            stats::median(&us(&self.detail.recalcs)),
        );
        out.set(
            "core.recalc_us_p99",
            stats::tail(&us(&self.detail.recalcs), 99.0).1,
        );

        let solve_ns = rec.durations("solve", Some(traced.unit));
        let solve_ms: Vec<f64> = solve_ns.iter().map(|x| x / 1e6).collect();
        out.set("mip.solve_ms_p50", stats::median(&solve_ms));
        out.set(
            "mip.solve_ms_max",
            solve_ms.iter().copied().fold(0.0, f64::max),
        );
        out.set("mip.nodes_explored", self.detail.nodes_explored as f64);
        out.set(
            "mip.ns_per_node",
            solve_ns.iter().sum::<f64>() / self.detail.nodes_explored.max(1) as f64,
        );
        let (mut greedy_ms, mut gap_pct) = (Vec::new(), Vec::new());
        for instance in &self.instances {
            let t = Instant::now();
            let greedy = solve_greedy(&instance.model).expect("feasible at set-up");
            greedy_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let exact = solve(&instance.model).expect("feasible at set-up");
            gap_pct.push(100.0 * (greedy.objective - exact.objective) / exact.objective);
        }
        out.set("mip.greedy_ms_p50", stats::median(&greedy_ms));
        out.set(
            "mip.greedy_gap_pct",
            gap_pct.iter().sum::<f64>() / gap_pct.len().max(1) as f64,
        );

        if let Some(dataset) = &self.dataset {
            ml_probes(dataset, self.app.slas.len(), out);
        }
    }

    fn selftest(&mut self) -> u64 {
        // An "exact" objective above the greedy one must fail its solve.
        let greedy = self.instances[0].greedy_objective;
        u64::from(!solution_ok(greedy + 1.0, greedy))
    }
}

/// Direct timings of the `ursa-ml` primitives at the shapes Sinan uses:
/// one Adam step of the latency MLP on a 64-sample batch, one forward
/// pass, and one fit of the violation GBT on the collected set.
fn ml_probes(dataset: &Dataset, out_dim: usize, out: &mut Layers) {
    let xs: Vec<Vec<f64>> = dataset.samples.iter().map(|s| s.features.clone()).collect();
    let ys: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .map(|s| s.latency_ratio.clone())
        .collect();
    let labels: Vec<f64> = dataset
        .samples
        .iter()
        .map(|s| f64::from(u8::from(s.violated)))
        .collect();
    let batch = 64.min(xs.len());
    let mut mlp = Mlp::new(
        &[xs[0].len(), 64, 64, out_dim],
        Activation::Relu,
        Output::Linear,
        7,
    );
    const STEPS: usize = 100;
    let t = Instant::now();
    for _ in 0..STEPS {
        black_box(mlp.train_batch(&xs[..batch], &ys[..batch], 1e-3));
    }
    out.set(
        "ml.mlp_train_batch_us",
        t.elapsed().as_secs_f64() * 1e6 / STEPS as f64,
    );
    const PREDICTS: usize = 20_000;
    let t = Instant::now();
    for i in 0..PREDICTS {
        black_box(mlp.predict(&xs[i % xs.len()]));
    }
    out.set(
        "ml.mlp_predict_us",
        t.elapsed().as_secs_f64() * 1e6 / PREDICTS as f64,
    );
    let fits: Vec<f64> = (0..3)
        .map(|seed| {
            let t = Instant::now();
            black_box(GbtRegressor::fit(&xs, &labels, &GbtParams::default(), seed));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("ml.gbt_fit_ms", stats::median(&fits));
}
