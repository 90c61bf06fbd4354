//! `engine_steady` and `engine_overload`: the simulator alone, driven the
//! way the deployment driver drives it — `run_for` one control window,
//! `harvest`, repeat — with no manager in the loop.
//!
//! Arrivals are open-loop Poisson inside the simulator. Every unit builds
//! a fresh simulation from the same seed, so the simulated system starts
//! empty and all units of a run do bit-identical work.

use super::{digest, Cfg, Fastest, Layers, Traced, UnitOut, Workload};
use crate::spans::{Recorder, OWN_LAYER};
use crate::stats;
use std::hint::black_box;
use std::time::Instant;
use ursa_apps::{scale_app, social_network, App};
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::telemetry::{LatencySeries, MetricsSnapshot};
use ursa_sim::time::SimDur;
use ursa_sim::topology::{
    CallNode, ClassCfg, ClassId, Priority, ServiceCfg, ServiceId, Topology, WorkDist,
};
use ursa_sim::workload::RateFn;

const ENGINE: &str = "ursa-sim::engine";
const TELEMETRY: &str = "ursa-sim::telemetry";
const APPS: &str = "ursa-apps";

/// One control window of simulated time.
const WINDOW: SimDur = SimDur::from_secs(60);

/// What is simulated.
#[derive(Debug, Clone)]
enum Scenario {
    /// An application at its default total rate and allocation.
    Steady(App),
    /// One service whose diurnal rate exceeds its capacity every cycle.
    Overload(Topology),
}

/// Optional engine plane switched on for a probe unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    None,
    Profiler,
    Tracing,
}

/// State shared by both engine workloads.
#[derive(Debug)]
pub struct Engine {
    scenario: Scenario,
    seed: u64,
    windows: usize,
    /// Telemetry sample accounting of the latest traced unit.
    observed: u64,
    retained: u64,
    /// Boundary counters of the latest unit.
    last: Counters,
}

/// Counters read at the unit's end.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    events_live: u64,
    events_stale: u64,
    in_flight_max: usize,
    queue_max_depth: usize,
    queue_resizes: u64,
    arena_slots_high_water: usize,
}

/// 2 000 requests/s of capacity (8 cores ÷ 4 ms) under a rate that swings
/// between 600 and 2 800 every two simulated minutes: a backlog of
/// thousands builds each cycle and drains completely before the next.
fn overload_topology() -> Topology {
    Topology::new(
        vec![ServiceCfg::new("api", 8.0).with_workers(512)],
        vec![ClassCfg {
            name: "get".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
        }],
    )
    .expect("a one-service topology is valid")
}

impl Engine {
    fn new(scenario: Scenario, cfg: &Cfg, windows: usize) -> Self {
        let engine = Engine {
            scenario,
            seed: cfg.seed,
            windows: if cfg.smoke { 2 } else { windows },
            observed: 0,
            retained: 0,
            last: Counters::default(),
        };
        // Set-up is the cold start a user pays before the first metrics
        // window arrives: topology, simulation, load, one window, harvest.
        let mut sim = engine.build();
        sim.run_for(WINDOW);
        black_box(sim.harvest());
        engine
    }

    fn build(&self) -> Simulation {
        match &self.scenario {
            Scenario::Steady(app) => {
                let mut sim = app.build_sim(0x5EED ^ self.seed);
                app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
                sim
            }
            Scenario::Overload(topology) => {
                let mut sim =
                    Simulation::new(topology.clone(), SimConfig::default(), 0x0E11 ^ self.seed);
                sim.set_rate(
                    ClassId(0),
                    RateFn::Diurnal {
                        base: 600.0,
                        peak: 2800.0,
                        period: SimDur::from_secs(120),
                    },
                );
                sim
            }
        }
    }

    /// One unit: a fresh simulation run for `windows` control windows.
    /// Parts: building the simulation, then each window.
    fn run(&mut self, rec: &mut Recorder, plane: Plane) -> (UnitOut, Simulation) {
        let mut parts = Vec::with_capacity(1 + self.windows);
        let unit = rec.enter("unit", OWN_LAYER);
        let t = Instant::now();
        let span = rec.enter("build_sim", APPS);
        let mut sim = self.build();
        rec.exit(span, 0);
        parts.push(t.elapsed().as_secs_f64());
        match plane {
            Plane::None => {}
            Plane::Profiler => sim.enable_profiler(256),
            Plane::Tracing => sim.enable_tracing(512, 0.02),
        }

        let traced = rec.enabled();
        let mut seen: Vec<u64> = Vec::new();
        let (mut observed, mut retained) = (0u64, 0u64);
        let (mut injected, mut completed) = (0u64, 0u64);
        let (mut failed, mut in_flight_max) = (0u64, 0usize);
        let mut last_p99 = 0u64;
        for _ in 0..self.windows {
            let t = Instant::now();
            let window = rec.enter("window", OWN_LAYER);
            let span = rec.enter("run_for", ENGINE);
            let before = sim.events_processed();
            sim.run_for(WINDOW);
            rec.exit(span, sim.events_processed() - before);
            in_flight_max = in_flight_max.max(sim.in_flight());

            let span = rec.enter("harvest", TELEMETRY);
            let snap = sim.harvest();
            rec.exit(span, 0);

            injected += snap.injections.iter().sum::<u64>();
            completed += snap.completions.iter().sum::<u64>();
            failed += u64::from(!conserved(injected, completed, sim.in_flight()));
            last_p99 = snap.e2e_latency[0].percentile(99.0).map_or(0, f64::to_bits);
            if traced {
                let (o, r) = sample_accounting(&snap, &mut seen);
                observed += o;
                retained += r;
            }
            rec.exit(window, 0);
            parts.push(t.elapsed().as_secs_f64());
        }
        let out = UnitOut {
            ops: self.windows as u64,
            failed,
            work: sim.events_processed() as f64,
            work_parts: parts.len(),
            parts,
            digest: digest([
                sim.events_processed(),
                sim.events_stale(),
                injected,
                completed,
                last_p99,
            ]),
        };
        if traced {
            (self.observed, self.retained) = (observed, retained);
        }
        self.last = Counters {
            events_live: sim.events_processed(),
            events_stale: sim.events_stale(),
            in_flight_max,
            queue_max_depth: sim.event_heap_max_depth(),
            queue_resizes: sim.event_queue_resizes(),
            arena_slots_high_water: sim.arena_slots_high_water(),
        };
        rec.exit(unit, out.work as u64);
        (out, sim)
    }

    /// What switching `plane` on costs, in percent of a plain unit: three
    /// plain and three probed units alternate, each kind's parts at their
    /// fastest. Also returns the seconds and the simulation of the probed
    /// unit.
    fn probe(&mut self, plane: Plane) -> (f64, f64, Simulation) {
        let mut off = Recorder::new(false);
        let (mut plain, mut probed) = (Fastest::default(), Fastest::default());
        let mut last = None;
        for _ in 0..3 {
            plain.absorb(&self.run(&mut off, Plane::None).0.parts);
            let (out, sim) = self.run(&mut off, plane);
            probed.absorb(&out.parts);
            last = Some(sim);
        }
        let overhead_pct = 100.0 * (probed.total() - plain.total()) / plain.total();
        (
            overhead_pct,
            probed.total(),
            last.expect("three repetitions"),
        )
    }

    /// Metrics both engine workloads report from their traced units: sums
    /// from the fastest one, percentiles over the windows of all of them.
    fn common_layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers) {
        let sum = |name| rec.durations(name, Some(traced.unit)).iter().sum::<f64>();
        let (run_ns, harvest_ns) = (sum("run_for"), sum("harvest"));
        let c = self.last;
        out.set(
            "engine.run_ns_per_event",
            run_ns / rec.counted("run_for", traced.unit) as f64,
        );
        out.set("engine.events_live", c.events_live as f64);
        out.set("engine.events_stale", c.events_stale as f64);
        out.set("engine.in_flight_max", c.in_flight_max as f64);
        out.set("engine.queue_max_depth", c.queue_max_depth as f64);
        out.set("engine.queue_resizes", c.queue_resizes as f64);
        out.set(
            "engine.arena_slots_high_water",
            c.arena_slots_high_water as f64,
        );
        let pooled_ms = |name| -> Vec<f64> {
            rec.durations(name, None)
                .iter()
                .map(|ns| ns / 1e6)
                .collect()
        };
        let (window, harvest) = (pooled_ms("window"), pooled_ms("harvest"));
        out.set("engine.window_ms_p50", stats::median(&window));
        out.set("engine.window_ms_tail", stats::tail(&window, 99.0).1);
        out.set("telemetry.harvest_ms_p50", stats::median(&harvest));
        out.set("telemetry.harvest_ms_tail", stats::tail(&harvest, 99.0).1);
        out.set(
            "telemetry.harvest_share_pct",
            100.0 * harvest_ns / (run_ns + harvest_ns),
        );
        out.set(
            "telemetry.evicted_share_pct",
            100.0 * (self.observed - self.retained) as f64 / self.observed.max(1) as f64,
        );
        out.set("telemetry.samples_retained", self.retained as f64);
        // The engine's own sampled profiler, read as it reports: phase
        // nanoseconds per popped event, their sum against the measured
        // cost of an event, and what switching it on costs.
        let (overhead_pct, secs, sim) = self.probe(Plane::Profiler);
        let report = sim.profiler().expect("profiler was enabled").report();
        let per_event = |est_nanos: f64| est_nanos / report.events_seen.max(1) as f64;
        let mut phases_ns = 0.0;
        for phase in &report.phases {
            phases_ns += per_event(phase.est_nanos);
            let name = format!("engine.profile.{}_ns", phase.phase.label());
            if crate::catalogue::per_layer(&name).is_some() {
                out.set(&name, per_event(phase.est_nanos));
            }
        }
        out.set(
            "engine.profile_sum_ratio",
            phases_ns / per_event(secs * 1e9),
        );
        out.set("engine.profiler_overhead_pct", overhead_pct);
    }
}

/// The injected failure of both engine workloads: one request of a
/// hundred neither completed nor in flight must fail conservation.
fn lost_request_detected() -> u64 {
    u64::from(!conserved(100, 90, 9))
}

/// Every injected request is either completed or still in flight.
fn conserved(injected: u64, completed: u64, in_flight: usize) -> bool {
    injected == completed + in_flight as u64
}

/// `(observed, retained)` latency samples of one snapshot.
/// `LatencySeries::total_count` is cumulative over the simulation's life
/// (`QuantileWindow::clear` keeps it) although its doc says per-window, so
/// the window's own count is the difference from the previous snapshot;
/// `seen` carries the previous values, one per series in visiting order.
fn sample_accounting(snap: &MetricsSnapshot, seen: &mut Vec<u64>) -> (u64, u64) {
    let (mut observed, mut retained, mut i) = (0u64, 0u64, 0usize);
    let mut visit = |series: &LatencySeries| {
        if seen.len() <= i {
            seen.push(0);
        }
        observed += series.total_count() - seen[i];
        seen[i] = series.total_count();
        retained += series.len() as u64;
        i += 1;
    };
    for service in &snap.services {
        service.tier_latency.iter().for_each(&mut visit);
        service.response_latency.iter().for_each(&mut visit);
    }
    snap.e2e_latency.iter().for_each(&mut visit);
    (observed, retained)
}

/// `engine_steady`.
#[derive(Debug)]
pub struct Steady(Engine);

impl Workload for Steady {
    const NAME: &'static str = "engine_steady";
    const SETUP_REPS: usize = 21;
    const WARM_UP: bool = true;
    const MIN_UNITS: usize = 3;

    fn setup(cfg: &Cfg, _rec: &mut Recorder) -> Self {
        // Half a simulated hour, about a second of host time.
        Steady(Engine::new(
            Scenario::Steady(social_network(false)),
            cfg,
            30,
        ))
    }

    fn unit(&mut self, rec: &mut Recorder) -> UnitOut {
        self.0.run(rec, Plane::None).0
    }

    fn layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers) {
        self.0.common_layers(rec, traced, out);
        let build = rec.durations("build_sim", None);
        out.set("apps.build_sim_ms", stats::median(&build) / 1e6);

        // The engine's request tracer: what it costs, and the critical
        // path analysis per trace it retains.
        let (overhead_pct, _, mut sim) = self.0.probe(Plane::Tracing);
        out.set("trace.tracing_overhead_pct", overhead_pct);
        let traces = sim.take_traces();
        let t = Instant::now();
        for trace in &traces {
            black_box(ursa_trace::critical_path(trace));
        }
        out.set(
            "trace.critical_path_us",
            t.elapsed().as_secs_f64() * 1e6 / traces.len().max(1) as f64,
        );

        let Scenario::Steady(app) = &self.0.scenario else {
            unreachable!("engine_steady simulates an application")
        };
        scale_curve(app, self.0.seed, out);
        stats_probes(self.0.seed, out);
    }

    fn selftest(&mut self) -> u64 {
        lost_request_detected()
    }
}

/// `engine_overload`.
#[derive(Debug)]
pub struct Overload(Engine);

impl Workload for Overload {
    const NAME: &'static str = "engine_overload";
    const SETUP_REPS: usize = 21;
    const WARM_UP: bool = true;
    const MIN_UNITS: usize = 3;

    fn setup(cfg: &Cfg, _rec: &mut Recorder) -> Self {
        // Eight load cycles, about a second of host time.
        Overload(Engine::new(
            Scenario::Overload(overload_topology()),
            cfg,
            16,
        ))
    }

    fn unit(&mut self, rec: &mut Recorder) -> UnitOut {
        self.0.run(rec, Plane::None).0
    }

    fn layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers) {
        self.0.common_layers(rec, traced, out);
    }

    fn selftest(&mut self) -> u64 {
        lost_request_detected()
    }
}

/// Host nanoseconds per live event as the topology is replicated K times
/// at K times the rate: the curve CloudNativeSim evaluates a simulator by
/// (wall time against services × request rate), two simulated minutes per
/// point.
fn scale_curve(app: &App, seed: u64, out: &mut Layers) {
    for k in [1usize, 2, 4, 8] {
        let scaled = scale_app(app, k);
        let mut sim = scaled.build_sim(0x5CA1E ^ seed);
        scaled.apply_load(&mut sim, RateFn::Constant(scaled.default_rps));
        let t = Instant::now();
        for _ in 0..2 {
            sim.run_for(WINDOW);
            black_box(sim.harvest());
        }
        out.set(
            &format!("engine.scale_k{k}_ns_per_event"),
            t.elapsed().as_secs_f64() * 1e9 / sim.events_processed() as f64,
        );
    }
}

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Direct timings of the `ursa-stats` primitives on the engine's hot path:
/// the block RNG, the two work distributions the engine workloads draw
/// from, and the telemetry ring's record and sort.
fn stats_probes(seed: u64, out: &mut Layers) {
    use ursa_stats::dist::{Exponential, LogNormal};
    use ursa_stats::quantile::QuantileWindow;
    use ursa_stats::rng::{BlockRng, Rng};
    use ursa_stats::Distribution;
    const CALLS: u64 = 4_000_000;

    let mut block = BlockRng::new(Rng::seed_from(seed ^ 1));
    out.set(
        "stats.blockrng_f64_ns",
        ns_per_call(CALLS, || {
            black_box(block.next_f64());
        }),
    );
    let mut rng = Rng::seed_from(seed ^ 2);
    let lognormal = LogNormal::from_mean_cv(0.002, 1.0);
    out.set(
        "stats.lognormal_ns",
        ns_per_call(CALLS, || {
            black_box(lognormal.sample(&mut rng));
        }),
    );
    let exponential = Exponential::with_mean(0.004);
    out.set(
        "stats.exponential_ns",
        ns_per_call(CALLS, || {
            black_box(exponential.sample(&mut rng));
        }),
    );

    // One service-latency ring (16 384 samples) filled and sorted the way
    // a harvest does, 128 times.
    const RING: usize = 16_384;
    const ROUNDS: usize = 128;
    let samples: Vec<f64> = (0..RING).map(|_| lognormal.sample(&mut rng)).collect();
    let mut window = QuantileWindow::new(RING);
    let (mut record_s, mut sort_s) = (0.0, 0.0);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for &x in &samples {
            window.record(x);
        }
        record_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(window.sorted());
        sort_s += t.elapsed().as_secs_f64();
        window.clear();
    }
    out.set(
        "stats.qwindow_record_ns",
        record_s * 1e9 / (RING * ROUNDS) as f64,
    );
    out.set("stats.qwindow_sorted_us", sort_s * 1e6 / ROUNDS as f64);
}
