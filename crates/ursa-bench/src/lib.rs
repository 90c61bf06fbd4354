//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VII).
//!
//! Each experiment lives in [`experiments`] and maps one-to-one onto a
//! paper artifact (see `DESIGN.md` §4 for the index). The binary
//! (`cargo run -p ursa-bench -- --exp fig11`) runs one or all of them,
//! prints the same rows/series the paper reports, and writes TSV files
//! under `results/` for plotting. `EXPERIMENTS.md` records paper-reported
//! versus measured values.
//!
//! Experiments run at two scales: [`Scale::Quick`] (minutes of wall clock,
//! reduced durations/sample counts — shapes hold, error bars are wider) and
//! [`Scale::Full`] (paper-protocol durations).

#![forbid(unsafe_code)]

pub mod diff;
pub mod experiments;
pub mod logging;
pub mod manifest;
pub mod perf;
pub mod postmortem;
pub mod runner;

// The progress macros live in `ursa-metrics` (shared with the library
// crates); re-export them under the historical `ursa_bench::{info,warn,
// debug}` names every call site uses.
pub use ursa_metrics::{log_debug as debug, log_info as info, log_warn as warn};

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ursa_apps::App;
use ursa_baselines::{
    collect_and_train, train_firm, Autoscaler, CollectConfig, Firm, FirmConfig, Sinan,
};
use ursa_core::exploration::ExplorationConfig;
use ursa_core::manager::{Ursa, UrsaConfig};
use ursa_core::profiling::ProfilingConfig;
use ursa_sim::control::{run_deployment_observed, DeployConfig, DeployObserver, DeploymentReport};
use ursa_sim::engine::Simulation;
use ursa_sim::metrics::SimMetrics;
use ursa_sim::recorder::FlightRecorder;
use ursa_sim::time::{SimDur, SimTime};
use ursa_sim::topology::ServiceId;
use ursa_sim::workload::RateFn;

/// The global experiment seed set by `--seed` (0 by default).
static GLOBAL_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the global experiment seed (the `--seed` flag). It is XOR-mixed
/// into every workload and chaos RNG seed via [`mix_seed`], so the default
/// of 0 reproduces the committed artifacts exactly and any other value
/// yields an independent, equally deterministic replicate of the suite.
pub fn set_seed(seed: u64) {
    GLOBAL_SEED.store(seed, Ordering::Relaxed);
}

/// The current global experiment seed.
pub fn global_seed() -> u64 {
    GLOBAL_SEED.load(Ordering::Relaxed)
}

/// Mixes an experiment-local seed with the global `--seed` value.
pub fn mix_seed(seed: u64) -> u64 {
    seed ^ global_seed()
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced durations/samples: minutes of wall-clock for the full suite.
    Quick,
    /// Paper-protocol durations (hours of simulated time per cell).
    Full,
}

impl Scale {
    /// Deployment length per scenario.
    pub fn deploy_duration(self) -> SimDur {
        match self {
            Scale::Quick => SimDur::from_mins(14),
            Scale::Full => SimDur::from_mins(45),
        }
    }

    /// Exploration configuration (Algorithm 1).
    pub fn exploration(self) -> ExplorationConfig {
        match self {
            Scale::Quick => ExplorationConfig {
                samples_per_option: 4,
                window: SimDur::from_secs(20),
                max_options: 6,
                ..Default::default()
            },
            Scale::Full => ExplorationConfig::default(),
        }
    }

    /// Backpressure profiling configuration.
    pub fn profiling(self) -> ProfilingConfig {
        match self {
            Scale::Quick => ProfilingConfig {
                windows_per_level: 4,
                window: SimDur::from_secs(10),
                levels: 8,
                ..Default::default()
            },
            Scale::Full => ProfilingConfig::default(),
        }
    }

    /// Sinan data-collection configuration actually *run* (the paper
    /// protocol is 10 000 one-minute samples; Quick runs a reduced episode
    /// and Table 5 reports the protocol numbers alongside).
    pub fn sinan_collect(self) -> CollectConfig {
        match self {
            Scale::Quick => CollectConfig {
                samples: 400,
                window: SimDur::from_secs(15),
                max_replicas: 24,
            },
            Scale::Full => CollectConfig {
                samples: 4000,
                window: SimDur::from_secs(30),
                max_replicas: 24,
            },
        }
    }

    /// Firm training windows actually run.
    pub fn firm_windows(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 4000,
        }
    }
}

/// A load scenario of §VII-E.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// Poisson arrivals at the app's default total RPS.
    Constant,
    /// Diurnal ramp between 60 % and 140 % of the default RPS.
    Diurnal,
    /// Flat load with a +100 % burst in the middle of the run.
    Burst,
    /// Default pattern but with update-class frequency scaled by the factor
    /// (2.0 and 0.5 in the paper).
    Skewed(f64),
}

impl LoadSpec {
    /// Short identifier for tables.
    pub fn label(&self) -> String {
        match self {
            LoadSpec::Constant => "constant".into(),
            LoadSpec::Diurnal => "diurnal".into(),
            LoadSpec::Burst => "burst".into(),
            LoadSpec::Skewed(f) => format!("skewed-{f}"),
        }
    }

    /// Applies this load to a simulation of `app` over `duration`.
    pub fn apply(&self, app: &App, sim: &mut Simulation, duration: SimDur) {
        let total = app.default_rps;
        match self {
            LoadSpec::Constant => app.apply_load(sim, RateFn::Constant(total)),
            LoadSpec::Diurnal => app.apply_load(
                sim,
                RateFn::Diurnal {
                    base: total * 0.6,
                    peak: total * 1.4,
                    period: duration,
                },
            ),
            LoadSpec::Burst => {
                let start = SimTime::ZERO + SimDur::from_nanos(duration.as_nanos() * 2 / 5);
                let end = SimTime::ZERO + SimDur::from_nanos(duration.as_nanos() * 3 / 5);
                app.apply_load(
                    sim,
                    RateFn::Burst {
                        base: total * 0.8,
                        burst: total * 1.6,
                        start,
                        end,
                    },
                )
            }
            LoadSpec::Skewed(factor) => {
                let mix = app.skewed_mix(*factor);
                app.apply_load_with_mix(sim, RateFn::Constant(total), &mix);
            }
        }
    }
}

/// Per-class application rates at the default total RPS (exploration mix).
pub fn default_rates(app: &App) -> Vec<f64> {
    let sum: f64 = app.mix.iter().sum();
    app.mix.iter().map(|w| app.default_rps * w / sum).collect()
}

/// Runs Ursa's full offline phase for an app.
///
/// # Panics
///
/// Panics, naming the app's size, the scale and the mixed seed, if the
/// offline phase finds no feasible allocation.
pub fn prepare_ursa(app: &App, scale: Scale, seed: u64) -> Ursa {
    let seed = mix_seed(seed);
    let rates = default_rates(app);
    let cfg = UrsaConfig {
        exploration: scale.exploration(),
        profiling: scale.profiling(),
    };
    Ursa::explore_and_prepare(&app.topology, &app.slas, &rates, cfg, seed).unwrap_or_else(|e| {
        panic!(
            "ursa offline phase failed on {} ({} services, {} classes) at {scale:?} scale, \
             mixed seed {seed:#x}: {e}",
            app.name,
            app.topology.num_services(),
            app.topology.num_classes(),
        )
    })
}

/// Runs Sinan's data collection + training for an app.
pub fn prepare_sinan(app: &App, scale: Scale, seed: u64) -> (Sinan, ursa_baselines::Dataset) {
    let seed = mix_seed(seed);
    let mut sim = app.build_sim(seed ^ 0x51A4);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    let cfg = scale.sinan_collect();
    let epochs = match scale {
        Scale::Quick => 8,
        Scale::Full => 20,
    };
    collect_and_train(&mut sim, &app.slas, &cfg, epochs, seed)
}

/// Trains Firm's per-service agents for an app.
pub fn prepare_firm(app: &App, scale: Scale, seed: u64) -> Firm {
    let seed = mix_seed(seed);
    let service_classes: Vec<Vec<usize>> = (0..app.topology.num_services())
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
        FirmConfig::default(),
        seed,
    );
    let mut sim = app.build_sim(seed ^ 0xF1B3);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    train_firm(
        &mut sim,
        &mut firm,
        scale.firm_windows(),
        SimDur::from_secs(15),
        seed ^ 7,
    );
    firm.training = false;
    firm
}

/// The five competing systems of §VII-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Ursa (this paper).
    Ursa,
    /// Sinan-style model-based ML.
    Sinan,
    /// Firm-style per-service RL.
    Firm,
    /// AWS step-scaling defaults.
    AutoA,
    /// Manually tuned conservative autoscaling.
    AutoB,
}

impl System {
    /// All systems in paper order.
    pub const ALL: [System; 5] = [
        System::Ursa,
        System::Sinan,
        System::Firm,
        System::AutoA,
        System::AutoB,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            System::Ursa => "ursa",
            System::Sinan => "sinan",
            System::Firm => "firm",
            System::AutoA => "auto-a",
            System::AutoB => "auto-b",
        }
    }
}

/// Pre-trained managers for one application, reused across load scenarios.
///
/// Cloning is cheap relative to a deployment and gives each grid cell its
/// own pristine copy of the trained state — the mechanism that makes cells
/// independent of execution order under `--jobs N`.
#[derive(Debug, Clone)]
pub struct PreparedManagers {
    /// Ursa after the offline phase.
    pub ursa: Ursa,
    /// Trained Sinan.
    pub sinan: Sinan,
    /// Trained Firm (deployment mode).
    pub firm: Firm,
    num_services: usize,
}

impl PreparedManagers {
    /// Prepares every system for an app (the expensive, once-per-app step).
    ///
    /// The three pipelines share nothing — each owns its seed and its
    /// simulation — so they run concurrently, longest first, Ursa on the
    /// calling thread, and the managers are bit-identical to three
    /// sequential `prepare_*` calls. `--jobs` does not apply: there is no
    /// output for it to select between (DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Re-raises a pipeline's panic with its original payload.
    pub fn prepare(app: &App, scale: Scale, seed: u64) -> Self {
        let (ursa, sinan, firm) = std::thread::scope(|scope| {
            let firm = scope.spawn(|| prepare_firm(app, scale, seed ^ 0xBB));
            let sinan = scope.spawn(|| prepare_sinan(app, scale, seed ^ 0xAA).0);
            let ursa = prepare_ursa(app, scale, seed);
            (ursa, joined(sinan), joined(firm))
        });
        PreparedManagers {
            ursa,
            sinan,
            firm,
            num_services: app.topology.num_services(),
        }
    }

    /// Deploys `system` on `app` under `load`, returning the report.
    pub fn deploy(
        &mut self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
    ) -> DeploymentReport {
        self.deploy_metered(app, system, load, scale, seed, None)
    }

    /// Deploys on a pristine clone of the trained managers, leaving `self`
    /// untouched. Every cell sees identical manager state regardless of
    /// which thread runs it or in what order — the deployment then depends
    /// only on `(app, system, load, scale, seed)`, which is what makes
    /// `--jobs N` byte-identical to `--jobs 1`.
    pub fn deploy_cell(
        &self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        self.clone()
            .deploy_metered(app, system, load, scale, seed, metrics)
    }

    /// [`deploy_cell`](Self::deploy_cell) with a fault plan installed on
    /// the deployment simulation (the `--exp chaos` cell path).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_cell_with_faults(
        &self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        faults: Option<&ursa_sim::chaos::FaultPlan>,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        self.clone()
            .deploy_metered_with_faults(app, system, load, scale, seed, faults, metrics)
    }

    /// [`deploy_cell`](Self::deploy_cell) with both planes: an optional
    /// fault plan and an optional memory plan (the `--exp qos` cell path).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_cell_with_planes(
        &self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        faults: Option<&ursa_sim::chaos::FaultPlan>,
        mem: Option<&ursa_sim::memory::MemPlan>,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        self.clone()
            .deploy_observed_full(app, system, load, scale, seed, faults, mem, metrics, None)
    }

    /// [`deploy`](Self::deploy) with an optional metrics collector scraped
    /// once per control window (pass one built with
    /// [`SimMetrics::for_topology`] on `app.topology`).
    pub fn deploy_metered(
        &mut self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        self.deploy_metered_with_faults(app, system, load, scale, seed, None, metrics)
    }

    /// [`deploy_metered`](Self::deploy_metered) with an optional fault
    /// plan: the plan is installed on the fresh simulation before the
    /// deployment starts, seeded from the cell seed (mixed with the global
    /// `--seed`) so resilience runs are exactly as deterministic as
    /// fault-free ones. Passing `None` is bit-identical to
    /// [`deploy_metered`](Self::deploy_metered).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_metered_with_faults(
        &mut self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        faults: Option<&ursa_sim::chaos::FaultPlan>,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        self.deploy_observed_with_faults(app, system, load, scale, seed, faults, metrics, None)
    }

    /// [`deploy_metered_with_faults`](Self::deploy_metered_with_faults)
    /// with an optional [`DeployObserver`] — the post-mortem attachment
    /// point. When an observer is given the deployment also arms the
    /// simulator's flight recorder and span tracer so the observer has an
    /// event window and live span trees to bundle; both planes are
    /// non-perturbing (they draw no simulation randomness), so the
    /// [`DeploymentReport`] stays bit-identical to the unobserved call
    /// (enforced by `ursa-sim/tests/observability_bitident.rs`).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_observed_with_faults(
        &mut self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        faults: Option<&ursa_sim::chaos::FaultPlan>,
        metrics: Option<&mut SimMetrics>,
        observer: Option<&mut dyn DeployObserver>,
    ) -> DeploymentReport {
        self.deploy_observed_full(
            app, system, load, scale, seed, faults, None, metrics, observer,
        )
    }

    /// The most general deployment entry point: optional fault plan,
    /// optional memory plan, optional metrics collector, optional
    /// post-mortem observer. Every other `deploy_*` method delegates here.
    /// Passing `mem: None` is bit-identical to the plane-free call
    /// (enforced by `ursa-sim/tests/memory_bitident.rs`).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_observed_full(
        &mut self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        faults: Option<&ursa_sim::chaos::FaultPlan>,
        mem: Option<&ursa_sim::memory::MemPlan>,
        metrics: Option<&mut SimMetrics>,
        observer: Option<&mut dyn DeployObserver>,
    ) -> DeploymentReport {
        let seed = mix_seed(seed);
        let duration = scale.deploy_duration();
        let mut sim = app.build_sim(seed);
        if let Some(plan) = faults {
            sim.install_faults(plan, seed);
        }
        if let Some(plan) = mem {
            sim.install_memory_plane(plan);
        }
        if observer.is_some() {
            sim.arm_flight_recorder(FlightRecorder::DEFAULT_CAPACITY);
            sim.enable_tracing(POSTMORTEM_TRACE_CAPACITY, POSTMORTEM_TRACE_SAMPLE_RATE);
            // Observed deployments also run the phase profiler so bundles
            // carry the engine's phase-profile summary. Like the recorder
            // and tracer, sampling is non-perturbing (no simulation RNG
            // draws), so the report stays bit-identical either way.
            sim.enable_profiler(ursa_sim::profiler::PhaseProfiler::DEFAULT_SAMPLE_EVERY);
        }
        load.apply(app, &mut sim, duration);
        let cfg = DeployConfig {
            duration,
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
            collect_samples: false,
        };
        match system {
            System::Ursa => {
                let rates = default_rates(app);
                self.ursa.apply_initial_allocation(&rates, &mut sim);
                run_deployment_observed(
                    &mut sim,
                    &app.slas,
                    &mut self.ursa,
                    &cfg,
                    metrics,
                    observer,
                )
            }
            System::Sinan => run_deployment_observed(
                &mut sim,
                &app.slas,
                &mut self.sinan,
                &cfg,
                metrics,
                observer,
            ),
            System::Firm => run_deployment_observed(
                &mut sim,
                &app.slas,
                &mut self.firm,
                &cfg,
                metrics,
                observer,
            ),
            System::AutoA => {
                let mut auto = Autoscaler::auto_a(self.num_services);
                run_deployment_observed(&mut sim, &app.slas, &mut auto, &cfg, metrics, observer)
            }
            System::AutoB => {
                let mut auto = Autoscaler::auto_b(self.num_services);
                run_deployment_observed(&mut sim, &app.slas, &mut auto, &cfg, metrics, observer)
            }
        }
    }
}

/// Joins a preparation thread, re-raising its panic with the original
/// payload so the message that names the failed input is the one reported.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Span-tracer ring capacity armed for post-mortem deployments.
const POSTMORTEM_TRACE_CAPACITY: usize = 512;
/// Head-sampling rate of the post-mortem span tracer — low enough that the
/// ring survives a full control window without megabytes of spans.
const POSTMORTEM_TRACE_SAMPLE_RATE: f64 = 0.02;

/// A simple TSV table writer that also renders to the terminal.
#[derive(Debug, Clone)]
pub struct TsvTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TsvTable {
    /// Creates a table with the given file stem and column names.
    pub fn new(name: &str, header: &[&str]) -> Self {
        TsvTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the TSV file content (exactly what [`write_tsv`](Self::write_tsv)
    /// writes) — handy for diffing against a committed artifact.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Writes the table as TSV under `dir`, returning the path. The
    /// written bytes are also digested into the armed run manifest, if
    /// any (tables are written from the main thread after cell
    /// collection, so manifest ordering is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.tsv", self.name));
        let mut f = std::fs::File::create(&path)?;
        let tsv = self.to_tsv();
        f.write_all(tsv.as_bytes())?;
        manifest::note_table(&self.name, self.rows.len(), tsv.as_bytes());
        Ok(path)
    }
}

/// The default results directory (`results/` under the workspace root).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage for table cells.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_table_renders_and_writes() {
        let mut t = TsvTable::new("unit-test-table", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains('a') && s.contains('1'));
        let dir = std::env::temp_dir().join("ursa-bench-test");
        let path = t.write_tsv(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn tsv_table_checks_width() {
        let mut t = TsvTable::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn load_specs_label_and_apply() {
        let app = ursa_apps::social_network(true);
        for load in [
            LoadSpec::Constant,
            LoadSpec::Diurnal,
            LoadSpec::Burst,
            LoadSpec::Skewed(2.0),
        ] {
            assert!(!load.label().is_empty());
            let mut sim = app.build_sim(1);
            load.apply(&app, &mut sim, SimDur::from_mins(10));
            sim.run_for(SimDur::from_secs(30));
            let snap = sim.harvest();
            assert!(
                snap.injections.iter().sum::<u64>() > 0,
                "{:?}",
                load.label()
            );
        }
    }

    /// Every number of a deployment report, as bits.
    fn report_bits(report: &DeploymentReport) -> Vec<u64> {
        let mut bits = Vec::new();
        for rec in &report.records {
            bits.push(rec.at.as_nanos());
            bits.extend(
                rec.class_latency
                    .iter()
                    .map(|l| l.map_or(u64::MAX, f64::to_bits)),
            );
            bits.extend(
                rec.class_violation
                    .iter()
                    .map(|v| v.map_or(2, |v| v as u64)),
            );
            bits.extend(rec.class_rps.iter().map(|x| x.to_bits()));
            bits.extend(rec.service_replicas.iter().map(|&r| r as u64));
            bits.extend(rec.service_rps.iter().map(|x| x.to_bits()));
            bits.extend(rec.service_cpu_util.iter().map(|x| x.to_bits()));
            bits.push(rec.total_cores.to_bits());
        }
        bits
    }

    /// Preparing the three managers concurrently yields the managers that
    /// three sequential `prepare_*` calls yield: one deployment per trained
    /// system reports the same bits in every control window.
    #[test]
    fn concurrent_prepare_equals_sequential_prepare() {
        // A quarter of the vanilla social network's load: the same
        // pipelines over a quarter of the events.
        let mut app = ursa_apps::social_network(true);
        app.default_rps /= 4.0;
        let (scale, seed) = (Scale::Quick, 0x5EED);
        let concurrent = PreparedManagers::prepare(&app, scale, seed);
        let sequential = PreparedManagers {
            ursa: prepare_ursa(&app, scale, seed),
            sinan: prepare_sinan(&app, scale, seed ^ 0xAA).0,
            firm: prepare_firm(&app, scale, seed ^ 0xBB),
            num_services: app.topology.num_services(),
        };
        for system in [System::Ursa, System::Sinan, System::Firm] {
            let deploy = |managers: &PreparedManagers| {
                managers.deploy_cell(&app, system, &LoadSpec::Diurnal, scale, 0xCE11, None)
            };
            let (a, b) = (deploy(&concurrent), deploy(&sequential));
            assert!(!a.records.is_empty());
            assert_eq!(report_bits(&a), report_bits(&b), "{}", system.label());
        }
    }

    #[test]
    fn default_rates_sum_to_default_rps() {
        let app = ursa_apps::social_network(false);
        let rates = default_rates(&app);
        let total: f64 = rates.iter().sum();
        assert!((total - app.default_rps).abs() < 1e-9);
    }
}
