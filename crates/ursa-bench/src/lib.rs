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
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod diff;
pub mod experiments;
pub mod manifest;
pub mod runner;

// The progress macros and the log level live in `ursa-metrics` (shared
// with the library crates); re-export them under the historical
// `ursa_bench::{info,warn,debug}` names every call site uses.
pub use ursa_metrics::logging::{enabled, set_level, Level};
pub use ursa_metrics::{log_debug as debug, log_info as info, log_warn as warn};

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ursa_apps::App;
use ursa_baselines::{collect_and_train, train_firm, Autoscaler, CollectConfig, Firm, Sinan};
use ursa_core::exploration::ExplorationConfig;
use ursa_core::manager::{Ursa, UrsaConfig};
use ursa_core::profiling::ProfilingConfig;
use ursa_sim::control::{run_deployment_observed, DeployConfig, DeploymentReport, ResourceManager};
use ursa_sim::engine::Simulation;
use ursa_sim::metrics::SimMetrics;
use ursa_sim::time::{SimDur, SimTime};
use ursa_sim::topology::ServiceId;
use ursa_sim::workload::RateFn;

/// The global experiment seed set by `--seed` (0 by default).
static GLOBAL_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the global experiment seed (the `--seed` flag). It is XOR-mixed
/// into every workload RNG seed via [`mix_seed`], so the default
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
    #[allow(
        clippy::panic,
        reason = "the ledger binds this signature; ROADMAP item 1 turns the failure into a Result"
    )]
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

    /// Deploys on a pristine clone of the trained managers, leaving `self`
    /// untouched. Every cell sees identical manager state regardless of
    /// which thread runs it or in what order — the deployment then depends
    /// only on `(app, system, load, scale, seed)`, which is what makes
    /// `--jobs N` byte-identical to `--jobs 1`. `seed` is the cell seed,
    /// mixed with the global `--seed`. A metrics collector (build it with
    /// [`SimMetrics::for_topology`] on `app.topology`) is scraped once per
    /// control window and is non-perturbing (it draws no simulation
    /// randomness): `None` leaves the [`DeploymentReport`] bit-identical
    /// (`tests/plane_bitident.rs`). `benchmark/` binds this signature.
    pub fn deploy_cell(
        &self,
        app: &App,
        system: System,
        load: &LoadSpec,
        scale: Scale,
        seed: u64,
        metrics: Option<&mut SimMetrics>,
    ) -> DeploymentReport {
        let seed = mix_seed(seed);
        let duration = scale.deploy_duration();
        let mut sim = app.build_sim(seed);
        load.apply(app, &mut sim, duration);
        let cfg = DeployConfig {
            duration,
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        };
        let mut managers = self.clone();
        let mut auto;
        let manager: &mut dyn ResourceManager = match system {
            System::Ursa => {
                managers
                    .ursa
                    .apply_initial_allocation(&default_rates(app), &mut sim);
                &mut managers.ursa
            }
            System::Sinan => &mut managers.sinan,
            System::Firm => &mut managers.firm,
            System::AutoA => {
                auto = Autoscaler::auto_a(self.num_services);
                &mut auto
            }
            System::AutoB => {
                auto = Autoscaler::auto_b(self.num_services);
                &mut auto
            }
        };
        run_deployment_observed(&mut sim, &app.slas, manager, &cfg, metrics, None)
    }
}

/// Joins a preparation thread, re-raising its panic with the original
/// payload so the message that names the failed input is the one reported.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

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

    /// Writes the table as `<ctx.results>/<subdir>/<name>.tsv`, returning
    /// the path, and digests the written bytes into the run's manifest
    /// (tables are written from the main thread after cell collection, so
    /// manifest ordering is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, ctx: &RunCtx, subdir: &str) -> std::io::Result<PathBuf> {
        let dir = ctx.results.join(subdir);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.tsv", self.name));
        let tsv = self.to_tsv();
        std::fs::write(&path, &tsv)?;
        ctx.manifest()
            .note_table(&self.name, self.rows.len(), tsv.as_bytes());
        Ok(path)
    }
}

/// The default results directory (`results/` under the workspace root).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Where one experiment run writes and what it records: built by the
/// binary from the command line (or by a test, pointing at a scratch
/// directory) and passed down to every experiment, so two runs in one
/// process share nothing.
#[derive(Debug)]
pub struct RunCtx {
    /// Root the TSVs and `run.json` go under (the binary passes
    /// [`results_dir`]).
    pub results: PathBuf,
    /// `--artifacts-dir`: where the run writes what a person reads —
    /// dashboards, Chrome traces with blame summaries and decision logs.
    /// Setting it arms the collectors and the tracer; neither perturbs a
    /// TSV.
    pub artifacts_dir: Option<PathBuf>,
    /// The run's manifest, fed by the experiments (cells record from
    /// worker threads, hence the lock).
    pub manifest: Mutex<manifest::RunManifest>,
}

impl RunCtx {
    /// A context writing under `results` with no artifact directory.
    pub fn new(results: PathBuf, manifest: manifest::RunManifest) -> Self {
        RunCtx {
            results,
            artifacts_dir: None,
            manifest: Mutex::new(manifest),
        }
    }

    /// The run's manifest, locked for one `note_table` call. A cell that
    /// panicked while holding the lock left every recorded table whole
    /// (an insert either happened or did not), so the lock is taken back.
    pub fn manifest(&self) -> MutexGuard<'_, manifest::RunManifest> {
        self.manifest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
impl RunCtx {
    /// Runs `f` under a context for unit tests: results go under a
    /// per-process temporary directory, removed once `f` returns, so
    /// running an experiment leaves the checkout alone.
    pub(crate) fn scratch<T>(tag: &str, f: impl FnOnce(&RunCtx) -> T) -> T {
        let root = std::env::temp_dir().join(format!("ursa-bench-{tag}-{}", std::process::id()));
        let ctx = RunCtx::new(root, manifest::RunManifest::new(tag, 0, 1, "quick"));
        let out = f(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.results);
        out
    }
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
        RunCtx::scratch("tsv-table", |ctx| {
            let path = t.write_tsv(ctx, "sub").unwrap();
            assert_eq!(path, ctx.results.join("sub").join("unit-test-table.tsv"));
            let content = std::fs::read_to_string(path).unwrap();
            assert_eq!(content, "a\tb\n1\t2\n");
            assert!(ctx.manifest().to_json().contains("\"unit-test-table\""));
        });
    }

    /// Two experiments in one process share nothing: fig2 runs on two
    /// threads at once, each under its own context, and each root ends up
    /// with exactly its own artifacts — the committed TSVs, one dashboard,
    /// trace and blame summary per chain — and the same manifest, and the
    /// two runs' collectors hold the same bits.
    #[test]
    fn run_ctx_isolates_runs() {
        let root =
            std::env::temp_dir().join(format!("ursa-bench-isolation-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctxs = ["a", "b"].map(|side| RunCtx {
            artifacts_dir: Some(root.join(side).join("artifacts")),
            ..RunCtx::new(
                root.join(side).join("results"),
                manifest::RunManifest::new("fig2", 0, 1, "quick"),
            )
        });
        let chains = std::thread::scope(|scope| {
            let runs = ctxs
                .each_ref()
                .map(|ctx| scope.spawn(move || experiments::fig2::run(Scale::Quick, ctx)));
            runs.map(|run| run.join().unwrap())
        });
        let listing = |dir: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let stems = ["fig2_eventdrivenrpc", "fig2_mq", "fig2_nestedrpc"];
        for ctx in &ctxs {
            assert_eq!(listing(&ctx.results), ["fig2"]);
            let tsvs = stems.map(|stem| format!("{stem}.tsv"));
            assert_eq!(listing(&ctx.results.join("fig2")), tsvs);
            for tsv in &tsvs {
                let read = |root: &std::path::Path| {
                    std::fs::read_to_string(root.join("fig2").join(tsv)).unwrap()
                };
                assert_eq!(read(&ctx.results), read(&results_dir()), "{tsv}");
            }
            let artifacts: Vec<String> = stems
                .iter()
                .flat_map(|stem| {
                    ["blame.txt", "html", "trace.json"].map(|ext| format!("{stem}.{ext}"))
                })
                .collect();
            assert_eq!(listing(ctx.artifacts_dir.as_deref().unwrap()), artifacts);
        }
        let [a, b] = ctxs.map(|ctx| ctx.manifest().to_json());
        assert_eq!(a, b);
        let digest = |bytes: &[u8]| format!("{:016x}", ursa_sim::topology::Fnv::digest(bytes));
        assert_eq!(digest(a.as_bytes()), "a8799e179fd89a12", "{a}");
        // The collectors scraped the traced chains; tracing alongside them
        // must not move a bit of their stores.
        let [sa, sb] = chains.map(|side| {
            let mut bytes = Vec::new();
            for (_, metrics) in side {
                let metrics = metrics.expect("armed by the artifacts directory");
                let store = metrics.store();
                for &t in store.times() {
                    bytes.extend(t.to_bits().to_le_bytes());
                }
                for (key, col) in store.iter() {
                    let name = key.render();
                    bytes.extend(name.as_bytes());
                    bytes.extend((name.len() as u64).to_le_bytes());
                    for &v in col {
                        bytes.extend(v.to_bits().to_le_bytes());
                    }
                }
            }
            digest(&bytes)
        });
        assert_eq!(sa, sb);
        assert_eq!(sa, "b23488769d1753b5");
        let doc = ursa_metrics::json::parse_json(&a).unwrap();
        let tables = doc.get("tables").and_then(|t| t.as_obj()).unwrap();
        assert_eq!(tables.len(), 3, "{a}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Every application's model, prepared as Figs. 11–12 prepare it at
    /// Quick scale, leaves no class to the DP at query time: each class's
    /// option space fits the solver's verdict tables. (The social network
    /// is checked in tier-1 too, by `tests/pipeline.rs`.)
    #[test]
    fn quick_models_are_fully_tabulated() {
        let grid = Scale::Quick.exploration().percentile_grid;
        for (ai, app) in ursa_apps::all_apps().iter().enumerate() {
            let ursa = prepare_ursa(app, Scale::Quick, 0x11_12 + ai as u64);
            let rates = default_rates(app);
            let model = ursa_core::optimizer::build_model(
                ursa.exploration(),
                &ursa.outcome().slas,
                &rates,
                &grid,
            );
            let solver = ursa_mip::Solver::new(&model).expect("prepared once already");
            assert_eq!(solver.untabulated_classes(), 0, "{}", app.name);
        }
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
    fn level_gating() {
        set_level(Level::Quiet);
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Info);
    }

    #[test]
    fn macros_compile_at_all_levels() {
        crate::info!("info {}", 1);
        // Non-literal first argument: only works because `warn!` is the
        // shared `ursa_metrics::log_warn!`, whose matcher takes any
        // format expression.
        let fmt = format!("warn {}", 2);
        crate::warn!("{}", fmt);
        crate::debug!("debug {}", 3);
    }

    #[test]
    fn default_rates_sum_to_default_rps() {
        let app = ursa_apps::social_network(false);
        let rates = default_rates(&app);
        let total: f64 = rates.iter().sum();
        assert!((total - app.default_rps).abs() < 1e-9);
    }
}
