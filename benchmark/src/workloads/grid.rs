//! `manager_grid`: the "social" block of the fig11/12 grid through the
//! harness — what `ursa-bench --exp fig11` users wait for.
//!
//! Set-up is `PreparedManagers::prepare` (Ursa's offline phase, Sinan's
//! collection and training, Firm's training); a unit is one pass over the
//! 25 cells (5 loads × 5 systems) with the experiment's own seeds, one
//! part per cell. At seed 0 the rows must equal the committed
//! `results/fig11_12` rows.
//!
//! `--seed` reaches the deployments, not the preparation: the managers
//! are always the ones the committed results were produced with. At
//! quick scale Ursa's offline phase is not feasible under every seed
//! (`prepare_ursa` panics with `Infeasible { class: 0 }` at global seed
//! 8), and a benchmark may only run operations that succeed.

use super::{digest, Cfg, Layers, Traced, UnitOut, Workload};
use crate::spans::{Recorder, OWN_LAYER};
use crate::{host, stats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ursa_apps::{social_network, App};
use ursa_bench::experiments::fig11_12::cell_inputs;
use ursa_bench::{runner, LoadSpec, PreparedManagers, Scale, System};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::time::SimDur;
use ursa_sim::workload::RateFn;

const BENCH: &str = "ursa-bench";

/// The seeds `fig11_12::run` gives application 0 ("social").
const PREPARE_SEED: u64 = 0x11_12;
const DEPLOY_SEED: u64 = 0xDE_9107;

/// One grid row as the experiment's TSV prints it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Load scenario label.
    pub load: String,
    /// System label.
    pub system: String,
    /// `violation_rate`, four decimals.
    pub violation_rate: String,
    /// `avg_cores`, one decimal.
    pub avg_cores: String,
}

/// What one cell returned, before formatting.
#[derive(Debug, Clone, Copy)]
struct CellOut {
    violation_rate: f64,
    avg_cores: f64,
    decision_wall_ms: f64,
    wall_s: f64,
}

/// `manager_grid`.
#[derive(Debug)]
pub struct Grid {
    seed: u64,
    app: App,
    managers: PreparedManagers,
    cells: Vec<(usize, LoadSpec, usize)>,
    /// The committed rows, compared only at seed 0 (any other seed is an
    /// independent replicate with no reference).
    golden: Option<Vec<Row>>,
    /// Cells of the latest pass.
    last: Vec<Option<CellOut>>,
    mismatched: u64,
}

/// The "social" rows of the committed fig11/12 table.
fn golden_rows() -> Result<Vec<Row>, String> {
    let path = host::repo_root().join("results/fig11_12/fig11_12.tsv");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rows: Vec<Row> = text
        .lines()
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .filter(|f| f.len() == 5 && f[0] == "social")
        .map(|f| Row {
            load: f[1].into(),
            system: f[2].into(),
            violation_rate: f[3].into(),
            avg_cores: f[4].into(),
        })
        .collect();
    if rows.is_empty() {
        return Err(format!("no social rows in {}", path.display()));
    }
    Ok(rows)
}

/// Rows that differ from their golden row (a missing row differs).
pub fn rows_mismatched(rows: &[Row], golden: &[Row]) -> u64 {
    let differing = rows.iter().zip(golden).filter(|(a, b)| a != b).count();
    (differing + rows.len().abs_diff(golden.len())) as u64
}

/// A result no deployment can produce.
fn out_of_range(cell: &CellOut) -> bool {
    !(0.0..=1.0).contains(&cell.violation_rate)
        || !cell.avg_cores.is_finite()
        || cell.avg_cores <= 0.0
}

impl Grid {
    fn deploy(&self, cell: &(usize, LoadSpec, usize), metrics: Option<&mut SimMetrics>) -> CellOut {
        let (li, load, si) = cell;
        let t = Instant::now();
        let report = self.managers.deploy_cell(
            &self.app,
            System::ALL[*si],
            load,
            Scale::Quick,
            DEPLOY_SEED ^ ((*li as u64) << 8) ^ *si as u64,
            metrics,
        );
        CellOut {
            violation_rate: report.overall_violation_rate(),
            avg_cores: report.avg_cpu_allocation(),
            decision_wall_ms: report.decision_wall_ms,
            wall_s: t.elapsed().as_secs_f64(),
        }
    }

    /// The finished cells as the experiment's TSV would print them.
    fn rows(&self, outs: &[Option<CellOut>]) -> Vec<Row> {
        self.cells
            .iter()
            .zip(outs)
            .filter_map(|(cell, out)| {
                out.as_ref().map(|out| Row {
                    load: cell.1.label(),
                    system: System::ALL[cell.2].label().into(),
                    violation_rate: format!("{:.4}", out.violation_rate),
                    avg_cores: format!("{:.1}", out.avg_cores),
                })
            })
            .collect()
    }

    /// Control windows of one cell (duration ÷ the one-minute interval).
    fn windows_per_cell() -> u64 {
        Scale::Quick.deploy_duration().as_nanos() / SimDur::from_mins(1).as_nanos()
    }
}

impl Workload for Grid {
    const NAME: &'static str = "manager_grid";
    const SETUP_REPS: usize = 1;
    const WARM_UP: bool = false;
    // A pass is eleven seconds; three give every cell three repetitions.
    const MIN_UNITS: usize = 3;

    fn setup(cfg: &Cfg, rec: &mut Recorder) -> Self {
        runner::set_jobs(1);
        let app = social_network(false);
        ursa_bench::set_seed(0);
        let span = rec.enter("prepare", BENCH);
        let managers = PreparedManagers::prepare(&app, Scale::Quick, PREPARE_SEED);
        rec.exit(span, 0);
        ursa_bench::set_seed(cfg.seed);
        let mut cells = cell_inputs(&app);
        if cfg.smoke {
            cells.truncate(System::ALL.len());
        }
        let golden = (cfg.seed == 0).then(|| {
            let mut rows = golden_rows().unwrap_or_else(|e| panic!("{e}"));
            rows.truncate(cells.len());
            rows
        });
        Grid {
            seed: cfg.seed,
            app,
            managers,
            cells,
            golden,
            last: Vec::new(),
            mismatched: 0,
        }
    }

    fn unit(&mut self, rec: &mut Recorder) -> UnitOut {
        let unit = rec.enter("unit", OWN_LAYER);
        let mut outs = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let span = rec.enter("cell", OWN_LAYER);
            let inner = rec.enter("deploy_cell", BENCH);
            let out = catch_unwind(AssertUnwindSafe(|| self.deploy(cell, None))).ok();
            rec.exit(inner, Self::windows_per_cell());
            rec.exit(span, 0);
            outs.push(out);
        }
        let rows = self.rows(&outs);
        let broken = outs
            .iter()
            .filter(|o| o.as_ref().is_none_or(out_of_range))
            .count() as u64;
        self.mismatched = self
            .golden
            .as_ref()
            .map_or(0, |golden| rows_mismatched(&rows, golden));
        let words: Vec<u64> = outs
            .iter()
            .flatten()
            .flat_map(|o| [o.violation_rate.to_bits(), o.avg_cores.to_bits()])
            .collect();
        let parts: Vec<f64> = outs
            .iter()
            .map(|o| o.as_ref().map_or(0.0, |o| o.wall_s))
            .collect();
        let out = UnitOut {
            ops: self.cells.len() as u64,
            failed: broken + self.mismatched,
            work: (self.cells.len() as u64 * Self::windows_per_cell()) as f64,
            work_parts: parts.len(),
            parts,
            digest: digest(words),
        };
        self.last = outs;
        rec.exit(unit, out.ops);
        out
    }

    fn layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers) {
        let prepare_s = rec.durations("prepare", Some(0)).iter().sum::<f64>() / 1e9;
        let cell_s: Vec<f64> = rec
            .durations("cell", Some(traced.unit))
            .iter()
            .map(|ns| ns / 1e9)
            .collect();
        let deploy_s: f64 = cell_s.iter().sum();
        out.set("bench.prepare_s", prepare_s);
        out.set("bench.deploy_s", deploy_s);
        out.set("bench.cell_s_p50", stats::median(&cell_s));
        out.set(
            "bench.cell_s_max",
            cell_s.iter().copied().fold(0.0, f64::max),
        );
        // Cell spans are in cell order; simulated results and tick costs
        // are the latest pass's (results are equal across passes).
        let cells = || self.cells.iter().zip(&self.last).zip(&cell_s);
        for (si, system) in System::ALL.iter().enumerate() {
            let wall: f64 = cells()
                .filter(|((cell, _), _)| cell.2 == si)
                .map(|(_, s)| s)
                .sum();
            out.set(&format!("bench.deploy_s.{}", system.label()), wall);
        }
        let done = || self.cells.iter().zip(self.last.iter().flatten());
        let tick_s: f64 = done()
            .map(|(_, o)| o.decision_wall_ms / 1e3 * Self::windows_per_cell() as f64)
            .sum();
        out.set("bench.tick_share_pct", 100.0 * tick_s / deploy_s);
        out.set("bench.golden_rows_mismatched", self.mismatched as f64);
        let ursa: Vec<&CellOut> = done()
            .filter(|(cell, _)| System::ALL[cell.2] == System::Ursa)
            .map(|(_, o)| o)
            .collect();
        let mean = |f: fn(&CellOut) -> f64| {
            ursa.iter().map(|c| f(c)).sum::<f64>() / ursa.len().max(1) as f64
        };
        out.set(
            "core.ursa_violation_pct",
            100.0 * mean(|c| c.violation_rate),
        );
        out.set("core.ursa_avg_cores", mean(|c| c.avg_cores));

        // The per-cell clone that keeps cells independent of order.
        let clones: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.managers.clone());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("bench.clone_ms", stats::median(&clones));

        // The same pass through the cell-parallel runner at two workers.
        // With fewer than two cores the ratio would measure
        // oversubscription, so it is not taken (0 = n/a).
        if host::nproc() >= 2 {
            runner::set_jobs(2);
            let wall = (0..2)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(runner::run_cells(self.cells.clone(), |_, cell| {
                        self.deploy(&cell, None)
                    }));
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            runner::set_jobs(1);
            out.set("bench.jobs2_speedup", traced.untraced.total() / wall);
        }

        self.metrics_probes(traced.untraced.parts(), out);
    }

    fn selftest(&mut self) -> u64 {
        // One wrong golden row must fail exactly one operation.
        let rows = self.rows(&self.last);
        let mut golden = rows.clone();
        if let Some(row) = golden.first_mut() {
            row.avg_cores.push('9');
        }
        rows_mismatched(&rows, &golden)
    }
}

impl Grid {
    /// The metrics plane, which the grid itself runs without: what
    /// metering the five constant-load cells adds (each cell the faster of
    /// two metered runs, against its fastest unmetered run in `plain`),
    /// and direct timings of one observe, one scrape and one artifact
    /// write.
    fn metrics_probes(&self, plain: &[f64], out: &mut Layers) {
        let (mut metered_s, mut plain_s) = (0.0, 0.0);
        for (cell, plain) in self.cells.iter().zip(plain) {
            if cell.1 != LoadSpec::Constant {
                continue;
            }
            let label = System::ALL[cell.2].label();
            let fastest = (0..2)
                .map(|_| {
                    let mut m = SimMetrics::for_topology(label, &self.app.topology, &self.app.slas);
                    self.deploy(cell, Some(&mut m)).wall_s
                })
                .fold(f64::INFINITY, f64::min);
            metered_s += fastest;
            plain_s += plain;
        }
        out.set(
            "metrics.metered_overhead_pct",
            100.0 * (metered_s - plain_s) / plain_s,
        );

        let mut sim = self.app.build_sim(0x3E7 ^ self.seed);
        self.app
            .apply_load(&mut sim, RateFn::Constant(self.app.default_rps));
        let mut m = SimMetrics::for_topology("probe", &self.app.topology, &self.app.slas);
        let (mut observe_us, mut scrape_us) = (Vec::new(), Vec::new());
        for _ in 0..30 {
            sim.run_for(SimDur::from_mins(1));
            let snap = sim.harvest();
            let t = Instant::now();
            m.observe_snapshot(&sim, &snap);
            observe_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            m.scrape(snap.at);
            scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.set("metrics.observe_us_p50", stats::median(&observe_us));
        out.set("metrics.scrape_us_p50", stats::median(&scrape_us));

        // Artifacts go to a scratch directory of the benchmark's own,
        // never to `results/`.
        let dir = host::out_dir().join(format!("artifacts-{}", std::process::id()));
        let t = Instant::now();
        let written = m.write_artifacts(&dir, "probe", "benchmark probe");
        out.set(
            "metrics.write_artifacts_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        let bytes: u64 = written
            .iter()
            .flatten()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|meta| meta.len())
            .sum();
        out.set("metrics.artifact_bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
