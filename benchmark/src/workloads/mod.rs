//! The four workloads and the loop that drives any of them.
//!
//! Every workload is a fixed *unit* of deterministic work repeated in one
//! process: set-up, one untimed warm-up unit, then timed units until
//! `--seconds` have passed. A unit is a fixed sequence of *parts* (control
//! windows, grid cells, control-plane phases), each timed on its own.
//!
//! A timing is the sum over parts of each part's fastest repetition. All
//! units of a run do bit-identical work, so whatever makes one repetition
//! of a part slower than another is the host, not the program; on the
//! shared two-core sandbox this runs on, stalls come in sub-second bursts
//! that hit some part of nearly every unit, and the median unit moves by
//! 7–10 % between runs where the part-wise fastest moves by 2–3 %.

pub mod control;
pub mod engine;
pub mod grid;

use crate::spans::Recorder;
use crate::{catalogue, host};
use std::collections::BTreeMap;
use std::time::Instant;

/// Options of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cfg {
    /// The only input: mixed into every simulator and generator seed.
    pub seed: u64,
    /// How long to keep starting timed units.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Tiny units, one of each, plus the injected-failure self-test.
    pub smoke: bool,
}

/// What one unit did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitOut {
    /// Operations attempted (control windows, cells, decisions).
    pub ops: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Seconds per part, in the unit's fixed part order.
    pub parts: Vec<f64>,
    /// Work items behind `work_per_s` (see README for each workload's).
    pub work: f64,
    /// The work was done in the first `work_parts` parts.
    pub work_parts: usize,
    /// Digest of the unit's outputs; equal across units of one run.
    pub digest: u64,
}

/// Part-wise fastest repetition over the units seen so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Folds one more unit's parts in.
    ///
    /// # Panics
    ///
    /// Panics if the unit has a different number of parts: units of one
    /// workload all have the same shape.
    pub fn absorb(&mut self, parts: &[f64]) {
        if self.0.is_empty() {
            self.0 = parts.to_vec();
            return;
        }
        assert_eq!(self.0.len(), parts.len(), "units differ in shape");
        for (best, &p) in self.0.iter_mut().zip(parts) {
            *best = best.min(p);
        }
    }

    /// Seconds per part, each at its fastest.
    pub fn parts(&self) -> &[f64] {
        &self.0
    }

    /// Seconds of the first `n` parts, each at its fastest.
    pub fn secs(&self, n: usize) -> f64 {
        self.0.iter().take(n).sum()
    }

    /// Seconds of the whole unit, each part at its fastest.
    pub fn total(&self) -> f64 {
        self.secs(self.0.len())
    }
}

/// Per-layer metrics by catalogue name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a per-layer value.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list: the reported set is
    /// fixed by `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = catalogue::per_layer(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue"));
        self.0.insert(metric.name, value);
    }

    /// The recorded value (0 when this run did not measure the layer).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a traced run hands a workload to derive per-layer metrics from.
#[derive(Debug, Clone, Copy)]
pub struct Traced<'a> {
    /// The fastest traced unit: span sums are read from it.
    pub unit: u32,
    /// The untraced units of the same run, each part at its fastest: the
    /// base overheads and speed-ups are taken against.
    pub untraced: &'a Fastest,
}

/// A workload: set-up, a repeatable unit, and its traced extras.
pub trait Workload: Sized {
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// How many times set-up is repeated; `setup_s` is the fastest. Short
    /// set-ups repeat; multi-second ones are long enough to be steady.
    const SETUP_REPS: usize;
    /// Whether an untimed unit runs first (caches, allocator, lazy init).
    const WARM_UP: bool;
    /// Timed units a run makes even when `--seconds` is over sooner, so
    /// that every part has repetitions to take the fastest of.
    const MIN_UNITS: usize;

    /// Builds everything a unit needs.
    fn setup(cfg: &Cfg, rec: &mut Recorder) -> Self;

    /// Runs one unit. With `rec` enabled it also records spans and the
    /// samples the per-layer metrics need.
    fn unit(&mut self, rec: &mut Recorder) -> UnitOut;

    /// Per-layer metrics: from the spans of the traced units (numbered
    /// from 1; set-up spans carry unit 0), plus the probes this workload
    /// hosts.
    fn layers(&mut self, rec: &Recorder, traced: Traced<'_>, out: &mut Layers);

    /// Runs each check once more on deliberately corrupted data and
    /// returns how many failures were detected (the smoke test expects
    /// exactly one per workload).
    fn selftest(&mut self) -> u64;
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Options the run was made with.
    pub cfg: Cfg,
    /// Operations attempted over set-up and all units.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds per timed untraced unit, as run.
    pub unit_walls: Vec<f64>,
    /// Seconds per part, each at its fastest; they sum to `wall_s`.
    pub parts_s: Vec<f64>,
    /// Work per second of its parts at their fastest (`work_per_s`).
    pub work_per_s: f64,
    /// `VmHWM` when the units were done.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// The traced unit the span sums were read from.
    pub traced_unit: Option<u32>,
    /// Detected failures of the injected-failure self-test (smoke only).
    pub selftest_failed: Option<u64>,
}

impl RunResult {
    /// The end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static catalogue::Metric, f64)> {
        catalogue::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "setup_s" => self.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                    "wall_s" => self.parts_s.iter().sum(),
                    "work_per_s" => self.work_per_s,
                    "peak_rss_mb" => self.peak_rss_mb,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m, v)
            })
            .collect()
    }

    /// True when nothing failed and every reported number is finite and,
    /// end to end, positive.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && if self.cfg.traced {
                catalogue::PER_LAYER
                    .iter()
                    .all(|m| self.layers.get(m.name).is_finite())
            } else {
                self.end_to_end()
                    .iter()
                    .all(|(_, v)| v.is_finite() && *v > 0.0)
            }
    }
}

/// Drives workload `W` once under `cfg`.
pub fn drive<W: Workload>(cfg: &Cfg) -> (RunResult, Recorder) {
    let mut rec = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut workload = None;
    for rep in 0..W::SETUP_REPS {
        // Only the last repetition is kept, so only it is traced.
        rec.set_enabled(cfg.traced && rep + 1 == W::SETUP_REPS);
        let t = Instant::now();
        workload = Some(W::setup(cfg, &mut rec));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up repetition");
    // Each set-up is one attempted operation of the run.
    let (mut attempted, mut failed) = (W::SETUP_REPS as u64, 0u64);

    let mut reference = None;
    let mut check = |out: &UnitOut, attempted: &mut u64, failed: &mut u64| {
        *attempted += out.ops;
        *failed += out.failed;
        if *reference.get_or_insert(out.digest) != out.digest {
            *failed += 1;
        }
    };

    rec.set_enabled(false);
    if W::WARM_UP {
        let out = w.unit(&mut rec);
        check(&out, &mut attempted, &mut failed);
    }

    let (mut untraced, mut traced) = (Fastest::default(), Fastest::default());
    let mut unit_walls = Vec::new();
    // The fastest traced unit and its wall.
    let mut best_traced: Option<(u32, f64)> = None;
    let mut unit_id = 0u32;
    let min_units = if cfg.smoke { 1 } else { W::MIN_UNITS };
    let started = Instant::now();
    let (work, work_parts) = loop {
        rec.set_enabled(false);
        let out = w.unit(&mut rec);
        check(&out, &mut attempted, &mut failed);
        untraced.absorb(&out.parts);
        unit_walls.push(out.parts.iter().sum());
        let work = (out.work, out.work_parts);
        if cfg.traced {
            // Untraced and traced units alternate, so the overhead of
            // tracing is a difference of neighbours, not of processes.
            unit_id += 1;
            rec.set_enabled(true);
            rec.set_unit(unit_id);
            let out = w.unit(&mut rec);
            check(&out, &mut attempted, &mut failed);
            traced.absorb(&out.parts);
            let wall: f64 = out.parts.iter().sum();
            if best_traced.is_none_or(|(_, best)| wall < best) {
                best_traced = Some((unit_id, wall));
            }
        }
        // A traced pair counts for two.
        let units = unit_walls.len() * if cfg.traced { 2 } else { 1 };
        if units >= min_units && started.elapsed().as_secs_f64() >= cfg.seconds {
            break work;
        }
    };
    let peak_rss_mb = host::peak_rss_mb();

    let mut layers = Layers::default();
    if let Some((unit, _)) = best_traced {
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (traced.total() - untraced.total()) / untraced.total(),
        );
        layers.set("bench.span_coverage_pct", rec.coverage_pct(unit));
        let handed = Traced {
            unit,
            untraced: &untraced,
        };
        w.layers(&rec, handed, &mut layers);
    }
    let selftest_failed = cfg.smoke.then(|| w.selftest());

    let result = RunResult {
        workload: W::NAME,
        cfg: *cfg,
        attempted,
        failed,
        setup_s,
        unit_walls,
        parts_s: untraced.parts().to_vec(),
        work_per_s: work / untraced.secs(work_parts),
        peak_rss_mb,
        layers,
        traced_unit: best_traced.map(|(unit, _)| unit),
        selftest_failed,
    };
    (result, rec)
}

/// Drives the workload called `name`, or `None` for an unknown name.
pub fn drive_by_name(name: &str, cfg: &Cfg) -> Option<(RunResult, Recorder)> {
    match name {
        engine::Steady::NAME => Some(drive::<engine::Steady>(cfg)),
        engine::Overload::NAME => Some(drive::<engine::Overload>(cfg)),
        grid::Grid::NAME => Some(drive::<grid::Grid>(cfg)),
        control::Control::NAME => Some(drive::<control::Control>(cfg)),
        _ => None,
    }
}

/// FNV-1a over 64-bit words: the digest units are compared by.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
