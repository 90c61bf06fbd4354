//! The simulator-side metrics pipeline: turns [`MetricsSnapshot`]s into
//! rows of an [`ursa_metrics`] time-series store, one per harvest interval.
//!
//! Collection is strictly *pull*-based and sits outside the simulation:
//! [`SimMetrics`] only reads snapshots the simulator already produced (plus
//! pure accessors like [`Simulation::worker_occupancy`]), draws no random
//! numbers, and advances no simulated time. A run with metrics disabled
//! (`None` passed to
//! [`run_deployment_observed`](crate::control::run_deployment_observed))
//! therefore produces bit-identical results to a metered run — the
//! collector is zero-cost when absent and invisible when present. Wall-clock
//! measurements (control-tick timing) flow *into* the metrics only; they
//! never feed back into simulation state.
//!
//! [`SimMetrics`] keeps the current value of every series: gauges are
//! overwritten, `_total` counters add or take the running total, and every
//! series persists into each later row. A scrape appends those values as
//! one store row.
//!
//! Exported series (scraped at each harvest time, in seconds):
//!
//! | series | labels | meaning |
//! |---|---|---|
//! | `service_cpu_utilization` | `service` | busy/capacity core-seconds in the window |
//! | `service_replicas` | `service` | live replica count |
//! | `service_cores_per_replica` | `service` | CPU limit |
//! | `service_worker_occupancy` | `service` | busy worker slots / total (instantaneous) |
//! | `service_mq_depth_mean`, `service_mq_depth_max` | `service` | shared-queue depth over the window |
//! | `service_arrival_rps` | `service` | per-service arrival rate |
//! | `class_offered_rps` | `class` | injected load |
//! | `class_latency_p50/p95/p99` | `class` | end-to-end latency percentiles (gap when idle) |
//! | `class_completions_total`, `class_injections_total` | `class` | cumulative counters |
//! | `total_allocated_cores` | — | all replicas, live and draining |
//! | `sim_events_live_total` | — | scheduler: events dispatched |
//! | `sim_event_heap_depth`, `sim_event_heap_max_depth` | — | scheduler: event-queue occupancy |
//! | `class_sla_violated` | `class` | the window's SLA verdict, [`Sla::violated_in`]: 1 or 0 (gap when idle) |
//! | `ctrl_tick_wall_ms_{p50,p90,p99,max}` | `system` | control-tick wall time (exact, over every tick so far) |
//! | `ctrl_ticks_total`, `ctrl_scale_events_total` | `system` (+`service`) | decision activity |
//! | manager [`self_profile`](crate::control::ResourceManager::self_profile) series | `system` | controller internals |
//!
//! `class_sla_violated` is the verdict the deployment report counts, so
//! its mean over the post-warmup rows is
//! [`class_violation_rate`](crate::control::DeploymentReport::class_violation_rate).
//! Scale decisions also become dashboard [`Annotation`]s, so the HTML
//! dashboard overlays control actions on every panel; the managers'
//! self-profiling series get a "Controller internals" panel of their own.

use crate::control::Sla;
use crate::engine::Simulation;
use crate::telemetry::MetricsSnapshot;
use crate::time::SimTime;
use crate::topology::{ServiceId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use ursa_metrics::{render_dashboard, Annotation, Labels, PanelSpec, SeriesKey, TimeSeriesStore};
use ursa_stats::percentile_of_sorted;

/// End-to-end latency percentiles exported per class.
const LATENCY_PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// Metrics collector for one deployment run.
///
/// Create one per run (scrape times must be strictly increasing), hand it
/// to [`run_deployment_observed`](crate::control::run_deployment_observed),
/// then render with [`write_artifacts`](Self::write_artifacts) or inspect
/// via [`store`](Self::store).
#[derive(Debug, Clone)]
pub struct SimMetrics {
    system: String,
    service_names: Vec<String>,
    class_names: Vec<String>,
    /// The current value of every series; each scrape appends it as a row.
    values: BTreeMap<SeriesKey, f64>,
    /// Every control tick's wall time (ms), ascending; a scrape fans them
    /// out to the `ctrl_tick_wall_ms_*` series.
    tick_walls_ms: Vec<f64>,
    store: TimeSeriesStore,
    /// The SLAs whose window verdicts become `class_sla_violated`.
    slas: Vec<Sla>,
    annotations: Vec<Annotation>,
    /// Names of the manager self-profiling series
    /// [`observe_decision`](Self::observe_decision) received; they make up
    /// the "Controller internals" panel.
    profile_names: BTreeSet<&'static str>,
}

impl SimMetrics {
    /// Creates a collector for simulations of `topo` labeled with the
    /// managing `system` ("ursa", "sinan", ...). Each of `slas` (possibly
    /// empty) exports its class's window verdict.
    pub fn for_topology(system: &str, topo: &Topology, slas: &[Sla]) -> Self {
        let service_names: Vec<String> = topo.services().iter().map(|s| s.name.clone()).collect();
        let class_names: Vec<String> = topo.classes().iter().map(|c| c.name.clone()).collect();
        SimMetrics {
            system: system.to_string(),
            service_names,
            class_names,
            values: BTreeMap::new(),
            tick_walls_ms: Vec::new(),
            store: TimeSeriesStore::new(),
            slas: slas.to_vec(),
            annotations: Vec::new(),
            profile_names: BTreeSet::new(),
        }
    }

    /// The system label this collector was created with.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// The scraped time-series store.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Dashboard annotations accumulated so far (scale events and any
    /// added through [`annotate`](Self::annotate)).
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Updates the per-service, per-class, and SLA-verdict series from one
    /// harvest window. Reads `sim` only through pure accessors.
    pub fn observe_snapshot(&mut self, sim: &Simulation, snap: &MetricsSnapshot) {
        let window = snap.window;
        for (i, svc) in snap.services.iter().enumerate() {
            let labels = Labels::new(&[("service", &self.service_names[i])]);
            let gauges = [
                ("service_cpu_utilization", svc.cpu_utilization),
                ("service_replicas", svc.replicas as f64),
                ("service_cores_per_replica", svc.cores_per_replica),
                (
                    "service_worker_occupancy",
                    sim.worker_occupancy(ServiceId(i)),
                ),
                ("service_mq_depth_mean", svc.mq_depth_mean),
                ("service_mq_depth_max", svc.mq_depth_max as f64),
                ("service_arrival_rps", svc.arrival_rps(window)),
            ];
            for (name, v) in gauges {
                self.set(name, labels.clone(), v);
            }
        }
        for c in 0..self.class_names.len() {
            let labels = Labels::new(&[("class", &self.class_names[c])]);
            self.set(
                "class_offered_rps",
                labels.clone(),
                snap.injections[c] as f64 / window.as_secs_f64().max(1e-9),
            );
            self.add(
                "class_completions_total",
                labels.clone(),
                snap.completions[c] as f64,
            );
            self.add(
                "class_injections_total",
                labels.clone(),
                snap.injections[c] as f64,
            );
            // NaN when the window had no completions: the store keeps a gap
            // instead of forward-filling a stale percentile.
            for p in LATENCY_PERCENTILES {
                let v = snap.e2e_latency[c].percentile(p).unwrap_or(f64::NAN);
                self.set(&format!("class_latency_p{p:.0}"), labels.clone(), v);
            }
        }
        self.set(
            "total_allocated_cores",
            Labels::empty(),
            sim.total_allocated_cores(),
        );
        // Scheduler internals, surfaced so queue pathologies are visible
        // next to the workload series.
        self.set_total(
            "sim_events_live_total",
            Labels::empty(),
            sim.events_processed() as f64,
        );
        self.set(
            "sim_event_heap_depth",
            Labels::empty(),
            sim.event_heap_depth() as f64,
        );
        self.set(
            "sim_event_heap_max_depth",
            Labels::empty(),
            sim.event_heap_max_depth() as f64,
        );
        for sla in &self.slas {
            let labels = Labels::new(&[("class", &self.class_names[sla.class.0])]);
            let verdict = sla.violated_in(snap).map_or(f64::NAN, f64::from);
            self.values
                .insert(SeriesKey::new("class_sla_violated", labels), verdict);
        }
    }

    /// Sets the gauge `name{labels}`.
    fn set(&mut self, name: &str, labels: Labels, v: f64) {
        self.values.insert(SeriesKey::new(name, labels), v);
    }

    /// Adds `v` to the counter `name{labels}`, which starts at zero.
    fn add(&mut self, name: &str, labels: Labels, v: f64) {
        *self
            .values
            .entry(SeriesKey::new(name, labels))
            .or_insert(0.0) += v;
    }

    /// Sets the counter `name{labels}` to the running total `v` (for
    /// sources that keep their own); it never moves backwards.
    fn set_total(&mut self, name: &str, labels: Labels, v: f64) {
        let total = self
            .values
            .entry(SeriesKey::new(name, labels))
            .or_insert(0.0);
        *total = total.max(v);
    }

    /// Records one control-plane decision: tick wall time, the manager's
    /// [`self_profile`](crate::control::ResourceManager::self_profile)
    /// series, and replica changes (each becomes a `scale` annotation).
    ///
    /// `scale_changes` entries are `(service name, replicas before,
    /// replicas after)` for services the tick actually changed.
    pub fn observe_decision(
        &mut self,
        at: SimTime,
        wall_ms: f64,
        profile: &[(&'static str, f64)],
        scale_changes: &[(String, usize, usize)],
    ) {
        let slot = self.tick_walls_ms.partition_point(|&w| w < wall_ms);
        self.tick_walls_ms.insert(slot, wall_ms);
        let sys = Labels::new(&[("system", &self.system)]);
        self.add("ctrl_ticks_total", sys.clone(), 1.0);
        for &(name, v) in profile {
            self.profile_names.insert(name);
            // Managers report cumulative totals under `*_total`; everything
            // else is a point-in-time gauge.
            if name.ends_with("_total") {
                self.set_total(name, sys.clone(), v);
            } else {
                self.set(name, sys.clone(), v);
            }
        }
        for (service, before, after) in scale_changes {
            let labels = Labels::new(&[("system", &self.system), ("service", service)]);
            self.add("ctrl_scale_events_total", labels, 1.0);
            self.annotations.push(Annotation::new(
                at.as_secs_f64(),
                "scale",
                &format!("{service}: {before} -> {after} replicas"),
            ));
        }
    }

    /// Adds a free-form dashboard annotation (e.g. an injected anomaly or
    /// experiment phase boundary). `kind` selects the marker style:
    /// `"scale"` has a dedicated color, anything else is neutral.
    pub fn annotate(&mut self, at: SimTime, kind: &str, label: &str) {
        self.annotations
            .push(Annotation::new(at.as_secs_f64(), kind, label));
    }

    /// Appends the current value of every series to the store as one row
    /// at `at`, plus, once a tick was observed, the exact p50/p90/p99 and
    /// max of every tick wall so far.
    ///
    /// # Panics
    ///
    /// Panics if `at` does not advance past the previous scrape (one
    /// collector serves one run).
    pub fn scrape(&mut self, at: SimTime) {
        let walls = &self.tick_walls_ms;
        let tick_cells = walls.last().map(|&max| {
            let labels = Labels::new(&[("system", &self.system)]);
            [
                ("p50", percentile_of_sorted(walls, 50.0)),
                ("p90", percentile_of_sorted(walls, 90.0)),
                ("p99", percentile_of_sorted(walls, 99.0)),
                ("max", max),
            ]
            .map(|(stat, v)| {
                let name = format!("ctrl_tick_wall_ms_{stat}");
                (SeriesKey::new(&name, labels.clone()), v)
            })
        });
        let row = self.values.iter().map(|(key, &v)| (key.clone(), v));
        self.store.append_row(
            at.as_secs_f64(),
            row.chain(tick_cells.into_iter().flatten()),
        );
    }

    /// The default dashboard layout for a deployment run.
    pub fn standard_panels(&self) -> Vec<PanelSpec> {
        let mut panels = vec![
            PanelSpec::new(
                "End-to-end latency",
                "s",
                &["class_latency_p50", "class_latency_p99"],
            )
            .log_y(),
            PanelSpec::new("Offered load", "req/s", &["class_offered_rps"]),
            PanelSpec::new("Replicas", "", &["service_replicas"]),
            PanelSpec::new("CPU utilization", "", &["service_cpu_utilization"]),
            PanelSpec::new("Worker occupancy", "", &["service_worker_occupancy"]),
            PanelSpec::new(
                "Shared-queue depth (window mean)",
                "",
                &["service_mq_depth_mean"],
            ),
            PanelSpec::new("Total allocated cores", "cores", &["total_allocated_cores"]),
        ];
        if !self.slas.is_empty() {
            panels.push(PanelSpec::new(
                "SLA verdict (class_sla_violated: 1 = violated)",
                "",
                &["class_sla_violated"],
            ));
        }
        panels.push(
            PanelSpec::new(
                "Control tick wall time",
                "ms",
                &["ctrl_tick_wall_ms_p50", "ctrl_tick_wall_ms_p99"],
            )
            .log_y(),
        );
        if !self.profile_names.is_empty() {
            let names: Vec<&str> = self.profile_names.iter().copied().collect();
            panels.push(PanelSpec::new("Controller internals", "", &names));
        }
        panels
    }

    /// Writes the run's dashboard, `<stem>.html`, under `dir` (created if
    /// missing) and returns its path. The dashboard uses
    /// [`standard_panels`](Self::standard_panels) with all accumulated
    /// annotations overlaid.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_artifacts(&self, dir: &Path, stem: &str, title: &str) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let html = dir.join(format!("{stem}.html"));
        let subtitle = format!(
            "system: {} — {} scrapes, {} series",
            self.system,
            self.store.len(),
            self.store.num_series()
        );
        let page = render_dashboard(
            title,
            &subtitle,
            &self.store,
            &self.standard_panels(),
            &self.annotations,
        );
        std::fs::write(&html, page)?;
        Ok(vec![html])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{
        run_deployment, run_deployment_observed, ControlPlane, DeployConfig, ResourceManager,
        StaticManager,
    };
    use crate::engine::SimConfig;
    use crate::time::SimDur;
    use crate::topology::{
        CallNode, ClassCfg, ClassId, Fnv, Priority, ServiceCfg, Topology, WorkDist,
    };
    use crate::workload::RateFn;

    fn sim(seed: u64) -> Simulation {
        let topo = Topology::new(
            vec![ServiceCfg::new("api", 2.0)],
            vec![ClassCfg {
                name: "get".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
            }],
        )
        .unwrap();
        let mut s = Simulation::new(topo, SimConfig::default(), seed);
        s.set_rate(ClassId(0), RateFn::Constant(300.0));
        s
    }

    /// Scales to 3 replicas on its second tick, reporting a profile: a
    /// running total and a gauge.
    struct ScaleOnce {
        ticks: u64,
    }

    impl ResourceManager for ScaleOnce {
        fn name(&self) -> &str {
            "scale-once"
        }
        fn on_tick(&mut self, _snap: &MetricsSnapshot, control: &mut dyn ControlPlane) {
            self.ticks += 1;
            if self.ticks == 2 {
                control.set_replicas(ServiceId(0), 3);
            }
        }
        fn self_profile(&self) -> Vec<(&'static str, f64)> {
            let target = if self.ticks >= 2 { 3.0 } else { 1.0 };
            vec![
                ("ctrl_demo_ticks_total", self.ticks as f64),
                ("ctrl_demo_target", target),
            ]
        }
    }

    fn cfg() -> DeployConfig {
        DeployConfig {
            duration: SimDur::from_mins(6),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(1),
        }
    }

    #[test]
    fn metered_run_collects_series_and_annotations() {
        let mut s = sim(11);
        let slas = [Sla::new(ClassId(0), 99.0, 0.100)];
        let mut metrics = SimMetrics::for_topology("scale-once", s.topology(), &slas);
        run_deployment_observed(
            &mut s,
            &slas,
            &mut ScaleOnce { ticks: 0 },
            &cfg(),
            Some(&mut metrics),
            None,
        );
        // One scrape per control window.
        assert_eq!(metrics.store().len(), 6);
        let store = metrics.store();
        for name in [
            "service_cpu_utilization",
            "service_replicas",
            "service_worker_occupancy",
            "class_latency_p99",
            "class_sla_violated",
            "sim_events_live_total",
            "sim_event_heap_depth",
            "sim_event_heap_max_depth",
        ] {
            assert!(
                store.series_named(name).next().is_some(),
                "missing series {name}"
            );
        }
        // The self-profile counter came through under the system label,
        // and the dashboard gives it the controller panel.
        let key = SeriesKey::new(
            "ctrl_demo_ticks_total",
            Labels::new(&[("system", "scale-once")]),
        );
        let col = store.values(&key).expect("profile series");
        assert_eq!(col.last().copied(), Some(6.0));
        let panels = metrics.standard_panels();
        let internals = panels.last().expect("panels");
        assert_eq!(internals.title, "Controller internals");
        assert_eq!(
            internals.metrics,
            ["ctrl_demo_target", "ctrl_demo_ticks_total"]
        );
        // The scale decision produced an annotation and bumped the gauge.
        assert!(metrics
            .annotations()
            .iter()
            .any(|a| a.kind == "scale" && a.label.contains("1 -> 3")));
        let replicas = store
            .values(&SeriesKey::new(
                "service_replicas",
                Labels::new(&[("service", "api")]),
            ))
            .unwrap();
        assert_eq!(replicas.last().copied(), Some(3.0));
    }

    #[test]
    fn metered_and_unmetered_runs_are_identical() {
        // The acceptance criterion: collecting metrics must not perturb the
        // simulation. Identical seeds with and without a collector must
        // yield identical reports.
        let slas = [Sla::new(ClassId(0), 99.0, 0.050)];
        let mut a = sim(7);
        let plain = run_deployment(&mut a, &slas, &mut ScaleOnce { ticks: 0 }, &cfg());
        let mut b = sim(7);
        let mut metrics = SimMetrics::for_topology("scale-once", b.topology(), &slas);
        let metered = run_deployment_observed(
            &mut b,
            &slas,
            &mut ScaleOnce { ticks: 0 },
            &cfg(),
            Some(&mut metrics),
            None,
        );
        assert_eq!(plain.records.len(), metered.records.len());
        for (x, y) in plain.records.iter().zip(&metered.records) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.class_latency, y.class_latency);
            assert_eq!(x.class_violation, y.class_violation);
            assert_eq!(x.service_replicas, y.service_replicas);
            assert_eq!(x.total_cores, y.total_cores);
        }
    }

    #[test]
    fn artifacts_written_and_self_contained() {
        let mut s = sim(5);
        let slas = [Sla::new(ClassId(0), 99.0, 0.100)];
        let mut metrics = SimMetrics::for_topology("static", s.topology(), &slas);
        run_deployment_observed(
            &mut s,
            &slas,
            &mut StaticManager,
            &cfg(),
            Some(&mut metrics),
            None,
        );
        let dir = std::env::temp_dir().join(format!("ursa-metrics-test-{}", std::process::id()));
        let paths = metrics.write_artifacts(&dir, "run", "Test run").unwrap();
        assert_eq!(paths, [dir.join("run.html")]);
        let html = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(html.contains("<svg"));
        assert!(!html.contains("<script"));
        assert!(html.contains("class_sla_violated"), "the verdict panel");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One metered deployment, then two windows with no control tick,
    /// digested over the store's bits: the time axis, every series key
    /// (the wall-clock ones included), and every deterministic column.
    /// Counters
    /// accumulate, gauges persist into rows that did not set them (the
    /// manager's `ctrl_demo_target` into the two rows with no tick), and
    /// the tick-wall fan-out keeps its four series, or the digest moves.
    #[test]
    fn metered_store_is_pinned() {
        let mut s = sim(13);
        let slas = [Sla::new(ClassId(0), 99.0, 0.010)];
        let mut metrics = SimMetrics::for_topology("scale-once", s.topology(), &slas);
        run_deployment_observed(
            &mut s,
            &slas,
            &mut ScaleOnce { ticks: 0 },
            &cfg(),
            Some(&mut metrics),
            None,
        );
        for _ in 0..2 {
            s.run_for(SimDur::from_mins(1));
            let snap = s.harvest();
            metrics.observe_snapshot(&s, &snap);
            metrics.scrape(snap.at);
        }
        let store = metrics.store();
        let mut bytes = Vec::new();
        for &t in store.times() {
            bytes.extend(t.to_bits().to_le_bytes());
        }
        for (key, col) in store.iter() {
            // Length-delimited, so ("ab", "c") never reads as ("a", "bc").
            let name = key.render();
            bytes.extend(name.as_bytes());
            bytes.extend((name.len() as u64).to_le_bytes());
            // Wall-clock series measure the host, not the run.
            if key.name.contains("wall_ms") || key.name.contains("solve_ms") {
                continue;
            }
            for &v in col {
                bytes.extend(v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(
            format!("{:016x}", Fnv::digest(&bytes)),
            "50b1b30b66208df7",
            "{} series",
            store.num_series()
        );
    }

    /// The tick-wall series are exact: the p50/p90/p99 of every wall so
    /// far (as `percentile_of_sorted` gives them) and their max, absent
    /// until the first tick. `ctrl_ticks_total` is the count.
    #[test]
    fn tick_walls_fan_out_exactly() {
        let s = sim(2);
        let mut metrics = SimMetrics::for_topology("x", s.topology(), &[]);
        let at = |secs| SimTime::ZERO + SimDur::from_secs(secs);
        metrics.scrape(at(30));
        assert_eq!(metrics.store().num_series(), 0);
        let walls = [4.0, 0.5, 9.0, 2.0, 2.0, 7.5, 1.0, 3.25, 0.75, 6.0, 5.5];
        for (i, &wall) in walls.iter().enumerate() {
            metrics.observe_decision(at(31 + i as u64), wall, &[], &[]);
        }
        metrics.scrape(at(60));
        let mut sorted = walls.to_vec();
        sorted.sort_by(f64::total_cmp);
        let sys = Labels::new(&[("system", "x")]);
        for (stat, want) in [
            ("p50", percentile_of_sorted(&sorted, 50.0)),
            ("p90", percentile_of_sorted(&sorted, 90.0)),
            ("p99", percentile_of_sorted(&sorted, 99.0)),
            ("max", 9.0),
        ] {
            let key = SeriesKey::new(&format!("ctrl_tick_wall_ms_{stat}"), sys.clone());
            let col = metrics.store().values(&key).expect("tick-wall series");
            assert!(col[0].is_nan(), "{stat} before the first tick");
            assert_eq!(col[1], want, "{stat}");
        }
        // Of 11 walls, p50 is the sixth smallest and p90 the tenth.
        assert_eq!(percentile_of_sorted(&sorted, 50.0), 3.25);
        assert_eq!(percentile_of_sorted(&sorted, 90.0), 7.5);
        // ctrl_ticks_total and the four tick-wall series.
        assert_eq!(metrics.store().num_series(), 5);
        let ticks = SeriesKey::new("ctrl_ticks_total", sys);
        assert_eq!(metrics.store().values(&ticks).unwrap()[1], 11.0);
    }

    /// A `_total` series a manager reports as a running total keeps the
    /// largest total seen; every other profile series is a gauge.
    #[test]
    fn running_totals_never_move_backwards() {
        let s = sim(2);
        let mut metrics = SimMetrics::for_topology("x", s.topology(), &[]);
        let at = |secs| SimTime::ZERO + SimDur::from_secs(secs);
        for (t, v) in [(60, 5.0), (120, 3.0)] {
            metrics.observe_decision(at(t), 1.0, &[("x_total", v), ("x_last", v)], &[]);
            metrics.scrape(at(t));
        }
        let sys = Labels::new(&[("system", "x")]);
        let col = |name: &str| metrics.store().values(&SeriesKey::new(name, sys.clone()));
        assert_eq!(col("x_total"), Some(vec![5.0, 5.0]));
        assert_eq!(col("x_last"), Some(vec![5.0, 3.0]));
        assert_eq!(col("ctrl_ticks_total"), Some(vec![1.0, 2.0]));
    }

    /// The gauge is the window verdict of any SLA, a p50 one included: 1
    /// when the window's p50 exceeds the target, 0 when it does not, and a
    /// gap for a window with no completions.
    #[test]
    fn p50_sla_gauge_reads_the_window_verdict() {
        let mut s = sim(1);
        s.run_for(SimDur::from_mins(1));
        let busy = s.harvest();
        let p50 = busy.e2e_latency[0].percentile(50.0).expect("completions");
        s.set_rate(ClassId(0), RateFn::Constant(0.0));
        s.run_for(SimDur::from_mins(1));
        s.harvest();
        s.run_for(SimDur::from_mins(1));
        let idle = s.harvest();
        assert_eq!(idle.completions[0], 0);
        let key = SeriesKey::new("class_sla_violated", Labels::new(&[("class", "get")]));
        for (target, want) in [(p50 * 0.5, 1.0), (p50, 0.0), (p50 * 2.0, 0.0)] {
            let slas = [Sla::new(ClassId(0), 50.0, target)];
            let mut metrics = SimMetrics::for_topology("x", s.topology(), &slas);
            for snap in [&busy, &idle] {
                metrics.observe_snapshot(&s, snap);
                metrics.scrape(snap.at);
            }
            let col = metrics.store().values(&key).expect("verdict series");
            assert_eq!(col[0], want, "target {target}");
            assert!(col[1].is_nan(), "an idle window has no verdict");
        }
    }

    /// The dashboard and the tables read one definition: over the
    /// post-warmup rows of a run that violates in some windows and not in
    /// others, the verdict gauge's mean is the report's violation rate to
    /// the bit.
    #[test]
    fn verdict_gauge_mean_is_the_violation_rate() {
        let mut s = sim(3);
        s.set_rate(ClassId(0), RateFn::Constant(900.0));
        let slas = [Sla::new(ClassId(0), 99.0, 0.080)];
        let cfg = DeployConfig {
            duration: SimDur::from_mins(12),
            ..cfg()
        };
        let mut metrics = SimMetrics::for_topology("static", s.topology(), &slas);
        let report = run_deployment_observed(
            &mut s,
            &slas,
            &mut StaticManager,
            &cfg,
            Some(&mut metrics),
            None,
        );
        let store = metrics.store();
        let key = SeriesKey::new("class_sla_violated", Labels::new(&[("class", "get")]));
        let col = store.values(&key).expect("verdict series");
        let warm = cfg.warmup.as_secs_f64();
        let verdicts: Vec<f64> = store
            .times()
            .iter()
            .zip(&col)
            .filter(|&(&t, v)| t > warm && !v.is_nan())
            .map(|(_, &v)| v)
            .collect();
        let p99s: Vec<_> = report.records.iter().map(|r| r.class_latency[0]).collect();
        assert_eq!(verdicts.len(), report.records.len(), "{p99s:?}");
        let violated = verdicts.iter().sum::<f64>();
        assert!(
            violated > 0.0 && violated < verdicts.len() as f64,
            "the fixture must violate in some windows, not all: {p99s:?}"
        );
        let mean = violated / verdicts.len() as f64;
        assert_eq!(mean, report.class_violation_rate(ClassId(0)));
    }
}
