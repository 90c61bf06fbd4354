//! Anomaly flight-recorder bundles: correlated post-mortems for a
//! deployment run.
//!
//! [`PostmortemObserver`] hangs off the deployment driver's
//! [`DeployObserver`](ursa_sim::control::DeployObserver) hook and evaluates
//! three triggers after every control tick:
//!
//! | trigger | source | fires when |
//! |---|---|---|
//! | `anomaly-reexplore` | Ursa's decision log (via `ResourceManager::as_any`) | the latency-anomaly detector queued a re-exploration this tick |
//! | `slo-alert` | [`SimMetrics::alert_onsets`] | a burn-rate page/ticket alert *started* firing this tick |
//! | `snapshot-at` | `--snapshot-at SECS` | the first control tick at or after the requested simulated time |
//!
//! When any trigger fires (and the per-cell bundle budget is not
//! exhausted), the observer dumps one self-contained bundle: a JSON
//! document plus a linked script-free HTML report, correlating
//!
//! * the flight-recorder window of recent engine events,
//! * live span trees and recently finished traces from the tracer,
//! * the last few control windows of the columnar metrics store,
//! * the tail of Ursa's decision log,
//! * the faults active at dump time,
//! * the engine phase-profile sample counts (when the profiler is armed), and
//! * a topology/replica-state snapshot.
//!
//! Everything in a bundle is a pure function of the simulation seed and
//! the installed plan — content and filenames use simulated time only, so
//! the same cell produces byte-identical bundles at any `--jobs` value
//! (enforced by `tests/postmortem_determinism.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ursa_core::decision_log::{DecisionKind, DecisionLog};
use ursa_core::manager::Ursa;
use ursa_metrics::export::page::{self, html_esc};
use ursa_metrics::json::{esc, num};
use ursa_sim::control::{DeployObserver, ResourceManager};
use ursa_sim::engine::Simulation;
use ursa_sim::metrics::SimMetrics;
use ursa_sim::recorder::FlightEventKind;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::topology::ServiceId;
use ursa_sim::trace::Trace;

/// Bundle schema identifier (bump on breaking layout changes). v2 dropped
/// two fields the engine no longer has a value for: `live` on `ps_check`
/// flight events and the `stale` row of `phase_profile.phases`; v3 dropped
/// the `trace_arrival` row and flight event with the engine's trace replay.
pub const SCHEMA: &str = "ursa-postmortem/v3";

/// Most bundles one cell will write **per trigger kind**: after this many
/// the observer keeps updating its trigger baselines but stops dumping for
/// that kind, so a pathological run cannot fill the disk. The budget is
/// per-kind (not global) so that a cell paging its SLO burn alert every
/// window cannot crowd out the rarer — and more valuable —
/// anomaly-re-exploration bundle that fires when the fault actually lands.
pub const MAX_BUNDLES: usize = 4;

/// Decision-log records retained in a bundle's tail.
const DECISION_TAIL: usize = 32;

/// Recently finished traces embedded per bundle.
const FINISHED_TRACES: usize = 16;

/// Live (in-flight) span trees embedded per bundle.
const LIVE_TRACES: usize = 32;

/// Control windows of metrics history embedded per bundle.
const METRICS_WINDOWS: f64 = 5.0;

/// Flight-recorder entries shown in the HTML report (the JSON bundle
/// always carries the full ring window).
const HTML_EVENT_TAIL: usize = 64;

/// Why a bundle was dumped.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Ursa's latency-anomaly detector queued a re-exploration.
    AnomalyReExplore {
        /// The implicated service.
        service: usize,
        /// Observed SLA violation rate in basis points.
        violation_bps: u32,
    },
    /// An SLO burn-rate alert started firing.
    SloAlert {
        /// The violating request class.
        class: String,
        /// `"page"` or `"ticket"`.
        severity: &'static str,
        /// Short-window burn rate (multiples of budget).
        short_burn: f64,
    },
    /// The explicit `--snapshot-at` time was reached.
    SnapshotAt {
        /// The requested simulated time in seconds.
        requested: f64,
    },
}

impl Trigger {
    /// Stable snake_case identifier.
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::AnomalyReExplore { .. } => "anomaly-reexplore",
            Trigger::SloAlert { .. } => "slo-alert",
            Trigger::SnapshotAt { .. } => "snapshot-at",
        }
    }

    fn to_json(&self) -> String {
        match self {
            Trigger::AnomalyReExplore {
                service,
                violation_bps,
            } => format!(
                "{{\"kind\":\"anomaly-reexplore\",\"service\":{service},\
                 \"violation_bps\":{violation_bps}}}"
            ),
            Trigger::SloAlert {
                class,
                severity,
                short_burn,
            } => format!(
                "{{\"kind\":\"slo-alert\",\"class\":\"{}\",\"severity\":\"{}\",\
                 \"short_burn\":{}}}",
                esc(class),
                esc(severity),
                num(*short_burn)
            ),
            Trigger::SnapshotAt { requested } => format!(
                "{{\"kind\":\"snapshot-at\",\"requested\":{}}}",
                num(*requested)
            ),
        }
    }

    fn describe(&self) -> String {
        match self {
            Trigger::AnomalyReExplore {
                service,
                violation_bps,
            } => format!(
                "anomaly re-exploration of service {service} \
                 (violation {:.2}%)",
                *violation_bps as f64 / 100.0
            ),
            Trigger::SloAlert {
                class,
                severity,
                short_burn,
            } => format!("{severity} SLO alert: {class} burning {short_burn:.1}x budget"),
            Trigger::SnapshotAt { requested } => {
                format!("explicit snapshot requested at t={requested}s")
            }
        }
    }
}

/// The [`DeployObserver`] that evaluates triggers and dumps bundles.
#[derive(Debug)]
pub struct PostmortemObserver {
    dir: PathBuf,
    cell: String,
    snapshot_at: Option<f64>,
    snapshot_fired: bool,
    /// Count of anomaly-reexplore records at the previous tick; `None`
    /// until the first tick establishes the baseline.
    seen_reexplores: Option<usize>,
    /// Bundles written so far, per trigger-kind label (the
    /// [`MAX_BUNDLES`] budget is per kind).
    kind_counts: BTreeMap<&'static str, usize>,
    written: Vec<PathBuf>,
}

impl PostmortemObserver {
    /// Creates an observer dumping into `dir` with filenames prefixed by
    /// `cell` (which must be unique across concurrently running cells).
    /// `snapshot_at` arms the explicit-time trigger.
    pub fn new(dir: &Path, cell: &str, snapshot_at: Option<f64>) -> Self {
        PostmortemObserver {
            dir: dir.to_path_buf(),
            cell: cell.to_string(),
            snapshot_at,
            snapshot_fired: false,
            seen_reexplores: None,
            kind_counts: BTreeMap::new(),
            written: Vec::new(),
        }
    }

    /// The observer `--artifacts-dir` (with `--snapshot-at`) asks for on
    /// `cell`, or `None` when the run did not set it.
    pub fn armed(ctx: &crate::RunCtx, cell: &str) -> Option<Self> {
        let dir = ctx.artifacts_dir.as_deref()?;
        Some(PostmortemObserver::new(dir, cell, ctx.snapshot_at))
    }

    /// Paths of the bundles written so far (`.json` files; each has a
    /// sibling `.html`).
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }

    fn collect_triggers(
        &mut self,
        manager: &dyn ResourceManager,
        metrics: Option<&SimMetrics>,
        snapshot: &MetricsSnapshot,
    ) -> Vec<Trigger> {
        let mut triggers = Vec::new();
        if let Some(t) = self.snapshot_at {
            if !self.snapshot_fired && snapshot.at.as_secs_f64() >= t {
                self.snapshot_fired = true;
                triggers.push(Trigger::SnapshotAt { requested: t });
            }
        }
        if let Some(ursa) = manager.as_any().and_then(|a| a.downcast_ref::<Ursa>()) {
            let anomalies: Vec<(usize, u32)> = ursa
                .decisions()
                .records()
                .filter_map(|r| match r.kind {
                    DecisionKind::AnomalyReExplore {
                        service,
                        violation_bps,
                    } => Some((service, violation_bps)),
                    _ => None,
                })
                .collect();
            match self.seen_reexplores {
                None => self.seen_reexplores = Some(anomalies.len()),
                Some(seen) => {
                    for &(service, violation_bps) in anomalies.iter().skip(seen) {
                        triggers.push(Trigger::AnomalyReExplore {
                            service,
                            violation_bps,
                        });
                    }
                    self.seen_reexplores = Some(anomalies.len());
                }
            }
        }
        if let Some(m) = metrics {
            for (class, severity, short_burn) in m.alert_onsets() {
                triggers.push(Trigger::SloAlert {
                    class: class.clone(),
                    severity,
                    short_burn: *short_burn,
                });
            }
        }
        triggers
    }
}

impl DeployObserver for PostmortemObserver {
    fn after_tick(
        &mut self,
        sim: &Simulation,
        manager: &dyn ResourceManager,
        metrics: Option<&SimMetrics>,
        snapshot: &MetricsSnapshot,
    ) {
        let mut triggers = self.collect_triggers(manager, metrics, snapshot);
        triggers.retain(|t| self.kind_counts.get(t.label()).copied().unwrap_or(0) < MAX_BUNDLES);
        if triggers.is_empty() {
            return;
        }
        let stem = format!("{}-t{:.0}", self.cell, snapshot.at.as_secs_f64().round());
        let json = render_json(&self.cell, &triggers, sim, manager, metrics, snapshot);
        let html = render_html(&stem, &self.cell, &triggers, sim, snapshot);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            crate::warn!("postmortem: cannot create {}: {e}", self.dir.display());
            return;
        }
        let json_path = self.dir.join(format!("{stem}.json"));
        let html_path = self.dir.join(format!("{stem}.html"));
        if let Err(e) = std::fs::write(&json_path, json) {
            crate::warn!("postmortem: cannot write {}: {e}", json_path.display());
            return;
        }
        if let Err(e) = std::fs::write(&html_path, html) {
            crate::warn!("postmortem: cannot write {}: {e}", html_path.display());
        }
        crate::info!(
            "postmortem: {} ({})",
            json_path.display(),
            triggers
                .iter()
                .map(Trigger::describe)
                .collect::<Vec<_>>()
                .join("; ")
        );
        for kind in triggers.iter().map(Trigger::label).collect::<BTreeSet<_>>() {
            *self.kind_counts.entry(kind).or_insert(0) += 1;
        }
        self.written.push(json_path);
    }
}

fn flight_event_json(at: f64, seq: u64, kind: &FlightEventKind) -> String {
    let mut s = format!(
        "{{\"at\":{},\"seq\":{seq},\"kind\":\"{}\"",
        num(at),
        kind.label()
    );
    match *kind {
        FlightEventKind::SourceNext { class } => {
            let _ = write!(s, ",\"class\":{class}");
        }
        FlightEventKind::NodeArrive { slot, node } => {
            let _ = write!(s, ",\"slot\":{slot},\"node\":{node}");
        }
        FlightEventKind::ChaosStart { fault } | FlightEventKind::ChaosEnd { fault } => {
            let _ = write!(s, ",\"fault\":{fault}");
        }
        FlightEventKind::Scale { service, from, to } => {
            let _ = write!(s, ",\"service\":{service},\"from\":{from},\"to\":{to}");
        }
        FlightEventKind::CpuLimit {
            service,
            millicores,
        } => {
            let _ = write!(s, ",\"service\":{service},\"millicores\":{millicores}");
        }
        FlightEventKind::Harvest { in_flight } => {
            let _ = write!(s, ",\"in_flight\":{in_flight}");
        }
        FlightEventKind::PsCheck { service, replica } => {
            let _ = write!(s, ",\"service\":{service},\"replica\":{replica}");
        }
    }
    s.push('}');
    s
}

fn trace_json(t: &Trace) -> String {
    let mut s = format!(
        "{{\"id\":{},\"class\":{},\"arrival\":{},\"end\":{},\"spans\":[",
        t.id,
        t.class.0,
        num(t.arrival.as_secs_f64()),
        num(t.end.as_secs_f64())
    );
    for (i, sp) in t.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"node\":{},\"parent\":{},\"service\":{},\"enqueue\":{},\
             \"start\":{},\"respond\":{},\"queue_wait\":{},\"nested_wait\":{}}}",
            sp.node,
            sp.parent.map_or("null".into(), |(p, _)| p.to_string()),
            sp.service.0,
            num(sp.enqueue_at.as_secs_f64()),
            num(sp.start_at.as_secs_f64()),
            num(sp.respond_at.as_secs_f64()),
            num(sp.queue_wait().as_secs_f64()),
            num(sp.nested_wait.as_secs_f64()),
        );
    }
    s.push_str("]}");
    s
}

fn render_json(
    cell: &str,
    triggers: &[Trigger],
    sim: &Simulation,
    manager: &dyn ResourceManager,
    metrics: Option<&SimMetrics>,
    snapshot: &MetricsSnapshot,
) -> String {
    let at = snapshot.at.as_secs_f64();
    let window = snapshot.window.as_secs_f64();
    let topo = sim.topology();
    let mut s = String::with_capacity(64 * 1024);
    let _ = write!(
        s,
        "{{\n\"schema\":\"{SCHEMA}\",\n\"cell\":\"{}\",\n\"manager\":\"{}\",\n\
         \"at\":{},\n\"window\":{},",
        esc(cell),
        esc(manager.name()),
        num(at),
        num(window)
    );
    s.push('\n');

    s.push_str("\"triggers\":[");
    for (i, t) in triggers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&t.to_json());
    }
    s.push_str("],\n");

    // Topology / replica-state snapshot.
    s.push_str("\"services\":[");
    for (i, svc) in snapshot.services.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"replicas\":{},\"cores_per_replica\":{},\
             \"cpu_utilization\":{},\"worker_occupancy\":{},\
             \"mq_depth_mean\":{},\"mq_depth_max\":{},\"arrival_rps\":{}}}",
            esc(&topo.services()[i].name),
            svc.replicas,
            num(svc.cores_per_replica),
            num(svc.cpu_utilization),
            num(sim.worker_occupancy(ServiceId(i))),
            num(svc.mq_depth_mean),
            svc.mq_depth_max,
            num(svc.arrival_rps(snapshot.window)),
        );
    }
    s.push_str("],\n\"classes\":[");
    for (c, cls) in topo.classes().iter().enumerate() {
        if c > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"injections\":{},\"completions\":{},\"offered_rps\":{}}}",
            esc(&cls.name),
            snapshot.injections[c],
            snapshot.completions[c],
            num(snapshot.injections[c] as f64 / window.max(1e-9)),
        );
    }
    let _ = write!(
        s,
        "],\n\"in_flight\":{},\n\"total_allocated_cores\":{},",
        sim.in_flight(),
        num(sim.total_allocated_cores())
    );
    s.push('\n');

    // Faults active at dump time.
    s.push_str("\"active_faults\":[");
    for (i, (idx, f)) in sim.active_faults().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"fault\":{idx},\"kind\":\"{}\",\"service\":{},\"at\":{},\"until\":{}}}",
            f.kind.label(),
            f.kind.service().map_or("null".into(), |x| x.to_string()),
            num(f.at.as_secs_f64()),
            num(f.until.as_secs_f64()),
        );
    }
    s.push_str("],\n");

    // Engine phase profile: how many of every Nth popped event were of
    // each kind — a pure function of the seed.
    match sim.profiler() {
        None => s.push_str("\"phase_profile\":null,\n"),
        Some(p) => {
            let report = p.report();
            let _ = write!(
                s,
                "\"phase_profile\":{{\"sample_every\":{},\"events_seen\":{},\
                 \"events_sampled\":{},\"counts\":[",
                report.sample_every, report.events_seen, report.events_sampled
            );
            for (i, st) in report.phases.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"phase\":\"{}\",\"count\":{}}}",
                    st.phase.label(),
                    st.count
                );
            }
            s.push_str("]},\n");
        }
    }

    // Flight-recorder window.
    match sim.flight_recorder() {
        None => s.push_str("\"flight_recorder\":null,\n"),
        Some(r) => {
            let _ = write!(
                s,
                "\"flight_recorder\":{{\"capacity\":{},\"recorded\":{},\"dropped\":{},\
                 \"events\":[",
                r.capacity(),
                r.recorded(),
                r.dropped()
            );
            for (i, e) in r.entries().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&flight_event_json(e.at.as_secs_f64(), e.seq, &e.kind));
            }
            s.push_str("]},\n");
        }
    }

    // Span trees: in-flight requests plus the most recently finished traces.
    match sim.tracer() {
        None => s.push_str("\"spans\":null,\n"),
        Some(tr) => {
            let _ = write!(s, "\"spans\":{{\"sampled\":{},\"live\":[", tr.sampled());
            for (i, t) in tr.live().into_iter().take(LIVE_TRACES).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&trace_json(t));
            }
            s.push_str("],\"finished_recent\":[");
            let finished: Vec<&Trace> = tr.finished().collect();
            let skip = finished.len().saturating_sub(FINISHED_TRACES);
            for (i, t) in finished.into_iter().skip(skip).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&trace_json(t));
            }
            s.push_str("]},\n");
        }
    }

    // The last few control windows of the columnar store.
    match metrics {
        None => s.push_str("\"metrics_window\":null,\n"),
        Some(m) => {
            let t0 = at - METRICS_WINDOWS * window;
            let w = m.store().window(t0, at);
            let _ = write!(
                s,
                "\"metrics_window\":{{\"t0\":{},\"t1\":{},\"times\":[",
                num(t0),
                num(at)
            );
            for (i, t) in w.times().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&num(*t));
            }
            s.push_str("],\"series\":[");
            // Wall-clock series (controller tick and MIP solve timings)
            // measure the host, not the simulation; they are the one
            // nondeterministic signal in the store and would break
            // byte-identical bundles.
            let deterministic = w
                .iter()
                .filter(|(key, _)| !key.name.contains("wall_ms") && !key.name.contains("solve_ms"));
            for (i, (key, col)) in deterministic.enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"name\":\"{}\",\"labels\":{{", esc(&key.name));
                for (j, (k, v)) in key.labels.pairs().iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":\"{}\"", esc(k), esc(v));
                }
                s.push_str("},\"values\":[");
                for (j, v) in col.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push_str(&num(*v));
                }
                s.push_str("]}");
            }
            s.push_str("]},\n");
        }
    }

    // Decision-log tail (Ursa only; other managers have no log to read).
    match manager.as_any().and_then(|a| a.downcast_ref::<Ursa>()) {
        None => s.push_str("\"decisions\":null\n"),
        Some(ursa) => {
            let log = ursa.decisions();
            // Replaying the tail through a fresh bounded log reuses the
            // canonical JSONL serializer: each line is a complete JSON
            // object, embeddable as an array element.
            let mut tail = DecisionLog::new(DECISION_TAIL);
            for r in log.records() {
                tail.push(r.clone());
            }
            let mut buf = Vec::new();
            tail.write_jsonl(&mut buf).expect("in-memory write");
            let jsonl = String::from_utf8(buf).expect("serializer emits UTF-8");
            let _ = write!(
                s,
                "\"decisions\":{{\"total\":{},\"tail\":[",
                log.len() as u64 + log.dropped()
            );
            for (i, line) in jsonl.lines().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(line);
            }
            s.push_str("]}\n");
        }
    }
    s.push_str("}\n");
    s
}

fn render_html(
    stem: &str,
    cell: &str,
    triggers: &[Trigger],
    sim: &Simulation,
    snapshot: &MetricsSnapshot,
) -> String {
    let at = snapshot.at.as_secs_f64();
    let topo = sim.topology();
    let mut h = page::open(&format!("Post-mortem: {cell} @ t={at}s"));
    let _ = writeln!(
        h,
        "<p class=\"subtitle\">full data in <a href=\"{}.json\">{}.json</a></p>",
        html_esc(stem),
        html_esc(stem)
    );

    h.push_str("<h2>Triggers</h2>\n<ul>\n");
    for t in triggers {
        let _ = writeln!(
            h,
            "<li><b>{}</b>: {}</li>",
            t.label(),
            html_esc(&t.describe())
        );
    }
    h.push_str("</ul>\n");

    let active = sim.active_faults();
    h.push_str("<h2>Active faults</h2>\n");
    if active.is_empty() {
        h.push_str("<p>none</p>\n");
    } else {
        let rows = active.iter().map(|(idx, f)| {
            let service = f.kind.service();
            let cells = vec![
                idx.to_string(),
                f.kind.label().to_string(),
                service.map_or("-".into(), |x| topo.services()[x].name.clone()),
                format!(
                    "[{:.0}s, {:.0}s)",
                    f.at.as_secs_f64(),
                    f.until.as_secs_f64()
                ),
            ];
            (cells, false)
        });
        page::table(&mut h, &["#", "kind", "service", "window"], rows);
    }

    h.push_str("<h2>Replica state</h2>\n");
    let rows = snapshot.services.iter().enumerate().map(|(i, svc)| {
        let cells = vec![
            topo.services()[i].name.clone(),
            svc.replicas.to_string(),
            format!("{:.2}", svc.cores_per_replica),
            format!("{:.2}", svc.cpu_utilization),
            format!("{:.2}", sim.worker_occupancy(ServiceId(i))),
            format!("{:.1}", svc.arrival_rps(snapshot.window)),
        ];
        (cells, false)
    });
    let header = [
        "service",
        "replicas",
        "cores/replica",
        "cpu util",
        "occupancy",
        "arrival rps",
    ];
    page::table(&mut h, &header, rows);

    if let Some(r) = sim.flight_recorder() {
        let _ = writeln!(
            h,
            "<h2>Flight recorder (last {HTML_EVENT_TAIL} of {} held, {} dropped)</h2>",
            r.len(),
            r.dropped()
        );
        let skip = r.len().saturating_sub(HTML_EVENT_TAIL);
        let rows = r.entries().skip(skip).map(|e| {
            let at = format!("{:.6}", e.at.as_secs_f64());
            (
                vec![at, e.seq.to_string(), e.kind.label().to_string()],
                false,
            )
        });
        page::table(&mut h, &["t (s)", "seq", "event"], rows);
    }

    if let Some(p) = sim.profiler() {
        let report = p.report();
        let _ = writeln!(
            h,
            "<h2>Engine phase profile ({} of {} events sampled, 1/{})</h2>",
            report.events_sampled, report.events_seen, report.sample_every
        );
        let rows = report.phases.iter().filter(|st| st.count > 0).map(|st| {
            (
                vec![st.phase.label().to_string(), st.count.to_string()],
                false,
            )
        });
        page::table(&mut h, &["phase", "sampled events"], rows);
    }
    page::close(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_json_and_labels() {
        let t = Trigger::AnomalyReExplore {
            service: 3,
            violation_bps: 2150,
        };
        assert_eq!(t.label(), "anomaly-reexplore");
        assert!(t.to_json().contains("\"violation_bps\":2150"));
        let t = Trigger::SloAlert {
            class: "compose\"post".into(),
            severity: "page",
            short_burn: 14.5,
        };
        assert!(t.to_json().contains("compose\\\"post"));
        let t = Trigger::SnapshotAt { requested: 300.0 };
        assert!(t.to_json().contains("\"requested\":300"));
        assert!(!t.describe().is_empty());
    }

    /// A cell name lands in element text and, through the bundle stem, in
    /// an `href` attribute: a `"` in it must not close the attribute.
    #[test]
    fn html_escapes_quotes_in_the_cell_name() {
        use ursa_sim::prelude::*;
        let topo = Topology::new(
            vec![ServiceCfg::new("api", 1.0)],
            vec![ClassCfg {
                name: "get".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 1);
        sim.run_for(SimDur::from_secs(1));
        let snapshot = sim.harvest();
        let cell = "fig\"11 <ursa>";
        let triggers = [Trigger::SnapshotAt { requested: 1.0 }];
        let html = render_html(&format!("{cell}-t1"), cell, &triggers, &sim, &snapshot);
        let stem = "fig&quot;11 &lt;ursa&gt;-t1";
        assert!(html.contains(&format!("<a href=\"{stem}.json\">{stem}.json</a>")));
        assert!(!html.contains(cell));
    }

    #[test]
    fn flight_event_json_covers_kinds() {
        let kinds = [
            FlightEventKind::SourceNext { class: 1 },
            FlightEventKind::PsCheck {
                service: 2,
                replica: 0,
            },
            FlightEventKind::Scale {
                service: 1,
                from: 2,
                to: 4,
            },
            FlightEventKind::Harvest { in_flight: 7 },
            FlightEventKind::NodeArrive { slot: 5, node: 1 },
            FlightEventKind::ChaosStart { fault: 0 },
            FlightEventKind::CpuLimit {
                service: 3,
                millicores: 1500,
            },
        ];
        for k in kinds {
            let j = flight_event_json(1.0, 9, &k);
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"kind\":\"{}\"", k.label())));
        }
    }
}
