//! Self-contained HTML dashboard: inline-SVG line charts over the
//! time-series store, with control-plane events overlaid as annotations.
//!
//! The output is a single `.html` file with zero external dependencies —
//! no JavaScript, no fonts, no CDN. Charts are plain SVG styled through
//! CSS custom properties, so the page follows the viewer's light/dark
//! preference. Hover tooltips use SVG `<title>` elements; every panel
//! also carries a collapsible data table (the colorblind/print fallback),
//! sampled down to at most 120 scrapes. The page itself — head,
//! stylesheet, palette and table writer — is the shared
//! [`page`] template.
//!
//! Chart conventions (kept deliberately boring): 2 px solid lines, one
//! shared y-axis per panel, hairline gridlines, categorical colors
//! assigned in a fixed validated order (never cycled — series past the
//! eighth fold to gray and the table), values in text ink rather than
//! series colors, and a legend whenever a panel shows two or more series.

use super::page::{self, html_esc, SERIES_LIGHT};
use crate::store::TimeSeriesStore;
use std::fmt::Write as _;

/// One chart panel: a titled line chart over a set of metric names.
#[derive(Debug, Clone)]
pub struct PanelSpec {
    /// Panel heading.
    pub title: String,
    /// Unit suffix shown on the y-axis (e.g. `"ms"`, `"cores"`).
    pub unit: String,
    /// Metric names to plot; every labeled series of each name becomes one
    /// line. Percentile fan-outs (`name_p50`, ...) are listed explicitly.
    pub metrics: Vec<String>,
    /// Log-scale y-axis (decades); non-positive points render as gaps.
    pub log_y: bool,
}

impl PanelSpec {
    /// Creates a linear-scale panel.
    pub fn new(title: &str, unit: &str, metrics: &[&str]) -> Self {
        PanelSpec {
            title: title.to_string(),
            unit: unit.to_string(),
            metrics: metrics.iter().map(|m| m.to_string()).collect(),
            log_y: false,
        }
    }

    /// Switches the panel to a log y-axis.
    pub fn log_y(mut self) -> Self {
        self.log_y = true;
        self
    }
}

/// A point-in-time event overlaid on every panel as a vertical marker.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Event time in seconds (same axis as the store).
    pub t: f64,
    /// Event kind: `"scale"` gets a distinct marker color; anything else
    /// renders in muted ink.
    pub kind: String,
    /// Tooltip text.
    pub label: String,
}

impl Annotation {
    /// Creates an annotation.
    pub fn new(t: f64, kind: &str, label: &str) -> Self {
        Annotation {
            t,
            kind: kind.to_string(),
            label: label.to_string(),
        }
    }
}

/// Geometry shared by every panel.
const W: f64 = 880.0;
const H: f64 = 250.0;
const MARGIN_TOP: f64 = 12.0;
const MARGIN_BOTTOM: f64 = 30.0;
const MARGIN_LEFT: f64 = 64.0;
/// Per-panel hover targets are emitted only below this total point count.
const HOVER_POINT_BUDGET: usize = 2000;
/// The data table samples down to at most this many rows.
const TABLE_ROW_BUDGET: usize = 120;

/// Renders the dashboard as one self-contained HTML page.
///
/// Each panel plots every series of its metric names present in `store`;
/// `annotations` (e.g. scaling decisions) are overlaid on
/// every panel as vertical markers with hover tooltips.
pub fn render_dashboard(
    title: &str,
    subtitle: &str,
    store: &TimeSeriesStore,
    panels: &[PanelSpec],
    annotations: &[Annotation],
) -> String {
    let mut out = page::open(title);
    if !subtitle.is_empty() {
        let _ = writeln!(out, "<p class=\"subtitle\">{}</p>", html_esc(subtitle));
    }
    if store.is_empty() {
        out.push_str("<p class=\"subtitle\">No scrapes recorded.</p>\n");
    } else {
        for panel in panels {
            render_panel(&mut out, store, panel, annotations);
        }
    }
    page::close(out)
}

fn render_panel(
    out: &mut String,
    store: &TimeSeriesStore,
    panel: &PanelSpec,
    annotations: &[Annotation],
) {
    // Every labeled series of every metric name, in deterministic key order.
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let prefix = common_prefix(&panel.metrics);
    for name in &panel.metrics {
        for (key, col) in store.series_named(name) {
            series.push((
                display_name(name, &prefix, key.labels.pairs()),
                col.to_vec(),
            ));
        }
    }
    let _ = write!(
        out,
        "<section class=\"panel\">\n<h2>{}</h2>\n",
        html_esc(&panel.title)
    );
    if series.is_empty() {
        out.push_str("<p class=\"subtitle\">no data</p>\n</section>\n");
        return;
    }

    // Legend: always for >= 2 series; a single series is named by the title.
    if series.len() > 1 {
        out.push_str("<div class=\"legend\">");
        for (i, (name, _)) in series.iter().enumerate() {
            let class = if i < SERIES_LIGHT.len() {
                format!("s{i}")
            } else {
                "sx".to_string()
            };
            let _ = write!(
                out,
                "<span class=\"key\"><span class=\"swatch {class}\"></span>{}</span>",
                html_esc(name)
            );
        }
        if series.len() > SERIES_LIGHT.len() {
            let _ = write!(
                out,
                "<span class=\"key muted\">{} series beyond the palette render gray — see table</span>",
                series.len() - SERIES_LIGHT.len()
            );
        }
        out.push_str("</div>\n");
    }

    let times = store.times();
    let t0 = times[0];
    let t1 = *times.last().unwrap();
    let tspan = (t1 - t0).max(1e-9);

    // Y domain over finite (and, for log panels, positive) values.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, col) in &series {
        for &v in col {
            if v.is_finite() && (!panel.log_y || v > 0.0) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if !lo.is_finite() {
        out.push_str("<p class=\"subtitle\">no finite samples</p>\n</section>\n");
        return;
    }
    let (ymin, ymax, ticks) = if panel.log_y {
        log_axis(lo, hi)
    } else {
        linear_axis(lo, hi)
    };

    // Direct end-labels (<= 4 series) need room to the right of the plot.
    let direct_labels = series.len() <= 4;
    let margin_right = if direct_labels { 120.0 } else { 20.0 };
    let x_of = |t: f64| MARGIN_LEFT + (t - t0) / tspan * (W - MARGIN_LEFT - margin_right);
    let plot_h = H - MARGIN_TOP - MARGIN_BOTTOM;
    let y_of = |v: f64| {
        let frac = if panel.log_y {
            (v.log10() - ymin.log10()) / (ymax.log10() - ymin.log10()).max(1e-12)
        } else {
            (v - ymin) / (ymax - ymin).max(1e-12)
        };
        H - MARGIN_BOTTOM - frac.clamp(0.0, 1.0) * plot_h
    };

    let _ = writeln!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"{}\">",
        html_esc(&panel.title)
    );

    // Hairline gridlines + y tick labels (text ink, never series color).
    for &v in &ticks {
        let y = y_of(v);
        let _ = writeln!(
            out,
            "<line class=\"grid\" x1=\"{MARGIN_LEFT:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/>",
            W - margin_right
        );
        let _ = writeln!(
            out,
            "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
            MARGIN_LEFT - 6.0,
            y + 3.5,
            fmt_value(v)
        );
    }
    if !panel.unit.is_empty() {
        let _ = writeln!(
            out,
            "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"start\">{}</text>",
            4.0,
            MARGIN_TOP + 4.0,
            html_esc(&panel.unit)
        );
    }

    // X axis: baseline, ticks in minutes.
    let _ = writeln!(
        out,
        "<line class=\"axis\" x1=\"{MARGIN_LEFT:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
        H - MARGIN_BOTTOM,
        W - margin_right,
        H - MARGIN_BOTTOM
    );
    for tm in time_ticks(t0, t1) {
        let x = x_of(tm);
        let _ = writeln!(
            out,
            "<text class=\"tick\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}m</text>",
            H - MARGIN_BOTTOM + 16.0,
            fmt_value(tm / 60.0)
        );
    }

    // Annotation markers: vertical dashed lines with hover tooltips.
    for a in annotations {
        if a.t < t0 || a.t > t1 {
            continue;
        }
        let x = x_of(a.t);
        let class = match a.kind.as_str() {
            "scale" => "ann-scale",
            _ => "ann-other",
        };
        let _ = writeln!(
            out,
            "<g class=\"ann\"><title>{}</title>\
             <line class=\"{class}\" x1=\"{x:.1}\" y1=\"{MARGIN_TOP:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\"/>\
             <circle class=\"{class}\" cx=\"{x:.1}\" cy=\"{:.1}\" r=\"3\"/></g>",
            html_esc(&a.label),
            H - MARGIN_BOTTOM,
            MARGIN_TOP + 3.0,
        );
    }

    // Series polylines, split at NaN (and non-positive, on log panels) gaps.
    let total_points: usize = series.iter().map(|(_, c)| c.len()).sum();
    let mut end_label_slots: Vec<(usize, f64, String)> = Vec::new();
    for (i, (name, col)) in series.iter().enumerate() {
        let class = if i < SERIES_LIGHT.len() {
            format!("s{i}")
        } else {
            "sx".to_string()
        };
        let _ = writeln!(out, "<g class=\"series\"><title>{}</title>", html_esc(name));
        let mut segment: Vec<(f64, f64)> = Vec::new();
        let mut last_point: Option<(f64, f64)> = None;
        let flush = |out: &mut String, seg: &mut Vec<(f64, f64)>| {
            if seg.len() > 1 {
                let pts: Vec<String> = seg.iter().map(|(x, y)| format!("{x:.1},{y:.1}")).collect();
                let _ = writeln!(
                    out,
                    "<polyline class=\"line {class}\" points=\"{}\"/>",
                    pts.join(" ")
                );
            } else if let Some(&(x, y)) = seg.first() {
                // An isolated sample still deserves a visible mark.
                let _ = writeln!(
                    out,
                    "<circle class=\"dot {class}\" cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3\"/>"
                );
            }
            seg.clear();
        };
        for (j, &v) in col.iter().enumerate() {
            if v.is_finite() && (!panel.log_y || v > 0.0) {
                let p = (x_of(times[j]), y_of(v));
                segment.push(p);
                last_point = Some((times[j], v));
            } else {
                flush(out, &mut segment);
            }
        }
        flush(out, &mut segment);
        // End marker with a surface ring so overlaps stay legible.
        if let Some((t, v)) = last_point {
            let _ = writeln!(
                out,
                "<circle class=\"end {class}\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\"/>",
                x_of(t),
                y_of(v)
            );
            end_label_slots.push((i, y_of(v), format!("{} {}", name, fmt_value(v))));
        }
        // Per-point hover tooltips when the panel is small enough.
        if total_points <= HOVER_POINT_BUDGET {
            for (j, &v) in col.iter().enumerate() {
                if v.is_finite() && (!panel.log_y || v > 0.0) {
                    let _ = writeln!(
                        out,
                        "<circle class=\"hit\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"6\">\
                         <title>{} @ {}m: {} {}</title></circle>",
                        x_of(times[j]),
                        y_of(v),
                        html_esc(name),
                        fmt_value(times[j] / 60.0),
                        fmt_value(v),
                        html_esc(&panel.unit)
                    );
                }
            }
        }
        out.push_str("</g>\n");
    }

    // Direct end-labels in text ink, nudged apart when they collide.
    if direct_labels {
        end_label_slots.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut prev = f64::NEG_INFINITY;
        for (i, y, label) in end_label_slots {
            let ly = (y.max(prev + 13.0)).clamp(MARGIN_TOP + 8.0, H - MARGIN_BOTTOM);
            prev = ly;
            if (ly - y).abs() > 2.0 {
                let _ = writeln!(
                    out,
                    "<line class=\"leader\" x1=\"{:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\"/>",
                    W - margin_right + 4.0,
                    W - margin_right + 12.0
                );
            }
            let _ = writeln!(
                out,
                "<text class=\"endlabel\" x=\"{:.1}\" y=\"{:.1}\"><tspan class=\"s{i}t\">\u{25CF}</tspan> {}</text>",
                W - margin_right + 14.0,
                ly + 3.5,
                html_esc(&label)
            );
        }
    }
    out.push_str("</svg>\n");

    // Table view: the accessibility fallback, sampled.
    render_table(out, times, &series, &panel.unit);
    out.push_str("</section>\n");
}

fn render_table(out: &mut String, times: &[f64], series: &[(String, Vec<f64>)], unit: &str) {
    let stride = times.len().div_ceil(TABLE_ROW_BUDGET).max(1);
    out.push_str("<details><summary>Data table</summary>\n");
    let header = std::iter::once("t (min)").chain(series.iter().map(|(name, _)| name.as_str()));
    let rows = times.iter().enumerate().step_by(stride).map(|(j, &t)| {
        let cells = std::iter::once(fmt_value(t / 60.0)).chain(series.iter().map(|(_, col)| {
            // NaN (no sample in that scrape) renders as an empty cell.
            if col[j].is_nan() {
                String::new()
            } else {
                fmt_value(col[j])
            }
        }));
        (cells.collect(), false)
    });
    page::table(out, &header.collect::<Vec<_>>(), rows);
    if stride > 1 {
        let _ = writeln!(
            out,
            "<p class=\"subtitle\">sampled every {stride} scrapes</p>"
        );
    }
    if !unit.is_empty() {
        let _ = writeln!(
            out,
            "<p class=\"subtitle\">values in {}</p>",
            html_esc(unit)
        );
    }
    out.push_str("</details>\n");
}

/// A linear y-axis from zero (or the data floor, if negative) to a nice
/// ceiling, with ~5 round-number ticks.
fn linear_axis(lo: f64, hi: f64) -> (f64, f64, Vec<f64>) {
    let ymin = lo.min(0.0);
    let raw_max = if hi <= ymin { ymin + 1.0 } else { hi };
    let step = nice_step((raw_max - ymin) / 4.0);
    let ymax = (raw_max / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut v = ymin;
    while v <= ymax + step * 0.5 {
        ticks.push(v);
        v += step;
    }
    (ymin, ymax, ticks)
}

/// A log y-axis spanning whole decades, ticked at powers of ten.
fn log_axis(lo: f64, hi: f64) -> (f64, f64, Vec<f64>) {
    let d0 = lo.log10().floor() as i32;
    let d1 = (hi.log10().ceil() as i32).max(d0 + 1);
    let ticks: Vec<f64> = (d0..=d1).map(|d| 10f64.powi(d)).collect();
    (10f64.powi(d0), 10f64.powi(d1), ticks)
}

/// The smallest 1/2/5 x 10^k at least as large as `raw`.
fn nice_step(raw: f64) -> f64 {
    let raw = raw.max(1e-12);
    let mag = 10f64.powf(raw.log10().floor());
    for m in [1.0, 2.0, 5.0, 10.0] {
        if m * mag >= raw {
            return m * mag;
        }
    }
    10.0 * mag
}

/// Round-number x ticks (in seconds), aiming for 5-8 of them.
fn time_ticks(t0: f64, t1: f64) -> Vec<f64> {
    let span = (t1 - t0).max(1.0);
    // Candidate steps in minutes.
    let step = [
        1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 1440.0,
    ]
    .into_iter()
    .map(|m| m * 60.0)
    .find(|s| span / s <= 8.0)
    .unwrap_or(span / 6.0);
    let mut ticks = Vec::new();
    let mut t = (t0 / step).ceil() * step;
    while t <= t1 {
        ticks.push(t);
        t += step;
    }
    ticks
}

/// Compact value formatting for ticks, labels, and table cells.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1e6 {
        format!("{}M", trim_zeros(format!("{:.2}", v / 1e6)))
    } else if a >= 10_000.0 {
        format!("{}k", trim_zeros(format!("{:.1}", v / 1e3)))
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        trim_zeros(format!("{v:.2}"))
    } else {
        trim_zeros(format!("{v:.4}"))
    }
}

fn trim_zeros(s: String) -> String {
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// Longest common prefix of the panel's metric names (stripped from series
/// display names, so `e2e_latency_p50` in a percentile panel reads `p50`),
/// or none unless what it leaves of every name is one word:
/// `ctrl_scale_outs_total` and `ctrl_scale_ins_total` keep their names.
fn common_prefix(names: &[String]) -> String {
    let Some(first) = names.first() else {
        return String::new();
    };
    if names.len() == 1 {
        return String::new();
    }
    let mut end = first.len();
    for n in &names[1..] {
        end = end.min(n.len());
        while end > 0 && n.as_bytes()[..end] != first.as_bytes()[..end] {
            end -= 1;
        }
    }
    // Cut back to a word boundary so `e2e_p50`/`e2e_p99` strip to
    // `p50`/`p99`, not `50`/`99`.
    while end > 0 && first.as_bytes()[end - 1] != b'_' {
        end -= 1;
    }
    if names.iter().any(|n| n[end..].contains('_')) {
        return String::new();
    }
    first[..end].to_string()
}

fn display_name(metric: &str, prefix: &str, labels: &[(String, String)]) -> String {
    let short = metric
        .strip_prefix(prefix)
        .filter(|s| !s.is_empty())
        .unwrap_or(metric);
    let values: Vec<&str> = labels
        .iter()
        .filter(|(k, _)| k != "system")
        .map(|(_, v)| v.as_str())
        .collect();
    if values.is_empty() {
        short.to_string()
    } else if short == metric && prefix.is_empty() && labels.len() == values.len() {
        // Single-metric panel: the labels alone identify the series.
        values.join(" ")
    } else {
        format!("{} {}", values.join(" "), short)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Labels, SeriesKey};

    #[allow(clippy::type_complexity)]
    fn store_with(series: &[(&str, &[(&str, &str)], &[f64])], times: &[f64]) -> TimeSeriesStore {
        let mut store = TimeSeriesStore::new();
        for (i, &t) in times.iter().enumerate() {
            let row: Vec<(SeriesKey, f64)> = series
                .iter()
                .filter(|(_, _, col)| !col[i].is_nan())
                .map(|(name, labels, col)| (SeriesKey::new(name, Labels::new(labels)), col[i]))
                .collect();
            store.append_row(t, row);
        }
        store
    }

    #[test]
    fn renders_selfcontained_html() {
        let store = store_with(
            &[
                ("util", &[("service", "api")], &[0.5, 0.6, 0.7]),
                ("util", &[("service", "db")], &[0.2, 0.3, 0.4]),
            ],
            &[60.0, 120.0, 180.0],
        );
        let panels = [PanelSpec::new("CPU utilization", "fraction", &["util"])];
        let anns = [Annotation::new(120.0, "scale", "api +1 replica")];
        let html = render_dashboard("Run", "seed 7", &store, &panels, &anns);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("CPU utilization"));
        assert!(html.contains("api +1 replica"));
        assert!(
            html.contains("class=\"legend\""),
            "two series need a legend"
        );
        assert!(html.contains("<table>"), "table view is required");
        // Self-contained: no external fetches, no scripts.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
    }

    #[test]
    fn single_series_has_no_legend() {
        let store = store_with(&[("depth", &[], &[1.0, 2.0])], &[60.0, 120.0]);
        let panels = [PanelSpec::new("Queue depth", "requests", &["depth"])];
        let html = render_dashboard("Run", "", &store, &panels, &[]);
        assert!(!html.contains("class=\"legend\""));
    }

    #[test]
    fn nan_gap_splits_polyline() {
        let store = store_with(
            &[("g", &[], &[1.0, f64::NAN, 3.0, 4.0])],
            &[60.0, 120.0, 180.0, 240.0],
        );
        let panels = [PanelSpec::new("G", "", &["g"])];
        let html = render_dashboard("Run", "", &store, &panels, &[]);
        // Two segments: the isolated leading point renders as a dot, the
        // trailing pair as one polyline.
        assert_eq!(html.matches("<polyline class=\"line").count(), 1);
        assert!(html.contains("class=\"dot"));
    }

    #[test]
    fn log_panel_skips_nonpositive() {
        let store = store_with(&[("lat", &[], &[0.0, 0.01, 0.1])], &[60.0, 120.0, 180.0]);
        let panels = [PanelSpec::new("Latency", "s", &["lat"]).log_y()];
        let html = render_dashboard("Run", "", &store, &panels, &[]);
        assert!(html.contains("<svg"));
        // Decade ticks from 0.01 to 0.1.
        assert!(html.contains(">0.01<"));
        assert!(html.contains(">0.1<"));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let store = store_with(&[("m", &[("service", "a<b")], &[1.0])], &[60.0]);
        let panels = [PanelSpec::new("T<itle>", "", &["m"])];
        let anns = [Annotation::new(60.0, "phase", "load > 90% & rising")];
        let html = render_dashboard("R&D", "", &store, &panels, &anns);
        assert!(!html.contains("a<b"));
        assert!(!html.contains("T<itle>"));
        assert!(html.contains("load &gt; 90% &amp; rising"));
    }

    #[test]
    fn empty_store_renders_placeholder() {
        let html = render_dashboard("Run", "", &TimeSeriesStore::new(), &[], &[]);
        assert!(html.contains("No scrapes recorded"));
    }

    #[test]
    fn percentile_panel_strips_common_prefix() {
        let store = store_with(
            &[
                ("e2e_p50", &[("class", "get")], &[0.01, 0.01]),
                ("e2e_p99", &[("class", "get")], &[0.09, 0.09]),
            ],
            &[60.0, 120.0],
        );
        let panels = [PanelSpec::new("E2E latency", "s", &["e2e_p50", "e2e_p99"])];
        let html = render_dashboard("Run", "", &store, &panels, &[]);
        assert!(html.contains("get p50"));
        assert!(html.contains("get p99"));
    }

    #[test]
    fn multiword_remainders_keep_full_names() {
        let store = store_with(
            &[
                (
                    "ctrl_scale_outs_total",
                    &[("system", "auto-a")],
                    &[1.0, 2.0],
                ),
                ("ctrl_scale_ins_total", &[("system", "auto-a")], &[0.0, 1.0]),
            ],
            &[60.0, 120.0],
        );
        let metrics = ["ctrl_scale_outs_total", "ctrl_scale_ins_total"];
        let panels = [PanelSpec::new("Controller internals", "", &metrics)];
        let html = render_dashboard("Run", "", &store, &panels, &[]);
        for name in metrics {
            assert!(html.contains(&format!(">{name}<")), "{name}");
        }
        assert!(!html.contains(">outs_total<"));
    }

    #[test]
    fn nice_axis_helpers() {
        let (ymin, ymax, ticks) = linear_axis(0.0, 7.3);
        assert_eq!(ymin, 0.0);
        assert_eq!(ymax, 8.0);
        assert_eq!(ticks, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        let (lmin, lmax, lticks) = log_axis(0.02, 3.0);
        assert_eq!(lmin, 0.01);
        assert_eq!(lmax, 10.0);
        assert_eq!(lticks, vec![0.01, 0.1, 1.0, 10.0]);
        assert_eq!(nice_step(3.1), 5.0);
        assert_eq!(nice_step(0.9), 1.0);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1234567.0), "1.23M");
        assert_eq!(fmt_value(45000.0), "45k");
        assert_eq!(fmt_value(123.4), "123");
        assert_eq!(fmt_value(1.5), "1.5");
        assert_eq!(fmt_value(0.0123), "0.0123");
    }
}
