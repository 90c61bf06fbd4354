//! `diff` subcommand — aligns two run manifests and reports what moved.
//!
//! `ursa-bench diff <run_a.json> <run_b.json>` loads two manifests written
//! by [`crate::manifest`], aligns every section by key, and emits:
//!
//! * a machine-readable TSV (`diff.tsv`): one row per aligned entry with
//!   both values, the absolute delta, the relative delta, and a
//!   significance flag;
//! * a script-free, self-contained HTML report (`diff.html`): the same
//!   rows as static tables with significant entries highlighted.
//!
//! Entry `b` differs significantly from baseline `a` when it falls outside
//! `a × (1 ± tolerance)` (default [`DEFAULT_TOLERANCE`], overridable with
//! `--tolerance`). An identity row (seed, scale, topology, plan and table
//! digests) is significant whenever its two sides differ; only `jobs` is
//! not, since every artifact is byte-identical at any worker count. The
//! summary, the exit code, the TSV flag and the HTML highlight all count
//! the same rows.
//!
//! Diffing a manifest against itself yields all-zero deltas and — because
//! manifests and this report are rendered from BTreeMap-backed state with
//! fixed float formatting — byte-identical output for byte-identical
//! inputs (enforced by `tests/diff_determinism.rs`).

use std::fmt::Write as _;
use std::path::Path;

use ursa_metrics::export::page::{self, html_esc};
use ursa_metrics::json::{parse_json, JsonValue};

/// Default significance band: a value more than 35 % away from run A's
/// counts as moved.
pub const DEFAULT_TOLERANCE: f64 = 0.35;

/// One aligned row of the diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Section the row belongs to (`series` or `tables`).
    pub section: String,
    /// The aligned key.
    pub key: String,
    /// Value in run A (None = absent).
    pub a: Option<f64>,
    /// Value in run B (None = absent).
    pub b: Option<f64>,
    /// `b - a` when both are present.
    pub delta: Option<f64>,
    /// `(b - a) / |a|` when both are present and `a != 0`.
    pub rel: Option<f64>,
    /// True when the entry moved outside the tolerance band (or exists on
    /// only one side).
    pub significant: bool,
}

/// A fully aligned pair of manifests.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Identity lines (kind/seed/jobs/scale/topology, textual).
    pub identity: Vec<(String, String, String)>,
    /// Aligned numeric rows, in section + key order.
    pub rows: Vec<DiffRow>,
    /// Decision-log divergence notes, one per cell.
    pub divergences: Vec<String>,
    /// The applied tolerance.
    pub tolerance: f64,
}

impl DiffReport {
    /// Aligned entries: identity rows plus numeric rows.
    pub fn entries(&self) -> usize {
        self.identity.len() + self.rows.len()
    }

    /// Entries that moved significantly: numeric rows outside the band
    /// and identity rows whose sides differ.
    pub fn significant(&self) -> usize {
        self.rows.iter().filter(|r| r.significant).count()
            + self
                .identity
                .iter()
                .filter(|row| identity_moved(row))
                .count()
    }

    /// True when nothing moved at all (self-diff).
    pub fn is_zero(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.delta == Some(0.0) && !r.significant)
            && self.identity.iter().all(|(_, a, b)| a == b)
            && self.divergences.is_empty()
    }
}

/// Whether an identity row marks a change. A different `jobs` does not:
/// every artifact is byte-identical at any worker count.
fn identity_moved((key, a, b): &(String, String, String)) -> bool {
    a != b && key != "jobs"
}

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.6}"),
        None => "-".into(),
    }
}

/// Aligns one string-valued identity field.
fn ident(out: &mut Vec<(String, String, String)>, key: &str, a: &JsonValue, b: &JsonValue) {
    let get = |v: &JsonValue| -> String {
        match v.get(key) {
            Some(JsonValue::Str(s)) => s.clone(),
            Some(JsonValue::Num(n)) => format!("{n}"),
            Some(JsonValue::Null) | None => "-".into(),
            Some(other) => format!("{other:?}"),
        }
    };
    out.push((key.to_string(), get(a), get(b)));
}

/// Collects `key -> value` pairs from a manifest section into sorted rows.
fn keyed_f64s(v: &JsonValue, section: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    match section {
        "series" => {
            for item in v.get("series").and_then(JsonValue::as_arr).unwrap_or(&[]) {
                let Some(key) = item.get("key").and_then(JsonValue::as_str) else {
                    continue;
                };
                for stat in ["mean", "last", "min", "max", "count"] {
                    if let Some(x) = item.get(stat).and_then(JsonValue::as_f64) {
                        out.push((format!("{key}#{stat}"), x));
                    }
                }
            }
        }
        "tables" => {
            for (name, t) in v.get("tables").and_then(JsonValue::as_obj).unwrap_or(&[]) {
                if let Some(rows) = t.get("rows").and_then(JsonValue::as_f64) {
                    out.push((format!("{name}#rows"), rows));
                }
            }
        }
        _ => {}
    }
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

/// Merges two sorted key/value lists into aligned diff rows.
fn align(section: &str, a: &[(String, f64)], b: &[(String, f64)], tolerance: f64) -> Vec<DiffRow> {
    let mut keys: Vec<&String> = a.iter().chain(b).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let find = |xs: &[(String, f64)], k: &String| -> Option<f64> {
        xs.binary_search_by(|(key, _)| key.cmp(k))
            .ok()
            .map(|i| xs[i].1)
    };
    keys.into_iter()
        .map(|k| {
            let va = find(a, k);
            let vb = find(b, k);
            let delta = match (va, vb) {
                (Some(x), Some(y)) => Some(y - x),
                _ => None,
            };
            let rel = match (va, delta) {
                (Some(x), Some(d)) if x != 0.0 => Some(d / x.abs()),
                _ => None,
            };
            let significant = match (va, vb) {
                (Some(x), Some(y)) => {
                    let band = tolerance * x.abs();
                    (y - x).abs() > band && (y - x).abs() > 1e-12
                }
                _ => true,
            };
            DiffRow {
                section: section.to_string(),
                key: k.clone(),
                a: va,
                b: vb,
                delta,
                rel,
                significant,
            }
        })
        .collect()
}

/// Compares digest-valued maps (`chaos_plan_digests`, table digests) as
/// identity rows with a changed/unchanged verdict.
fn digest_rows(a: &JsonValue, b: &JsonValue) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let topo = |v: &JsonValue| {
        v.get("topology_digest")
            .and_then(JsonValue::as_str)
            .unwrap_or("-")
            .to_string()
    };
    out.push(("topology_digest".into(), topo(a), topo(b)));
    let mut names: Vec<String> = Vec::new();
    for v in [a, b] {
        for (name, _) in v
            .get("chaos_plan_digests")
            .and_then(JsonValue::as_obj)
            .unwrap_or(&[])
        {
            names.push(name.clone());
        }
    }
    names.sort();
    names.dedup();
    let get = |v: &JsonValue, name: &str| -> String {
        v.get("chaos_plan_digests")
            .and_then(|o| o.get(name))
            .and_then(JsonValue::as_str)
            .unwrap_or("-")
            .to_string()
    };
    for name in names {
        out.push((format!("chaos/{name}"), get(a, &name), get(b, &name)));
    }
    let mut table_names: Vec<String> = Vec::new();
    for v in [a, b] {
        for (name, _) in v.get("tables").and_then(JsonValue::as_obj).unwrap_or(&[]) {
            table_names.push(name.clone());
        }
    }
    table_names.sort();
    table_names.dedup();
    let tget = |v: &JsonValue, name: &str| -> String {
        v.get("tables")
            .and_then(|o| o.get(name))
            .and_then(|t| t.get("digest"))
            .and_then(JsonValue::as_str)
            .unwrap_or("-")
            .to_string()
    };
    for name in table_names {
        out.push((format!("table/{name}"), tget(a, &name), tget(b, &name)));
    }
    out
}

/// Locates decision-log divergence per cell: identical digests mean the
/// two runs took the exact same decision sequence; otherwise the first
/// differing tail line (aligned from the end) localises where they split.
fn decision_divergence(a: &JsonValue, b: &JsonValue) -> Vec<String> {
    let mut cells: Vec<String> = Vec::new();
    for v in [a, b] {
        for (cell, _) in v
            .get("decisions")
            .and_then(JsonValue::as_obj)
            .unwrap_or(&[])
        {
            cells.push(cell.clone());
        }
    }
    cells.sort();
    cells.dedup();
    let mut out = Vec::new();
    for cell in cells {
        let da = a.get("decisions").and_then(|o| o.get(&cell));
        let db = b.get("decisions").and_then(|o| o.get(&cell));
        match (da, db) {
            (Some(da), Some(db)) => {
                let dig = |d: &JsonValue| {
                    d.get("digest")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                if dig(da) == dig(db) {
                    continue;
                }
                let tails = |d: &JsonValue| -> Vec<String> {
                    d.get("tail")
                        .and_then(JsonValue::as_arr)
                        .map(|xs| {
                            xs.iter()
                                .filter_map(|x| x.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default()
                };
                let (ta, tb) = (tails(da), tails(db));
                let total = |d: &JsonValue| {
                    d.get("total").and_then(JsonValue::as_f64).unwrap_or(0.0) as usize
                };
                let first_diff = ta
                    .iter()
                    .zip(tb.iter())
                    .position(|(x, y)| x != y)
                    .unwrap_or(ta.len().min(tb.len()));
                out.push(format!(
                    "{cell}: decision logs diverge ({} vs {} records); first differing tail \
                     line {first_diff} of {}",
                    total(da),
                    total(db),
                    ta.len().max(tb.len())
                ));
            }
            (Some(_), None) => out.push(format!("{cell}: decisions only in run A")),
            (None, Some(_)) => out.push(format!("{cell}: decisions only in run B")),
            (None, None) => {}
        }
    }
    out
}

/// Diffs two parsed manifests.
pub fn diff_manifests(a: &JsonValue, b: &JsonValue, tolerance: f64) -> DiffReport {
    let mut identity = Vec::new();
    for key in ["schema", "kind", "seed", "jobs", "scale"] {
        ident(&mut identity, key, a, b);
    }
    identity.extend(digest_rows(a, b));
    let mut rows = Vec::new();
    for section in ["series", "tables"] {
        let ka = keyed_f64s(a, section);
        let kb = keyed_f64s(b, section);
        rows.extend(align(section, &ka, &kb, tolerance));
    }
    DiffReport {
        identity,
        rows,
        divergences: decision_divergence(a, b),
        tolerance,
    }
}

/// Renders the TSV artifact.
pub fn render_tsv(report: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "section\tkey\ta\tb\tdelta\trel\tsignificant");
    for row in &report.identity {
        let (key, a, b) = row;
        let sig = if identity_moved(row) { "yes" } else { "no" };
        let _ = writeln!(out, "identity\t{key}\t{a}\t{b}\t-\t-\t{sig}");
    }
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.section,
            r.key,
            fmt_opt(r.a),
            fmt_opt(r.b),
            fmt_opt(r.delta),
            fmt_opt(r.rel),
            if r.significant { "yes" } else { "no" }
        );
    }
    for d in &report.divergences {
        let _ = writeln!(out, "divergence\t{d}\t-\t-\t-\t-\tyes");
    }
    out
}

/// Renders the self-contained HTML artifact.
pub fn render_html(report: &DiffReport) -> String {
    let mut out = page::open("ursa-bench diff");
    let _ = writeln!(
        out,
        "<p>{} aligned entries, {} significant at tolerance {:.2} \
         (outside <code>a × (1 ± tolerance)</code>).</p>",
        report.entries(),
        report.significant(),
        report.tolerance
    );
    out.push_str("<h2>Identity</h2>\n");
    let identity = report.identity.iter().map(|row| {
        let (key, a, b) = row;
        (vec![key.clone(), a.clone(), b.clone()], identity_moved(row))
    });
    page::table(&mut out, &["key", "run A", "run B"], identity);
    if !report.divergences.is_empty() {
        out.push_str("<h2>Decision-log divergence</h2>\n<ul>\n");
        for d in &report.divergences {
            let _ = writeln!(out, "<li>{}</li>", html_esc(d));
        }
        out.push_str("</ul>\n");
    }
    for section in ["series", "tables"] {
        let rows: Vec<(Vec<String>, bool)> = report
            .rows
            .iter()
            .filter(|r| r.section == section)
            .map(|r| {
                let cells = [r.a, r.b, r.delta, r.rel].map(fmt_opt);
                (
                    std::iter::once(r.key.clone()).chain(cells).collect(),
                    r.significant,
                )
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "<h2>{section}</h2>");
        page::table(&mut out, &["key", "a", "b", "delta", "rel"], rows);
    }
    page::close(out)
}

/// Runs the diff end-to-end: load, align at `tolerance`,
/// write `diff.tsv` / `diff.html` under `out_dir`, print the summary.
/// Returns the process exit code: 0 = no significant entries,
/// 1 = a significant entry (numeric or identity) or a decision-log
/// divergence (the report was still written), 2 = bad input/IO.
pub fn run(a_path: &Path, b_path: &Path, out_dir: &Path, tolerance: f64) -> i32 {
    let load = |p: &Path| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read: {e}"))?;
        let v = parse_json(&text)?;
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s.starts_with("ursa-run-manifest/") => Ok(v),
            other => Err(format!("not a run manifest (schema {other:?})")),
        }
    };
    let a = match load(a_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {}: {e}", a_path.display());
            return 2;
        }
    };
    let b = match load(b_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {}: {e}", b_path.display());
            return 2;
        }
    };
    let report = diff_manifests(&a, &b, tolerance);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return 2;
    }
    let tsv_path = out_dir.join("diff.tsv");
    let html_path = out_dir.join("diff.html");
    if let Err(e) = std::fs::write(&tsv_path, render_tsv(&report)) {
        eprintln!("error: cannot write {}: {e}", tsv_path.display());
        return 2;
    }
    if let Err(e) = std::fs::write(&html_path, render_html(&report)) {
        eprintln!("error: cannot write {}: {e}", html_path.display());
        return 2;
    }
    println!(
        "diff: {} aligned entries, {} significant (tolerance {:.2}), {} decision divergence(s)",
        report.entries(),
        report.significant(),
        report.tolerance,
        report.divergences.len()
    );
    for d in &report.divergences {
        println!("  divergence: {d}");
    }
    if report.is_zero() {
        println!("runs are identical under the manifest view");
    }
    println!("wrote {} and {}", tsv_path.display(), html_path.display());
    if report.significant() > 0 || !report.divergences.is_empty() {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunManifest;
    use ursa_metrics::{Labels, SeriesKey, TimeSeriesStore};

    /// A manifest holding one scrape of `series` under cell `cell`, plus
    /// one table.
    fn manifest(series: &[(&str, f64)]) -> JsonValue {
        parse_json(&manifest_text(1, 2, b"x\n", series)).unwrap()
    }

    /// [`manifest`]'s text at a given seed and worker count, with table
    /// `t`'s bytes given.
    fn manifest_text(seed: u64, jobs: usize, tsv: &[u8], series: &[(&str, f64)]) -> String {
        let mut m = RunManifest::new("unit", seed, jobs, "quick");
        m.set_topology_digest(0xAB);
        let mut store = TimeSeriesStore::new();
        let row = series
            .iter()
            .map(|&(name, v)| (SeriesKey::new(name, Labels::empty()), v));
        store.append_row(1.0, row);
        m.note_store("cell", &store);
        m.note_table("t", 4, tsv);
        m.to_json()
    }

    fn run(rps: f64) -> JsonValue {
        manifest(&[("rps", rps), ("speedup", 3.0)])
    }

    fn row<'a>(report: &'a DiffReport, key: &str) -> &'a DiffRow {
        report.rows.iter().find(|r| r.key == key).unwrap()
    }

    #[test]
    fn self_diff_is_all_zero() {
        let v = run(1000.0);
        let report = diff_manifests(&v, &v, DEFAULT_TOLERANCE);
        assert!(report.is_zero(), "{:?}", report.rows);
        assert_eq!(report.significant(), 0);
        let tsv = render_tsv(&report);
        assert!(tsv.contains("series\tcell/rps#mean\t1000.000000\t1000.000000\t0.000000"));
        assert!(tsv.contains("tables\tt#rows\t4.000000\t4.000000\t0.000000"));
        // Deterministic rendering.
        let again = diff_manifests(&v, &v, DEFAULT_TOLERANCE);
        assert_eq!(tsv, render_tsv(&again));
        assert_eq!(render_html(&report), render_html(&again));
    }

    #[test]
    fn significance_follows_the_band() {
        let a = run(1000.0);
        // -30% stays inside the default 35% band; -50% trips it.
        let r_ok = diff_manifests(&a, &run(700.0), DEFAULT_TOLERANCE);
        let ok = row(&r_ok, "cell/rps#mean");
        assert!(!ok.significant);
        assert_eq!(ok.delta, Some(-300.0));
        assert!((ok.rel.unwrap() + 0.3).abs() < 1e-12);
        let r_bad = diff_manifests(&a, &run(500.0), DEFAULT_TOLERANCE);
        assert!(row(&r_bad, "cell/rps#mean").significant);
        // Improvements outside the band are flagged too (it is a change
        // detector, not only a regression gate).
        let r_up = diff_manifests(&a, &run(2000.0), DEFAULT_TOLERANCE);
        assert!(row(&r_up, "cell/rps#mean").significant);
    }

    #[test]
    fn one_sided_keys_are_flagged() {
        let a = run(1000.0);
        let b = manifest(&[("rps", 1000.0)]);
        let r = diff_manifests(&a, &b, DEFAULT_TOLERANCE);
        let speedup = row(&r, "cell/speedup#mean");
        assert!(speedup.significant);
        assert_eq!(speedup.b, None);
        assert!(!row(&r, "cell/rps#mean").significant);
        assert!(!r.is_zero());
    }

    #[test]
    fn html_is_script_free() {
        let v = run(1000.0);
        let html = render_html(&diff_manifests(&v, &v, DEFAULT_TOLERANCE));
        assert!(!html.contains("<script"));
        assert!(html.contains("cell/rps#mean"));
        assert!(!html.contains("scalars"));
    }

    /// A changed table digest or seed is significant everywhere the
    /// report says so: the count behind the summary and the exit code, the
    /// TSV flag and the HTML highlight. A different worker count is not.
    #[test]
    fn changed_identity_rows_are_significant() {
        let series = [("rps", 1000.0)];
        let a = manifest_text(1, 2, b"x\n", &series);
        let dir = std::env::temp_dir().join(format!("ursa-diff-identity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("a.json");
        std::fs::write(&path_a, &a).unwrap();
        for (key, b, moved) in [
            ("table/t", manifest_text(1, 2, b"y\n", &series), true),
            ("seed", manifest_text(7, 2, b"x\n", &series), true),
            ("jobs", manifest_text(1, 8, b"x\n", &series), false),
        ] {
            let parsed = |text: &str| parse_json(text).unwrap();
            let report = diff_manifests(&parsed(&a), &parsed(&b), DEFAULT_TOLERANCE);
            assert!(report.rows.iter().all(|r| !r.significant), "{key}");
            assert_eq!(report.significant(), usize::from(moved), "{key}");
            let flag = if moved { "yes" } else { "no" };
            let tsv = render_tsv(&report);
            let line = tsv
                .lines()
                .find(|l| l.starts_with(&format!("identity\t{key}\t")));
            assert!(line.unwrap().ends_with(&format!("\t{flag}")), "{tsv}");
            let html = render_html(&report);
            let sig_row = format!("<tr class=\"sig\"><td>{key}</td>");
            assert_eq!(html.contains(&sig_row), moved, "{key}");
            let path_b = dir.join("b.json");
            std::fs::write(&path_b, &b).unwrap();
            let code = super::run(&path_a, &path_b, &dir.join("out"), DEFAULT_TOLERANCE);
            assert_eq!(code, i32::from(moved), "{key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest nested 200 000 deep is bad input, on either side: `run`
    /// returns 2 and writes nothing instead of overflowing the stack.
    #[test]
    fn deeply_nested_input_returns_2() {
        let dir = std::env::temp_dir().join(format!("ursa-diff-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("a.json");
        std::fs::write(&good, manifest_text(1, 2, b"x\n", &[("rps", 1000.0)])).unwrap();
        let deep = dir.join("b.json");
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let out = dir.join("out");
        assert_eq!(super::run(&good, &deep, &out, DEFAULT_TOLERANCE), 2);
        assert_eq!(super::run(&deep, &good, &out, DEFAULT_TOLERANCE), 2);
        assert!(!out.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
