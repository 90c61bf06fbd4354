//! `diff` subcommand — compares two run manifests and says what changed.
//!
//! `ursa-bench diff <run_a.json> <run_b.json>` loads two manifests written
//! by [`crate::manifest`] and writes one row per identity field (`schema`,
//! `kind`, `seed`, `jobs`, `scale`) and one per table (its digest and row
//! count), each with both sides and a significance flag:
//!
//! * a machine-readable TSV (`diff.tsv`);
//! * a script-free, self-contained HTML report (`diff.html`): the same
//!   rows as a static table with significant ones highlighted.
//!
//! A row is significant when its two sides differ, except `schema` and
//! `jobs`: the tables are what a run produced, and they read the same in
//! any manifest version and at any worker count. The summary, the exit
//! code, the TSV flag and the HTML highlight all count the same rows.
//! Manifests of every `ursa-run-manifest/` version load; the sections that
//! v1–v3 files carried besides these (a topology digest, series
//! summaries, decision-log tails, plan digests) are ignored.
//!
//! Diffing a manifest against itself marks no row, and the report is
//! rendered from the manifests' key order alone, so byte-identical inputs
//! give byte-identical output (enforced by `tests/diff_determinism.rs`).

use std::fmt::Write as _;
use std::path::Path;

use ursa_metrics::export::page;
use ursa_metrics::json::{parse_json, JsonValue};

/// The identity fields every manifest version holds, in row order.
const IDENTITY: [&str; 5] = ["schema", "kind", "seed", "jobs", "scale"];

/// One row of the diff: a field or a table on both sides (`-` = absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// `identity` or `table`.
    pub section: &'static str,
    /// The identity field or the table name.
    pub key: String,
    /// Run A's value.
    pub a: String,
    /// Run B's value.
    pub b: String,
}

impl DiffRow {
    /// Whether the row marks a change: its sides differ, and it is not
    /// the `schema` or `jobs` identity row.
    pub fn significant(&self) -> bool {
        self.a != self.b
            && !(self.section == "identity" && matches!(self.key.as_str(), "schema" | "jobs"))
    }
}

/// Two manifests compared row by row.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Identity rows (`schema`, `kind`, `seed`, `jobs`, `scale`), then
    /// table rows by name.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Rows that mark a change.
    pub fn significant(&self) -> usize {
        self.rows.iter().filter(|r| r.significant()).count()
    }

    /// True when every row reads the same on both sides (self-diff).
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(|r| r.a == r.b)
    }
}

/// Renders one scalar of a manifest as its row shows it.
fn scalar(v: Option<&JsonValue>) -> String {
    match v {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Num(n)) => format!("{n}"),
        Some(JsonValue::Null) | None => "-".into(),
        Some(other) => format!("{other:?}"),
    }
}

/// One table's digest and row count, `-` when the manifest lacks it.
fn table(v: &JsonValue, name: &str) -> String {
    match v.get("tables").and_then(|t| t.get(name)) {
        Some(t) => format!(
            "{} ({} rows)",
            scalar(t.get("digest")),
            scalar(t.get("rows"))
        ),
        None => "-".into(),
    }
}

/// Diffs two parsed manifests.
pub fn diff_manifests(a: &JsonValue, b: &JsonValue) -> DiffReport {
    let mut rows: Vec<DiffRow> = IDENTITY
        .iter()
        .map(|&key| DiffRow {
            section: "identity",
            key: key.to_string(),
            a: scalar(a.get(key)),
            b: scalar(b.get(key)),
        })
        .collect();
    let mut names: Vec<&String> = [a, b]
        .iter()
        .flat_map(|v| v.get("tables").and_then(JsonValue::as_obj).unwrap_or(&[]))
        .map(|(name, _)| name)
        .collect();
    names.sort();
    names.dedup();
    rows.extend(names.into_iter().map(|name| DiffRow {
        section: "table",
        key: name.clone(),
        a: table(a, name),
        b: table(b, name),
    }));
    DiffReport { rows }
}

fn flag(row: &DiffRow) -> &'static str {
    if row.significant() {
        "yes"
    } else {
        "no"
    }
}

/// Renders the TSV artifact.
pub fn render_tsv(report: &DiffReport) -> String {
    let mut out = String::from("section\tkey\ta\tb\tsignificant\n");
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            r.section,
            r.key,
            r.a,
            r.b,
            flag(r)
        );
    }
    out
}

/// Renders the self-contained HTML artifact.
pub fn render_html(report: &DiffReport) -> String {
    let mut out = page::open("ursa-bench diff");
    let _ = writeln!(
        out,
        "<p>{} rows, {} changed.</p>",
        report.rows.len(),
        report.significant()
    );
    let rows = report.rows.iter().map(|r| {
        let cells = [
            r.section.to_string(),
            r.key.clone(),
            r.a.clone(),
            r.b.clone(),
        ];
        (cells.to_vec(), r.significant())
    });
    page::table(&mut out, &["section", "key", "run A", "run B"], rows);
    page::close(out)
}

/// Parses a run manifest: any JSON document whose `schema` names an
/// `ursa-run-manifest/` version.
///
/// # Errors
///
/// Returns the parser's message for malformed JSON (with its byte offset),
/// or says which schema was found instead.
pub fn parse_manifest(text: &str) -> Result<JsonValue, String> {
    let v = parse_json(text)?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s.starts_with("ursa-run-manifest/") => Ok(v),
        other => Err(format!("not a run manifest (schema {other:?})")),
    }
}

/// Runs the diff end-to-end: load, compare, write `diff.tsv` /
/// `diff.html` under `out_dir`, print the summary and every changed row.
/// Returns the process exit code: 0 = no significant row, 1 = a
/// significant row (the report was still written), 2 = bad input/IO.
pub fn run(a_path: &Path, b_path: &Path, out_dir: &Path) -> i32 {
    match try_run(a_path, b_path, out_dir) {
        Ok(report) => i32::from(report.significant() > 0),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn try_run(a_path: &Path, b_path: &Path, out_dir: &Path) -> Result<DiffReport, String> {
    let load = |p: &Path| -> Result<JsonValue, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("{}: cannot read: {e}", p.display()))?;
        parse_manifest(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let report = diff_manifests(&a, &b);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let tsv_path = out_dir.join("diff.tsv");
    let html_path = out_dir.join("diff.html");
    for (path, text) in [
        (&tsv_path, render_tsv(&report)),
        (&html_path, render_html(&report)),
    ] {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "diff: {} rows, {} changed",
        report.rows.len(),
        report.significant()
    );
    for r in report.rows.iter().filter(|r| r.significant()) {
        println!("  changed {} {}: {} -> {}", r.section, r.key, r.a, r.b);
    }
    if report.is_zero() {
        println!("runs are identical under the manifest view");
    }
    println!("wrote {} and {}", tsv_path.display(), html_path.display());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunManifest;

    /// A manifest at a given seed and worker count holding table `t` with
    /// the given bytes and row count.
    fn manifest_text(seed: u64, jobs: usize, tsv: &[u8], rows: usize) -> String {
        let mut m = RunManifest::new("unit", seed, jobs, "quick");
        m.note_table("t", rows, tsv);
        m.to_json()
    }

    fn manifest(tsv: &[u8], rows: usize) -> JsonValue {
        parse_json(&manifest_text(1, 2, tsv, rows)).unwrap()
    }

    fn row<'a>(report: &'a DiffReport, key: &str) -> &'a DiffRow {
        report.rows.iter().find(|r| r.key == key).unwrap()
    }

    /// A scratch directory for one test, removed by the caller.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ursa-diff-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn self_diff_is_all_zero() {
        let v = manifest(b"x\n", 4);
        let report = diff_manifests(&v, &v);
        assert!(report.is_zero(), "{:?}", report.rows);
        assert_eq!(report.significant(), 0);
        let tsv = render_tsv(&report);
        assert!(tsv.contains("identity\tseed\t1\t1\tno\n"), "{tsv}");
        let t = format!("{:016x} (4 rows)", ursa_sim::topology::Fnv::digest(b"x\n"));
        assert!(tsv.contains(&format!("table\tt\t{t}\t{t}\tno\n")), "{tsv}");
        assert_eq!(tsv.lines().count(), 1 + IDENTITY.len() + 1);
        // Deterministic rendering.
        let again = diff_manifests(&v, &v);
        assert_eq!(tsv, render_tsv(&again));
        assert_eq!(render_html(&report), render_html(&again));
    }

    /// A table row is significant when its digest or its row count
    /// differs, and only then.
    #[test]
    fn significance_follows_digest_and_row_count() {
        let a = manifest(b"x\n", 4);
        for (b, moved) in [
            (manifest(b"x\n", 4), false),
            (manifest(b"y\n", 4), true),
            (manifest(b"x\n", 5), true),
        ] {
            let report = diff_manifests(&a, &b);
            assert_eq!(row(&report, "t").significant(), moved, "{:?}", report.rows);
            assert_eq!(report.significant(), usize::from(moved));
        }
    }

    #[test]
    fn one_sided_keys_are_flagged() {
        let a = manifest(b"x\n", 4);
        let mut m = RunManifest::new("unit", 1, 2, "quick");
        m.note_table("t", 4, b"x\n");
        m.note_table("u", 1, b"z\n");
        let b = parse_json(&m.to_json()).unwrap();
        let r = diff_manifests(&a, &b);
        let u = row(&r, "u");
        assert!(u.significant());
        assert_eq!(u.a, "-");
        assert!(!row(&r, "t").significant());
        assert!(!r.is_zero());
    }

    #[test]
    fn html_is_script_free() {
        let v = manifest(b"x\n", 4);
        let html = render_html(&diff_manifests(&v, &v));
        assert!(!html.contains("<script"));
        assert!(html.contains("<td>t</td>"));
    }

    /// A changed table digest or seed is significant everywhere the
    /// report says so: the count behind the summary and the exit code, the
    /// TSV flag and the HTML highlight. A different worker count is not.
    #[test]
    fn changed_identity_rows_are_significant() {
        let a = manifest_text(1, 2, b"x\n", 4);
        let dir = scratch("identity");
        let path_a = dir.join("a.json");
        std::fs::write(&path_a, &a).unwrap();
        for (section, key, b, moved) in [
            ("table", "t", manifest_text(1, 2, b"y\n", 4), true),
            ("identity", "seed", manifest_text(7, 2, b"x\n", 4), true),
            ("identity", "jobs", manifest_text(1, 8, b"x\n", 4), false),
        ] {
            let parsed = |text: &str| parse_json(text).unwrap();
            let report = diff_manifests(&parsed(&a), &parsed(&b));
            assert_eq!(report.significant(), usize::from(moved), "{key}");
            assert!(!report.is_zero(), "{key}");
            let flag = if moved { "yes" } else { "no" };
            let tsv = render_tsv(&report);
            let line = tsv
                .lines()
                .find(|l| l.starts_with(&format!("{section}\t{key}\t")));
            assert!(line.unwrap().ends_with(&format!("\t{flag}")), "{tsv}");
            let html = render_html(&report);
            let sig_row = format!("<tr class=\"sig\"><td>{section}</td><td>{key}</td>");
            assert_eq!(html.contains(&sig_row), moved, "{key}");
            let path_b = dir.join("b.json");
            std::fs::write(&path_b, &b).unwrap();
            let code = super::run(&path_a, &path_b, &dir.join("out"));
            assert_eq!(code, i32::from(moved), "{key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v3 manifest, with the topology digest, series summaries and
    /// decision tails that version carried, loads; against the v4
    /// manifest of the same run nothing is significant, since the
    /// sections v4 dropped are not read and the schema row does not count.
    #[test]
    fn older_manifests_load_and_their_extra_sections_are_ignored() {
        let digest = ursa_sim::topology::Fnv::digest(b"x\n");
        let v3 = r#"{
  "schema": "ursa-run-manifest/v3",
  "kind": "unit",
  "seed": 1,
  "jobs": 2,
  "scale": "quick",
  "topology_digest": "00000000deadbeef",
  "series": [
    {"key": "cell/rps", "count": 1, "min": 1, "max": 1, "mean": 1, "last": 1}
  ],
  "tables": {
    "t": {"rows": 4, "digest": "DIGEST"}
  },
  "decisions": {
    "cell": {"total": 1, "digest": "00000000000000ab", "tail": ["{}"]}
  }
}
"#
        .replace("DIGEST", &format!("{digest:016x}"));
        let v4 = manifest_text(1, 2, b"x\n", 4);
        let dir = scratch("v3");
        let (path_3, path_4) = (dir.join("v3.json"), dir.join("v4.json"));
        std::fs::write(&path_3, &v3).unwrap();
        std::fs::write(&path_4, &v4).unwrap();
        let report = diff_manifests(&parse_manifest(&v3).unwrap(), &parse_manifest(&v4).unwrap());
        assert_eq!(report.rows.len(), IDENTITY.len() + 1, "{:?}", report.rows);
        assert_eq!(report.significant(), 0, "{:?}", report.rows);
        assert_ne!(row(&report, "schema").a, row(&report, "schema").b);
        assert_eq!(super::run(&path_3, &path_4, &dir.join("out")), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest cut short is bad input: `run` returns 2.
    #[test]
    fn truncated_input_returns_2() {
        let dir = scratch("truncated");
        let text = manifest_text(1, 2, b"x\n", 4);
        let (good, cut) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&good, &text).unwrap();
        std::fs::write(&cut, &text[..text.len() / 2]).unwrap();
        assert_eq!(super::run(&good, &cut, &dir.join("out")), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest nested 200 000 deep is bad input, on either side: `run`
    /// returns 2 and writes nothing instead of overflowing the stack.
    #[test]
    fn deeply_nested_input_returns_2() {
        let dir = scratch("deep");
        let good = dir.join("a.json");
        std::fs::write(&good, manifest_text(1, 2, b"x\n", 4)).unwrap();
        let deep = dir.join("b.json");
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let out = dir.join("out");
        assert_eq!(super::run(&good, &deep, &out), 2);
        assert_eq!(super::run(&deep, &good, &out), 2);
        assert!(!out.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
