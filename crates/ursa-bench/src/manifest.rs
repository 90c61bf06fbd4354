//! Self-describing run manifests (`run.json`).
//!
//! Every experiment run writes a manifest saying *what ran* (kind, seed,
//! jobs, scale) and *what came out*: the row count and FNV-1a digest of
//! every TSV table it wrote. Two manifests from different commits or
//! machines can then be compared by `ursa-bench diff` without re-running
//! anything.
//!
//! Determinism contract: the tables are BTreeMap-backed, so the rendered
//! JSON is byte-identical for a fixed seed regardless of `--jobs`,
//! insertion order, or platform — enforced by `tests/diff_determinism.rs`.
//!
//! A run's manifest lives in its [`RunCtx`](crate::RunCtx): the binary
//! builds one per experiment, the experiments feed it through
//! [`RunCtx::manifest`](crate::RunCtx::manifest), and the binary writes it
//! out when the experiment returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ursa_metrics::json::esc;
use ursa_sim::topology::Fnv;

/// Manifest schema identifier.
pub const SCHEMA: &str = "ursa-run-manifest/v4";

/// Digest of one written TSV table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDigest {
    /// Data rows (header excluded).
    pub rows: usize,
    /// FNV-1a digest of the exact TSV bytes.
    pub digest: u64,
}

/// A run manifest under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    kind: String,
    seed: u64,
    jobs: usize,
    scale: String,
    tables: BTreeMap<String, TableDigest>,
}

impl RunManifest {
    /// Starts an empty manifest for one run.
    pub fn new(kind: &str, seed: u64, jobs: usize, scale: &str) -> Self {
        RunManifest {
            kind: kind.to_string(),
            seed,
            jobs,
            scale: scale.to_string(),
            tables: BTreeMap::new(),
        }
    }

    /// Records one written TSV table.
    pub fn note_table(&mut self, name: &str, rows: usize, tsv: &[u8]) {
        self.tables.insert(
            name.to_string(),
            TableDigest {
                rows,
                digest: Fnv::digest(tsv),
            },
        );
    }

    /// Renders the manifest as JSON (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"kind\": \"{}\",", esc(&self.kind));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"scale\": \"{}\",", esc(&self.scale));
        let _ = writeln!(out, "  \"tables\": {{");
        for (i, (name, t)) in self.tables.iter().enumerate() {
            let comma = if i + 1 < self.tables.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"rows\": {}, \"digest\": \"{:016x}\"}}{comma}",
                esc(name),
                t.rows,
                t.digest
            );
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes the manifest under `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<PathBuf> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())?;
        Ok(path.to_path_buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_metrics::json::{parse_json, JsonValue};

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("fig11", 7, 4, "quick");
        m.note_table("zz_fig11_12", 30, b"a\tb\n1\t2\n");
        m.note_table("aa_table", 1, b"x\n");
        m
    }

    #[test]
    fn manifest_json_roundtrips_through_parser() {
        let m = sample_manifest();
        let json = m.to_json();
        let v = parse_json(&json).expect("manifest parses");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(v.get("jobs").and_then(JsonValue::as_f64), Some(4.0));
        let tables = v.get("tables").and_then(JsonValue::as_obj).unwrap();
        // Sorted by name: aa_table before zz_fig11_12.
        let names: Vec<&str> = tables.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["aa_table", "zz_fig11_12"]);
        let table = v.get("tables").and_then(|t| t.get("zz_fig11_12"));
        assert_eq!(table.and_then(|t| t.get("rows")?.as_f64()), Some(30.0));
        // Identity and tables are all a manifest holds.
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(keys, ["schema", "kind", "seed", "jobs", "scale", "tables"]);
    }

    #[test]
    fn manifest_rendering_is_deterministic() {
        assert_eq!(sample_manifest().to_json(), sample_manifest().to_json());
    }

    /// Table digests are FNV-1a. A change to it would re-key every
    /// manifest already written, so the reference vector and one TSV
    /// digest are pinned.
    #[test]
    fn digests_are_pinned() {
        // Reference vector: FNV-1a 64 of "a".
        assert_eq!(Fnv::digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(Fnv::digest(b"ab"), Fnv::digest(b"ba"));
        let mut m = RunManifest::new("fig11", 0, 1, "quick");
        m.note_table(
            "t",
            1,
            b"load\tsystem\tviolation_pct\tcores\n300\tursa\t1.21\t57.5\n",
        );
        assert_eq!(m.tables["t"].digest, 0xf1f4_ebdd_f852_7848);
    }
}
