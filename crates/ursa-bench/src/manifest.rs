//! Self-describing run manifests (`run.json`).
//!
//! Every experiment run writes a manifest describing *what ran* (kind,
//! seed, jobs, scale, topology digest) and
//! *what came out* (per-series metric digests, TSV-table digests,
//! decision-log tails). Two manifests from different commits or machines
//! can then be aligned by `ursa-bench diff` without re-running anything.
//!
//! Determinism contract: every collection in a manifest is BTreeMap-backed
//! and series digests come from [`ursa_metrics::store_digests`] (sorted by
//! name + labels), so the rendered JSON is byte-identical for a fixed
//! seed regardless of `--jobs`, insertion order, or platform — enforced by
//! `tests/diff_determinism.rs`.
//!
//! A run's manifest lives in its [`RunCtx`](crate::RunCtx): the binary
//! builds one per experiment, the experiments feed it through
//! [`RunCtx::manifest`](crate::RunCtx::manifest), and the binary writes it
//! out when the experiment returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ursa_core::decision_log::DecisionLog;
use ursa_metrics::json::{esc, num};
use ursa_metrics::{store_digests, SeriesSummary, TimeSeriesStore};
use ursa_sim::topology::Fnv;

/// Manifest schema identifier.
pub const SCHEMA: &str = "ursa-run-manifest/v3";
/// Decision-log tail lines retained per cell (divergence localisation).
const DECISION_TAIL: usize = 8;

/// Digest of one written TSV table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDigest {
    /// Data rows (header excluded).
    pub rows: usize,
    /// FNV-1a digest of the exact TSV bytes.
    pub digest: u64,
}

/// Digest + tail of one cell's decision log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionDigest {
    /// Retained records.
    pub total: usize,
    /// FNV-1a digest of the full JSONL rendering.
    pub digest: u64,
    /// The last `DECISION_TAIL` JSONL lines, for divergence localisation.
    pub tail: Vec<String>,
}

/// A run manifest under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    kind: String,
    seed: u64,
    jobs: usize,
    scale: String,
    topology_digest: Option<u64>,
    series: BTreeMap<String, SeriesSummary>,
    tables: BTreeMap<String, TableDigest>,
    decisions: BTreeMap<String, DecisionDigest>,
}

impl RunManifest {
    /// Starts an empty manifest for one run.
    pub fn new(kind: &str, seed: u64, jobs: usize, scale: &str) -> Self {
        RunManifest {
            kind: kind.to_string(),
            seed,
            jobs,
            scale: scale.to_string(),
            topology_digest: None,
            series: BTreeMap::new(),
            tables: BTreeMap::new(),
            decisions: BTreeMap::new(),
        }
    }

    /// Records the structural digest of the topology under test.
    pub fn set_topology_digest(&mut self, digest: u64) {
        self.topology_digest = Some(digest);
    }

    /// Digests every series of a store under `prefix` (sorted by
    /// name + labels, the satellite-6 ordering guarantee).
    pub fn note_store(&mut self, prefix: &str, store: &TimeSeriesStore) {
        for (key, summary) in store_digests(store) {
            self.series
                .insert(format!("{prefix}/{}", key.render()), summary);
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

    /// Records one cell's decision log (digest + tail).
    pub fn note_decisions(&mut self, cell: &str, log: &DecisionLog) {
        let mut buf: Vec<u8> = Vec::new();
        log.write_jsonl(&mut buf)
            .expect("Vec<u8> writes are infallible");
        let text = String::from_utf8(buf).expect("decision JSONL is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        let tail = lines
            .iter()
            .rev()
            .take(DECISION_TAIL)
            .rev()
            .map(|s| s.to_string())
            .collect();
        self.decisions.insert(
            cell.to_string(),
            DecisionDigest {
                total: log.len(),
                digest: Fnv::digest(text.as_bytes()),
                tail,
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
        match self.topology_digest {
            Some(d) => {
                let _ = writeln!(out, "  \"topology_digest\": \"{d:016x}\",");
            }
            None => {
                let _ = writeln!(out, "  \"topology_digest\": null,");
            }
        }
        let _ = writeln!(out, "  \"series\": [");
        for (i, (key, s)) in self.series.iter().enumerate() {
            let comma = trail(i, self.series.len());
            let _ = writeln!(
                out,
                "    {{\"key\": \"{}\", \"count\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"last\": {}}}{comma}",
                esc(key),
                s.count,
                num(s.min),
                num(s.max),
                num(s.mean),
                num(s.last)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"tables\": {{");
        for (i, (name, t)) in self.tables.iter().enumerate() {
            let comma = trail(i, self.tables.len());
            let _ = writeln!(
                out,
                "    \"{}\": {{\"rows\": {}, \"digest\": \"{:016x}\"}}{comma}",
                esc(name),
                t.rows,
                t.digest
            );
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"decisions\": {{");
        for (i, (cell, d)) in self.decisions.iter().enumerate() {
            let comma = trail(i, self.decisions.len());
            let tail: Vec<String> = d.tail.iter().map(|l| format!("\"{}\"", esc(l))).collect();
            let _ = writeln!(
                out,
                "    \"{}\": {{\"total\": {}, \"digest\": \"{:016x}\", \"tail\": [{}]}}{comma}",
                esc(cell),
                d.total,
                d.digest,
                tail.join(", ")
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

fn trail(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_metrics::json::{parse_json, JsonValue};
    use ursa_metrics::{Labels, SeriesKey};

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("fig11", 7, 4, "quick");
        m.set_topology_digest(0xDEAD_BEEF);
        m.note_table("fig11_12", 30, b"a\tb\n1\t2\n");
        let mut store = TimeSeriesStore::new();
        store.append_row(
            1.0,
            vec![
                (SeriesKey::new("zz_latency", Labels::empty()), 0.25),
                (SeriesKey::new("aa_rps", Labels::new(&[("svc", "x")])), 10.0),
            ],
        );
        m.note_store("cell0", &store);
        m
    }

    #[test]
    fn manifest_json_roundtrips_through_parser() {
        let m = sample_manifest();
        let json = m.to_json();
        let v = parse_json(&json).expect("manifest parses");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(
            v.get("topology_digest").and_then(JsonValue::as_str),
            Some("00000000deadbeef")
        );
        let series = v.get("series").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(series.len(), 2);
        // Sorted by key: aa_rps before zz_latency.
        assert!(series[0]
            .get("key")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("aa_rps"));
        assert_eq!(
            series[0].get("mean").and_then(JsonValue::as_f64),
            Some(10.0)
        );
        assert_eq!(
            series[0].get("count").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let table = v.get("tables").and_then(|t| t.get("fig11_12"));
        assert_eq!(table.and_then(|t| t.get("rows")?.as_f64()), Some(30.0));
        assert!(v.get("scalars").is_none());
    }

    #[test]
    fn manifest_rendering_is_deterministic() {
        assert_eq!(sample_manifest().to_json(), sample_manifest().to_json());
    }

    /// Topology and artifact digests share one FNV-1a. A change to
    /// it would re-key every manifest already written, so the reference
    /// vector, two topology digests and one TSV digest are pinned.
    #[test]
    fn digests_are_pinned() {
        // Reference vector: FNV-1a 64 of "a".
        assert_eq!(Fnv::digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(Fnv::digest(b"ab"), Fnv::digest(b"ba"));
        let topo = |vanilla| ursa_apps::social_network(vanilla).topology.digest();
        assert_eq!(topo(false), 0xf006_7137_e356_ef34);
        assert_eq!(topo(true), 0xfa1a_bf80_ba93_0e2b);
        let mut m = RunManifest::new("fig11", 0, 1, "quick");
        m.note_table(
            "t",
            1,
            b"load\tsystem\tviolation_pct\tcores\n300\tursa\t1.21\t57.5\n",
        );
        assert_eq!(m.tables["t"].digest, 0xf1f4_ebdd_f852_7848);
    }
}
