//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! with each side's median and quartiles, the ratio with its base, and a
//! verdict against the benchmark's own bound. Counts and exact metrics of
//! the traced runs must be equal.

use crate::json::Json;
use std::fmt::Write as _;

/// How a metric of B stands against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own quartiles are further apart than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed in the verdict column.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile over the set's runs.
    pub q1: f64,
    /// Median over the set's runs.
    pub median: f64,
    /// Third quartile over the set's runs.
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The verdict for one metric: `lower_is_better` gives the direction,
/// `bound` the share of A's median B may be worse by.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Per-layer metrics that repeat exactly on one seed: counts made by the
/// program, and the simulated results no speed-up may move.
fn must_be_equal(name: &str, unit: &str) -> bool {
    unit == "count" || matches!(name, "core.ursa_violation_pct" | "core.ursa_avg_cores")
}

/// The outcome of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The table, ready to print.
    pub table: String,
    /// Rows whose verdict is `regressed`.
    pub regressed: usize,
    /// Rows whose verdict is `unresolved`.
    pub unresolved: usize,
    /// Counts and exact metrics that differ, or are missing on one side.
    pub mismatched: usize,
}

impl Comparison {
    /// 1 on any regression or count mismatch, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.regressed > 0 || self.mismatched > 0)
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        q1: metric.get("q1")?.as_f64()?,
        median: metric.get("median")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
    })
}

/// Compares two ledgers.
///
/// # Errors
///
/// Fails on a file that is not a ledger.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a ledger: no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison {
        table: String::new(),
        regressed: 0,
        unresolved: 0,
        mismatched: 0,
    };
    let _ = writeln!(
        out.table,
        "{:<16} {:<12} {:>12} {:>25} {:>12} {:>25} {:>9}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A"
    );
    for (name, entry_a) in &wa {
        let Some(entry_b) = wb.iter().find(|(n, _)| n == name).map(|(_, e)| e) else {
            let _ = writeln!(out.table, "{name:<16} missing from B");
            out.mismatched += 1;
            continue;
        };
        let metrics = entry_a
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no end_to_end object"))?;
        for (metric, ma) in metrics {
            let sides = side(ma).zip(
                entry_b
                    .get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(side),
            );
            let Some((sa, sb)) = sides else {
                let _ = writeln!(out.table, "{name:<16} {metric:<12} missing on one side");
                out.mismatched += 1;
                continue;
            };
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let v = verdict(sa, sb, lower, bound);
            match v {
                Verdict::Ok => {}
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
            }
            let range = |s: Side| format!("[{:.5}, {:.5}]", s.q1, s.q3);
            let _ = writeln!(
                out.table,
                "{name:<16} {metric:<12} {:>12.5} {:>25} {:>12.5} {:>25} {:>9.4}  {} (bound {:.0} %)",
                sa.median,
                range(sa),
                sb.median,
                range(sb),
                sb.median / sa.median,
                v.label(),
                100.0 * bound
            );
        }
        // Attempts depend on how many units fit into a run; failures must
        // agree (and be zero on both sides).
        let (x, y) = (entry_a.get("ops_failed"), entry_b.get("ops_failed"));
        if x != y {
            let _ = writeln!(out.table, "{name:<16} ops_failed differs: {x:?} vs {y:?}");
            out.mismatched += 1;
        }
        let (Some(la), Some(lb)) = (
            entry_a.get("per_layer").and_then(Json::as_obj),
            entry_b.get("per_layer").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (metric, va) in la {
            let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
            if !must_be_equal(metric, unit) {
                continue;
            }
            let x = va.get("value").and_then(Json::as_f64);
            let y = lb
                .iter()
                .find(|(n, _)| n == metric)
                .and_then(|(_, v)| v.get("value"))
                .and_then(Json::as_f64);
            if x != y {
                let _ = writeln!(
                    out.table,
                    "{name:<16} {metric} must be equal: {x:?} vs {y:?}"
                );
                out.mismatched += 1;
            }
        }
    }
    let _ = writeln!(
        out.table,
        "{} regressed, {} unresolved, {} counts differ",
        out.regressed, out.unresolved, out.mismatched
    );
    Ok(out)
}
