//! Control-plane decision log: a bounded, queryable record of every
//! allocation decision the manager takes — the initial allocation, online
//! threshold scalings, load-anomaly recalculations, and re-explorations —
//! with its simulated timestamp, the per-service before/after allocation,
//! and the model's estimated latency that justified it. This is the audit
//! trail the paper's §V control loop implies but never shows: *why* did the
//! manager scale service X at minute 7?

use std::collections::VecDeque;
use std::io::{self, Write};
use ursa_sim::time::SimTime;

/// What kind of decision a [`DecisionRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Offline outcome actuated onto a fresh deployment.
    InitialAllocation,
    /// Online threshold check scaled one or more services (§V fast path).
    ThresholdScale,
    /// Thresholds re-derived from existing exploration data (load-mix
    /// anomaly, or an explicit [`recalculate`](crate::manager::Ursa::recalculate)).
    Recalculate,
    /// Partial re-exploration of one service after a logic change (§VII-G).
    ReExplore {
        /// The re-explored service.
        service: usize,
    },
    /// The latency anomaly detector fired and queued a re-exploration of
    /// the implicated service (§V component 5, Fig. 14).
    AnomalyReExplore {
        /// The implicated service (highest CPU utilization on the
        /// violating class's path).
        service: usize,
        /// Observed SLA violation rate in basis points (rate × 10 000,
        /// rounded), kept integral so the kind stays `Copy + Eq`.
        violation_bps: u32,
    },
}

impl DecisionKind {
    /// Short lowercase label (used by the JSONL exporter).
    pub fn label(&self) -> &'static str {
        match self {
            DecisionKind::InitialAllocation => "initial-allocation",
            DecisionKind::ThresholdScale => "threshold-scale",
            DecisionKind::Recalculate => "recalculate",
            DecisionKind::ReExplore { .. } => "re-explore",
            DecisionKind::AnomalyReExplore { .. } => "anomaly-reexplore",
        }
    }
}

/// Before/after allocation of one service touched by a decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDelta {
    /// The service.
    pub service: usize,
    /// Replicas before the decision. For model-level decisions
    /// (recalculate/re-explore) this is the replica count the *old*
    /// thresholds projected at the decision's rates, since the thresholds —
    /// not live replicas — are what those decisions change.
    pub replicas_before: usize,
    /// Replicas after the decision (same projection caveat).
    pub replicas_after: usize,
    /// CPU cores per replica before.
    pub cores_before: f64,
    /// CPU cores per replica after.
    pub cores_after: f64,
}

/// One logged decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulated time of the decision ([`SimTime::ZERO`] for offline
    /// decisions taken before any deployment tick).
    pub at: SimTime,
    /// What the decision was.
    pub kind: DecisionKind,
    /// Per-service allocation changes (services whose allocation did not
    /// change are omitted; may be empty when a recalculation kept every
    /// projection identical).
    pub deltas: Vec<ServiceDelta>,
    /// The model's estimated latency per SLA constraint *after* the
    /// decision — the overestimation-corrected Theorem-1 bound that
    /// justified it (paper Figs. 9–10).
    pub estimated_latency: Vec<f64>,
    /// MIP objective (projected total cores) after the decision, for
    /// decisions that re-solved the model.
    pub objective: Option<f64>,
}

/// Bounded in-memory log of [`DecisionRecord`]s (oldest evicted first).
#[derive(Debug, Clone)]
pub struct DecisionLog {
    records: VecDeque<DecisionRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog::new(4096)
    }
}

impl DecisionLog {
    /// Creates a log retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "decision log capacity must be positive");
        DecisionLog {
            records: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: DecisionRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter()
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&DecisionRecord> {
        self.records.back()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been logged (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the log as JSON Lines: one decision per line, ready for `jq`
    /// or a spreadsheet import.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for r in &self.records {
            write!(
                w,
                "{{\"at\":{:.9},\"kind\":\"{}\"",
                r.at.as_secs_f64(),
                r.kind.label()
            )?;
            match r.kind {
                DecisionKind::ReExplore { service } => {
                    write!(w, ",\"service\":{service}")?;
                }
                DecisionKind::AnomalyReExplore {
                    service,
                    violation_bps,
                } => {
                    write!(
                        w,
                        ",\"service\":{service},\"violation_bps\":{violation_bps}"
                    )?;
                }
                _ => {}
            }
            write!(w, ",\"deltas\":[")?;
            for (i, d) in r.deltas.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(
                    w,
                    "{{\"service\":{},\"replicas\":[{},{}],\"cores\":[{:.6},{:.6}]}}",
                    d.service, d.replicas_before, d.replicas_after, d.cores_before, d.cores_after
                )?;
            }
            write!(w, "],\"estimated_latency\":[")?;
            for (k, l) in r.estimated_latency.iter().enumerate() {
                if k > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{l:.9}")?;
            }
            write!(w, "]")?;
            if let Some(obj) = r.objective {
                write!(w, ",\"objective\":{obj:.6}")?;
            }
            writeln!(w, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: f64, kind: DecisionKind) -> DecisionRecord {
        DecisionRecord {
            at: SimTime::from_secs_f64(at),
            kind,
            deltas: vec![ServiceDelta {
                service: 2,
                replicas_before: 3,
                replicas_after: 5,
                cores_before: 2.0,
                cores_after: 2.0,
            }],
            estimated_latency: vec![0.125],
            objective: Some(14.0),
        }
    }

    #[test]
    fn bounded_eviction() {
        let mut log = DecisionLog::new(2);
        log.push(rec(1.0, DecisionKind::InitialAllocation));
        log.push(rec(2.0, DecisionKind::ThresholdScale));
        log.push(rec(3.0, DecisionKind::Recalculate));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(
            log.records().next().unwrap().kind,
            DecisionKind::ThresholdScale
        );
        assert_eq!(log.last().unwrap().kind, DecisionKind::Recalculate);
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let mut log = DecisionLog::new(8);
        log.push(rec(60.0, DecisionKind::ReExplore { service: 7 }));
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"re-explore\""));
        assert!(line.contains("\"service\":7"));
        assert!(line.contains("\"replicas\":[3,5]"));
        assert!(line.contains("\"objective\":14.000000"));
    }

    #[test]
    fn jsonl_serializes_anomaly_reexplore() {
        let mut log = DecisionLog::new(8);
        log.push(rec(
            12.0,
            DecisionKind::AnomalyReExplore {
                service: 4,
                violation_bps: 2150,
            },
        ));
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"anomaly-reexplore\""));
        assert!(lines[0].contains("\"service\":4"));
        assert!(lines[0].contains("\"violation_bps\":2150"));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        DecisionLog::new(0);
    }
}
