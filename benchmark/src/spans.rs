//! In-memory spans around every call the benchmark makes into a layer.
//!
//! The program is measured from outside: a span opens before a call into a
//! public function and closes after it returns. Spans nest through an
//! explicit stack, stay in memory for the whole run and are written out at
//! exit. A disabled recorder (the untraced run) reads no clock at all.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer of the spans that are the benchmark's own structure (`unit`,
/// `window`, `cell`) rather than calls into the program.
pub const OWN_LAYER: &str = "benchmark";

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`run_for`, `harvest`, `deploy_cell`, ...).
    pub name: &'static str,
    /// The module the call belongs to (`ursa-sim::engine`, `ursa-mip`, ...).
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The unit of work the span belongs to (spans of one unit share it).
    pub unit: u32,
    /// Work counted at this boundary (events, samples, nodes; 0 if none).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle back to Recorder::exit"]
pub struct Open(Option<usize>);

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans attributed to the layer.
    pub spans: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
    /// Sum of the counts read at the span boundaries.
    pub count: u64,
}

/// Span store with a nesting stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    unit: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            unit: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between units (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Sets the unit identifier stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit: self.unit,
            count: 0,
        });
        self.stack.push(id);
        // Clock read last on entry and first on exit, so bookkeeping is
        // charged to the parent's self time, not to the callee.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some(id))
    }

    /// Closes a span, attaching the work counted at this boundary.
    #[inline]
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name` in `unit`, or
    /// pooled over all units but 0 (set-up) when `unit` is `None`.
    pub fn durations(&self, name: &str, unit: Option<u32>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && unit.map_or(s.unit != 0, |u| s.unit == u))
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Sum of the counts read at the boundaries of every span called
    /// `name` in `unit`.
    pub fn counted(&self, name: &str, unit: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.unit == unit)
            .map(|s| s.count)
            .sum()
    }

    /// Per-layer totals over the spans of `unit`.
    pub fn by_layer(&self, unit: u32) -> BTreeMap<&'static str, LayerTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if span.unit != unit {
                continue;
            }
            let t = out.entry(span.layer).or_default();
            t.spans += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += self_ns;
            t.count += span.count;
        }
        out
    }

    /// Share of `unit` spent inside calls into the program, in percent:
    /// everything but the self time of the benchmark's own spans (the unit,
    /// its windows and cells), which is the benchmark's bookkeeping.
    pub fn coverage_pct(&self, unit: u32) -> f64 {
        let whole: f64 = self.durations("unit", Some(unit)).iter().sum();
        if whole == 0.0 {
            return 0.0;
        }
        let own = self
            .by_layer(unit)
            .get(OWN_LAYER)
            .map_or(0, |totals| totals.self_ns);
        100.0 * (1.0 - own as f64 / whole)
    }

    /// The trace file: every span with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("unit", Json::Num(s.unit as f64)),
                        ("count", Json::Num(s.count as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (a
/// parallel fan-out) or stick out of the parent; coverage is the union of
/// the child intervals clipped to the parent, so no instant is subtracted
/// twice and self time never goes negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}
