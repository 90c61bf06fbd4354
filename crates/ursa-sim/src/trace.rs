//! Per-request span tracing: the simulator's analog of a distributed
//! tracing substrate (Jaeger/Zipkin over the paper's Prometheus stack).
//!
//! When enabled (see `Simulation::enable_tracing`), a head-based sampling
//! decision is taken once per injected request; sampled requests record one
//! [`TraceSpan`] per hop of their call tree — with enqueue, work-start,
//! respond timestamps plus every downstream-wait and blocked-submit
//! interval — assembled into a [`Trace`] when the request completes and
//! kept in a bounded ring (oldest evicted). The sampler draws from its own
//! RNG so enabling tracing never perturbs the simulation's random stream.
//!
//! Analysis (critical paths, blame decomposition) and exporters live in the
//! `ursa-trace` crate; this module is only the recording substrate, kept
//! inside `ursa-sim` so the engine can call it without a dependency cycle.

use crate::time::{SimDur, SimTime};
use crate::topology::{ClassId, EdgeKind, ServiceId};
use std::collections::{HashMap, VecDeque};
use ursa_stats::rng::Rng;

/// One hop of a sampled request: timestamps and wait intervals for a single
/// (request, call-tree node) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Hop index within the class's flattened call tree (0 = root).
    pub node: u16,
    /// Parent hop and the edge kind connecting them (`None` for the root).
    pub parent: Option<(u16, EdgeKind)>,
    /// Service that executed the hop.
    pub service: ServiceId,
    /// When the hop arrived at the service (after network delay).
    pub enqueue_at: SimTime,
    /// When a worker picked the hop up (end of queue wait).
    pub start_at: SimTime,
    /// When the hop responded.
    pub respond_at: SimTime,
    /// Total time blocked on nested downstream responses (sum of `waits`).
    pub nested_wait: SimDur,
    /// Closed `[begin, end]` intervals spent parked awaiting nested
    /// downstream responses.
    pub waits: Vec<(SimTime, SimTime)>,
    /// Closed `[begin, end]` intervals spent blocked on a full event-driven
    /// daemon pool/queue (counted in tier latency, unlike `waits`).
    pub blocked: Vec<(SimTime, SimTime)>,
}

impl TraceSpan {
    fn placeholder(node: u16) -> Self {
        TraceSpan {
            node,
            parent: None,
            service: ServiceId(0),
            enqueue_at: SimTime::ZERO,
            start_at: SimTime::ZERO,
            respond_at: SimTime::ZERO,
            nested_wait: SimDur::ZERO,
            waits: Vec::new(),
            blocked: Vec::new(),
        }
    }

    /// Full hop latency (enqueue → respond).
    pub fn latency(&self) -> SimDur {
        self.respond_at - self.enqueue_at
    }

    /// Hop latency excluding nested downstream waits — the paper's per-tier
    /// response time, the quantity Algorithm 1 profiles.
    pub fn tier_latency(&self) -> SimDur {
        self.latency() - self.nested_wait
    }

    /// Time spent queued before a worker picked the hop up.
    pub fn queue_wait(&self) -> SimDur {
        self.start_at - self.enqueue_at
    }

    /// Total time parked on nested downstream responses.
    pub fn downstream_wait(&self) -> SimDur {
        self.waits
            .iter()
            .fold(SimDur::ZERO, |acc, &(b, e)| acc + (e - b))
    }

    /// Total time blocked on event-driven daemon submission.
    pub fn blocked_time(&self) -> SimDur {
        self.blocked
            .iter()
            .fold(SimDur::ZERO, |acc, &(b, e)| acc + (e - b))
    }

    /// Time attributable to the service itself: on-worker time minus
    /// downstream waits and submit blocking (includes processor-sharing
    /// contention, which is real service-side slowdown).
    pub fn service_time(&self) -> SimDur {
        (self.respond_at - self.start_at) - self.downstream_wait() - self.blocked_time()
    }
}

/// A completed sampled request: its spans, indexed by call-tree node id.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Monotonic id, unique within one `Simulation`.
    pub id: u64,
    /// Request class.
    pub class: ClassId,
    /// Injection time (before the injection network delay).
    pub arrival: SimTime,
    /// When the last hop responded (the request completed).
    pub end: SimTime,
    /// One span per call-tree node; `spans[i].node == i`.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// End-to-end latency (injection → last hop responded).
    pub fn e2e(&self) -> SimDur {
        self.end - self.arrival
    }

    /// The root hop's span.
    pub fn root(&self) -> &TraceSpan {
        &self.spans[0]
    }

    /// Spans whose parent is `node`, in call-tree order.
    pub fn children(&self, node: u16) -> impl Iterator<Item = &TraceSpan> {
        self.spans
            .iter()
            .filter(move |s| matches!(s.parent, Some((p, _)) if p == node))
    }
}

/// Records sampled requests for a `Simulation`. Driven entirely by engine
/// hooks; users interact with it through `Simulation::enable_tracing` /
/// `take_traces` / `tracer`.
#[derive(Debug)]
pub struct Tracer {
    sample_rate: f64,
    capacity: usize,
    ring: VecDeque<Trace>,
    /// In-flight sampled requests, keyed by engine slot index.
    pending: HashMap<u32, Trace>,
    next_id: u64,
    rng: Rng,
    evicted: u64,
}

impl Tracer {
    /// Creates a tracer keeping at most `capacity` finished traces,
    /// sampling each injected request with probability `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `sample_rate` is outside `[0, 1]`.
    pub fn new(capacity: usize, sample_rate: f64, seed: u64) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&sample_rate),
            "sample rate must be within [0, 1], got {sample_rate}"
        );
        Tracer {
            sample_rate,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(65_536)),
            pending: HashMap::new(),
            next_id: 0,
            rng: Rng::seed_from(seed),
            evicted: 0,
        }
    }

    /// Finished traces evicted from the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Finished traces currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no finished traces are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    // ---- Engine hooks (crate-private) ------------------------------------

    /// Head-based sampling decision for one injection. Uses the tracer's
    /// own RNG so the simulation's random stream is untouched.
    pub(crate) fn wants_sample(&mut self) -> bool {
        self.sample_rate >= 1.0 || self.rng.chance(self.sample_rate)
    }

    /// Begins recording a sampled request occupying engine slot `slot`.
    pub(crate) fn start(&mut self, slot: u32, class: ClassId, arrival: SimTime, nodes: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let spans = (0..nodes)
            .map(|i| TraceSpan::placeholder(i as u16))
            .collect();
        self.pending.insert(
            slot,
            Trace {
                id,
                class,
                arrival,
                end: arrival,
                spans,
            },
        );
    }

    fn span_mut(&mut self, slot: u32, node: u16) -> Option<&mut TraceSpan> {
        self.pending
            .get_mut(&slot)
            .and_then(|t| t.spans.get_mut(node as usize))
    }

    pub(crate) fn on_arrive(
        &mut self,
        slot: u32,
        node: u16,
        service: ServiceId,
        parent: Option<(u16, EdgeKind)>,
        now: SimTime,
    ) {
        if let Some(span) = self.span_mut(slot, node) {
            span.service = service;
            span.parent = parent;
            span.enqueue_at = now;
        }
    }

    pub(crate) fn on_start(&mut self, slot: u32, node: u16, now: SimTime) {
        if let Some(span) = self.span_mut(slot, node) {
            span.start_at = now;
        }
    }

    pub(crate) fn open_wait(&mut self, slot: u32, node: u16, now: SimTime) {
        if let Some(span) = self.span_mut(slot, node) {
            span.waits.push((now, now));
        }
    }

    pub(crate) fn close_wait(&mut self, slot: u32, node: u16, now: SimTime) {
        if let Some(span) = self.span_mut(slot, node) {
            if let Some(last) = span.waits.last_mut() {
                last.1 = now;
            }
        }
    }

    pub(crate) fn open_block(&mut self, slot: u32, node: u16, now: SimTime) {
        if let Some(span) = self.span_mut(slot, node) {
            span.blocked.push((now, now));
        }
    }

    pub(crate) fn close_block(&mut self, slot: u32, node: u16, now: SimTime) {
        if let Some(span) = self.span_mut(slot, node) {
            if let Some(last) = span.blocked.last_mut() {
                last.1 = now;
            }
        }
    }

    pub(crate) fn on_respond(&mut self, slot: u32, node: u16, now: SimTime, nested_wait: SimDur) {
        if let Some(span) = self.span_mut(slot, node) {
            span.respond_at = now;
            span.nested_wait = nested_wait;
        }
    }

    /// Completes a sampled request: moves it from the pending map to the
    /// ring, evicting the oldest finished trace if the ring is full.
    pub(crate) fn finish(&mut self, slot: u32, now: SimTime) {
        let Some(mut trace) = self.pending.remove(&slot) else {
            return;
        };
        trace.end = now;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(trace);
    }

    /// Drains the finished traces (in-flight sampled requests stay pending).
    pub fn take(&mut self) -> Vec<Trace> {
        self.ring.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn span_decomposition_sums() {
        let span = TraceSpan {
            node: 0,
            parent: None,
            service: ServiceId(3),
            enqueue_at: t(1.0),
            start_at: t(1.2),
            respond_at: t(3.0),
            nested_wait: SimDur::from_secs_f64(1.0),
            waits: vec![(t(1.5), t(2.5))],
            blocked: vec![(t(2.6), t(2.7))],
        };
        let eps = 1e-9;
        assert!((span.latency().as_secs_f64() - 2.0).abs() < eps);
        assert!((span.queue_wait().as_secs_f64() - 0.2).abs() < eps);
        assert!((span.downstream_wait().as_secs_f64() - 1.0).abs() < eps);
        assert!((span.blocked_time().as_secs_f64() - 0.1).abs() < eps);
        assert!((span.service_time().as_secs_f64() - 0.7).abs() < eps);
        // queue + downstream + blocked + service == latency
        let sum =
            span.queue_wait() + span.downstream_wait() + span.blocked_time() + span.service_time();
        assert!((sum.as_secs_f64() - span.latency().as_secs_f64()).abs() < eps);
        assert!((span.tier_latency().as_secs_f64() - 1.0).abs() < eps);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut tr = Tracer::new(2, 1.0, 7);
        for slot in 0..3u32 {
            tr.start(slot, ClassId(0), t(slot as f64), 1);
            tr.on_arrive(slot, 0, ServiceId(0), None, t(slot as f64));
            tr.finish(slot, t(slot as f64 + 0.5));
        }
        assert_eq!(tr.evicted(), 1);
        let traces = tr.take();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].id, 1, "oldest trace evicted");
        assert_eq!(traces[1].id, 2);
        assert!(tr.is_empty());
    }

    #[test]
    fn sampling_rate_is_respected() {
        let mut tr = Tracer::new(16, 0.1, 42);
        let hits = (0..20_000).filter(|_| tr.wants_sample()).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn unsampled_slots_are_ignored() {
        let mut tr = Tracer::new(4, 0.0, 1);
        // Hooks for a slot without a pending trace must be no-ops.
        tr.on_arrive(9, 0, ServiceId(0), None, t(0.0));
        tr.on_respond(9, 0, t(1.0), SimDur::ZERO);
        tr.finish(9, t(1.0));
        assert!(tr.is_empty());
        assert_eq!(tr.next_id, 0, "no request was sampled");
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn rejects_bad_sample_rate() {
        Tracer::new(4, 1.5, 1);
    }
}
