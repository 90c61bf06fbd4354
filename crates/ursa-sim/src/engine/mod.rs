//! The discrete-event simulation engine.
//!
//! [`Simulation`] executes a [`Topology`] under injected load. The model is
//! deliberately mechanistic rather than formula-based, so that the paper's
//! phenomena *emerge* instead of being asserted:
//!
//! * **Replicas** have a fractional CPU allocation (`cores`) and a bounded
//!   worker pool. Compute phases of in-flight requests share the CPU via
//!   processor sharing: with `n` active phases each progresses at rate
//!   `min(1, cores/n)` CPU-seconds per second.
//! * **Nested RPC** holds the caller's worker (but no CPU) until the callee
//!   responds, so a slow downstream tier exhausts upstream worker pools and
//!   inflates upstream queueing delay — the backpressure of paper §III.
//! * **Event-driven RPC** responds upstream immediately but parks a
//!   continuation on a bounded daemon pool; when the daemon pool and its
//!   submission queue fill, handlers block on submission — the residual
//!   backpressure the paper observes for event-driven chains.
//! * **Message queues** are unbounded and pull-based; producers never block,
//!   so no backpressure propagates (paper Fig. 2c).
//!
//! Queues serve strictly by [`crate::topology::Priority`], then FIFO. Scaling is by replica
//! count (Kubernetes-style) with graceful draining on scale-in.
//!
//! Processor sharing is implemented in *virtual time* (see [`crate::ps`]):
//! each replica advances one scalar clock instead of sweeping per-job
//! countdowns, so arrivals and completions cost O(log n) instead of O(n)
//! — the difference between a quadratic and a log-linear busy period in
//! the overloaded regime. The event queue never holds a stale entry: a
//! replica has at most one `PsCheck` queued and a class at most one
//! `SourceNext`, and whoever supersedes one removes it by its key first.
//!
//! The event core (v3) is built for raw single-core throughput while
//! preserving the seed → bit-identical-output contract:
//!
//! * events live in one sorted vector ([`crate::evq`]) — a push walks back
//!   from the tail, moving only the entries that pop before it;
//! * in-flight request/hop state lives in a generational SoA arena
//!   ([`crate::arena`]) instead of pooled per-request `Vec`s;
//! * per-hop routing fields come from the topology's SoA hot table
//!   ([`crate::topology::HotTable`]) instead of the wide flat nodes;
//! * Poisson sources draw their RNG in refillable blocks
//!   ([`ursa_stats::rng::BlockRng`]), preserving the exact draw stream.

//!
//! The engine is split by concern. This module holds the event kinds,
//! [`Simulation`], the run loop and dispatch, the scaling API and harvest;
//! `request` the replica and processor-sharing request path; `planes` the
//! chaos plane and the tracing, profiler and recorder arming.

use std::collections::VecDeque;
use std::sync::Arc;

use ursa_stats::rng::{BlockRng, Rng};

use crate::arena::ReqArena;
use crate::chaos::ChaosState;
use crate::evq::EventQueue;
use crate::profiler::{PhaseProfiler, SimPhase};
use crate::ps::VtPs;
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use crate::time::{SimDur, SimTime};
use crate::topology::{ClassId, FlatClass, HotTable, ServiceId, Topology};
use crate::trace::Tracer;
use crate::workload::RateFn;

mod planes;
mod request;
#[cfg(test)]
mod tests;

/// Work remainders below this many CPU-seconds count as complete.
const WORK_EPS: f64 = 1e-12;
/// Minimum compute per phase, so every start traverses the event loop
/// (bounds recursion depth by call-tree depth).
const MIN_WORK: f64 = 1e-9;
/// Smallest allowed CPU limit.
const MIN_CORES: f64 = 0.01;

/// Identifies one hop of one in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token {
    slot: u32,
    gen: u32,
    node: u16,
}

/// Event payloads are deliberately compact (every field fits in 32 bits)
/// so a [`QEntry<EventKind>`] stays at 32 bytes: the event queue is the
/// hottest data structure in the engine and an insert moves whole entries.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Next candidate arrival of a class's Poisson source (thinning).
    SourceNext { class: u32 },
    /// A request hop arrives at its service (after network delay).
    NodeArrive { token: Token },
    /// Possible processor-sharing completion on a replica: the one its
    /// `check_at`/`check_seq` name.
    PsCheck { service: u16, replica: u16 },
    /// An installed fault window begins (index into the fault plan).
    ChaosStart { fault: u32 },
    /// An installed fault window ends.
    ChaosEnd { fault: u32 },
}

/// The profiler phase of a dispatched event. No wildcard arm, so a new
/// `EventKind` cannot go unclassified.
fn phase_of(kind: EventKind) -> SimPhase {
    match kind {
        EventKind::SourceNext { .. } => SimPhase::SourceNext,
        EventKind::NodeArrive { .. } => SimPhase::NodeArrive,
        EventKind::PsCheck { .. } => SimPhase::PsCheck,
        EventKind::ChaosStart { .. } | EventKind::ChaosEnd { .. } => SimPhase::Chaos,
    }
}

/// Strict-priority FIFO queue of tokens.
#[derive(Debug, Clone)]
struct PrioQueue {
    qs: Vec<VecDeque<Token>>,
    len: usize,
}

impl PrioQueue {
    fn new(levels: usize) -> Self {
        PrioQueue {
            qs: (0..levels.max(1)).map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }
    fn push(&mut self, prio: usize, token: Token) {
        self.qs[prio].push_back(token);
        self.len += 1;
    }
    fn pop(&mut self) -> Option<Token> {
        for q in &mut self.qs {
            if let Some(t) = q.pop_front() {
                self.len -= 1;
                return Some(t);
            }
        }
        None
    }
    fn len(&self) -> usize {
        self.len
    }
    fn drain_all(&mut self) -> Vec<(usize, Token)> {
        let mut out = Vec::with_capacity(self.len);
        for (p, q) in self.qs.iter_mut().enumerate() {
            out.extend(q.drain(..).map(|t| (p, t)));
        }
        self.len = 0;
        out
    }
}

#[derive(Debug)]
struct Replica {
    cores: f64,
    workers: usize,
    busy_workers: usize,
    daemons: usize,
    busy_daemons: usize,
    daemon_cap: usize,
    /// Continuation tokens (child hops) waiting for a free daemon.
    daemon_queue: VecDeque<Token>,
    /// Handler hops blocked submitting a continuation: `(parent, child_idx)`.
    blocked_submitters: VecDeque<(Token, u16)>,
    queue: PrioQueue,
    /// Active compute phases under virtual-time processor sharing.
    ps: VtPs<Token>,
    last_advance: SimTime,
    /// Queue key of the one pending `PsCheck` (valid while `has_check`).
    /// A re-arm only replaces it when the true next completion moved
    /// earlier; if it moved later, the pending check fires early, finds
    /// nothing due, and re-arms exactly — so most arrivals (any whose
    /// finish tag lands behind the head's) touch no event.
    check_at: SimTime,
    check_seq: u64,
    has_check: bool,
    /// CPU telemetry accumulators, flushed to [`Telemetry`] on harvest
    /// and replica removal instead of per advance.
    busy_acc: f64,
    cap_acc: f64,
    draining: bool,
}

#[derive(Debug)]
struct ServiceRt {
    cores: f64,
    workers: usize,
    daemons: usize,
    daemon_cap: usize,
    replicas: Vec<Option<Replica>>,
    /// Indices of live (non-draining) replicas, ascending — maintained on
    /// every liveness change so the per-arrival routing never re-scans (or
    /// re-allocates) the replica array.
    live: Vec<u32>,
    rr: usize,
    mq: PrioQueue,
}

impl ServiceRt {
    /// Recomputes the cached live list (cold path: scaling operations).
    fn rebuild_live(&mut self) {
        self.live.clear();
        for (i, r) in self.replicas.iter().enumerate() {
            if matches!(r, Some(rep) if !rep.draining) {
                self.live.push(i as u32);
            }
        }
    }
    fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[derive(Debug)]
struct Source {
    rate: RateFn,
    /// Queue key of the one pending `SourceNext`, while armed.
    pending: Option<(SimTime, u64)>,
    /// Block-buffered so interarrival + thinning draws amortize the
    /// xoshiro dependency chain; the observed stream is identical to a
    /// plain [`Rng`].
    rng: BlockRng,
}

/// Simulator configuration knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// One-way network delay applied to every inter-service hop (and to
    /// request injection). Default: 100 µs.
    pub net_delay: SimDur,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            net_delay: SimDur::from_nanos(100_000),
        }
    }
}

/// A discrete-event simulation of a microservice application.
///
/// # Example
///
/// ```
/// use ursa_sim::engine::{SimConfig, Simulation};
/// use ursa_sim::time::SimDur;
/// use ursa_sim::topology::*;
/// use ursa_sim::workload::RateFn;
///
/// let topo = Topology::new(
///     vec![ServiceCfg::new("api", 4.0)],
///     vec![ClassCfg {
///         name: "get".into(),
///         priority: Priority::HIGH,
///         root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
///     }],
/// ).expect("valid topology");
/// let mut sim = Simulation::new(topo, SimConfig::default(), 42);
/// sim.set_rate(ClassId(0), RateFn::Constant(200.0));
/// sim.run_for(SimDur::from_secs(60));
/// let snap = sim.harvest();
/// assert!(snap.completions[0] > 10_000);
/// ```
#[derive(Debug)]
pub struct Simulation {
    topology: Topology,
    /// Flattened call trees, shared with the topology (and every other
    /// simulation of it) — never cloned per request or per simulation.
    templates: Arc<Vec<FlatClass>>,
    /// SoA hot table over the flattened call trees: the per-hop fields
    /// touched on every arrival/response, without the wide-node stride.
    hot: Arc<HotTable>,
    services: Vec<ServiceRt>,
    names: Vec<String>,
    /// Generational SoA arena of in-flight request and hop state.
    arena: ReqArena,
    /// Scratch buffer for processor-sharing completions (reused across
    /// `ps_check` calls).
    ps_scratch: Vec<Token>,
    telemetry: Telemetry,
    events: EventQueue<EventKind>,
    seq: u64,
    /// Events dispatched (see [`events_processed`]).
    events_live: u64,
    now: SimTime,
    rng: Rng,
    sources: Vec<Source>,
    work_scale: Vec<f64>,
    cfg: SimConfig,
    prio_levels: usize,
    in_flight: usize,
    tracer: Option<Tracer>,
    /// Fault plane, installed via [`install_faults`](Self::install_faults).
    /// `None` (the default) costs one predictable branch per hook and
    /// leaves output bit-identical to a chaos-free engine.
    chaos: Option<Box<ChaosState>>,
    /// Phase profiler, installed via
    /// [`enable_profiler`](Self::enable_profiler). Honors the same
    /// bit-identical-when-disabled contract as the tracer and chaos
    /// planes.
    prof: Option<Box<PhaseProfiler>>,
    /// Flight recorder, armed via
    /// [`arm_flight_recorder`](Self::arm_flight_recorder). Purely
    /// observational; same bit-identical contract.
    recorder: Option<Box<FlightRecorder>>,
}

impl Simulation {
    /// Builds a simulation of `topology` with the given configuration and
    /// deterministic seed.
    pub fn new(topology: Topology, cfg: SimConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let prio_levels = topology
            .classes()
            .iter()
            .map(|c| c.priority.0 as usize + 1)
            .max()
            .unwrap_or(1);
        let templates = topology.flat_classes();
        let services: Vec<ServiceRt> = topology
            .services()
            .iter()
            .map(|s| {
                let replicas = (0..s.initial_replicas)
                    .map(|_| {
                        Some(Replica::new(
                            s.cores,
                            s.workers,
                            s.daemon_workers,
                            s.daemon_queue_cap,
                            prio_levels,
                            SimTime::ZERO,
                        ))
                    })
                    .collect();
                ServiceRt {
                    cores: s.cores,
                    workers: s.workers,
                    daemons: s.daemon_workers,
                    daemon_cap: s.daemon_queue_cap,
                    replicas,
                    live: (0..s.initial_replicas as u32).collect(),
                    rr: 0,
                    mq: PrioQueue::new(prio_levels),
                }
            })
            .collect();
        let names = topology.services().iter().map(|s| s.name.clone()).collect();
        let telemetry = Telemetry::new(&topology);
        let sources = (0..topology.num_classes())
            .map(|_| Source {
                rate: RateFn::Constant(0.0),
                pending: None,
                rng: BlockRng::new(rng.split()),
            })
            .collect();
        let work_scale = vec![1.0; topology.num_services()];
        let hot = topology.hot_table();
        Simulation {
            topology,
            templates,
            hot,
            services,
            names,
            arena: ReqArena::new(),
            ps_scratch: Vec::new(),
            telemetry,
            events: EventQueue::new(),
            seq: 0,
            events_live: 0,
            now: SimTime::ZERO,
            rng,
            sources,
            work_scale,
            cfg,
            prio_levels,
            in_flight: 0,
            tracer: None,
            chaos: None,
            prof: None,
            recorder: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Requests currently in flight (injected but not fully completed).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Discrete events dispatched since construction — the engine's
    /// throughput denominator (`events_processed() / wall_seconds` =
    /// events/sec for a run). Every one did work: a superseded event is
    /// removed from the queue, never dispatched.
    pub fn events_processed(&self) -> u64 {
        self.events_live
    }

    /// Always 0: a superseded event is removed where it is superseded, so
    /// none is ever dispatched. Kept because the ledger
    /// (`engine.events_stale`) calls it.
    pub fn events_stale(&self) -> u64 {
        0
    }

    /// Current depth of the event queue.
    pub fn event_heap_depth(&self) -> usize {
        self.events.len()
    }

    /// High-water mark of the event queue over the simulation's lifetime.
    pub fn event_heap_max_depth(&self) -> usize {
        self.events.max_depth()
    }

    /// Always 0: the event queue is one sorted vector and has no layout to
    /// rebuild. Kept because the ledger (`engine.queue_resizes`) calls it.
    pub fn event_queue_resizes(&self) -> u64 {
        0
    }

    /// High-water mark of concurrently allocated request slots.
    pub fn arena_slots_high_water(&self) -> usize {
        self.arena.slots_high_water()
    }

    /// Sets (or replaces) the arrival process of a request class.
    ///
    /// Arrivals follow a Poisson process whose instantaneous rate is
    /// `rate_fn.rate(t)` (non-homogeneous via thinning).
    pub fn set_rate(&mut self, class: ClassId, rate_fn: RateFn) {
        let src = &mut self.sources[class.0];
        src.rate = rate_fn;
        if let Some((at, seq)) = src.pending.take() {
            let removed = self.events.remove(at, seq);
            debug_assert!(removed, "pending SourceNext is not queued");
        }
        self.arm_source(class.0);
    }

    fn arm_source(&mut self, class: usize) {
        let lam_max = self.sources[class].rate.max_rate();
        if lam_max <= 0.0 {
            return;
        }
        // Inverse-CDF exponential draw, the exact expression of
        // `Exponential::sample`, inlined so the source pulls from its
        // block-buffered RNG: identical stream, identical f64 result.
        let dt = -self.sources[class].rng.next_f64_open().ln() / lam_max;
        let at = self.now + SimDur::from_secs_f64(dt);
        let class_id = class as u32;
        let seq = self.schedule(at, EventKind::SourceNext { class: class_id });
        self.sources[class].pending = Some((at, seq));
    }

    /// Queues `kind` at `at`; returns the `seq` half of its queue key.
    fn schedule(&mut self, at: SimTime, kind: EventKind) -> u64 {
        self.seq += 1;
        self.events.push(at, self.seq, kind);
        self.seq
    }

    /// Injects one request of `class` right now (root hop arrives after the
    /// configured network delay).
    fn inject(&mut self, class: ClassId) {
        let num_nodes = self.templates[class.0].nodes.len();
        let traced = match &mut self.tracer {
            Some(t) => t.wants_sample(),
            None => false,
        };
        let slot = self
            .arena
            .alloc(class.0 as u32, self.now, num_nodes as u16, traced);
        if traced {
            self.tracer
                .as_mut()
                .expect("traced implies tracer")
                .start(slot, class, self.now, num_nodes);
        }
        self.in_flight += 1;
        self.telemetry.record_injection(class);
        let token = Token {
            slot,
            gen: self.arena.gen(slot),
            node: 0,
        };
        let at = self.now + self.cfg.net_delay;
        self.schedule(at, EventKind::NodeArrive { token });
    }

    /// Runs the simulation until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(&entry) = self.events.peek() {
            if entry.at > t {
                break;
            }
            let entry = self.events.pop().expect("peeked");
            self.now = entry.at;
            if self.recorder.is_some() {
                self.record_event(&entry);
            }
            self.dispatch(entry.kind);
            self.events_live += 1;
            // Profiler gate: one predictably-false branch when disabled.
            if let Some(p) = self.prof.as_deref_mut() {
                p.observe(|| phase_of(entry.kind));
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs the simulation for a span of simulated time.
    pub fn run_for(&mut self, dur: SimDur) {
        let t = self.now + dur;
        self.run_until(t);
    }

    /// Dispatches one event.
    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::SourceNext { class } => {
                let class = class as usize;
                let fired = self.sources[class].pending.take();
                debug_assert!(
                    fired.is_some_and(|(at, _)| at == self.now),
                    "a popped SourceNext is its class's pending one"
                );
                let lam_max = self.sources[class].rate.max_rate();
                if lam_max > 0.0 {
                    // Constant-rate fast path: thinning always accepts, so
                    // skip the accept draw (one fewer RNG advance per
                    // arrival; the interarrival stream is unchanged).
                    let accept = match self.sources[class].rate {
                        RateFn::Constant(_) => true,
                        _ => {
                            let lam = self.sources[class].rate.rate(self.now);
                            self.sources[class].rng.next_f64() < lam / lam_max
                        }
                    };
                    if accept {
                        self.inject(ClassId(class));
                    }
                    self.arm_source(class);
                }
            }
            EventKind::NodeArrive { token } => {
                if self.token_alive(token) {
                    self.node_arrive(token);
                }
            }
            EventKind::PsCheck { service, replica } => {
                self.ps_check(service as usize, replica as usize)
            }
            EventKind::ChaosStart { fault } => self.chaos_start(fault as usize),
            EventKind::ChaosEnd { fault } => self.chaos_end(fault as usize),
        }
    }

    // ---- Control-plane operations -----------------------------------------

    /// Live (non-draining) replica count of a service.
    pub fn replicas(&self, service: ServiceId) -> usize {
        self.services[service.0].live_count()
    }

    /// Sets the live replica count of a service (graceful drain on scale-in).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_replicas(&mut self, service: ServiceId, n: usize) {
        assert!(n > 0, "replica count must be at least 1");
        let s = service.0;
        let mut live = self.services[s].live_count();
        if live != n {
            let (at, seq) = (self.now, self.seq);
            self.record_flight(
                at,
                seq,
                FlightEventKind::Scale {
                    service: s as u16,
                    from: live as u16,
                    to: n as u16,
                },
            );
        }
        // Scale out: first un-drain, then create.
        while live < n {
            let undrained = {
                let svc = &mut self.services[s];
                svc.replicas.iter_mut().find_map(|slot| match slot {
                    Some(rep) if rep.draining => {
                        rep.draining = false;
                        Some(())
                    }
                    _ => None,
                })
            };
            if undrained.is_none() {
                let rep = Replica::new(
                    self.services[s].cores,
                    self.services[s].workers,
                    self.services[s].daemons,
                    self.services[s].daemon_cap,
                    self.prio_levels,
                    self.now,
                );
                let svc = &mut self.services[s];
                if let Some(idx) = svc.replicas.iter().position(|x| x.is_none()) {
                    svc.replicas[idx] = Some(rep);
                } else {
                    svc.replicas.push(Some(rep));
                }
            }
            self.services[s].rebuild_live();
            live += 1;
        }
        // Scale in: drain highest-index live replicas.
        while live > n {
            let idx = self.services[s]
                .replicas
                .iter()
                .rposition(|x| matches!(x, Some(rep) if !rep.draining))
                .expect("live replica exists");
            self.drain_replica(s, idx);
            live -= 1;
        }
        // New capacity may be able to pull shared-queue work.
        let live_idx: Vec<usize> = self.services[s].live.iter().map(|&i| i as usize).collect();
        for r in live_idx {
            self.try_start(s, r);
        }
    }

    /// Gracefully drains one specific replica slot: it leaves load
    /// balancing at once, its queued work is re-dispatched, and in-PS
    /// work completes before the slot is removed. The caller must leave
    /// at least one live replica behind (`pick_replica` requires a
    /// non-empty live set).
    fn drain_replica(&mut self, s: usize, idx: usize) {
        let moved = {
            let rep = self.services[s].replicas[idx].as_mut().expect("live");
            rep.draining = true;
            rep.queue.drain_all()
        };
        self.services[s].rebuild_live();
        for (prio, token) in moved {
            let dst = self.pick_replica(s);
            self.services[s].replicas[dst]
                .as_mut()
                .expect("live replica")
                .queue
                .push(prio, token);
            self.try_start(s, dst);
        }
        self.maybe_remove_drained(s, idx);
    }

    /// CPU cores per replica of a service.
    pub fn cpu_limit(&self, service: ServiceId) -> f64 {
        self.services[service.0].cores
    }

    /// Sets the per-replica CPU limit of a service (applies to existing and
    /// future replicas). Values below 0.01 cores are clamped up.
    pub fn set_cpu_limit(&mut self, service: ServiceId, cores: f64) {
        let cores = cores.max(MIN_CORES);
        let s = service.0;
        if (self.services[s].cores - cores).abs() > f64::EPSILON {
            let (at, seq) = (self.now, self.seq);
            self.record_flight(
                at,
                seq,
                FlightEventKind::CpuLimit {
                    service: s as u16,
                    millicores: (cores * 1000.0).round() as u32,
                },
            );
        }
        self.services[s].cores = cores;
        for r in 0..self.services[s].replicas.len() {
            if self.services[s].replicas[r].is_some() {
                self.ps_advance(s, r);
                self.services[s].replicas[r].as_mut().expect("live").cores = cores;
                self.ps_resync(s, r);
            }
        }
    }

    /// Scales all service times of a service by `scale` — the hook used to
    /// model business-logic updates (§VII-G's DETR → MobileNet swap).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn set_work_scale(&mut self, service: ServiceId, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite());
        self.work_scale[service.0] = scale;
    }

    /// Current work scale of a service.
    pub fn work_scale(&self, service: ServiceId) -> f64 {
        self.work_scale[service.0]
    }

    /// Total CPU cores currently allocated (live and draining replicas).
    pub fn total_allocated_cores(&self) -> f64 {
        self.services
            .iter()
            .map(|svc| svc.replicas.iter().flatten().map(|r| r.cores).sum::<f64>())
            .sum()
    }

    /// Worker occupancy of a service right now: busy worker slots over
    /// total worker slots, summed across live (non-draining) replicas, in
    /// `[0, 1]`. Returns `0.0` when the service has no live workers. This is
    /// the saturation signal the metrics pipeline exports alongside CPU
    /// utilization: occupancy near 1 with low CPU points at blocking on
    /// downstream calls rather than compute.
    pub fn worker_occupancy(&self, service: ServiceId) -> f64 {
        let svc = &self.services[service.0];
        let (busy, total) = svc
            .replicas
            .iter()
            .flatten()
            .filter(|rep| !rep.draining)
            .fold((0usize, 0usize), |(b, t), rep| {
                (b + rep.busy_workers, t + rep.workers)
            });
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }

    /// Takes a metrics snapshot covering the window since the previous
    /// harvest, and resets the telemetry accumulators.
    pub fn harvest(&mut self) -> MetricsSnapshot {
        for s in 0..self.services.len() {
            for r in 0..self.services[s].replicas.len() {
                if self.services[s].replicas[r].is_some() {
                    self.ps_advance(s, r);
                    let (busy, cap) = {
                        let rep = self.services[s].replicas[r].as_mut().expect("live");
                        (
                            std::mem::take(&mut rep.busy_acc),
                            std::mem::take(&mut rep.cap_acc),
                        )
                    };
                    if busy != 0.0 || cap != 0.0 {
                        self.telemetry.record_cpu(ServiceId(s), busy, cap);
                    }
                }
            }
        }
        let replicas: Vec<usize> = (0..self.services.len())
            .map(|s| self.services[s].live_count())
            .collect();
        let cores: Vec<f64> = self.services.iter().map(|s| s.cores).collect();
        let mq_depths: Vec<usize> = self.services.iter().map(|s| s.mq.len()).collect();
        let mut snapshot =
            self.telemetry
                .harvest(self.now, &self.names, &replicas, &cores, &mq_depths);
        if let Some(c) = self.chaos.as_deref_mut() {
            snapshot.faults = std::mem::take(&mut c.events);
        }
        let (at, seq, in_flight) = (self.now, self.seq, self.in_flight as u32);
        self.record_flight(at, seq, FlightEventKind::Harvest { in_flight });
        snapshot
    }
}
