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
//! * events live in one sorted vector ([`crate::evq`]) — a push that pops
//!   next is an append, any other shifts only the entries ahead of it;
//! * in-flight request/hop state lives in a generational SoA arena
//!   ([`crate::arena`]) instead of pooled per-request `Vec`s;
//! * per-hop routing fields come from the topology's SoA hot table
//!   ([`crate::topology::HotTable`]) instead of the wide flat nodes;
//! * Poisson sources draw their RNG in refillable blocks
//!   ([`ursa_stats::rng::BlockRng`]), preserving the exact draw stream.

use std::collections::VecDeque;
use std::sync::Arc;

use ursa_stats::rng::{BlockRng, Rng};

use crate::arena::{Phase, ReqArena, NO_DAEMON};
use crate::chaos::{ChaosState, Fault, FaultEvent, FaultKind, FaultPhase, FaultPlan};
use crate::evq::{EventQueue, QEntry};
use crate::memory::{select_victim, MemEvent, MemEventKind, MemPlan, MemState, VictimCandidate};
use crate::profiler::{PhaseProfiler, SimPhase};
use crate::ps::{ps_rate, VtPs};
use crate::recorder::{FlightEntry, FlightEventKind, FlightRecorder};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use crate::time::{SimDur, SimTime};
use crate::topology::{
    CallMode, ClassId, EdgeKind, FlatClass, HotTable, ServiceId, Topology, NO_NESTED_PARENT,
};
use crate::trace::{Trace, Tracer};
use crate::workload::RateFn;

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
    /// A trace-replay arrival scheduled via `schedule_arrivals`.
    TraceArrival { class: u32 },
    /// An installed fault window begins (index into the fault plan).
    ChaosStart { fault: u32 },
    /// An installed fault window ends.
    ChaosEnd { fault: u32 },
    /// Periodic memory-plane usage scan (see [`crate::memory`]).
    MemCheck,
    /// An OOM-killed or evicted replica of `service` restarts.
    MemRestart { service: u32 },
}

/// The profiler phase of a dispatched event. No wildcard arm, so a new
/// `EventKind` cannot go unclassified.
fn phase_of(kind: EventKind) -> SimPhase {
    match kind {
        EventKind::SourceNext { .. } => SimPhase::SourceNext,
        EventKind::NodeArrive { .. } => SimPhase::NodeArrive,
        EventKind::PsCheck { .. } => SimPhase::PsCheck,
        EventKind::TraceArrival { .. } => SimPhase::TraceArrival,
        EventKind::ChaosStart { .. } | EventKind::ChaosEnd { .. } => SimPhase::Chaos,
        EventKind::MemCheck | EventKind::MemRestart { .. } => SimPhase::Mem,
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

impl Replica {
    fn new(
        cores: f64,
        workers: usize,
        daemons: usize,
        daemon_cap: usize,
        levels: usize,
        now: SimTime,
    ) -> Self {
        Replica {
            cores,
            workers,
            busy_workers: 0,
            daemons,
            busy_daemons: 0,
            daemon_cap,
            daemon_queue: VecDeque::new(),
            blocked_submitters: VecDeque::new(),
            queue: PrioQueue::new(levels),
            ps: VtPs::new(),
            last_advance: now,
            check_at: SimTime::ZERO,
            check_seq: 0,
            has_check: false,
            busy_acc: 0.0,
            cap_acc: 0.0,
            draining: false,
        }
    }

    fn is_idle(&self) -> bool {
        self.busy_workers == 0
            && self.busy_daemons == 0
            && self.queue.len() == 0
            && self.ps.is_empty()
            && self.daemon_queue.is_empty()
            && self.blocked_submitters.is_empty()
    }

    /// Integrates the virtual clock and the CPU accumulators up to `now`
    /// at the PS rate implied by the current membership and the service
    /// slowdown multiplier. O(1).
    #[inline]
    fn advance_to(&mut self, now: SimTime, slow: f64) {
        let elapsed = (now - self.last_advance).as_secs_f64();
        self.last_advance = now;
        if elapsed <= 0.0 {
            return;
        }
        let n = self.ps.len();
        if n > 0 {
            self.ps.advance(elapsed * ps_rate(self.cores, n, slow));
            self.busy_acc += (n as f64).min(self.cores) * elapsed;
        }
        self.cap_acc += self.cores * elapsed;
    }

    /// Real fire time of the next PS completion under the pinned
    /// nanosecond quantization, or `None` when idle. Assumes the clock
    /// is already advanced to `now`.
    #[inline]
    fn next_check_at(&self, now: SimTime, slow: f64) -> Option<SimTime> {
        let min_rem = self.ps.next_rem()?;
        let rate = ps_rate(self.cores, self.ps.len(), slow);
        // `x / 1.0 == x` bitwise: the gate skips the division, common on
        // uncontended replicas, without changing the quantized result.
        let dt_s = if rate == 1.0 { min_rem } else { min_rem / rate };
        let dt_ns = (dt_s * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDur::from_nanos(dt_ns))
    }

    /// Makes the pending `PsCheck` of this replica (slot `replica` of
    /// `service`) fire no later than `at`, its next completion
    /// ([`Self::next_check_at`]; `None` when idle). A pending check at or
    /// before `at` is left alone. One that is later, or has nothing left to
    /// wait for, is removed from `events` before its replacement is pushed:
    /// the queue never holds two checks for one replica.
    #[inline]
    fn rearm(
        &mut self,
        at: Option<SimTime>,
        (service, replica): (usize, usize),
        events: &mut EventQueue<EventKind>,
        seq: &mut u64,
    ) {
        if self.has_check {
            if at.is_some_and(|at| at >= self.check_at) {
                return;
            }
            let removed = events.remove(self.check_at, self.check_seq);
            debug_assert!(removed, "pending PsCheck is not queued");
            self.has_check = false;
        }
        if let Some(at) = at {
            *seq += 1;
            let kind = EventKind::PsCheck {
                service: service as u16,
                replica: replica as u16,
            };
            events.push(at, *seq, kind);
            (self.check_at, self.check_seq, self.has_check) = (at, *seq, true);
        }
    }
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
    /// Memory plane, installed via
    /// [`install_memory_plane`](Self::install_memory_plane). `None` (the
    /// default) costs one predictable branch per PS rate lookup and
    /// leaves output bit-identical to a memory-free engine.
    mem: Option<Box<MemState>>,
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
            mem: None,
        }
    }

    /// Enables per-request span tracing: each injected request is
    /// head-sampled with probability `sample_rate`; sampled requests record
    /// one [`TraceSpan`](crate::trace::TraceSpan) per hop, assembled into a
    /// [`Trace`] on completion and kept in a bounded ring of `capacity`
    /// finished traces (oldest evicted). Disabled by default; the disabled
    /// path costs one predictable branch per hook. The sampling RNG is
    /// independent of the simulation RNG, so enabling tracing does not
    /// change simulated behavior.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `sample_rate` is outside `[0, 1]`.
    pub fn enable_tracing(&mut self, capacity: usize, sample_rate: f64) {
        // The sampler seed must NOT be drawn from `self.rng`: consuming the
        // sim stream here would make traced and untraced runs diverge.
        let seed =
            0x712A_CE5E_ED00_0001 ^ (capacity as u64) ^ sample_rate.to_bits().rotate_left(17);
        self.tracer = Some(Tracer::new(capacity, sample_rate, seed));
    }

    /// Drains the finished traces (empty if tracing is disabled; sampled
    /// requests still in flight remain pending).
    pub fn take_traces(&mut self) -> Vec<Trace> {
        match &mut self.tracer {
            Some(t) => t.take(),
            None => Vec::new(),
        }
    }

    /// The tracer, if tracing is enabled — exposes sampling statistics.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Enables the engine phase profiler (see [`crate::profiler`]): every
    /// `sample_every`-th dispatched event is classified by kind and
    /// counted. The profiler never touches simulation state or any RNG,
    /// so enabling it leaves simulated output bit-identical to a run
    /// without it.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn enable_profiler(&mut self, sample_every: u32) {
        self.prof = Some(Box::new(PhaseProfiler::new(sample_every)));
    }

    /// The phase profiler, if enabled — call
    /// [`report`](PhaseProfiler::report) for the breakdown.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.prof.as_deref()
    }

    /// Arms the flight recorder (see [`crate::recorder`]): the most
    /// recent `capacity` engine events and control-plane transitions are
    /// kept in a bounded ring for post-mortem dumps. Purely
    /// observational; simulated output stays bit-identical to an unarmed
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn arm_flight_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Box::new(FlightRecorder::new(capacity)));
    }

    /// The flight recorder, if armed.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Fault windows active right now: `(plan index, fault)` pairs whose
    /// window contains the current simulated time. Empty when the chaos
    /// plane is off.
    pub fn active_faults(&self) -> Vec<(u32, Fault)> {
        match self.chaos.as_deref() {
            None => Vec::new(),
            Some(c) => c
                .faults
                .iter()
                .enumerate()
                .filter(|(_, f)| f.at <= self.now && self.now < f.until)
                .map(|(i, f)| (i as u32, *f))
                .collect(),
        }
    }

    /// Installs a fault plan (see [`crate::chaos`]): each window's start
    /// and end become ordinary discrete events in the loop. `seed` drives
    /// the chaos RNG (RPC drop sampling) and is independent of the
    /// simulation seed, so identical workloads stay identical across
    /// chaos-enabled runs with the same plan. An empty plan schedules no
    /// events and draws no random numbers — output stays bit-identical to
    /// a chaos-free run.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already installed, or if a fault references a
    /// service outside the topology.
    pub fn install_faults(&mut self, plan: &FaultPlan, seed: u64) {
        assert!(self.chaos.is_none(), "fault plan already installed");
        for f in &plan.faults {
            if let Some(s) = f.kind.service() {
                assert!(
                    s < self.services.len(),
                    "fault targets service {s}, topology has {}",
                    self.services.len()
                );
            }
        }
        // The chaos seed must NOT be drawn from `self.rng`: consuming the
        // sim stream here would make faulted and fault-free runs diverge
        // even with an empty plan.
        let chaos_seed = 0xC4A0_5FA0_17ED_0001u64 ^ seed.rotate_left(11);
        let state = ChaosState::new(plan, self.services.len(), chaos_seed);
        for (i, f) in plan.faults.iter().enumerate() {
            let fault = i as u32;
            self.schedule(f.at, EventKind::ChaosStart { fault });
            self.schedule(f.until, EventKind::ChaosEnd { fault });
        }
        self.chaos = Some(Box::new(state));
    }

    /// Number of fault windows installed (0 when the chaos plane is off).
    pub fn faults_installed(&self) -> usize {
        self.chaos.as_ref().map_or(0, |c| c.faults.len())
    }

    /// Installs the memory plane (see [`crate::memory`]): a periodic usage
    /// scan becomes an ordinary discrete event that OOM-kills replicas
    /// over their memory limit, evicts replicas under node memory
    /// pressure in kubelet QoS order, and applies noisy-neighbor CPU
    /// interference on overcommitted nodes through the same rate-swap
    /// hook chaos slowdowns use. Demand is a deterministic function of
    /// engine state — the plane draws no random numbers — so identical
    /// workloads produce identical kill/eviction schedules. A plan with
    /// no profiles schedules no events, leaving output bit-identical to a
    /// run without the plane.
    ///
    /// # Panics
    ///
    /// Panics if a plane is already installed or the plan is invalid (no
    /// nodes, out-of-range service, non-finite thresholds).
    pub fn install_memory_plane(&mut self, plan: &MemPlan) {
        assert!(self.mem.is_none(), "memory plane already installed");
        let mut state = MemState::new(plan, &self.topology);
        state.last_check = self.now;
        let active = !plan.profiles.is_empty();
        let first = self.now + plan.check_interval;
        self.mem = Some(Box::new(state));
        if active {
            self.schedule(first, EventKind::MemCheck);
        }
    }

    /// True when a memory plane is installed.
    pub fn memory_plane_installed(&self) -> bool {
        self.mem.is_some()
    }

    /// Read-only view of the installed memory-plane state (`None` when
    /// the plane is off) — for tests and diagnostics.
    pub fn memory_plane(&self) -> Option<&MemState> {
        self.mem.as_deref()
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
    pub fn inject(&mut self, class: ClassId) {
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

    /// Schedules explicit arrivals of `class` at the given absolute times —
    /// trace replay, complementing the Poisson sources.
    ///
    /// # Panics
    ///
    /// Panics if any time is in the past; nothing is scheduled then.
    pub fn schedule_arrivals(&mut self, class: ClassId, times: &[SimTime]) {
        if let Some(at) = times.iter().find(|&&at| at < self.now) {
            panic!("arrival {at} is in the past (now {})", self.now);
        }
        let kind = EventKind::TraceArrival {
            class: class.0 as u32,
        };
        // One batch: a trace is ascending in time, the one order in which
        // pushing entry by entry would shift the whole queue every time.
        let first = self.seq + 1;
        self.seq += times.len() as u64;
        let batch = times.iter().zip(first..);
        self.events
            .extend(batch.map(|(&at, seq)| QEntry { at, seq, kind }));
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

    /// Maps a popped event to its flight-recorder entry and records it.
    /// Recording happens *before* dispatch so the ring reads causally:
    /// first the event, then the transitions it provoked.
    fn record_event(&mut self, entry: &QEntry<EventKind>) {
        let kind = match entry.kind {
            EventKind::SourceNext { class, .. } => FlightEventKind::SourceNext { class },
            EventKind::NodeArrive { token } => FlightEventKind::NodeArrive {
                slot: token.slot,
                node: token.node,
            },
            EventKind::PsCheck { service, replica } => {
                FlightEventKind::PsCheck { service, replica }
            }
            EventKind::TraceArrival { class } => FlightEventKind::TraceArrival { class },
            EventKind::ChaosStart { fault } => FlightEventKind::ChaosStart { fault },
            EventKind::ChaosEnd { fault } => FlightEventKind::ChaosEnd { fault },
            EventKind::MemCheck => FlightEventKind::MemCheck,
            EventKind::MemRestart { service } => FlightEventKind::MemRestart {
                service: service as u16,
            },
        };
        self.record_flight(entry.at, entry.seq, kind);
    }

    /// Appends one flight-recorder entry (no-op branch when disarmed).
    #[inline]
    fn record_flight(&mut self, at: SimTime, seq: u64, kind: FlightEventKind) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.push(FlightEntry { at, seq, kind });
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
            EventKind::TraceArrival { class } => self.inject(ClassId(class as usize)),
            EventKind::ChaosStart { fault } => self.chaos_start(fault as usize),
            EventKind::ChaosEnd { fault } => self.chaos_end(fault as usize),
            EventKind::MemCheck => self.mem_check(),
            EventKind::MemRestart { service } => self.mem_restart(service as usize),
        }
    }

    // ---- Fault plane ------------------------------------------------------

    /// Injects fault window `i`: actuate its kind and record the event.
    fn chaos_start(&mut self, i: usize) {
        let Some(chaos) = self.chaos.as_deref() else {
            return;
        };
        let fault = chaos.faults[i];
        let detail = match fault.kind {
            FaultKind::Slowdown { service, factor } => {
                // Rate rescale, not tag rewrite: integrate progress up to
                // now at the old rate, switch, recompute completions.
                self.ps_sync_all(service);
                self.chaos_mut().slow_on(service, factor);
                self.ps_resync_all(service);
                format!("svc {service}, x{factor}")
            }
            FaultKind::ReplicaCrash { service, count } => {
                let killed = self.chaos_kill(service, count);
                if killed > 0 {
                    self.chaos_mut().killed[i].push((service, killed));
                }
                format!("svc {service}, -{killed} replicas")
            }
            FaultKind::NodeFailure { node } => {
                let nodes = self.chaos_ref().nodes;
                for s in 0..self.services.len() {
                    // Synthetic deterministic placement: replica slot `r`
                    // of service `s` lives on node `(s + r) % nodes`.
                    let colocated = self.services[s]
                        .live
                        .iter()
                        .filter(|&&r| (s + r as usize) % nodes == node)
                        .count();
                    let killed = self.chaos_kill(s, colocated);
                    if killed > 0 {
                        self.chaos_mut().killed[i].push((s, killed));
                    }
                }
                let total: usize = self.chaos_ref().killed[i].iter().map(|&(_, k)| k).sum();
                format!("node {node}, -{total} replicas")
            }
            FaultKind::RpcFault {
                service, drop_prob, ..
            } => {
                self.chaos_mut().rpc_on(service, i as u32);
                format!("svc {service}, drop p={drop_prob}")
            }
            FaultKind::MqStall { service } => {
                self.chaos_mut().mq_stalled[service] += 1;
                format!("svc {service}")
            }
        };
        let event = FaultEvent {
            at: self.now,
            fault: i as u32,
            phase: FaultPhase::Injected,
            kind: fault.kind.label(),
            service: fault.kind.service(),
            detail,
        };
        self.chaos_mut().record(event);
    }

    /// Clears fault window `i`: undo its effect and record the recovery.
    fn chaos_end(&mut self, i: usize) {
        let Some(chaos) = self.chaos.as_deref() else {
            return;
        };
        let fault = chaos.faults[i];
        let detail = match fault.kind {
            FaultKind::Slowdown { service, factor } => {
                self.ps_sync_all(service);
                self.chaos_mut().slow_off(service, factor);
                self.ps_resync_all(service);
                format!("svc {service}")
            }
            FaultKind::ReplicaCrash { .. } | FaultKind::NodeFailure { .. } => {
                // Restart what this window killed, on top of whatever the
                // manager did meanwhile (restarted replicas rejoin; the
                // manager scales back in if over-provisioned).
                let restore = std::mem::take(&mut self.chaos_mut().killed[i]);
                let total: usize = restore.iter().map(|&(_, k)| k).sum();
                for (s, k) in restore {
                    let live = self.services[s].live_count();
                    self.set_replicas(ServiceId(s), live + k);
                }
                format!("+{total} replicas")
            }
            FaultKind::RpcFault { service, .. } => {
                self.chaos_mut().rpc_off(service, i as u32);
                format!("svc {service}")
            }
            FaultKind::MqStall { service } => {
                let stalled = {
                    let c = self.chaos_mut();
                    c.mq_stalled[service] -= 1;
                    c.mq_stalled[service]
                };
                if stalled == 0 {
                    // Broker back: drain the accumulated backlog through
                    // the normal consumer-group path.
                    self.dispatch_shared(service);
                }
                format!("svc {service}")
            }
        };
        let event = FaultEvent {
            at: self.now,
            fault: i as u32,
            phase: FaultPhase::Recovered,
            kind: fault.kind.label(),
            service: fault.kind.service(),
            detail,
        };
        self.chaos_mut().record(event);
    }

    /// Crashes up to `want` replicas of service `s`, always keeping one
    /// alive (`pick_replica` requires a non-empty live set — total
    /// blackout of a service is out of scope). Reuses the graceful-drain
    /// machinery: the replica leaves load balancing at once and its queue
    /// is re-dispatched, but in-PS work completes (fail-stop with
    /// connection draining; losing requests would break conservation).
    fn chaos_kill(&mut self, s: usize, want: usize) -> usize {
        let live = self.services[s].live_count();
        let kill = want.min(live.saturating_sub(1));
        if kill > 0 {
            self.set_replicas(ServiceId(s), live - kill);
        }
        kill
    }

    fn chaos_ref(&self) -> &ChaosState {
        self.chaos.as_deref().expect("chaos plane installed")
    }

    fn chaos_mut(&mut self) -> &mut ChaosState {
        self.chaos.as_deref_mut().expect("chaos plane installed")
    }

    /// Active slowdown multiplier of a service (1.0 when chaos is off).
    #[inline]
    fn chaos_slow(&self, s: usize) -> f64 {
        match &self.chaos {
            Some(c) => c.slow[s],
            None => 1.0,
        }
    }

    /// True while an MQ-stall fault is active on service `s`.
    #[inline]
    fn chaos_mq_stalled(&self, s: usize) -> bool {
        matches!(&self.chaos, Some(c) if c.mq_stalled[s] > 0)
    }

    /// Extra delivery delay for a message toward its callee under an
    /// active RPC fault (zero, with no RNG draw, otherwise).
    fn chaos_rpc_penalty(&mut self, token: Token) -> SimDur {
        let class = self.arena.class(token.slot);
        let callee = self.templates[class].nodes[token.node as usize].service;
        match self.chaos.as_deref_mut() {
            Some(c) => c.rpc_penalty(callee),
            None => SimDur::ZERO,
        }
    }

    // ---- Memory plane -----------------------------------------------------

    /// Combined service-time multiplier: the chaos plane's slowdown times
    /// the memory plane's noisy-neighbor interference. Exactly 1.0 when
    /// both planes are off, and an exact `x * 1.0` when a plane is
    /// installed but inactive — the PS hot path sees bit-identical rates.
    #[inline]
    fn slow_of(&self, s: usize) -> f64 {
        let mut slow = self.chaos_slow(s);
        if let Some(m) = &self.mem {
            slow *= m.interf[s];
        }
        slow
    }

    fn mem_ref(&self) -> &MemState {
        self.mem.as_deref().expect("memory plane installed")
    }

    fn mem_mut(&mut self) -> &mut MemState {
        self.mem.as_deref_mut().expect("memory plane installed")
    }

    /// Deterministic memory usage of live replica slot `r` of service `s`
    /// under the installed plane: profile demand driven by the replica's
    /// in-flight load (PS-active plus queued) and its age. Zero without a
    /// profile.
    fn mem_usage_of(&self, s: usize, r: usize) -> u64 {
        let m = self.mem_ref();
        let Some(profile) = m.profiles[s] else {
            return 0;
        };
        let rep = self.services[s].replicas[r].as_ref().expect("live replica");
        let in_flight = rep.ps.len() + rep.queue.len();
        let age = match m.births[s].get(r).copied().flatten() {
            Some(b) => (self.now - b).as_secs_f64(),
            None => 0.0,
        };
        profile.usage(in_flight, age)
    }

    /// One periodic memory-plane scan — the kubelet housekeeping tick.
    /// Recomputes per-replica usage, OOM-kills limit violators, relieves
    /// node pressure by QoS-ordered eviction, updates noisy-neighbor
    /// interference, and re-arms the next scan.
    fn mem_check(&mut self) {
        let Some(m) = self.mem.as_deref() else {
            return;
        };
        let now = self.now;
        let interval = m.check_interval;
        let restart_delay = m.restart_delay;
        let nodes = m.nodes.len();
        let pressure = m.pressure_threshold;
        let interference_threshold = m.interference_threshold;
        let factor = m.interference_factor;
        let ns = self.services.len();

        // Integrate interference time since the previous scan at the
        // multipliers that actually held over the span.
        {
            let last = self.mem_ref().last_check;
            let span = (now - last).as_secs_f64();
            let m = self.mem_mut();
            for s in 0..ns {
                if m.interf[s] > 1.0 {
                    m.throttle_secs[s] += span;
                }
            }
            m.last_check = now;
        }

        // Refresh per-slot birth times: live slots keep (or get) their
        // first-seen time; drained/absent slots forget theirs, so a
        // future replica reusing the slot starts with a fresh heap.
        for s in 0..ns {
            let slots = self.services[s].replicas.len();
            let alive: Vec<bool> = (0..slots)
                .map(|r| matches!(&self.services[s].replicas[r], Some(rep) if !rep.draining))
                .collect();
            let m = self.mem_mut();
            m.births[s].resize(slots, None);
            for (r, live) in alive.iter().enumerate() {
                if *live {
                    m.births[s][r].get_or_insert(now);
                } else {
                    m.births[s][r] = None;
                }
            }
        }

        // OOM-kill: memory is incompressible, so a replica over its
        // service's limit is killed outright (the violating slot itself —
        // graceful drain keeps in-PS work, matching fail-stop with
        // connection draining) and restarts after the restart delay. The
        // last live replica of a service restarts in place instead
        // (capacity never drops to zero): the heap resets but the slot
        // keeps serving.
        for s in 0..ns {
            let limit = self.mem_ref().limits[s];
            if limit == 0 || self.mem_ref().profiles[s].is_none() {
                continue;
            }
            let live: Vec<usize> = self.services[s].live.iter().map(|&r| r as usize).collect();
            for r in live {
                let usage = self.mem_usage_of(s, r);
                if usage <= limit {
                    continue;
                }
                let qos = self.mem_ref().qos[s];
                let node = self.mem_ref().node_of(s, r);
                let (at, seq) = (self.now, self.seq);
                self.record_flight(
                    at,
                    seq,
                    FlightEventKind::OomKill {
                        service: s as u16,
                        replica: r as u16,
                    },
                );
                {
                    let m = self.mem_mut();
                    m.oom_kills += 1;
                    m.record(MemEvent {
                        at: now,
                        kind: MemEventKind::OomKill,
                        service: s,
                        node,
                        qos,
                        usage_bytes: usage,
                    });
                }
                if self.services[s].live_count() > 1 {
                    self.mem_mut().births[s][r] = None;
                    self.drain_replica(s, r);
                    self.schedule(
                        now + restart_delay,
                        EventKind::MemRestart { service: s as u32 },
                    );
                } else {
                    self.mem_mut().births[s][r] = Some(now);
                }
            }
        }

        // Node pressure: while a node's usage exceeds the pressure
        // threshold, evict in the kubelet's order — lowest QoS tier
        // first, then highest usage-over-request. Each eviction strictly
        // shrinks the live set, so the loop terminates.
        for node in 0..nodes {
            let cap = self.mem_ref().nodes[node].mem_bytes as f64;
            loop {
                let mut usage_total = 0u64;
                let mut cands: Vec<VictimCandidate> = Vec::new();
                for s in 0..ns {
                    if self.mem_ref().profiles[s].is_none() {
                        continue;
                    }
                    let live: Vec<usize> =
                        self.services[s].live.iter().map(|&r| r as usize).collect();
                    let evictable = live.len() > 1;
                    for r in live {
                        if self.mem_ref().node_of(s, r) != node {
                            continue;
                        }
                        let usage = self.mem_usage_of(s, r);
                        usage_total += usage;
                        cands.push(VictimCandidate {
                            service: s,
                            replica: r,
                            qos: self.mem_ref().qos[s],
                            usage_bytes: usage,
                            request_bytes: self.mem_ref().requests[s],
                            evictable,
                        });
                    }
                }
                self.mem_mut().node_util[node] = usage_total as f64 / cap;
                if usage_total as f64 <= pressure * cap {
                    break;
                }
                let Some(v) = select_victim(&cands) else {
                    break;
                };
                let victim = cands[v];
                let tier = MemState::tier_index(victim.qos);
                let (at, seq) = (self.now, self.seq);
                self.record_flight(
                    at,
                    seq,
                    FlightEventKind::Evict {
                        service: victim.service as u16,
                        tier: tier as u8,
                    },
                );
                {
                    let m = self.mem_mut();
                    m.evictions[tier] += 1;
                    m.births[victim.service][victim.replica] = None;
                    m.record(MemEvent {
                        at: now,
                        kind: MemEventKind::Evict,
                        service: victim.service,
                        node,
                        qos: victim.qos,
                        usage_bytes: victim.usage_bytes,
                    });
                }
                self.drain_replica(victim.service, victim.replica);
                self.schedule(
                    now + restart_delay,
                    EventKind::MemRestart {
                        service: victim.service as u32,
                    },
                );
            }
        }

        // Noisy-neighbor interference: services with a replica on a node
        // above the interference threshold run slower (reclaim/paging
        // stealing cycles), through the same sync → rate change → resync
        // hook chaos slowdowns use. Applies to every co-located service,
        // profiled or not.
        if factor > 1.0 {
            let node_hot: Vec<bool> = (0..nodes)
                .map(|n| self.mem_ref().node_util[n] > interference_threshold)
                .collect();
            for s in 0..ns {
                let hot = self.services[s]
                    .live
                    .iter()
                    .any(|&r| node_hot[self.mem_ref().node_of(s, r as usize)]);
                let want = if hot { factor } else { 1.0 };
                if self.mem_ref().interf[s] != want {
                    self.ps_sync_all(s);
                    self.mem_mut().interf[s] = want;
                    self.ps_resync_all(s);
                }
            }
        }

        self.schedule(now + interval, EventKind::MemCheck);
    }

    /// Restores one replica of `service` after its OOM/eviction restart
    /// delay — on top of whatever the manager did meanwhile, exactly like
    /// chaos recovery (the manager scales back in if over-provisioned).
    fn mem_restart(&mut self, s: usize) {
        if self.mem.is_none() {
            return;
        }
        let live = self.services[s].live_count();
        self.set_replicas(ServiceId(s), live + 1);
        let now = self.now;
        let node = self.mem_ref().node_of(s, live);
        let qos = self.mem_ref().qos[s];
        self.mem_mut().record(MemEvent {
            at: now,
            kind: MemEventKind::Restart,
            service: s,
            node,
            qos,
            usage_bytes: 0,
        });
    }

    /// True iff `token`'s request is still in flight: the arena bumps a
    /// slot's generation exactly when the request completes, so the
    /// generation match alone decides liveness.
    #[inline]
    fn token_alive(&self, token: Token) -> bool {
        self.arena.alive(token.slot, token.gen)
    }

    /// Index of `token`'s hop state in the arena node arrays (generation-
    /// checked under debug assertions).
    #[inline]
    fn nidx(&self, token: Token) -> usize {
        self.arena.node_index(token.slot, token.gen, token.node)
    }

    /// A hop arrives at its service: route to a replica queue (RPC) or the
    /// shared MQ queue, then try to start work.
    fn node_arrive(&mut self, token: Token) {
        let class = self.arena.class(token.slot);
        let h = self.hot.node(class, token.node);
        let s = self.hot.service[h] as usize;
        let prio = self.hot.class_prio[class] as usize;
        self.telemetry.record_arrival(ServiceId(s), ClassId(class));
        let ni = self.nidx(token);
        self.arena.enqueue_at[ni] = self.now;
        self.arena.phase[ni] = Phase::Queued;
        if self.arena.traced(token.slot) {
            let parent = self.templates[class].nodes[token.node as usize].parent;
            let now = self.now;
            if let Some(t) = self.tracer.as_mut() {
                t.on_arrive(token.slot, token.node, ServiceId(s), parent, now);
            }
        }
        if self.hot.via_mq[h] {
            self.services[s].mq.push(prio, token);
            self.note_mq_depth(s);
            self.dispatch_shared(s);
        } else {
            let r = self.pick_replica(s);
            let rep = self.services[s].replicas[r].as_mut().expect("live replica");
            if rep.busy_workers < rep.workers && rep.queue.len() == 0 {
                // Fast path: a free worker and an empty own queue mean
                // `try_start` would pop this token right back out — the
                // push/pop round-trip is a semantic no-op. (The shared MQ
                // can hold no eligible work here: messages only stay
                // queued when every live replica is saturated or the
                // broker is stalled, and `try_start` skips a stalled
                // broker anyway.)
                rep.busy_workers += 1;
                self.start_pre(token, s, r);
            } else {
                rep.queue.push(prio, token);
                self.try_start(s, r);
            }
        }
    }

    fn pick_replica(&mut self, s: usize) -> usize {
        let svc = &mut self.services[s];
        assert!(
            !svc.live.is_empty(),
            "service {} has no live replicas",
            self.names[s]
        );
        svc.rr = svc.rr.wrapping_add(1);
        svc.live[svc.rr % svc.live.len()] as usize
    }

    /// Assigns shared-queue (MQ) messages to consumers, least-busy replica
    /// first — the balance a consumer group provides. Without this,
    /// in-order offering concentrates messages on low-index replicas and
    /// inflates their processor-sharing contention.
    fn dispatch_shared(&mut self, s: usize) {
        if self.chaos_mq_stalled(s) {
            // Broker stalled: messages pile up, consumers get nothing.
            return;
        }
        let mut popped = false;
        while self.services[s].mq.len() > 0 {
            let svc = &self.services[s];
            let target = svc
                .live
                .iter()
                .filter_map(|&i| match &svc.replicas[i as usize] {
                    Some(rep) if rep.busy_workers < rep.workers => {
                        Some((i as usize, rep.busy_workers))
                    }
                    _ => None,
                })
                .min_by_key(|&(_, busy)| busy);
            let Some((r, _)) = target else { break };
            let token = self.services[s].mq.pop().expect("checked non-empty");
            popped = true;
            self.services[s].replicas[r]
                .as_mut()
                .expect("live replica")
                .busy_workers += 1;
            self.start_pre(token, s, r);
        }
        if popped {
            self.note_mq_depth(s);
        }
    }

    /// Starts queued work on a replica while it has free workers.
    fn try_start(&mut self, s: usize, r: usize) {
        let mq_stalled = self.chaos_mq_stalled(s);
        loop {
            let (token, from_mq) = {
                let Some(rep) = self.services[s].replicas[r].as_mut() else {
                    return;
                };
                if rep.busy_workers >= rep.workers {
                    return;
                }
                let from_own = rep.queue.pop();
                let (token, from_mq) = match from_own {
                    Some(t) => (Some(t), false),
                    None => {
                        if rep.draining || mq_stalled {
                            (None, false)
                        } else {
                            (self.services[s].mq.pop(), true)
                        }
                    }
                };
                let Some(token) = token else { return };
                self.services[s].replicas[r]
                    .as_mut()
                    .expect("live replica")
                    .busy_workers += 1;
                (token, from_mq)
            };
            if from_mq {
                self.note_mq_depth(s);
            }
            self.start_pre(token, s, r);
        }
    }

    fn start_pre(&mut self, token: Token, s: usize, r: usize) {
        let class = self.arena.class(token.slot);
        // Chaos slowdown is NOT applied here: it rescales the replica's PS
        // rate (affecting in-flight work too), not the sampled demand.
        let scale = self.work_scale[s];
        let work = {
            let tmpl = &self.templates[class].nodes[token.node as usize];
            (tmpl.pre.sample(&mut self.rng) * scale).max(MIN_WORK)
        };
        let ni = self.nidx(token);
        self.arena.phase[ni] = Phase::Pre;
        self.arena.replica[ni] = r as u32;
        if self.arena.traced(token.slot) {
            let now = self.now;
            if let Some(t) = self.tracer.as_mut() {
                t.on_start(token.slot, token.node, now);
            }
        }
        self.ps_add(s, r, token, work);
    }

    // ---- Processor-sharing machinery -------------------------------------

    /// Advances a replica's virtual clock to `now`. O(1): one clock add
    /// plus two telemetry accumulator adds, regardless of how many jobs
    /// are active.
    fn ps_advance(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.slow_of(s);
        if let Some(rep) = self.services[s].replicas[r].as_mut() {
            rep.advance_to(now, slow);
        }
    }

    /// Recomputes the replica's next real-time completion from the head
    /// finish tag — O(1) — and replaces the pending `PsCheck` only when that
    /// completion moved *earlier*. If it moved later (the common case on
    /// arrivals with typical work sizes), the pending check fires early,
    /// finds nothing due, and re-arms here — so most membership changes
    /// touch no event at all.
    ///
    /// Call after any membership or rate change, with the clock already
    /// advanced to `now` ([`Self::ps_advance`]).
    fn ps_resync(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.slow_of(s);
        let Some(rep) = self.services[s].replicas[r].as_mut() else {
            return;
        };
        let at = rep.next_check_at(now, slow);
        rep.rearm(at, (s, r), &mut self.events, &mut self.seq);
    }

    /// Admits one compute phase into a replica's PS queue — the fused
    /// hot path: advance, admit, and re-arm under a single replica
    /// borrow.
    fn ps_add(&mut self, s: usize, r: usize, token: Token, work: f64) {
        let now = self.now;
        let slow = self.slow_of(s);
        let rep = self.services[s].replicas[r].as_mut().expect("live replica");
        rep.advance_to(now, slow);
        rep.ps.admit(work, token);
        let at = rep.next_check_at(now, slow);
        rep.rearm(at, (s, r), &mut self.events, &mut self.seq);
    }

    /// Advances every replica of `s` to `now` at the *current* rate.
    /// Call immediately before a service-wide rate change (chaos
    /// slowdown on/off), so the elapsed span is integrated at the rate
    /// that actually held over it.
    fn ps_sync_all(&mut self, s: usize) {
        for r in 0..self.services[s].replicas.len() {
            self.ps_advance(s, r);
        }
    }

    /// Recomputes next completions for every replica of `s`. Call
    /// immediately after a service-wide rate change.
    fn ps_resync_all(&mut self, s: usize) {
        for r in 0..self.services[s].replicas.len() {
            self.ps_resync(s, r);
        }
    }

    /// Handles a popped `PsCheck`: by construction the replica's pending
    /// one, so the slot is occupied and nothing else is queued for it.
    fn ps_check(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.slow_of(s);
        // Collect completions into the reusable scratch buffer (taken out of
        // `self` for the duration — nothing below re-enters `ps_check`).
        let mut finished = std::mem::take(&mut self.ps_scratch);
        finished.clear();
        // Advance, pop, and re-arm under a single replica borrow.
        let rep = self.services[s].replicas[r].as_mut().expect("live replica");
        debug_assert!(
            rep.has_check && rep.check_at == now,
            "a popped PsCheck is its replica's pending one"
        );
        rep.has_check = false;
        rep.advance_to(now, slow);
        rep.ps.pop_due(WORK_EPS, &mut finished);
        let at = rep.next_check_at(now, slow);
        rep.rearm(at, (s, r), &mut self.events, &mut self.seq);
        for &token in &finished {
            let phase = self.arena.phase[self.nidx(token)];
            match phase {
                Phase::Pre => self.on_pre_done(token),
                Phase::Post => self.respond(token),
                other => unreachable!("PS completion in phase {other:?}"),
            }
        }
        finished.clear();
        self.ps_scratch = finished;
    }

    // ---- Request state machine -------------------------------------------

    fn on_pre_done(&mut self, token: Token) {
        let ni = self.nidx(token);
        self.arena.phase[ni] = Phase::Issuing;
        self.arena.next_child[ni] = 0;
        self.arena.awaiting[ni] = 0;
        self.issue_children(token);
    }

    /// Issues child calls from `next_child` onward, honoring the node's
    /// [`CallMode`]. May leave the node blocked on daemon submission or
    /// waiting for nested responses; otherwise proceeds to post-compute.
    fn issue_children(&mut self, token: Token) {
        let class = self.arena.class(token.slot);
        let h = self.hot.node(class, token.node);
        let n_children = self.hot.n_children[h];
        let ni = self.nidx(token);
        if n_children > 0 {
            // Leaf nodes (the common case) skip the wide-template deref
            // entirely; `mode` and the child list are only needed here.
            let mode = self.templates[class].nodes[token.node as usize].mode;
            let s = self.hot.service[h] as usize;
            loop {
                let i = self.arena.next_child[ni];
                if i >= n_children {
                    break;
                }
                let (child_idx, edge) =
                    self.templates[class].nodes[token.node as usize].children[i as usize];
                let replica = self.arena.replica[ni] as usize;
                let child_token = Token {
                    node: child_idx,
                    ..token
                };
                match edge {
                    EdgeKind::Mq => {
                        self.arena.next_child[ni] = i + 1;
                        self.launch_child(child_token);
                    }
                    EdgeKind::EventDrivenRpc => {
                        let submitted = self.submit_continuation(s, replica, child_token);
                        if submitted {
                            self.arena.next_child[ni] = i + 1;
                        } else {
                            // Daemon pool and queue full: block on submission.
                            self.arena.phase[ni] = Phase::BlockedDaemon;
                            self.arena.next_child[ni] = i;
                            self.services[s].replicas[replica]
                                .as_mut()
                                .expect("live replica")
                                .blocked_submitters
                                .push_back((token, child_idx));
                            if self.arena.traced(token.slot) {
                                let now = self.now;
                                if let Some(t) = self.tracer.as_mut() {
                                    t.open_block(token.slot, token.node, now);
                                }
                            }
                            return;
                        }
                    }
                    EdgeKind::NestedRpc => {
                        self.arena.next_child[ni] = i + 1;
                        self.arena.awaiting[ni] += 1;
                        self.launch_child(child_token);
                        if mode == CallMode::Sequential {
                            let now = self.now;
                            self.arena.phase[ni] = Phase::Waiting;
                            self.arena.wait_start[ni] = now;
                            if self.arena.traced(token.slot) {
                                if let Some(t) = self.tracer.as_mut() {
                                    t.open_wait(token.slot, token.node, now);
                                }
                            }
                            return;
                        }
                    }
                }
            }
        }
        // All children issued; wait for outstanding nested responses.
        let awaiting = self.arena.awaiting[ni];
        if awaiting > 0 {
            let now = self.now;
            self.arena.phase[ni] = Phase::Waiting;
            self.arena.wait_start[ni] = now;
            if self.arena.traced(token.slot) {
                if let Some(t) = self.tracer.as_mut() {
                    t.open_wait(token.slot, token.node, now);
                }
            }
        } else {
            self.start_post(token);
        }
    }

    /// Sends a child hop toward its service (network delay applies; an
    /// active RPC fault on the callee adds its timeout/retry penalty).
    fn launch_child(&mut self, child_token: Token) {
        let mut at = self.now + self.cfg.net_delay;
        if self.chaos.is_some() {
            at += self.chaos_rpc_penalty(child_token);
        }
        self.schedule(at, EventKind::NodeArrive { token: child_token });
    }

    /// Tries to place an event-driven continuation on the replica's daemon
    /// pool (run now) or its bounded queue. Returns false if both are full.
    fn submit_continuation(&mut self, s: usize, r: usize, child_token: Token) -> bool {
        let verdict = {
            let rep = self.services[s].replicas[r].as_mut().expect("live replica");
            if rep.busy_daemons < rep.daemons {
                rep.busy_daemons += 1;
                0u8
            } else if rep.daemon_queue.len() < rep.daemon_cap {
                rep.daemon_queue.push_back(child_token);
                1
            } else {
                2
            }
        };
        match verdict {
            0 => {
                let ci = self.nidx(child_token);
                self.arena.daemon_of[ci] = ((s as u64) << 32) | r as u64;
                self.launch_child(child_token);
                true
            }
            1 => true,
            _ => false,
        }
    }

    /// A daemon worker freed on `(s, r)`: run the next queued continuation,
    /// then unblock one blocked submitter if queue space opened up.
    fn daemon_freed(&mut self, s: usize, r: usize) {
        {
            let Some(rep) = self.services[s].replicas[r].as_mut() else {
                return;
            };
            rep.busy_daemons -= 1;
        }
        // Promote a queued continuation into the freed daemon slot.
        let next = {
            let rep = self.services[s].replicas[r].as_mut().expect("live replica");
            if rep.busy_daemons < rep.daemons {
                rep.daemon_queue.pop_front().inspect(|_| {
                    rep.busy_daemons += 1;
                })
            } else {
                None
            }
        };
        if let Some(cont) = next {
            let ci = self.nidx(cont);
            self.arena.daemon_of[ci] = ((s as u64) << 32) | r as u64;
            self.launch_child(cont);
        }
        // Queue space may have opened: resume one blocked submitter.
        let unblocked = {
            let rep = self.services[s].replicas[r].as_mut().expect("live replica");
            if rep.daemon_queue.len() < rep.daemon_cap {
                rep.blocked_submitters.pop_front()
            } else {
                None
            }
        };
        if let Some((parent, child_idx)) = unblocked {
            let child_token = Token {
                node: child_idx,
                ..parent
            };
            let ok = self.submit_continuation(s, r, child_token);
            debug_assert!(ok, "submission must succeed after space opened");
            // `next_child` still holds the blocked child's position;
            // step past it and continue issuing the remaining children.
            let pi = self.nidx(parent);
            self.arena.phase[pi] = Phase::Issuing;
            self.arena.next_child[pi] += 1;
            if self.arena.traced(parent.slot) {
                let now = self.now;
                if let Some(t) = self.tracer.as_mut() {
                    t.close_block(parent.slot, parent.node, now);
                }
            }
            self.issue_children(parent);
        }
        self.maybe_remove_drained(s, r);
    }

    fn start_post(&mut self, token: Token) {
        let class = self.arena.class(token.slot);
        let (s, work) = {
            let svc = self.templates[class].nodes[token.node as usize].service;
            let scale = self.work_scale[svc];
            let t = &self.templates[class].nodes[token.node as usize];
            let w = t.post.sample(&mut self.rng) * scale;
            (t.service, w)
        };
        let ni = self.nidx(token);
        let r = self.arena.replica[ni] as usize;
        if work <= WORK_EPS {
            self.respond(token);
        } else {
            self.arena.phase[ni] = Phase::Post;
            self.ps_add(s, r, token, work);
        }
    }

    /// The hop responds: record latency, release its worker, notify the
    /// parent, and complete the request if every hop has responded.
    fn respond(&mut self, token: Token) {
        let class = self.arena.class(token.slot);
        let h = self.hot.node(class, token.node);
        let s = self.hot.service[h] as usize;
        let ni = self.nidx(token);
        let now = self.now;
        self.arena.phase[ni] = Phase::Responded;
        let nested_wait = self.arena.nested_wait[ni];
        let full = (now - self.arena.enqueue_at[ni]).as_secs_f64();
        let tier = (full - nested_wait.as_secs_f64()).max(0.0);
        let r = self.arena.replica[ni] as usize;
        let daemon_of = self.arena.daemon_of[ni];
        self.telemetry
            .record_response(ServiceId(s), ClassId(class), tier, full);
        if self.arena.traced(token.slot) {
            if let Some(t) = self.tracer.as_mut() {
                t.on_respond(token.slot, token.node, now, nested_wait);
            }
        }

        // Release the worker and pull more work.
        {
            let rep = self.services[s].replicas[r].as_mut().expect("live replica");
            rep.busy_workers -= 1;
        }
        self.try_start(s, r);
        self.maybe_remove_drained(s, r);

        // Free the daemon that was awaiting this response (event-driven).
        if daemon_of != NO_DAEMON {
            self.daemon_freed(
                (daemon_of >> 32) as usize,
                (daemon_of & u32::MAX as u64) as usize,
            );
        }

        // Notify a nested-waiting parent. The parent resumes only if it is
        // actually parked in `Waiting`; if it is blocked on daemon
        // submission (parallel mode mixing edge kinds), the daemon-unblock
        // path resumes it instead and re-checks `awaiting` at loop end.
        let pidx = self.hot.nested_parent[h];
        if pidx != NO_NESTED_PARENT {
            let parent_token = Token {
                node: pidx,
                ..token
            };
            let pi = self.nidx(parent_token);
            self.arena.awaiting[pi] -= 1;
            if self.arena.awaiting[pi] == 0 && self.arena.phase[pi] == Phase::Waiting {
                self.arena.nested_wait[pi] += now - self.arena.wait_start[pi];
                self.arena.phase[pi] = Phase::Issuing;
                if self.arena.traced(parent_token.slot) {
                    if let Some(t) = self.tracer.as_mut() {
                        t.close_wait(parent_token.slot, pidx, now);
                    }
                }
                self.issue_children(parent_token);
            }
        }

        // Request-level completion.
        if self.arena.respond_one(token.slot) {
            let latency = (self.now - self.arena.arrival(token.slot)).as_secs_f64();
            let req_class = self.arena.class(token.slot);
            let traced = self.arena.traced(token.slot);
            self.arena.release(token.slot);
            self.in_flight -= 1;
            self.telemetry.record_e2e(ClassId(req_class), latency);
            if traced {
                let now = self.now;
                if let Some(t) = self.tracer.as_mut() {
                    t.finish(token.slot, now);
                }
            }
        }
    }

    /// Feeds the telemetry MQ-depth accumulators after a shared-queue push
    /// or pop. Several pops at one timestamp may each call this; zero-width
    /// intervals contribute nothing to the time-weighted mean, and the max
    /// only ever sees depths the queue actually held.
    fn note_mq_depth(&mut self, s: usize) {
        let depth = self.services[s].mq.len();
        self.telemetry
            .record_mq_depth(ServiceId(s), self.now, depth);
    }

    fn maybe_remove_drained(&mut self, s: usize, r: usize) {
        let remove = matches!(
            &self.services[s].replicas[r],
            Some(rep) if rep.draining && rep.is_idle()
        );
        if remove {
            self.ps_advance(s, r); // final capacity accounting
            let (busy, cap) = {
                let rep = self.services[s].replicas[r].as_mut().expect("draining");
                (
                    std::mem::take(&mut rep.busy_acc),
                    std::mem::take(&mut rep.cap_acc),
                )
            };
            if busy != 0.0 || cap != 0.0 {
                self.telemetry.record_cpu(ServiceId(s), busy, cap);
            }
            debug_assert!(
                self.services[s].replicas[r]
                    .as_ref()
                    .is_some_and(|rep| !rep.has_check),
                "an idle replica has no PsCheck queued"
            );
            self.services[s].replicas[r] = None;
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
        if let Some(m) = self.mem.as_deref_mut() {
            snapshot.mem = Some(m.take_snapshot());
        }
        let (at, seq, in_flight) = (self.now, self.seq, self.in_flight as u32);
        self.record_flight(at, seq, FlightEventKind::Harvest { in_flight });
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, WorkDist};

    fn single_service(cores: f64, mean_work: f64) -> Simulation {
        let topo = Topology::new(
            vec![ServiceCfg::new("svc", cores)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: mean_work }),
            }],
        )
        .unwrap();
        Simulation::new(topo, SimConfig::default(), 7)
    }

    #[test]
    fn single_service_completes_requests() {
        let mut sim = single_service(4.0, 0.002);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        let injected = snap.injections[0];
        let completed = snap.completions[0];
        assert!(injected > 2500, "injected {injected}");
        assert!(
            completed as f64 > injected as f64 * 0.98,
            "completed {completed}/{injected}"
        );
        // M/M-ish latency at low load ~ service time.
        let p50 = snap.e2e_latency[0].percentile(50.0).unwrap();
        assert!(p50 < 0.02, "p50 {p50}");
    }

    #[test]
    fn poisson_arrival_rate_matches() {
        let mut sim = single_service(8.0, 0.001);
        sim.set_rate(ClassId(0), RateFn::Constant(500.0));
        sim.run_for(SimDur::from_secs(60));
        let snap = sim.harvest();
        let rps = snap.class_rps(ClassId(0));
        assert!((rps - 500.0).abs() < 25.0, "rps {rps}");
    }

    #[test]
    fn utilization_tracks_load() {
        // rho = lambda * E[S] / cores = 100 * 0.002 / 1 = 0.2
        let mut sim = single_service(1.0, 0.002);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(60));
        let snap = sim.harvest();
        let util = snap.services[0].cpu_utilization;
        assert!((util - 0.2).abs() < 0.03, "util {util}");
    }

    #[test]
    fn latency_rises_with_utilization() {
        let mut lats = Vec::new();
        for rps in [100.0, 400.0, 470.0] {
            let mut sim = single_service(1.0, 0.002);
            sim.set_rate(ClassId(0), RateFn::Constant(rps));
            sim.run_for(SimDur::from_secs(60));
            let snap = sim.harvest();
            lats.push(snap.e2e_latency[0].percentile(99.0).unwrap());
        }
        assert!(lats[0] < lats[1] && lats[1] < lats[2], "latencies {lats:?}");
        // Near saturation (rho = 0.94) p99 should blow up well past service time.
        assert!(
            lats[2] > 5.0 * lats[0],
            "saturated {} vs idle {}",
            lats[2],
            lats[0]
        );
    }

    #[test]
    fn more_replicas_reduce_latency() {
        let topo = Topology::new(
            vec![ServiceCfg::new("svc", 1.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 9);
        sim.set_rate(ClassId(0), RateFn::Constant(450.0));
        sim.run_for(SimDur::from_secs(40));
        let p99_one = sim.harvest().e2e_latency[0].percentile(99.0).unwrap();
        sim.set_replicas(ServiceId(0), 4);
        sim.run_for(SimDur::from_secs(40));
        let p99_four = sim.harvest().e2e_latency[0].percentile(99.0).unwrap();
        assert!(
            p99_four < p99_one * 0.5,
            "p99 1 replica {p99_one}, 4 replicas {p99_four}"
        );
        assert_eq!(sim.replicas(ServiceId(0)), 4);
    }

    #[test]
    fn scale_in_drains_gracefully() {
        let topo = Topology::new(
            vec![ServiceCfg::new("svc", 2.0).with_replicas(4)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 }),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 10);
        sim.set_rate(ClassId(0), RateFn::Constant(200.0));
        sim.run_for(SimDur::from_secs(20));
        sim.set_replicas(ServiceId(0), 1);
        assert_eq!(sim.replicas(ServiceId(0)), 1);
        sim.run_for(SimDur::from_secs(20));
        let snap = sim.harvest();
        // No requests lost across the scale-in.
        let injected: u64 = snap.injections.iter().sum();
        let completed: u64 = snap.completions.iter().sum();
        assert!(
            completed as f64 > injected as f64 * 0.97,
            "{completed}/{injected}"
        );
    }

    /// A linear chain. Worker pools shrink downstream (client-facing tiers
    /// admit far more concurrency than deep backend tiers), which is what
    /// makes backpressure surface near the culprit rather than at the
    /// outermost queue — see DESIGN.md §3.
    fn chain(edge: EdgeKind, tiers: usize, work: f64, cores: f64) -> Topology {
        let services: Vec<ServiceCfg> = (0..tiers)
            .map(|i| {
                let workers = (4096usize >> (2 * i).min(12)).max(32);
                ServiceCfg::new(format!("tier{}", i + 1), cores).with_workers(workers)
            })
            .collect();
        fn build(i: usize, tiers: usize, work: f64, edge: EdgeKind) -> CallNode {
            let node = CallNode::leaf(ServiceId(i), WorkDist::Exponential { mean: work });
            if i + 1 < tiers {
                node.with_child(edge, build(i + 1, tiers, work, edge))
            } else {
                node
            }
        }
        Topology::new(
            services,
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: build(0, tiers, work, edge),
            }],
        )
        .unwrap()
    }

    #[test]
    fn nested_chain_end_to_end_latency_sums_tiers() {
        let mut sim = Simulation::new(
            chain(EdgeKind::NestedRpc, 3, 0.002, 4.0),
            SimConfig::default(),
            11,
        );
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        let e2e_mean = snap.e2e_latency[0].mean().unwrap();
        let tier_sum: f64 = (0..3)
            .map(|s| snap.services[s].tier_latency[0].mean().unwrap())
            .sum();
        // e2e = sum of tier means + network hops; allow tolerance.
        assert!(
            (e2e_mean - tier_sum).abs() < 0.35 * e2e_mean,
            "e2e {e2e_mean} vs tier sum {tier_sum}"
        );
        assert!(e2e_mean > tier_sum, "e2e includes network delay");
    }

    #[test]
    fn nested_chain_backpressure_on_throttle() {
        // Throttle the leaf far below the offered load; the parent's
        // tier latency (excluding downstream wait) must inflate
        // (worker exhaustion -> queueing), while without throttling it
        // stays small.
        let mut sim = Simulation::new(
            chain(EdgeKind::NestedRpc, 3, 0.004, 4.0),
            SimConfig::default(),
            12,
        );
        sim.set_rate(ClassId(0), RateFn::Constant(300.0));
        sim.run_for(SimDur::from_secs(30));
        let baseline = sim.harvest();
        let parent_before = baseline.services[1].tier_latency[0]
            .percentile(99.0)
            .unwrap();

        sim.set_cpu_limit(ServiceId(2), 0.5); // leaf capacity 125 rps << 300 rps
        sim.run_for(SimDur::from_secs(60));
        let throttled = sim.harvest();
        let parent_after = throttled.services[1].tier_latency[0]
            .percentile(99.0)
            .unwrap();
        let root_after = throttled.services[0].tier_latency[0]
            .percentile(99.0)
            .unwrap();
        assert!(
            parent_after > parent_before * 5.0,
            "backpressure: parent p99 {parent_before} -> {parent_after}"
        );
        // The gradient diminishes up the chain during the anomaly window.
        assert!(
            root_after < parent_after,
            "root {root_after} vs parent {parent_after}"
        );
    }

    #[test]
    fn mq_chain_no_backpressure_on_throttle() {
        let mut sim = Simulation::new(chain(EdgeKind::Mq, 3, 0.004, 4.0), SimConfig::default(), 13);
        sim.set_rate(ClassId(0), RateFn::Constant(300.0));
        sim.run_for(SimDur::from_secs(30));
        let baseline = sim.harvest();
        let parent_before = baseline.services[1].tier_latency[0]
            .percentile(99.0)
            .unwrap();

        sim.set_cpu_limit(ServiceId(2), 0.5);
        sim.run_for(SimDur::from_secs(30));
        let throttled = sim.harvest();
        let parent_after = throttled.services[1].tier_latency[0]
            .percentile(99.0)
            .unwrap();
        // The MQ producer tier is unaffected by the slow consumer.
        assert!(
            parent_after < parent_before * 2.0,
            "no backpressure expected: {parent_before} -> {parent_after}"
        );
        // But the throttled tier itself suffers and its queue grows.
        assert!(
            throttled.services[2].mq_depth > 1000,
            "depth {}",
            throttled.services[2].mq_depth
        );
    }

    #[test]
    fn priorities_protect_high_class() {
        // Two classes share one overloaded service; the high-priority class
        // must see far lower latency.
        let mk_class = |name: &str, prio: Priority| ClassCfg {
            name: name.into(),
            priority: prio,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
        };
        let topo = Topology::new(
            vec![ServiceCfg::new("svc", 1.0).with_workers(1)],
            vec![
                mk_class("high", Priority::HIGH),
                mk_class("low", Priority::LOW),
            ],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 14);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.set_rate(ClassId(1), RateFn::Constant(200.0)); // total rho = 1.2: overload
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        let p50_high = snap.e2e_latency[0].percentile(50.0).unwrap();
        let p50_low = snap.e2e_latency[1].percentile(50.0).unwrap();
        assert!(
            p50_low > 10.0 * p50_high,
            "high {p50_high} vs low {p50_low}"
        );
    }

    #[test]
    fn event_driven_parent_responds_before_child() {
        let topo = Topology::new(
            vec![ServiceCfg::new("front", 4.0), ServiceCfg::new("back", 4.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
                    EdgeKind::EventDrivenRpc,
                    CallNode::leaf(ServiceId(1), WorkDist::Constant(0.050)),
                ),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 15);
        sim.set_rate(ClassId(0), RateFn::Constant(50.0));
        sim.run_for(SimDur::from_secs(20));
        let snap = sim.harvest();
        // Parent's own response doesn't include the 50 ms child work.
        let parent_p50 = snap.services[0].response_latency[0]
            .percentile(50.0)
            .unwrap();
        assert!(parent_p50 < 0.010, "parent responds fast: {parent_p50}");
        // But e2e completion includes the child.
        let e2e_p50 = snap.e2e_latency[0].percentile(50.0).unwrap();
        assert!(e2e_p50 > 0.050, "e2e includes child: {e2e_p50}");
    }

    #[test]
    fn work_scale_shrinks_latency() {
        let mut sim = single_service(2.0, 0.010);
        sim.set_rate(ClassId(0), RateFn::Constant(50.0));
        sim.run_for(SimDur::from_secs(20));
        let before = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        sim.set_work_scale(ServiceId(0), 0.2);
        sim.run_for(SimDur::from_secs(20));
        let after = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn total_allocated_cores_tracks_scaling() {
        let mut sim = single_service(2.0, 0.001);
        assert!((sim.total_allocated_cores() - 2.0).abs() < 1e-12);
        sim.set_replicas(ServiceId(0), 3);
        assert!((sim.total_allocated_cores() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = single_service(2.0, 0.002);
            sim.set_rate(ClassId(0), RateFn::Constant(200.0));
            sim.run_for(SimDur::from_secs(20));
            let snap = sim.harvest();
            (
                snap.injections[0],
                snap.completions[0],
                snap.e2e_latency[0].percentile(99.0).unwrap(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut sim = single_service(2.0, 0.002);
        sim.set_rate(ClassId(0), RateFn::Constant(0.0));
        sim.run_for(SimDur::from_secs(10));
        let snap = sim.harvest();
        assert_eq!(snap.injections[0], 0);
    }

    #[test]
    fn manual_injection() {
        let mut sim = single_service(2.0, 0.002);
        for _ in 0..10 {
            sim.inject(ClassId(0));
        }
        sim.run_for(SimDur::from_secs(5));
        let snap = sim.harvest();
        assert_eq!(snap.injections[0], 10);
        assert_eq!(snap.completions[0], 10);
        assert_eq!(sim.in_flight(), 0);
    }
}

#[cfg(test)]
mod span_tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, WorkDist};

    fn two_tier() -> Topology {
        Topology::new(
            vec![ServiceCfg::new("a", 2.0), ServiceCfg::new("b", 2.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
                    EdgeKind::NestedRpc,
                    CallNode::leaf(ServiceId(1), WorkDist::Constant(0.002)),
                ),
            }],
        )
        .unwrap()
    }

    #[test]
    fn traces_record_hops() {
        let mut sim = Simulation::new(two_tier(), SimConfig::default(), 1);
        sim.enable_tracing(1000, 1.0);
        for _ in 0..20 {
            sim.inject(ClassId(0));
        }
        sim.run_for(SimDur::from_secs(5));
        let traces = sim.take_traces();
        assert_eq!(traces.len(), 20, "every request sampled at rate 1.0");
        for t in &traces {
            assert_eq!(t.spans.len(), 2, "two hops per request");
            let root = t.root();
            let child = &t.spans[1];
            assert_eq!(root.parent, None);
            assert_eq!(child.parent, Some((0, EdgeKind::NestedRpc)));
            assert_eq!(root.service, ServiceId(0));
            assert_eq!(child.service, ServiceId(1));
            // Timestamp ordering within each span.
            for s in &t.spans {
                assert!(s.enqueue_at >= t.arrival);
                assert!(s.start_at >= s.enqueue_at);
                assert!(s.respond_at >= s.start_at);
                assert!(s.tier_latency() <= s.latency());
            }
            // The root's recorded downstream wait covers the child's span.
            assert!(root.nested_wait > SimDur::ZERO, "root waits on the child");
            assert_eq!(root.waits.len(), 1);
            let (wb, we) = root.waits[0];
            assert!(wb <= child.enqueue_at, "wait opened before child arrived");
            assert!(we >= child.respond_at, "wait closed after child responded");
            let eps = 1e-12;
            assert!(
                (root.downstream_wait().as_secs_f64() - root.nested_wait.as_secs_f64()).abs() < eps,
                "wait intervals sum to the engine's nested_wait"
            );
            assert!(t.end >= root.respond_at);
        }
        // Drained: second take is empty.
        assert!(sim.take_traces().is_empty());
    }

    #[test]
    fn trace_ring_bounded() {
        let topo = Topology::new(
            vec![ServiceCfg::new("a", 4.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.0005)),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 2);
        sim.enable_tracing(16, 1.0);
        for _ in 0..100 {
            sim.inject(ClassId(0));
        }
        sim.run_for(SimDur::from_secs(5));
        let traces = sim.take_traces();
        assert_eq!(traces.len(), 16, "ring keeps the newest 16");
        assert_eq!(sim.tracer().expect("enabled").evicted(), 84);
    }

    #[test]
    fn sampling_thins_traces() {
        let mut sim = Simulation::new(two_tier(), SimConfig::default(), 5);
        sim.enable_tracing(100_000, 0.1);
        sim.set_rate(ClassId(0), RateFn::Constant(200.0));
        sim.run_for(SimDur::from_secs(60));
        let snap = sim.harvest();
        let traces = sim.take_traces();
        let rate = traces.len() as f64 / snap.completions[0] as f64;
        assert!(
            (0.05..0.2).contains(&rate),
            "sampled {} of {} completions",
            traces.len(),
            snap.completions[0]
        );
    }

    #[test]
    fn tracing_does_not_perturb_simulation() {
        let run = |trace: bool| {
            let mut sim = Simulation::new(two_tier(), SimConfig::default(), 9);
            if trace {
                sim.enable_tracing(4096, 0.5);
            }
            sim.set_rate(ClassId(0), RateFn::Constant(150.0));
            sim.run_for(SimDur::from_secs(30));
            let snap = sim.harvest();
            (
                snap.completions[0],
                snap.e2e_latency[0].percentile(99.0).unwrap(),
            )
        };
        assert_eq!(run(false), run(true), "sampler must not touch the sim RNG");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let topo = Topology::new(
            vec![ServiceCfg::new("a", 2.0)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 3);
        sim.inject(ClassId(0));
        sim.run_for(SimDur::from_secs(1));
        assert!(sim.take_traces().is_empty());
        assert!(sim.tracer().is_none());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, WorkDist};

    fn one_service() -> Topology {
        Topology::new(
            vec![ServiceCfg::new("svc", 4.0)],
            vec![ClassCfg {
                name: "c".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
            }],
        )
        .unwrap()
    }

    #[test]
    fn trace_replay_injects_exactly() {
        let mut sim = Simulation::new(one_service(), SimConfig::default(), 1);
        let times: Vec<SimTime> = (0..50)
            .map(|i| SimTime::from_secs_f64(0.1 * i as f64))
            .collect();
        sim.schedule_arrivals(ClassId(0), &times);
        sim.run_for(SimDur::from_secs(10));
        let snap = sim.harvest();
        assert_eq!(snap.injections[0], 50);
        assert_eq!(snap.completions[0], 50);
    }

    #[test]
    fn trace_and_poisson_compose() {
        let mut sim = Simulation::new(one_service(), SimConfig::default(), 2);
        sim.set_rate(ClassId(0), RateFn::Constant(10.0));
        sim.schedule_arrivals(ClassId(0), &[SimTime::from_secs_f64(1.0)]);
        sim.run_for(SimDur::from_secs(30));
        let snap = sim.harvest();
        assert!(snap.injections[0] > 200, "poisson + trace arrivals");
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn trace_rejects_past_arrivals() {
        let mut sim = Simulation::new(one_service(), SimConfig::default(), 3);
        sim.run_for(SimDur::from_secs(5));
        sim.schedule_arrivals(ClassId(0), &[SimTime::from_secs_f64(1.0)]);
    }

    /// A batch with one bad time schedules nothing, not the prefix before it.
    #[test]
    fn rejected_trace_leaves_the_queue_untouched() {
        let mut sim = Simulation::new(one_service(), SimConfig::default(), 3);
        sim.run_for(SimDur::from_secs(5));
        sim.schedule_arrivals(ClassId(0), &[SimTime::from_secs_f64(20.0)]);
        let times = [6.0, 7.0, 1.0, 8.0].map(SimTime::from_secs_f64);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_arrivals(ClassId(0), &times)
        }));
        assert!(rejected.is_err());
        assert_eq!(sim.event_heap_depth(), 1);
        sim.run_for(SimDur::from_secs(10));
        assert_eq!(sim.harvest().injections[0], 0);
    }

    /// Every `EventKind` variant, sampled, lands in exactly one of the six
    /// phases, and the phases' counts add up to the events dispatched.
    #[test]
    fn profiler_classifies_every_event_kind_exactly_once() {
        let mut sim = Simulation::new(one_service(), SimConfig::default(), 5);
        sim.enable_profiler(1);
        let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        // One source firing, armed by hand as `arm_source` would; at the
        // default rate of 0 it neither injects nor re-arms.
        let seq = sim.schedule(at(1), EventKind::SourceNext { class: 0 });
        sim.sources[0].pending = Some((at(1), seq));
        sim.schedule_arrivals(ClassId(0), &[at(3)]);
        // No plane is installed: these four dispatch as no-ops.
        sim.schedule(at(4), EventKind::ChaosStart { fault: 0 });
        sim.schedule(at(5), EventKind::ChaosEnd { fault: 0 });
        sim.schedule(at(6), EventKind::MemCheck);
        sim.schedule(at(7), EventKind::MemRestart { service: 0 });
        sim.run_for(SimDur::from_secs(1));

        let report = sim.profiler().expect("enabled").report();
        // The trace arrival's request: root hop arrives, one PS completion.
        let want = [
            (SimPhase::SourceNext, 1),
            (SimPhase::NodeArrive, 1),
            (SimPhase::PsCheck, 1),
            (SimPhase::TraceArrival, 1),
            (SimPhase::Chaos, 2),
            (SimPhase::Mem, 2),
        ];
        let got: Vec<(SimPhase, u64)> = report.phases.iter().map(|s| (s.phase, s.count)).collect();
        assert_eq!(got, want);
        assert_eq!(report.events_sampled, 8);
        assert_eq!(report.events_seen, 8);
        assert_eq!(sim.events_processed(), 8);
        assert_eq!(sim.events_stale(), 0);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::chaos::{Fault, FaultKind, FaultPhase, FaultPlan};
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, WorkDist};

    fn two_tier(edge: EdgeKind, replicas: usize) -> Simulation {
        let topo = Topology::new(
            vec![
                ServiceCfg::new("front", 2.0).with_replicas(replicas),
                ServiceCfg::new("back", 2.0).with_replicas(replicas),
            ],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.002 })
                    .with_child(
                        edge,
                        CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.002 }),
                    ),
            }],
        )
        .unwrap();
        Simulation::new(topo, SimConfig::default(), 21)
    }

    fn window(from_s: f64, to_s: f64, kind: FaultKind) -> Fault {
        Fault {
            at: SimTime::from_secs_f64(from_s),
            until: SimTime::from_secs_f64(to_s),
            kind,
        }
    }

    /// Everything downstream artifacts are built from, for bit-identity.
    fn digest(sim: &mut Simulation) -> String {
        let snap = sim.harvest();
        format!(
            "events {} inj {:?} comp {:?} p99 {:?} util {:?}",
            sim.events_processed(),
            snap.injections,
            snap.completions,
            snap.e2e_latency[0].percentile(99.0),
            snap.services
                .iter()
                .map(|s| s.cpu_utilization)
                .collect::<Vec<_>>(),
        )
    }

    /// The zero-cost guarantee: no plan, an empty plan, and a plan whose
    /// windows all lie past the horizon produce bit-identical output.
    #[test]
    fn chaos_disabled_is_bit_identical() {
        let run = |plan: Option<FaultPlan>| {
            let mut sim = two_tier(EdgeKind::Mq, 2);
            if let Some(p) = plan {
                sim.install_faults(&p, 99);
            }
            sim.set_rate(ClassId(0), RateFn::Constant(200.0));
            sim.run_for(SimDur::from_secs(20));
            digest(&mut sim)
        };
        let baseline = run(None);
        assert_eq!(baseline, run(Some(FaultPlan::new())), "empty plan");
        let mut late = FaultPlan::new();
        late.push(window(
            1000.0,
            1001.0,
            FaultKind::Slowdown {
                service: 1,
                factor: 8.0,
            },
        ));
        assert_eq!(baseline, run(Some(late)), "plan past the horizon");
    }

    #[test]
    fn slowdown_inflates_latency_then_recovers() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(
            20.0,
            40.0,
            FaultKind::Slowdown {
                service: 1,
                factor: 6.0,
            },
        ));
        sim.install_faults(&plan, 1);
        sim.set_rate(ClassId(0), RateFn::Constant(150.0));
        sim.run_for(SimDur::from_secs(20));
        let before = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        sim.run_for(SimDur::from_secs(20));
        let during = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        sim.run_for(SimDur::from_secs(20));
        let after = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        assert!(during > before * 2.0, "before {before}, during {during}");
        assert!(after < during * 0.5, "during {during}, after {after}");
    }

    #[test]
    fn replica_crash_restores_replicas() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 4);
        let mut plan = FaultPlan::new();
        plan.push(window(
            5.0,
            10.0,
            FaultKind::ReplicaCrash {
                service: 1,
                count: 2,
            },
        ));
        sim.install_faults(&plan, 2);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(1)), 2, "2 of 4 crashed");
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(1)), 4, "restarted at window end");
        let snap = sim.harvest();
        assert!(
            snap.completions[0] as f64 > snap.injections[0] as f64 * 0.95,
            "drain preserves requests: {}/{}",
            snap.completions[0],
            snap.injections[0]
        );
    }

    #[test]
    fn crash_always_keeps_one_replica() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(
            5.0,
            10.0,
            FaultKind::ReplicaCrash {
                service: 0,
                count: 99,
            },
        ));
        sim.install_faults(&plan, 3);
        sim.set_rate(ClassId(0), RateFn::Constant(50.0));
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(0)), 1, "all but one crash");
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(0)), 2);
    }

    #[test]
    fn node_failure_kills_colocated_replicas() {
        // Slot r of service s is on node (s + r) % 8: with 9 replicas,
        // service 0 has slots {0, 8} on node 0 and service 1 has slot 7.
        let mut sim = two_tier(EdgeKind::NestedRpc, 9);
        let mut plan = FaultPlan::new();
        plan.push(window(5.0, 10.0, FaultKind::NodeFailure { node: 0 }));
        sim.install_faults(&plan, 4);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(0)), 7, "slots 0 and 8 lost");
        assert_eq!(sim.replicas(ServiceId(1)), 8, "slot 7 lost");
        sim.run_for(SimDur::from_secs(7));
        assert_eq!(sim.replicas(ServiceId(0)), 9);
        assert_eq!(sim.replicas(ServiceId(1)), 9);
    }

    #[test]
    fn mq_stall_builds_backlog_then_drains() {
        let mut sim = two_tier(EdgeKind::Mq, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(10.0, 20.0, FaultKind::MqStall { service: 1 }));
        sim.install_faults(&plan, 5);
        sim.set_rate(ClassId(0), RateFn::Constant(200.0));
        sim.run_for(SimDur::from_secs(20));
        let stalled = sim.harvest();
        // ~10 s of 200 rps piled up behind the stalled broker.
        assert!(
            stalled.services[1].mq_depth_max > 1500,
            "backlog {}",
            stalled.services[1].mq_depth_max
        );
        sim.run_for(SimDur::from_secs(20));
        let drained = sim.harvest();
        assert!(
            drained.services[1].mq_depth < 10,
            "backlog drains on recovery"
        );
        let inj: u64 = stalled.injections[0] + drained.injections[0];
        let comp: u64 = stalled.completions[0] + drained.completions[0];
        assert!(
            comp as f64 > inj as f64 * 0.97,
            "no message lost: {comp}/{inj}"
        );
    }

    #[test]
    fn rpc_fault_delays_but_conserves() {
        let run = |faulty: bool| {
            let mut sim = two_tier(EdgeKind::NestedRpc, 2);
            if faulty {
                let mut plan = FaultPlan::new();
                plan.push(window(
                    5.0,
                    25.0,
                    FaultKind::RpcFault {
                        service: 1,
                        extra_delay: SimDur::from_millis(20),
                        drop_prob: 0.5,
                        timeout: SimDur::from_millis(50),
                        max_retries: 3,
                    },
                ));
                sim.install_faults(&plan, 6);
            }
            sim.set_rate(ClassId(0), RateFn::Constant(100.0));
            sim.run_for(SimDur::from_secs(25));
            sim.run_for(SimDur::from_secs(10)); // drain past the window
            let snap = sim.harvest();
            assert_eq!(sim.in_flight(), 0, "final attempt always delivers");
            (
                snap.completions[0],
                snap.injections[0],
                snap.e2e_latency[0].percentile(50.0).unwrap(),
            )
        };
        let (_, _, p50_clean) = run(false);
        let (comp, inj, _) = run(true);
        assert!(comp as f64 > inj as f64 * 0.97, "{comp}/{inj}");
        // During-window latency: re-run and look at the fault window only.
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(
            0.0,
            20.0,
            FaultKind::RpcFault {
                service: 1,
                extra_delay: SimDur::from_millis(20),
                drop_prob: 0.5,
                timeout: SimDur::from_millis(50),
                max_retries: 3,
            },
        ));
        sim.install_faults(&plan, 6);
        sim.set_rate(ClassId(0), RateFn::Constant(100.0));
        sim.run_for(SimDur::from_secs(20));
        let p50_faulty = sim.harvest().e2e_latency[0].percentile(50.0).unwrap();
        assert!(
            p50_faulty > p50_clean + 0.015,
            "timeouts visible: {p50_clean} -> {p50_faulty}"
        );
    }

    #[test]
    fn fault_events_surface_in_harvest() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(
            2.0,
            4.0,
            FaultKind::Slowdown {
                service: 1,
                factor: 3.0,
            },
        ));
        sim.install_faults(&plan, 7);
        sim.set_rate(ClassId(0), RateFn::Constant(50.0));
        sim.run_for(SimDur::from_secs(10));
        let snap = sim.harvest();
        assert_eq!(snap.faults.len(), 2);
        assert_eq!(snap.faults[0].phase, FaultPhase::Injected);
        assert_eq!(snap.faults[0].kind, "slowdown");
        assert_eq!(snap.faults[0].service, Some(1));
        assert_eq!(snap.faults[1].phase, FaultPhase::Recovered);
        assert_eq!(snap.faults[0].label(), "slowdown injected (svc 1, x3)");
        // Drained: the next harvest reports nothing.
        sim.run_for(SimDur::from_secs(1));
        assert!(sim.harvest().faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_rejected() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        sim.install_faults(&FaultPlan::new(), 1);
        sim.install_faults(&FaultPlan::new(), 2);
    }

    #[test]
    #[should_panic(expected = "targets service")]
    fn out_of_range_service_rejected() {
        let mut sim = two_tier(EdgeKind::NestedRpc, 2);
        let mut plan = FaultPlan::new();
        plan.push(window(1.0, 2.0, FaultKind::MqStall { service: 9 }));
        sim.install_faults(&plan, 1);
    }
}

#[cfg(test)]
mod eager_cancel_tests {
    use super::*;
    use crate::chaos::{Fault, FaultKind, FaultPlan};
    use crate::memory::{MemEventKind, MemPlan, MemProfile, NodeMemCfg};
    use crate::topology::{CallNode, ClassCfg, Priority, ResourceSpec, ServiceCfg, WorkDist};

    /// Panics unless the queued `PsCheck`s and `SourceNext`s are exactly
    /// the pending ones the replicas and sources name: at most one per
    /// replica slot and one per class, none for an emptied slot, none
    /// superseded.
    fn assert_only_pending_events_queued(sim: &Simulation) {
        let (mut checks, mut sources) = (Vec::new(), Vec::new());
        for e in sim.events.entries() {
            match e.kind {
                EventKind::PsCheck { service, replica } => {
                    checks.push((service as usize, replica as usize, e.at, e.seq));
                }
                EventKind::SourceNext { class } => sources.push((class as usize, e.at, e.seq)),
                _ => {}
            }
        }
        checks.sort_unstable();
        sources.sort_unstable();
        let mut pending_checks = Vec::new();
        for (s, svc) in sim.services.iter().enumerate() {
            for (r, rep) in svc.replicas.iter().enumerate() {
                if let Some(rep) = rep.as_ref().filter(|rep| rep.has_check) {
                    pending_checks.push((s, r, rep.check_at, rep.check_seq));
                }
            }
        }
        let pending_sources: Vec<_> = sim
            .sources
            .iter()
            .enumerate()
            .filter_map(|(c, src)| src.pending.map(|(at, seq)| (c, at, seq)))
            .collect();
        assert_eq!(checks, pending_checks, "at {}", sim.now);
        assert_eq!(sources, pending_sources, "at {}", sim.now);
    }

    /// Every path that supersedes a pending event — admissions, scaling,
    /// a crash, a slowdown, a CPU-limit change, an OOM-kill and its
    /// restart, re-armed sources, a trace batch — in one run, the queue
    /// checked after every window. The drain path's own check (a slot is
    /// never emptied with a check queued) is a `debug_assert!` that is
    /// live here.
    #[test]
    fn queue_holds_only_pending_checks_and_sources_under_churn() {
        let leaky = ResourceSpec::burstable(1.0, 2.0, 64 << 20, 128 << 20);
        let topo = Topology::new(
            vec![
                ServiceCfg::new("front", 2.0).with_replicas(3),
                ServiceCfg::new("back", 2.0)
                    .with_replicas(3)
                    .with_resources(leaky),
            ],
            vec![
                ClassCfg {
                    name: "chain".into(),
                    priority: Priority::HIGH,
                    root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 })
                        .with_child(
                            EdgeKind::NestedRpc,
                            CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.004 }),
                        ),
                },
                ClassCfg {
                    name: "leaf".into(),
                    priority: Priority::LOW,
                    root: CallNode::leaf(ServiceId(1), WorkDist::Exponential { mean: 0.002 }),
                },
            ],
        )
        .unwrap();
        let mut sim = Simulation::new(topo, SimConfig::default(), 23);
        let secs = SimTime::from_secs_f64;
        let mut plan = FaultPlan::new();
        let (service, count) = (0, 1);
        plan.push(Fault {
            at: secs(4.5),
            until: secs(9.5),
            kind: FaultKind::ReplicaCrash { service, count },
        });
        plan.push(Fault {
            at: secs(10.5),
            until: secs(14.5),
            kind: FaultKind::Slowdown {
                service,
                factor: 3.0,
            },
        });
        sim.install_faults(&plan, 2);
        // A 16 MiB/s leak from 32 MiB crosses the 128 MiB limit every ~6 s.
        let leak = MemProfile::new(32 << 20, 1 << 20).with_growth((16 << 20) as f64);
        sim.install_memory_plane(
            &MemPlan::new(vec![NodeMemCfg::new(4 << 30); 2]).with_profile(1, leak),
        );
        sim.set_rate(ClassId(0), RateFn::Constant(400.0));
        sim.set_rate(ClassId(1), RateFn::Constant(300.0));

        let (mut oom_kills, mut restarts, mut faults) = (0, 0, 0);
        for window in 0..30u64 {
            match window {
                3 => sim.set_replicas(ServiceId(0), 5),
                6 => {
                    let batch: Vec<SimTime> =
                        (0..200).map(|i| secs(6.0 + i as f64 * 0.01)).collect();
                    sim.schedule_arrivals(ClassId(1), &batch);
                }
                8 => sim.set_rate(
                    ClassId(0),
                    RateFn::Diurnal {
                        base: 100.0,
                        peak: 700.0,
                        period: SimDur::from_secs(10),
                    },
                ),
                12 => sim.set_replicas(ServiceId(0), 2),
                16 => sim.set_cpu_limit(ServiceId(1), 1.0),
                20 => sim.set_rate(ClassId(1), RateFn::Constant(0.0)),
                24 => sim.set_rate(ClassId(1), RateFn::Constant(500.0)),
                _ => {}
            }
            assert_only_pending_events_queued(&sim);
            sim.run_for(SimDur::from_secs(1));
            assert_only_pending_events_queued(&sim);
            let snap = sim.harvest();
            faults += snap.faults.len();
            let mem = snap.mem.expect("plane installed");
            oom_kills += mem.oom_kills;
            let restarted = |e: &&MemEvent| e.kind == MemEventKind::Restart;
            restarts += mem.events.iter().filter(restarted).count();
        }
        assert!(oom_kills >= 2 && restarts >= 1, "{oom_kills} / {restarts}");
        assert_eq!(faults, 4, "both windows opened and closed");
        assert!(sim.events_processed() > 50_000);
        assert_eq!(sim.events_stale(), 0);
    }
}
