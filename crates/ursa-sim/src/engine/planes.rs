//! The optional planes: arming tracing, the phase profiler and the
//! flight recorder, and the chaos and memory planes' events. Each is
//! `None` until installed and leaves output bit-identical when off.

use crate::chaos::{
    node_of, ChaosState, Fault, FaultEvent, FaultKind, FaultPhase, FaultPlan, DEFAULT_NODES,
};
use crate::evq::QEntry;
use crate::memory::{
    select_victim, MemEvent, MemEventKind, MemPlan, MemState, VictimCandidate, CHECK_INTERVAL,
    INTERFERENCE_FACTOR, INTERFERENCE_THRESHOLD, PRESSURE_THRESHOLD, RESTART_DELAY,
};
use crate::profiler::PhaseProfiler;
use crate::recorder::{FlightEntry, FlightEventKind, FlightRecorder};
use crate::time::{SimDur, SimTime};
use crate::topology::ServiceId;
use crate::trace::{Trace, Tracer};

use super::{EventKind, Simulation, Token};

impl Simulation {
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
    /// nodes, an empty node, an out-of-range service).
    pub fn install_memory_plane(&mut self, plan: &MemPlan) {
        assert!(self.mem.is_none(), "memory plane already installed");
        let mut state = MemState::new(plan, &self.topology);
        state.last_check = self.now;
        let active = !plan.profiles.is_empty();
        let first = self.now + CHECK_INTERVAL;
        self.mem = Some(Box::new(state));
        if active {
            self.schedule(first, EventKind::MemCheck);
        }
    }

    /// True when a memory plane is installed.
    pub fn memory_plane_installed(&self) -> bool {
        self.mem.is_some()
    }

    /// Maps a popped event to its flight-recorder entry and records it.
    /// Recording happens *before* dispatch so the ring reads causally:
    /// first the event, then the transitions it provoked.
    pub(super) fn record_event(&mut self, entry: &QEntry<EventKind>) {
        let kind = match entry.kind {
            EventKind::SourceNext { class, .. } => FlightEventKind::SourceNext { class },
            EventKind::NodeArrive { token } => FlightEventKind::NodeArrive {
                slot: token.slot,
                node: token.node,
            },
            EventKind::PsCheck { service, replica } => {
                FlightEventKind::PsCheck { service, replica }
            }
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
    pub(super) fn record_flight(&mut self, at: SimTime, seq: u64, kind: FlightEventKind) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.push(FlightEntry { at, seq, kind });
        }
    }

    // ---- Fault plane ------------------------------------------------------

    /// Injects fault window `i`: actuate its kind and record the event.
    pub(super) fn chaos_start(&mut self, i: usize) {
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
                for s in 0..self.services.len() {
                    let colocated = self.services[s]
                        .live
                        .iter()
                        .filter(|&&r| node_of(s, r as usize, DEFAULT_NODES) == node)
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
    pub(super) fn chaos_end(&mut self, i: usize) {
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
    pub(super) fn chaos_mq_stalled(&self, s: usize) -> bool {
        matches!(&self.chaos, Some(c) if c.mq_stalled[s] > 0)
    }

    /// Extra delivery delay for a message toward its callee under an
    /// active RPC fault (zero, with no RNG draw, otherwise).
    pub(super) fn chaos_rpc_penalty(&mut self, token: Token) -> SimDur {
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
    pub(super) fn slow_of(&self, s: usize) -> f64 {
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
    pub(super) fn mem_check(&mut self) {
        let Some(m) = self.mem.as_deref() else {
            return;
        };
        let now = self.now;
        let nodes = m.nodes.len();
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
                        now + RESTART_DELAY,
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
            let cap = self.mem_ref().nodes[node] as f64;
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
                if usage_total as f64 <= PRESSURE_THRESHOLD * cap {
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
                    now + RESTART_DELAY,
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
        let node_hot: Vec<bool> = (0..nodes)
            .map(|n| self.mem_ref().node_util[n] > INTERFERENCE_THRESHOLD)
            .collect();
        for s in 0..ns {
            let hot = self.services[s]
                .live
                .iter()
                .any(|&r| node_hot[self.mem_ref().node_of(s, r as usize)]);
            let want = if hot { INTERFERENCE_FACTOR } else { 1.0 };
            if self.mem_ref().interf[s] != want {
                self.ps_sync_all(s);
                self.mem_mut().interf[s] = want;
                self.ps_resync_all(s);
            }
        }

        self.schedule(now + CHECK_INTERVAL, EventKind::MemCheck);
    }

    /// Restores one replica of `service` after its OOM/eviction restart
    /// delay — on top of whatever the manager did meanwhile, exactly like
    /// chaos recovery (the manager scales back in if over-provisioned).
    pub(super) fn mem_restart(&mut self, s: usize) {
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
}
