//! The optional planes: arming tracing and the phase profiler, and the
//! chaos plane's events. Each is `None` until installed and leaves output
//! bit-identical when off.

use crate::chaos::{
    node_of, ChaosState, FaultEvent, FaultKind, FaultPhase, FaultPlan, DEFAULT_NODES,
};
use crate::profiler::PhaseProfiler;
use crate::time::SimDur;
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
    pub(super) fn chaos_slow(&self, s: usize) -> f64 {
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
}
