//! The request path: a hop's arrival and replica choice, the worker and
//! daemon pools, processor sharing in virtual time, and the hop state
//! machine through to the request's completion.

use std::collections::VecDeque;

use crate::arena::{Phase, NO_DAEMON};
use crate::evq::EventQueue;
use crate::ps::{ps_rate, VtPs};
use crate::time::{ceil_nanos, SimDur, SimTime};
use crate::topology::{CallMode, ClassId, EdgeKind, ServiceId, NO_NESTED_PARENT};

use super::{EventKind, PrioQueue, Replica, Simulation, Token, MIN_WORK, WORK_EPS};

impl Replica {
    pub(super) fn new(
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
        Some(now + SimDur::from_nanos(ceil_nanos(dt_s * 1e9)))
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

impl Simulation {
    /// True iff `token`'s request is still in flight: the arena bumps a
    /// slot's generation exactly when the request completes, so the
    /// generation match alone decides liveness.
    #[inline]
    pub(super) fn token_alive(&self, token: Token) -> bool {
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
    pub(super) fn node_arrive(&mut self, token: Token) {
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

    pub(super) fn pick_replica(&mut self, s: usize) -> usize {
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
    pub(super) fn dispatch_shared(&mut self, s: usize) {
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
    pub(super) fn try_start(&mut self, s: usize, r: usize) {
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
    pub(super) fn ps_advance(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.chaos_slow(s);
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
    pub(super) fn ps_resync(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.chaos_slow(s);
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
        let slow = self.chaos_slow(s);
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
    pub(super) fn ps_sync_all(&mut self, s: usize) {
        for r in 0..self.services[s].replicas.len() {
            self.ps_advance(s, r);
        }
    }

    /// Recomputes next completions for every replica of `s`. Call
    /// immediately after a service-wide rate change.
    pub(super) fn ps_resync_all(&mut self, s: usize) {
        for r in 0..self.services[s].replicas.len() {
            self.ps_resync(s, r);
        }
    }

    /// Handles a popped `PsCheck`: by construction the replica's pending
    /// one, so the slot is occupied and nothing else is queued for it.
    pub(super) fn ps_check(&mut self, s: usize, r: usize) {
        let now = self.now;
        let slow = self.chaos_slow(s);
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

    pub(super) fn maybe_remove_drained(&mut self, s: usize, r: usize) {
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
}
