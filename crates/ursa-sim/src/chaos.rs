//! Engine-level fault-injection primitives: the chaos plane.
//!
//! A [`FaultPlan`] is a concrete, fully-timed list of fault windows that the
//! engine schedules as ordinary discrete events (see
//! [`Simulation::install_faults`](crate::engine::Simulation::install_faults)).
//! Five fault kinds are supported:
//!
//! * **Replica crash** — a service abruptly loses replicas; they restart
//!   when the window ends. Modeled as fail-stop with connection draining:
//!   the crashed replica leaves the load balancer immediately and its
//!   queued requests are re-dispatched to surviving replicas, while work
//!   already executing finishes (killing it would lose requests, breaking
//!   the injections == completions conservation every experiment relies
//!   on). At least one replica per service always survives — total
//!   blackout of a service is out of scope.
//! * **Node failure** — a whole machine dies, taking every co-located
//!   replica down at once (correlated capacity loss across services).
//!   Placement is synthetic and deterministic ([`node_of`]): replica slot
//!   `r` of service `s` lives on node `(s + r) % DEFAULT_NODES`. Replicas
//!   of one service are homogeneous, so capacity loss is modeled by count,
//!   reusing the same drain machinery as a crash.
//! * **Slowdown** — one service's replicas execute at `1/factor` speed
//!   (noisy neighbor / interference): the processor-sharing progress
//!   rate is divided by the factor for the window, stretching both new
//!   and already-in-flight work. Composes multiplicatively with
//!   overlapping slowdowns; the user-facing
//!   [`set_work_scale`](crate::engine::Simulation::set_work_scale) hook
//!   instead scales sampled demands at dispatch.
//! * **RPC fault** — messages toward a callee service suffer a latency
//!   spike and probabilistic loss with per-edge timeout and bounded
//!   retry-with-backoff: each attempt is dropped with `drop_prob` (at most
//!   `max_retries` retries); a timed-out attempt costs the timeout plus an
//!   exponential backoff doubling per attempt. The final attempt always
//!   delivers, so no request is ever lost. The penalty is computed
//!   analytically at send time and folded into the delivery delay — one
//!   event per message, no retry events.
//! * **MQ stall** — the broker feeding a service's shared queue stalls:
//!   consumers stop being offered messages and a backlog builds; on
//!   recovery the backlog drains through the normal consumer-group path.
//!
//! **Determinism and zero cost.** The chaos RNG is seeded independently of
//! the simulation RNG and is only consulted while a fault is actually
//! active. With no plan installed — or an empty plan — the engine draws no
//! extra random numbers and schedules no extra events, so output is
//! bit-identical to a chaos-free run (enforced by
//! `chaos_disabled_is_bit_identical` in the engine tests and the plane
//! matrix in `tests/plane_bitident.rs`).

use crate::time::{SimDur, SimTime};
use ursa_stats::dist::{Distribution, Exponential};
use ursa_stats::rng::Rng;

/// Synthetic cluster size for node-failure placement: the paper's
/// testbed has 8 machines (§VII-A).
pub const DEFAULT_NODES: usize = 8;

/// The synthetic placement every plane shares: replica slot `slot` of
/// service `service` lives on node `(service + slot) % nodes`.
#[inline]
pub fn node_of(service: usize, slot: usize, nodes: usize) -> usize {
    (service + slot) % nodes
}

/// What a fault does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash up to `count` replicas of `service` (capped so at least one
    /// live replica survives); they restart when the window ends.
    ReplicaCrash {
        /// The service losing replicas.
        service: usize,
        /// Replicas to kill (use a large value for "all but one").
        count: usize,
    },
    /// Fail node `node`: every service loses the replicas placed on it
    /// (see [`node_of`]), each capped to keep one live replica. Capacity
    /// returns at window end.
    NodeFailure {
        /// The failing node index (`< DEFAULT_NODES`).
        node: usize,
    },
    /// Divide the processor-sharing progress rate of every `service`
    /// replica by `factor` (> 1 slows). Because the window rescales the
    /// rate rather than the sampled demands, it stretches work already
    /// in flight too — a job caught mid-execution finishes later, just
    /// as a real interference burst would hit it.
    Slowdown {
        /// The service slowed down.
        service: usize,
        /// Execution-speed divisor (must be strictly positive).
        factor: f64,
    },
    /// Degrade RPC/MQ message delivery toward `service`.
    RpcFault {
        /// The callee service whose inbound messages degrade.
        service: usize,
        /// Latency spike added to every message in the window.
        extra_delay: SimDur,
        /// Per-attempt drop probability in `[0, 1)`.
        drop_prob: f64,
        /// Sender-side timeout detecting a dropped attempt.
        timeout: SimDur,
        /// Maximum retries; the attempt after the last retry always
        /// delivers.
        max_retries: u32,
    },
    /// Stall the broker feeding `service`'s shared MQ queue: no messages
    /// are offered to consumers until the window ends, then the backlog
    /// drains.
    MqStall {
        /// The consumer service whose queue stalls.
        service: usize,
    },
}

impl FaultKind {
    /// Short kebab-case label for tables and annotations.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ReplicaCrash { .. } => "replica-crash",
            FaultKind::NodeFailure { .. } => "node-failure",
            FaultKind::Slowdown { .. } => "slowdown",
            FaultKind::RpcFault { .. } => "rpc-fault",
            FaultKind::MqStall { .. } => "mq-stall",
        }
    }

    /// The directly-targeted service, when the fault has one (node
    /// failures hit many services and return `None`).
    pub fn service(&self) -> Option<usize> {
        match *self {
            FaultKind::ReplicaCrash { service, .. }
            | FaultKind::Slowdown { service, .. }
            | FaultKind::RpcFault { service, .. }
            | FaultKind::MqStall { service } => Some(service),
            FaultKind::NodeFailure { .. } => None,
        }
    }
}

/// One timed fault window: `kind` is active on `[at, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Injection time.
    pub at: SimTime,
    /// Recovery time (must be strictly after `at`).
    pub until: SimTime,
    /// What happens in between.
    pub kind: FaultKind,
}

/// A concrete, fully-timed fault schedule, ready to install on a
/// [`Simulation`](crate::engine::Simulation): [`push`](Self::push) one-off
/// windows, [`push_renewal`](Self::push_renewal) a stochastic failure
/// process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The timed fault windows, in schedule order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (installing it leaves the simulation bit-identical to
    /// a chaos-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fault window after validating it.
    ///
    /// # Panics
    ///
    /// Panics on an empty window, a non-positive slowdown factor, a drop
    /// probability outside `[0, 1)`, or a node index outside the cluster.
    pub fn push(&mut self, fault: Fault) {
        assert!(
            fault.until > fault.at,
            "fault window must be non-empty ({} >= {})",
            fault.at,
            fault.until
        );
        match fault.kind {
            FaultKind::Slowdown { factor, .. } => {
                assert!(
                    factor > 0.0 && factor.is_finite(),
                    "slowdown factor must be positive and finite"
                );
            }
            FaultKind::RpcFault { drop_prob, .. } => {
                assert!(
                    (0.0..1.0).contains(&drop_prob),
                    "drop probability must be in [0, 1)"
                );
            }
            FaultKind::NodeFailure { node } => {
                assert!(
                    node < DEFAULT_NODES,
                    "node {node} >= cluster size {DEFAULT_NODES}"
                );
            }
            FaultKind::ReplicaCrash { .. } | FaultKind::MqStall { .. } => {}
        }
        self.faults.push(fault);
    }

    /// Appends a renewal process of `kind` windows on `[0, horizon)`:
    /// exponential up-time with mean `mtbf`, then a window of exponential
    /// length with mean `mttr` (at least 1 ms, the last one clipped to the
    /// horizon), repeating — a Poisson failure process with exponential
    /// repair. The windows are sorted and never overlap.
    ///
    /// Pure in its arguments: the process draws from its own stream,
    /// `seed ^ 0x9E37_79B9_7F4A_7C15` (the SplitMix64 increment), so a
    /// caller may use `seed` for other draws without correlating them.
    pub fn push_renewal(
        &mut self,
        kind: FaultKind,
        mtbf: SimDur,
        mttr: SimDur,
        horizon: SimDur,
        seed: u64,
    ) {
        let mut rng = Rng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15);
        let up = Exponential::with_mean(mtbf.as_secs_f64());
        let down = Exponential::with_mean(mttr.as_secs_f64());
        let end = SimTime::ZERO + horizon;
        let mut t = SimTime::ZERO;
        loop {
            t += SimDur::from_secs_f64(up.sample(&mut rng));
            if t >= end {
                return;
            }
            let outage = SimDur::from_secs_f64(down.sample(&mut rng)).max(SimDur::from_millis(1));
            let until = (t + outage).min(end);
            self.push(Fault { at: t, until, kind });
            t = until;
        }
    }

    /// Number of fault windows.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Earliest injection time across all windows.
    pub fn first_at(&self) -> Option<SimTime> {
        self.faults.iter().map(|f| f.at).min()
    }

    /// Latest recovery time across all windows.
    pub fn last_until(&self) -> Option<SimTime> {
        self.faults.iter().map(|f| f.until).max()
    }

    /// Structural digest of the plan (FNV-1a over every window's timing
    /// and parameters, platform-stable). Run manifests embed it so
    /// `ursa-bench diff` can tell whether two chaos runs injected the same
    /// fault schedule.
    pub fn digest(&self) -> u64 {
        let mut h = crate::topology::Fnv::new();
        // The cluster size is constant but still hashed, so plan digests
        // in manifests written when it was configurable still match.
        h.write_usize(DEFAULT_NODES);
        h.write_usize(self.faults.len());
        for f in &self.faults {
            h.write_usize(f.at.as_nanos() as usize);
            h.write_usize(f.until.as_nanos() as usize);
            match f.kind {
                FaultKind::ReplicaCrash { service, count } => {
                    h.write_usize(1);
                    h.write_usize(service);
                    h.write_usize(count);
                }
                FaultKind::NodeFailure { node } => {
                    h.write_usize(2);
                    h.write_usize(node);
                }
                FaultKind::Slowdown { service, factor } => {
                    h.write_usize(3);
                    h.write_usize(service);
                    h.write_f64(factor);
                }
                FaultKind::RpcFault {
                    service,
                    extra_delay,
                    drop_prob,
                    timeout,
                    max_retries,
                } => {
                    h.write_usize(4);
                    h.write_usize(service);
                    h.write_usize(extra_delay.as_nanos() as usize);
                    h.write_f64(drop_prob);
                    h.write_usize(timeout.as_nanos() as usize);
                    h.write_usize(max_retries as usize);
                }
                FaultKind::MqStall { service } => {
                    h.write_usize(5);
                    h.write_usize(service);
                }
            }
        }
        h.finish()
    }
}

/// Which edge of a fault window a [`FaultEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The fault was injected.
    Injected,
    /// The fault cleared (capacity restored / degradation ended).
    Recovered,
}

/// One fault-plane occurrence, surfaced through
/// [`MetricsSnapshot::faults`](crate::telemetry::MetricsSnapshot::faults)
/// so control planes, dashboards, and decision logs can attribute what
/// they observed to what was injected.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the edge occurred.
    pub at: SimTime,
    /// Index of the fault window in the installed plan.
    pub fault: u32,
    /// Injection or recovery.
    pub phase: FaultPhase,
    /// The fault kind's label (e.g. `"slowdown"`).
    pub kind: &'static str,
    /// Directly-targeted service, when the fault has one.
    pub service: Option<usize>,
    /// Human-readable details (e.g. replicas killed per service).
    pub detail: String,
}

impl FaultEvent {
    /// One-line annotation label, e.g. `"slowdown injected (svc 3, x6)"`.
    pub fn label(&self) -> String {
        let phase = match self.phase {
            FaultPhase::Injected => "injected",
            FaultPhase::Recovered => "recovered",
        };
        if self.detail.is_empty() {
            format!("{} {phase}", self.kind)
        } else {
            format!("{} {phase} ({})", self.kind, self.detail)
        }
    }
}

/// Live fault-plane state owned by the engine while a plan is installed.
/// Boxed behind an `Option` on the simulation so the disabled path costs
/// one predictable branch per hook, exactly like the tracer.
#[derive(Debug)]
pub(crate) struct ChaosState {
    /// Chaos RNG — independent of the simulation RNG, consulted only while
    /// an RPC fault is active.
    rng: Rng,
    /// The installed fault windows (index = event payload).
    pub(crate) faults: Vec<Fault>,
    /// Per-service stack of active slowdown factors.
    slow_active: Vec<Vec<f64>>,
    /// Cached per-service slowdown product (1.0 when no fault is active).
    pub(crate) slow: Vec<f64>,
    /// Per-callee stack of active RPC-fault indices (last wins).
    rpc_active: Vec<Vec<u32>>,
    /// Per-service MQ stall depth (stalled while > 0).
    pub(crate) mq_stalled: Vec<u32>,
    /// Replicas killed per fault window, as `(service, count)`, restored
    /// on recovery.
    pub(crate) killed: Vec<Vec<(usize, usize)>>,
    /// Fault-plane occurrences since the last harvest.
    pub(crate) events: Vec<FaultEvent>,
}

impl ChaosState {
    pub(crate) fn new(plan: &FaultPlan, num_services: usize, seed: u64) -> Self {
        let n_faults = plan.faults.len();
        ChaosState {
            rng: Rng::seed_from(seed),
            faults: plan.faults.clone(),
            slow_active: vec![Vec::new(); num_services],
            slow: vec![1.0; num_services],
            rpc_active: vec![Vec::new(); num_services],
            mq_stalled: vec![0; num_services],
            killed: vec![Vec::new(); n_faults],
            events: Vec::new(),
        }
    }

    /// Activates a slowdown factor on a service.
    pub(crate) fn slow_on(&mut self, s: usize, factor: f64) {
        self.slow_active[s].push(factor);
        self.slow[s] = self.slow_active[s].iter().product();
    }

    /// Deactivates one occurrence of a slowdown factor.
    pub(crate) fn slow_off(&mut self, s: usize, factor: f64) {
        if let Some(i) = self.slow_active[s].iter().position(|&f| f == factor) {
            self.slow_active[s].remove(i);
        }
        self.slow[s] = self.slow_active[s].iter().product();
    }

    /// Activates an RPC fault toward a callee service.
    pub(crate) fn rpc_on(&mut self, s: usize, fault: u32) {
        self.rpc_active[s].push(fault);
    }

    /// Deactivates an RPC fault toward a callee service.
    pub(crate) fn rpc_off(&mut self, s: usize, fault: u32) {
        self.rpc_active[s].retain(|&f| f != fault);
    }

    /// Extra delivery delay for one message toward `callee`: the active
    /// RPC fault's latency spike plus the analytic timeout/retry penalty.
    /// Each attempt drops with `drop_prob` (chaos RNG), capped at
    /// `max_retries`; a timed-out attempt costs the timeout plus a backoff
    /// that doubles per attempt (`timeout << attempt`). Zero — and no RNG
    /// draw — when no fault is active on the callee.
    pub(crate) fn rpc_penalty(&mut self, callee: usize) -> SimDur {
        let Some(&fid) = self.rpc_active[callee].last() else {
            return SimDur::ZERO;
        };
        let FaultKind::RpcFault {
            extra_delay,
            drop_prob,
            timeout,
            max_retries,
            ..
        } = self.faults[fid as usize].kind
        else {
            return SimDur::ZERO;
        };
        let mut penalty = extra_delay.as_secs_f64();
        let timeout_s = timeout.as_secs_f64();
        let mut drops = 0u32;
        while drops < max_retries && self.rng.chance(drop_prob) {
            drops += 1;
        }
        for attempt in 0..drops {
            penalty += timeout_s * (1.0 + f64::from(1u32 << attempt.min(20)));
        }
        SimDur::from_secs_f64(penalty)
    }

    /// Records a fault-plane occurrence for the next harvest.
    pub(crate) fn record(&mut self, event: FaultEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validates_windows() {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            at: SimTime::from_secs_f64(1.0),
            until: SimTime::from_secs_f64(2.0),
            kind: FaultKind::MqStall { service: 0 },
        });
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.first_at(), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(plan.last_until(), Some(SimTime::from_secs_f64(2.0)));
    }

    #[test]
    fn plan_digest_is_stable_and_parameter_sensitive() {
        let mk = |factor: f64| {
            let mut plan = FaultPlan::new();
            plan.push(Fault {
                at: SimTime::from_secs_f64(1.0),
                until: SimTime::from_secs_f64(2.0),
                kind: FaultKind::Slowdown { service: 1, factor },
            });
            plan
        };
        assert_eq!(mk(2.0).digest(), mk(2.0).digest());
        assert_ne!(mk(2.0).digest(), mk(3.0).digest());
        assert_ne!(mk(2.0).digest(), FaultPlan::new().digest());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn plan_rejects_empty_window() {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            at: SimTime::from_secs_f64(2.0),
            until: SimTime::from_secs_f64(2.0),
            kind: FaultKind::MqStall { service: 0 },
        });
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn plan_rejects_certain_drop() {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            at: SimTime::ZERO,
            until: SimTime::from_secs_f64(1.0),
            kind: FaultKind::RpcFault {
                service: 0,
                extra_delay: SimDur::ZERO,
                drop_prob: 1.0,
                timeout: SimDur::from_millis(50),
                max_retries: 3,
            },
        });
    }

    fn renewal(mtbf: u64, mttr: u64, horizon: SimDur, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let kind = FaultKind::ReplicaCrash {
            service: 0,
            count: 1,
        };
        plan.push_renewal(
            kind,
            SimDur::from_secs(mtbf),
            SimDur::from_secs(mttr),
            horizon,
            seed,
        );
        plan
    }

    #[test]
    fn renewal_is_deterministic_per_seed() {
        let h = SimDur::from_mins(30);
        assert_eq!(renewal(30, 5, h, 42), renewal(30, 5, h, 42));
        assert_ne!(renewal(30, 5, h, 42), renewal(30, 5, h, 43), "seed matters");
    }

    #[test]
    fn renewal_windows_are_sorted_disjoint_and_within_the_horizon() {
        let h = SimDur::from_mins(30);
        let plan = renewal(10, 8, h, 3);
        assert!(!plan.is_empty());
        for w in plan.faults.windows(2) {
            assert!(
                w[0].until <= w[1].at,
                "renewal process cannot overlap itself"
            );
        }
        assert!(plan.last_until().unwrap() <= SimTime::ZERO + h);
    }

    #[test]
    fn renewal_rate_matches_mtbf_plus_mttr() {
        // 4 h horizon, MTBF 60 s + MTTR 5 s => ~220 cycles expected.
        let plan = renewal(60, 5, SimDur::from_secs(4 * 3600), 11);
        assert!((150..300).contains(&plan.len()), "windows {}", plan.len());
    }

    #[test]
    fn slowdown_factors_compose() {
        let plan = FaultPlan::new();
        let mut st = ChaosState::new(&plan, 2, 1);
        st.slow_on(0, 2.0);
        st.slow_on(0, 3.0);
        assert_eq!(st.slow[0], 6.0);
        assert_eq!(st.slow[1], 1.0);
        st.slow_off(0, 2.0);
        assert_eq!(st.slow[0], 3.0);
        st.slow_off(0, 3.0);
        assert_eq!(st.slow[0], 1.0);
    }

    #[test]
    fn rpc_penalty_draws_nothing_when_inactive() {
        let plan = FaultPlan::new();
        let mut st = ChaosState::new(&plan, 1, 42);
        assert_eq!(st.rpc_penalty(0), SimDur::ZERO);
    }

    #[test]
    fn rpc_penalty_bounded_by_retries() {
        let mut plan = FaultPlan::new();
        let timeout = SimDur::from_millis(10);
        plan.push(Fault {
            at: SimTime::ZERO,
            until: SimTime::from_secs_f64(1.0),
            kind: FaultKind::RpcFault {
                service: 0,
                extra_delay: SimDur::from_millis(5),
                drop_prob: 0.99,
                timeout,
                max_retries: 2,
            },
        });
        let mut st = ChaosState::new(&plan, 1, 7);
        st.rpc_on(0, 0);
        // With p=0.99 nearly every sample hits the retry cap: spike (5 ms)
        // + attempt 0 (10 + 10) + attempt 1 (10 + 20) = 55 ms.
        let max = SimDur::from_millis(5 + (10 + 10) + (10 + 20));
        for _ in 0..100 {
            let p = st.rpc_penalty(0);
            assert!(p >= SimDur::from_millis(5) && p <= max, "penalty {p}");
        }
    }
}
