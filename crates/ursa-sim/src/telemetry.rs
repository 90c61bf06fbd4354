//! Telemetry: the simulator's analog of the paper's Prometheus deployment.
//!
//! The tracing framework in Ursa (§V, component 1) collects, per harvest
//! interval: request counts and latency distributions per service and per
//! request class, end-to-end latency distributions per class, and CPU
//! usage. [`Telemetry`] accumulates those inside the simulator and
//! [`MetricsSnapshot`] is the immutable view handed to resource managers on
//! every control tick.

use crate::time::{SimDur, SimTime};
use crate::topology::{ClassId, EdgeKind, ServiceId, Topology};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use ursa_stats::quantile::{percentile_of_sorted, QuantileWindow};

/// Capacity of per-(service, class) latency windows.
const SERVICE_WINDOW_CAP: usize = 16_384;
/// Capacity of per-class end-to-end latency windows.
const E2E_WINDOW_CAP: usize = 65_536;

/// Latency statistics for one stream of samples within a harvest window.
///
/// # Window semantics
///
/// The underlying telemetry windows are bounded rings: when more samples
/// arrive in one harvest interval than the retention capacity, the oldest
/// are evicted, and [`evicted`](Self::evicted) says how many. All
/// distribution statistics ([`percentile`](Self::percentile),
/// [`mean`](Self::mean), [`fraction_above`](Self::fraction_above),
/// [`samples`](Self::samples), [`len`](Self::len)) describe only the most
/// recent retained samples. [`total_count`](Self::total_count) is *not*
/// per window: it counts every sample the stream has observed since the
/// simulation started, so the number observed during this window is the
/// difference from the previous snapshot's value, which is `len() +
/// evicted()`. At evaluation scale the capacities are sized so eviction is
/// rare.
///
/// # Cost and sharing
///
/// A harvest moves the retained samples out of the ring once, in arrival
/// order, into one buffer behind an `Arc`; clones share it. The first
/// order-statistic query (`percentile`, `mean`, `fraction_above`,
/// `samples`) on any clone sorts that buffer in place, once, for all of
/// them. `len`, `is_empty`, `total_count` and `evicted` never sort. A
/// hop that never waits on a nested RPC has a tier latency equal to its
/// response latency bit for bit, so its service's tier and response series
/// for that class are one buffer (see [`Telemetry::new`]).
#[derive(Debug, Clone, Default)]
pub struct LatencySeries {
    /// The retained samples; `None` when there are none.
    buf: Option<Arc<SeriesBuf>>,
    len: usize,
    count: u64,
    evicted: u64,
}

/// One stream's retained samples, shared by every clone of its series.
#[derive(Debug)]
struct SeriesBuf {
    /// Arrival order, until the first order query takes the buffer out.
    raw: Mutex<Vec<f64>>,
    /// The same buffer, sorted in place by the first order query.
    sorted: OnceLock<Vec<f64>>,
}

impl LatencySeries {
    /// Moves the window's retained samples into a series, emptying it.
    fn drain_from(w: &mut QuantileWindow) -> Self {
        let evicted = w.evicted();
        let raw = w.drain();
        LatencySeries {
            len: raw.len(),
            buf: (!raw.is_empty()).then(|| {
                Arc::new(SeriesBuf {
                    raw: Mutex::new(raw),
                    sorted: OnceLock::new(),
                })
            }),
            count: w.total_count(),
            evicted,
        }
    }

    /// Number of samples *retained* in the window (at most the retention
    /// capacity; see the type-level window-semantics note).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window captured no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total samples this stream has *observed* since the simulation
    /// started — cumulative across harvests and including evicted samples;
    /// see the type-level window-semantics note.
    pub fn total_count(&self) -> u64 {
        self.count
    }

    /// Samples the stream observed during this harvest window but did not
    /// retain: the ring was full and evicted them, oldest first.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The `p`-th percentile (0–100) in seconds over the *retained*
    /// samples, or `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        (!self.is_empty()).then(|| percentile_of_sorted(self.samples(), p))
    }

    /// Mean latency in seconds over the *retained* samples (evicted
    /// samples are excluded — this is not `sum / total_count`), or `None`
    /// if empty. Summed in ascending order: float summation order is part
    /// of the committed goldens.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.samples().iter().sum::<f64>() / self.len() as f64)
    }

    /// Fraction of *retained* samples strictly above `threshold` seconds
    /// (denominator is [`len`](Self::len), not
    /// [`total_count`](Self::total_count)), or `None` if empty. A binary
    /// search of the sorted view, which the anomaly detector asks for only
    /// when it raises a latency anomaly.
    pub fn fraction_above(&self, threshold: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let idx = self.samples().partition_point(|&x| x <= threshold);
        Some((self.len() - idx) as f64 / self.len() as f64)
    }

    /// The retained samples in ascending order (sorted in place by the
    /// first call on any clone).
    pub fn samples(&self) -> &[f64] {
        let Some(buf) = &self.buf else {
            return &[];
        };
        buf.sorted.get_or_init(|| {
            let mut samples =
                std::mem::take(&mut *buf.raw.lock().unwrap_or_else(PoisonError::into_inner));
            // On NaN-free, sign-positive samples `total_cmp` orders exactly
            // as `partial_cmp` does and equal samples are bit-equal, so an
            // unstable sort yields the same bits as a stable one.
            debug_assert!(
                samples.iter().all(|x| !x.is_nan() && x.is_sign_positive()),
                "latency samples must be non-negative and not NaN"
            );
            samples.sort_unstable_by(f64::total_cmp);
            samples
        })
    }
}

/// Per-service metrics for one harvest window.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Service name (mirrors the topology).
    pub name: String,
    /// Live replica count at harvest time (excludes draining replicas).
    pub replicas: usize,
    /// CPU cores per replica at harvest time.
    pub cores_per_replica: f64,
    /// Mean CPU utilization over the window in `[0, 1]`
    /// (busy core-seconds / capacity core-seconds).
    pub cpu_utilization: f64,
    /// Requests that *arrived* at this service during the window, per class.
    pub arrivals: Vec<u64>,
    /// Per-class response-time distribution **excluding** time blocked on
    /// nested downstream responses — the paper's per-tier response time
    /// (S0−R0 minus downstream wait), the quantity Algorithm 1 profiles.
    pub tier_latency: Vec<LatencySeries>,
    /// Per-class full response-time distribution (enqueue → response),
    /// including downstream waits; what an upstream proxy observes.
    pub response_latency: Vec<LatencySeries>,
    /// Length of the service's shared (MQ) queue at harvest time.
    pub mq_depth: usize,
    /// Maximum shared-queue depth observed at any instant during the window
    /// (catches transient spikes the point-in-time sample misses).
    pub mq_depth_max: usize,
    /// Time-weighted mean shared-queue depth over the window
    /// (∫ depth · dt / window).
    pub mq_depth_mean: f64,
}

impl ServiceMetrics {
    /// Total arrivals across classes.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals.iter().sum()
    }

    /// Arrival rate in requests/second over the window.
    pub fn arrival_rps(&self, window: SimDur) -> f64 {
        self.total_arrivals() as f64 / window.as_secs_f64().max(1e-9)
    }
}

/// Immutable metrics view for one harvest window.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Harvest timestamp.
    pub at: SimTime,
    /// Length of the window this snapshot covers.
    pub window: SimDur,
    /// Per-service metrics, indexed by [`ServiceId`].
    pub services: Vec<ServiceMetrics>,
    /// Per-class end-to-end latency distributions, indexed by [`ClassId`]
    /// (a request completes when every hop of its call tree has responded).
    pub e2e_latency: Vec<LatencySeries>,
    /// Per-class completed-request counts during the window.
    pub completions: Vec<u64>,
    /// Per-class injected-request counts during the window.
    pub injections: Vec<u64>,
}

impl MetricsSnapshot {
    /// Total CPU cores allocated across services (replicas × cores).
    pub fn total_allocated_cores(&self) -> f64 {
        self.services
            .iter()
            .map(|s| s.replicas as f64 * s.cores_per_replica)
            .sum()
    }

    /// Per-class offered load in requests/second.
    pub fn class_rps(&self, class: ClassId) -> f64 {
        self.injections[class.0] as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Accumulates metrics between harvests.
#[derive(Debug)]
pub struct Telemetry {
    num_classes: usize,
    /// Flattened `[service * num_classes + class]` windows; `None` for
    /// (service, class) pairs that never interact (saves memory on large
    /// topologies). Flat layout keeps the per-event record path to a
    /// single bounds check and indirection.
    tier_windows: Vec<Option<QuantileWindow>>,
    /// Like `tier_windows`, but only for pairs where some hop waits on a
    /// nested RPC; every other pair's response latency is its tier latency.
    response_windows: Vec<Option<QuantileWindow>>,
    arrivals: Vec<u64>,
    e2e_windows: Vec<QuantileWindow>,
    completions: Vec<u64>,
    injections: Vec<u64>,
    busy_core_secs: Vec<f64>,
    capacity_core_secs: Vec<f64>,
    /// MQ-depth accumulators: depth after the last transition, when it last
    /// changed, the ∫ depth · dt area so far this window, and the window max.
    mq_last_depth: Vec<usize>,
    mq_last_change: Vec<SimTime>,
    mq_area: Vec<f64>,
    mq_max: Vec<usize>,
    last_harvest: SimTime,
}

impl Telemetry {
    /// Creates telemetry storage shaped for the given topology: tier
    /// windows are only allocated for (service, class) pairs that the
    /// class's call tree actually touches, and response windows only for
    /// the pairs where one of those hops is the parent of a nested-RPC
    /// edge. A hop that waits on no nested RPC responds with a tier
    /// latency of `(full − 0).max(0) = full`, so one window serves both
    /// and the harvest hands out one buffer twice.
    pub fn new(topology: &Topology) -> Self {
        let ns = topology.num_services();
        let nc = topology.num_classes();
        let mut tier_windows: Vec<Option<QuantileWindow>> = vec![None; ns * nc];
        let mut response_windows: Vec<Option<QuantileWindow>> = vec![None; ns * nc];
        for (c, class) in topology.flat_classes().iter().enumerate() {
            for node in &class.nodes {
                let idx = node.service * nc + c;
                tier_windows[idx].get_or_insert_with(|| QuantileWindow::new(SERVICE_WINDOW_CAP));
                if node.children.iter().any(|&(_, e)| e == EdgeKind::NestedRpc) {
                    response_windows[idx]
                        .get_or_insert_with(|| QuantileWindow::new(SERVICE_WINDOW_CAP));
                }
            }
        }
        Telemetry {
            num_classes: nc,
            tier_windows,
            response_windows,
            arrivals: vec![0; ns * nc],
            e2e_windows: (0..nc)
                .map(|_| QuantileWindow::new(E2E_WINDOW_CAP))
                .collect(),
            completions: vec![0; nc],
            injections: vec![0; nc],
            busy_core_secs: vec![0.0; ns],
            capacity_core_secs: vec![0.0; ns],
            mq_last_depth: vec![0; ns],
            mq_last_change: vec![SimTime::ZERO; ns],
            mq_area: vec![0.0; ns],
            mq_max: vec![0; ns],
            last_harvest: SimTime::ZERO,
        }
    }

    /// Records a request arriving at a service.
    #[inline]
    pub fn record_arrival(&mut self, service: ServiceId, class: ClassId) {
        self.arrivals[service.0 * self.num_classes + class.0] += 1;
    }

    /// Records an injected (root) request.
    pub fn record_injection(&mut self, class: ClassId) {
        self.injections[class.0] += 1;
    }

    /// Records a hop's response: `tier` excludes nested downstream waits,
    /// `full` is enqueue→response. On a pair where no hop waits on a
    /// nested RPC the two are equal and only the tier window records.
    #[inline]
    pub fn record_response(&mut self, service: ServiceId, class: ClassId, tier: f64, full: f64) {
        let idx = service.0 * self.num_classes + class.0;
        if let Some(w) = &mut self.tier_windows[idx] {
            w.record(tier);
        }
        match &mut self.response_windows[idx] {
            Some(w) => w.record(full),
            None => debug_assert_eq!(
                tier.to_bits(),
                full.to_bits(),
                "a hop that waits on no nested RPC has tier == full"
            ),
        }
    }

    /// Records an end-to-end completion.
    pub fn record_e2e(&mut self, class: ClassId, latency: f64) {
        self.e2e_windows[class.0].record(latency);
        self.completions[class.0] += 1;
    }

    /// Records a shared-queue (MQ) depth transition: the queue of `service`
    /// has held `mq_last_depth` items since the previous call and holds
    /// `depth` from `now` on. Drives the per-window max and time-weighted
    /// mean exposed on [`ServiceMetrics`].
    pub fn record_mq_depth(&mut self, service: ServiceId, now: SimTime, depth: usize) {
        let s = service.0;
        let dt = (now - self.mq_last_change[s]).as_secs_f64();
        self.mq_area[s] += self.mq_last_depth[s] as f64 * dt;
        self.mq_last_change[s] = now;
        self.mq_last_depth[s] = depth;
        self.mq_max[s] = self.mq_max[s].max(depth);
    }

    /// Adds CPU accounting for a service over an elapsed span.
    pub fn record_cpu(&mut self, service: ServiceId, busy_core_secs: f64, capacity_core_secs: f64) {
        self.busy_core_secs[service.0] += busy_core_secs;
        self.capacity_core_secs[service.0] += capacity_core_secs;
    }

    /// Produces a snapshot of the window since the last harvest and resets
    /// all accumulators. Replica counts, core settings, and MQ depths are
    /// supplied by the engine. Each latency window is copied out once, in
    /// arrival order; nothing is sorted here (see [`LatencySeries`]). A
    /// pair without a response window hands out its tier series as its
    /// response series, sharing the buffer.
    pub fn harvest(
        &mut self,
        now: SimTime,
        names: &[String],
        replicas: &[usize],
        cores: &[f64],
        mq_depths: &[usize],
    ) -> MetricsSnapshot {
        let window = now - self.last_harvest;
        let window_secs = window.as_secs_f64();
        // Close out the MQ-depth integrals at the window boundary: the
        // standing depth has persisted since its last transition.
        for s in 0..self.mq_area.len() {
            let dt = (now - self.mq_last_change[s]).as_secs_f64();
            self.mq_area[s] += self.mq_last_depth[s] as f64 * dt;
            self.mq_last_change[s] = now;
        }
        let nc = self.num_classes;
        let services = (0..self.busy_core_secs.len())
            .map(|s| {
                let pairs = s * nc..(s + 1) * nc;
                let tier_latency: Vec<LatencySeries> = self.tier_windows[pairs.clone()]
                    .iter_mut()
                    .map(|w| {
                        w.as_mut()
                            .map(LatencySeries::drain_from)
                            .unwrap_or_default()
                    })
                    .collect();
                let response_latency = self.response_windows[pairs]
                    .iter_mut()
                    .zip(&tier_latency)
                    .map(|(w, tier)| match w {
                        Some(w) => LatencySeries::drain_from(w),
                        None => tier.clone(),
                    })
                    .collect();
                let cap = self.capacity_core_secs[s];
                ServiceMetrics {
                    name: names[s].clone(),
                    replicas: replicas[s],
                    cores_per_replica: cores[s],
                    cpu_utilization: if cap > 0.0 {
                        (self.busy_core_secs[s] / cap).min(1.0)
                    } else {
                        0.0
                    },
                    arrivals: self.arrivals[s * nc..(s + 1) * nc].to_vec(),
                    tier_latency,
                    response_latency,
                    mq_depth: mq_depths[s],
                    mq_depth_max: self.mq_max[s],
                    mq_depth_mean: if window_secs > 0.0 {
                        self.mq_area[s] / window_secs
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let e2e_latency = self
            .e2e_windows
            .iter_mut()
            .map(LatencySeries::drain_from)
            .collect();
        let snapshot = MetricsSnapshot {
            at: now,
            window,
            services,
            e2e_latency,
            completions: self.completions.clone(),
            injections: self.injections.clone(),
        };
        // Reset for the next window (the latency windows were drained above).
        self.arrivals.fill(0);
        for s in 0..self.busy_core_secs.len() {
            self.busy_core_secs[s] = 0.0;
            self.capacity_core_secs[s] = 0.0;
            self.mq_area[s] = 0.0;
            // A queue that enters the next window non-empty has already
            // "observed" its standing depth.
            self.mq_max[s] = self.mq_last_depth[s];
        }
        self.completions.fill(0);
        self.injections.fill(0);
        self.last_harvest = now;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, EdgeKind, Priority, ServiceCfg, WorkDist};
    use proptest::prelude::*;

    fn topo() -> Topology {
        let services = vec![ServiceCfg::new("a", 1.0), ServiceCfg::new("b", 1.0)];
        let classes = vec![ClassCfg {
            name: "only-a".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }];
        Topology::new(services, classes).unwrap()
    }

    /// `a` calls `b` over `edge`; `b` is a leaf.
    fn two_tier(edge: EdgeKind) -> Topology {
        let services = vec![ServiceCfg::new("a", 1.0), ServiceCfg::new("b", 1.0)];
        let root = CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)).with_child(
            edge,
            CallNode::leaf(ServiceId(1), WorkDist::Constant(0.001)),
        );
        let classes = vec![ClassCfg {
            name: "a-then-b".into(),
            priority: Priority::HIGH,
            root,
        }];
        Topology::new(services, classes).unwrap()
    }

    fn harvest_at(t: &mut Telemetry, secs: f64) -> MetricsSnapshot {
        let names = vec!["a".to_string(), "b".to_string()];
        t.harvest(
            SimTime::from_secs_f64(secs),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        )
    }

    #[test]
    fn windows_allocated_sparsely() {
        let t = Telemetry::new(&topo());
        assert!(t.tier_windows[0].is_some());
        assert!(
            t.tier_windows[t.num_classes].is_none(),
            "class never touches service b"
        );
        assert!(
            t.response_windows.iter().all(Option::is_none),
            "a leaf never waits, so its response window is its tier window"
        );
    }

    /// Only the parent of a nested-RPC edge gets a response window of its
    /// own; every other touched pair hands out its tier series twice, one
    /// buffer behind both.
    #[test]
    fn response_windows_only_where_a_hop_waits() {
        for (edge, parent_waits) in [
            (EdgeKind::NestedRpc, true),
            (EdgeKind::EventDrivenRpc, false),
            (EdgeKind::Mq, false),
        ] {
            let mut t = Telemetry::new(&two_tier(edge));
            let has_response = t.response_windows.iter().map(Option::is_some);
            assert_eq!(
                has_response.collect::<Vec<_>>(),
                [parent_waits, false],
                "{edge:?}"
            );
            let full = if parent_waits { 0.012 } else { 0.010 };
            t.record_response(ServiceId(0), ClassId(0), 0.010, full);
            t.record_response(ServiceId(1), ClassId(0), 0.004, 0.004);
            let snap = harvest_at(&mut t, 60.0);
            let [a, b] = [0, 1].map(|s| &snap.services[s]);
            let shares = |m: &ServiceMetrics| {
                let (tier, response) = (&m.tier_latency[0], &m.response_latency[0]);
                tier.buf
                    .as_ref()
                    .zip(response.buf.as_ref())
                    .map(|(t, r)| Arc::ptr_eq(t, r))
            };
            assert_eq!(shares(a), Some(!parent_waits), "{edge:?}");
            assert_eq!(shares(b), Some(true), "{edge:?}");
            assert_eq!(a.response_latency[0].samples(), [full], "{edge:?}");
            assert_eq!(b.response_latency[0].samples(), [0.004], "{edge:?}");
        }
    }

    /// A hop without a response window must respond with `tier == full`;
    /// debug builds check it on every record.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tier == full")]
    fn a_shared_pair_rejects_differing_tier_and_full() {
        let mut t = Telemetry::new(&topo());
        t.record_response(ServiceId(0), ClassId(0), 0.010, 0.012);
    }

    /// A window overfilled by `k` samples in one harvest reports `k`
    /// evicted; the next harvest starts counting afresh.
    #[test]
    fn evictions_are_counted_per_harvest() {
        let k = 5;
        let mut t = Telemetry::new(&topo());
        let record = |t: &mut Telemetry, n: usize| {
            for i in 0..n {
                let x = i as f64 * 1e-6;
                t.record_response(ServiceId(0), ClassId(0), x, x);
            }
        };
        record(&mut t, SERVICE_WINDOW_CAP + k);
        let tier = |snap: &MetricsSnapshot| {
            let series = &snap.services[0].tier_latency[0];
            (series.len(), series.evicted(), series.total_count())
        };
        let snap = harvest_at(&mut t, 60.0);
        let observed = (SERVICE_WINDOW_CAP + k) as u64;
        assert_eq!(tier(&snap), (SERVICE_WINDOW_CAP, k as u64, observed));
        assert_eq!(
            snap.services[0].response_latency[0].evicted(),
            k as u64,
            "the shared response series reports the same evictions"
        );
        assert_eq!(
            snap.services[0].tier_latency[0].samples()[0],
            k as f64 * 1e-6,
            "the oldest k went"
        );
        record(&mut t, 3);
        assert_eq!(tier(&harvest_at(&mut t, 120.0)), (3, 0, observed + 3));
        record(&mut t, 2 * SERVICE_WINDOW_CAP + k);
        let twice = (2 * SERVICE_WINDOW_CAP + k) as u64;
        assert_eq!(
            tier(&harvest_at(&mut t, 180.0)),
            (
                SERVICE_WINDOW_CAP,
                twice - SERVICE_WINDOW_CAP as u64,
                observed + 3 + twice
            )
        );
        assert_eq!(harvest_at(&mut t, 240.0).e2e_latency[0].evicted(), 0);
    }

    #[test]
    fn harvest_resets() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        t.record_arrival(ServiceId(0), ClassId(0));
        t.record_response(ServiceId(0), ClassId(0), 0.012, 0.012);
        t.record_e2e(ClassId(0), 0.012);
        t.record_injection(ClassId(0));
        t.record_cpu(ServiceId(0), 30.0, 60.0);
        let names = vec!["a".to_string(), "b".to_string()];
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap.services[0].arrivals[0], 1);
        assert!((snap.services[0].cpu_utilization - 0.5).abs() < 1e-12);
        assert_eq!(snap.completions[0], 1);
        assert_eq!(snap.injections[0], 1);
        assert_eq!(snap.e2e_latency[0].total_count(), 1);
        assert!((snap.window.as_secs_f64() - 60.0).abs() < 1e-9);

        let snap2 = t.harvest(
            SimTime::from_secs_f64(120.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap2.services[0].arrivals[0], 0);
        assert_eq!(snap2.completions[0], 0);
        assert!(snap2.e2e_latency[0].is_empty());
        assert_eq!(snap2.services[0].cpu_utilization, 0.0);
    }

    #[test]
    fn mq_depth_accumulators_track_and_reset() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        let names = vec!["a".to_string(), "b".to_string()];
        // Depth 4 during [10, 40), depth 1 during [40, 60):
        // area = 4*30 + 1*20 = 140 depth-seconds over a 60 s window.
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(10.0), 4);
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(40.0), 1);
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[1, 0],
        );
        assert_eq!(snap.services[0].mq_depth_max, 4);
        assert!((snap.services[0].mq_depth_mean - 140.0 / 60.0).abs() < 1e-9);
        assert_eq!(snap.services[1].mq_depth_max, 0);
        assert_eq!(snap.services[1].mq_depth_mean, 0.0);

        // Harvest resets the window accumulators; the standing depth of 1
        // carries into the next window as both its max-so-far and its mean.
        let snap2 = t.harvest(
            SimTime::from_secs_f64(120.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[1, 0],
        );
        assert_eq!(
            snap2.services[0].mq_depth_max, 1,
            "max reset to standing depth"
        );
        assert!(
            (snap2.services[0].mq_depth_mean - 1.0).abs() < 1e-9,
            "standing depth persists across the whole second window"
        );

        // Drain the queue; a further window reports an empty queue again.
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(121.0), 0);
        let snap3 = t.harvest(
            SimTime::from_secs_f64(181.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap3.services[0].mq_depth_max, 1, "depth 1 held briefly");
        assert!(snap3.services[0].mq_depth_mean < 0.1);
        let snap4 = t.harvest(
            SimTime::from_secs_f64(241.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap4.services[0].mq_depth_max, 0);
        assert_eq!(snap4.services[0].mq_depth_mean, 0.0);
    }

    #[test]
    fn latency_series_stats() {
        let mut w = QuantileWindow::new(16);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.record(v);
        }
        let s = LatencySeries::drain_from(&mut w);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.fraction_above(2.0), Some(0.5));
        assert_eq!(s.fraction_above(4.0), Some(0.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
    }

    #[test]
    fn latency_series_overflow_keeps_retained_semantics() {
        // Regression: when the source window overflows, the distribution
        // statistics must be over the retained (most recent) samples with
        // a matching denominator, while total_count still reports every
        // observation. Window of 4, 8 samples recorded: 1..=8 arrive, the
        // ring retains [5, 6, 7, 8].
        let mut w = QuantileWindow::new(4);
        for v in 1..=8 {
            w.record(v as f64);
        }
        let s = LatencySeries::drain_from(&mut w);
        assert_eq!(s.len(), 4, "retained samples");
        assert_eq!(s.total_count(), 8, "observed samples");
        assert!(s.len() as u64 != s.total_count(), "overflow happened");
        // Mean over retained [5,6,7,8], not over all 8 (which would be 4.5)
        // and not sum-of-retained / total_count (which would be 3.25).
        assert_eq!(s.mean(), Some(6.5));
        // fraction_above uses len() as the denominator: 2 of 4 above 6.
        assert_eq!(s.fraction_above(6.0), Some(0.5));
        // Percentiles span the retained range only.
        assert_eq!(s.percentile(0.0), Some(5.0));
        assert_eq!(s.percentile(100.0), Some(8.0));
    }

    #[test]
    fn total_count_is_cumulative_across_harvests() {
        // `QuantileWindow::clear` keeps the lifetime count, so a series'
        // `total_count` keeps growing from harvest to harvest while `len`
        // restarts; the per-window count is the difference.
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        let names = vec!["a".to_string(), "b".to_string()];
        let harvest = |t: &mut Telemetry, secs: f64| {
            t.harvest(
                SimTime::from_secs_f64(secs),
                &names,
                &[1, 1],
                &[1.0, 1.0],
                &[0, 0],
            )
        };
        let record = |t: &mut Telemetry, n: usize| {
            for _ in 0..n {
                t.record_response(ServiceId(0), ClassId(0), 0.012, 0.012);
                t.record_e2e(ClassId(0), 0.012);
            }
        };
        // (retained, observed) of the class's e2e, tier and response series.
        let counts = |snap: &MetricsSnapshot| {
            [
                &snap.e2e_latency[0],
                &snap.services[0].tier_latency[0],
                &snap.services[0].response_latency[0],
            ]
            .map(|series| (series.len(), series.total_count()))
        };
        record(&mut t, 3);
        assert_eq!(counts(&harvest(&mut t, 60.0)), [(3, 3); 3]);
        record(&mut t, 2);
        assert_eq!(
            counts(&harvest(&mut t, 120.0)),
            [(2, 5); 3],
            "retained restarts, observed accumulates"
        );
        assert_eq!(
            counts(&harvest(&mut t, 180.0)),
            [(0, 5); 3],
            "an idle window keeps the lifetime count"
        );
    }

    #[test]
    fn series_sorts_on_first_order_query_only() {
        let mut w = QuantileWindow::new(4);
        for v in [3.0, 1.0, 2.0] {
            w.record(v);
        }
        let s = LatencySeries::drain_from(&mut w);
        assert!(w.is_empty(), "harvest drains the window");
        assert_eq!(
            (s.len(), s.is_empty(), s.total_count(), s.evicted()),
            (3, false, 3, 0)
        );
        let sorted = |s: &LatencySeries| s.buf.as_ref().is_some_and(|b| b.sorted.get().is_some());
        assert!(!sorted(&s), "counting queries never sort");
        let earlier_clone = s.clone();
        assert_eq!(s.percentile(100.0), Some(3.0));
        assert!(sorted(&s));
        assert!(
            sorted(&earlier_clone),
            "clones share the buffer, so one sort serves them all"
        );
        assert!(sorted(&s.clone()), "a later clone starts sorted");
        assert_eq!(earlier_clone.samples(), &[1.0, 2.0, 3.0]);
        let buf = s.buf.as_ref().expect("three samples");
        assert!(
            buf.raw.lock().unwrap().is_empty(),
            "the sort took the arrival-order buffer: one copy is held"
        );
        // An empty series answers without initialising anything.
        let empty = LatencySeries::default();
        assert_eq!(
            (
                empty.percentile(50.0),
                empty.mean(),
                empty.fraction_above(0.0)
            ),
            (None, None, None)
        );
        assert!(empty.samples().is_empty());
        let mut idle = QuantileWindow::new(4);
        assert!(
            LatencySeries::drain_from(&mut idle).buf.is_none(),
            "an empty window allocates no buffer"
        );
    }

    /// The unstable `total_cmp` sort is bit-identical to the stable
    /// `partial_cmp` one only on NaN-free, sign-positive samples (`-0.0`
    /// would sort before `0.0`); debug builds check the domain.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn negative_zero_latency_is_rejected_in_debug() {
        let mut w = QuantileWindow::new(4);
        w.record(0.0);
        w.record(-0.0);
        let _ = LatencySeries::drain_from(&mut w).samples();
    }

    /// `MetricsSnapshot` is cloned per grid cell and sent across the
    /// cell-parallel runner's threads; the shared buffer must therefore be
    /// an `Arc` with a `Mutex` and a `OnceLock`, not an `Rc` with a
    /// `RefCell` and a `OnceCell`.
    #[test]
    fn snapshot_is_clone_send_sync() {
        fn assert<T: Clone + Send + Sync>() {}
        assert::<MetricsSnapshot>();
        assert::<LatencySeries>();
    }

    /// The eager harvest of the parent commit, kept as the reference the
    /// lazy series is compared against: an independent ring, a copy-out
    /// with `%` per element, and a stable `partial_cmp` sort.
    struct EagerSeries {
        sorted: Vec<f64>,
        count: u64,
    }

    impl EagerSeries {
        fn harvest(capacity: usize, samples: &[f64]) -> Self {
            let (mut buf, mut head, mut len) = (vec![0.0; capacity], 0usize, 0usize);
            for &x in samples {
                buf[(head + len) % capacity] = x;
                if len < capacity {
                    len += 1;
                } else {
                    head = (head + 1) % capacity;
                }
            }
            let mut sorted: Vec<f64> = (0..len).map(|i| buf[(head + i) % capacity]).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            EagerSeries {
                sorted,
                count: samples.len() as u64,
            }
        }

        fn answer(&self, query: Query) -> Vec<u64> {
            let s = &self.sorted;
            let n = s.len() as f64;
            match query {
                Query::Percentile(p) => bits((!s.is_empty()).then(|| percentile_of_sorted(s, p))),
                Query::Mean => bits((!s.is_empty()).then(|| s.iter().sum::<f64>() / n)),
                Query::FractionAbove(t) => bits(
                    (!s.is_empty()).then(|| (s.len() - s.partition_point(|&x| x <= t)) as f64 / n),
                ),
                Query::Samples => s.iter().map(|x| x.to_bits()).collect(),
                Query::Len => vec![s.len() as u64, s.is_empty() as u64],
                Query::TotalCount => vec![self.count],
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Query {
        Percentile(f64),
        Mean,
        FractionAbove(f64),
        Samples,
        Len,
        TotalCount,
    }

    fn bits(x: Option<f64>) -> Vec<u64> {
        x.map(f64::to_bits).into_iter().collect()
    }

    fn lazy_answer(s: &LatencySeries, query: Query) -> Vec<u64> {
        match query {
            Query::Percentile(p) => bits(s.percentile(p)),
            Query::Mean => bits(s.mean()),
            Query::FractionAbove(t) => bits(s.fraction_above(t)),
            Query::Samples => s.samples().iter().map(|x| x.to_bits()).collect(),
            Query::Len => vec![s.len() as u64, s.is_empty() as u64],
            Query::TotalCount => vec![s.total_count()],
        }
    }

    /// Latencies on a coarse grid (many exact ties, zeros included) mixed
    /// with continuous ones.
    fn latency() -> impl Strategy<Value = f64> {
        (0u32..3, 0u32..12, 0.0f64..2.0).prop_map(|(kind, step, fine)| match kind {
            0 => fine,
            _ => step as f64 * 0.125,
        })
    }

    fn query() -> impl Strategy<Value = Query> {
        (0u32..6, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 => Query::Percentile(x * 100.0),
            1 => Query::Mean,
            2 => Query::FractionAbove(x * 2.0),
            3 => Query::Samples,
            4 => Query::Len,
            _ => Query::TotalCount,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lazy vs eager: whatever the ring's fill (below, exactly at, or
        /// up to 3x past capacity), the query order, whether a clone was
        /// taken before or after the first sort, and whether the first
        /// query is raced by two threads over two series that share the
        /// samples (as a hop's tier and response series do when it never
        /// waits), every answer is bit-equal to the parent commit's eager
        /// copy-and-stable-sort.
        #[test]
        fn lazy_series_matches_eager_reference(
            capacity in 1usize..40,
            fill in 0u32..3,
            frac in 0.0f64..1.0,
            pool in proptest::collection::vec(latency(), 120),
            queries in proptest::collection::vec(query(), 1..12),
        ) {
            let n = match fill {
                0 => (frac * capacity as f64) as usize,
                1 => capacity,
                _ => capacity + 1 + (frac * 2.0 * capacity as f64) as usize,
            };
            let samples = &pool[..n.min(3 * capacity)];
            let reference = EagerSeries::harvest(capacity, samples);

            let mut window = QuantileWindow::new(capacity);
            samples.iter().for_each(|&x| window.record(x));
            let series = LatencySeries::drain_from(&mut window);
            let shared = series.clone();
            let before = series.clone();
            let first = queries[0];
            let start = std::sync::Barrier::new(2);
            let raced = std::thread::scope(|scope| {
                let racers = [&series, &shared].map(|s| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        lazy_answer(s, first)
                    })
                });
                racers.map(|r| r.join().expect("no racer panics"))
            });
            for answer in raced {
                prop_assert_eq!(answer, reference.answer(first), "raced: {:?}", first);
            }
            for &q in &queries {
                prop_assert_eq!(lazy_answer(&series, q), reference.answer(q), "{:?}", q);
                prop_assert_eq!(lazy_answer(&shared, q), reference.answer(q), "shared: {:?}", q);
            }
            let after = series.clone();
            for &q in queries.iter().rev() {
                prop_assert_eq!(lazy_answer(&before, q), reference.answer(q), "clone before: {:?}", q);
                prop_assert_eq!(lazy_answer(&after, q), reference.answer(q), "clone after: {:?}", q);
            }
        }
    }

    #[test]
    fn snapshot_aggregates() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        for _ in 0..120 {
            t.record_arrival(ServiceId(0), ClassId(0));
        }
        let names = vec!["a".to_string(), "b".to_string()];
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[2, 1],
            &[1.5, 1.0],
            &[0, 0],
        );
        assert!((snap.services[0].arrival_rps(snap.window) - 2.0).abs() < 1e-9);
        assert!((snap.total_allocated_cores() - 4.0).abs() < 1e-9);
    }
}
