//! Engine phase profiler: sampled wall-clock accounting of where one
//! `Simulation` spends its time, broken down by engine phase.
//!
//! The profiler exists to answer one question for the perf roadmap: *which
//! phase do we attack next?* It is off by default; when off it costs one
//! predictably-false branch per dispatched event and never touches the
//! simulation state or any RNG — enabling it leaves simulated output
//! bit-identical to a run without it (enforced by
//! `tests/observability_bitident.rs`).
//!
//! # How the accounting works
//!
//! Timing every hook of every event with `Instant::now()` would cost far
//! more than the phases being measured (the canonical bench cell runs at
//! ~160 ns/event, a clock read pair is a meaningful fraction of that). So
//! the profiler *samples*: every `sample_every`-th popped event is timed in
//! detail — its total dispatch wall time, plus one span per instrumented
//! leaf phase it passes through. Unsampled events pay only the countdown
//! decrement. Reported totals are scaled estimates
//! (`sampled nanos x sample_every`); with the default period and
//! bench-scale event counts (10^5..10^7 events) the breakdown is stable to
//! a few percent, which is all a "what do we optimize next" signal needs.
//!
//! Spans never nest: the outermost span a sampled event opens wins, and any
//! phase hook reached while a span is open is folded into the open span's
//! phase (e.g. the event-heap push performed inside a PS admit counts as
//! [`SimPhase::PsAdmit`]). Whatever part of a sampled event is covered by
//! no span at all lands in [`SimPhase::Other`].
//!
//! The control phase is the exception to sampling: manager decisions are
//! rare (one per control window) and already wall-clock timed by the
//! deployment driver, so their cost is fed in exactly via
//! [`PhaseProfiler::accrue_control`] and reported unscaled.

/// Engine phases distinguished by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimPhase {
    /// Event-queue pop at the head of the dispatch loop.
    QueuePop,
    /// Event-queue push (O(1) bucket append in the common case).
    QueuePush,
    /// Event-queue maintenance: stale-entry compaction and adaptive
    /// band-width rebuilds of the calendar queue.
    QueueMaint,
    /// Advancing a replica's virtual clock (`advance_to` / re-sync).
    PsAdvance,
    /// Admitting a compute phase into a PS queue (the fused hot path).
    PsAdmit,
    /// Popping due PS completions and re-arming the next check.
    PsComplete,
    /// Random draws: work sizes, network delays, source interarrivals.
    Rng,
    /// Telemetry accumulator writes (arrivals, responses, MQ depth).
    Telemetry,
    /// Chaos fault injection / recovery actuation.
    Chaos,
    /// Memory-plane scans: usage accounting, OOM-kill, eviction.
    Mem,
    /// Resource-manager decision callbacks (exact, not sampled).
    Control,
    /// Sampled event time covered by no instrumented span.
    Other,
}

/// Number of [`SimPhase`] variants.
pub const PHASE_COUNT: usize = 12;

impl SimPhase {
    /// All phases, in reporting order.
    pub const ALL: [SimPhase; PHASE_COUNT] = [
        SimPhase::QueuePop,
        SimPhase::QueuePush,
        SimPhase::QueueMaint,
        SimPhase::PsAdvance,
        SimPhase::PsAdmit,
        SimPhase::PsComplete,
        SimPhase::Rng,
        SimPhase::Telemetry,
        SimPhase::Chaos,
        SimPhase::Mem,
        SimPhase::Control,
        SimPhase::Other,
    ];

    /// Stable snake_case identifier (used in `BENCH_sim.json`).
    pub fn label(&self) -> &'static str {
        match self {
            SimPhase::QueuePop => "queue_pop",
            SimPhase::QueuePush => "queue_push",
            SimPhase::QueueMaint => "queue_maint",
            SimPhase::PsAdvance => "ps_advance",
            SimPhase::PsAdmit => "ps_admit",
            SimPhase::PsComplete => "ps_complete",
            SimPhase::Rng => "rng",
            SimPhase::Telemetry => "telemetry",
            SimPhase::Chaos => "chaos",
            SimPhase::Mem => "mem",
            SimPhase::Control => "control",
            SimPhase::Other => "other",
        }
    }
}

/// One phase's line in a [`ProfilerReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: SimPhase,
    /// Estimated total nanoseconds spent in the phase over the run
    /// (sampled nanos scaled by the sampling period; exact for
    /// [`SimPhase::Control`]).
    pub est_nanos: f64,
    /// Fraction of the estimated total across all phases, in `[0, 1]`.
    pub share: f64,
    /// Spans accrued (sampled-event spans; control callbacks for
    /// [`SimPhase::Control`]).
    pub count: u64,
}

/// A finished profile: per-phase estimated time shares.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerReport {
    /// Events popped while the profiler was installed.
    pub events_seen: u64,
    /// Events timed in detail.
    pub events_sampled: u64,
    /// Sampling period (every N-th event is timed).
    pub sample_every: u32,
    /// Per-phase stats in [`SimPhase::ALL`] order; phases with zero time
    /// are included so consumers see a fixed-shape table.
    pub phases: Vec<PhaseStat>,
}

impl ProfilerReport {
    /// Estimated nanoseconds per popped event attributed to `phase`.
    pub fn ns_per_event(&self, phase: SimPhase) -> f64 {
        if self.events_seen == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0.0, |p| p.est_nanos / self.events_seen as f64)
    }
}

/// Sampled per-phase wall-clock accounting for one `Simulation`.
///
/// Installed via `Simulation::enable_profiler`; the engine drives it from
/// the dispatch loop. All methods are branch-cheap; none touch simulation
/// state.
#[derive(Debug)]
pub struct PhaseProfiler {
    sample_every: u32,
    /// Events until the next sampled one (counts down to 0).
    countdown: u32,
    events_seen: u64,
    events_sampled: u64,
    /// Leaf-span nanos accrued within the event currently being sampled,
    /// used to derive the uninstrumented remainder ([`SimPhase::Other`]).
    leaf_in_event: u64,
    nanos: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
}

impl PhaseProfiler {
    /// Default sampling period: detailed timing every 256th event keeps
    /// measured overhead well under the 2 % budget on the bench cells
    /// while still sampling thousands of events per cell.
    pub const DEFAULT_SAMPLE_EVERY: u32 = 256;

    /// Creates a profiler timing every `sample_every`-th event.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn new(sample_every: u32) -> Self {
        assert!(sample_every > 0, "sampling period must be positive");
        PhaseProfiler {
            sample_every,
            countdown: sample_every,
            events_seen: 0,
            events_sampled: 0,
            leaf_in_event: 0,
            nanos: [0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
        }
    }

    /// Advances the event counter; returns `true` when this event should
    /// be timed in detail.
    #[inline]
    pub(crate) fn event_tick(&mut self) -> bool {
        self.events_seen += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            self.events_sampled += 1;
            self.leaf_in_event = 0;
            true
        } else {
            false
        }
    }

    /// Accrues one closed leaf span of a sampled event.
    #[inline]
    pub(crate) fn accrue(&mut self, phase: SimPhase, nanos: u64) {
        let i = phase as usize;
        self.nanos[i] += nanos;
        self.counts[i] += 1;
        self.leaf_in_event += nanos;
    }

    /// Closes a sampled event: `total` is its full dispatch wall time,
    /// `queue_pop` the pop portion. (Bucket promotions triggered by the
    /// pre-dispatch peek run before the sampling window opens and are not
    /// attributed — an accepted undercount of `queue_pop`.) The remainder
    /// not covered by any leaf span is booked as [`SimPhase::Other`].
    #[inline]
    pub(crate) fn event_done(&mut self, total: u64, queue_pop: u64) {
        self.accrue(SimPhase::QueuePop, queue_pop);
        let covered = self.leaf_in_event;
        let other = total.saturating_sub(covered);
        self.nanos[SimPhase::Other as usize] += other;
        self.counts[SimPhase::Other as usize] += 1;
    }

    /// Accrues exact (unsampled) control-callback time.
    #[inline]
    pub(crate) fn accrue_control(&mut self, nanos: u64) {
        self.nanos[SimPhase::Control as usize] += nanos;
        self.counts[SimPhase::Control as usize] += 1;
    }

    /// Events popped while the profiler was installed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Events timed in detail.
    pub fn events_sampled(&self) -> u64 {
        self.events_sampled
    }

    /// Builds the report: sampled phases scaled to run totals, control
    /// exact, shares normalized over the estimated grand total.
    pub fn report(&self) -> ProfilerReport {
        let scale = self.sample_every as f64;
        let est = |phase: SimPhase| -> f64 {
            let raw = self.nanos[phase as usize] as f64;
            if phase == SimPhase::Control {
                raw
            } else {
                raw * scale
            }
        };
        let total: f64 = SimPhase::ALL.iter().map(|&p| est(p)).sum();
        let phases = SimPhase::ALL
            .iter()
            .map(|&phase| {
                let est_nanos = est(phase);
                PhaseStat {
                    phase,
                    est_nanos,
                    share: if total > 0.0 { est_nanos / total } else { 0.0 },
                    count: self.counts[phase as usize],
                }
            })
            .collect();
        ProfilerReport {
            events_seen: self.events_seen,
            events_sampled: self.events_sampled,
            sample_every: self.sample_every,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_period_is_honored() {
        let mut p = PhaseProfiler::new(4);
        let sampled = (0..100).filter(|_| p.event_tick()).count();
        assert_eq!(sampled, 25);
        assert_eq!(p.events_seen(), 100);
        assert_eq!(p.events_sampled(), 25);
    }

    #[test]
    fn report_scales_sampled_phases_and_keeps_control_exact() {
        let mut p = PhaseProfiler::new(10);
        assert!(!p.event_tick()); // 9 to go
        for _ in 0..8 {
            assert!(!p.event_tick());
        }
        assert!(p.event_tick()); // the 10th is sampled
        p.accrue(SimPhase::PsAdmit, 100);
        p.event_done(300, 50); // 150 uncovered -> Other
        p.accrue_control(1_000);
        let r = p.report();
        let by = |ph: SimPhase| r.phases.iter().find(|s| s.phase == ph).unwrap();
        assert_eq!(by(SimPhase::PsAdmit).est_nanos, 1_000.0);
        assert_eq!(by(SimPhase::QueuePop).est_nanos, 500.0);
        assert_eq!(by(SimPhase::Other).est_nanos, 1_500.0);
        assert_eq!(by(SimPhase::Control).est_nanos, 1_000.0);
        let total: f64 = r.phases.iter().map(|s| s.est_nanos).sum();
        assert_eq!(total, 4_000.0);
        let share_sum: f64 = r.phases.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!(r.ns_per_event(SimPhase::PsAdmit) > 0.0);
    }

    #[test]
    fn empty_report_has_fixed_shape() {
        let p = PhaseProfiler::new(64);
        let r = p.report();
        assert_eq!(r.phases.len(), PHASE_COUNT);
        assert!(r.phases.iter().all(|s| s.share == 0.0));
        assert_eq!(r.ns_per_event(SimPhase::QueuePop), 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling period")]
    fn rejects_zero_period() {
        PhaseProfiler::new(0);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SimPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PHASE_COUNT);
    }
}
