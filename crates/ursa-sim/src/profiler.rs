//! Engine phase profiler: a sampled census of what one `Simulation`
//! dispatches, by kind of event.
//!
//! Off by default; when on, every `sample_every`-th popped event is
//! classified into exactly one [`SimPhase`] and counted. The profiler never
//! touches simulation state or any RNG, so enabling it leaves simulated
//! output bit-identical to a run without it (enforced by
//! `tests/plane_bitident.rs`), and its counts are a pure function
//! of the seed. Its one reader is the ledger's probe unit
//! (`benchmark/`), which reads the phases by [`SimPhase::label`].
//!
//! It reads no clock. Host-clock timing of sampled events was held to a
//! bar fixed in advance (phases summing to 0.9–1.1× the measured cost of an
//! event) and missed it at two clock reads per sample just as it had at
//! ten; DESIGN §6 "Engine cost model, measured from outside" has the
//! numbers and the external-sampler recipe that replaced it.

/// What a sampled event was, by `EventKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimPhase {
    /// A Poisson source fired: thinning draw, injection, re-arm.
    SourceNext,
    /// A request hop arrived at its service.
    NodeArrive,
    /// Processor-sharing completions on a replica.
    PsCheck,
}

impl SimPhase {
    /// All phases, in reporting order.
    pub const ALL: [SimPhase; 3] = [
        SimPhase::SourceNext,
        SimPhase::NodeArrive,
        SimPhase::PsCheck,
    ];

    /// Stable snake_case identifier (the ledger's row names).
    pub fn label(&self) -> &'static str {
        match self {
            SimPhase::SourceNext => "source_next",
            SimPhase::NodeArrive => "node_arrive",
            SimPhase::PsCheck => "ps_check",
        }
    }
}

/// One phase's line in a [`ProfilerReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: SimPhase,
    /// Always 0: the profiler does not time (see the module doc). Kept
    /// because the ledger (`engine.profile_sum_ratio`) reads it.
    pub est_nanos: f64,
    /// Sampled events classified into the phase.
    pub count: u64,
}

/// A finished profile: sampled event counts per phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerReport {
    /// Events popped while the profiler was installed.
    pub events_seen: u64,
    /// Events classified; equals the sum of the phases' `count`.
    pub events_sampled: u64,
    /// Sampling period (every N-th event is classified).
    pub sample_every: u32,
    /// Per-phase stats in [`SimPhase::ALL`] order; phases with no events
    /// are included so consumers see a fixed-shape table.
    pub phases: Vec<PhaseStat>,
}

/// Sampled per-phase event census for one `Simulation`.
///
/// Installed via `Simulation::enable_profiler`; the engine drives it from
/// the dispatch loop.
#[derive(Debug)]
pub struct PhaseProfiler {
    sample_every: u32,
    /// Events until the next sampled one (counts down to 0).
    countdown: u32,
    events_seen: u64,
    counts: [u64; SimPhase::ALL.len()],
}

impl PhaseProfiler {
    /// Default sampling period: thousands of samples per bench-scale cell.
    pub const DEFAULT_SAMPLE_EVERY: u32 = 256;

    /// Creates a profiler classifying every `sample_every`-th event.
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
            counts: [0; SimPhase::ALL.len()],
        }
    }

    /// Notes one popped event; every `sample_every`-th is classified by
    /// `phase` and counted.
    #[inline]
    pub(crate) fn observe(&mut self, phase: impl FnOnce() -> SimPhase) {
        self.events_seen += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            self.counts[phase() as usize] += 1;
        }
    }

    /// Builds the report.
    pub fn report(&self) -> ProfilerReport {
        let phases = SimPhase::ALL
            .iter()
            .map(|&phase| PhaseStat {
                phase,
                est_nanos: 0.0,
                count: self.counts[phase as usize],
            })
            .collect();
        ProfilerReport {
            events_seen: self.events_seen,
            events_sampled: self.counts.iter().sum(),
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
        for _ in 0..100 {
            p.observe(|| SimPhase::NodeArrive);
        }
        let r = p.report();
        assert_eq!((r.events_seen, r.events_sampled), (100, 25));
    }

    #[test]
    fn report_has_fixed_shape_and_counts_sum_to_sampled() {
        let mut p = PhaseProfiler::new(1);
        let r = p.report();
        assert_eq!(r.phases.len(), SimPhase::ALL.len());
        assert!(r.phases.iter().all(|s| s.count == 0 && s.est_nanos == 0.0));
        for phase in [SimPhase::PsCheck, SimPhase::PsCheck, SimPhase::SourceNext] {
            p.observe(|| phase);
        }
        let r = p.report();
        assert_eq!(r.events_sampled, 3);
        assert_eq!(r.phases.iter().map(|s| s.count).sum::<u64>(), 3);
        assert_eq!(r.phases[SimPhase::PsCheck as usize].count, 2);
    }

    #[test]
    #[should_panic(expected = "sampling period")]
    fn rejects_zero_period() {
        PhaseProfiler::new(0);
    }

    #[test]
    fn labels_are_unique_and_in_reporting_order() {
        let labels: std::collections::BTreeSet<_> =
            SimPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), SimPhase::ALL.len());
        for (i, p) in SimPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }
}
