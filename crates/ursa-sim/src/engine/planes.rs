//! The optional planes: arming tracing and the phase profiler. Each is
//! `None` until installed and leaves output bit-identical when off.

use crate::profiler::PhaseProfiler;
use crate::trace::{Trace, Tracer};

use super::Simulation;

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
}
