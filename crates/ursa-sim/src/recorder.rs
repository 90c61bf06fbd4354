//! Flight recorder: a bounded, deterministic ring of recent engine events
//! and control-plane state transitions, kept so a post-mortem can show
//! *what the engine was doing* in the moments before a trigger fired.
//!
//! Armed via `Simulation::arm_flight_recorder`; disarmed it costs one
//! predictably-false branch per dispatched event. The recorder is purely
//! observational — it never touches simulation state, schedules nothing,
//! and draws no random numbers — so arming it leaves simulated output
//! bit-identical to an unarmed run (enforced, in every combination with
//! the other planes, by `tests/plane_bitident.rs`). Entries carry only simulated time,
//! event sequence numbers, and `Copy` payloads: no wall-clock, no
//! formatting at record time, so the ring contents are a pure function of
//! the seed and the installed plan.
//!
//! The ring holds the *most recent* `capacity` entries; a post-mortem
//! bundle dumps whatever window the ring holds at the moment its trigger
//! is evaluated (triggers run at control-tick boundaries, so the window
//! typically covers the tail of the offending control interval).

use crate::time::SimTime;
use std::collections::VecDeque;

/// What one flight-recorder entry witnessed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEventKind {
    /// A Poisson source fired (and re-armed) for `class`.
    SourceNext {
        /// Request class index.
        class: u32,
    },
    /// A request hop arrived at its service.
    NodeArrive {
        /// Engine slot of the owning request.
        slot: u32,
        /// Hop index within the class's call tree.
        node: u16,
    },
    /// A processor-sharing completion check fired.
    PsCheck {
        /// Service index.
        service: u16,
        /// Replica index.
        replica: u16,
    },
    /// Fault window `fault` was injected.
    ChaosStart {
        /// Fault index within the installed plan.
        fault: u32,
    },
    /// Fault window `fault` recovered.
    ChaosEnd {
        /// Fault index within the installed plan.
        fault: u32,
    },
    /// Control-plane transition: replica count changed.
    Scale {
        /// Service index.
        service: u16,
        /// Live replicas before.
        from: u16,
        /// Live replicas after.
        to: u16,
    },
    /// Control-plane transition: per-replica CPU limit changed.
    CpuLimit {
        /// Service index.
        service: u16,
        /// New per-replica limit in millicores.
        millicores: u32,
    },
    /// A telemetry harvest (control-window boundary) completed.
    Harvest {
        /// Requests in flight at harvest time.
        in_flight: u32,
    },
}

impl FlightEventKind {
    /// Stable snake_case identifier (used in post-mortem bundles).
    pub fn label(&self) -> &'static str {
        match self {
            FlightEventKind::SourceNext { .. } => "source_next",
            FlightEventKind::NodeArrive { .. } => "node_arrive",
            FlightEventKind::PsCheck { .. } => "ps_check",
            FlightEventKind::ChaosStart { .. } => "chaos_start",
            FlightEventKind::ChaosEnd { .. } => "chaos_end",
            FlightEventKind::Scale { .. } => "scale",
            FlightEventKind::CpuLimit { .. } => "cpu_limit",
            FlightEventKind::Harvest { .. } => "harvest",
        }
    }
}

/// One recorded engine event or state transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Engine event sequence number (state transitions carry the sequence
    /// counter's value at transition time — ring order is causal order).
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
}

/// The bounded ring of recent [`FlightEntry`] records.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEntry>,
    recorded: u64,
}

impl FlightRecorder {
    /// Default ring capacity: enough to cover the tail of a control
    /// interval on the bench topologies without holding megabytes.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder holding the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(65_536)),
            recorded: 0,
        }
    }

    /// Appends one entry, evicting the oldest when full.
    #[inline]
    pub(crate) fn push(&mut self, entry: FlightEntry) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(entry);
        self.recorded += 1;
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (at most `capacity`).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total entries recorded since arming (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Entries evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// The held window, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: f64, seq: u64) -> FlightEntry {
        FlightEntry {
            at: SimTime::from_secs_f64(s),
            seq,
            kind: FlightEventKind::SourceNext { class: 0 },
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(entry(i as f64, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn labels_cover_all_kinds() {
        let kinds = [
            FlightEventKind::SourceNext { class: 0 },
            FlightEventKind::NodeArrive { slot: 0, node: 0 },
            FlightEventKind::PsCheck {
                service: 0,
                replica: 0,
            },
            FlightEventKind::ChaosStart { fault: 0 },
            FlightEventKind::ChaosEnd { fault: 0 },
            FlightEventKind::Scale {
                service: 0,
                from: 1,
                to: 2,
            },
            FlightEventKind::CpuLimit {
                service: 0,
                millicores: 1000,
            },
            FlightEventKind::Harvest { in_flight: 0 },
        ];
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        FlightRecorder::new(0);
    }
}
