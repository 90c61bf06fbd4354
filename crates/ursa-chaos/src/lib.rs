//! Composable, deterministic fault-injection scenarios for the Ursa
//! simulator — the authoring layer above the engine's chaos plane.
//!
//! The engine consumes a [`FaultPlan`]: a flat, fully-timed list of fault
//! windows (see [`ursa_sim::chaos`]). This crate provides the level above
//! it: a [`Scenario`] composes *elements* — scheduled one-shots ("slow
//! service 3 by 6× from minute 5 to minute 9") and stochastic failure
//! processes ("this service crash-loops with MTBF 10 min, MTTR 45 s") —
//! and [`Scenario::compile`] lowers them into a concrete plan for a given
//! seed and horizon.
//!
//! # Determinism
//!
//! Compilation is a pure function of `(scenario, seed, horizon)`. Each
//! element draws from its own sub-stream (`seed` mixed with the element
//! index by a 64-bit SplitMix constant), so appending an element never
//! shifts the windows an earlier element generates — scenarios stay
//! comparable as they grow. Stochastic elements sample alternating
//! exponential time-to-failure (mean MTBF) and time-to-repair (mean MTTR)
//! holds, i.e. a Poisson failure process with exponential repair.
//!
//! # Example
//!
//! ```
//! use ursa_chaos::Scenario;
//! use ursa_sim::prelude::*;
//!
//! let scenario = Scenario::new("noisy-neighbor")
//!     .one_shot(
//!         SimDur::from_mins(5),
//!         SimDur::from_mins(4),
//!         FaultKind::Slowdown { service: 3, factor: 6.0 },
//!     )
//!     .stochastic(
//!         SimDur::from_mins(10),
//!         SimDur::from_secs(45),
//!         FaultKind::ReplicaCrash { service: 1, count: 1 },
//!     );
//! let plan = scenario.compile(0xC0FFEE, SimDur::from_mins(30));
//! assert!(plan.len() >= 1);
//! // Same inputs, same plan — always.
//! assert_eq!(plan, scenario.compile(0xC0FFEE, SimDur::from_mins(30)));
//! ```

#![forbid(unsafe_code)]

use ursa_sim::chaos::{Fault, FaultKind, FaultPlan};
use ursa_sim::time::{SimDur, SimTime};
use ursa_stats::dist::{Distribution, Exponential};
use ursa_stats::rng::Rng;

/// SplitMix64 increment — mixes the element index into per-element
/// sub-seeds so elements draw from independent streams.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One composable piece of a scenario.
#[derive(Debug, Clone, PartialEq)]
enum Element {
    /// A single fault window at a fixed offset.
    OneShot {
        offset: SimDur,
        duration: SimDur,
        kind: FaultKind,
    },
    /// A renewal process: exponential up-time with mean `mtbf`, then a
    /// fault window with exponential duration of mean `mttr`, repeating
    /// until the horizon.
    Stochastic {
        mtbf: SimDur,
        mttr: SimDur,
        kind: FaultKind,
    },
}

/// A named, composable fault scenario. Build with the fluent methods, then
/// [`compile`](Scenario::compile) into a [`FaultPlan`] for the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    elements: Vec<Element>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            elements: Vec::new(),
        }
    }

    /// The scenario's name (used in table rows and artifact paths).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a single fault window covering `[offset, offset + duration)`.
    pub fn one_shot(mut self, offset: SimDur, duration: SimDur, kind: FaultKind) -> Self {
        assert!(
            duration > SimDur::ZERO,
            "one-shot duration must be positive"
        );
        self.elements.push(Element::OneShot {
            offset,
            duration,
            kind,
        });
        self
    }

    /// Adds a stochastic failure process: exponential time between
    /// failures (mean `mtbf`) and exponential outage length (mean `mttr`),
    /// repeating until the compile horizon.
    pub fn stochastic(mut self, mtbf: SimDur, mttr: SimDur, kind: FaultKind) -> Self {
        assert!(mtbf > SimDur::ZERO, "MTBF must be positive");
        assert!(mttr > SimDur::ZERO, "MTTR must be positive");
        self.elements.push(Element::Stochastic { mtbf, mttr, kind });
        self
    }

    /// Number of elements composed so far.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when no elements have been composed.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Lowers the scenario into a concrete [`FaultPlan`] for one run.
    ///
    /// Pure in `(self, seed, horizon)`: one-shots are emitted verbatim
    /// (clipped to the horizon), stochastic elements sample their renewal
    /// process from a per-element sub-stream of `seed`. Windows are sorted
    /// by injection time so equal plans compare equal structurally.
    pub fn compile(&self, seed: u64, horizon: SimDur) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let end = SimTime::ZERO + horizon;
        for (i, el) in self.elements.iter().enumerate() {
            let sub_seed = seed ^ (i as u64 + 1).wrapping_mul(GOLDEN_GAMMA);
            match *el {
                Element::OneShot {
                    offset,
                    duration,
                    kind,
                } => {
                    let at = SimTime::ZERO + offset;
                    if at >= end {
                        continue;
                    }
                    let until = (at + duration).min(end);
                    plan.push(Fault { at, until, kind });
                }
                Element::Stochastic { mtbf, mttr, kind } => {
                    let mut rng = Rng::seed_from(sub_seed);
                    let up = Exponential::with_mean(mtbf.as_secs_f64());
                    let down = Exponential::with_mean(mttr.as_secs_f64());
                    let mut t = SimTime::ZERO;
                    loop {
                        t += SimDur::from_secs_f64(up.sample(&mut rng));
                        if t >= end {
                            break;
                        }
                        let outage = SimDur::from_secs_f64(down.sample(&mut rng))
                            .max(SimDur::from_millis(1));
                        let until = (t + outage).min(end);
                        if until > t {
                            plan.push(Fault { at: t, until, kind });
                        }
                        t = until;
                    }
                }
            }
        }
        plan.faults.sort_by_key(|f| (f.at, f.until));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(service: usize) -> FaultKind {
        FaultKind::ReplicaCrash { service, count: 1 }
    }

    #[test]
    fn one_shot_compiles_verbatim() {
        let s = Scenario::new("t").one_shot(SimDur::from_secs(10), SimDur::from_secs(5), crash(0));
        let plan = s.compile(1, SimDur::from_secs(60));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.faults[0].at, SimTime::from_secs_f64(10.0));
        assert_eq!(plan.faults[0].until, SimTime::from_secs_f64(15.0));
    }

    #[test]
    fn one_shot_clipped_to_horizon() {
        let s = Scenario::new("t")
            .one_shot(SimDur::from_secs(50), SimDur::from_secs(30), crash(0))
            .one_shot(SimDur::from_secs(70), SimDur::from_secs(5), crash(1));
        let plan = s.compile(1, SimDur::from_secs(60));
        assert_eq!(plan.len(), 1, "window past the horizon is dropped");
        assert_eq!(plan.faults[0].until, SimTime::from_secs_f64(60.0));
    }

    #[test]
    fn compile_is_deterministic() {
        let s = Scenario::new("t")
            .stochastic(SimDur::from_secs(30), SimDur::from_secs(5), crash(0))
            .stochastic(SimDur::from_secs(60), SimDur::from_secs(10), crash(1));
        let h = SimDur::from_mins(30);
        assert_eq!(s.compile(42, h), s.compile(42, h));
        assert_ne!(s.compile(42, h), s.compile(43, h), "seed matters");
    }

    #[test]
    fn appending_elements_preserves_earlier_windows() {
        let base =
            Scenario::new("t").stochastic(SimDur::from_secs(30), SimDur::from_secs(5), crash(0));
        let grown = base
            .clone()
            .stochastic(SimDur::from_secs(60), SimDur::from_secs(10), crash(1));
        let h = SimDur::from_mins(20);
        let from_base = base.compile(7, h);
        let from_grown = grown.compile(7, h);
        let crash0 = |p: &FaultPlan| {
            p.faults
                .iter()
                .filter(|f| f.kind == crash(0))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(crash0(&from_base), crash0(&from_grown));
        assert!(from_grown.len() > from_base.len());
    }

    #[test]
    fn stochastic_rate_roughly_matches_mtbf() {
        let s =
            Scenario::new("t").stochastic(SimDur::from_secs(60), SimDur::from_secs(5), crash(0));
        // 4 h horizon, MTBF 60 s + MTTR 5 s => ~220 cycles expected.
        let plan = s.compile(11, SimDur::from_secs(4 * 3600));
        assert!((150..300).contains(&plan.len()), "windows {}", plan.len());
        for w in plan.faults.windows(2) {
            assert!(w[0].at <= w[1].at, "sorted by injection time");
        }
        for f in &plan.faults {
            assert!(f.until > f.at, "non-empty windows");
        }
    }

    #[test]
    fn windows_never_overlap_within_one_process() {
        let s =
            Scenario::new("t").stochastic(SimDur::from_secs(10), SimDur::from_secs(8), crash(0));
        let plan = s.compile(3, SimDur::from_mins(30));
        for w in plan.faults.windows(2) {
            assert!(
                w[0].until <= w[1].at,
                "renewal process cannot overlap itself"
            );
        }
    }

    #[test]
    fn empty_scenario_compiles_empty() {
        let plan = Scenario::new("empty").compile(5, SimDur::from_mins(10));
        assert!(plan.is_empty());
    }
}
