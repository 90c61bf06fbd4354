//! Virtual-time processor sharing.
//!
//! The engine's replicas share their CPU among active compute phases by
//! egalitarian processor sharing: with `n` active phases and `c` cores,
//! each phase progresses at `min(c / n, 1)` CPU-seconds per real second.
//! The naive implementation keeps a countdown per job and sweeps all of
//! them on every membership change — O(n) per arrival/completion, O(n²)
//! per busy period, which is exactly the overloaded regime the Ursa
//! claims are generated in.
//!
//! [`VtPs`] replaces the sweep with *virtual time* (Zhang's Virtual Clock
//! / start-time fair queueing, specialised to egalitarian PS): the queue
//! keeps one scalar virtual clock `V` that advances at the common
//! per-job rate, and a job admitted at virtual time `v` with work `w`
//! receives an immutable finish tag `v + w`. A job completes when `V`
//! reaches its tag, so:
//!
//! * advancing the whole queue by an elapsed span is **O(1)** (`V += Δ`),
//! * the next completion is the minimum tag — **O(1)** to peek via a
//!   min-heap ordered by `(tag, admission seq)`,
//! * a completion is an **O(log n)** heap pop,
//! * a rate change (the replica's core limit) rescales how fast `V`
//!   advances per real second and never touches the tags.
//!
//! Ties — two jobs with bit-identical finish tags — pop in admission
//! order (`seq`), which is the engine's token order. This replaces the
//! old engine's implicit "whatever order the active vector held" rule
//! and is pinned by `equal_tags_pop_in_admission_order` below plus an
//! engine-level regression test.
//!
//! The conversion between real and virtual time lives in the caller: the
//! engine advances the queue by `elapsed * rate` and converts the head's
//! remaining virtual work back to real time via [`ps_rate`]. Keeping
//! `VtPs` purely virtual makes it directly comparable against a naive
//! per-job-countdown reference model (see `tests/ps_reference.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The common per-job progress rate of an egalitarian PS server with
/// `cores` CPUs and `n` active jobs.
///
/// Returns CPU-seconds per real second; `0` jobs yields the idle rate
/// (unused — callers never advance an empty queue's clock).
#[inline]
pub fn ps_rate(cores: f64, n: usize) -> f64 {
    debug_assert!(n > 0);
    // Division-free on an uncontended replica.
    let n = n as f64;
    if n <= cores {
        1.0
    } else {
        cores / n
    }
}

/// One admitted job: immutable finish tag plus admission sequence.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    tag: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Max-heap order *reversed*: the greatest entry is the smallest
    /// `(tag, seq)`, so `BinaryHeap::peek` yields the next completion
    /// without a `Reverse` wrapper at every call site.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .tag
            .total_cmp(&self.tag)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A virtual-time processor-sharing queue over payload `T`.
///
/// See the module docs for the model. All operations are deterministic:
/// the pop order is a pure function of the admission sequence, so two
/// runs feeding identical `(work, item)` streams observe identical
/// completion sequences.
#[derive(Debug, Clone, Default)]
pub struct VtPs<T> {
    vclock: f64,
    seq: u64,
    heap: BinaryHeap<Entry<T>>,
}

impl<T: Copy> VtPs<T> {
    /// An empty queue with virtual clock zero.
    pub fn new() -> Self {
        VtPs {
            vclock: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Number of active jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no job is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current virtual time (CPU-seconds of per-job progress since the
    /// queue was created).
    #[inline]
    pub fn vclock(&self) -> f64 {
        self.vclock
    }

    /// Advances the virtual clock by `dv` CPU-seconds (`elapsed_real *
    /// rate` for whatever rate held over the span). O(1).
    #[inline]
    pub fn advance(&mut self, dv: f64) {
        self.vclock += dv;
    }

    /// Admits a job needing `work` CPU-seconds; returns its finish tag.
    /// O(log n).
    pub fn admit(&mut self, work: f64, item: T) -> f64 {
        let tag = self.vclock + work;
        self.seq += 1;
        self.heap.push(Entry {
            tag,
            seq: self.seq,
            item,
        });
        tag
    }

    /// Virtual work remaining until the next completion (`>= 0`), or
    /// `None` when idle. O(1).
    #[inline]
    pub fn next_rem(&self) -> Option<f64> {
        self.heap.peek().map(|e| (e.tag - self.vclock).max(0.0))
    }

    /// Pops every job whose finish tag lies within `eps` of the current
    /// virtual clock, appending payloads to `out` in completion order
    /// (finish tag, then admission order). O(k log n) for k completions.
    pub fn pop_due(&mut self, eps: f64, out: &mut Vec<T>) {
        while let Some(e) = self.heap.peek() {
            if e.tag > self.vclock + eps {
                break;
            }
            out.push(self.heap.pop().expect("peeked").item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_in_tag_order() {
        let mut ps: VtPs<u32> = VtPs::new();
        ps.admit(3.0, 1);
        ps.admit(1.0, 2);
        ps.admit(2.0, 3);
        let mut out = Vec::new();
        ps.advance(3.0);
        ps.pop_due(0.0, &mut out);
        assert_eq!(out, vec![2, 3, 1]);
        assert!(ps.is_empty());
    }

    #[test]
    fn late_admission_offsets_by_vclock() {
        let mut ps: VtPs<u32> = VtPs::new();
        ps.admit(2.0, 1);
        ps.advance(1.5);
        // Admitted at V = 1.5 with 2.0 of work: finishes at V = 3.5.
        let tag = ps.admit(2.0, 2);
        assert!((tag - 3.5).abs() < 1e-15);
        assert!((ps.next_rem().unwrap() - 0.5).abs() < 1e-15);
        let mut out = Vec::new();
        ps.advance(0.5);
        ps.pop_due(1e-12, &mut out);
        assert_eq!(out, vec![1]);
        ps.advance(1.5);
        ps.pop_due(1e-12, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    /// The pinned tie-break rule: equal finish tags complete in admission
    /// (token) order, deterministically.
    #[test]
    fn equal_tags_pop_in_admission_order() {
        let mut ps: VtPs<u32> = VtPs::new();
        for id in 0..16 {
            ps.admit(1.0, id);
        }
        ps.advance(1.0);
        let mut out = Vec::new();
        ps.pop_due(0.0, &mut out);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_eps() {
        let mut ps: VtPs<u32> = VtPs::new();
        ps.admit(1.0, 1);
        ps.advance(1.0 - 1e-13);
        let mut out = Vec::new();
        ps.pop_due(0.0, &mut out);
        assert!(out.is_empty(), "not yet due without tolerance");
        ps.pop_due(1e-12, &mut out);
        assert_eq!(out, vec![1], "due within the work epsilon");
    }

    #[test]
    fn rate_helper_caps_at_one() {
        assert_eq!(ps_rate(4.0, 2), 1.0);
        assert_eq!(ps_rate(4.0, 8), 0.5);
        assert_eq!(ps_rate(0.5, 1), 0.5);
    }
}
