//! The engine's event queue: one vector sorted descending by `(at, seq)`.
//!
//! The entry to pop next is the last one, so `pop` is `Vec::pop`. A push
//! that pops next — the common case — is `Vec::push`; any other push
//! binary-searches its place and shifts only the entries that pop *before*
//! it, which at the depths the engine sustains (under a hundred entries in
//! every experiment, a few hundred in the 63-service perf cell) is one or
//! two cache lines of `memmove`. The one pattern that would shift the whole
//! vector on every push — loading many entries in ascending time — goes
//! through [`EventQueue::extend`], which appends the batch and sorts once.
//!
//! `(at, seq)` keys are unique, so pop order is a total order independent
//! of how the entries got here; `tests/event_core_reference.rs` checks it
//! differentially against a `BinaryHeap`.

use crate::time::SimTime;

/// One scheduled entry. Ordered by `(at, seq)` only — `kind` is payload.
#[derive(Clone, Copy, Debug)]
pub struct QEntry<K> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: K,
}

impl<K> QEntry<K> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Priority queue of [`QEntry`]s popping in ascending `(at, seq)` order.
#[derive(Debug)]
pub struct EventQueue<K> {
    /// Sorted descending by key: the next entry to pop is last.
    entries: Vec<QEntry<K>>,
    max_depth: usize,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            max_depth: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of `len()` over the queue's lifetime.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, kind: K) {
        let e = QEntry { at, seq, kind };
        let key = e.key();
        if self.entries.last().is_none_or(|last| last.key() > key) {
            self.entries.push(e);
        } else {
            let pos = self.entries.partition_point(|x| x.key() > key);
            self.entries.insert(pos, e);
            let around = pos.saturating_sub(1)..pos + 2;
            debug_assert!(sorted(&self.entries[around]), "duplicate (at, seq) key");
        }
        self.max_depth = self.max_depth.max(self.entries.len());
    }

    /// Adds a batch in any order: one append and one sort, where pushing
    /// the entries one by one in ascending time would shift the whole
    /// vector each time.
    pub fn extend(&mut self, batch: impl IntoIterator<Item = QEntry<K>>) {
        self.entries.extend(batch);
        // Keys are unique, so an unstable sort is still deterministic.
        self.entries
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        debug_assert!(sorted(&self.entries), "duplicate (at, seq) key");
        self.max_depth = self.max_depth.max(self.entries.len());
    }

    #[inline]
    pub fn peek(&self) -> Option<&QEntry<K>> {
        self.entries.last()
    }

    #[inline]
    pub fn pop(&mut self) -> Option<QEntry<K>> {
        self.entries.pop()
    }

    /// Keeps only entries whose payload satisfies `f`; the pop order of the
    /// survivors is unchanged.
    pub fn retain(&mut self, mut f: impl FnMut(&K) -> bool) {
        self.entries.retain(|e| f(&e.kind));
        debug_assert!(sorted(&self.entries), "retain broke the order");
    }
}

/// Strictly descending by key.
fn sorted<K>(entries: &[QEntry<K>]) -> bool {
    entries.windows(2).all(|w| w[0].key() > w[1].key())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain<K>(q: &mut EventQueue<K>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.as_nanos(), e.seq))
            .collect()
    }

    /// Pops come out in `(at, seq)` order whatever the push pattern: ties
    /// broken by seq, far-future entries, pushes behind the current head.
    #[test]
    fn pops_in_time_seq_order() {
        let times = [5u64, 5, 131_072, 1, 70_000_000_000, 42, 131_071, 5];
        let mut q = EventQueue::new();
        for (seq, &ns) in times.iter().enumerate() {
            q.push(t(ns), seq as u64, ());
        }
        assert_eq!(q.max_depth(), times.len());
        assert_eq!(q.peek().map(|e| e.at), Some(t(1)));
        let mut expect: Vec<(u64, u64)> = times.iter().copied().zip(0..).collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
        assert_eq!(q.max_depth(), times.len());
    }

    /// A batch merges with what is already queued, in any input order.
    #[test]
    fn extend_merges_with_queued_entries() {
        let mut q = EventQueue::new();
        q.push(t(50), 0, ());
        q.push(t(10), 1, ());
        let batch = [(30, 2), (10, 3), (70, 4), (5, 5)];
        q.extend(batch.map(|(ns, seq)| QEntry {
            at: t(ns),
            seq,
            kind: (),
        }));
        assert_eq!(q.len(), 6);
        assert_eq!(q.max_depth(), 6);
        let want = vec![(5, 5), (10, 1), (10, 3), (30, 2), (50, 0), (70, 4)];
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn retain_drops_matching_entries_only() {
        let mut q = EventQueue::new();
        for i in 0..2000u64 {
            q.push(t(i * 50_000), i, i);
        }
        q.retain(|k| k % 3 != 0);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        let expect: Vec<u64> = (0..2000).filter(|k| k % 3 != 0).collect();
        assert_eq!(got, expect);
    }
}
