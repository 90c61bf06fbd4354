//! The engine's event queue: one vector sorted descending by `(at, seq)`.
//!
//! The entry to pop next is the last one, so `pop` is `Vec::pop`. A push
//! that pops next — the common case — is `Vec::push`; any other push
//! binary-searches its place and shifts only the entries that pop *before*
//! it, which at the depths the engine sustains (under a hundred entries in
//! every experiment, a few hundred in the 63-service perf cell) is one or
//! two cache lines of `memmove`. Pushing is the one insertion path: the
//! engine never loads a batch in ascending time, the one pattern that
//! would shift the whole vector on every push.
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

    #[inline]
    pub fn peek(&self) -> Option<&QEntry<K>> {
        self.entries.last()
    }

    #[inline]
    pub fn pop(&mut self) -> Option<QEntry<K>> {
        self.entries.pop()
    }

    /// Removes the entry keyed `(at, seq)`, if queued; the pop order of the
    /// rest is unchanged. Costs what the matching `push` cost: a binary
    /// search and a shift of the entries that pop before it.
    #[inline]
    pub fn remove(&mut self, at: SimTime, seq: u64) -> bool {
        let key = (at, seq);
        let pos = self.entries.partition_point(|x| x.key() > key);
        let found = self.entries.get(pos).is_some_and(|x| x.key() == key);
        if found {
            self.entries.remove(pos);
        }
        found
    }

    /// The queued entries, next to pop last.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[QEntry<K>] {
        &self.entries
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

    /// Keyed removal takes exactly the named entry — head, deepest, one of a
    /// tie — and reports an absent key without touching the queue.
    #[test]
    fn remove_takes_the_keyed_entry_only() {
        let mut q = EventQueue::new();
        for seq in 0..6u64 {
            q.push(t(10 * (seq / 2)), seq, seq);
        }
        assert!(q.remove(t(0), 0), "current head");
        assert!(q.remove(t(20), 5), "deepest entry");
        assert!(q.remove(t(10), 2), "first of a tie");
        for (at, seq) in [(10, 2), (10, 4), (20, 3), (30, 6)] {
            assert!(!q.remove(t(at), seq), "({at}, {seq}) is not queued");
        }
        assert_eq!(q.max_depth(), 6);
        assert_eq!(drain(&mut q), vec![(0, 1), (10, 3), (20, 4)]);
        assert!(!q.remove(t(0), 1), "empty queue");
    }
}
