//! The engine's event queue: one vector sorted descending by `(at, seq)`.
//!
//! The entry to pop next is the last one, so `pop` is `Vec::pop`. A push
//! walks back from the tail, moving each entry that pops *before* the new
//! one a slot toward the end, and writes the new entry into the gap; a
//! push that pops next compares once and moves nothing. The walk visits
//! only the entries that pop before the new one, a handful at the depths
//! the engine sustains (under a hundred entries in every experiment, a few
//! hundred in the 63-service perf cell), so it beats a binary search plus
//! a `memmove` call. Its worst case is a push that pops last, which walks
//! the whole vector: the same O(n) as the shift it replaces. Pushing is
//! the one insertion path: the engine never loads a batch in ascending
//! time, the one pattern that would walk the whole vector on every push.
//! `remove`, rarer and deeper, keeps the binary search.
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
    fn key(&self) -> u128 {
        pack(self.at, self.seq)
    }
}

/// `(at, seq)` packed into one integer that orders as the pair does, so a
/// comparison is one subtract-with-borrow instead of two branches.
#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// Priority queue of [`QEntry`]s popping in ascending `(at, seq)` order.
#[derive(Debug)]
pub struct EventQueue<K> {
    /// Sorted descending by key: the next entry to pop is last.
    entries: Vec<QEntry<K>>,
    max_depth: usize,
}

impl<K: Copy> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy> EventQueue<K> {
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

    /// Walks back from the tail, moving each entry that pops before the new
    /// one a slot toward the end, and writes the new entry into the gap.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, kind: K) {
        let e = QEntry { at, seq, kind };
        let key = e.key();
        let mut i = self.entries.len();
        self.entries.push(e);
        while i > 0 && self.entries[i - 1].key() < key {
            self.entries[i] = self.entries[i - 1];
            i -= 1;
        }
        self.entries[i] = e;
        let len = self.entries.len();
        debug_assert!(
            sorted(&self.entries[i.saturating_sub(1)..(i + 2).min(len)]),
            "duplicate (at, seq) key"
        );
        self.max_depth = self.max_depth.max(len);
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
    /// rest is unchanged. A binary search and a shift of the entries that
    /// pop before it: a removed check sits deeper than a pushed entry lands,
    /// and there a tail walk measured no faster (DESIGN §6, "The queue walks
    /// from its tail").
    #[inline]
    pub fn remove(&mut self, at: SimTime, seq: u64) -> bool {
        let key = pack(at, seq);
        let pos = self.entries.partition_point(|x| x.key() > key);
        let found = self.entries.get(pos).is_some_and(|x| x.key() == key);
        if found {
            self.entries.remove(pos);
            let seam = pos.saturating_sub(1)..(pos + 1).min(self.entries.len());
            debug_assert!(sorted(&self.entries[seam]), "order broken closing the gap");
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

    fn drain<K: Copy>(q: &mut EventQueue<K>) -> Vec<(u64, u64)> {
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
