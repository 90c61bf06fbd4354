//! Generational arena for in-flight requests, laid out struct-of-arrays.
//!
//! The engine keeps one record per in-flight request (class, arrival time,
//! response count) plus one record per *hop* of that request (phase, queue
//! timestamps, replica assignment, …). The previous layout boxed each
//! request's hop records in a recycled `Vec<NodeRt>` behind an
//! `Option<RequestRt>`: every hop access paid an `Option` check, a pointer
//! chase into a separately-allocated vector, and a ~100-byte struct stride.
//!
//! Here both levels live flat:
//!
//! * **Slot records** — one packed 32-byte record per request slot
//!   (everything `alloc`/`release` touches sits in one cache line),
//!   recycled LIFO through `free` (the exact free-list discipline of the
//!   old layout, so slot IDs — which feed the tracer — are
//!   bit-identical).
//! * **Node arrays** — one entry per hop, public so the engine's hot path
//!   indexes them directly. Each slot owns a contiguous region
//!   `[node_base, node_base + num_nodes)`; regions are carved once and
//!   only re-carved when a slot is reused for a *larger* call tree (caps
//!   grow monotonically, so the orphaned-region leak is bounded by the
//!   number of distinct tree sizes). Reusing a region is a handful of
//!   `slice::fill` sweeps over primitive arrays — branch-free and
//!   auto-vectorizable, where the old layout cloned a `NodeRt` per hop.
//!
//! Stale-token protection is generational: [`release`](ReqArena::release)
//! bumps the slot's generation, so a token minted for a completed request
//! can never alias its slot's next tenant. [`node_index`](ReqArena::node_index)
//! asserts the generation match under `debug_assertions` — CI runs the
//! differential proptests in a debug profile precisely so misuse panics
//! there instead of corrupting a release run.

use crate::time::{SimDur, SimTime};

/// Sentinel for [`ReqArena::daemon_of`]: this hop frees no daemon.
pub const NO_DAEMON: u64 = u64::MAX;

/// Lifecycle phase of one hop of an in-flight request.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Queued,
    Pre,
    Issuing,
    BlockedDaemon,
    Waiting,
    Post,
    Responded,
}

/// Packed per-request record: one cache line covers everything the
/// alloc/release path and the per-request accessors read.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    arrival: SimTime,
    class: u32,
    gen: u32,
    node_base: u32,
    num_nodes: u16,
    node_cap: u16,
    responded: u16,
    traced: bool,
}

/// Arena of request slots (packed records) and their hop state (SoA).
#[derive(Debug, Default)]
pub struct ReqArena {
    slots: Vec<SlotMeta>,
    /// LIFO free list — must stay LIFO: slot assignment order is part of
    /// the engine's bit-identical-output contract (trace IDs).
    free: Vec<u32>,

    // ---- per-node (hop) arrays, indexed via `node_index` --------------
    pub phase: Vec<Phase>,
    pub enqueue_at: Vec<SimTime>,
    pub nested_wait: Vec<SimDur>,
    pub wait_start: Vec<SimTime>,
    pub awaiting: Vec<u16>,
    pub next_child: Vec<u16>,
    pub replica: Vec<u32>,
    /// Replica whose daemon pool this hop's response frees, packed as
    /// `(service << 32) | replica`; [`NO_DAEMON`] when none.
    pub daemon_of: Vec<u64>,
}

impl ReqArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot for a new request and resets its node region.
    /// Returns the slot ID; read the matching generation with [`gen`](Self::gen).
    pub fn alloc(&mut self, class: u32, arrival: SimTime, num_nodes: u16, traced: bool) -> u32 {
        match self.free.pop() {
            Some(s) => {
                let si = s as usize;
                let m = &mut self.slots[si];
                m.class = class;
                m.arrival = arrival;
                m.responded = 0;
                m.num_nodes = num_nodes;
                m.traced = traced;
                if m.node_cap < num_nodes {
                    // Larger call tree than this slot ever held: carve a
                    // fresh region at the end (caps only grow).
                    m.node_base = self.phase.len() as u32;
                    m.node_cap = num_nodes;
                    self.grow_nodes(num_nodes as usize);
                } else {
                    let base = m.node_base as usize;
                    self.reset_nodes(base, num_nodes as usize);
                }
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(SlotMeta {
                    arrival,
                    class,
                    gen: 0,
                    node_base: self.phase.len() as u32,
                    num_nodes,
                    node_cap: num_nodes,
                    responded: 0,
                    traced,
                });
                self.grow_nodes(num_nodes as usize);
                s
            }
        }
    }

    /// Frees a slot: bumps its generation (invalidating every outstanding
    /// token) and returns it to the LIFO free list.
    pub fn release(&mut self, slot: u32) {
        let si = slot as usize;
        self.slots[si].gen = self.slots[si].gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// True iff `gen` is the slot's current generation. The generation is
    /// bumped exactly when a slot is freed, so a match implies the token's
    /// request is still in flight.
    #[inline]
    pub fn alive(&self, slot: u32, gen: u32) -> bool {
        matches!(self.slots.get(slot as usize), Some(m) if m.gen == gen)
    }

    #[inline]
    pub fn gen(&self, slot: u32) -> u32 {
        self.slots[slot as usize].gen
    }

    #[inline]
    pub fn class(&self, slot: u32) -> usize {
        self.slots[slot as usize].class as usize
    }

    #[inline]
    pub fn arrival(&self, slot: u32) -> SimTime {
        self.slots[slot as usize].arrival
    }

    #[inline]
    pub fn traced(&self, slot: u32) -> bool {
        self.slots[slot as usize].traced
    }

    #[inline]
    pub fn num_nodes(&self, slot: u32) -> u16 {
        self.slots[slot as usize].num_nodes
    }

    /// Counts one hop response; true when every hop has now responded.
    #[inline]
    pub fn respond_one(&mut self, slot: u32) -> bool {
        let m = &mut self.slots[slot as usize];
        m.responded += 1;
        m.responded == m.num_nodes
    }

    /// Index of hop `node` of the request in `slot` into the node arrays.
    ///
    /// The generation check is the arena's safety net: with debug
    /// assertions on, presenting a stale token panics instead of silently
    /// reading the slot's next tenant.
    #[inline]
    pub fn node_index(&self, slot: u32, gen: u32, node: u16) -> usize {
        let m = &self.slots[slot as usize];
        debug_assert_eq!(
            m.gen, gen,
            "generational index misuse: stale token for slot {slot}"
        );
        debug_assert!(
            node < m.num_nodes,
            "node {node} out of range for slot {slot} ({} nodes)",
            m.num_nodes
        );
        m.node_base as usize + node as usize
    }

    /// High-water mark of request slots ever allocated.
    pub fn slots_high_water(&self) -> usize {
        self.slots.len()
    }

    fn grow_nodes(&mut self, n: usize) {
        let new_len = self.phase.len() + n;
        self.phase.resize(new_len, Phase::Queued);
        self.enqueue_at.resize(new_len, SimTime::ZERO);
        self.nested_wait.resize(new_len, SimDur::ZERO);
        self.wait_start.resize(new_len, SimTime::ZERO);
        self.awaiting.resize(new_len, 0);
        self.next_child.resize(new_len, 0);
        self.replica.resize(new_len, 0);
        self.daemon_of.resize(new_len, NO_DAEMON);
    }

    /// Resets a reused node region to the fresh-hop state — the SoA sweep:
    /// eight contiguous primitive fills instead of a per-hop struct clone.
    fn reset_nodes(&mut self, base: usize, n: usize) {
        let end = base + n;
        self.phase[base..end].fill(Phase::Queued);
        self.enqueue_at[base..end].fill(SimTime::ZERO);
        self.nested_wait[base..end].fill(SimDur::ZERO);
        self.wait_start[base..end].fill(SimTime::ZERO);
        self.awaiting[base..end].fill(0);
        self.next_child[base..end].fill(0);
        self.replica[base..end].fill(0);
        self.daemon_of[base..end].fill(NO_DAEMON);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_lifo_and_generational() {
        let mut a = ReqArena::new();
        let s0 = a.alloc(0, SimTime::ZERO, 2, false);
        let s1 = a.alloc(1, SimTime::ZERO, 2, false);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(a.gen(s0), 0);
        assert!(a.alive(s0, 0));
        a.release(s0);
        assert!(!a.alive(s0, 0), "released slot invalidates old tokens");
        // LIFO: the freed slot is handed out next, same generation.
        let s2 = a.alloc(7, SimTime::ZERO, 1, true);
        assert_eq!(s2, s0);
        assert_eq!(a.gen(s2), 1);
        assert!(a.alive(s2, 1));
        assert_eq!(a.class(s2), 7);
        assert!(a.traced(s2));
    }

    #[test]
    fn node_regions_reset_on_reuse() {
        let mut a = ReqArena::new();
        let s = a.alloc(0, SimTime::ZERO, 3, false);
        let g = a.gen(s);
        let i = a.node_index(s, g, 1);
        a.phase[i] = Phase::Post;
        a.awaiting[i] = 5;
        a.daemon_of[i] = 42;
        a.release(s);
        let s2 = a.alloc(0, SimTime::ZERO, 3, false);
        assert_eq!(s2, s, "same slot, same region");
        let i2 = a.node_index(s2, a.gen(s2), 1);
        assert_eq!(i2, i);
        assert_eq!(a.phase[i2], Phase::Queued);
        assert_eq!(a.awaiting[i2], 0);
        assert_eq!(a.daemon_of[i2], NO_DAEMON);
    }

    #[test]
    fn node_region_grows_when_reused_larger() {
        let mut a = ReqArena::new();
        let s = a.alloc(0, SimTime::ZERO, 2, false);
        let old_base = a.node_index(s, a.gen(s), 0);
        a.release(s);
        let s2 = a.alloc(0, SimTime::ZERO, 8, false);
        assert_eq!(s2, s);
        let new_base = a.node_index(s2, a.gen(s2), 0);
        assert!(new_base > old_base, "larger tree gets a fresh region");
        assert_eq!(a.phase.len(), 10);
        // Shrinking reuses the (larger) existing region.
        a.release(s2);
        let s3 = a.alloc(0, SimTime::ZERO, 4, false);
        assert_eq!(a.node_index(s3, a.gen(s3), 0), new_base);
        assert_eq!(a.phase.len(), 10);
    }

    #[test]
    fn respond_one_counts_to_completion() {
        let mut a = ReqArena::new();
        let s = a.alloc(0, SimTime::ZERO, 2, false);
        assert!(!a.respond_one(s));
        assert!(a.respond_one(s));
    }

    #[test]
    fn high_water_marks_track_allocation() {
        let mut a = ReqArena::new();
        for _ in 0..4 {
            let s = a.alloc(0, SimTime::ZERO, 2, false);
            a.release(s);
        }
        assert_eq!(a.slots_high_water(), 1, "LIFO reuse keeps one slot");
        let keep: Vec<u32> = (0..3)
            .map(|_| a.alloc(0, SimTime::ZERO, 2, false))
            .collect();
        assert_eq!(a.slots_high_water(), 3);
        assert_eq!(a.phase.len(), 6);
        for s in keep {
            a.release(s);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "generational index misuse")]
    fn stale_token_panics_in_debug() {
        let mut a = ReqArena::new();
        let s = a.alloc(0, SimTime::ZERO, 1, false);
        let g = a.gen(s);
        a.release(s);
        a.alloc(0, SimTime::ZERO, 1, false);
        let _ = a.node_index(s, g, 0);
    }
}
