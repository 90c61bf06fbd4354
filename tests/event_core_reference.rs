//! Differential tests of the event-core data structures.
//!
//! The engine swapped two load-bearing structures whose observable
//! behavior must be *exactly* the old one's — the bit-identical-output
//! contract of the whole grid rides on them:
//!
//! * [`EventQueue`] replaced `BinaryHeap<Reverse<(at, seq)>>` as the event
//!   queue. It is one vector sorted descending by `(at, seq)`: pops must
//!   come out in strict `(at, seq)` order whatever order they were pushed
//!   in, and `remove` must take exactly the keyed entry, or nothing — so
//!   the proptests drive it against the old `BinaryHeap` through
//!   randomized push/pop/remove schedules (with deliberate timestamp
//!   ties), shallow and thousands of entries deep. They run in the dev
//!   profile, where the queue re-checks its order after every insert.
//!
//! * [`ReqArena`] replaced per-class pooled `Vec<Vec<NodeRt>>` request
//!   state. Slot IDs feed traces, so the arena
//!   must recycle slots in the *same LIFO order* the old free list did,
//!   and generations must invalidate exactly the released slot — checked
//!   against a naive boxed-per-request reference model over random
//!   alloc/touch/release schedules with random call-tree widths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use ursa::sim::arena::{Phase, ReqArena};
use ursa::sim::evq::EventQueue;
use ursa::sim::time::SimTime;

// ---------------------------------------------------------------------
// Event queue vs BinaryHeap
// ---------------------------------------------------------------------

/// The pre-v3 event queue: a min-heap over `(at, seq)`, with keyed
/// `remove` implemented as drain-filter-rebuild.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl RefHeap {
    fn push(&mut self, at: u64, seq: u64, kind: u32) {
        self.heap.push(Reverse((at, seq, kind)));
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek(&self) -> Option<(u64, u64, u32)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    fn remove(&mut self, at: u64, seq: u64) -> bool {
        let before = self.heap.len();
        let kept: Vec<_> = self.heap.drain().collect();
        let keyed = |&Reverse(e): &Reverse<(u64, u64, u32)>| (e.0, e.1) == (at, seq);
        self.heap = kept.into_iter().filter(|e| !keyed(e)).collect();
        self.heap.len() < before
    }

    /// Key of the entry that pops last.
    fn deepest(&self) -> Option<(u64, u64)> {
        self.heap.iter().map(|&Reverse(e)| (e.0, e.1)).max()
    }
}

/// One step of the randomized schedule. `pick` selects the operation,
/// `off` the push offset ahead of the current virtual now. Offsets are
/// drawn from a *small* set of buckets so timestamp collisions (ties
/// broken only by `seq`) are common rather than astronomically rare.
fn ops_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..48), len)
}

/// Drives both queues through the same schedule and requires identical
/// peek/pop streams; returns the deepest the queue got. `tie_scale`
/// quantizes offsets into few distinct timestamps; `push_bias` makes the
/// queue grow as long as the schedule lasts instead of hovering near empty.
fn run_differential(ops: &[(u8, u64)], tie_scale: u64, push_bias: bool) -> usize {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut r = RefHeap::default();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut kind = 0u32;
    // `at_of[seq]`: where every entry ever pushed was keyed.
    let mut at_of: Vec<u64> = Vec::new();
    for &(pick, off) in ops {
        let is_push = if push_bias { pick < 6 } else { pick < 3 };
        if is_push {
            // Quantized offsets make (at, seq) ties routine; a huge
            // offset every 16th kind lands far behind everything else.
            let far = if kind % 16 == 15 { 1 << 40 } else { 0 };
            let at = now + off * tie_scale + far;
            r.push(at, seq, kind);
            at_of.push(at);
            q.push(SimTime::from_nanos(at), seq, kind);
            seq += 1;
            kind += 1;
        } else if pick == 6 {
            // Keyed removal, like the engine cancelling a superseded
            // check: the head, the deepest entry, a recent push (queued
            // still, or popped or removed since), a key never pushed.
            let recent = seq.saturating_sub(1 + off);
            let key = match off % 4 {
                0 => r.peek().map(|(at, seq, _)| (at, seq)),
                1 => r.deepest(),
                2 => at_of.get(recent as usize).map(|&at| (at, recent)),
                _ => at_of.get(recent as usize).map(|&at| (at, seq + off)),
            };
            if let Some((at, key_seq)) = key {
                let want = r.remove(at, key_seq);
                match off % 4 {
                    0 | 1 => assert!(want, "head and deepest are queued"),
                    3 => assert!(!want, "a seq not yet issued is not queued"),
                    _ => {}
                }
                let got = q.remove(SimTime::from_nanos(at), key_seq);
                assert_eq!(got, want, "remove({at}, {key_seq}) diverged at seq {seq}");
            }
        } else {
            assert_eq!(
                q.peek().map(|e| (e.at.as_nanos(), e.seq, e.kind)),
                r.peek(),
                "peek diverged at seq {seq}"
            );
            let got = q.pop().map(|e| (e.at.as_nanos(), e.seq, e.kind));
            let want = r.pop();
            assert_eq!(got, want, "pop diverged at seq {seq}");
            if let Some((at, _, _)) = want {
                now = at;
            }
        }
        assert_eq!(q.len(), r.heap.len(), "len diverged");
    }
    // Drain both completely: every remaining entry must come out in the
    // same total order.
    loop {
        let got = q.pop().map(|e| (e.at.as_nanos(), e.seq, e.kind));
        let want = r.pop();
        assert_eq!(got, want, "drain diverged");
        if want.is_none() {
            break;
        }
    }
    q.max_depth()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small schedules: the queue hovers at the depths the engine runs at.
    #[test]
    fn event_queue_matches_heap_small(ops in ops_strategy(1..120)) {
        run_differential(&ops, 1_000, false);
    }

    /// Dense ties: offsets quantized to 4 distinct timestamps, so almost
    /// every pop is decided by the seq tie-break alone.
    #[test]
    fn event_queue_matches_heap_under_dense_ties(ops in ops_strategy(1..400)) {
        let tied: Vec<_> = ops.iter().map(|&(p, o)| (p, o % 4)).collect();
        run_differential(&tied, 1 << 20, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deep: a push-biased schedule long enough to hold more than 5 000
    /// live entries, with interleaved keyed removals and 8 distinct
    /// timestamps per tie bucket, then drained to empty.
    #[test]
    fn event_queue_matches_heap_deep(ops in ops_strategy(10_000..11_000)) {
        let tied: Vec<_> = ops.iter().map(|&(p, o)| (p, o % 8)).collect();
        let deepest = run_differential(&tied, 1 << 16, true);
        prop_assert!(deepest >= 5_000, "only {deepest} entries deep");
    }
}

// ---------------------------------------------------------------------
// Request arena vs pooled-vec reference
// ---------------------------------------------------------------------

/// The pre-v3 request state: one boxed record per request, slots handed
/// out through an explicit LIFO free list (this is the discipline whose
/// slot-ID sequence the arena must reproduce bit-for-bit).
#[derive(Default)]
struct RefPool {
    reqs: Vec<Option<RefReq>>,
    free: Vec<u32>,
}

struct RefReq {
    class: u32,
    num_nodes: u16,
    responded: u16,
    phases: Vec<Phase>,
    replicas: Vec<u32>,
}

impl RefPool {
    fn alloc(&mut self, class: u32, num_nodes: u16) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.reqs.push(None);
                (self.reqs.len() - 1) as u32
            }
        };
        self.reqs[slot as usize] = Some(RefReq {
            class,
            num_nodes,
            responded: 0,
            phases: vec![Phase::Queued; num_nodes as usize],
            replicas: vec![0; num_nodes as usize],
        });
        slot
    }

    fn release(&mut self, slot: u32) {
        self.reqs[slot as usize] = None;
        self.free.push(slot);
    }

    fn live(&self) -> Vec<u32> {
        (0..self.reqs.len() as u32)
            .filter(|&s| self.reqs[s as usize].is_some())
            .collect()
    }
}

/// A schedule of arena operations: `(pick, width, detail)` where `width`
/// sizes a fresh request's call tree (the "random topology" — hop counts
/// vary per request, so node regions of different widths get recycled
/// into each other's slots).
fn arena_ops() -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    proptest::collection::vec((0u8..8, 1u16..9, 0u32..1_000_000), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lockstep lifecycle: identical slot-ID streams, per-hop state
    /// isolation, completion counting, and generation invalidation.
    #[test]
    fn arena_matches_pooled_vec_lifecycle(ops in arena_ops()) {
        let mut a = ReqArena::new();
        let mut r = RefPool::default();
        // Live tokens: (slot, gen) pairs the arena handed out.
        let mut gens: Vec<(u32, u32)> = Vec::new();
        for (i, &(pick, width, detail)) in ops.iter().enumerate() {
            let live = r.live();
            if pick < 4 || live.is_empty() {
                // Alloc: the arena must pick the same slot the LIFO
                // reference picks.
                let slot = a.alloc(detail, SimTime::from_nanos(i as u64), width, false);
                let want = r.alloc(detail, width);
                prop_assert_eq!(slot, want, "slot allocation order diverged");
                gens.push((slot, a.gen(slot)));
                // A fresh slot starts with every hop Queued — even when
                // the slot previously held a wider or narrower request.
                for n in 0..width {
                    let ni = a.node_index(slot, a.gen(slot), n);
                    prop_assert_eq!(a.phase[ni], Phase::Queued);
                    prop_assert_eq!(a.replica[ni], 0);
                }
            } else if pick < 6 {
                // Touch: write hop state through one model, mirror in
                // the other, then verify *every* live request still
                // reads back its own state (no cross-slot aliasing).
                let slot = live[detail as usize % live.len()];
                let req = r.reqs[slot as usize].as_mut().unwrap();
                let hop = (detail % req.num_nodes as u32) as u16;
                let ni = a.node_index(slot, a.gen(slot), hop);
                a.phase[ni] = Phase::Pre;
                a.replica[ni] = detail;
                req.phases[hop as usize] = Phase::Pre;
                req.replicas[hop as usize] = detail;
                for &s in &live {
                    let req = r.reqs[s as usize].as_ref().unwrap();
                    prop_assert_eq!(a.class(s), req.class as usize);
                    prop_assert_eq!(a.num_nodes(s), req.num_nodes);
                    for n in 0..req.num_nodes {
                        let ni = a.node_index(s, a.gen(s), n);
                        prop_assert_eq!(a.phase[ni], req.phases[n as usize]);
                        prop_assert_eq!(a.replica[ni], req.replicas[n as usize]);
                    }
                }
            } else if pick == 6 {
                // Respond one hop; completion must agree with the
                // reference's counter.
                let slot = live[detail as usize % live.len()];
                let req = r.reqs[slot as usize].as_mut().unwrap();
                if req.responded < req.num_nodes {
                    req.responded += 1;
                    let done = a.respond_one(slot);
                    prop_assert_eq!(done, req.responded == req.num_nodes);
                }
            } else {
                // Release: the freed slot's old generation dies; every
                // other live token survives.
                let slot = live[detail as usize % live.len()];
                let old_gen = a.gen(slot);
                a.release(slot);
                r.release(slot);
                prop_assert!(!a.alive(slot, old_gen), "released token stayed alive");
                gens.retain(|&(s, _)| s != slot);
                for &(s, g) in &gens {
                    prop_assert!(a.alive(s, g), "release killed an unrelated token");
                }
            }
            prop_assert_eq!(
                a.slots_high_water(),
                r.reqs.len(),
                "slot high-water diverged"
            );
        }
    }
}
