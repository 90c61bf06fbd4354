//! The workspace's one worker pool: an ordered map over scoped threads.
//!
//! Every fan-out in the workspace is a list of independent jobs that each
//! own their seed and their simulation — experiment cells in the harness,
//! per-service exploration and profiling in `ursa-core` — so any thread
//! may run any job in any order, provided results come back in input
//! order. [`map_ordered`] is that contract. It lives here, beside the
//! shared logging, because this is the lowest crate both `ursa-core` and
//! `ursa-bench` depend on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of cores available to this process (1 if unknown): the pool
/// width for work whose output does not depend on the width.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on at most `workers` threads and returns the
/// results in input order. Workers claim the next unclaimed item as they
/// finish, so at most `workers` items are in progress at once.
/// `workers <= 1` (or a single item) maps on the calling thread with no
/// thread machinery at all.
///
/// # Panics
///
/// Re-raises the first worker panic with its original payload, after the
/// remaining workers have stopped (a panicking job fails the whole map,
/// exactly as it would sequentially).
pub fn map_ordered<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let n = items.len();
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Each mutex is locked by exactly one worker (the one
                    // that drew index `i`), so none can be poisoned here.
                    let item = work[i]
                        .lock()
                        .expect("item mutex is never shared")
                        .take()
                        .expect("item claimed once");
                    let out = f(i, item);
                    *slots[i].lock().expect("slot mutex is never shared") = Some(out);
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex is never shared")
                .expect("every item completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let seq = map_ordered(1, items.clone(), |i, x| (i, x * x));
        let par = map_ordered(8, items, |i, x| (i, x * x));
        assert_eq!(seq, par);
        assert_eq!(par[10], (10, 100));
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(4, empty, |_, x| x).is_empty());
        assert_eq!(map_ordered(4, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items() {
        let out = map_ordered(64, vec![1u64, 2, 3], |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn never_runs_more_than_workers_at_once() {
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        map_ordered(3, (0..24).collect(), |_, _: usize| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(high_water.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn propagates_the_original_panic() {
        map_ordered(4, (0..16).collect(), |i, _: usize| {
            assert!(i != 5, "job {i} failed");
        });
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
