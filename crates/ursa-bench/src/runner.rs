//! Parallel cell runner.
//!
//! Every experiment in the harness is a sweep over independent *cells*
//! (app × system × load × seed). Each cell owns its seeded RNG and its
//! own metrics/trace sinks, so cells can run on any thread in any order —
//! as long as results are collected back in cell order, every TSV, trace,
//! and metrics artifact is byte-identical to a sequential run.
//!
//! [`run_cells`] is that contract: it maps a closure over a list of cell
//! inputs on [`ursa_metrics::pool`] (the workspace's one worker pool) and
//! returns the outputs in input order. The pool width comes from the
//! global jobs setting (`--jobs N` on the CLI; defaults to the number of
//! available cores). With one job the cells are mapped inline with no
//! thread machinery at all, so for *cells* `--jobs 1` is exactly the
//! historical sequential harness.
//!
//! `--jobs` governs cells only. Manager preparation
//! ([`PreparedManagers::prepare`](crate::PreparedManagers::prepare) and,
//! inside it, Ursa's per-service exploration) always uses the available
//! cores: its output is bit-identical at any width, so there is nothing
//! for the setting to select (DESIGN.md §6, "Preparation cost model").

use std::sync::atomic::{AtomicUsize, Ordering};

use ursa_metrics::pool;

/// Global worker count. 0 = unset (use available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the global worker count (`--jobs N`). 0 resets to the default.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Effective worker count: the `--jobs` setting, or the number of
/// available cores when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => pool::default_workers(),
        n => n,
    }
}

/// Runs `f` over `items` on the globally configured number of workers and
/// returns the results in input order.
pub fn run_cells<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    pool::map_ordered(jobs(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_default_is_positive() {
        assert!(jobs() >= 1);
    }
}
