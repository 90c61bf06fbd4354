//! Per-class percentile-allocation subproblem.
//!
//! Once every service's LPR option `α_i` is fixed, the remaining freedom for
//! a class *j* is the percentile choice `β_ij` per service. Constraint 2 of
//! the model gives a shared budget of percentile *residuals*
//! (`Σ (100 − P[β]) ≤ 100 − x_j`), and we want the minimum achievable sum of
//! latencies under that budget — a multiple-choice knapsack solved exactly
//! by dynamic programming over the (discretized) residual budget.
//!
//! Residuals are discretized in units of [`RESIDUAL_UNIT`] percent; the grid
//! percentiles used across this workspace (90, 95, 99, 99.5, 99.9, …) are
//! exact multiples, so the discretization is lossless.

/// Residual discretization step, in percentage points.
pub const RESIDUAL_UNIT: f64 = 0.1;

/// Converts a percentile residual (percentage points) to integer units,
/// rounding *up* so feasibility is never overstated.
pub fn residual_units(residual: f64) -> usize {
    (residual / RESIDUAL_UNIT - 1e-9).ceil().max(0.0) as usize
}

/// Converts a residual *budget* to integer units, rounding *down* so the
/// budget is never overstated.
pub fn budget_units(budget: f64) -> usize {
    (budget / RESIDUAL_UNIT + 1e-9).floor().max(0.0) as usize
}

/// Outcome of the per-class DP.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAllocation {
    /// Minimum achievable sum of per-service latencies (seconds).
    pub latency_sum: f64,
    /// Chosen percentile index per participating service (same order as the
    /// `options` argument to [`min_latency_allocation`]).
    pub beta: Vec<usize>,
}

/// Computes the minimum total latency achievable for one class.
///
/// `options[k]` lists, for the *k*-th participating service, its available
/// `(latency_seconds, residual_units)` pairs — one per percentile-grid
/// column at the service's fixed LPR row. `budget` is the class residual
/// budget in units.
///
/// Returns `None` if even spending the whole budget cannot make every
/// service pick an option (i.e. the budget is smaller than the sum of
/// minimum residuals).
pub fn min_latency_allocation(
    options: &[Vec<(f64, usize)>],
    budget: usize,
) -> Option<ClassAllocation> {
    if options.is_empty() {
        return Some(ClassAllocation {
            latency_sum: 0.0,
            beta: Vec::new(),
        });
    }
    const INF: f64 = f64::INFINITY;
    let b = budget + 1;
    // dp[r] = min latency sum using services processed so far with exactly
    // <= r residual units spent; choice[k][r] = option picked at service k.
    let mut dp = vec![INF; b];
    dp[0] = 0.0;
    let mut choice: Vec<Vec<u32>> = Vec::with_capacity(options.len());
    for opts in options {
        debug_assert!(!opts.is_empty(), "each service needs at least one option");
        let mut next = vec![INF; b];
        let mut pick = vec![u32::MAX; b];
        for (oi, &(lat, res)) in opts.iter().enumerate() {
            for (spent, &prev) in dp.iter().enumerate().take(b.saturating_sub(res)) {
                if prev.is_finite() {
                    let total = spent + res;
                    let cand = prev + lat;
                    if cand < next[total] {
                        next[total] = cand;
                        pick[total] = oi as u32;
                    }
                }
            }
        }
        dp = next;
        choice.push(pick);
    }
    // Best over all spends within budget.
    let (best_spent, best) = dp
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))?;
    // Backtrack the choices.
    let mut beta = vec![0usize; options.len()];
    let mut spent = best_spent;
    let mut lat_left = *best;
    for k in (0..options.len()).rev() {
        // Find the recorded pick consistent with the running spend; the
        // stored table already identifies it directly.
        let oi = choice[k][spent] as usize;
        debug_assert!(oi != u32::MAX as usize, "backtrack hit an unreachable cell");
        beta[k] = oi;
        let (lat, res) = options[k][oi];
        spent -= res;
        lat_left -= lat;
    }
    debug_assert!(lat_left.abs() < 1e-6, "backtrack mismatch: {lat_left}");
    Some(ClassAllocation {
        latency_sum: *best,
        beta,
    })
}

/// What the allocation-free DP works in: two budget-indexed rows and, for
/// the recording pass, one row of picks per service. One per solver, grown
/// on first use and reused for every class of every node after that.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
    /// `pick[k * (budget + 1) + r]`: the column service `k` takes on the
    /// cheapest way for services `0..=k` to spend exactly `r` units.
    /// Written by the recording pass only, and only where reachable.
    pick: Vec<u32>,
}

/// Where a walk of the DP starts, and what it leaves behind.
///
/// The state after the first `at` rows depends on those rows alone, so
/// walks that share them — every option of one service, whose rows come
/// after the services before it — can share that state: the first walk
/// saves it, the others resume from it.
#[derive(Debug)]
pub(crate) enum Prefix<'p> {
    /// Walk every row from the start; save nothing.
    Whole,
    /// Walk every row from the start, leaving the state after the first
    /// `at` in `saved`.
    Save { at: usize, saved: &'p mut Vec<f64> },
    /// The rows given are the ones after the first `at`, whose state is
    /// `saved`.
    Resume { at: usize, saved: &'p [f64] },
}

impl Prefix<'_> {
    /// How many leading rows the walk is not given.
    pub(crate) fn skipped(&self) -> usize {
        match self {
            Prefix::Resume { at, .. } => *at,
            _ => 0,
        }
    }
}

/// The DP of [`min_latency_allocation`] without its allocations: the cheapest
/// spend (the smallest on ties) and its latency sum, bit for bit.
///
/// `rows` yields one latency row per participating service, in the order
/// [`min_latency_allocation`] would be given them, less any `prefix` skips;
/// column `g` of every row costs `res_cols[g]` residual units. Only the
/// cells up to the highest spend the services so far can reach are
/// initialised and walked, which for a wide budget (a p50 SLA has 501
/// cells) is a small prefix of the row — and all a saved state holds. With
/// `RECORD` the winning column of every reachable cell is kept in
/// `scratch.pick`; a recording walk starts from the first row.
fn walk<'a, const RECORD: bool>(
    rows: impl IntoIterator<Item = &'a [f64]>,
    res_cols: &[usize],
    budget: usize,
    scratch: &mut DpScratch,
    prefix: Prefix<'_>,
) -> Option<(usize, f64)> {
    const INF: f64 = f64::INFINITY;
    debug_assert!(!RECORD || matches!(prefix, Prefix::Whole));
    let stride = budget + 1;
    if scratch.cur.len() < stride {
        scratch.cur.resize(stride, INF);
        scratch.next.resize(stride, INF);
    }
    let DpScratch { cur, next, pick } = scratch;
    let (mut cur, mut next) = (&mut cur[..], &mut next[..]);
    // Widest column that fits: one over budget is skipped below and must
    // not stretch the walked prefix.
    let widest = res_cols
        .iter()
        .copied()
        .filter(|&res| res <= budget)
        .max()
        .unwrap_or(0);
    // cur[r] = min latency sum of the services so far spending exactly r
    // units, for r <= hi; cells above hi are stale.
    let (mut hi, mut save) = match prefix {
        Prefix::Whole => {
            cur[0] = 0.0;
            (0, None)
        }
        Prefix::Save { at, saved } => {
            cur[0] = 0.0;
            (0, Some((at, saved)))
        }
        Prefix::Resume { saved, .. } => {
            cur[..saved.len()].copy_from_slice(saved);
            (saved.len() - 1, None)
        }
    };
    for (k, row) in rows.into_iter().enumerate() {
        if let Some((_, saved)) = save.take_if(|(at, _)| *at == k) {
            saved.clear();
            saved.extend_from_slice(&cur[..=hi]);
        }
        if RECORD && pick.len() < (k + 1) * stride {
            pick.resize((k + 1) * stride, u32::MAX);
        }
        let next_hi = (hi + widest).min(budget);
        next[..=next_hi].fill(INF);
        for (g, (&lat, &res)) in row.iter().zip(res_cols).enumerate() {
            if res > budget {
                continue;
            }
            let reach = hi.min(budget - res);
            let slots = cur[..=reach].iter().zip(&mut next[res..=res + reach]);
            // An unreachable `prev` is infinite and never wins.
            if RECORD {
                for (spent, (&prev, slot)) in slots.enumerate() {
                    let cand = prev + lat;
                    if cand < *slot {
                        *slot = cand;
                        pick[k * stride + res + spent] = g as u32;
                    }
                }
            } else {
                // The same update as a select, not a branch: the compiler
                // makes it a branch-free minimum over the slots.
                for (&prev, slot) in slots {
                    let cand = prev + lat;
                    *slot = if cand < *slot { cand } else { *slot };
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
        hi = next_hi;
    }
    let mut best = (0, INF);
    for (spent, &sum) in cur[..=hi].iter().enumerate() {
        if sum < best.1 {
            best = (spent, sum);
        }
    }
    best.1.is_finite().then_some(best)
}

/// Feasibility-only form of [`min_latency_allocation`]: the same minimum
/// latency sum, bit for bit, with no choices recorded and nothing allocated
/// once `scratch` and any saved prefix have grown.
pub(crate) fn min_latency_sum<'a>(
    rows: impl IntoIterator<Item = &'a [f64]>,
    res_cols: &[usize],
    budget: usize,
    scratch: &mut DpScratch,
    prefix: Prefix<'_>,
) -> Option<f64> {
    walk::<false>(rows, res_cols, budget, scratch, prefix).map(|(_, sum)| sum)
}

/// Recording form of [`min_latency_sum`]: also writes the column each
/// service takes into `beta` (one slot per row) — the choices
/// [`min_latency_allocation`] returns, with nothing allocated once the
/// scratch has grown.
pub(crate) fn min_latency_choices<'a>(
    rows: impl IntoIterator<Item = &'a [f64]>,
    res_cols: &[usize],
    budget: usize,
    scratch: &mut DpScratch,
    beta: &mut [usize],
) -> Option<f64> {
    let (mut spent, sum) = walk::<true>(rows, res_cols, budget, scratch, Prefix::Whole)?;
    let stride = budget + 1;
    for (k, chosen) in beta.iter_mut().enumerate().rev() {
        let g = scratch.pick[k * stride + spent] as usize;
        debug_assert!(g != u32::MAX as usize, "backtrack hit an unreachable cell");
        *chosen = g;
        spent -= res_cols[g];
    }
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_conversions_are_safe() {
        assert_eq!(residual_units(1.0), 10); // p99 -> 1.0% -> 10 units
        assert_eq!(residual_units(0.1), 1); // p99.9
        assert_eq!(residual_units(0.5), 5); // p99.5
        assert_eq!(budget_units(1.0), 10);
        assert_eq!(budget_units(50.0), 500); // p50 SLA
                                             // Rounding directions: residuals up, budgets down.
        assert_eq!(residual_units(0.14), 2);
        assert_eq!(budget_units(0.14), 1);
    }

    #[test]
    fn empty_is_trivially_feasible() {
        let a = min_latency_allocation(&[], 0).unwrap();
        assert_eq!(a.latency_sum, 0.0);
        assert!(a.beta.is_empty());
    }

    #[test]
    fn single_service_picks_cheapest_within_budget() {
        // Options: (latency, residual): p99 costs 10 units but is fast;
        // p99.9 costs 1 unit but slower.
        let opts = vec![vec![(0.010, 10), (0.030, 1)]];
        // Budget 10 -> can afford p99.
        let a = min_latency_allocation(&opts, 10).unwrap();
        assert_eq!(a.beta, vec![0]);
        assert!((a.latency_sum - 0.010).abs() < 1e-12);
        // Budget 5 -> must take p99.9.
        let a = min_latency_allocation(&opts, 5).unwrap();
        assert_eq!(a.beta, vec![1]);
        // Budget 0 -> infeasible.
        assert!(min_latency_allocation(&opts, 0).is_none());
    }

    #[test]
    fn splits_budget_across_services() {
        // Two services; budget 11 units. Giving the slow service the loose
        // percentile (10 units) and the fast one the tight percentile
        // (1 unit) minimizes the sum.
        let slow = vec![(0.100, 10), (0.300, 1)];
        let fast = vec![(0.010, 10), (0.012, 1)];
        let a = min_latency_allocation(&[slow, fast], 11).unwrap();
        assert_eq!(a.beta, vec![0, 1]);
        assert!((a.latency_sum - 0.112).abs() < 1e-12);
    }

    #[test]
    fn exact_vs_exhaustive_on_random_instances() {
        use ursa_stats::rng::Rng;
        let mut rng = Rng::seed_from(99);
        for trial in 0..50 {
            let n = 1 + rng.index(4);
            let opts: Vec<Vec<(f64, usize)>> = (0..n)
                .map(|_| (0..3).map(|_| (rng.next_f64(), rng.index(6))).collect())
                .collect();
            let budget = rng.index(12);
            let dp = min_latency_allocation(&opts, budget);
            // Exhaustive reference.
            let mut best: Option<f64> = None;
            let mut idx = vec![0usize; n];
            loop {
                let spend: usize = idx.iter().enumerate().map(|(k, &i)| opts[k][i].1).sum();
                if spend <= budget {
                    let lat: f64 = idx.iter().enumerate().map(|(k, &i)| opts[k][i].0).sum();
                    best = Some(best.map_or(lat, |b: f64| b.min(lat)));
                }
                // Increment mixed-radix counter.
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < opts[k].len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
            match (dp, best) {
                (Some(a), Some(b)) => {
                    assert!(
                        (a.latency_sum - b).abs() < 1e-9,
                        "trial {trial}: {} vs {b}",
                        a.latency_sum
                    )
                }
                (None, None) => {}
                (a, b) => panic!("trial {trial}: dp {a:?} vs brute {b:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The allocation-free DP returns the reference DP's minimum, bit
        /// for bit, `None` exactly when it does and, when recording, its
        /// choices — whole or resumed from a state saved at any row, on a
        /// scratch left dirty by a wider call, with
        /// latencies coarse enough to tie and budgets down among the
        /// residuals, where columns stop fitting.
        #[test]
        fn kernel_matches_reference_dp(
            res_cols in proptest::collection::vec(0usize..101, 1..7),
            lats in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 6), 0..7),
            coarse in 0u8..2,
            budget in 0usize..601,
            narrow in 0u8..3,
        ) {
            let budget = budget % [601, 101, 12][narrow as usize];
            let rows: Vec<Vec<f64>> = lats
                .iter()
                .map(|r| {
                    r[..res_cols.len()]
                        .iter()
                        .map(|&l| if coarse == 1 { (l * 8.0).floor() / 8.0 } else { l })
                        .collect()
                })
                .collect();
            let options: Vec<Vec<(f64, usize)>> = rows
                .iter()
                .map(|r| r.iter().copied().zip(res_cols.iter().copied()).collect())
                .collect();
            let want = min_latency_allocation(&options, budget).map(|a| a.latency_sum.to_bits());
            let mut scratch = DpScratch::default();
            let sum = |scratch: &mut DpScratch, budget, prefix: Prefix<'_>| {
                let rows = rows[prefix.skipped()..].iter().map(Vec::as_slice);
                min_latency_sum(rows, &res_cols, budget, scratch, prefix).map(f64::to_bits)
            };
            sum(&mut scratch, 600, Prefix::Whole);
            prop_assert_eq!(sum(&mut scratch, budget, Prefix::Whole), want);
            // Saved at every split point, on a dirty scratch, and resumed
            // there: the walk is the uninterrupted one.
            for at in 0..rows.len() {
                let mut saved = vec![f64::NAN; 3];
                let whole = sum(&mut scratch, budget, Prefix::Save { at, saved: &mut saved });
                prop_assert_eq!(whole, want);
                sum(&mut scratch, 600, Prefix::Whole);
                let resumed = sum(&mut scratch, budget, Prefix::Resume { at, saved: &saved });
                prop_assert_eq!(resumed, want);
            }
            // The recording form makes the reference's choices too.
            let mut beta = vec![usize::MAX; rows.len()];
            let sum = min_latency_choices(
                rows.iter().map(Vec::as_slice),
                &res_cols,
                budget,
                &mut scratch,
                &mut beta,
            );
            prop_assert_eq!(sum.map(f64::to_bits), want);
            if let Some(reference) = min_latency_allocation(&options, budget) {
                prop_assert_eq!(beta, reference.beta);
            }
        }
    }

    #[test]
    fn backtracked_choices_are_consistent() {
        let opts = vec![
            vec![(0.5, 3), (0.9, 1)],
            vec![(0.2, 2), (0.4, 0)],
            vec![(0.1, 4), (0.7, 2)],
        ];
        let a = min_latency_allocation(&opts, 7).unwrap();
        let lat: f64 = a.beta.iter().enumerate().map(|(k, &i)| opts[k][i].0).sum();
        let res: usize = a.beta.iter().enumerate().map(|(k, &i)| opts[k][i].1).sum();
        assert!((lat - a.latency_sum).abs() < 1e-12);
        assert!(res <= 7);
    }
}
