//! Solvers for the Ursa optimization model.
//!
//! Three solvers, in increasing cost:
//!
//! * [`solve_greedy`] — start fully provisioned, repeatedly take the single
//!   LPR downgrade with the best resource saving that keeps every class
//!   feasible. Fast, good incumbent, not always optimal.
//! * [`solve`] — exact branch-and-bound over per-service LPR choices, with
//!   the per-class DP of [`crate::dp`] as the feasibility oracle and a
//!   greedy incumbent for pruning. This is the production entry point
//!   (standing in for the paper's Gurobi).
//! * [`solve_brute_force`] — exhaustive enumeration; cross-validation in
//!   tests only.
//!
//! The model splits along the line load draws through it: the resource
//! table `R_i[α]` is the only part that moves with the offered load
//! (Equation 3), every latency row, residual budget and SLA target is fixed
//! by exploration. A [`Solver`] is the fixed half prepared once — the model
//! validated, per-class tables and optimistic rows, the verdict on each
//! class alone, the greedy start, and every answer the DP can give for a
//! class whose option space is small — and [`Solver::solve_at`] prices it
//! with one resource table: it re-derives the branch order and the cost
//! bound, descends, searches and records, and allocates nothing while it
//! does. [`solve`] and [`solve_greedy`] are a `Solver` used once.
//!
//! The greedy descent and the branch-and-bound ask one question, "is class
//! *k* still feasible?", and only for the classes of the service they just
//! moved: a class none of whose services changed keeps the verdict it had.
//! Its answer does not depend on load, and a class's option space — each
//! participating service at one of its LPR options or undecided — has a few
//! dozen to a few hundred entries in Ursa's models. So preparation asks the
//! feasibility-only kernel `dp::min_latency_sum` once per entry and keeps
//! the verdicts, and the recording kernel `dp::min_latency_choices` once
//! per full assignment and keeps the percentile choices; a recalculation
//! then looks both up. The tables are complete, not a cache: built before
//! the first call, sized by the model, and the same for every call. A
//! class with more than 1 024 entries keeps asking the DP at query time,
//! resuming walks from saved prefixes.
//!
//! Preparation also asks, once per LPR option, whether the option can ever
//! be part of a feasible assignment: whether every class of its service is
//! met with that service at the option and every other at its optimistic
//! row. Deciding a service only raises its row, and the DP is monotone in
//! its rows, so an option that fails there fails at every node of every
//! search, whatever the load. The search never prices such an option, its
//! bound sums each undecided service's cheapest *viable* option, and the
//! greedy descent never queues a move to one; the decisions are the same,
//! reached through fewer nodes. The brute-force reference shares none of
//! this: it runs the allocating [`min_latency_allocation`] on every
//! assignment.

use crate::dp::{
    budget_units, min_latency_allocation, min_latency_choices, min_latency_sum, residual_units,
    DpScratch, Prefix,
};
use crate::model::{LatencyMatrix, MipModel, ModelError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A greedy move keyed for a max-heap: the saving's bits, then the moved
/// service and its new option, each smallest first.
type Move = (u64, Reverse<usize>, Reverse<usize>);

/// A solved allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solution {
    /// Total resource cost in cores (the objective).
    pub objective: f64,
    /// Chosen LPR option per service (the paper's δ).
    pub lpr_choice: Vec<usize>,
    /// For each constraint (in model order): the chosen percentile index per
    /// participating service (the paper's γ), aligned with
    /// [`MipModel::services_of_class`] order.
    pub percentile_choice: Vec<Vec<usize>>,
    /// Whether the solver proved optimality (false only if the node budget
    /// was exhausted).
    pub proved_optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: u64,
}

impl Solution {
    /// The model's latency estimate for the `k`-th constraint's class: the
    /// sum of chosen per-service latencies (the Theorem-1 upper bound that
    /// Ursa reports as its estimated end-to-end latency).
    pub fn estimated_latency(&self, model: &MipModel, k: usize) -> f64 {
        let c = &model.constraints[k];
        let services = model.services_of_class(c.class);
        services
            .iter()
            .zip(&self.percentile_choice[k])
            .map(|(&s, &beta)| {
                let m = model.services[s].latency[c.class]
                    .as_ref()
                    .expect("participating");
                m.at(self.lpr_choice[s], beta)
            })
            .sum()
    }
}

/// Node cap for branch-and-bound before giving up on proving optimality.
const MAX_NODES: u64 = 2_000_000;

/// The fewest DP rows a saved prefix stands for. A walk starts from one
/// reachable cell, so its first row costs one pass over the columns, and
/// saving and restoring the state after the second costs about what walking
/// that row does: shorter prefixes are walked again.
const MIN_PREFIX: usize = 3;

/// The most entries a class's verdict table may have: a class whose option
/// space is larger keeps answering with the DP at query time. Ursa's
/// models need at most 756 (social-vanilla at Full scale); filling a larger
/// table costs a one-shot solve more than its searches save.
const MAX_TABLE: usize = 1_024;

/// One SLA constraint as the search sees it.
#[derive(Debug, Clone)]
struct ClassTable {
    /// Class index, for error reports.
    class: usize,
    target: f64,
    /// Residual budget in units.
    budget: usize,
    /// Participating services in model order, each with its latency matrix.
    services: Vec<(usize, LatencyMatrix)>,
    /// Per participating service its *optimistic row*: the per-column
    /// minimum over its LPR rows, the best an undecided service can still
    /// do. `services.len() × cols`, row-major.
    optimistic: Vec<f64>,
    /// Every answer the DP can give for this class, if its option space
    /// has at most [`MAX_TABLE`] entries.
    settled: Option<Settled>,
}

/// A class's DP answers, computed once for every assignment of its
/// services. Each participating service has a digit: in a verdict index
/// `0` for undecided (its optimistic row) and `a + 1` for LPR option `a`,
/// in a choice index `a`; an index is the sum of digit × weight.
#[derive(Debug, Clone)]
struct Settled {
    /// Per participating service, its digit's weight in a verdict index.
    weights: Vec<usize>,
    /// Per verdict index, whether the class can be met there.
    verdicts: Vec<bool>,
    /// Per participating service, its digit's weight in a choice index.
    full_weights: Vec<usize>,
    /// Per choice index (a full assignment), the percentile column the
    /// recording DP gives each participating service; `services.len()`
    /// entries each, meaningless where the class cannot be met.
    choices: Vec<usize>,
}

/// The half of a model that load does not reach.
#[derive(Debug, Clone)]
struct Tables {
    /// Service names, for error reports.
    names: Vec<String>,
    /// A resource table is flat, services in model order: service `s` owns
    /// entries `offsets[s]..offsets[s + 1]`, one per LPR option.
    offsets: Vec<usize>,
    /// Residual units per percentile-grid column.
    res_cols: Vec<usize>,
    /// One table per constraint, in model order.
    classes: Vec<ClassTable>,
    /// For each service, the constraints it participates in.
    classes_of: Vec<Vec<Membership>>,
    /// Service `s`'s memberships that save a prefix own the solver's
    /// prefix slots `slots[s]..slots[s + 1]`.
    slots: Vec<usize>,
}

/// A service's place in one of its constraints.
#[derive(Debug, Clone, Copy)]
struct Membership {
    /// The constraint, an index into [`Tables::classes`].
    class: usize,
    /// How many of the constraint's services come before this one in model
    /// order: the DP rows every option of this service is walked after.
    at: usize,
    /// Where the DP state after those rows is saved, an index into the
    /// solver's prefixes — if there are at least [`MIN_PREFIX`] of them.
    slot: Option<usize>,
}

impl Tables {
    fn new(model: &MipModel) -> Result<Self, ModelError> {
        model.validate()?;
        let n = model.services.len();
        let res_cols: Vec<usize> = model
            .percentiles
            .iter()
            .map(|p| residual_units(100.0 - p))
            .collect();
        let mut classes_of = vec![Vec::new(); n];
        let classes = model
            .constraints
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let services: Vec<(usize, LatencyMatrix)> = model
                    .services
                    .iter()
                    .enumerate()
                    .filter_map(|(s, svc)| svc.latency[c.class].clone().map(|m| (s, m)))
                    .collect();
                let mut optimistic = Vec::with_capacity(services.len() * res_cols.len());
                for (at, (s, m)) in services.iter().enumerate() {
                    classes_of[*s].push(Membership {
                        class: k,
                        at,
                        slot: None,
                    });
                    optimistic.extend((0..res_cols.len()).map(|beta| {
                        (0..m.rows())
                            .map(|a| m.at(a, beta))
                            .fold(f64::INFINITY, f64::min)
                    }));
                }
                ClassTable {
                    class: c.class,
                    target: c.target,
                    budget: budget_units(100.0 - c.percentile),
                    services,
                    optimistic,
                    settled: None,
                }
            })
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for svc in &model.services {
            offsets.push(offsets[offsets.len() - 1] + svc.resource.len());
        }
        Ok(Tables {
            names: model.services.iter().map(|s| s.name.clone()).collect(),
            offsets,
            res_cols,
            classes,
            classes_of,
            slots: Vec::new(),
        })
    }

    /// Settles every class whose option space has at most `max_table`
    /// entries: its verdict at every assignment and its percentile choices
    /// at every full one, each computed by the query-time DP. Then gives a
    /// prefix slot to each membership of a class left to that DP.
    fn settle(&mut self, max_table: usize, scratch: &mut DpScratch) {
        let mut choice = vec![None; self.num_services()];
        for k in 0..self.classes.len() {
            let t = &self.classes[k];
            let radices = t.services.iter().map(|(_, m)| m.rows() + 1);
            let Some((weights, entries)) = mixed_radix(radices, max_table) else {
                continue;
            };
            let radices = t.services.iter().map(|(_, m)| m.rows());
            let (full_weights, full) = mixed_radix(radices, max_table).expect("a sub-space");
            let digit = |at: usize, w: usize, radix: usize| at / w % radix;
            let verdicts = (0..entries)
                .map(|at| {
                    for ((s, m), &w) in t.services.iter().zip(&weights) {
                        choice[*s] = digit(at, w, m.rows() + 1).checked_sub(1);
                    }
                    self.class_ok(k, |s| choice[s], scratch, Prefix::Whole)
                })
                .collect();
            let mut choices = Vec::with_capacity(full * t.services.len());
            let mut beta = vec![0; t.services.len()];
            for at in 0..full {
                let rows = (t.services.iter().zip(&full_weights))
                    .map(|((_, m), &w)| m.row(digit(at, w, m.rows())));
                min_latency_choices(rows, &self.res_cols, t.budget, scratch, &mut beta);
                choices.extend_from_slice(&beta);
            }
            self.classes[k].settled = Some(Settled {
                weights,
                verdicts,
                full_weights,
                choices,
            });
        }
        self.slots = vec![0];
        for memberships in &mut self.classes_of {
            let mut next = self.slots[self.slots.len() - 1];
            for m in memberships.iter_mut() {
                if m.at >= MIN_PREFIX && self.classes[m.class].settled.is_none() {
                    m.slot = Some(next);
                    next += 1;
                }
            }
            self.slots.push(next);
        }
    }

    fn num_services(&self) -> usize {
        self.names.len()
    }

    /// Service `s`'s entries of a table laid out like a resource table.
    fn options<'t, T>(&self, table: &'t [T], s: usize) -> &'t [T] {
        &table[self.offsets[s]..self.offsets[s + 1]]
    }

    /// What [`MipModel::validate`] asks of resources, asked of a table.
    fn check_resource(&self, resource: &[f64]) -> Result<(), ModelError> {
        let expected = self.offsets[self.num_services()];
        if resource.len() != expected {
            return Err(ModelError::Invalid(format!(
                "resource table has {} entries, expected {expected}",
                resource.len()
            )));
        }
        for (s, name) in self.names.iter().enumerate() {
            let bad = |r: &f64| *r < 0.0 || !r.is_finite();
            if self.options(resource, s).iter().any(bad) {
                return Err(ModelError::Invalid(format!(
                    "service {name} has invalid resource"
                )));
            }
        }
        Ok(())
    }

    /// Can constraint `k` be met with each of its services `s` at LPR option
    /// `choice(s)` — or, where that is `None` (undecided), at its optimistic
    /// row? A settled class is looked up; otherwise the DP answers, and a
    /// `prefix` to resume stands for the rows before its position.
    fn class_ok(
        &self,
        k: usize,
        choice: impl Fn(usize) -> Option<usize>,
        scratch: &mut DpScratch,
        prefix: Prefix<'_>,
    ) -> bool {
        let t = &self.classes[k];
        if let Some(settled) = &t.settled {
            let at = (t.services.iter().zip(&settled.weights))
                .map(|((s, _), &w)| choice(*s).map_or(0, |a| (a + 1) * w))
                .sum::<usize>();
            return settled.verdicts[at];
        }
        let rows = t
            .services
            .iter()
            .zip(t.optimistic.chunks_exact(self.res_cols.len()))
            .skip(prefix.skipped())
            .map(|((s, m), optimistic)| match choice(*s) {
                Some(a) => m.row(a),
                None => optimistic,
            });
        match min_latency_sum(rows, &self.res_cols, t.budget, scratch, prefix) {
            Some(latency) => latency <= t.target + 1e-12,
            None => false,
        }
    }

    /// Do the constraints of service `s` still hold under `choice`, where
    /// `s` is the only service moved since [`forget`](Self::forget) was last
    /// called for it? Each constraint's rows before `s` have not moved
    /// either, so its walk resumes from the state a previous call saved
    /// there, or — with `save`, when another option of `s` may be asked
    /// about next — saves that state on its way.
    fn moved_ok(
        &self,
        s: usize,
        choice: impl Fn(usize) -> Option<usize>,
        scratch: &mut DpScratch,
        prefixes: &mut [Vec<f64>],
        save: bool,
    ) -> bool {
        self.classes_of[s].iter().all(|m| {
            let prefix = match m.slot.map(|slot| &mut prefixes[slot]) {
                Some(saved) if !saved.is_empty() => Prefix::Resume { at: m.at, saved },
                Some(saved) if save => Prefix::Save { at: m.at, saved },
                _ => Prefix::Whole,
            };
            self.class_ok(m.class, &choice, scratch, prefix)
        })
    }

    /// Drops the states saved for service `s`: the services before it are
    /// about to move.
    fn forget(&self, s: usize, prefixes: &mut [Vec<f64>]) {
        for saved in &mut prefixes[self.slots[s]..self.slots[s + 1]] {
            saved.clear();
        }
    }

    /// The first constraint, in model order, that `choice` violates.
    fn first_violated(
        &self,
        choice: impl Fn(usize) -> Option<usize>,
        scratch: &mut DpScratch,
    ) -> Option<usize> {
        (0..self.classes.len())
            .find(|&k| !self.class_ok(k, &choice, scratch, Prefix::Whole))
            .map(|k| self.classes[k].class)
    }

    /// The viability filter, laid out like a resource table: whether option
    /// `o` of service `s` meets every class of `s` with every other service
    /// on its optimistic row. A search or descent replaces an optimistic row
    /// by one at least as large in every column, and the DP's sums and
    /// minima (rounding included) are monotone in their inputs, so an option
    /// this rejects fails [`moved_ok`](Self::moved_ok) wherever it is
    /// checked, at any resource table.
    fn viability(&self, scratch: &mut DpScratch) -> Vec<bool> {
        let mut viable = Vec::with_capacity(self.offsets[self.num_services()]);
        for (s, memberships) in self.classes_of.iter().enumerate() {
            for o in 0..self.offsets[s + 1] - self.offsets[s] {
                let met = |m: &Membership| {
                    self.class_ok(m.class, |u| (u == s).then_some(o), scratch, Prefix::Whole)
                };
                viable.push(memberships.iter().all(met));
            }
        }
        viable
    }

    /// Checks a full LPR assignment against every class with the reference
    /// DP; on success returns the percentile choices (one vec per
    /// constraint). The brute-force path.
    fn feasible_assignment(&self, alpha: &[usize]) -> Option<Vec<Vec<usize>>> {
        let mut out = Vec::with_capacity(self.classes.len());
        for t in &self.classes {
            let options: Vec<Vec<(f64, usize)>> = t
                .services
                .iter()
                .map(|(s, m)| {
                    m.row(alpha[*s])
                        .iter()
                        .zip(&self.res_cols)
                        .map(|(&lat, &r)| (lat, r))
                        .collect()
                })
                .collect();
            let alloc = min_latency_allocation(&options, t.budget)?;
            if alloc.latency_sum > t.target + 1e-12 {
                return None;
            }
            out.push(alloc.beta);
        }
        Some(out)
    }

    fn cost(&self, resource: &[f64], alpha: &[usize]) -> f64 {
        alpha
            .iter()
            .enumerate()
            .map(|(s, &a)| self.options(resource, s)[a])
            .sum()
    }
}

/// The weight of each digit of a mixed-radix number with `radices`, first
/// digit least significant, and how many numbers there are — or `None` if
/// that is more than `max`.
fn mixed_radix(radices: impl Iterator<Item = usize>, max: usize) -> Option<(Vec<usize>, usize)> {
    let mut count = 1usize;
    let weights = radices
        .map(|radix| {
            let weight = count;
            count = count.checked_mul(radix).filter(|&n| n <= max)?;
            Some(weight)
        })
        .collect::<Option<_>>()?;
    (count <= max).then_some((weights, count))
}

/// What one resource table decides before the search starts. Every sort
/// starts from the identity permutation: the sorts are stable, so starting
/// from the last table's order would break ties differently than a fresh
/// solve does.
#[derive(Debug, Clone, Default)]
struct Priced {
    /// Branch order: services with the largest resource spread first.
    order: Vec<usize>,
    /// Each service's options cheapest first, so that good incumbents
    /// appear early; laid out like a resource table.
    cheapest_first: Vec<usize>,
    /// `rest[d]`: the summed minimum resource of `order[d..]`, each over
    /// its viable options — what the services still undecided at depth `d`
    /// cost at least.
    rest: Vec<f64>,
    /// Per-service sort key, then per-service minimum viable resource.
    key: Vec<f64>,
}

impl Priced {
    /// Prices `resource`. The branch order and each service's cheapest-first
    /// order rank every option, viable or not; only the bound leaves out
    /// what [`Tables::viability`] rejected.
    fn reprice(&mut self, tables: &Tables, viable: &[bool], resource: &[f64]) {
        let n = tables.num_services();
        let Priced {
            order,
            cheapest_first,
            rest,
            key,
        } = self;
        key.clear();
        key.extend((0..n).map(|s| {
            let r = tables.options(resource, s);
            r.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - r.iter().cloned().fold(f64::INFINITY, f64::min)
        }));
        order.clear();
        order.extend(0..n);
        order.sort_by(|&a, &b| key[b].partial_cmp(&key[a]).expect("finite"));

        cheapest_first.clear();
        for s in 0..n {
            let r = tables.options(resource, s);
            cheapest_first.extend(0..r.len());
            cheapest_first[tables.offsets[s]..]
                .sort_by(|&a, &b| r[a].partial_cmp(&r[b]).expect("finite"));
            let viable = tables.options(viable, s);
            key[s] = (r.iter().zip(viable))
                .filter_map(|(&r, &ok)| ok.then_some(r))
                .fold(f64::INFINITY, f64::min);
        }
        // Each suffix is summed on its own, front to back: the bound is
        // compared against the incumbent with a 1e-12 slack, so its
        // rounding is part of the search tree.
        rest.clear();
        rest.extend((0..=n).map(|d| order[d..].iter().map(|&u| key[u]).sum::<f64>()));
    }
}

/// A model prepared for solving at any load.
///
/// Load enters the model through the resource table alone, so everything
/// else is settled once, by [`Solver::new`]: validation, the per-class
/// tables, whether each class can be met at all, where the greedy descent
/// starts, which LPR options can ever be met, and — for each class whose
/// option space has at most 1 024 entries — its verdict at every
/// assignment and its percentile choices at every full one.
/// [`solve_at`](Self::solve_at) then answers for one resource table what
/// [`solve`] answers for the model carrying it — the same [`Solution`],
/// search tree and error, to the bit — without allocating once its buffers
/// have grown.
///
/// The verdict and choice tables are not a cache: they hold every answer
/// the DP could give, are complete before the first call and never change,
/// so a call's cost does not depend on the calls before it.
/// [`untabulated_classes`](Self::untabulated_classes) counts the classes
/// left to the DP.
#[derive(Debug, Clone)]
pub struct Solver {
    tables: Tables,
    /// Each service's minimum-latency option, where the greedy descent
    /// starts; or the class of the first constraint that start violates,
    /// in which case the search runs without an incumbent.
    start: Result<Vec<usize>, usize>,
    /// [`Tables::viability`]: the options a search or descent may take.
    viable: Vec<bool>,
    priced: Priced,
    scratch: DpScratch,
    /// The DP state each membership's service is walked after, saved by
    /// the first of its options checked at a node (empty: none saved).
    prefixes: Vec<Vec<f64>>,
    /// The descent's assignment, then the incumbent.
    alpha: Vec<usize>,
    /// One descent step's moves, largest saving on top: the buffer of
    /// [`Solver::greedy`]'s heap, kept so a step allocates nothing.
    moves: Vec<Move>,
    /// The search's partial assignment; all `None` between calls.
    partial: Vec<Option<usize>>,
}

impl Solver {
    /// The solver, and the class of the first constraint that cannot be met
    /// even on its own best terms (every service on its optimistic row):
    /// one that fails there fails under every assignment.
    fn prepare(model: &MipModel, max_table: usize) -> Result<(Self, Option<usize>), ModelError> {
        let mut tables = Tables::new(model)?;
        let mut scratch = DpScratch::default();
        let hopeless = tables.first_violated(|_| None, &mut scratch);
        // A hopeless model is refused before any class is settled.
        let max_table = if hopeless.is_some() { 0 } else { max_table };
        tables.settle(max_table, &mut scratch);
        let viable = tables.viability(&mut scratch);
        // Start at each service's minimum-latency option (summed row means
        // over the classes it serves) — with monotone exploration data this
        // is the most-resourced option.
        let start: Vec<usize> = model
            .services
            .iter()
            .map(|s| {
                let mean_latency = |o: usize| -> f64 {
                    s.latency
                        .iter()
                        .flatten()
                        .map(|m| m.row(o).iter().sum::<f64>() / m.cols() as f64)
                        .sum()
                };
                (0..s.resource.len())
                    .min_by(|&a, &b| {
                        mean_latency(a)
                            .partial_cmp(&mean_latency(b))
                            .expect("finite")
                    })
                    .expect("non-empty options")
            })
            .collect();
        let start = match tables.first_violated(|s| Some(start[s]), &mut scratch) {
            None => Ok(start),
            Some(class) => Err(class),
        };
        let n = tables.num_services();
        // Every slot is grown to its constraint's whole budget up front, so
        // saving never allocates.
        let prefixes = (tables.classes_of.iter().flatten())
            .filter(|m| m.slot.is_some())
            .map(|m| Vec::with_capacity(tables.classes[m.class].budget + 1))
            .collect();
        let solver = Solver {
            tables,
            start,
            viable,
            priced: Priced::default(),
            scratch,
            prefixes,
            alpha: Vec::with_capacity(n),
            moves: Vec::new(),
            partial: vec![None; n],
        };
        Ok((solver, hopeless))
    }

    /// Prepares `model` for [`solve_at`](Self::solve_at). The model's own
    /// resources are validated with the rest of it and otherwise unused.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] for malformed models and
    /// [`ModelError::Infeasible`] when some class's SLA cannot be met by any
    /// assignment, whatever the resources cost.
    pub fn new(model: &MipModel) -> Result<Self, ModelError> {
        Self::bounded(model, MAX_TABLE)
    }

    /// [`Solver::new`] settling only the classes whose verdict tables have
    /// at most `max_table` entries.
    fn bounded(model: &MipModel, max_table: usize) -> Result<Self, ModelError> {
        match Self::prepare(model, max_table)? {
            (solver, None) => Ok(solver),
            (_, Some(class)) => Err(ModelError::Infeasible { class }),
        }
    }

    /// How many of the model's constraints were left to the DP at query
    /// time because their option space has more than 1 024 entries; the
    /// others are answered by lookup.
    pub fn untabulated_classes(&self) -> usize {
        let classes = &self.tables.classes;
        classes.iter().filter(|t| t.settled.is_none()).count()
    }

    /// Solves to optimality with `resource` — flat, services in model
    /// order, one entry per LPR option — as the model's resource costs, and
    /// writes the result into `solution` (left untouched on error).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] when the table has the wrong length
    /// or a negative or non-finite entry, and [`ModelError::Infeasible`]
    /// when no assignment meets every SLA jointly.
    pub fn solve_at(
        &mut self,
        resource: &[f64],
        solution: &mut Solution,
    ) -> Result<(), ModelError> {
        self.tables.check_resource(resource)?;
        self.priced.reprice(&self.tables, &self.viable, resource);
        // Incumbent from greedy, if its heuristic start was feasible.
        let incumbent = self.greedy(resource);
        let mut search = Search {
            tables: &self.tables,
            viable: &self.viable,
            priced: &self.priced,
            resource,
            scratch: &mut self.scratch,
            prefixes: &mut self.prefixes,
            partial: &mut self.partial,
            best_cost: incumbent.unwrap_or(f64::INFINITY),
            best_alpha: &mut self.alpha,
            found: incumbent.is_some(),
            nodes: 0,
            exhausted: false,
        };
        search.expand(0, 0.0);
        let Search {
            best_cost,
            found,
            nodes,
            exhausted,
            ..
        } = search;
        if !found {
            let class = *self
                .start
                .as_ref()
                .expect_err("a feasible start gives an incumbent");
            return Err(ModelError::Infeasible { class });
        }
        self.record(solution);
        solution.objective = best_cost;
        solution.proved_optimal = !exhausted;
        solution.nodes_explored = nodes;
        Ok(())
    }

    /// The model's latency estimate for the `k`-th constraint's class under
    /// `solution`: [`Solution::estimated_latency`] without the model.
    pub fn estimated_latency(&self, solution: &Solution, k: usize) -> f64 {
        self.tables.classes[k]
            .services
            .iter()
            .zip(&solution.percentile_choice[k])
            .map(|((s, m), &beta)| m.at(solution.lpr_choice[*s], beta))
            .sum()
    }

    /// The greedy descent: leaves the assignment it stops at in `alpha` and
    /// returns its cost, or `None` when the start violates a class.
    fn greedy(&mut self, resource: &[f64]) -> Option<f64> {
        let Solver {
            tables,
            start,
            viable,
            scratch,
            prefixes,
            alpha,
            moves,
            ..
        } = self;
        alpha.clear();
        alpha.extend_from_slice(start.as_ref().ok()?);
        // Descend: repeatedly apply the single-service option change with
        // the best resource saving that stays feasible, the first in scan
        // order (services, then options) among equal savings. Moves are
        // checked in that order and the first feasible one is taken, so a
        // step checks only moves saving at least as much as the one it
        // takes. Every class holds at `alpha`, so a move can only break the
        // classes of the service it moves; a move to an option that is not
        // viable breaks one, and is never queued.
        loop {
            moves.clear();
            for (s, &current) in alpha.iter().enumerate() {
                tables.forget(s, prefixes);
                let options = tables.options(resource, s);
                let viable = tables.options(viable, s);
                for (o, &cost) in options.iter().enumerate() {
                    let saving = options[current] - cost;
                    if o != current && saving > 1e-12 && viable[o] {
                        // A positive double's bits order as its value.
                        moves.push((saving.to_bits(), Reverse(s), Reverse(o)));
                    }
                }
            }
            let mut heap = BinaryHeap::from(std::mem::take(moves));
            let mut moved = false;
            while let Some((_, Reverse(s), Reverse(o))) = heap.pop() {
                let current = alpha[s];
                alpha[s] = o;
                // The first check of `s` this step saves its prefix for the
                // next.
                moved = tables.moved_ok(s, |u| Some(alpha[u]), scratch, prefixes, true);
                if moved {
                    break;
                }
                alpha[s] = current;
            }
            *moves = heap.into_vec();
            if !moved {
                return Some(tables.cost(resource, alpha));
            }
        }
    }

    /// Writes `alpha` and the percentile choices that go with it into
    /// `solution`. Every class must hold at `alpha`.
    fn record(&mut self, solution: &mut Solution) {
        let Solver {
            tables,
            scratch,
            alpha,
            ..
        } = self;
        solution.lpr_choice.clear();
        solution.lpr_choice.extend_from_slice(alpha);
        solution
            .percentile_choice
            .resize_with(tables.classes.len(), Vec::new);
        for (t, beta) in tables.classes.iter().zip(&mut solution.percentile_choice) {
            beta.resize(t.services.len(), 0);
            if let Some(settled) = &t.settled {
                let at = (t.services.iter().zip(&settled.full_weights))
                    .map(|((s, _), &w)| alpha[*s] * w)
                    .sum::<usize>();
                let n = beta.len();
                beta.copy_from_slice(&settled.choices[at * n..][..n]);
                continue;
            }
            let rows = t.services.iter().map(|(s, m)| m.row(alpha[*s]));
            let latency = min_latency_choices(rows, &tables.res_cols, t.budget, scratch, beta);
            debug_assert!(latency.is_some_and(|l| l <= t.target + 1e-12));
        }
    }
}

/// Depth-first branch-and-bound over the services of [`Priced::order`].
struct Search<'s> {
    tables: &'s Tables,
    viable: &'s [bool],
    priced: &'s Priced,
    resource: &'s [f64],
    scratch: &'s mut DpScratch,
    prefixes: &'s mut [Vec<f64>],
    /// The partial assignment; `None` is undecided.
    partial: &'s mut [Option<usize>],
    best_cost: f64,
    /// The incumbent, once `found`.
    best_alpha: &'s mut Vec<usize>,
    found: bool,
    nodes: u64,
    exhausted: bool,
}

impl Search<'_> {
    /// Expands the node at `depth`, whose assigned services cost
    /// `partial_cost`. Every class is feasible at this node's assignment
    /// (undecided services at their optimistic rows): the root is checked
    /// when the solver is prepared, and a child is entered only after the
    /// classes of its branched service — the only ones whose inputs differ
    /// from the parent's — have been checked again. An option the
    /// viability filter rejected would fail that check, and is skipped
    /// without it.
    fn expand(&mut self, depth: usize, partial_cost: f64) {
        let (tables, priced) = (self.tables, self.priced);
        self.nodes += 1;
        if self.nodes > MAX_NODES {
            self.exhausted = true;
            return;
        }
        if depth == priced.order.len() {
            // A leaf has no undecided service, so the invariant above is
            // its feasibility proof.
            if partial_cost < self.best_cost - 1e-12 {
                self.best_cost = partial_cost;
                self.found = true;
                self.best_alpha.clear();
                self.best_alpha
                    .extend(self.partial.iter().map(|a| a.expect("assigned")));
            }
            return;
        }
        let s = priced.order[depth];
        let resource = tables.options(self.resource, s);
        // Lower bound: assigned cost + min resource of the undecided.
        let bound = |o: usize| partial_cost + resource[o] + priced.rest[depth + 1];
        let viable = tables.options(self.viable, s);
        let options = tables.options(&priced.cheapest_first, s);
        tables.forget(s, self.prefixes);
        for (i, &o) in options.iter().enumerate() {
            if self.exhausted {
                return;
            }
            let cost = partial_cost + resource[o];
            if !viable[o] || bound(o) >= self.best_cost - 1e-12 {
                continue;
            }
            // The classes' rows before `s` are the same for every sibling:
            // saved by the first that walks them, if the bound lets another
            // viable one follow.
            let save = (options[i + 1..].iter().find(|&&next| viable[next]))
                .is_some_and(|&next| bound(next) < self.best_cost - 1e-12);
            self.partial[s] = Some(o);
            let (partial, scratch) = (&*self.partial, &mut *self.scratch);
            if tables.moved_ok(s, |u| partial[u], scratch, self.prefixes, save) {
                self.expand(depth + 1, cost);
            }
            self.partial[s] = None;
        }
    }
}

/// A model's resources as the flat table [`Solver::solve_at`] takes.
fn resource_table(model: &MipModel) -> Vec<f64> {
    model
        .services
        .iter()
        .flat_map(|s| s.resource.iter().copied())
        .collect()
}

/// Solves the model to optimality with branch-and-bound: a [`Solver`] used
/// once, at the model's own resources.
///
/// # Errors
///
/// Returns [`ModelError::Invalid`] for malformed models and
/// [`ModelError::Infeasible`] when no assignment meets every SLA.
pub fn solve(model: &MipModel) -> Result<Solution, ModelError> {
    let mut solution = Solution::default();
    Solver::new(model)?.solve_at(&resource_table(model), &mut solution)?;
    Ok(solution)
}

/// Solves the model greedily: start from each service's minimum-latency
/// option, then repeatedly take the best-saving downgrade that stays
/// feasible.
///
/// This is a heuristic: an `Infeasible` error means the greedy *start* was
/// infeasible, which for non-monotone latency profiles does not prove the
/// model is; [`solve`] gives the exact verdict.
///
/// # Errors
///
/// Returns [`ModelError::Invalid`] for malformed models and
/// [`ModelError::Infeasible`] when the minimum-latency assignment violates
/// some class's SLA.
pub fn solve_greedy(model: &MipModel) -> Result<Solution, ModelError> {
    let (mut solver, _) = Solver::prepare(model, MAX_TABLE)?;
    let Some(objective) = solver.greedy(&resource_table(model)) else {
        let class = solver.start.expect_err("the descent had no start");
        return Err(ModelError::Infeasible { class });
    };
    let mut solution = Solution {
        objective,
        ..Solution::default()
    };
    solver.record(&mut solution);
    Ok(solution)
}

/// Exhaustively enumerates all LPR assignments (test reference only).
///
/// # Errors
///
/// Same contract as [`solve`], except that an `Infeasible` error names the
/// first constraint's class: the reference gives a verdict, not a diagnosis.
pub fn solve_brute_force(model: &MipModel) -> Result<Solution, ModelError> {
    let tables = Tables::new(model)?;
    let resource = resource_table(model);
    let n = model.services.len();
    let mut idx = vec![0usize; n];
    let mut best: Option<(f64, Vec<usize>)> = None;
    loop {
        if tables.feasible_assignment(&idx).is_some() {
            let cost = tables.cost(&resource, &idx);
            if best
                .as_ref()
                .map(|(b, _)| cost < *b - 1e-12)
                .unwrap_or(true)
            {
                best = Some((cost, idx.clone()));
            }
        }
        let mut k = 0;
        loop {
            if k == n {
                break;
            }
            idx[k] += 1;
            if idx[k] < model.services[k].resource.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
        if k == n {
            break;
        }
    }
    match best {
        Some((objective, lpr_choice)) => {
            let percentile_choice = tables.feasible_assignment(&lpr_choice).expect("feasible");
            Ok(Solution {
                objective,
                lpr_choice,
                percentile_choice,
                proved_optimal: true,
                nodes_explored: 0,
            })
        }
        None => Err(ModelError::Infeasible {
            class: model.constraints.first().map(|c| c.class).unwrap_or(0),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LatencyMatrix, ServiceModel, SlaConstraint};
    use proptest::prelude::*;
    use ursa_stats::rng::Rng;

    /// Grid used throughout: residuals 10, 5, 1 units.
    fn grid() -> Vec<f64> {
        vec![99.0, 99.5, 99.9]
    }

    fn svc(
        name: &str,
        resource: Vec<f64>,
        lat_rows: Vec<Vec<f64>>,
        classes: usize,
        class: usize,
    ) -> ServiceModel {
        let rows = resource.len();
        let cols = lat_rows[0].len();
        let data: Vec<f64> = lat_rows.into_iter().flatten().collect();
        let mut latency = vec![None; classes];
        latency[class] = Some(LatencyMatrix::new(rows, cols, data));
        ServiceModel {
            name: name.into(),
            resource,
            latency,
        }
    }

    fn chain_model() -> MipModel {
        // Two services, one class with p99 <= 100 ms.
        MipModel {
            percentiles: grid(),
            services: vec![
                svc(
                    "a",
                    vec![8.0, 4.0, 2.0],
                    vec![
                        vec![0.010, 0.012, 0.020],
                        vec![0.020, 0.025, 0.045],
                        vec![0.060, 0.080, 0.150],
                    ],
                    1,
                    0,
                ),
                svc(
                    "b",
                    vec![6.0, 3.0],
                    vec![vec![0.020, 0.024, 0.040], vec![0.050, 0.065, 0.110]],
                    1,
                    0,
                ),
            ],
            constraints: vec![SlaConstraint {
                class: 0,
                percentile: 99.0,
                target: 0.100,
            }],
        }
    }

    #[test]
    fn exact_matches_brute_force_on_chain() {
        let model = chain_model();
        let exact = solve(&model).unwrap();
        let brute = solve_brute_force(&model).unwrap();
        assert!((exact.objective - brute.objective).abs() < 1e-9);
        assert!(exact.proved_optimal);
        // Cheapest feasible: a@2 cores (p99=60ms at beta0) + b@3 (50ms)
        // = 110ms > 100 -> not feasible; check solver found something valid.
        let est = exact.estimated_latency(&model, 0);
        assert!(est <= 0.100 + 1e-9, "estimate {est}");
    }

    #[test]
    fn greedy_is_feasible_and_no_better_than_exact() {
        let model = chain_model();
        let greedy = solve_greedy(&model).unwrap();
        let exact = solve(&model).unwrap();
        assert!(greedy.objective >= exact.objective - 1e-9);
        assert!(greedy.estimated_latency(&model, 0) <= 0.100 + 1e-9);
    }

    #[test]
    fn residual_budget_enforced() {
        // One service, class at p99: budget = 10 units. The only latency row
        // meeting the target sits at p99.9 (1 unit) -> fine. But a p99
        // target with two services each NEEDING beta=p99 (10 units each)
        // would blow the budget -> infeasible.
        let tight = MipModel {
            percentiles: grid(),
            services: vec![
                svc("a", vec![4.0], vec![vec![0.010, 0.500, 0.900]], 1, 0),
                svc("b", vec![4.0], vec![vec![0.010, 0.500, 0.900]], 1, 0),
            ],
            constraints: vec![SlaConstraint {
                class: 0,
                percentile: 99.0,
                target: 0.100,
            }],
        };
        // Each service must pick beta=0 (p99) to meet 100ms, costing
        // 10+10 = 20 units > 10 budget.
        assert!(matches!(
            solve(&tight),
            Err(ModelError::Infeasible { class: 0 })
        ));
    }

    #[test]
    fn residual_budget_allows_split() {
        // Same as above but targets are loose enough to use p99.5+p99.9.
        let ok = MipModel {
            percentiles: grid(),
            services: vec![
                svc("a", vec![4.0], vec![vec![0.010, 0.020, 0.030]], 1, 0),
                svc("b", vec![4.0], vec![vec![0.010, 0.020, 0.030]], 1, 0),
            ],
            constraints: vec![SlaConstraint {
                class: 0,
                percentile: 99.0,
                target: 0.060,
            }],
        };
        let sol = solve(&ok).unwrap();
        // Budget 10: (p99.5, p99.9) = 5+1 or (p99, impossible second pick
        // needs 0)... The solver must find percentiles summing <= 10 units.
        let betas = &sol.percentile_choice[0];
        let spent: usize = betas.iter().map(|&b| [10, 5, 1][b]).sum();
        assert!(spent <= 10, "spent {spent}");
        assert!(sol.estimated_latency(&ok, 0) <= 0.060 + 1e-12);
    }

    #[test]
    fn multiple_classes_interact_through_lpr() {
        // Service shared by two classes: class 0 is tight (needs the
        // resourced option), class 1 is loose. The solver must keep the
        // resourced option even though class 1 alone would allow downgrade.
        let m =
            |rows: Vec<Vec<f64>>| LatencyMatrix::new(2, 3, rows.into_iter().flatten().collect());
        let model = MipModel {
            percentiles: grid(),
            services: vec![ServiceModel {
                name: "shared".into(),
                resource: vec![8.0, 2.0],
                latency: vec![
                    Some(m(vec![
                        vec![0.010, 0.012, 0.015],
                        vec![0.200, 0.250, 0.400],
                    ])),
                    Some(m(vec![
                        vec![0.010, 0.012, 0.015],
                        vec![0.200, 0.250, 0.400],
                    ])),
                ],
            }],
            constraints: vec![
                SlaConstraint {
                    class: 0,
                    percentile: 99.0,
                    target: 0.050,
                },
                SlaConstraint {
                    class: 1,
                    percentile: 99.0,
                    target: 1.0,
                },
            ],
        };
        let sol = solve(&model).unwrap();
        assert_eq!(sol.lpr_choice, vec![0], "tight class forces provisioning");
        assert_eq!(sol.objective, 8.0);
    }

    /// A service on the path of two classes, with one latency matrix (a
    /// row per option) for each.
    fn shared(resource: Vec<f64>, rows: [Vec<Vec<f64>>; 2]) -> ServiceModel {
        ServiceModel {
            name: "shared".into(),
            latency: rows
                .into_iter()
                .map(|r| {
                    Some(LatencyMatrix::new(
                        r.len(),
                        r[0].len(),
                        r.into_iter().flatten().collect(),
                    ))
                })
                .collect(),
            resource,
        }
    }

    fn p99(class: usize, target: f64) -> SlaConstraint {
        SlaConstraint {
            class,
            percentile: 99.0,
            target,
        }
    }

    #[test]
    fn infeasible_names_the_class_that_fails_alone() {
        // Class 0 is loose, class 1 cannot be met by the only option:
        // the error must name class 1, not the first constraint.
        let row = vec![vec![0.010, 0.020]];
        let model = MipModel {
            percentiles: vec![99.0, 99.9],
            services: vec![shared(vec![1.0], [row.clone(), row])],
            constraints: vec![p99(0, 1.0), p99(1, 0.001)],
        };
        let greedy = solve_greedy(&model).unwrap_err();
        assert_eq!(greedy, ModelError::Infeasible { class: 1 });
        assert_eq!(solve(&model).unwrap_err(), greedy);
    }

    #[test]
    fn jointly_infeasible_names_the_class_the_greedy_start_violated() {
        // Option 0 is fast for class 0 and slow for class 1, option 1 the
        // reverse: each class can be met alone, never both. The greedy
        // start (lowest mean latency: option 0) violates class 1.
        let fast_slow = vec![vec![0.010, 0.010], vec![0.500, 0.500]];
        let slow_fast = vec![vec![0.400, 0.400], vec![0.010, 0.010]];
        let model = MipModel {
            percentiles: vec![99.0, 99.9],
            services: vec![shared(vec![2.0, 1.0], [fast_slow, slow_fast])],
            constraints: vec![p99(0, 0.050), p99(1, 0.050)],
        };
        for alone in 0..2 {
            let mut one = model.clone();
            one.constraints.remove(1 - alone);
            assert!(solve(&one).is_ok(), "class {alone} alone is feasible");
        }
        assert_eq!(
            solve_greedy(&model).unwrap_err(),
            ModelError::Infeasible { class: 1 }
        );
        assert_eq!(
            solve(&model).unwrap_err(),
            ModelError::Infeasible { class: 1 }
        );
        assert!(solve_brute_force(&model).is_err());
    }

    #[test]
    fn service_without_constrained_classes_downgrades_fully() {
        let model = MipModel {
            percentiles: grid(),
            services: vec![svc(
                "idle",
                vec![8.0, 1.0],
                vec![vec![0.01, 0.01, 0.01], vec![0.9, 0.9, 0.9]],
                1,
                0,
            )],
            constraints: vec![], // no SLA constraints at all
        };
        let sol = solve(&model).unwrap();
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn solution_reports_nodes() {
        let sol = solve(&chain_model()).unwrap();
        assert!(sol.nodes_explored > 0);
        assert!(sol.proved_optimal);
    }

    /// A model drawn from `seed` for the table-vs-DP comparison: 1–5
    /// services of 1–4 options, 1–3 classes each a p50 or a p99 SLA, latency
    /// rows in no order (an option with more resources can be slower),
    /// and targets from hopeless to loose.
    fn unordered_model(seed: u64) -> MipModel {
        let mut rng = Rng::seed_from(seed);
        let percentiles = vec![50.0, 90.0, 99.0, 99.5, 99.9];
        let n_classes = 1 + rng.index(3);
        let services: Vec<ServiceModel> = (0..1 + rng.index(5))
            .map(|s| {
                let options = 1 + rng.index(4);
                let latency = (0..n_classes)
                    .map(|_| {
                        rng.chance(0.7).then(|| {
                            let data = (0..options * percentiles.len())
                                .map(|_| 0.001 + 0.1 * rng.next_f64())
                                .collect();
                            LatencyMatrix::new(options, percentiles.len(), data)
                        })
                    })
                    .collect();
                ServiceModel {
                    name: format!("s{s}"),
                    resource: (0..options).map(|_| 1.0 + rng.index(4) as f64).collect(),
                    latency,
                }
            })
            .collect();
        let constraints = (0..n_classes)
            .map(|class| SlaConstraint {
                class,
                percentile: if rng.chance(0.5) { 50.0 } else { 99.0 },
                target: 0.3 * rng.next_f64(),
            })
            .collect();
        MipModel {
            percentiles,
            services,
            constraints,
        }
    }

    /// A model drawn from `seed` whose rows are ordered as exploration
    /// data usually is: 2–4 services of 2–4 options, each cheaper option
    /// at least as slow in every column, 1–2 p99 classes with targets from
    /// hopeless to loose.
    fn monotone_model(seed: u64) -> MipModel {
        let mut rng = Rng::seed_from(seed);
        let n_classes = 1 + rng.index(2);
        let services = (0..2 + rng.index(3))
            .map(|s| {
                let options = 2 + rng.index(3);
                let latency = (0..n_classes)
                    .map(|_| {
                        rng.chance(0.8).then(|| {
                            let data = (0..options)
                                .flat_map(|o| {
                                    let base = 0.005 * (o + 1) as f64 * (1.0 + rng.next_f64());
                                    [base, base * 1.3, base * 2.0]
                                })
                                .collect();
                            LatencyMatrix::new(options, 3, data)
                        })
                    })
                    .collect();
                ServiceModel {
                    name: format!("s{s}"),
                    resource: (0..options).map(|o| (options - o) as f64 * 2.0).collect(),
                    latency,
                }
            })
            .collect();
        let constraints = (0..n_classes)
            .map(|class| p99(class, 0.02 + 0.15 * rng.next_f64()))
            .collect();
        MipModel {
            percentiles: grid(),
            services,
            constraints,
        }
    }

    /// Every full assignment of `model`'s services, in lexicographic order.
    fn assignments(model: &MipModel) -> Vec<Vec<usize>> {
        let mut all = vec![vec![]];
        for svc in &model.services {
            all = (all.into_iter())
                .flat_map(|a: Vec<usize>| {
                    (0..svc.resource.len()).map(move |o| [a.as_slice(), &[o]].concat())
                })
                .collect();
        }
        all
    }

    /// The viability filter of a valid `model`, per service.
    fn viability(model: &MipModel) -> Vec<Vec<bool>> {
        let (solver, _) = Solver::prepare(model, MAX_TABLE).expect("a valid model");
        let tables = &solver.tables;
        let per_service = 0..tables.num_services();
        per_service
            .map(|s| tables.options(&solver.viable, s).to_vec())
            .collect()
    }

    #[test]
    fn viability_filter_keeps_every_option_of_a_loose_model() {
        let mut model = chain_model();
        model.constraints[0].target = 1.0;
        assert_eq!(viability(&model), [vec![true; 3], vec![true; 2]]);
        let exact = solve(&model).unwrap();
        assert_eq!((exact.objective, exact.lpr_choice), (5.0, vec![2, 1]));
    }

    #[test]
    fn viability_filter_can_leave_only_the_start() {
        // The target is the class's latency with both services at their
        // fastest option (the greedy start) minus 5e-13, which the 1e-12
        // slack forgives; any slower option of either service breaks it
        // even with the other at its best.
        let mut model = chain_model();
        let mut fastest = model.clone();
        for s in &mut fastest.services {
            s.resource.truncate(1);
            for m in s.latency.iter_mut().flatten() {
                *m = LatencyMatrix::new(1, 3, m.row(0).to_vec());
            }
        }
        fastest.constraints[0].target = 1.0;
        let start = solve(&fastest).unwrap();
        model.constraints[0].target = start.estimated_latency(&fastest, 0) - 5e-13;
        let viable = viability(&model);
        assert_eq!(viable, [vec![true, false, false], vec![true, false]]);
        let exact = solve(&model).unwrap();
        assert_eq!((exact.objective, &exact.lpr_choice), (14.0, &vec![0, 0]));
        assert_eq!(
            exact.objective,
            solve_brute_force(&model).unwrap().objective
        );
        assert_eq!(solve_greedy(&model).unwrap().lpr_choice, exact.lpr_choice);
    }

    #[test]
    fn viability_filter_of_a_hopeless_model_refuses_as_before() {
        // Class 1 cannot be met by any option of either service, class 0 by
        // all of them: every option is dropped, and both solvers still name
        // class 1, the class that fails on its own best terms.
        let rows = vec![vec![0.010, 0.020], vec![0.030, 0.040]];
        let model = MipModel {
            percentiles: vec![99.0, 99.9],
            services: vec![
                shared(vec![2.0, 1.0], [rows.clone(), rows.clone()]),
                shared(vec![2.0, 1.0], [rows.clone(), rows]),
            ],
            constraints: vec![p99(0, 1.0), p99(1, 0.005)],
        };
        assert_eq!(viability(&model), [vec![false; 2], vec![false; 2]]);
        let infeasible = ModelError::Infeasible { class: 1 };
        assert_eq!(solve(&model).unwrap_err(), infeasible);
        assert_eq!(solve_greedy(&model).unwrap_err(), infeasible);
        assert!(solve_brute_force(&model).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A solver that looks every class up ≡ the same solver left to the
        /// DP, and so does one whose bound falls among the classes: the
        /// same refusal at preparation, then through a sequence of resource
        /// tables (one of them invalid) the same `Solution` to the bit or the
        /// same error, a failed call leaving the solution as it was.
        #[test]
        fn settled_classes_answer_as_the_dp_does(
            seed in any::<u64>(),
            pick in 0usize..3,
        ) {
            let model = unordered_model(seed);
            // The middle bound is one class's table size: that class and
            // the smaller ones are settled, the larger ones are not.
            let sizes: Vec<usize> = (model.constraints.iter())
                .map(|c| {
                    let rows = model.services.iter().filter_map(|s| s.latency[c.class].as_ref());
                    rows.map(|m| m.rows() + 1).product()
                })
                .collect();
            let bounds = [usize::MAX, sizes[pick % sizes.len()], 0];
            let prepared = bounds.map(|bound| Solver::bounded(&model, bound));
            for solver in &prepared {
                prop_assert_eq!(solver.as_ref().err(), prepared[2].as_ref().err());
            }
            if prepared[2].is_err() {
                return Ok(());
            }
            let mut solvers = prepared.map(Result::unwrap);
            prop_assert_eq!(solvers[0].untabulated_classes(), 0);
            prop_assert_eq!(solvers[2].untabulated_classes(), model.constraints.len());
            let mut solutions = [(); 3].map(|_| Solution::default());
            let entries = resource_table(&model).len();
            let mut rng = Rng::seed_from(seed ^ 0x31);
            for step in 0..6 {
                let mut table: Vec<f64> =
                    (0..entries).map(|_| (1 + rng.index(8)) as f64 * 0.5).collect();
                if step == 4 {
                    table[rng.index(entries)] = f64::NAN;
                }
                let before = solutions.clone();
                let got: Vec<_> = (solvers.iter_mut().zip(&mut solutions))
                    .map(|(solver, solution)| solver.solve_at(&table, solution))
                    .collect();
                for (k, solution) in solutions.iter().enumerate() {
                    prop_assert_eq!(&got[k], &got[2], "step {}", step);
                    let want = &solutions[2];
                    prop_assert!(
                        solution == want && solution.objective.to_bits() == want.objective.to_bits(),
                        "step {step}, bound {}: {solution:?} vs {want:?}", bounds[k]
                    );
                    if got[k].is_err() {
                        prop_assert!(*solution == before[k], "step {step}: a failed call wrote");
                    }
                }
            }
        }

        /// The viability filter is sound: every option it drops appears in
        /// no assignment the reference DP finds feasible, on rows in no
        /// order and on ordered ones; and the search it prunes still finds
        /// the reference optimum, or refuses where the reference does.
        #[test]
        fn viability_filter_drops_only_options_no_feasible_assignment_takes(
            seed in any::<u64>(),
            ordered in any::<bool>(),
        ) {
            let model = if ordered { monotone_model(seed) } else { unordered_model(seed) };
            let viable = viability(&model);
            let tables = Tables::new(&model).expect("generated models are valid");
            for alpha in assignments(&model) {
                if tables.feasible_assignment(&alpha).is_some() {
                    for (s, &o) in alpha.iter().enumerate() {
                        prop_assert!(viable[s][o], "{alpha:?} is feasible, yet s{s}@{o} was dropped");
                    }
                }
            }
            match (solve(&model), solve_brute_force(&model)) {
                (Ok(exact), Ok(brute)) => {
                    prop_assert!((exact.objective - brute.objective).abs() < 1e-9);
                    prop_assert!(tables.feasible_assignment(&exact.lpr_choice).is_some());
                }
                (Err(ModelError::Infeasible { .. }), Err(ModelError::Infeasible { .. })) => {}
                (exact, brute) => prop_assert!(false, "{exact:?} vs {brute:?}"),
            }
        }
    }
}
