//! Two-dimensional (CPU, memory) allocation on top of the 1-D exact
//! solver.
//!
//! The paper's MIP prices options in cores only; real clusters allocate
//! pods by a *(cores, bytes)* request vector against 2-D node capacity.
//! This module extends the model the standard way:
//!
//! * each LPR option carries a [`ResourceCost`] `(cores, mem_bytes)`;
//! * the objective scalarizes the two dimensions with a weighted sum
//!   ([`Weights`]) — dominated-point pruning and the exact solver's
//!   optimality proof carry over unchanged because the scalarized cost is
//!   still one number per option;
//! * after solving, the chosen per-service demands are packed onto the
//!   cluster's nodes ([`pack_first_fit`]) as a feasibility check: a
//!   solution that minimizes the weighted objective but does not fit any
//!   node assignment is reported with `placement: None` so the caller can
//!   fall back (scale the node pool, or re-solve with a tighter budget).
//!
//! Packing is deterministic: first-fit-decreasing by scalarized demand
//! with index tie-breaks, best-fit node scoring on the mean of the two
//! free fractions. It is the MIP's own feasibility check and places
//! nothing in the simulator, whose memory plane puts replicas on nodes
//! round-robin (slot `r` of service `s` on node `(s + r) % nodes`).

use crate::model::{LatencyMatrix, MipModel, ModelError, ServiceModel, SlaConstraint};
use crate::solve::{solve, Solution};

/// One option's resource demand: CPU cores and memory bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceCost {
    /// CPU cores.
    pub cores: f64,
    /// Memory in bytes.
    pub mem_bytes: f64,
}

impl ResourceCost {
    /// A demand of `cores` CPUs and `mem_bytes` bytes.
    pub fn new(cores: f64, mem_bytes: f64) -> Self {
        ResourceCost { cores, mem_bytes }
    }

    /// Component-wise sum.
    pub fn plus(self, other: ResourceCost) -> ResourceCost {
        ResourceCost {
            cores: self.cores + other.cores,
            mem_bytes: self.mem_bytes + other.mem_bytes,
        }
    }
}

/// Allocatable capacity of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapacity {
    /// Allocatable CPU cores.
    pub cores: f64,
    /// Allocatable memory in bytes.
    pub mem_bytes: f64,
}

impl NodeCapacity {
    /// A node with the given allocatable capacity.
    pub fn new(cores: f64, mem_bytes: f64) -> Self {
        NodeCapacity { cores, mem_bytes }
    }
}

/// Weighted-sum scalarization of a 2-D cost. The defaults follow typical
/// cloud pricing, where one GiB of memory costs about a quarter of one
/// core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Cost per CPU core.
    pub per_core: f64,
    /// Cost per GiB of memory.
    pub per_gib: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            per_core: 1.0,
            per_gib: 0.25,
        }
    }
}

impl Weights {
    /// Scalarized cost of a demand vector.
    pub fn scalar(&self, cost: ResourceCost) -> f64 {
        self.per_core * cost.cores + self.per_gib * cost.mem_bytes / (1u64 << 30) as f64
    }
}

/// Per-service inputs to the 2-D optimization: like
/// [`ServiceModel`] but with a `(cores, bytes)` cost per LPR option.
#[derive(Debug, Clone)]
pub struct ServiceModel2d {
    /// Service name (diagnostics only).
    pub name: String,
    /// 2-D resource cost of each LPR option.
    pub cost: Vec<ResourceCost>,
    /// One latency matrix per request class; see [`ServiceModel::latency`].
    pub latency: Vec<Option<LatencyMatrix>>,
}

/// A 2-D allocation model: the 1-D model's structure plus per-option
/// memory demands, node capacities, and objective weights.
#[derive(Debug, Clone)]
pub struct Model2d {
    /// Shared percentile grid `P` (see [`MipModel::percentiles`]).
    pub percentiles: Vec<f64>,
    /// Per-service options.
    pub services: Vec<ServiceModel2d>,
    /// SLA constraints, at most one per class.
    pub constraints: Vec<SlaConstraint>,
    /// Node capacities for the placement feasibility check.
    pub nodes: Vec<NodeCapacity>,
    /// Objective scalarization.
    pub weights: Weights,
}

/// A solved 2-D allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution2d {
    /// The underlying 1-D solution over the scalarized objective (LPR and
    /// percentile choices, optimality proof, node count).
    pub base: Solution,
    /// Chosen demand per service.
    pub per_service: Vec<ResourceCost>,
    /// Total demand across services.
    pub total: ResourceCost,
    /// Node index per service from the deterministic packing, or `None`
    /// when the chosen demands fit no node assignment.
    pub placement: Option<Vec<usize>>,
}

impl Model2d {
    /// Scalarizes into a 1-D [`MipModel`] (weighted-sum objective).
    fn scalarized(&self) -> MipModel {
        MipModel {
            percentiles: self.percentiles.clone(),
            services: self
                .services
                .iter()
                .map(|s| ServiceModel {
                    name: s.name.clone(),
                    resource: s.cost.iter().map(|&c| self.weights.scalar(c)).collect(),
                    latency: s.latency.clone(),
                })
                .collect(),
            constraints: self.constraints.clone(),
        }
    }

    /// Validates the 2-D extensions, then the underlying 1-D structure.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] on non-finite/negative costs or
    /// weights, an empty node list, non-positive node capacity, or any
    /// 1-D structural error.
    pub fn validate(&self) -> Result<(), ModelError> {
        for s in &self.services {
            if s.cost
                .iter()
                .any(|c| !c.cores.is_finite() || !c.mem_bytes.is_finite())
                || s.cost.iter().any(|c| c.cores < 0.0 || c.mem_bytes < 0.0)
            {
                return Err(ModelError::Invalid(format!(
                    "service {} has an invalid 2-D cost",
                    s.name
                )));
            }
        }
        if self.nodes.is_empty() {
            return Err(ModelError::Invalid("no nodes".into()));
        }
        if self
            .nodes
            .iter()
            .any(|n| n.cores <= 0.0 || n.mem_bytes <= 0.0 || !n.cores.is_finite())
        {
            return Err(ModelError::Invalid("non-positive node capacity".into()));
        }
        if self.weights.per_core < 0.0 || self.weights.per_gib < 0.0 {
            return Err(ModelError::Invalid("negative objective weights".into()));
        }
        self.scalarized().validate()
    }
}

/// Packs one demand per item onto nodes: first-fit-decreasing by
/// scalarized demand (ties by item index), best-fit node chosen by lowest
/// mean post-placement free fraction (ties by node index — the same
/// deterministic score as the simulator's 2-D cluster placement).
/// Returns the node index per item, or `None` when some item fits
/// nowhere.
pub fn pack_first_fit(
    items: &[ResourceCost],
    nodes: &[NodeCapacity],
    weights: Weights,
) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        weights
            .scalar(items[b])
            .partial_cmp(&weights.scalar(items[a]))
            .expect("finite demand")
            .then(a.cmp(&b))
    });
    let mut cpu_used = vec![0.0f64; nodes.len()];
    let mut mem_used = vec![0.0f64; nodes.len()];
    let mut assign = vec![usize::MAX; items.len()];
    for &i in &order {
        let item = items[i];
        let mut best: Option<(f64, usize)> = None;
        for (n, node) in nodes.iter().enumerate() {
            let cpu_free = node.cores - cpu_used[n];
            let mem_free = node.mem_bytes - mem_used[n];
            if cpu_free < item.cores - 1e-9 || mem_free < item.mem_bytes - 1e-9 {
                continue;
            }
            let score = 0.5
                * ((cpu_free - item.cores) / node.cores
                    + (mem_free - item.mem_bytes) / node.mem_bytes);
            // Strict `<` keeps the lowest-index node on ties.
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, n));
            }
        }
        let (_, n) = best?;
        cpu_used[n] += item.cores;
        mem_used[n] += item.mem_bytes;
        assign[i] = n;
    }
    Some(assign)
}

/// Solves the 2-D model: exact branch-and-bound over the weighted-sum
/// objective, then the deterministic node-packing feasibility check.
///
/// # Errors
///
/// Returns [`ModelError::Invalid`] on a malformed model and
/// [`ModelError::Infeasible`] when no option assignment meets the SLAs.
/// An SLA-feasible solution that fits no node assignment is *not* an
/// error — it is returned with `placement: None`.
pub fn solve_2d(model: &Model2d) -> Result<Solution2d, ModelError> {
    model.validate()?;
    let base = solve(&model.scalarized())?;
    let per_service: Vec<ResourceCost> = model
        .services
        .iter()
        .zip(&base.lpr_choice)
        .map(|(s, &a)| s.cost[a])
        .collect();
    let total = per_service
        .iter()
        .fold(ResourceCost::default(), |acc, &c| acc.plus(c));
    let placement = pack_first_fit(&per_service, &model.nodes, model.weights);
    Ok(Solution2d {
        base,
        per_service,
        total,
        placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: f64 = (1u64 << 30) as f64;

    /// One service, one class, two options with opposite (CPU, mem)
    /// trade-offs that both meet the SLA.
    fn tradeoff_model(weights: Weights) -> Model2d {
        Model2d {
            percentiles: vec![99.0],
            services: vec![ServiceModel2d {
                name: "api".into(),
                // Option 0: CPU-heavy, memory-light. Option 1: the reverse.
                cost: vec![
                    ResourceCost::new(8.0, GIB),
                    ResourceCost::new(2.0, 16.0 * GIB),
                ],
                latency: vec![Some(LatencyMatrix::new(2, 1, vec![0.010, 0.012]))],
            }],
            constraints: vec![SlaConstraint {
                class: 0,
                percentile: 99.0,
                target: 0.050,
            }],
            nodes: vec![NodeCapacity::new(16.0, 32.0 * GIB)],
            weights,
        }
    }

    #[test]
    fn weights_flip_the_chosen_option() {
        // Expensive memory: the CPU-heavy option wins (8.25 vs 6.0 — wait,
        // with per_gib = 1.0: option 0 costs 8 + 1 = 9, option 1 costs
        // 2 + 16 = 18 → option 0).
        let cpu_pref = solve_2d(&tradeoff_model(Weights {
            per_core: 1.0,
            per_gib: 1.0,
        }))
        .unwrap();
        assert_eq!(cpu_pref.base.lpr_choice, vec![0]);
        // Nearly-free memory: the memory-heavy option wins
        // (option 0: 8.01, option 1: 2.16).
        let mem_pref = solve_2d(&tradeoff_model(Weights {
            per_core: 1.0,
            per_gib: 0.01,
        }))
        .unwrap();
        assert_eq!(mem_pref.base.lpr_choice, vec![1]);
        assert_eq!(mem_pref.total, ResourceCost::new(2.0, 16.0 * GIB));
    }

    #[test]
    fn solution_reports_2d_totals_and_placement() {
        let sol = solve_2d(&tradeoff_model(Weights::default())).unwrap();
        assert!(sol.base.proved_optimal);
        assert_eq!(sol.per_service.len(), 1);
        let placement = sol.placement.expect("fits the single node");
        assert_eq!(placement, vec![0]);
    }

    #[test]
    fn infeasible_packing_is_reported_not_fatal() {
        let mut m = tradeoff_model(Weights {
            per_core: 1.0,
            per_gib: 0.01,
        });
        // The memory-optimal choice (16 GiB) no longer fits any node.
        m.nodes = vec![NodeCapacity::new(16.0, 8.0 * GIB)];
        let sol = solve_2d(&m).unwrap();
        assert_eq!(sol.base.lpr_choice, vec![1]);
        assert!(sol.placement.is_none());
    }

    #[test]
    fn packing_respects_both_dimensions() {
        let items = vec![
            ResourceCost::new(3.0, 8.0 * GIB),
            ResourceCost::new(3.0, 8.0 * GIB),
            ResourceCost::new(3.0, 8.0 * GIB),
        ];
        // Each node has CPU for all three items but memory for only two.
        let nodes = vec![
            NodeCapacity::new(16.0, 16.0 * GIB),
            NodeCapacity::new(16.0, 16.0 * GIB),
        ];
        let assign = pack_first_fit(&items, &nodes, Weights::default()).expect("fits");
        let mem_on = |n: usize| {
            assign
                .iter()
                .zip(&items)
                .filter(|(&a, _)| a == n)
                .map(|(_, i)| i.mem_bytes)
                .sum::<f64>()
        };
        assert!(mem_on(0) <= 16.0 * GIB + 1e-6);
        assert!(mem_on(1) <= 16.0 * GIB + 1e-6);
        // CPU-only reasoning would stack all three on node 0.
        assert!(assign.contains(&1));
    }

    #[test]
    fn packing_is_deterministic_and_fails_cleanly() {
        let items = vec![ResourceCost::new(4.0, 4.0 * GIB); 4];
        let nodes = vec![NodeCapacity::new(8.0, 32.0 * GIB); 4];
        let a = pack_first_fit(&items, &nodes, Weights::default()).unwrap();
        let b = pack_first_fit(&items, &nodes, Weights::default()).unwrap();
        assert_eq!(a, b);
        // Equal-demand items fill equally-scored nodes in index order.
        assert_eq!(a, vec![0, 0, 1, 1]);
        let tiny = vec![NodeCapacity::new(2.0, GIB)];
        assert!(pack_first_fit(&items, &tiny, Weights::default()).is_none());
    }

    #[test]
    fn validation_rejects_bad_2d_inputs() {
        let mut m = tradeoff_model(Weights::default());
        m.nodes.clear();
        assert!(matches!(m.validate(), Err(ModelError::Invalid(_))));
        let mut m = tradeoff_model(Weights::default());
        m.services[0].cost[0].mem_bytes = -1.0;
        assert!(matches!(m.validate(), Err(ModelError::Invalid(_))));
        let mut m = tradeoff_model(Weights::default());
        m.weights.per_gib = -0.5;
        assert!(matches!(m.validate(), Err(ModelError::Invalid(_))));
    }
}
