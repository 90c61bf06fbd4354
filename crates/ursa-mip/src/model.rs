//! The Ursa resource-optimization model (paper §IV, "MIP 1").
//!
//! Decision variables (after the paper's one-hot encoding):
//!
//! * for each service *i*, a choice `α_i` among its profiled LPR options
//!   (the paper's one-hot δ_i) — each option has a resource cost `R_i[α]`
//!   (cores needed to keep per-replica load at that LPR under current
//!   total load) and a latency distribution row `D_i^j[α][·]`;
//! * for each (service *i*, class *j*) pair on *j*'s path, a percentile
//!   choice `β_ij` over the shared grid `P` (the paper's one-hot γ_i^j).
//!
//! Constraints, per class *j* with SLA "`x_j`-th percentile ≤ `T_j`":
//!
//! 1. `Σ_i D_i^j[α_i][β_ij] ≤ T_j`  (sum of per-service latencies bounds
//!    the end-to-end latency — Theorem 1), and
//! 2. `Σ_i (100 − P[β_ij]) ≤ 100 − x_j` (the percentile-residual budget
//!    that makes Theorem 1 applicable).
//!
//! Objective: minimize `Σ_i R_i[α_i]`.

/// Latency matrix of one (service, class): `rows = LPR options`,
/// `cols = percentile grid`, entries in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl LatencyMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`, any entry is negative or
    /// non-finite, or either dimension is zero.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(
            data.iter().all(|x| *x >= 0.0 && x.is_finite()),
            "latencies must be finite and non-negative"
        );
        LatencyMatrix { rows, cols, data }
    }

    /// Number of LPR options (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of percentile grid points (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Latency at LPR option `alpha`, percentile index `beta`.
    #[inline]
    pub fn at(&self, alpha: usize, beta: usize) -> f64 {
        self.data[alpha * self.cols + beta]
    }

    /// One LPR option's latency row.
    pub fn row(&self, alpha: usize) -> &[f64] {
        &self.data[alpha * self.cols..(alpha + 1) * self.cols]
    }
}

/// Per-service inputs to the optimization.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Service name (diagnostics only).
    pub name: String,
    /// Resource cost in CPU cores of each LPR option (`R_i`), computed by
    /// the caller from the current total load via the paper's Equation 3.
    pub resource: Vec<f64>,
    /// One latency matrix per request class; `None` when the class does not
    /// traverse this service. All `Some` matrices must have `resource.len()`
    /// rows and the shared percentile-grid width.
    pub latency: Vec<Option<LatencyMatrix>>,
}

/// One end-to-end SLA constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaConstraint {
    /// Class index (into each service's `latency` vector).
    pub class: usize,
    /// SLA percentile `x_j` (e.g. 99.0).
    pub percentile: f64,
    /// SLA latency target `T_j` in seconds.
    pub target: f64,
}

/// A validated optimization model.
#[derive(Debug, Clone)]
pub struct MipModel {
    /// Shared percentile grid `P`, strictly increasing, within `(0, 100)`.
    pub percentiles: Vec<f64>,
    /// Per-service options.
    pub services: Vec<ServiceModel>,
    /// SLA constraints, at most one per class.
    pub constraints: Vec<SlaConstraint>,
}

/// Error produced when a model fails validation or has no feasible solution.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The model inputs are structurally inconsistent.
    Invalid(String),
    /// No assignment satisfies every SLA constraint; carries the class index
    /// of the first constraint that cannot be met even with maximum
    /// resources (alone, every service on its best latency row). When every
    /// constraint can be met alone and only their combination cannot, it
    /// carries the class of the first constraint violated by the greedy
    /// start, each service at its minimum-latency option.
    Infeasible { class: usize },
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::Invalid(msg) => write!(f, "invalid model: {msg}"),
            ModelError::Infeasible { class } => {
                write!(
                    f,
                    "no feasible allocation satisfies the SLA of class {class}"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

impl MipModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] if the percentile grid is not
    /// strictly increasing inside `(0, 100)`, a service has no options or
    /// mismatched matrix shapes, a constraint references a missing class or
    /// has a percentile below the grid minimum, or duplicate constraints
    /// target one class.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.percentiles.is_empty() {
            return Err(ModelError::Invalid("empty percentile grid".into()));
        }
        if !self.percentiles.windows(2).all(|w| w[0] < w[1]) {
            return Err(ModelError::Invalid(
                "percentile grid must be strictly increasing".into(),
            ));
        }
        if self.percentiles[0] <= 0.0 || *self.percentiles.last().expect("non-empty") >= 100.0 {
            return Err(ModelError::Invalid(
                "percentiles must lie in (0, 100)".into(),
            ));
        }
        let h = self.percentiles.len();
        for svc in &self.services {
            if svc.resource.is_empty() {
                return Err(ModelError::Invalid(format!(
                    "service {} has no LPR options",
                    svc.name
                )));
            }
            if svc.resource.iter().any(|r| *r < 0.0 || !r.is_finite()) {
                return Err(ModelError::Invalid(format!(
                    "service {} has invalid resource",
                    svc.name
                )));
            }
            for lat in svc.latency.iter().flatten() {
                if lat.rows() != svc.resource.len() || lat.cols() != h {
                    return Err(ModelError::Invalid(format!(
                        "service {} has a latency matrix of shape {}x{}, expected {}x{}",
                        svc.name,
                        lat.rows(),
                        lat.cols(),
                        svc.resource.len(),
                        h
                    )));
                }
            }
        }
        for (k, c) in self.constraints.iter().enumerate() {
            if self.constraints[..k].iter().any(|p| p.class == c.class) {
                return Err(ModelError::Invalid(format!(
                    "duplicate constraint for class {}",
                    c.class
                )));
            }
            if !(0.0..100.0).contains(&c.percentile) || c.target <= 0.0 {
                return Err(ModelError::Invalid(format!(
                    "bad constraint for class {}",
                    c.class
                )));
            }
            for svc in &self.services {
                if c.class >= svc.latency.len() {
                    return Err(ModelError::Invalid(format!(
                        "constraint class {} out of range for service {}",
                        c.class, svc.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Services traversed by `class` (those with a latency matrix for it).
    pub fn services_of_class(&self, class: usize) -> Vec<usize> {
        self.services
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.latency.get(class).and_then(|m| m.as_ref()).map(|_| i))
            .collect()
    }

    /// Percentile residual `100 − P[beta]`.
    pub fn residual(&self, beta: usize) -> f64 {
        100.0 - self.percentiles[beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> MipModel {
        // Two services, one class; 2 LPR options each; grid {99, 99.9}.
        let m = |vals: Vec<f64>| Some(LatencyMatrix::new(2, 2, vals));
        MipModel {
            percentiles: vec![99.0, 99.9],
            services: vec![
                ServiceModel {
                    name: "a".into(),
                    resource: vec![4.0, 2.0],
                    latency: vec![m(vec![0.010, 0.015, 0.030, 0.045])],
                },
                ServiceModel {
                    name: "b".into(),
                    resource: vec![6.0, 3.0],
                    latency: vec![m(vec![0.020, 0.030, 0.060, 0.090])],
                },
            ],
            constraints: vec![SlaConstraint {
                class: 0,
                percentile: 99.0,
                target: 0.100,
            }],
        }
    }

    #[test]
    fn valid_model_passes() {
        tiny_model().validate().expect("valid");
    }

    #[test]
    fn matrix_accessors() {
        let m = LatencyMatrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn rejects_unsorted_grid() {
        let mut m = tiny_model();
        m.percentiles = vec![99.9, 99.0];
        assert!(matches!(m.validate(), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut m = tiny_model();
        m.services[0].latency[0] = Some(LatencyMatrix::new(1, 2, vec![0.01, 0.02]));
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_duplicate_constraints() {
        let mut m = tiny_model();
        m.constraints.push(m.constraints[0]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn services_of_class_filters_none() {
        let mut m = tiny_model();
        m.services[1].latency = vec![None];
        assert_eq!(m.services_of_class(0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn matrix_rejects_negative() {
        LatencyMatrix::new(1, 1, vec![-1.0]);
    }
}
