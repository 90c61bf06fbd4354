//! Gradient-boosted regression trees, from scratch.
//!
//! Sinan pairs its CNN with boosted trees to predict the probability that a
//! resource allocation leads to an SLA violation later on; this module
//! provides the boosted-tree half. Squared-error boosting with depth-limited
//! CART trees and candidate-threshold splitting.

use ursa_stats::rng::Rng;

/// Hyper-parameters for [`GbtRegressor::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Candidate split thresholds sampled per feature per node.
    pub candidates_per_feature: usize,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 60,
            max_depth: 4,
            min_samples_split: 8,
            learning_rate: 0.15,
            candidates_per_feature: 16,
        }
    }
}

/// One node of a fitted tree. A split sends a row to `next[0]` when its
/// `feature` is at most `value` and to `next[1]` otherwise; a leaf holds its
/// `value` and sends every row back to itself, so a walk of a tree's full
/// depth ends on the leaf a row reaches, whatever depth that leaf is at.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// A split's threshold, or a leaf's value.
    value: f64,
    feature: u32,
    next: [u32; 2],
}

/// One fitted tree: where it starts in the node arena, and the depth of its
/// deepest leaf.
#[derive(Debug, Clone, Copy)]
struct Tree {
    root: u32,
    depth: u32,
}

/// An arena index as stored in a [`Node`].
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("tree arena index fits u32")
}

fn mean(idx: &[usize], y: &[f64]) -> f64 {
    idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len().max(1) as f64
}

fn sse_around_mean(idx: &[usize], y: &[f64]) -> f64 {
    let m = mean(idx, y);
    idx.iter().map(|&i| (y[i] - m) * (y[i] - m)).sum()
}

/// Fits one tree to `residuals` over the samples `idx`, appends it to
/// `nodes` depth-first and returns its depth.
fn build_tree(
    xs: &[Vec<f64>],
    residuals: &[f64],
    idx: &[usize],
    depth: usize,
    params: &GbtParams,
    rng: &mut Rng,
    nodes: &mut Vec<Node>,
) -> u32 {
    let leaf = |nodes: &mut Vec<Node>| {
        let at = index(nodes.len());
        nodes.push(Node {
            value: mean(idx, residuals),
            feature: 0,
            next: [at, at],
        });
        0
    };
    if depth >= params.max_depth || idx.len() < params.min_samples_split {
        return leaf(nodes);
    }
    let n_features = xs[0].len();
    let parent_sse = sse_around_mean(idx, residuals);
    // (gain, feature, threshold)
    let mut best: Option<(f64, usize, f64)> = None;
    // Column-wise scan: `f` indexes a feature across all sample rows, so
    // iterating `xs` (the rows) is not an equivalent rewrite.
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        for _ in 0..params.candidates_per_feature {
            let pivot = xs[idx[rng.index(idx.len())]][f];
            let (mut ln, mut ls, mut lss) = (0usize, 0.0, 0.0);
            let (mut rn, mut rs, mut rss) = (0usize, 0.0, 0.0);
            for &i in idx {
                let v = residuals[i];
                if xs[i][f] <= pivot {
                    ln += 1;
                    ls += v;
                    lss += v * v;
                } else {
                    rn += 1;
                    rs += v;
                    rss += v * v;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let child_sse = (lss - ls * ls / ln as f64) + (rss - rs * rs / rn as f64);
            let gain = parent_sse - child_sse;
            if gain > best.map(|(g, _, _)| g).unwrap_or(1e-12) {
                best = Some((gain, f, pivot));
            }
        }
    }
    let Some((_, feature, threshold)) = best else {
        return leaf(nodes);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| xs[i][feature] <= threshold);
    let split = nodes.len();
    nodes.push(Node {
        value: threshold,
        feature: index(feature),
        next: [index(split + 1), 0],
    });
    let left = build_tree(xs, residuals, &left_idx, depth + 1, params, rng, nodes);
    nodes[split].next[1] = index(nodes.len());
    let right = build_tree(xs, residuals, &right_idx, depth + 1, params, rng, nodes);
    1 + left.max(right)
}

/// A fitted gradient-boosted regression model.
#[derive(Debug, Clone)]
pub struct GbtRegressor {
    base: f64,
    learning_rate: f64,
    /// Every tree's nodes, one tree after another.
    nodes: Vec<Node>,
    trees: Vec<Tree>,
}

impl GbtRegressor {
    /// Fits boosted trees to `(xs, ys)` with squared-error loss.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or rows have inconsistent widths.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &GbtParams, seed: u64) -> Self {
        assert!(!xs.is_empty() && xs.len() == ys.len(), "bad dataset");
        let width = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == width), "ragged rows");
        let mut rng = Rng::seed_from(seed);
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut pred = vec![base; ys.len()];
        let mut model = GbtRegressor {
            base,
            learning_rate: params.learning_rate,
            nodes: Vec::new(),
            trees: Vec::with_capacity(params.n_trees),
        };
        let all_idx: Vec<usize> = (0..ys.len()).collect();
        for _ in 0..params.n_trees {
            let residuals: Vec<f64> = ys.iter().zip(&pred).map(|(y, p)| y - p).collect();
            let root = index(model.nodes.len());
            let depth = build_tree(
                xs,
                &residuals,
                &all_idx,
                0,
                params,
                &mut rng,
                &mut model.nodes,
            );
            let tree = Tree { root, depth };
            model.trees.push(tree);
            for (p, x) in pred.iter_mut().zip(xs) {
                *p += params.learning_rate * model.leaf(tree, |f| x[f]);
            }
        }
        model
    }

    /// The value of the leaf `x` reaches in `tree`; `x(f)` is feature `f`.
    /// The walk has no exit test to mispredict: it always takes the tree's
    /// depth in steps.
    #[inline]
    fn leaf(&self, tree: Tree, x: impl Fn(usize) -> f64) -> f64 {
        let mut at = tree.root as usize;
        for _ in 0..tree.depth {
            let node = &self.nodes[at];
            let left = x(node.feature as usize) <= node.value;
            at = node.next[usize::from(!left)] as usize;
        }
        self.nodes[at].value
    }

    /// Predicts the target for one feature row: a batch of one.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut out = [0.0];
        self.predict_batch(x, &mut out);
        out[0]
    }

    /// Predicts the targets of `out.len()` rows at once. `xs` holds them
    /// feature-major (feature `f` of row `c` at `f * out.len() + c`), the
    /// layout of [`crate::Mlp::predict_batch`]; every prediction has the
    /// bits [`predict`](Self::predict) gives its row alone — the trees'
    /// values are summed in tree order, from the start `Iterator::sum`
    /// uses for floats, then scaled and added to the base.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is shorter than a split's feature requires.
    pub fn predict_batch(&self, xs: &[f64], out: &mut [f64]) {
        let batch = out.len();
        out.fill(-0.0);
        for &tree in &self.trees {
            for (c, sum) in out.iter_mut().enumerate() {
                *sum += self.leaf(tree, |f| xs[f * batch + c]);
            }
        }
        for v in out {
            *v = self.base + self.learning_rate * *v;
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean squared error over a dataset.
    pub fn mse(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        xs.iter()
            .zip(ys)
            .map(|(x, y)| {
                let p = self.predict(x);
                (p - y) * (p - y)
            })
            .sum::<f64>()
            / ys.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::to_columns;
    use proptest::prelude::*;

    /// The leaf `x` reaches from `at`, found by recursive descent: a node
    /// that sends every row back to itself is a leaf.
    fn descend(nodes: &[Node], at: usize, x: &[f64]) -> f64 {
        let node = nodes[at];
        if node.next == [index(at); 2] {
            node.value
        } else if x[node.feature as usize] <= node.value {
            descend(nodes, node.next[0] as usize, x)
        } else {
            descend(nodes, node.next[1] as usize, x)
        }
    }

    /// The model's prediction by recursive descent, the trees' values
    /// summed the way `Iterator::sum` sums them.
    fn predict_recursively(model: &GbtRegressor, x: &[f64]) -> f64 {
        let trees = model.trees.iter();
        let sum: f64 = trees
            .map(|t| descend(&model.nodes, t.root as usize, x))
            .sum();
        model.base + model.learning_rate * sum
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fixed-depth walk over the flat arena reaches the leaves a
        /// recursive descent of the same splits does, so batched and
        /// one-row predictions have its bits — on the training rows, whose
        /// values sit exactly on the split thresholds, and on fresh ones.
        #[test]
        fn flat_trees_match_recursive_descent(
            rows in 8usize..120,
            width in 1usize..6,
            n_trees in 1usize..12,
            max_depth in 0usize..7,
            batch in 1usize..70,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from(seed);
            let mut draw = |n: usize| -> Vec<Vec<f64>> {
                (0..n).map(|_| (0..width).map(|_| (rng.next_f64() * 8.0).floor() - 4.0).collect()).collect()
            };
            let xs = draw(rows);
            let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0] - x[width - 1]).collect();
            let params = GbtParams { n_trees, max_depth, min_samples_split: 4, ..GbtParams::default() };
            let model = GbtRegressor::fit(&xs, &ys, &params, seed);
            let mut fresh = draw(batch);
            fresh.extend(xs.iter().take(batch).cloned());
            let mut columns = Vec::new();
            to_columns(fresh.iter().map(Vec::as_slice), width, &mut columns, "width");
            let mut out = vec![f64::NAN; fresh.len()];
            model.predict_batch(&columns, &mut out);
            for (x, got) in fresh.iter().zip(&out) {
                let want = predict_recursively(&model, x).to_bits();
                prop_assert_eq!(got.to_bits(), want);
                prop_assert_eq!(model.predict(x).to_bits(), want);
            }
        }
    }

    fn dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] * x[0] + 0.5 * x[1] + if x[1] > 0.7 { 2.0 } else { 0.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = dataset(600, 1);
        let model = GbtRegressor::fit(&xs, &ys, &GbtParams::default(), 2);
        let var = {
            let m = ys.iter().sum::<f64>() / ys.len() as f64;
            ys.iter().map(|y| (y - m) * (y - m)).sum::<f64>() / ys.len() as f64
        };
        let mse = model.mse(&xs, &ys);
        assert!(mse < var * 0.1, "mse {mse} vs var {var}");
    }

    #[test]
    fn generalizes_to_held_out() {
        let (xs, ys) = dataset(800, 3);
        let (test_x, test_y) = dataset(200, 4);
        let model = GbtRegressor::fit(&xs, &ys, &GbtParams::default(), 5);
        let var = {
            let m = test_y.iter().sum::<f64>() / test_y.len() as f64;
            test_y.iter().map(|y| (y - m) * (y - m)).sum::<f64>() / test_y.len() as f64
        };
        let mse = model.mse(&test_x, &test_y);
        assert!(mse < var * 0.25, "test mse {mse} vs var {var}");
    }

    #[test]
    fn constant_target_yields_base() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![5.0, 5.0, 5.0];
        let model = GbtRegressor::fit(&xs, &ys, &GbtParams::default(), 1);
        assert!((model.predict(&[1.5]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_fit() {
        let (xs, ys) = dataset(100, 7);
        let a = GbtRegressor::fit(&xs, &ys, &GbtParams::default(), 9);
        let b = GbtRegressor::fit(&xs, &ys, &GbtParams::default(), 9);
        assert_eq!(a.predict(&xs[0]), b.predict(&xs[0]));
    }

    #[test]
    fn more_trees_fit_better() {
        let (xs, ys) = dataset(400, 11);
        let small = GbtRegressor::fit(
            &xs,
            &ys,
            &GbtParams {
                n_trees: 5,
                ..Default::default()
            },
            1,
        );
        let big = GbtRegressor::fit(
            &xs,
            &ys,
            &GbtParams {
                n_trees: 80,
                ..Default::default()
            },
            1,
        );
        assert!(big.mse(&xs, &ys) < small.mse(&xs, &ys));
        assert_eq!(big.n_trees(), 80);
    }
}
