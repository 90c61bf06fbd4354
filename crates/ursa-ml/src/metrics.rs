//! Evaluation metrics for the learned baselines.
//!
//! The paper attributes part of Sinan's SLA violations to its violation
//! predictor's 80–85 % accuracy; these helpers let the reproduction measure
//! the same quantity on held-out data.

/// Binary classification accuracy of scores thresholded at `threshold`
/// against 0/1 labels.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(scores: &[f64], labels: &[f64], threshold: f64) -> f64 {
    assert!(!scores.is_empty() && scores.len() == labels.len());
    let correct = scores
        .iter()
        .zip(labels)
        .filter(|(s, l)| (**s >= threshold) == (**l >= 0.5))
        .count();
    correct as f64 / scores.len() as f64
}

/// Area under the ROC curve of scores against 0/1 labels
/// (rank-based; ties contribute half).
///
/// Returns `None` if either class is absent.
pub fn auc(scores: &[f64], labels: &[f64]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len());
    let pos: Vec<f64> = scores
        .iter()
        .zip(labels)
        .filter(|(_, l)| **l >= 0.5)
        .map(|(s, _)| *s)
        .collect();
    let neg: Vec<f64> = scores
        .iter()
        .zip(labels)
        .filter(|(_, l)| **l < 0.5)
        .map(|(s, _)| *s)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return None;
    }
    let mut wins = 0.0;
    for p in &pos {
        for n in &neg {
            if p > n {
                wins += 1.0;
            } else if (p - n).abs() < 1e-12 {
                wins += 0.5;
            }
        }
    }
    Some(wins / (pos.len() * neg.len()) as f64)
}

/// Deterministic train/test split by index stride: every `k`-th row goes to
/// the test set.
pub fn split_indices(n: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(k >= 2, "k must be at least 2");
    let mut train = Vec::new();
    let mut test = Vec::new();
    for i in 0..n {
        if i % k == 0 {
            test.push(i);
        } else {
            train.push(i);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_thresholding() {
        let scores = [0.1, 0.9, 0.6, 0.4];
        let labels = [0.0, 1.0, 0.0, 1.0];
        assert_eq!(accuracy(&scores, &labels, 0.5), 0.5);
        assert_eq!(accuracy(&scores, &[0.0, 1.0, 1.0, 0.0], 0.5), 1.0);
    }

    #[test]
    fn auc_perfect_and_random() {
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), Some(1.0));
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), Some(0.0));
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &labels), Some(0.5));
        assert_eq!(auc(&[0.5], &[1.0]), None);
    }

    #[test]
    fn split_is_partition() {
        let (train, test) = split_indices(10, 5);
        assert_eq!(test, vec![0, 5]);
        assert_eq!(train.len() + test.len(), 10);
        assert!(train.iter().all(|i| !test.contains(i)));
    }
}
