//! Per-series digests for cross-run diffing.
//!
//! A [`SeriesSummary`] compresses one time-series column into a handful of
//! scalars (count, min, max, mean, last) that a run manifest can embed and
//! `ursa-bench diff` can align between two runs. Digests skip NaN padding
//! (the store pads a series with NaN on rows where it was absent), so two
//! runs whose series start at different scrape rows still digest to
//! comparable values.
//!
//! [`store_digests`] exports every series of a
//! [`TimeSeriesStore`](crate::store::TimeSeriesStore) with its digest,
//! **sorted by name + labels**. The store is already BTreeMap-backed, but
//! the export sorts explicitly so manifest/report ordering never depends on
//! the backing map — the diff contract is "stable series order across
//! platforms and insertion orders", and this is where it is enforced.

use crate::store::{SeriesKey, TimeSeriesStore};

/// Scalar digest of one series column (NaN entries ignored).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSummary {
    /// Finite observations in the column.
    pub count: usize,
    /// Minimum finite value (0 when the column is all-NaN).
    pub min: f64,
    /// Maximum finite value (0 when the column is all-NaN).
    pub max: f64,
    /// Mean of the finite values (0 when the column is all-NaN).
    pub mean: f64,
    /// Last finite value (0 when the column is all-NaN).
    pub last: f64,
}

impl SeriesSummary {
    /// Digests one column, skipping NaN/infinite padding.
    fn of(values: &[f64]) -> Self {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut last = 0.0;
        for &v in values {
            if v.is_finite() {
                count += 1;
                min = min.min(v);
                max = max.max(v);
                sum += v;
                last = v;
            }
        }
        if count == 0 {
            return SeriesSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                last: 0.0,
            };
        }
        SeriesSummary {
            count,
            min,
            max,
            mean: sum / count as f64,
            last,
        }
    }
}

/// Digests every series of a store, sorted by `(name, labels)`.
pub fn store_digests(store: &TimeSeriesStore) -> Vec<(SeriesKey, SeriesSummary)> {
    let mut out: Vec<(SeriesKey, SeriesSummary)> = store
        .iter()
        .map(|(key, col)| (key.clone(), SeriesSummary::of(col)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Labels;

    #[test]
    fn summary_skips_nan_padding() {
        let s = SeriesSummary::of(&[f64::NAN, 1.0, 3.0, f64::NAN, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.last, 2.0);
    }

    #[test]
    fn all_nan_column_digests_to_zeroes() {
        let s = SeriesSummary::of(&[f64::NAN, f64::NAN]);
        assert_eq!(s.count, 0);
        assert_eq!(s.last, 0.0);
    }

    #[test]
    fn store_digests_sorted_by_key() {
        let mut store = TimeSeriesStore::new();
        // Insert deliberately out of order.
        store.append_row(
            1.0,
            vec![
                (SeriesKey::new("zzz", Labels::empty()), 9.0),
                (SeriesKey::new("aaa", Labels::empty()), 1.0),
                (SeriesKey::new("aaa", Labels::new(&[("svc", "x")])), 2.0),
            ],
        );
        let digests = store_digests(&store);
        let names: Vec<String> = digests.iter().map(|(k, _)| k.render()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(digests.len(), 3);
        assert_eq!(digests[0].1.last, 1.0);
    }
}
