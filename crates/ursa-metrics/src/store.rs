//! In-memory columnar time-series store.
//!
//! One shared, strictly increasing time axis; one `f64` column per series.
//! Columns are padded with NaN for rows scraped before the series first
//! appeared (or after it stopped reporting), so every column aligns with
//! the time axis. Series are keyed by a totally ordered [`SeriesKey`]
//! (metric name + sorted label pairs), so iteration order is independent
//! of insertion order and of the order label pairs were listed in.

use std::collections::BTreeMap;

/// A sorted, deduplicated set of label pairs.
///
/// Construction sorts by key, so two label sets with the same pairs compare
/// equal regardless of argument order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// Creates a label set from `(key, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two pairs share a key.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        v.sort();
        for w in v.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate label key {:?}", w[0].0);
        }
        Labels(v)
    }

    /// The empty label set.
    pub fn empty() -> Self {
        Labels(Vec::new())
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Prometheus-style rendering: `{k1="v1",k2="v2"}`, or the empty string
    /// when no labels are set.
    fn render(&self) -> String {
        if self.0.is_empty() {
            return String::new();
        }
        let inner: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// Identity of one time series: metric name plus its label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (Prometheus naming conventions encouraged).
    pub name: String,
    /// Label set.
    pub labels: Labels,
}

impl SeriesKey {
    /// Creates a key from a name and label pairs.
    pub fn new(name: &str, labels: Labels) -> Self {
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{labels}` rendering.
    pub fn render(&self) -> String {
        format!("{}{}", self.name, self.labels.render())
    }
}

/// Columnar store: a shared time axis plus one value column per series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesStore {
    times: Vec<f64>,
    cols: BTreeMap<SeriesKey, Vec<f64>>,
}

impl TimeSeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    /// Number of rows (scrapes) recorded.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no scrape has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of distinct series.
    pub fn num_series(&self) -> usize {
        self.cols.len()
    }

    /// The shared time axis (seconds), strictly increasing.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Appends one row at time `t` with the given `(series, value)` cells.
    /// Series absent from the row get NaN; series first seen in this row
    /// are back-filled with NaN for earlier rows.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not strictly greater than the previous row's time,
    /// or if a series appears twice in the row.
    pub fn append_row(&mut self, t: f64, cells: impl IntoIterator<Item = (SeriesKey, f64)>) {
        if let Some(&last) = self.times.last() {
            assert!(
                t > last,
                "scrape times must be strictly increasing ({last} -> {t})"
            );
        }
        let row_idx = self.times.len();
        self.times.push(t);
        for (key, value) in cells {
            let col = self.cols.entry(key).or_default();
            // Back-fill rows recorded before this series existed.
            while col.len() < row_idx {
                col.push(f64::NAN);
            }
            assert!(col.len() == row_idx, "series appears twice in one row");
            col.push(value);
        }
        // Forward-fill series that skipped this row.
        for col in self.cols.values_mut() {
            while col.len() < self.times.len() {
                col.push(f64::NAN);
            }
        }
    }

    /// The aligned value column of `key` (NaN for missing rows), or `None`
    /// if the series was never recorded.
    pub fn values(&self, key: &SeriesKey) -> Option<Vec<f64>> {
        self.cols.get(key).cloned()
    }

    /// All series whose metric name equals `name`, in key order.
    pub fn series_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a SeriesKey, &'a [f64])> {
        self.cols
            .iter()
            .filter(move |(k, _)| k.name == name)
            .map(|(k, v)| (k, v.as_slice()))
    }

    /// Iterates `(key, aligned column)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &[f64])> {
        self.cols.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Extracts the rows with `t0 <= t <= t1` as a standalone store — the
    /// windowed view a post-mortem bundle embeds. Series with no
    /// non-NaN value inside the window are dropped; key order (and thus
    /// output determinism) is preserved.
    pub fn window(&self, t0: f64, t1: f64) -> TimeSeriesStore {
        let lo = self.times.partition_point(|&t| t < t0);
        let hi = self.times.partition_point(|&t| t <= t1);
        let times: Vec<f64> = self.times[lo..hi].to_vec();
        let cols: BTreeMap<SeriesKey, Vec<f64>> = self
            .cols
            .iter()
            .filter_map(|(k, col)| {
                let slice: Vec<f64> = col[lo..hi.min(col.len())].to_vec();
                slice
                    .iter()
                    .any(|v| !v.is_nan())
                    .then(|| (k.clone(), slice))
            })
            .collect();
        TimeSeriesStore { times, cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sorted_and_rendered() {
        let a = Labels::new(&[("service", "api"), ("class", "get")]);
        let b = Labels::new(&[("class", "get"), ("service", "api")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "{class=\"get\",service=\"api\"}");
        assert_eq!(Labels::empty().render(), "");
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn labels_reject_duplicates() {
        Labels::new(&[("k", "1"), ("k", "2")]);
    }

    fn key(name: &str) -> SeriesKey {
        SeriesKey::new(name, Labels::empty())
    }

    #[test]
    fn rows_align_and_backfill() {
        let mut s = TimeSeriesStore::new();
        s.append_row(60.0, [(key("a"), 1.0)]);
        s.append_row(120.0, [(key("a"), 2.0), (key("b"), 10.0)]);
        s.append_row(180.0, [(key("b"), 20.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_series(), 2);
        let a = s.values(&key("a")).unwrap();
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], 2.0);
        assert!(a[2].is_nan());
        let b = s.values(&key("b")).unwrap();
        assert!(b[0].is_nan());
        assert_eq!(&b[1..], &[10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_time_rejected() {
        let mut s = TimeSeriesStore::new();
        s.append_row(60.0, [(key("a"), 1.0)]);
        s.append_row(60.0, [(key("a"), 2.0)]);
    }

    #[test]
    fn window_slices_rows_and_drops_empty_series() {
        let mut s = TimeSeriesStore::new();
        s.append_row(60.0, [(key("a"), 1.0)]);
        s.append_row(120.0, [(key("a"), 2.0), (key("b"), 10.0)]);
        s.append_row(180.0, [(key("b"), 20.0)]);
        s.append_row(240.0, [(key("b"), 30.0)]);
        let w = s.window(120.0, 180.0);
        assert_eq!(w.times(), &[120.0, 180.0]);
        assert_eq!(w.values(&key("b")).unwrap(), vec![10.0, 20.0]);
        // "a" is NaN at 180 but present at 120: retained.
        assert_eq!(w.values(&key("a")).unwrap()[0], 2.0);
        // A window past every "a" point drops the series entirely.
        let tail = s.window(180.0, 240.0);
        assert!(tail.values(&key("a")).is_none());
        assert_eq!(tail.num_series(), 1);
        // Empty window.
        assert!(s.window(500.0, 600.0).is_empty());
    }

    #[test]
    fn series_named_filters() {
        let mut s = TimeSeriesStore::new();
        let ka = SeriesKey::new("util", Labels::new(&[("service", "a")]));
        let kb = SeriesKey::new("util", Labels::new(&[("service", "b")]));
        s.append_row(
            1.0,
            [(ka.clone(), 0.5), (kb.clone(), 0.7), (key("other"), 1.0)],
        );
        let got: Vec<&SeriesKey> = s.series_named("util").map(|(k, _)| k).collect();
        assert_eq!(got, vec![&ka, &kb]);
    }
}
