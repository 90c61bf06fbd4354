//! The metrics registry: labeled counters, gauges, and t-digest histograms.
//!
//! A [`Registry`] maps [`SeriesKey`]s (metric name + sorted label pairs) to
//! instruments. Instruments are updated between scrapes; a scrape reads
//! every instrument in key order and appends one row to a
//! [`TimeSeriesStore`](crate::store::TimeSeriesStore). Keys are totally
//! ordered, so scrape output is independent of the order in which series
//! were first touched.

use crate::store::TimeSeriesStore;
use std::collections::BTreeMap;
use ursa_stats::tdigest::TDigest;

/// Histogram percentiles exported on every scrape (as `name_pNN` series).
pub const HISTOGRAM_PERCENTILES: [f64; 3] = [50.0, 90.0, 99.0];

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

    /// True when no labels are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Prometheus-style rendering: `{k1="v1",k2="v2"}`, or the empty string
    /// when no labels are set.
    pub fn render(&self) -> String {
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

/// One instrument in the registry.
#[derive(Debug, Clone)]
pub enum Instrument {
    /// Monotonically increasing total.
    Counter(f64),
    /// Point-in-time value, overwritten on set.
    Gauge(f64),
    /// Streaming distribution (cumulative over the run).
    Histogram(TDigest),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Registry of instruments, scraped once per harvest interval.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    series: BTreeMap<SeriesKey, Instrument>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to the counter at `name{labels}`, creating it at zero.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different instrument kind, or if
    /// `v` is negative (counters are monotone).
    pub fn counter_add(&mut self, name: &str, labels: Labels, v: f64) {
        assert!(v >= 0.0, "counter increment must be non-negative: {name}");
        match self
            .series
            .entry(SeriesKey::new(name, labels))
            .or_insert(Instrument::Counter(0.0))
        {
            Instrument::Counter(c) => *c += v,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the counter at `name{labels}` to the cumulative total `v`
    /// (for sources that already track a running total). The counter never
    /// moves backwards: a smaller `v` is ignored.
    pub fn counter_set(&mut self, name: &str, labels: Labels, v: f64) {
        match self
            .series
            .entry(SeriesKey::new(name, labels))
            .or_insert(Instrument::Counter(0.0))
        {
            Instrument::Counter(c) => *c = c.max(v),
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge at `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different instrument kind.
    pub fn gauge_set(&mut self, name: &str, labels: Labels, v: f64) {
        match self
            .series
            .entry(SeriesKey::new(name, labels))
            .or_insert(Instrument::Gauge(0.0))
        {
            Instrument::Gauge(g) => *g = v,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records an observation into the histogram at `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different instrument kind.
    pub fn histogram_record(&mut self, name: &str, labels: Labels, v: f64) {
        match self
            .series
            .entry(SeriesKey::new(name, labels))
            .or_insert_with(|| Instrument::Histogram(TDigest::new(100.0)))
        {
            Instrument::Histogram(h) => h.record(v),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The instrument at `name{labels}`, if registered.
    pub fn get(&self, name: &str, labels: &Labels) -> Option<&Instrument> {
        self.series.get(&SeriesKey::new(name, labels.clone()))
    }

    /// Scrapes every instrument into `store` as one row at time `t`
    /// (seconds). Counters and gauges export under their own name;
    /// histograms fan out to `name_p50` / `name_p90` / `name_p99` /
    /// `name_count` / `name_max`.
    pub fn scrape_into(&mut self, t: f64, store: &mut TimeSeriesStore) {
        let mut row: Vec<(SeriesKey, f64)> = Vec::with_capacity(self.series.len());
        for (key, inst) in self.series.iter_mut() {
            match inst {
                Instrument::Counter(c) => row.push((key.clone(), *c)),
                Instrument::Gauge(g) => row.push((key.clone(), *g)),
                Instrument::Histogram(h) => {
                    for p in HISTOGRAM_PERCENTILES {
                        if let Some(v) = h.percentile(p) {
                            row.push((
                                SeriesKey::new(
                                    &format!("{}_p{p:.0}", key.name),
                                    key.labels.clone(),
                                ),
                                v,
                            ));
                        }
                    }
                    row.push((
                        SeriesKey::new(&format!("{}_count", key.name), key.labels.clone()),
                        h.count() as f64,
                    ));
                    if !h.is_empty() {
                        row.push((
                            SeriesKey::new(&format!("{}_max", key.name), key.labels.clone()),
                            h.max(),
                        ));
                    }
                }
            }
        }
        store.append_row(t, row);
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

    #[test]
    fn counter_and_gauge_roundtrip() {
        let mut r = Registry::new();
        r.counter_add("requests_total", Labels::empty(), 2.0);
        r.counter_add("requests_total", Labels::empty(), 3.0);
        r.gauge_set("depth", Labels::empty(), 7.0);
        r.gauge_set("depth", Labels::empty(), 4.0);
        match r.get("requests_total", &Labels::empty()).unwrap() {
            Instrument::Counter(c) => assert_eq!(*c, 5.0),
            _ => panic!(),
        }
        match r.get("depth", &Labels::empty()).unwrap() {
            Instrument::Gauge(g) => assert_eq!(*g, 4.0),
            _ => panic!(),
        }
    }

    #[test]
    fn counter_set_is_monotone() {
        let mut r = Registry::new();
        r.counter_set("x_total", Labels::empty(), 5.0);
        r.counter_set("x_total", Labels::empty(), 3.0);
        match r.get("x_total", &Labels::empty()).unwrap() {
            Instrument::Counter(c) => assert_eq!(*c, 5.0),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.gauge_set("x", Labels::empty(), 1.0);
        r.counter_add("x", Labels::empty(), 1.0);
    }

    #[test]
    fn scrape_fans_out_histograms() {
        let mut r = Registry::new();
        for i in 0..100 {
            r.histogram_record("lat", Labels::new(&[("class", "a")]), i as f64);
        }
        let mut store = TimeSeriesStore::new();
        r.scrape_into(60.0, &mut store);
        let names: Vec<String> = store.iter().map(|(k, _)| k.name.clone()).collect();
        assert!(names.contains(&"lat_p50".to_string()));
        assert!(names.contains(&"lat_p99".to_string()));
        assert!(names.contains(&"lat_count".to_string()));
        assert!(names.contains(&"lat_max".to_string()));
        let count = store
            .values(&SeriesKey::new("lat_count", Labels::new(&[("class", "a")])))
            .unwrap();
        assert_eq!(count, vec![100.0]);
    }
}
