//! Property: registry scrape output is a pure function of the *set* of
//! series and their update streams — independent of the order in which
//! series were first touched and of the order label pairs were listed.
//!
//! This is what makes the metrics pipeline safe to diff across runs: two
//! runs that perform the same updates scrape byte-identical stores — the
//! same keys in the same order, the same columns to the bit — and so embed
//! identical series digests in their run manifests, even if control flow
//! touched the instruments in a different order.

use std::fmt::Write as _;

use proptest::prelude::*;
use ursa_metrics::{store_digests, Labels, Registry, TimeSeriesStore};

/// One generated series: instrument kind, name index, label pairs (by
/// small-pool index), and an update stream.
#[derive(Debug, Clone)]
struct SeriesSpec {
    kind: u8,
    name: u8,
    labels: Vec<(u8, u8)>,
    values: Vec<f64>,
}

fn series_spec() -> impl Strategy<Value = Vec<SeriesSpec>> {
    proptest::collection::vec(
        (
            0u8..3,
            0u8..4,
            proptest::collection::vec((0u8..3, 0u8..3), 0..3),
            proptest::collection::vec(0.0f64..100.0, 1..5),
        )
            .prop_map(|(kind, name, labels, values)| SeriesSpec {
                kind,
                name,
                labels,
                values,
            }),
        1..6,
    )
}

/// Normalized, deduplicated label pairs of a spec (keys are unique).
fn label_pairs(spec: &SeriesSpec) -> Vec<(String, String)> {
    let mut map = std::collections::BTreeMap::new();
    for (k, v) in &spec.labels {
        map.entry(format!("k{k}")).or_insert(format!("v{v}"));
    }
    map.into_iter().collect()
}

/// Series identity: kind is baked into the name so the same key never
/// collides across instrument kinds (which would be a caller bug).
fn series_name(spec: &SeriesSpec) -> String {
    match spec.kind {
        0 => format!("counter{}_total", spec.name),
        1 => format!("gauge{}", spec.name),
        _ => format!("hist{}", spec.name),
    }
}

/// Applies all specs to a fresh registry. `reversed` flips both the order
/// series are first touched and the order label pairs are presented;
/// per-series update streams keep their order (gauges are last-write-wins
/// by contract).
fn build(specs: &[SeriesSpec], reversed: bool) -> Registry {
    // Dedup by identity so both orders apply the same update stream per
    // series exactly once.
    let mut seen = std::collections::BTreeSet::new();
    let mut unique: Vec<&SeriesSpec> = Vec::new();
    for s in specs {
        if seen.insert((series_name(s), label_pairs(s))) {
            unique.push(s);
        }
    }
    if reversed {
        unique.reverse();
    }
    let mut r = Registry::new();
    for spec in unique {
        let mut pairs = label_pairs(spec);
        if reversed {
            pairs.reverse();
        }
        let refs: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let name = series_name(spec);
        for &v in &spec.values {
            match spec.kind {
                0 => r.counter_add(&name, Labels::new(&refs), v),
                1 => r.gauge_set(&name, Labels::new(&refs), v),
                _ => r.histogram_record(&name, Labels::new(&refs), v),
            }
        }
    }
    r
}

/// Scrapes twice and renders what a run manifest is built from: every
/// key in store order with its column's bits, then [`store_digests`].
fn render(mut r: Registry) -> String {
    let mut store = TimeSeriesStore::new();
    r.scrape_into(60.0, &mut store);
    r.scrape_into(120.0, &mut store);
    let mut out = format!("{:?}\n", store.times());
    for (key, col) in store.iter() {
        let bits: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
        let _ = writeln!(out, "{} {bits:?}", key.render());
    }
    out.push_str("---\n");
    for (key, summary) in store_digests(&store) {
        let _ = writeln!(out, "{} {summary:?}", key.render());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scrape_is_independent_of_insertion_order(specs in series_spec()) {
        let forward = render(build(&specs, false));
        let backward = render(build(&specs, true));
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn repeated_builds_are_byte_identical(specs in series_spec()) {
        // Determinism across identical runs (no hidden iteration-order or
        // hash-seed dependence anywhere in registry, store, or digests).
        let a = render(build(&specs, false));
        let b = render(build(&specs, false));
        prop_assert_eq!(a, b);
    }
}
