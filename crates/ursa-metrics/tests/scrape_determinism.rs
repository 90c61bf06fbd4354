//! Property: a store built from rows is a pure function of each row's
//! *set* of cells — independent of the order a row lists its cells in and
//! of the order label pairs were listed in.
//!
//! This is what makes the metrics pipeline safe to diff across runs: two
//! runs that append the same rows build byte-identical stores — the same
//! keys in the same order, the same columns to the bit — and so embed
//! identical series digests in their run manifests, even if control flow
//! produced the cells in a different order.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use proptest::prelude::*;
use ursa_metrics::{store_digests, Labels, SeriesKey, TimeSeriesStore};

/// One generated cell: name index, label pairs (by small-pool index), and
/// its value.
#[derive(Debug, Clone)]
struct CellSpec {
    name: u8,
    labels: Vec<(u8, u8)>,
    value: f64,
}

/// Up to five rows of up to six cells each; rows may name different
/// series, so columns get NaN padding.
fn rows_spec() -> impl Strategy<Value = Vec<Vec<CellSpec>>> {
    let cell = (
        0u8..4,
        proptest::collection::vec((0u8..3, 0u8..3), 0..3),
        0.0f64..100.0,
    )
        .prop_map(|(name, labels, value)| CellSpec {
            name,
            labels,
            value,
        });
    proptest::collection::vec(proptest::collection::vec(cell, 0..6), 1..5)
}

/// Label pairs of a cell in generated order, one per key (the first one
/// listed).
fn label_pairs(cell: &CellSpec) -> Vec<(String, String)> {
    let mut seen = BTreeSet::new();
    cell.labels
        .iter()
        .filter(|(k, _)| seen.insert(*k))
        .map(|(k, v)| (format!("k{k}"), format!("v{v}")))
        .collect()
}

/// Appends every row to a fresh store at 60 s intervals. A series named
/// twice in one row keeps its first cell, so both orders append the same
/// cells. `reversed` flips the order of each row's cells and of every
/// cell's label pairs.
fn build(rows: &[Vec<CellSpec>], reversed: bool) -> TimeSeriesStore {
    let mut store = TimeSeriesStore::new();
    for (i, row) in rows.iter().enumerate() {
        let mut seen = BTreeSet::new();
        let mut cells: Vec<(SeriesKey, f64)> = Vec::new();
        for cell in row {
            let mut pairs = label_pairs(cell);
            let mut sorted = pairs.clone();
            sorted.sort();
            if !seen.insert((cell.name, sorted)) {
                continue;
            }
            if reversed {
                pairs.reverse();
            }
            let refs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let key = SeriesKey::new(&format!("series{}", cell.name), Labels::new(&refs));
            cells.push((key, cell.value));
        }
        if reversed {
            cells.reverse();
        }
        store.append_row(60.0 * (i + 1) as f64, cells);
    }
    store
}

/// Renders what a run manifest is built from: every key in store order
/// with its column's bits, then [`store_digests`].
fn render(store: &TimeSeriesStore) -> String {
    let mut out = format!("{:?}\n", store.times());
    for (key, col) in store.iter() {
        let bits: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
        let _ = writeln!(out, "{} {bits:?}", key.render());
    }
    out.push_str("---\n");
    for (key, summary) in store_digests(store) {
        let _ = writeln!(out, "{} {summary:?}", key.render());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_is_independent_of_cell_order(rows in rows_spec()) {
        let forward = render(&build(&rows, false));
        let backward = render(&build(&rows, true));
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn repeated_builds_are_byte_identical(rows in rows_spec()) {
        // Determinism across identical runs (no hidden iteration-order or
        // hash-seed dependence anywhere in store or digests).
        let a = render(&build(&rows, false));
        let b = render(&build(&rows, false));
        prop_assert_eq!(a, b);
    }
}
