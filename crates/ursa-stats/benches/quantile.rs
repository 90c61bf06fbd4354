//! Microbenchmark for the two costs a telemetry window can charge.
//!
//! A harvest copies every window out in arrival order (`copy_out`: two
//! slice copies of a wrapped ring); only a series somebody then queries is
//! also sorted (`copy_out_and_sort`, what `QuantileWindow::sorted` and a
//! snapshot's first order-statistic query pay). The gap between the two
//! arms is what a harvest saves per unread window. Sizes are the
//! simulator's per-(service, class) and end-to-end ring capacities.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ursa_stats::quantile::QuantileWindow;
use ursa_stats::rng::Rng;

/// A full window whose ring has wrapped, so the copy takes both runs.
fn wrapped_window(capacity: usize) -> QuantileWindow {
    let mut rng = Rng::seed_from(7);
    let mut w = QuantileWindow::new(capacity);
    for _ in 0..capacity + capacity / 3 {
        w.record(rng.next_f64() * 100.0);
    }
    w
}

fn bench_quantile(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantile_window");
    for capacity in [16_384usize, 65_536] {
        let w = wrapped_window(capacity);
        group.bench_with_input(BenchmarkId::new("copy_out", capacity), &w, |b, w| {
            b.iter(|| black_box(w.to_vec()))
        });
        group.bench_with_input(
            BenchmarkId::new("copy_out_and_sort", capacity),
            &w,
            |b, w| b.iter(|| black_box(w.sorted())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_quantile);
criterion_main!(benches);
