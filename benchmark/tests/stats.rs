//! Order statistics: quartiles as the acceptance check computes them, and
//! the rule that picks which tail percentile a sample can support.

use ursa_benchmark::stats::{median, percentile, quartiles, tail, tail_percentile};

fn close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-12, "{a} vs {b}");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(xs, n=4) on the same inputs.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q2, q3) = quartiles(&ten);
    close(q1, 2.75);
    close(q2, 5.5);
    close(q3, 8.25);

    let (q1, q2, q3) = quartiles(&[3.0, 1.0, 2.0]);
    close(q1, 1.0);
    close(q2, 2.0);
    close(q3, 3.0);

    // Two samples: Python extrapolates past both ends.
    let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
    close(q1, 0.75);
    close(q2, 1.5);
    close(q3, 2.25);

    let walls = [3.7, 3.4, 3.5, 3.9, 3.45, 3.6, 3.55, 3.8, 3.65, 3.52];
    let (q1, q2, q3) = quartiles(&walls);
    close(q1, 3.4875);
    close(q2, 3.575);
    close(q3, 3.725);
}

#[test]
fn median_of_few_units() {
    close(median(&[]), 0.0);
    close(median(&[4.2]), 4.2);
    close(median(&[1.0, 3.0]), 2.0);
    close(median(&[9.0, 1.0, 5.0]), 5.0);
    close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn percentile_interpolates_between_ranks() {
    let xs: Vec<f64> = (0..=100).map(f64::from).collect();
    close(percentile(&xs, 0.0), 0.0);
    close(percentile(&xs, 50.0), 50.0);
    close(percentile(&xs, 99.0), 99.0);
    close(percentile(&[10.0, 20.0], 25.0), 12.5);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // p99 needs 1 000 samples, p98 500, p95 200, p90 100, p75 40, p50 20.
    assert_eq!(tail_percentile(60_000, 99.0), Some(99.0));
    assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
    assert_eq!(tail_percentile(999, 99.0), Some(98.0));
    assert_eq!(tail_percentile(500, 99.0), Some(98.0));
    assert_eq!(tail_percentile(499, 99.0), Some(95.0));
    assert_eq!(tail_percentile(120, 99.0), Some(90.0));
    assert_eq!(tail_percentile(60, 99.0), Some(75.0));
    assert_eq!(tail_percentile(20, 99.0), Some(50.0));
    assert_eq!(tail_percentile(19, 99.0), None);
    // The cap keeps a metric named _p98 from reporting p99.
    assert_eq!(tail_percentile(60_000, 98.0), Some(98.0));
}

#[test]
fn tail_falls_back_to_the_maximum_on_small_samples() {
    let eight = [5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 8.0, 7.0];
    assert_eq!(tail(&eight, 99.0), (100.0, 9.0));
    let many: Vec<f64> = (0..120).map(f64::from).collect();
    let (p, v) = tail(&many, 99.0);
    assert_eq!(p, 90.0);
    close(v, 0.9 * 119.0);
}
