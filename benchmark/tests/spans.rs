//! Span self time: duration minus the union of the children's coverage.

use ursa_benchmark::spans::{self_times, Recorder, Span, OWN_LAYER};

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        layer: "l",
        start_ns,
        end_ns,
        parent,
        unit: 1,
        count: 0,
    }
}

#[test]
fn sequential_children_are_subtracted() {
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(40, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 50]);
}

#[test]
fn overlapping_children_are_counted_once() {
    // Two workers under one parent: 10..60 and 40..80 cover 10..80.
    let spans = [
        span(0, 100, None),
        span(10, 60, Some(0)),
        span(40, 80, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 30);
    // A child nested inside a sibling's interval adds nothing.
    let spans = [
        span(0, 100, None),
        span(10, 90, Some(0)),
        span(20, 30, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 20);
}

#[test]
fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
    let spans = [
        span(50, 100, None),
        span(40, 70, Some(0)),   // sticks out at the front: covers 50..70
        span(90, 130, Some(0)),  // sticks out at the back: covers 90..100
        span(55, 60, Some(1)),   // grandchild: its parent's business
        span(200, 300, Some(0)), // entirely outside: covers nothing
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[0], 20);
    assert_eq!(selfs[1], 25);
}

#[test]
fn recorder_nests_through_its_stack_and_is_silent_when_disabled() {
    let mut rec = Recorder::new(true);
    rec.set_unit(7);
    let unit = rec.enter("unit", OWN_LAYER);
    let a = rec.enter("run_for", "engine");
    rec.exit(a, 11);
    let b = rec.enter("harvest", "telemetry");
    rec.exit(b, 0);
    rec.exit(unit, 0);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
    assert_eq!(rec.by_layer(7)["engine"].count, 11);
    let covered = rec.coverage_pct(7);
    assert!((0.0..=100.0).contains(&covered), "{covered}");

    let mut off = Recorder::new(false);
    let s = off.enter("x", "y");
    off.exit(s, 1);
    assert!(off.spans().is_empty());
}
