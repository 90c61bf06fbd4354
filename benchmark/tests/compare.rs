//! A ledger written, read back, and compared against variations of itself.

use ursa_benchmark::compare::{compare, verdict, Side, Verdict};
use ursa_benchmark::json::Json;

/// A one-workload ledger with the given `wall_s` runs and event count.
fn ledger(walls: &[f64], events: f64) -> Json {
    let (q1, median, q3) = ursa_benchmark::stats::quartiles(walls);
    Json::obj([
        ("schema", Json::str(ursa_benchmark::ledger::LEDGER_SCHEMA)),
        (
            "workloads",
            Json::obj([(
                "engine_steady",
                Json::obj([
                    ("ops_failed", Json::Num(0.0)),
                    (
                        "end_to_end",
                        Json::obj([(
                            "wall_s",
                            Json::obj([
                                ("unit", Json::str("s")),
                                ("better", Json::str("lower")),
                                ("bound", Json::Num(0.10)),
                                ("values", Json::nums(walls)),
                                ("q1", Json::Num(q1)),
                                ("median", Json::Num(median)),
                                ("q3", Json::Num(q3)),
                            ]),
                        )]),
                    ),
                    (
                        "per_layer",
                        Json::obj([
                            (
                                "engine.events_live",
                                Json::obj([
                                    ("value", Json::Num(events)),
                                    ("unit", Json::str("count")),
                                ]),
                            ),
                            (
                                "engine.run_ns_per_event",
                                Json::obj([("value", Json::Num(163.2)), ("unit", Json::str("ns"))]),
                            ),
                        ]),
                    ),
                ]),
            )]),
        ),
    ])
}

const STEADY: [f64; 5] = [3.50, 3.52, 3.48, 3.51, 3.49];

#[test]
fn json_round_trips_and_a_set_agrees_with_itself() {
    let a = ledger(&STEADY, 19_707_982.0);
    let text = a.render();
    let back = Json::parse(&text).expect("rendered JSON parses");
    assert_eq!(back, a);
    assert_eq!(back.render(), text);
    let outcome = compare(&a, &back).expect("both are ledgers");
    assert_eq!(
        (outcome.regressed, outcome.unresolved, outcome.mismatched),
        (0, 0, 0)
    );
    assert_eq!(outcome.exit_code(), 0);
    assert!(outcome.table.contains("engine_steady") && outcome.table.contains("ok"));
}

#[test]
fn a_slower_median_beyond_the_bound_regresses() {
    let a = ledger(&STEADY, 1.0);
    let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.15).collect();
    let outcome = compare(&a, &ledger(&slower, 1.0)).unwrap();
    assert_eq!(outcome.regressed, 1);
    assert_eq!(outcome.exit_code(), 1);
    // Within the bound, and faster, are both fine.
    let slightly: Vec<f64> = STEADY.iter().map(|w| w * 1.05).collect();
    assert_eq!(compare(&a, &ledger(&slightly, 1.0)).unwrap().exit_code(), 0);
    let faster: Vec<f64> = STEADY.iter().map(|w| w * 0.5).collect();
    assert_eq!(compare(&a, &ledger(&faster, 1.0)).unwrap().exit_code(), 0);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    let noisy = [3.0, 3.9, 3.5, 4.4, 2.8];
    let outcome = compare(&ledger(&STEADY, 1.0), &ledger(&noisy, 1.0)).unwrap();
    assert_eq!((outcome.regressed, outcome.unresolved), (0, 1));
    assert_eq!(outcome.exit_code(), 0);
    assert!(outcome.table.contains("unresolved"));
}

#[test]
fn counts_must_be_equal_but_timings_need_not() {
    let outcome = compare(
        &ledger(&STEADY, 19_707_982.0),
        &ledger(&STEADY, 19_707_983.0),
    )
    .unwrap();
    assert_eq!(outcome.mismatched, 1);
    assert_eq!(outcome.exit_code(), 1);
    assert!(outcome.table.contains("engine.events_live"));
}

#[test]
fn direction_follows_better() {
    let side = |m: f64| Side {
        q1: m,
        median: m,
        q3: m,
    };
    assert_eq!(
        verdict(side(100.0), side(85.0), false, 0.10),
        Verdict::Regressed
    );
    assert_eq!(verdict(side(100.0), side(85.0), true, 0.10), Verdict::Ok);
    assert_eq!(verdict(side(100.0), side(115.0), false, 0.10), Verdict::Ok);
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    assert!(Json::parse("{\"a\": [1, 2,, 3]}").is_err());
    assert!(Json::parse("{\"a\": 1} trailing").is_err());
    assert!(Json::parse(&"[".repeat(10_000)).is_err());
    assert!(compare(&Json::Null, &Json::Null).is_err());
}
