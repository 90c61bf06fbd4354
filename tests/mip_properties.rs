//! Property-based validation of the MIP solver stack.
//!
//! The exact branch-and-bound solver must agree with brute-force
//! enumeration on every feasible/infeasible verdict and every objective
//! value; the greedy solver must be feasible and never better than exact;
//! solution percentile choices must respect the residual budgets.

use proptest::prelude::*;
use ursa::mip::{
    solve, solve_brute_force, solve_greedy, LatencyMatrix, MipModel, ModelError, ServiceModel,
    SlaConstraint,
};

const GRID: [f64; 3] = [99.0, 99.5, 99.9];
const GRID_RESIDUAL_UNITS: [usize; 3] = [10, 5, 1];

/// Strategy for a random small model: 1–4 services, 1–2 classes,
/// 2–4 LPR options with monotone resource/latency structure plus noise.
fn small_model() -> impl Strategy<Value = MipModel> {
    let service = (
        2usize..5,
        proptest::collection::vec(0.002f64..0.08, 2),
        any::<u64>(),
    );
    (
        proptest::collection::vec(service, 1..5),
        1usize..3,
        proptest::collection::vec(0.01f64..0.4, 2),
    )
        .prop_map(|(svc_params, n_classes, targets)| {
            let services = svc_params
                .into_iter()
                .enumerate()
                .map(|(si, (n_opts, base_lat, seed))| {
                    let mut rng = ursa::stats::rng::Rng::seed_from(seed);
                    let resource: Vec<f64> = (0..n_opts)
                        .map(|o| (n_opts - o) as f64 * (1.0 + rng.next_f64()))
                        .collect();
                    let latency = (0..n_classes)
                        .map(|c| {
                            if si == 0 || rng.chance(0.8) {
                                let b = base_lat[c.min(base_lat.len() - 1)];
                                let data: Vec<f64> = (0..n_opts)
                                    .flat_map(|o| {
                                        let row = b * (1.0 + o as f64 * (0.5 + rng.next_f64()));
                                        vec![
                                            row,
                                            row * (1.0 + rng.next_f64()),
                                            row * (2.0 + rng.next_f64()),
                                        ]
                                    })
                                    .collect();
                                Some(LatencyMatrix::new(n_opts, 3, data))
                            } else {
                                None
                            }
                        })
                        .collect();
                    ServiceModel {
                        name: format!("s{si}"),
                        resource,
                        latency,
                    }
                })
                .collect();
            let constraints = (0..n_classes)
                .map(|c| SlaConstraint {
                    class: c,
                    percentile: 99.0,
                    target: targets[c],
                })
                .collect();
            MipModel {
                percentiles: GRID.to_vec(),
                services,
                constraints,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact solver ≡ brute force on verdict and objective.
    #[test]
    fn exact_agrees_with_brute_force(model in small_model()) {
        match (solve(&model), solve_brute_force(&model)) {
            (Ok(e), Ok(b)) => {
                prop_assert!((e.objective - b.objective).abs() < 1e-9,
                    "exact {} vs brute {}", e.objective, b.objective);
                prop_assert!(e.proved_optimal);
            }
            (Err(ModelError::Infeasible { .. }), Err(ModelError::Infeasible { .. })) => {}
            (e, b) => prop_assert!(false, "verdict mismatch: {e:?} vs {b:?}"),
        }
    }

    /// Greedy is feasible and never beats exact.
    #[test]
    fn greedy_dominated_by_exact(model in small_model()) {
        if let (Ok(g), Ok(e)) = (solve_greedy(&model), solve(&model)) {
            prop_assert!(g.objective >= e.objective - 1e-9,
                "greedy {} < exact {}", g.objective, e.objective);
        }
    }

    /// Solutions respect the per-class residual budget and latency target.
    #[test]
    fn solutions_respect_constraints(model in small_model()) {
        if let Ok(sol) = solve(&model) {
            for (k, c) in model.constraints.iter().enumerate() {
                let betas = &sol.percentile_choice[k];
                let spent: usize = betas.iter().map(|&b| GRID_RESIDUAL_UNITS[b]).sum();
                prop_assert!(spent <= 10, "class {k}: residual spend {spent} > 10 units");
                let latency = sol.estimated_latency(&model, k);
                prop_assert!(latency <= c.target + 1e-9,
                    "class {k}: bound {latency} > target {}", c.target);
            }
        }
    }

    /// Loosening every SLA target never increases the optimal objective.
    #[test]
    fn objective_monotone_in_targets(model in small_model(), slack in 1.1f64..4.0) {
        let tight = solve(&model);
        let mut loose_model = model.clone();
        for c in &mut loose_model.constraints {
            c.target *= slack;
        }
        let loose = solve(&loose_model);
        match (tight, loose) {
            (Ok(t), Ok(l)) => prop_assert!(l.objective <= t.objective + 1e-9,
                "loose {} > tight {}", l.objective, t.objective),
            (Err(_), Ok(_)) => {} // infeasible -> feasible under looser targets: fine
            (Ok(t), Err(e)) => prop_assert!(false, "tight feasible ({t:?}) but loose infeasible ({e:?})"),
            (Err(_), Err(_)) => {}
        }
    }
}

/// The one failure proptest ever saved for `exact_agrees_with_brute_force`
/// (a single service whose resources are not monotone in its options, so
/// the cheapest option is not the last). The vendored shim does not read
/// `*.proptest-regressions` files, so the case lives here by name.
#[test]
fn exact_agrees_with_brute_force_on_non_monotone_resources() {
    let model = MipModel {
        percentiles: GRID.to_vec(),
        services: vec![ServiceModel {
            name: "s0".into(),
            resource: vec![
                4.815560045162602,
                5.208537649388579,
                3.8663633913593225,
                1.149804571163851,
            ],
            latency: vec![Some(LatencyMatrix::new(
                4,
                3,
                vec![
                    0.049843022255471575,
                    0.08813567995247075,
                    0.1369072153147591,
                    0.11508328587314524,
                    0.13405228366405142,
                    0.27834780078294696,
                    0.10033419145031108,
                    0.14037552624002744,
                    0.23416239420759613,
                    0.16136172557840445,
                    0.18760777243259827,
                    0.4043343617254326,
                ],
            ))],
        }],
        constraints: vec![SlaConstraint {
            class: 0,
            percentile: 99.0,
            target: 0.057649747929763843,
        }],
    };
    let exact = solve(&model).expect("option 0 meets the target at p99");
    let brute = solve_brute_force(&model).expect("feasible");
    assert_eq!(exact.lpr_choice, vec![0]);
    assert_eq!(brute.lpr_choice, vec![0]);
    assert_eq!(exact.objective, 4.815560045162602);
    assert_eq!(brute.objective, exact.objective);
    assert!(exact.proved_optimal);
}
