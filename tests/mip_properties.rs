//! Property-based validation of the MIP solver stack.
//!
//! The exact branch-and-bound solver must agree with brute-force
//! enumeration on every feasible/infeasible verdict and every objective
//! value; the greedy solver must be feasible and never better than exact;
//! solution percentile choices must respect the residual budgets; and a
//! prepared [`Solver`] re-priced through any sequence of resource tables
//! must answer each as a fresh [`solve`] of the model carrying it does.
//!
//! The generator's models (at most four services of at most four options)
//! all have class option spaces far below the solver's verdict-table
//! bound, so every check here goes through the tables the solver settles
//! at preparation and none through the DP it keeps for larger classes. The
//! two paths are held to each other by `ursa-mip`'s own differential
//! proptest (`settled_classes_answer_as_the_dp_does`), which prepares the
//! same model with every class tabulated, with none and with some.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ursa::mip::{
    solve, solve_brute_force, solve_greedy, LatencyMatrix, MipModel, ModelError, ServiceModel,
    SlaConstraint, Solution, Solver,
};
use ursa::stats::rng::Rng;

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

/// `model` with `table` (flat, services in order) as its resources.
fn with_resources(model: &MipModel, table: &[f64]) -> MipModel {
    let mut priced = model.clone();
    let mut entries = table.iter();
    for svc in &mut priced.services {
        for r in &mut svc.resource {
            *r = *entries.next().expect("table covers every option");
        }
    }
    priced
}

/// A resource table for `model` drawn from `seed`: coarse on even seeds,
/// so that spreads and costs tie and the stable sorts have ties to keep.
fn table_from(model: &MipModel, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed);
    let entries: usize = model.services.iter().map(|s| s.resource.len()).sum();
    (0..entries)
        .map(|_| {
            if seed.is_multiple_of(2) {
                (1 + rng.index(4)) as f64
            } else {
                0.5 + 10.0 * rng.next_f64()
            }
        })
        .collect()
}

/// Drives one [`Solver`] through `tables` and holds every answer to a fresh
/// `solve` of the model carrying that table: the same `Solution` (objective
/// to the bit, `nodes_explored` included) or the same error, with the
/// caller's solution left alone by a failed call. A model the solver
/// refuses at build time must fail the same way under every valid table.
fn assert_matches_fresh_solves(model: &MipModel, tables: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let mut solver = Solver::new(model);
    let mut solution = Solution::default();
    for (step, table) in tables.iter().enumerate() {
        let fresh = solve(&with_resources(model, table));
        match &mut solver {
            Ok(solver) => {
                let before = solution.clone();
                match (solver.solve_at(table, &mut solution), fresh) {
                    (Ok(()), Ok(fresh)) => {
                        prop_assert!(
                            solution == fresh
                                && solution.objective.to_bits() == fresh.objective.to_bits(),
                            "step {step}: {solution:?} vs fresh {fresh:?}"
                        );
                    }
                    (Err(got), Err(fresh)) => {
                        prop_assert!(got == fresh, "step {step}: {got:?} vs fresh {fresh:?}");
                        prop_assert!(
                            solution == before,
                            "step {step}: a failed call wrote {solution:?}"
                        );
                    }
                    (got, fresh) => prop_assert!(false, "step {step}: {got:?} vs {fresh:?}"),
                }
            }
            Err(refused) => {
                if table.iter().all(|r| r.is_finite() && *r >= 0.0) {
                    prop_assert!(
                        fresh.as_ref() == Err(&*refused),
                        "step {step}: refused with {refused:?}, fresh {fresh:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

/// `seeds` as a sequence of tables, then the first with every service's
/// cost order reversed, the first again, one poisoned with an invalid
/// entry, and the first once more after the failure.
fn table_sequence(model: &MipModel, seeds: &[u64], poison: f64) -> Vec<Vec<f64>> {
    let mut tables: Vec<Vec<f64>> = seeds.iter().map(|&s| table_from(model, s)).collect();
    let first = tables[0].clone();
    let mut reversed = Vec::with_capacity(first.len());
    let mut at = 0;
    for svc in &model.services {
        let options = &first[at..at + svc.resource.len()];
        reversed.extend(options.iter().rev());
        at += options.len();
    }
    let mut poisoned = first.clone();
    let hit = seeds[0] as usize % poisoned.len();
    poisoned[hit] = poison;
    tables.extend([reversed, first.clone(), poisoned, first]);
    tables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One prepared solver, re-priced step by step ≡ a fresh solve per step.
    #[test]
    fn prepared_solver_agrees_with_fresh_solves(
        model in small_model(),
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
        poison in 0usize..3,
    ) {
        let poison = [f64::NAN, f64::INFINITY, -1.0][poison];
        assert_matches_fresh_solves(&model, &table_sequence(&model, &seeds, poison))?;
    }

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

/// The two ways a model has no solution, through a prepared solver: a class
/// that fails alone is refused when the solver is built; classes that can
/// each be met alone but never together fail every `solve_at`, naming the
/// class the greedy start violated.
#[test]
fn prepared_solver_reports_infeasibility_as_fresh_solves_do() {
    let shared = |resource: Vec<f64>, rows: [Vec<f64>; 2]| ServiceModel {
        name: "shared".into(),
        latency: rows
            .into_iter()
            .map(|r| Some(LatencyMatrix::new(r.len() / 2, 2, r)))
            .collect(),
        resource,
    };
    let p99 = |class, target| SlaConstraint {
        class,
        percentile: 99.0,
        target,
    };
    // Option 0 is fast for class 0 and slow for class 1, option 1 the
    // reverse.
    let jointly = MipModel {
        percentiles: vec![99.0, 99.9],
        services: vec![shared(
            vec![2.0, 1.0],
            [
                vec![0.010, 0.010, 0.500, 0.500],
                vec![0.400, 0.400, 0.010, 0.010],
            ],
        )],
        constraints: vec![p99(0, 0.050), p99(1, 0.050)],
    };
    let mut solver = Solver::new(&jointly).expect("each class can be met alone");
    let mut solution = Solution::default();
    assert_eq!(
        solver.solve_at(&[2.0, 1.0], &mut solution),
        Err(ModelError::Infeasible { class: 1 })
    );
    // Class 1 cannot be met by the only option.
    let alone = MipModel {
        percentiles: vec![99.0, 99.9],
        services: vec![shared(vec![1.0], [vec![0.010, 0.020], vec![0.010, 0.020]])],
        constraints: vec![p99(0, 1.0), p99(1, 0.001)],
    };
    assert_eq!(
        Solver::new(&alone).err(),
        Some(ModelError::Infeasible { class: 1 })
    );
    for model in [jointly, alone] {
        let tables = table_sequence(&model, &[4, 7], f64::NAN);
        assert_matches_fresh_solves(&model, &tables).expect("same errors as fresh solves");
    }
}
