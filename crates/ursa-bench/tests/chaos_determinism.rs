//! Chaos determinism: under active fault injection, the resilience grid
//! must stay (a) jobs-invariant — `--jobs 1` and `--jobs 8` render
//! byte-identical rows — and (b) seed-stable — re-running with the same
//! seed reproduces the rows exactly.

use ursa_apps::social_network;
use ursa_bench::experiments::chaos::resilience_metrics;
use ursa_bench::{f3, pct, DeploySpec, LoadSpec, PreparedManagers, Scale, System};
use ursa_metrics::pool::map_ordered;
use ursa_sim::chaos::{Fault, FaultKind, FaultPlan};
use ursa_sim::time::{SimDur, SimTime};

/// A reduced grid on the vanilla social network: two fault kinds (one
/// deterministic window, one Poisson process) crossed with two systems.
fn plans(horizon: SimDur) -> Vec<FaultPlan> {
    let mut slowdown = FaultPlan::new();
    let at = SimTime::ZERO + SimDur::from_mins(5);
    slowdown.push(Fault {
        at,
        until: at + SimDur::from_mins(4),
        kind: FaultKind::Slowdown {
            service: 1,
            factor: 5.0,
        },
    });
    let mut flaky = FaultPlan::new();
    flaky.push_renewal(
        FaultKind::ReplicaCrash {
            service: 0,
            count: 1,
        },
        SimDur::from_mins(3),
        SimDur::from_secs(30),
        horizon,
        0xD3,
    );
    vec![slowdown, flaky]
}

fn render_rows(jobs: usize, managers: &PreparedManagers) -> Vec<String> {
    let app = social_network(true);
    let plans = plans(Scale::Quick.deploy_duration());
    let systems = [System::Ursa, System::AutoA];
    let inputs: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|fi| (0..systems.len()).map(move |si| (fi, si)))
        .collect();
    map_ordered(jobs, inputs, |_, (fi, si)| {
        let plan = &plans[fi];
        let seed = 0xC4A0_57E5u64 ^ ((fi as u64) << 8) ^ si as u64;
        let report = managers.clone().deploy(DeploySpec {
            faults: Some(plan),
            ..DeploySpec::new(&app, systems[si], &LoadSpec::Constant, Scale::Quick, seed)
        });
        let span = (plan.first_at().unwrap(), plan.last_until().unwrap());
        let m = resilience_metrics(&report, span, SimDur::from_mins(1));
        format!(
            "{fi}/{si}\t{}\t{}\t{}\t{}\t{}",
            pct(m.viol_pre),
            pct(m.viol_fault),
            pct(m.viol_after),
            m.recovery_s.map(f3).unwrap_or_else(|| "never".into()),
            pct(m.overshoot),
        )
    })
}

/// The reduced grid's two plans, pinned bit for bit.
#[test]
fn plans_are_pinned() {
    let digests: Vec<String> = plans(Scale::Quick.deploy_duration())
        .iter()
        .map(|p| format!("{:016x}", p.digest()))
        .collect();
    assert_eq!(digests, ["ec38fd69b80899e9", "4df026b1f508fcc2"]);
}

#[test]
fn chaos_grid_is_jobs_invariant_and_seed_stable() {
    let app = social_network(true);
    let managers = PreparedManagers::prepare(&app, Scale::Quick, 0xC4A0_57E5);
    let serial = render_rows(1, &managers);
    let parallel = render_rows(8, &managers);
    assert_eq!(serial, parallel, "rows must not depend on --jobs");
    let again = render_rows(1, &managers);
    assert_eq!(serial, again, "rows must be reproducible at a fixed seed");
    // The faults actually bit: some cell saw violations during its window.
    assert!(
        serial.iter().any(|row| !row.contains("\t0.0%\t0.0%\t")),
        "no cell registered any fault impact: {serial:?}"
    );
}
