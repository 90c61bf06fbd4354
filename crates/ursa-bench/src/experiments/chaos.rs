//! **`--exp chaos`** — the resilience experiment: every system of §VII-B
//! versus every fault kind of the simulator's chaos plane
//! ([`ursa_sim::chaos`]), on the full social network.
//!
//! Each cell deploys one system under constant load with one fault plan
//! installed (a mid-run window for the one-shot kinds, a Poisson
//! MTBF/MTTR process for the `flaky-crash` row) and reports SLA violation
//! rates before/during/after the fault, the time from recovery-edge to the
//! first sustained violation-free window, the steady-state allocation
//! overshoot versus the pre-fault baseline, and — for Ursa — how many
//! latency-anomaly re-explorations the fault provoked (visible in the
//! `DecisionLog` as `anomaly-reexplore` records).
//!
//! The whole grid runs on the shared cell runner: rows are byte-identical
//! for any `--jobs` value at a fixed `--seed` (enforced by
//! `tests/chaos_determinism.rs`).

use crate::runner::run_cells;
use crate::{
    f3, pct, write_dashboard_and_decisions, DeploySpec, LoadSpec, PreparedManagers, RunCtx, Scale,
    System, TsvTable,
};
use ursa_apps::{social_network, App};
use ursa_core::decision_log::DecisionKind;
use ursa_sim::chaos::{Fault, FaultKind, FaultPlan};
use ursa_sim::control::{mean_cores, violated_share, DeploymentReport};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::time::{SimDur, SimTime};

/// Seed base for the chaos grid (mixed with the global `--seed`).
const CHAOS_SEED: u64 = 0xC4A0_5C11;

/// Experiment outcome.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The rendered resilience table (TSV content, also written to
    /// `results/chaos/chaos_resilience.tsv`).
    pub tsv: String,
    /// Total `anomaly-reexplore` decisions across Ursa's rows.
    pub ursa_reexplorations: usize,
}

/// The fault plans of the grid for one scale. Kinds cover all five fault
/// primitives plus one stochastic (Poisson MTBF/MTTR) row exercising the
/// renewal-process path.
pub fn fault_plans(app: &App, scale: Scale) -> Vec<(String, FaultPlan)> {
    let svc = |name: &str| app.service(name).unwrap_or_else(|| panic!("{name}")).0;
    let post_store = svc("post-store");
    let social_graph = svc("social-graph");
    let sentiment = svc("sentiment");
    let object_detect = svc("object-detect");
    // A mid-run window, long enough to outlast the anomaly detector's
    // patience (3 one-minute control windows), with room to recover.
    let (start, dur) = match scale {
        Scale::Quick => (SimDur::from_mins(5), SimDur::from_mins(4)),
        Scale::Full => (SimDur::from_mins(12), SimDur::from_mins(12)),
    };
    let at = SimTime::ZERO + start;
    let window = |name: &str, kind| {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            at,
            until: at + dur,
            kind,
        });
        (name.to_string(), plan)
    };
    // Crash-looping replica: Poisson failures, exponential repair.
    let mut flaky = FaultPlan::new();
    flaky.push_renewal(
        FaultKind::ReplicaCrash {
            service: post_store,
            count: 1,
        },
        SimDur::from_mins(3),
        SimDur::from_secs(30),
        scale.deploy_duration(),
        crate::mix_seed(CHAOS_SEED),
    );
    vec![
        // Noisy neighbor on a service every interactive class traverses.
        window(
            "slowdown",
            FaultKind::Slowdown {
                service: post_store,
                factor: 6.0,
            },
        ),
        // The heavy ML tier loses all but one replica.
        window(
            "replica-crash",
            FaultKind::ReplicaCrash {
                service: object_detect,
                count: 99,
            },
        ),
        // A whole machine dies, taking co-located replicas across services.
        window("node-failure", FaultKind::NodeFailure { node: 0 }),
        // Degraded RPC edge toward a fan-out dependency: latency spike,
        // 30 % drops, 100 ms timeout, up to 3 retries with backoff.
        window(
            "rpc-fault",
            FaultKind::RpcFault {
                service: social_graph,
                extra_delay: SimDur::from_millis(30),
                drop_prob: 0.3,
                timeout: SimDur::from_millis(100),
                max_retries: 3,
            },
        ),
        // Broker stall on the MQ feeding the sentiment model.
        window("mq-stall", FaultKind::MqStall { service: sentiment }),
        ("flaky-crash".to_string(), flaky),
    ]
}

/// Per-cell resilience metrics derived from a deployment report and the
/// fault span it ran under.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceMetrics {
    /// SLA violation fraction over pre-fault windows.
    pub viol_pre: f64,
    /// Violation fraction over windows overlapping the fault span.
    pub viol_fault: f64,
    /// Violation fraction over post-fault windows.
    pub viol_after: f64,
    /// Seconds from the recovery edge to the first of two consecutive
    /// violation-free windows; `None` when the run never settles.
    pub recovery_s: Option<f64>,
    /// Post-recovery mean allocated cores relative to the pre-fault mean,
    /// minus one (steady-state overshoot).
    pub overshoot: f64,
}

/// Computes [`ResilienceMetrics`] for one report against a fault span.
pub fn resilience_metrics(
    report: &DeploymentReport,
    span: (SimTime, SimTime),
    interval: SimDur,
) -> ResilienceMetrics {
    let (start, end) = span;
    let clear = |r: &ursa_sim::control::WindowRecord| -> bool {
        r.class_violation.iter().flatten().all(|v| !v)
    };
    // A window harvested at `at` covers `(at - interval, at]`; it overlaps
    // the fault span when it ends after the injection and starts before
    // the recovery edge.
    let pre: Vec<_> = report.records.iter().filter(|r| r.at <= start).collect();
    let during: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.at > start && r.at < end + interval)
        .collect();
    let after: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.at >= end + interval)
        .collect();
    let mut recovery_s = None;
    let mut recovered_from = after.len();
    for i in 0..after.len() {
        let settled = clear(after[i]) && (i + 1 >= after.len() || clear(after[i + 1]));
        if settled {
            recovery_s = Some((after[i].at.as_secs_f64() - end.as_secs_f64()).max(0.0));
            recovered_from = i;
            break;
        }
    }
    let pre_cores = mean_cores(pre.iter().copied());
    let post_cores = mean_cores(after[recovered_from.min(after.len())..].iter().copied());
    let overshoot = if pre_cores > 0.0 && post_cores > 0.0 {
        post_cores / pre_cores - 1.0
    } else {
        0.0
    };
    ResilienceMetrics {
        viol_pre: violated_share(pre),
        viol_fault: violated_share(during),
        viol_after: violated_share(after),
        recovery_s,
        overshoot,
    }
}

/// Runs one grid cell, returning the rendered table row.
pub fn run_cell(
    app: &App,
    managers: &PreparedManagers,
    plans: &[(String, FaultPlan)],
    fi: usize,
    si: usize,
    scale: Scale,
    ctx: &RunCtx,
) -> Vec<String> {
    let (label, plan) = &plans[fi];
    let system = System::ALL[si];
    let seed = CHAOS_SEED ^ ((fi as u64) << 8) ^ si as u64;
    let cell = format!("chaos-{label}-{}", system.label());
    let mut mgrs = managers.clone();
    // `--artifacts-dir` meters the Ursa cells (the cells with a decision
    // log) and writes each one's dashboard and decision log. Metering is
    // non-perturbing, so the TSV rows stay byte-identical either way.
    let dir = ctx
        .artifacts_dir
        .as_deref()
        .filter(|_| system == System::Ursa);
    let mut metrics =
        dir.map(|_| SimMetrics::for_topology(system.label(), &app.topology, &app.slas));
    let report = mgrs.deploy(DeploySpec {
        faults: Some(plan),
        metrics: metrics.as_mut(),
        ..DeploySpec::new(app, system, &LoadSpec::Constant, scale, seed)
    });
    let span = (
        plan.first_at().expect("non-empty plan"),
        plan.last_until().expect("non-empty plan"),
    );
    let m = resilience_metrics(&report, span, SimDur::from_mins(1));
    let reexplores = if system == System::Ursa {
        // Digest + tail of the cell's decision log into the run manifest
        // (keyed by cell name in a BTreeMap, so recording order under
        // `--jobs N` cannot leak into the manifest). `diff` uses this to
        // localise where two runs' control decisions first diverged.
        ctx.manifest().note_decisions(&cell, mgrs.ursa.decisions());
        if let (Some(dir), Some(m)) = (dir, metrics.as_ref()) {
            let title = format!("Chaos — Ursa on {} under {label}", app.name);
            write_dashboard_and_decisions(dir, "chaos", &cell, &title, m, mgrs.ursa.decisions());
        }
        mgrs.ursa
            .decisions()
            .records()
            .filter(|r| matches!(r.kind, DecisionKind::AnomalyReExplore { .. }))
            .count()
            .to_string()
    } else {
        "-".into()
    };
    vec![
        label.clone(),
        system.label().into(),
        pct(m.viol_pre),
        pct(m.viol_fault),
        pct(m.viol_after),
        m.recovery_s.map(f3).unwrap_or_else(|| "never".into()),
        pct(m.overshoot),
        reexplores,
    ]
}

/// Runs the resilience grid.
pub fn run(scale: Scale, ctx: &RunCtx) -> ChaosResult {
    println!("== chaos: fault-injection resilience, every system x every fault kind ==");
    let app = social_network(false);
    let managers = PreparedManagers::prepare(&app, scale, CHAOS_SEED);
    let plans = fault_plans(&app, scale);
    ctx.manifest().set_topology_digest(app.topology.digest());
    for (name, plan) in &plans {
        ctx.manifest().note_chaos_digest(name, plan.digest());
    }
    let inputs: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|fi| (0..System::ALL.len()).map(move |si| (fi, si)))
        .collect();
    let rows = run_cells(inputs, |_, (fi, si)| {
        run_cell(&app, &managers, &plans, fi, si, scale, ctx)
    });
    let mut table = TsvTable::new(
        "chaos_resilience",
        &[
            "fault",
            "system",
            "viol_pre",
            "viol_fault",
            "viol_after",
            "recovery_s",
            "overshoot",
            "reexplores",
        ],
    );
    let mut ursa_reexplorations = 0usize;
    for row in rows {
        if row[1] == "ursa" {
            ursa_reexplorations += row[7].parse::<usize>().unwrap_or(0);
        }
        table.row(row);
    }
    print!("{}", table.render());
    let _ = table.write_tsv(ctx, "chaos");
    println!(
        "ursa latency-anomaly re-explorations across faults: {ursa_reexplorations} \
         (see anomaly-reexplore records in the decision log)"
    );
    ChaosResult {
        tsv: table.to_tsv(),
        ursa_reexplorations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_rates, prepare_ursa};
    use ursa_sim::control::{run_deployment, DeployConfig};
    use ursa_sim::workload::RateFn;

    /// The acceptance-criterion path: a slowdown fault drives p99 past the
    /// SLA long enough that the latency-anomaly detector fires and the
    /// re-exploration request lands in the decision log.
    #[test]
    fn slowdown_triggers_anomaly_reexploration() {
        let app = social_network(false);
        let mut ursa = prepare_ursa(&app, Scale::Quick, CHAOS_SEED);
        let plans = fault_plans(&app, Scale::Quick);
        let (label, plan) = &plans[0];
        assert_eq!(label, "slowdown");
        let mut sim = app.build_sim(CHAOS_SEED);
        sim.install_faults(plan, CHAOS_SEED);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        ursa.apply_initial_allocation(&default_rates(&app), &mut sim);
        let cfg = DeployConfig {
            duration: Scale::Quick.deploy_duration(),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
        };
        run_deployment(&mut sim, &app.slas, &mut ursa, &cfg);
        let reexplores = ursa
            .decisions()
            .records()
            .filter(|r| matches!(r.kind, DecisionKind::AnomalyReExplore { .. }))
            .count();
        assert!(reexplores > 0, "slowdown must provoke a re-exploration");
        let witnessed = ursa
            .decisions()
            .records()
            .filter(|r| matches!(r.kind, DecisionKind::FaultWitnessed { .. }))
            .count();
        assert_eq!(witnessed, 2, "injection + recovery land in the log");
    }

    /// The stochastic row actually generates windows within the horizon.
    #[test]
    fn fault_plans_cover_all_kinds() {
        let app = social_network(false);
        let plans = fault_plans(&app, Scale::Quick);
        assert_eq!(plans.len(), 6);
        let kinds: std::collections::BTreeSet<&str> = plans
            .iter()
            .flat_map(|(_, p)| p.faults.iter().map(|f| f.kind.label()))
            .collect();
        assert!(kinds.len() >= 4, "kinds {kinds:?}");
        for (name, plan) in &plans {
            assert!(!plan.is_empty(), "{name} is empty");
            assert!(
                plan.last_until().unwrap() <= SimTime::ZERO + Scale::Quick.deploy_duration(),
                "{name} exceeds the horizon"
            );
        }
    }

    /// The grid's fault schedules at both scales, pinned bit for bit: how
    /// the plans are built may change, the windows they hold may not.
    #[test]
    fn fault_plan_digests_are_pinned() {
        let app = social_network(false);
        let digests = |scale| -> Vec<(String, String)> {
            fault_plans(&app, scale)
                .into_iter()
                .map(|(name, plan)| (name, format!("{:016x}", plan.digest())))
                .collect()
        };
        let pinned = |rows: [(&str, &str); 6]| -> Vec<(String, String)> {
            rows.iter()
                .map(|&(n, d)| (n.to_string(), d.to_string()))
                .collect()
        };
        assert_eq!(
            digests(Scale::Quick),
            pinned([
                ("slowdown", "3b963b31cb6e8aa6"),
                ("replica-crash", "f1ed203396246915"),
                ("node-failure", "b80f11a7eb0bc0dd"),
                ("rpc-fault", "3f526bdb889bcf3f"),
                ("mq-stall", "2805256ad29a567d"),
                ("flaky-crash", "fb5f85293ff8169c"),
            ])
        );
        assert_eq!(
            digests(Scale::Full),
            pinned([
                ("slowdown", "0ddc6cb7ca6b5be5"),
                ("replica-crash", "67376b34ce079446"),
                ("node-failure", "fc24ea556513512e"),
                ("rpc-fault", "de240fd827a1a718"),
                ("mq-stall", "0c14609a3c564a8e"),
                ("flaky-crash", "3eb6163a969c076e"),
            ])
        );
    }

    #[test]
    fn resilience_metrics_partition_windows() {
        use ursa_sim::control::WindowRecord;
        let mk = |at_s: f64, viol: bool, cores: f64| WindowRecord {
            at: SimTime::from_secs_f64(at_s),
            class_latency: vec![Some(0.1)],
            class_violation: vec![Some(viol)],
            class_rps: vec![10.0],
            service_replicas: vec![1],
            service_rps: vec![10.0],
            service_cpu_util: vec![0.5],
            total_cores: cores,
        };
        let report = DeploymentReport {
            slas: vec![],
            records: vec![
                mk(60.0, false, 10.0),
                mk(120.0, false, 10.0),
                mk(180.0, true, 14.0), // fault active
                mk(240.0, true, 16.0),
                mk(300.0, true, 16.0), // still overlaps the recovery edge
                mk(360.0, true, 14.0), // lingering post-fault impact
                mk(420.0, false, 12.0),
            ],
            decision_wall_ms: 0.0,
        };
        let span = (SimTime::from_secs_f64(130.0), SimTime::from_secs_f64(250.0));
        let m = resilience_metrics(&report, span, SimDur::from_secs(60));
        assert_eq!(m.viol_pre, 0.0);
        assert_eq!(m.viol_fault, 1.0);
        assert!((m.viol_after - 0.5).abs() < 1e-12);
        // First sustained-clear window is at t=420: 170 s after the edge.
        assert_eq!(m.recovery_s, Some(170.0));
        // Post-recovery cores 12 vs pre 10.
        assert!((m.overshoot - 0.2).abs() < 1e-12);
    }
}
