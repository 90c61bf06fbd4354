//! **`--exp qos`** — the resource-plane experiment: every system of
//! §VII-B under a memory-pressure sweep on the full social network, with
//! Kubernetes-style requests/limits, QoS tiers, OOM-kill, and pressure
//! eviction supplied by the [`ursa_k8s`] plane.
//!
//! The pod templates (and therefore the annotated topology and the
//! prepared managers) are *identical* across pressure levels — only the
//! node memory capacity and the leak term of the profile sweep:
//!
//! * `ample` — 32 GiB nodes, no leak: the control row, memory never
//!   matters;
//! * `tight` — 3 GiB nodes: working sets crowd the nodes, pressure
//!   eviction and noisy-neighbor throttling appear;
//! * `overcommit` — 2 GiB nodes plus a slow heap leak on the sentiment
//!   model: its usage crosses the 448 MiB limit every couple of minutes,
//!   so the kubelet-style OOM-killer fires repeatedly.
//!
//! Each cell reports SLA violations, mean allocated cores, the memory
//! incident counters (OOM-kills, evictions by tier), peak node memory
//! utilization, and total noisy-neighbor throttle time — all read back
//! from the scraped metrics store, so the table exercises the same
//! pipeline the dashboards use. A `mip` column runs the 2-D allocator
//! ([`ursa_mip::solve_2d`]) against the level's node pool: the SLA forces
//! the limit-sized option everywhere, and the column records whether that
//! allocation packs onto the nodes (`overcommit` is deliberately
//! unpackable — the 2.5 GiB post-store limit exceeds a 2 GiB node).
//!
//! The whole grid runs on the shared cell runner: rows are byte-identical
//! for any `--jobs` value at a fixed `--seed` (enforced by
//! `tests/qos_determinism.rs`).

use crate::postmortem::PostmortemObserver;
use crate::runner::run_cells;
use crate::{f3, pct, DeploySpec, LoadSpec, PreparedManagers, RunCtx, Scale, System, TsvTable};
use ursa_apps::{social_network, App};
use ursa_k8s::{EvictionPolicy, K8sPlane, PodTemplate, GIB, MIB};
use ursa_metrics::{Labels, SeriesKey};
use ursa_mip::{
    solve_2d, LatencyMatrix, Model2d, NodeCapacity, ResourceCost, ServiceModel2d, SlaConstraint,
    Weights,
};
use ursa_sim::control::{DeployObserver, DeploymentReport};
use ursa_sim::memory::MemPlan;
use ursa_sim::metrics::SimMetrics;

/// Seed base for the qos grid (mixed with the global `--seed`).
const QOS_SEED: u64 = 0xA110_C8ED;

/// Experiment outcome.
#[derive(Debug, Clone)]
pub struct QosResult {
    /// The rendered grid (TSV content, also written to
    /// `results/qos/qos_grid.tsv`).
    pub tsv: String,
    /// Total OOM-kills across all cells (nonzero iff the overcommit row
    /// did its job).
    pub oom_kills: u64,
}

/// One memory-pressure level of the sweep. Templates never change across
/// levels — only node capacity and the sentiment model's leak rate.
#[derive(Debug, Clone, Copy)]
pub struct PressureLevel {
    /// Row label.
    pub name: &'static str,
    /// Allocatable memory per node.
    pub node_mem: u64,
    /// Heap-leak rate on the sentiment service (bytes/s; 0 = none).
    pub leak_bytes_per_sec: f64,
}

/// The sweep, mildest first.
pub fn levels() -> [PressureLevel; 3] {
    [
        PressureLevel {
            name: "ample",
            node_mem: 32 * GIB,
            leak_bytes_per_sec: 0.0,
        },
        PressureLevel {
            name: "tight",
            node_mem: 3 * GIB,
            leak_bytes_per_sec: 0.0,
        },
        PressureLevel {
            name: "overcommit",
            node_mem: 2 * GIB,
            leak_bytes_per_sec: 1.5 * MIB as f64,
        },
    ]
}

/// The resource plane for one pressure level: a three-tier QoS story on
/// the full social network. The interactive path (frontend,
/// timeline-read) is Guaranteed, the mid tier is Burstable, and the
/// offline-ish tiers (image-store, object-detect) run BestEffort so they
/// are first against the wall under node pressure.
pub fn qos_plane(level: &PressureLevel) -> K8sPlane {
    let mut sentiment =
        PodTemplate::burstable(1.0, 4.0, 256 * MIB, 448 * MIB).with_memory(256 * MIB, 2 * MIB);
    if level.leak_bytes_per_sec > 0.0 {
        sentiment = sentiment.with_leak(level.leak_bytes_per_sec);
    }
    let guaranteed = PodTemplate::guaranteed(2.0, 512 * MIB).with_memory(160 * MIB, MIB);
    let mid = |mem_limit: u64| {
        PodTemplate::burstable(1.0, 4.0, 192 * MIB, mem_limit).with_memory(128 * MIB, MIB)
    };
    K8sPlane::new()
        .pool(4, 16.0, level.node_mem)
        .policy(EvictionPolicy {
            pressure_threshold: 0.92,
            interference_threshold: 0.80,
            interference_factor: 1.35,
            ..EvictionPolicy::default()
        })
        .pod("frontend", guaranteed)
        .pod("timeline-read", guaranteed)
        .pod("compose-post", mid(GIB))
        // The fattest limit in the fleet: exceeds an overcommit node
        // outright, which is what makes the MIP's packing check fail
        // there.
        .pod("post-store", mid(2560 * MIB))
        .pod("social-graph", mid(GIB))
        .pod("timeline-update", mid(GIB))
        .pod(
            "image-store",
            PodTemplate::best_effort().with_memory(96 * MIB, MIB),
        )
        .pod("sentiment", sentiment)
        .pod(
            "object-detect",
            PodTemplate::best_effort().with_memory(192 * MIB, 2 * MIB),
        )
}

/// Lowers a plane into a 2-D allocation model. Every templated service
/// gets two LPR options — `lean` sized at its requests, `rich` at its
/// limits (BestEffort services derive both from the demand profile) —
/// and the single-class SLA target (140 ms against 9 × 15 ms rich /
/// 9 × 30 ms lean) forces the rich option everywhere, so the packing
/// feasibility answer is about the *limits* fitting the level's nodes.
pub fn mip_model(plane: &K8sPlane) -> Model2d {
    let services = plane
        .templates()
        .iter()
        .map(|(name, t)| {
            let (lean, rich) = match t.resources {
                Some(spec) => (
                    ResourceCost::new(spec.cpu_request, spec.mem_request as f64),
                    ResourceCost::new(spec.cpu_limit, spec.mem_limit as f64),
                ),
                None => {
                    let base = t
                        .profile
                        .map_or(64.0 * MIB as f64, |p| p.baseline_bytes as f64);
                    (
                        ResourceCost::new(0.5, base),
                        ResourceCost::new(1.0, 2.0 * base),
                    )
                }
            };
            ServiceModel2d {
                name: name.clone(),
                cost: vec![lean, rich],
                latency: vec![Some(LatencyMatrix::new(2, 1, vec![0.030, 0.015]))],
            }
        })
        .collect();
    let nodes = plane
        .pools()
        .iter()
        .flat_map(|p| std::iter::repeat_n(NodeCapacity::new(p.cores, p.mem_bytes as f64), p.count))
        .collect();
    // One p99.9 grid point: the percentile-residual budget
    // `Σ (100 − 99.9) = 0.9 ≤ 100 − 99` admits all nine services under a
    // p99 end-to-end SLA (a p99-only grid would be structurally
    // infeasible past one service).
    Model2d {
        percentiles: vec![99.9],
        services,
        constraints: vec![SlaConstraint {
            class: 0,
            percentile: 99.0,
            target: 0.140,
        }],
        nodes,
        weights: Weights::default(),
    }
}

/// The `mip` column for one level: does the SLA-optimal 2-D allocation
/// pack onto the level's nodes?
pub fn mip_verdict(level: &PressureLevel) -> String {
    match solve_2d(&mip_model(&qos_plane(level))) {
        Ok(sol) if sol.placement.is_some() => "packed".into(),
        Ok(_) => "unpackable".into(),
        Err(e) => format!("error({e})"),
    }
}

/// Memory-plane statistics read back from a cell's scraped metrics store
/// (the counters are per-window and cumulative in the store, so the last
/// scraped value is the run total).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// OOM-kills over the run.
    pub oom_kills: u64,
    /// Pressure evictions by tier: `[besteffort, burstable, guaranteed]`.
    pub evictions: [u64; 3],
    /// Peak node memory utilization across nodes and windows.
    pub max_node_util: f64,
    /// Total noisy-neighbor throttle seconds across services.
    pub throttle_secs: f64,
}

/// Extracts [`MemStats`] from a scraped [`SimMetrics`] store.
pub fn mem_stats(metrics: &SimMetrics) -> MemStats {
    let store = metrics.store();
    let last = |name: &str, labels: Labels| -> f64 {
        store
            .values(&SeriesKey::new(name, labels))
            .and_then(|v| v.iter().rev().find(|x| x.is_finite()).copied())
            .unwrap_or(0.0)
    };
    let mut s = MemStats {
        oom_kills: last("mem_oom_kills_total", Labels::empty()) as u64,
        ..MemStats::default()
    };
    for (i, tier) in ["besteffort", "burstable", "guaranteed"].iter().enumerate() {
        s.evictions[i] = last("mem_evictions_total", Labels::new(&[("tier", tier)])) as u64;
    }
    for (_, col) in store.series_named("node_mem_util") {
        for v in col {
            if v.is_finite() {
                s.max_node_util = s.max_node_util.max(*v);
            }
        }
    }
    // Throttle is a per-window gauge, so the run total is the column sum.
    for (_, col) in store.series_named("service_mem_throttle_secs") {
        s.throttle_secs += col.iter().filter(|v| v.is_finite()).sum::<f64>();
    }
    s
}

/// Overall SLA violation fraction across a report's windows.
fn viol_frac(report: &DeploymentReport) -> f64 {
    let mut pairs = 0usize;
    let mut bad = 0usize;
    for r in &report.records {
        for v in r.class_violation.iter().flatten() {
            pairs += 1;
            bad += *v as usize;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        bad as f64 / pairs as f64
    }
}

/// Mean allocated cores across a report's windows.
fn mean_cores(report: &DeploymentReport) -> f64 {
    if report.records.is_empty() {
        return 0.0;
    }
    report.records.iter().map(|r| r.total_cores).sum::<f64>() / report.records.len() as f64
}

/// Runs one grid cell, returning the rendered table row.
pub fn run_cell(
    app: &App,
    managers: &PreparedManagers,
    plans: &[(PressureLevel, MemPlan, String)],
    li: usize,
    si: usize,
    scale: Scale,
    ctx: &RunCtx,
) -> Vec<String> {
    let (level, plan, mip) = &plans[li];
    let system = System::ALL[si];
    let seed = QOS_SEED ^ ((li as u64) << 8) ^ si as u64;
    let cell = format!("qos-{}-{}", level.name, system.label());
    let mut mgrs = managers.clone();
    // Every cell scrapes metrics — the memory columns are read back from
    // the store. `--postmortem-dir` additionally arms the flight-recorder
    // bundle pipeline on the Ursa cells; observation is non-perturbing,
    // so rows stay byte-identical either way.
    let mut metrics = SimMetrics::for_topology(system.label(), &app.topology, &app.slas);
    let mut obs = PostmortemObserver::armed(ctx, &cell).filter(|_| system == System::Ursa);
    let report = mgrs.deploy(DeploySpec {
        mem: Some(plan),
        metrics: Some(&mut metrics),
        observer: obs.as_mut().map(|o| o as &mut dyn DeployObserver),
        ..DeploySpec::new(app, system, &LoadSpec::Constant, scale, seed)
    });
    if system == System::Ursa {
        ctx.manifest().note_decisions(&cell, mgrs.ursa.decisions());
    }
    let m = mem_stats(&metrics);
    vec![
        level.name.into(),
        system.label().into(),
        pct(viol_frac(&report)),
        f3(mean_cores(&report)),
        m.oom_kills.to_string(),
        m.evictions[0].to_string(),
        m.evictions[1].to_string(),
        m.evictions[2].to_string(),
        f3(m.max_node_util),
        f3(m.throttle_secs),
        mip.clone(),
    ]
}

/// Runs the memory-pressure grid.
pub fn run(scale: Scale, ctx: &RunCtx) -> QosResult {
    println!("== qos: memory pressure sweep, every system x every pressure level ==");
    let mut app = social_network(false);
    // Templates are level-invariant, so one annotation covers the sweep
    // and the managers are prepared once against the annotated topology.
    app.topology = qos_plane(&levels()[0])
        .annotate(app.topology)
        .expect("annotate");
    let managers = PreparedManagers::prepare(&app, scale, QOS_SEED);
    ctx.manifest().set_topology_digest(app.topology.digest());
    let plans: Vec<(PressureLevel, MemPlan, String)> = levels()
        .into_iter()
        .map(|level| {
            let plan = qos_plane(&level).mem_plan(&app.topology).expect("mem_plan");
            ctx.manifest().note_mem_digest(level.name, plan.digest());
            let verdict = mip_verdict(&level);
            (level, plan, verdict)
        })
        .collect();
    let inputs: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|li| (0..System::ALL.len()).map(move |si| (li, si)))
        .collect();
    let rows = run_cells(inputs, |_, (li, si)| {
        run_cell(&app, &managers, &plans, li, si, scale, ctx)
    });
    let mut table = TsvTable::new(
        "qos_grid",
        &[
            "level",
            "system",
            "viol",
            "mean_cores",
            "oom_kills",
            "evict_be",
            "evict_bu",
            "evict_g",
            "max_node_util",
            "throttle_s",
            "mip",
        ],
    );
    let mut oom_kills = 0u64;
    for row in rows {
        oom_kills += row[4].parse::<u64>().unwrap_or(0);
        table.row(row);
    }
    print!("{}", table.render());
    let _ = table.write_tsv(ctx, "qos");
    println!(
        "total OOM-kills across the grid: {oom_kills} \
         (the overcommit row's leaking sentiment model)"
    );
    QosResult {
        tsv: table.to_tsv(),
        oom_kills,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_baselines::Autoscaler;
    use ursa_sim::control::{run_deployment_observed, DeployConfig};
    use ursa_sim::time::SimDur;
    use ursa_sim::workload::RateFn;

    /// Deploys one autoscaled run against a pressure level and returns
    /// the scraped memory stats (cheap: no manager training).
    fn deploy_level(level: &PressureLevel) -> MemStats {
        let mut app = social_network(false);
        let plane = qos_plane(level);
        app.topology = plane.annotate(app.topology).unwrap();
        let plan = plane.mem_plan(&app.topology).unwrap();
        let mut sim = app.build_sim(QOS_SEED);
        sim.install_memory_plane(&plan);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        let mut auto = Autoscaler::auto_a(app.topology.services().len());
        let mut metrics = SimMetrics::for_topology("auto-a", &app.topology, &app.slas);
        let cfg = DeployConfig {
            duration: Scale::Quick.deploy_duration(),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
            collect_samples: false,
        };
        run_deployment_observed(
            &mut sim,
            &app.slas,
            &mut auto,
            &cfg,
            Some(&mut metrics),
            None,
        );
        mem_stats(&metrics)
    }

    /// The acceptance-criterion path: the overcommit level's leaking
    /// sentiment model is OOM-killed repeatedly, and the kubelet eviction
    /// order holds — Guaranteed pods are never evicted before BestEffort
    /// ones.
    #[test]
    fn overcommit_oom_kills_and_respects_qos_order() {
        let lv = levels();
        let stats = deploy_level(&lv[2]);
        assert!(
            stats.oom_kills > 0,
            "the leak must cross the sentiment limit: {stats:?}"
        );
        assert!(
            stats.evictions[2] == 0 || stats.evictions[0] > 0,
            "Guaranteed evicted before BestEffort: {stats:?}"
        );
        assert!(stats.max_node_util > 0.0, "node gauges must move");
    }

    /// The control row stays incident-free: with 32 GiB nodes and no
    /// leak, nothing is killed, evicted, or throttled.
    #[test]
    fn ample_level_is_incident_free() {
        let lv = levels();
        let stats = deploy_level(&lv[0]);
        assert_eq!(stats.oom_kills, 0, "{stats:?}");
        assert_eq!(stats.evictions, [0, 0, 0], "{stats:?}");
        assert_eq!(stats.throttle_secs, 0.0, "{stats:?}");
        assert!(stats.max_node_util > 0.0 && stats.max_node_util < 0.5);
    }

    /// The 2-D MIP solves on every level; the allocation packs on ample
    /// and tight nodes but not on overcommit ones (the 2.5 GiB post-store
    /// limit exceeds a 2 GiB node).
    #[test]
    fn mip_packs_except_under_overcommit() {
        let lv = levels();
        assert_eq!(mip_verdict(&lv[0]), "packed");
        assert_eq!(mip_verdict(&lv[1]), "packed");
        assert_eq!(mip_verdict(&lv[2]), "unpackable");
        // The forced choice really is the rich option everywhere.
        let sol = solve_2d(&mip_model(&qos_plane(&lv[0]))).unwrap();
        assert!(sol.base.lpr_choice.iter().all(|&a| a == 1));
    }

    /// The topology annotation is level-invariant, which is what lets
    /// the grid prepare managers once for the whole sweep.
    #[test]
    fn annotation_is_level_invariant() {
        let digests: Vec<u64> = levels()
            .iter()
            .map(|level| {
                let app = social_network(false);
                qos_plane(level).annotate(app.topology).unwrap().digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }
}
