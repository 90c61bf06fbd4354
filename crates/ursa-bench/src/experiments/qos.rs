//! **`--exp qos`** — the resource-plane experiment: every system of
//! §VII-B under a memory-pressure sweep on the full social network, with
//! Kubernetes-style requests/limits, QoS tiers, OOM-kill, and pressure
//! eviction from the simulator's memory plane ([`ursa_sim::memory`]).
//!
//! The resource specs (and therefore the annotated topology and the
//! prepared managers) are *identical* across pressure levels — only the
//! node memory capacity and the leak term of one profile sweep:
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
//! ([`ursa_mip::solve_2d`]) against the level's nodes: the SLA forces
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
use ursa_metrics::{Labels, SeriesKey};
use ursa_mip::{
    solve_2d, LatencyMatrix, Model2d, NodeCapacity, ResourceCost, ServiceModel2d, SlaConstraint,
    Weights,
};
use ursa_sim::control::{mean_cores, violated_share, DeployObserver};
use ursa_sim::memory::{MemPlan, MemProfile};
use ursa_sim::metrics::SimMetrics;
use ursa_sim::topology::{ResourceSpec, Topology};

/// Seed base for the qos grid (mixed with the global `--seed`).
const QOS_SEED: u64 = 0xA110_C8ED;

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// Nodes at every level, and allocatable cores per node.
const NODES: usize = 4;
const NODE_CORES: f64 = 16.0;

/// The interactive path's spec.
const GUARANTEED: Option<ResourceSpec> = Some(ResourceSpec::guaranteed(2.0, 512 * MIB));

/// The mid tier's spec, by memory limit.
const fn mid(mem_limit: u64) -> Option<ResourceSpec> {
    Some(ResourceSpec::burstable(1.0, 4.0, 192 * MIB, mem_limit))
}

/// A demand profile: `baseline` MiB plus `per_request` MiB per request in
/// flight.
const fn mem(baseline: u64, per_request: u64) -> Option<MemProfile> {
    Some(MemProfile::new(baseline * MIB, per_request * MIB))
}

/// The resource plane: a three-tier QoS story on the full social network,
/// as `(service, requests/limits, memory demand)`. The interactive path
/// (frontend, timeline-read) is Guaranteed, the mid tier is Burstable,
/// and the offline-ish tiers (image-store, object-detect) declare nothing,
/// so they are BestEffort and first against the wall under node pressure.
/// Level-invariant: a level changes node memory and the sentiment leak.
const SERVICES: [ServicePlan; 9] = [
    ("frontend", GUARANTEED, mem(160, 1)),
    ("timeline-read", GUARANTEED, mem(160, 1)),
    ("compose-post", mid(GIB), mem(128, 1)),
    // The fattest limit in the fleet: exceeds an overcommit node
    // outright, which is what makes the MIP's packing check fail there.
    ("post-store", mid(2560 * MIB), mem(128, 1)),
    ("social-graph", mid(GIB), mem(128, 1)),
    ("timeline-update", mid(GIB), mem(128, 1)),
    ("image-store", None, mem(96, 1)),
    (
        "sentiment",
        Some(ResourceSpec::burstable(1.0, 4.0, 256 * MIB, 448 * MIB)),
        mem(256, 2),
    ),
    ("object-detect", None, mem(192, 2)),
];

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

/// One memory-pressure level of the sweep.
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

/// One service of a resource plane: its name, requests/limits (`None`
/// leaves it BestEffort) and memory demand (`None`: no modeled demand).
pub type ServicePlan = (&'static str, Option<ResourceSpec>, Option<MemProfile>);

fn service_index(app: &App, name: &str) -> usize {
    app.service(name)
        .unwrap_or_else(|| panic!("no service {name}"))
        .0
}

/// `app` with `plane`'s resource specs attached to its topology.
pub fn annotated(mut app: App, plane: &[ServicePlan]) -> App {
    let mut services = app.topology.services().to_vec();
    for &(name, spec, _) in plane {
        if let Some(spec) = spec {
            services[service_index(&app, name)].resources = Some(spec);
        }
    }
    let classes = app.topology.classes().to_vec();
    app.topology = Topology::new(services, classes).expect("valid resource specs");
    app
}

/// The memory plan of `plane` on `nodes` (bytes each): its profiles in
/// service order, service `leak.0` growing by `leak.1` bytes/s.
pub fn mem_plan(app: &App, plane: &[ServicePlan], leak: (&str, f64), nodes: Vec<u64>) -> MemPlan {
    let mut profiles: Vec<(usize, MemProfile)> = plane
        .iter()
        .filter_map(|&(name, _, profile)| {
            let mut profile = profile?;
            if name == leak.0 {
                profile.growth_bytes_per_sec = leak.1;
            }
            Some((service_index(app, name), profile))
        })
        .collect();
    profiles.sort_by_key(|&(s, _)| s);
    MemPlan { profiles, nodes }
}

/// One level's memory plan: the sentiment leak on [`NODES`] nodes.
fn level_plan(app: &App, level: &PressureLevel) -> MemPlan {
    let leak = ("sentiment", level.leak_bytes_per_sec);
    mem_plan(app, &SERVICES, leak, vec![level.node_mem; NODES])
}

/// The 2-D allocation model of one level. Every service of the resource
/// plane gets two LPR options — `lean` sized at its requests, `rich` at its
/// limits (BestEffort services derive both from the demand profile) —
/// and the single-class SLA target (140 ms against 9 × 15 ms rich /
/// 9 × 30 ms lean) forces the rich option everywhere, so the packing
/// feasibility answer is about the *limits* fitting the level's nodes.
pub fn mip_model(level: &PressureLevel) -> Model2d {
    let services = SERVICES
        .iter()
        .map(|&(name, spec, profile)| {
            let (lean, rich) = match spec {
                Some(spec) => (
                    ResourceCost::new(spec.cpu_request, spec.mem_request as f64),
                    ResourceCost::new(spec.cpu_limit, spec.mem_limit as f64),
                ),
                None => {
                    let base = profile.map_or(64.0 * MIB as f64, |p| p.baseline_bytes as f64);
                    (
                        ResourceCost::new(0.5, base),
                        ResourceCost::new(1.0, 2.0 * base),
                    )
                }
            };
            ServiceModel2d {
                name: name.to_string(),
                cost: vec![lean, rich],
                latency: vec![Some(LatencyMatrix::new(2, 1, vec![0.030, 0.015]))],
            }
        })
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
        nodes: vec![NodeCapacity::new(NODE_CORES, level.node_mem as f64); NODES],
        weights: Weights::default(),
    }
}

/// The `mip` column for one level: does the SLA-optimal 2-D allocation
/// pack onto the level's nodes?
pub fn mip_verdict(level: &PressureLevel) -> String {
    match solve_2d(&mip_model(level)) {
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
    // the store. `--artifacts-dir` additionally arms the flight-recorder
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
        pct(violated_share(&report.records)),
        f3(mean_cores(report.records.iter())),
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
    // The specs are level-invariant, so one annotation covers the sweep
    // and the managers are prepared once against the annotated topology.
    let app = annotated(social_network(false), &SERVICES);
    let managers = PreparedManagers::prepare(&app, scale, QOS_SEED);
    ctx.manifest().set_topology_digest(app.topology.digest());
    let plans: Vec<(PressureLevel, MemPlan, String)> = levels()
        .into_iter()
        .map(|level| {
            let plan = level_plan(&app, &level);
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
        let app = annotated(social_network(false), &SERVICES);
        let plan = level_plan(&app, level);
        let mut sim = app.build_sim(QOS_SEED);
        sim.install_memory_plane(&plan);
        app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
        let mut auto = Autoscaler::auto_a(app.topology.services().len());
        let mut metrics = SimMetrics::for_topology("auto-a", &app.topology, &app.slas);
        let cfg = DeployConfig {
            duration: Scale::Quick.deploy_duration(),
            control_interval: SimDur::from_mins(1),
            warmup: SimDur::from_mins(2),
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
        let sol = solve_2d(&mip_model(&lv[0])).unwrap();
        assert!(sol.base.lpr_choice.iter().all(|&a| a == 1));
    }

    /// The annotated topology and each level's memory plan, pinned bit
    /// for bit: how they are built may change, what they hold may not.
    #[test]
    fn plan_and_topology_digests_are_pinned() {
        let app = annotated(social_network(false), &SERVICES);
        assert_eq!(
            format!("{:016x}", app.topology.digest()),
            "b9b2b4bb44b99645"
        );
        let digests: Vec<(&str, String)> = levels()
            .iter()
            .map(|level| {
                (
                    level.name,
                    format!("{:016x}", level_plan(&app, level).digest()),
                )
            })
            .collect();
        assert_eq!(
            digests,
            [
                ("ample", "948c696e30fedf44".to_string()),
                ("tight", "97bfdef90439c344".to_string()),
                ("overcommit", "de2d498a48e854d3".to_string()),
            ]
        );
    }
}
