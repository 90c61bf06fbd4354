//! Benchmark microservice applications for the Ursa reproduction.
//!
//! Reimplements, as simulator topologies, the three Dapr applications the
//! paper builds in §VI — the social network (plus its "vanilla" variant),
//! the media service, and the video processing pipeline — together with
//! their SLA tables (Tables II–IV), the request mixes used during
//! exploration (§VII-C), and the synthetic 5-tier chains of the §III
//! backpressure study.
//!
//! Service-time scales are calibrated so that each class's unloaded latency
//! sits comfortably under its SLA, mirroring how the paper chose SLAs
//! ("latency before saturation"); the calibration is locked in by tests.
//!
//! # Example
//!
//! ```
//! use ursa_apps::social_network;
//! use ursa_sim::prelude::*;
//!
//! let app = social_network(false);
//! let mut sim = app.build_sim(42);
//! app.apply_load(&mut sim, RateFn::Constant(200.0));
//! sim.run_for(SimDur::from_secs(60));
//! let snap = sim.harvest();
//! let post = app.class("upload-post").expect("class exists");
//! assert!(snap.completions[post.0] > 0);
//! ```

#![forbid(unsafe_code)]

pub mod chains;
mod media;
mod social;
mod video;

pub use media::media_service;
pub use social::social_network;
pub use video::video_pipeline;

use ursa_sim::control::Sla;
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::topology::{ClassId, ServiceId, Topology};
use ursa_sim::workload::RateFn;

/// A packaged benchmark application: topology, SLAs and default request mix.
#[derive(Debug, Clone)]
pub struct App {
    /// Application name ("social", "social-vanilla", "media", "video").
    pub name: String,
    /// The service graph and request-class call trees.
    pub topology: Topology,
    /// End-to-end SLAs per request class (paper Tables II–IV).
    pub slas: Vec<Sla>,
    /// Relative per-class arrival weights (the exploration mix of §VII-C).
    pub mix: Vec<f64>,
    /// A sensible total arrival rate (requests/second) for experiments.
    pub default_rps: f64,
}

impl App {
    /// Builds a simulation of this application with the given seed.
    pub fn build_sim(&self, seed: u64) -> Simulation {
        Simulation::new(self.topology.clone(), SimConfig::default(), seed)
    }

    /// Looks up a request class by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.topology.class_by_name(name)
    }

    /// Looks up a service by name.
    pub fn service(&self, name: &str) -> Option<ServiceId> {
        self.topology.service_by_name(name)
    }

    /// Splits an application-wide arrival pattern across classes according
    /// to the app's request mix: class *i* receives `shape` scaled by
    /// `mix[i] / Σ mix`.
    pub fn apply_load(&self, sim: &mut Simulation, shape: RateFn) {
        self.apply_load_with_mix(sim, shape, &self.mix.clone());
    }

    /// Like [`App::apply_load`] with an explicit mix (for skewed loads).
    ///
    /// # Panics
    ///
    /// Panics if `mix.len()` differs from the class count or sums to zero.
    pub fn apply_load_with_mix(&self, sim: &mut Simulation, shape: RateFn, mix: &[f64]) {
        assert_eq!(
            mix.len(),
            self.topology.num_classes(),
            "mix length mismatch"
        );
        let total: f64 = mix.iter().sum();
        assert!(total > 0.0, "mix must not be all zero");
        for (i, w) in mix.iter().enumerate() {
            sim.set_rate(ClassId(i), shape.scaled(w / total));
        }
    }

    /// The SLA covering a class, if any.
    pub fn sla_of(&self, class: ClassId) -> Option<Sla> {
        self.slas.iter().copied().find(|s| s.class == class)
    }

    /// A skewed mix per §VII-E: the frequency of update/write-style classes
    /// multiplied by `factor` (the paper uses 2.0 and 0.5).
    pub fn skewed_mix(&self, factor: f64) -> Vec<f64> {
        let mut mix = self.mix.clone();
        for (i, cfg) in self.topology.classes().iter().enumerate() {
            if is_update_class(&cfg.name) {
                mix[i] *= factor;
            }
        }
        mix
    }
}

fn is_update_class(name: &str) -> bool {
    name.contains("upload") || name.contains("update") || name.contains("rate-video")
}

/// Remaps a call tree into service group `g` of a scaled topology.
fn offset_tree(node: &ursa_sim::topology::CallNode, offset: usize) -> ursa_sim::topology::CallNode {
    let mut out = node.clone();
    out.service = ServiceId(out.service.0 + offset);
    out.children = node
        .children
        .iter()
        .map(|(e, c)| (*e, offset_tree(c, offset)))
        .collect();
    out
}

/// Replicates an application's service group `k` times with namespaced
/// names — group 0 keeps the original names, group `g > 0` gets `name#g` —
/// producing a `k`×-larger topology of independent cells. Request classes,
/// SLAs, and the mix are replicated alongside; `default_rps` scales by
/// `k`. This is how the scaled perf topologies are generated instead of
/// hand-written.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn scale_app(app: &App, k: usize) -> App {
    assert!(k >= 1, "scale factor must be at least 1");
    if k == 1 {
        return app.clone();
    }
    let base_services = app.topology.services().to_vec();
    let base_classes = app.topology.classes().to_vec();
    let ns = base_services.len();

    let mut services = Vec::with_capacity(ns * k);
    let mut classes = Vec::with_capacity(base_classes.len() * k);
    for g in 0..k {
        for svc in &base_services {
            let mut svc = svc.clone();
            if g > 0 {
                svc.name = format!("{}#{g}", svc.name);
            }
            services.push(svc);
        }
        for class in &base_classes {
            let name = if g == 0 {
                class.name.clone()
            } else {
                format!("{}#{g}", class.name)
            };
            classes.push(ursa_sim::topology::ClassCfg {
                name,
                priority: class.priority,
                root: offset_tree(&class.root, g * ns),
            });
        }
    }
    let topology = Topology::new(services, classes).expect("scaled topology stays valid");

    let nc = base_classes.len();
    let slas = (0..k)
        .flat_map(|g| {
            app.slas.iter().map(move |s| Sla {
                class: ClassId(s.class.0 + g * nc),
                ..*s
            })
        })
        .collect();
    let mix = (0..k).flat_map(|_| app.mix.iter().copied()).collect();

    App {
        name: format!("{}x{k}", app.name),
        topology,
        slas,
        mix,
        default_rps: app.default_rps * k as f64,
    }
}

/// All four applications evaluated in §VII-E.
pub fn all_apps() -> Vec<App> {
    vec![
        social_network(false),
        social_network(true),
        media_service(),
        video_pipeline(0.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_sim::time::SimDur;

    #[test]
    fn all_apps_build_and_have_consistent_shapes() {
        for app in all_apps() {
            assert_eq!(app.mix.len(), app.topology.num_classes(), "{}", app.name);
            assert!(!app.slas.is_empty(), "{}", app.name);
            for sla in &app.slas {
                assert!(sla.class.0 < app.topology.num_classes());
            }
            assert!(app.default_rps > 0.0);
        }
    }

    #[test]
    fn scale_app_replicates_groups_with_namespaced_names() {
        let app = social_network(false);
        let big = scale_app(&app, 3);
        assert_eq!(big.topology.num_services(), app.topology.num_services() * 3);
        assert_eq!(big.topology.num_classes(), app.topology.num_classes() * 3);
        assert_eq!(big.slas.len(), app.slas.len() * 3);
        assert_eq!(big.mix.len(), app.mix.len() * 3);
        assert_eq!(big.default_rps, app.default_rps * 3.0);
        // Group 0 keeps original names; later groups are namespaced.
        assert!(big.service("compose-post").is_some());
        assert!(big.service("compose-post#2").is_some());
        assert!(big.class("read-timeline#1").is_some());
        // Groups are disjoint: a scaled sim runs and completes requests in
        // every group.
        let mut sim = big.build_sim(9);
        big.apply_load(&mut sim, RateFn::Constant(big.default_rps));
        sim.run_for(SimDur::from_secs(5));
        let snap = sim.harvest();
        let nc = app.topology.num_classes();
        for g in 0..3 {
            let group: u64 = snap.completions[g * nc..(g + 1) * nc].iter().sum();
            assert!(group > 0, "group {g} saw no completions");
        }
        // scale 1 is the identity.
        assert_eq!(scale_app(&app, 1).name, app.name);
    }

    #[test]
    fn skewed_mix_scales_updates_only() {
        let app = social_network(false);
        let doubled = app.skewed_mix(2.0);
        let upload = app.class("upload-post").unwrap().0;
        let read = app.class("read-timeline").unwrap().0;
        assert_eq!(doubled[upload], app.mix[upload] * 2.0);
        assert_eq!(doubled[read], app.mix[read]);
    }

    /// Every class's unloaded latency must sit under its SLA — the paper's
    /// "latency before saturation" calibration.
    #[test]
    fn slas_attainable_when_overprovisioned() {
        for app in all_apps() {
            let mut sim = app.build_sim(1);
            // Generous provisioning.
            for s in 0..app.topology.num_services() {
                sim.set_replicas(ServiceId(s), 8);
            }
            app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
            // Long window: the heavy-tailed low-rate classes (video
            // uploads, ML inference) need hundreds of samples before
            // their p99 estimate stabilizes below the calibrated SLA.
            sim.run_for(SimDur::from_secs(600));
            let snap = sim.harvest();
            for sla in &app.slas {
                let lat = snap.e2e_latency[sla.class.0]
                    .percentile(sla.percentile)
                    .unwrap_or_else(|| {
                        panic!("{}: class {} has no samples", app.name, sla.class.0)
                    });
                assert!(
                    lat < sla.target,
                    "{}: class {} p{} = {:.3}s exceeds SLA {:.3}s",
                    app.name,
                    app.topology.classes()[sla.class.0].name,
                    sla.percentile,
                    lat,
                    sla.target
                );
            }
        }
    }

    /// SLAs must also be *meaningful*: unloaded latency should not be
    /// absurdly far below target (otherwise the experiments are trivial).
    #[test]
    fn slas_not_vacuous() {
        for app in all_apps() {
            let mut sim = app.build_sim(2);
            for s in 0..app.topology.num_services() {
                sim.set_replicas(ServiceId(s), 8);
            }
            app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
            sim.run_for(SimDur::from_secs(120));
            let snap = sim.harvest();
            for sla in &app.slas {
                if let Some(lat) = snap.e2e_latency[sla.class.0].percentile(sla.percentile) {
                    assert!(
                        lat > sla.target * 0.02,
                        "{}: class {} p{} = {:.4}s vacuous vs SLA {:.3}s",
                        app.name,
                        app.topology.classes()[sla.class.0].name,
                        sla.percentile,
                        lat,
                        sla.target
                    );
                }
            }
        }
    }
}
