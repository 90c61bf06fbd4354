//! A Firm-style model-free RL resource manager (paper §VII-B).
//!
//! Firm assigns each microservice its own reinforcement-learning agent that
//! adjusts the service's resources directly from local state plus the
//! end-to-end SLA status. The reward is a weighted sum of resource savings
//! and SLA compliance — the design the paper singles out as the reason Firm
//! sometimes trades SLA violations for savings. Agents train online against
//! injected performance anomalies (we inject load spikes during training),
//! consuming the same order of samples as Sinan (Table V: 10 000).

use ursa_ml::rl::{DqnAgent, DqnParams, Transition};
use ursa_sim::control::{ControlPlane, ResourceManager, Sla};
use ursa_sim::engine::Simulation;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::SimDur;
use ursa_sim::topology::{ClassId, ServiceId};
use ursa_stats::rng::Rng;

/// Actions available to each per-service agent.
const ACTIONS: usize = 3; // 0 = scale in, 1 = hold, 2 = scale out
/// State: [cpu_util, replicas/max, worst SLA ratio, service rps (norm)].
const STATE_DIM: usize = 4;
type State = [f64; STATE_DIM];

/// Reward weight on resource savings. The paper notes Firm's reward can
/// prefer savings over SLA; with `W_SLA` this reproduces that trade-off.
const W_RESOURCE: f64 = 0.5;
/// Reward weight (penalty) on SLA violation.
const W_SLA: f64 = 1.0;
/// Maximum replicas per service.
const MAX_REPLICAS: usize = 24;

/// The Firm-style manager: one DQN agent per service.
#[derive(Debug, Clone)]
pub struct Firm {
    agents: Vec<DqnAgent>,
    /// The SLA covering each class, if any (the first, should several name
    /// one class).
    sla_of_class: Vec<Option<Sla>>,
    /// Per-service classes that traverse it (for the SLA-ratio feature).
    service_classes: Vec<Vec<usize>>,
    rps_scale: Vec<f64>,
    /// When true, agents explore (ε-greedy) and learn from transitions.
    pub training: bool,
    last_state_action: Vec<Option<(State, usize)>>,
    samples_consumed: usize,
    training_time: SimDur,
    scale_actions: u64,
}

impl Firm {
    /// Creates untrained agents for an application.
    pub fn new(
        num_services: usize,
        slas: &[Sla],
        service_classes: Vec<Vec<usize>>,
        seed: u64,
    ) -> Self {
        let agents = (0..num_services)
            .map(|s| {
                let seed = seed ^ ((s as u64) << 8);
                DqnAgent::new(STATE_DIM, ACTIONS, 32, DqnParams::default(), seed)
            })
            .collect();
        let num_classes = service_classes
            .iter()
            .flatten()
            .copied()
            .chain(slas.iter().map(|sla| sla.class.0))
            .max()
            .map_or(0, |c| c + 1);
        let mut sla_of_class = vec![None; num_classes];
        for sla in slas {
            sla_of_class[sla.class.0].get_or_insert(*sla);
        }
        Firm {
            agents,
            sla_of_class,
            service_classes,
            rps_scale: vec![1e-9; num_services],
            training: true,
            last_state_action: vec![None; num_services],
            samples_consumed: 0,
            training_time: SimDur::ZERO,
            scale_actions: 0,
        }
    }

    /// Telemetry samples consumed during training so far (Table V).
    pub fn samples_consumed(&self) -> usize {
        self.samples_consumed
    }

    /// Simulated training time so far.
    pub fn training_time(&self) -> SimDur {
        self.training_time
    }

    fn state_of(
        &mut self,
        s: usize,
        snapshot: &MetricsSnapshot,
        control: &dyn ControlPlane,
    ) -> State {
        let util = snapshot.services[s].cpu_utilization;
        let replicas = control.replicas(ServiceId(s)) as f64 / MAX_REPLICAS as f64;
        let mut worst_ratio = 0.0f64;
        for &c in &self.service_classes[s] {
            if let Some(sla) = self.sla_of_class[c] {
                if let Some(l) = snapshot.e2e_latency[c].percentile(sla.percentile) {
                    worst_ratio = worst_ratio.max((l / sla.target).min(3.0));
                }
            }
        }
        let rps = snapshot.services[s].arrival_rps(snapshot.window);
        self.rps_scale[s] = self.rps_scale[s].max(rps);
        [
            util,
            replicas,
            worst_ratio,
            rps / self.rps_scale[s].max(1e-9),
        ]
    }

    /// Reward after acting: resource savings minus SLA penalty (§VII-B).
    fn reward_of(&self, s: usize, snapshot: &MetricsSnapshot, control: &dyn ControlPlane) -> f64 {
        let replicas = control.replicas(ServiceId(s)) as f64;
        let saving = 1.0 - replicas / MAX_REPLICAS as f64;
        let mut violated = 0.0;
        for &c in &self.service_classes[s] {
            if let Some(sla) = self.sla_of_class[c] {
                if let Some(l) = snapshot.e2e_latency[c].percentile(sla.percentile) {
                    if l > sla.target {
                        violated = 1.0;
                    }
                }
            }
        }
        W_RESOURCE * saving - W_SLA * violated
    }
}

impl ResourceManager for Firm {
    fn name(&self) -> &str {
        "firm"
    }

    /// One decision per service, through its agent's network. Deployed
    /// (not `training`), a tick allocates nothing once every agent has
    /// acted.
    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane) {
        let n = self.agents.len();
        for s in 0..n {
            let state = self.state_of(s, snapshot, control);
            // Learn from the previous action's outcome.
            if self.training {
                if let Some((prev_state, prev_action)) = self.last_state_action[s].take() {
                    let reward = self.reward_of(s, snapshot, control);
                    self.agents[s].observe(Transition {
                        state: prev_state.to_vec(),
                        action: prev_action,
                        reward,
                        next_state: state.to_vec(),
                    });
                }
                self.samples_consumed += 1;
            }
            let action = if self.training {
                self.agents[s].act(&state)
            } else {
                self.agents[s].act_greedy(&state)
            };
            let current = control.replicas(ServiceId(s));
            let next = match action {
                0 => current.saturating_sub(1).max(1),
                2 => (current + 1).min(MAX_REPLICAS),
                _ => current,
            };
            if next != current {
                self.scale_actions += 1;
                control.set_replicas(ServiceId(s), next);
            }
            if self.training {
                self.last_state_action[s] = Some((state, action));
            }
        }
        if self.training {
            self.training_time += snapshot.window;
        }
    }

    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ctrl_training_samples_total", self.samples_consumed as f64),
            ("ctrl_scale_actions_total", self.scale_actions as f64),
            ("ctrl_training_active", self.training as u8 as f64),
        ]
    }
}

/// Trains Firm agents online on a fresh simulation, injecting load
/// anomalies (random burst multipliers) so the agents see violations.
///
/// The caller configures baseline arrival rates on the sim first.
pub fn train_firm(
    sim: &mut Simulation,
    firm: &mut Firm,
    windows: usize,
    window: SimDur,
    seed: u64,
) {
    let mut rng = Rng::seed_from(seed);
    let base_rates: Vec<f64> = {
        // Probe one window to observe the configured rates.
        sim.run_for(window);
        let snap = sim.harvest();
        (0..sim.topology().num_classes())
            .map(|c| snap.class_rps(ClassId(c)))
            .collect()
    };
    firm.training = true;
    for w in 0..windows {
        // Inject anomalies: every few windows, spike or dip the load.
        if w % 7 == 0 {
            let factor = 0.5 + rng.next_f64() * 1.75; // 0.5x..2.25x
            for (c, &r) in base_rates.iter().enumerate() {
                sim.set_rate(ClassId(c), ursa_sim::workload::RateFn::Constant(r * factor));
            }
        }
        sim.run_for(window);
        let snap = sim.harvest();
        firm.on_tick(&snap, sim);
    }
    // Restore baseline rates.
    for (c, &r) in base_rates.iter().enumerate() {
        sim.set_rate(ClassId(c), ursa_sim::workload::RateFn::Constant(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_apps::social_network;
    use ursa_sim::workload::RateFn;

    fn service_classes(app: &ursa_apps::App) -> Vec<Vec<usize>> {
        (0..app.topology.num_services())
            .map(|s| {
                app.topology
                    .classes_on_service(ServiceId(s))
                    .into_iter()
                    .map(|c| c.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agents_act_within_bounds() {
        let app = social_network(true);
        let mut firm = Firm::new(
            app.topology.num_services(),
            &app.slas,
            service_classes(&app),
            3,
        );
        let mut sim = app.build_sim(4);
        app.apply_load(&mut sim, RateFn::Constant(200.0));
        for _ in 0..6 {
            sim.run_for(SimDur::from_secs(20));
            let snap = sim.harvest();
            firm.on_tick(&snap, &mut sim);
            for s in 0..app.topology.num_services() {
                let r = sim.replicas(ServiceId(s));
                assert!((1..=24).contains(&r));
            }
        }
        assert!(firm.samples_consumed() > 0);
    }

    #[test]
    fn training_consumes_samples_and_time() {
        let app = social_network(true);
        let mut firm = Firm::new(
            app.topology.num_services(),
            &app.slas,
            service_classes(&app),
            5,
        );
        let mut sim = app.build_sim(6);
        app.apply_load(&mut sim, RateFn::Constant(200.0));
        train_firm(&mut sim, &mut firm, 20, SimDur::from_secs(15), 7);
        assert_eq!(firm.samples_consumed(), 20 * app.topology.num_services());
        assert_eq!(firm.training_time(), SimDur::from_secs(15 * 20));
        // Deployment mode uses greedy actions.
        firm.training = false;
        sim.run_for(SimDur::from_secs(15));
        let snap = sim.harvest();
        firm.on_tick(&snap, &mut sim);
        assert_eq!(firm.samples_consumed(), 20 * app.topology.num_services());
    }
}
