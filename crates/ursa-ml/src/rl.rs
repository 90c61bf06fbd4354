//! A per-service reinforcement-learning agent (Firm-style).
//!
//! Firm assigns each microservice an RL agent that adjusts the service's
//! resources directly, rewarded by a weighted sum of resource savings and
//! SLA status. The original uses DDPG; we substitute a DQN-style agent over
//! a small discrete action set (scale in/hold/out), which preserves the
//! properties the paper's comparison rests on: model-free trial-and-error
//! data hunger, per-service decision latency through a neural network, and
//! the reward-tradeoff failure mode (sacrificing SLA for savings). The
//! substitution is recorded in DESIGN.md.

use crate::mlp::{to_columns, Activation, Mlp, Output};
use ursa_stats::rng::Rng;

/// One transition in the replay buffer.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State observed before acting.
    pub state: Vec<f64>,
    /// Action index taken.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// State observed after acting.
    pub next_state: Vec<f64>,
}

/// A bounded FIFO replay buffer with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    buf: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ReplayBuffer {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
        }
    }

    /// Adds a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples `n` transitions uniformly with replacement.
    pub fn sample(&self, n: usize, rng: &mut Rng) -> Vec<&Transition> {
        (0..n)
            .map(|_| &self.buf[rng.index(self.buf.len())])
            .collect()
    }
}

/// Hyper-parameters for [`DqnAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnParams {
    /// Discount factor.
    pub gamma: f64,
    /// Initial exploration rate.
    pub eps_start: f64,
    /// Final exploration rate.
    pub eps_end: f64,
    /// Multiplicative epsilon decay applied per training step.
    pub eps_decay: f64,
    /// Learning rate for Adam.
    pub lr: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Training steps between target-network syncs.
    pub target_sync: u64,
    /// Replay capacity.
    pub replay: usize,
}

impl Default for DqnParams {
    fn default() -> Self {
        DqnParams {
            gamma: 0.9,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay: 0.995,
            lr: 1e-3,
            batch: 32,
            target_sync: 50,
            replay: 10_000,
        }
    }
}

/// A DQN agent over a discrete action space.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    q: Mlp,
    target: Mlp,
    replay: ReplayBuffer,
    params: DqnParams,
    eps: f64,
    steps: u64,
    actions: usize,
    rng: Rng,
    scratch: AgentScratch,
}

/// What acting and training work in, kept between calls.
#[derive(Debug, Default)]
struct AgentScratch {
    /// A training batch's states and next states, feature-major.
    states: Vec<f64>,
    next_states: Vec<f64>,
    /// Q-values: of one state when acting; of a batch's states, then its
    /// TD targets, when training.
    q: Vec<f64>,
    /// The target network's Q-values of a batch's next states.
    next_q: Vec<f64>,
    hidden: Vec<f64>,
}

/// A copy starts empty: every call rewrites these buffers before it reads
/// them, so copying an agent need not copy them.
impl Clone for AgentScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl DqnAgent {
    /// Creates an agent with the given state dimension, action count and
    /// hidden width.
    pub fn new(
        state_dim: usize,
        actions: usize,
        hidden: usize,
        params: DqnParams,
        seed: u64,
    ) -> Self {
        let dims = [state_dim, hidden, hidden, actions];
        let q = Mlp::new(&dims, Activation::Relu, Output::Linear, seed);
        let mut target = Mlp::new(&dims, Activation::Relu, Output::Linear, seed ^ 0x5a5a);
        target.copy_params_from(&q);
        DqnAgent {
            q,
            target,
            replay: ReplayBuffer::new(params.replay),
            eps: params.eps_start,
            params,
            steps: 0,
            actions,
            rng: Rng::seed_from(seed.wrapping_mul(0x9E37_79B9)),
            scratch: AgentScratch::default(),
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// ε-greedy action selection.
    pub fn act(&mut self, state: &[f64]) -> usize {
        if self.rng.chance(self.eps) {
            self.rng.index(self.actions)
        } else {
            self.act_greedy(state)
        }
    }

    /// Greedy (deployment-time) action selection; allocates nothing once
    /// the agent has acted before.
    pub fn act_greedy(&mut self, state: &[f64]) -> usize {
        let AgentScratch { q, hidden, .. } = &mut self.scratch;
        self.q.predict_into(state, q, hidden);
        q.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite Q"))
            .map(|(i, _)| i)
            .expect("non-empty action space")
    }

    /// Records a transition and performs one training step (if the replay
    /// buffer has a full batch). Returns the batch loss if trained.
    ///
    /// The TD targets take two batched passes: the Q-network over the
    /// sampled states, the target network over their next states.
    pub fn observe(&mut self, t: Transition) -> Option<f64> {
        self.replay.push(t);
        let n = self.params.batch;
        if self.replay.len() < n {
            return None;
        }
        let batch = self.replay.sample(n, &mut self.rng);
        let AgentScratch {
            states,
            next_states,
            q,
            next_q,
            hidden,
        } = &mut self.scratch;
        let width = self.q.input_dim();
        let mismatch = "state dimension mismatch";
        to_columns(
            batch.iter().map(|tr| &tr.state[..]),
            width,
            states,
            mismatch,
        );
        to_columns(
            batch.iter().map(|tr| &tr.next_state[..]),
            width,
            next_states,
            mismatch,
        );
        self.q.predict_batch(states, n, q, hidden);
        self.target.predict_batch(next_states, n, next_q, hidden);
        // Each sample's targets are its own Q-values but for the action
        // taken, which gets the reward plus the discounted best next value.
        for (c, tr) in batch.iter().enumerate() {
            assert!(tr.action < self.actions, "action out of range");
            let max_next = next_q[c..]
                .iter()
                .step_by(n)
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            q[tr.action * n + c] = tr.reward + self.params.gamma * max_next;
        }
        let loss = self.q.train_columns(states, q, n, self.params.lr);
        self.steps += 1;
        self.eps = (self.eps * self.params.eps_decay).max(self.params.eps_end);
        if self.steps.is_multiple_of(self.params.target_sync) {
            self.target.copy_params_from(&self.q);
        }
        Some(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_evicts_oldest() {
        let mut r = ReplayBuffer::new(2);
        for i in 0..3 {
            r.push(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0],
            });
        }
        assert_eq!(r.len(), 2);
        let states: Vec<f64> = r.buf.iter().map(|t| t.state[0]).collect();
        assert!(states.contains(&1.0) && states.contains(&2.0));
    }

    const CORRIDOR: usize = 5;

    /// An agent trained on a 5-state corridor MDP: move left/right, reward
    /// at the right end.
    fn corridor_agent(episodes: usize) -> DqnAgent {
        let n = CORRIDOR;
        let params = DqnParams {
            eps_decay: 0.99,
            lr: 5e-3,
            ..Default::default()
        };
        let mut agent = DqnAgent::new(1, 2, 24, params, 42);
        let mut rng = Rng::seed_from(17);
        for _episode in 0..episodes {
            let mut pos = rng.index(n);
            for _step in 0..12 {
                let state = vec![pos as f64 / (n - 1) as f64];
                let action = agent.act(&state);
                let next = match action {
                    0 => pos.saturating_sub(1),
                    _ => (pos + 1).min(n - 1),
                };
                let reward = if next == n - 1 { 1.0 } else { -0.05 };
                agent.observe(Transition {
                    state,
                    action,
                    reward,
                    next_state: vec![next as f64 / (n - 1) as f64],
                });
                pos = next;
                if pos == n - 1 {
                    break;
                }
            }
        }
        agent
    }

    /// The agent must learn to walk right.
    #[test]
    fn dqn_solves_corridor() {
        let n = CORRIDOR;
        let mut agent = corridor_agent(300);
        // Greedy policy should now walk right from every interior state.
        for pos in 0..n - 1 {
            let a = agent.act_greedy(&[pos as f64 / (n - 1) as f64]);
            assert_eq!(a, 1, "state {pos} should move right");
        }
        assert!(agent.epsilon() < 0.5);
    }

    /// Both networks after training, to the bit, and the exploration rate:
    /// recorded before the TD targets were computed in batches, so a
    /// training step that rounds differently anywhere moves it.
    #[test]
    fn trained_networks_are_pinned() {
        let agent = corridor_agent(120);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..=40 {
            let state = [i as f64 / 40.0 * 1.5 - 0.25];
            for net in [&agent.q, &agent.target] {
                for q in net.predict(&state) {
                    fold(q.to_bits());
                }
            }
        }
        fold(agent.epsilon().to_bits());
        fold(agent.steps);
        println!("{digest:#018x}");
        assert_eq!(
            digest, 0x8969_8c0b_90a5_f8da,
            "the trained networks moved (digest printed above)"
        );
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let params = DqnParams {
            batch: 1,
            eps_decay: 0.5,
            eps_end: 0.1,
            ..Default::default()
        };
        let mut agent = DqnAgent::new(1, 2, 4, params, 1);
        for _ in 0..64 {
            agent.observe(Transition {
                state: vec![0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0],
            });
        }
        assert!((agent.epsilon() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn observe_returns_loss_once_batch_full() {
        let params = DqnParams {
            batch: 4,
            ..Default::default()
        };
        let mut agent = DqnAgent::new(1, 2, 4, params, 2);
        let t = |v: f64| Transition {
            state: vec![v],
            action: 0,
            reward: 1.0,
            next_state: vec![v],
        };
        assert!(agent.observe(t(0.1)).is_none());
        assert!(agent.observe(t(0.2)).is_none());
        assert!(agent.observe(t(0.3)).is_none());
        assert!(agent.observe(t(0.4)).is_some());
        assert_eq!(agent.replay_len(), 4);
    }
}
