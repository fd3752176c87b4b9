//! Online (continual) DRL control.
//!
//! The paper trains offline and deploys the frozen actor (Section V-B2).
//! This extension keeps Algorithm 1 running *during* deployment: the
//! controller acts stochastically, banks each completed iteration as a
//! transition, and performs a PPO update every time its buffer fills — so
//! the policy tracks distribution shift (new routes, new devices) that a
//! frozen actor would suffer under. Listed as future-work territory in
//! DESIGN.md; compared against the frozen controller by `abl_online`.

use crate::controllers::FrequencyController;
use crate::flenv::{squash_to_freq, EnvConfig};
use crate::{CtrlError, Result};
use fl_rl::{PpoAgent, RolloutBuffer, Transition};
use fl_sim::{FlSystem, IterationReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A transition waiting for its reward (the iteration outcome arrives one
/// `decide` call later, via `prev`).
struct Pending {
    norm_obs: Vec<f64>,
    action: Vec<f64>,
    log_prob: f64,
    value: f64,
}

/// A frequency controller that keeps learning while it schedules.
pub struct OnlineDrlController {
    agent: PpoAgent,
    buffer: RolloutBuffer,
    env: EnvConfig,
    reward_scale: f64,
    rng: ChaCha8Rng,
    pending: Option<Pending>,
    updates: usize,
}

impl OnlineDrlController {
    /// Wraps a (typically pre-trained) agent for continual operation.
    /// `env` must match the shapes the agent was built for; `seed` drives
    /// both exploration and minibatch shuffling.
    pub fn new(agent: PpoAgent, env: EnvConfig, reward_scale: f64, seed: u64) -> Result<Self> {
        env.validate()?;
        if !(reward_scale > 0.0) || !reward_scale.is_finite() {
            return Err(CtrlError::InvalidArgument(format!(
                "reward_scale must be positive and finite, got {reward_scale}"
            )));
        }
        let buffer = agent.make_buffer().map_err(CtrlError::from)?;
        Ok(OnlineDrlController {
            agent,
            buffer,
            env,
            reward_scale,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pending: None,
            updates: 0,
        })
    }

    /// Like [`OnlineDrlController::new`] but with an explicit online
    /// buffer size. Deployment streams produce transitions far slower than
    /// offline rollouts, so a much smaller buffer (e.g. 32–64) keeps the
    /// update cadence meaningful.
    pub fn with_buffer_capacity(
        agent: PpoAgent,
        env: EnvConfig,
        reward_scale: f64,
        buffer_capacity: usize,
        seed: u64,
    ) -> Result<Self> {
        env.validate()?;
        if !(reward_scale > 0.0) || !reward_scale.is_finite() {
            return Err(CtrlError::InvalidArgument(format!(
                "reward_scale must be positive and finite, got {reward_scale}"
            )));
        }
        let buffer = RolloutBuffer::new(
            buffer_capacity,
            agent.policy().obs_dim(),
            agent.policy().action_dim(),
        )
        .map_err(CtrlError::from)?;
        Ok(OnlineDrlController {
            agent,
            buffer,
            env,
            reward_scale,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pending: None,
            updates: 0,
        })
    }

    /// PPO updates performed since construction/reset.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// The wrapped agent (e.g. to export the adapted policy).
    pub fn agent(&self) -> &PpoAgent {
        &self.agent
    }
}

impl FrequencyController for OnlineDrlController {
    fn name(&self) -> &str {
        "drl-online"
    }

    fn decide(
        &mut self,
        _k: usize,
        t_start: f64,
        sys: &FlSystem,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        // Settle the previous action's transition now that its outcome is
        // known.
        if let (Some(pending), Some(report)) = (self.pending.take(), prev) {
            let reward = -report.cost(sys.config().lambda) * self.reward_scale;
            self.buffer
                .push(Transition {
                    obs: pending.norm_obs,
                    action: pending.action,
                    log_prob: pending.log_prob,
                    reward,
                    value: pending.value,
                    // The deployment stream is one endless episode.
                    done: false,
                })
                .map_err(CtrlError::from)?;
            if self.buffer.is_full() {
                let obs_now =
                    sys.observe_bandwidth_state(t_start, self.env.slot_h, self.env.history_len)?;
                let bootstrap = self
                    .agent
                    .bootstrap_value(&obs_now)
                    .map_err(CtrlError::from)?;
                self.agent
                    .update(&self.buffer, bootstrap, &mut self.rng)
                    .map_err(CtrlError::from)?;
                self.buffer.clear();
                self.updates += 1;
            }
        }

        let obs = sys.observe_bandwidth_state(t_start, self.env.slot_h, self.env.history_len)?;
        let out = self
            .agent
            .act(&obs, &mut self.rng)
            .map_err(CtrlError::from)?;
        let freqs: Vec<f64> = sys
            .fleet()
            .state()
            .delta_max_ghz
            .iter()
            .zip(&out.action)
            .map(|(&cap, &a)| squash_to_freq(a, cap, self.env.min_freq_frac))
            .collect();
        self.pending = Some(Pending {
            norm_obs: out.norm_obs,
            action: out.action,
            log_prob: out.log_prob,
            value: out.value,
        });
        Ok(freqs)
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_controller;
    use crate::flenv::build_system;
    use fl_net::synth::Profile;
    use fl_rl::PpoConfig;
    use fl_sim::FlConfig;

    fn setup() -> (FlSystem, OnlineDrlController) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sys = build_system(
            2,
            2,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &mut rng,
        )
        .unwrap();
        let env = EnvConfig {
            history_len: 3,
            ..EnvConfig::default()
        };
        let agent = PpoAgent::new(
            2 * 4,
            2,
            PpoConfig {
                hidden: vec![8],
                buffer_capacity: 16,
                minibatch_size: 8,
                epochs: 2,
                target_kl: None,
                ..PpoConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let ctrl = OnlineDrlController::new(agent, env, 0.05, 7).unwrap();
        (sys, ctrl)
    }

    #[test]
    fn constructor_validation() {
        let (_, ctrl) = setup();
        assert_eq!(ctrl.updates(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let agent = PpoAgent::new(4, 2, PpoConfig::default(), &mut rng).unwrap();
        assert!(OnlineDrlController::new(agent, EnvConfig::default(), 0.0, 1).is_err());
    }

    #[test]
    fn learns_while_scheduling() {
        let (sys, mut ctrl) = setup();
        // 50 iterations with a 16-transition buffer: at least two updates.
        let run = run_controller(&sys, &mut ctrl, 50, 300.0).unwrap();
        assert_eq!(run.ledger.len(), 50);
        assert_eq!(run.name, "drl-online");
        assert!(ctrl.updates() >= 2, "updates: {}", ctrl.updates());
        assert!(run.ledger.mean_cost().is_finite());
    }

    #[test]
    fn reset_clears_stream_state() {
        let (sys, mut ctrl) = setup();
        run_controller(&sys, &mut ctrl, 5, 300.0).unwrap();
        ctrl.reset();
        assert!(ctrl.pending.is_none());
        assert!(ctrl.buffer.is_empty());
        // Still operable after reset.
        assert!(ctrl.decide(0, 300.0, &sys, None).is_ok());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let (sys, mut ctrl) = setup();
            run_controller(&sys, &mut ctrl, 30, 300.0)
                .unwrap()
                .ledger
                .cost_series()
        };
        assert_eq!(run(), run());
    }
}
