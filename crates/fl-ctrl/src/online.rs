//! Online (continual) DRL control.
//!
//! The paper trains offline and deploys the frozen actor (Section V-B2).
//! This extension keeps Algorithm 1 running *during* deployment: the
//! controller acts stochastically, banks each completed iteration as a
//! transition, and performs a PPO update every time its buffer fills — so
//! the policy tracks distribution shift (new routes, new devices) that a
//! frozen actor would suffer under. Listed as future-work territory in
//! DESIGN.md; compared against the frozen controller by `abl_online`.
//! It observes through [`crate::policy_observation`] under its
//! [`EnvConfig`] (layout and fault tail included), so the agent sees online
//! exactly the input it was trained on.

use crate::controllers::FrequencyController;
use crate::flenv::{policy_observation, squash_actions, EnvConfig, Participation};
use crate::{CtrlError, Result};
use fl_rl::{ActOutput, PpoAgent, RolloutBuffer, Transition};
use fl_sim::{FleetSim, IterationReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A frequency controller that keeps learning while it schedules.
pub struct OnlineDrlController {
    agent: PpoAgent,
    buffer: RolloutBuffer,
    env: EnvConfig,
    reward_scale: f64,
    rng: ChaCha8Rng,
    /// The last action, waiting for its reward (the iteration outcome
    /// arrives one `decide` call later, via `prev`).
    pending: Option<ActOutput>,
    updates: usize,
}

impl OnlineDrlController {
    /// Wraps a (typically pre-trained) agent for continual operation.
    /// `env` must match the shapes the agent was built for; `seed` drives
    /// both exploration and minibatch shuffling. A PPO update runs every
    /// `buffer_capacity` iterations: deployment streams produce
    /// transitions far slower than offline rollouts, so a buffer much
    /// smaller than the training one (e.g. 32–64) keeps the update cadence
    /// meaningful.
    pub fn new(
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
        let policy = agent.policy();
        let buffer = RolloutBuffer::new(buffer_capacity, policy.obs_dim(), policy.action_dim())?;
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
}

impl FrequencyController for OnlineDrlController {
    fn name(&self) -> &str {
        "drl-online"
    }

    fn decide(
        &mut self,
        _k: usize,
        t_start: f64,
        sys: &FleetSim,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        let obs = policy_observation(
            sys,
            t_start,
            self.env.slot_h,
            self.env.history_len,
            self.env.obs,
            self.env.faults_enabled(),
            prev.map(Participation::Report),
        )?;
        // Settle the previous action's transition now that its outcome is
        // known.
        if let (Some(pending), Some(report)) = (self.pending.take(), prev) {
            let reward = -report.cost(sys.config().lambda) * self.reward_scale;
            self.buffer.push(Transition {
                obs: pending.norm_obs,
                action: pending.action,
                log_prob: pending.log_prob,
                reward,
                value: pending.value,
                // The deployment stream is one endless episode.
                done: false,
            })?;
            if self.buffer.is_full() {
                let bootstrap = self.agent.bootstrap_value(&obs)?;
                self.agent.update(&self.buffer, bootstrap, &mut self.rng)?;
                self.buffer.clear();
                self.updates += 1;
            }
        }

        let out = self.agent.act(&obs, &mut self.rng)?;
        let caps = &sys.state().delta_max_ghz;
        let freqs = squash_actions(&out.action, caps, self.env.min_freq_frac);
        self.pending = Some(out);
        Ok(freqs)
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.pending = None;
        self.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_controller, run_controller_faulty};
    use crate::flenv::build_system_with;
    use fl_net::synth::Profile;
    use fl_rl::PpoConfig;
    use fl_sim::FlConfig;

    fn setup() -> (FleetSim, OnlineDrlController) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sys = build_system_with(
            2,
            2,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &fl_sim::DeviceSampler::default(),
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
        let ctrl = OnlineDrlController::new(agent, env, 0.05, 16, 7).unwrap();
        (sys, ctrl)
    }

    #[test]
    fn constructor_validation() {
        let (_, ctrl) = setup();
        assert_eq!(ctrl.updates(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let agent = PpoAgent::new(4, 2, PpoConfig::default(), &mut rng).unwrap();
        assert!(OnlineDrlController::new(agent, EnvConfig::default(), 0.0, 16, 1).is_err());
    }

    #[test]
    fn learns_while_scheduling() {
        let (sys, mut ctrl) = setup();
        // 50 iterations with a 16-transition buffer: at least two updates.
        let run = run_controller(&sys, &mut ctrl, 50, 300.0).unwrap();
        assert_eq!(run.ledger.iterations().len(), 50);
        assert_eq!(run.name, "drl-online");
        assert!(ctrl.updates() >= 2, "updates: {}", ctrl.updates());
        assert!(run.ledger.mean_cost().is_finite());
    }

    /// An agent trained in a pooled, fault-aware env (broadcast actor,
    /// survival-fraction tail) keeps learning online under a fault plan:
    /// the controller builds the training observation, tail included.
    #[test]
    fn pooled_fault_aware_broadcast_agent_learns_online() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sys = build_system_with(
            4,
            2,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &fl_sim::DeviceSampler::default(),
            &mut rng,
        )
        .unwrap();
        let model = fl_sim::FaultModel::chaos(0.3, 0.3, Some(60.0));
        let env = EnvConfig {
            history_len: 3,
            obs: crate::ObsMode::Pooled,
            faults: Some(model),
            ..EnvConfig::default()
        };
        let obs_dim = fl_sim::pooled_obs_dim(env.history_len, true);
        let statics = crate::fleet_statics(sys.state(), sys.config().tau);
        let policy =
            fl_rl::GaussianPolicy::new_broadcast(obs_dim, statics, &[8], -0.5, &mut rng).unwrap();
        let config = PpoConfig {
            hidden: vec![8],
            minibatch_size: 4,
            epochs: 2,
            target_kl: None,
            ..PpoConfig::default()
        };
        let agent = PpoAgent::with_policy(policy, config, &mut rng).unwrap();
        let mut ctrl = OnlineDrlController::new(agent, env, 0.05, 8, 9).unwrap();
        let plan = fl_sim::FaultPlan::new(model, 4, 11).unwrap();
        let run = run_controller_faulty(&sys, &mut ctrl, 12, 300.0, Some(&plan)).unwrap();
        assert!(run.ledger.outcome_tally().survival_fraction() < 1.0);
        assert_eq!(ctrl.updates(), 1);
    }

    #[test]
    fn reset_clears_stream_state() {
        let (sys, mut ctrl) = setup();
        // 20 iterations with a 16-transition buffer: one update, then a
        // partly filled buffer and a pending transition.
        run_controller(&sys, &mut ctrl, 20, 300.0).unwrap();
        assert_eq!(ctrl.updates(), 1);
        assert!(!ctrl.buffer.is_empty());
        ctrl.reset();
        assert!(ctrl.pending.is_none());
        assert!(ctrl.buffer.is_empty());
        assert_eq!(ctrl.updates(), 0);
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
