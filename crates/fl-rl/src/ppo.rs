//! The PPO actor–critic agent of Algorithm 1.

use crate::buffer::RolloutBuffer;
use crate::gae::{gae, normalize_advantages};
use crate::normalize::RunningNorm;
use crate::policy::GaussianPolicy;
use crate::value::ValueNet;
use crate::{Result, RlError};
use fl_nn::{loss, Adam, Matrix, Optimizer};
use fl_obs::{Event, Recorder};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for the PPO agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Hidden layer widths shared by actor and critic.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ (0.0 reduces to Algorithm 1's one-step TD errors).
    pub gae_lambda: f64,
    /// PPO clip range ε.
    pub clip: f64,
    /// `M`: optimization epochs per buffer (Algorithm 1 line 18).
    pub epochs: usize,
    /// Minibatch size within each epoch.
    pub minibatch_size: usize,
    /// Actor (mean-net) Adam learning rate.
    pub actor_lr: f64,
    /// Critic Adam learning rate.
    pub critic_lr: f64,
    /// Entropy bonus coefficient.
    pub entropy_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Initial log-std of the Gaussian policy.
    pub init_log_std: f64,
    /// Observation normalization clip.
    pub obs_clip: f64,
    /// `|D|`: replay buffer capacity (Algorithm 1 line 17).
    pub buffer_capacity: usize,
    /// Early-stop threshold on approximate KL (1.5× this value stops the
    /// epoch loop); `None` disables.
    pub target_kl: Option<f64>,
    /// Multiplier applied to both learning rates after every
    /// [`PpoAgent::update`] (1.0 = constant; e.g. 0.999 for slow
    /// annealing).
    pub lr_decay: f64,
    /// PPO2-style clipped value loss: the critic prediction may move at
    /// most this far from its at-sampling-time estimate per update.
    /// `None` uses the plain MSE of Algorithm 1 line 20.
    pub value_clip: Option<f64>,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            hidden: vec![64, 64],
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.2,
            epochs: 10,
            minibatch_size: 64,
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            entropy_coef: 0.01,
            max_grad_norm: 0.5,
            init_log_std: -0.5,
            obs_clip: 10.0,
            buffer_capacity: 2048,
            target_kl: Some(0.05),
            lr_decay: 1.0,
            value_clip: None,
        }
    }
}

impl PpoConfig {
    /// Validates the hyperparameters.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("clip", self.clip),
            ("actor_lr", self.actor_lr),
            ("critic_lr", self.critic_lr),
            ("max_grad_norm", self.max_grad_norm),
            ("obs_clip", self.obs_clip),
        ];
        for (name, v) in positive {
            if !(v > 0.0) || !v.is_finite() {
                return Err(RlError::InvalidArgument(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if !(0.0..=1.0).contains(&self.gamma) || !(0.0..=1.0).contains(&self.gae_lambda) {
            return Err(RlError::InvalidArgument(
                "gamma and gae_lambda must be in [0, 1]".to_string(),
            ));
        }
        if self.epochs == 0 || self.minibatch_size == 0 || self.buffer_capacity == 0 {
            return Err(RlError::InvalidArgument(
                "epochs, minibatch_size, buffer_capacity must be nonzero".to_string(),
            ));
        }
        if !(self.entropy_coef >= 0.0) {
            return Err(RlError::InvalidArgument(
                "entropy_coef must be non-negative".to_string(),
            ));
        }
        if !(self.lr_decay > 0.0 && self.lr_decay <= 1.0) {
            return Err(RlError::InvalidArgument(format!(
                "lr_decay must be in (0, 1], got {}",
                self.lr_decay
            )));
        }
        if let Some(vc) = self.value_clip {
            if !(vc > 0.0) || !vc.is_finite() {
                return Err(RlError::InvalidArgument(format!(
                    "value_clip must be positive and finite, got {vc}"
                )));
            }
        }
        Ok(())
    }
}

/// Diagnostics from one [`PpoAgent::update`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean clipped-surrogate loss across minibatches — the "training loss"
    /// series Fig. 6(a) plots.
    pub policy_loss: f64,
    /// Mean critic MSE across minibatches.
    pub value_loss: f64,
    /// Policy entropy after the update.
    pub entropy: f64,
    /// Mean approximate KL `E[logπ_old − logπ_new]` over the last epoch run.
    pub approx_kl: f64,
    /// Fraction of samples whose ratio was clipped.
    pub clip_fraction: f64,
    /// Number of minibatch steps performed.
    pub minibatches: usize,
    /// Number of epochs actually run (may stop early on KL).
    pub epochs_run: usize,
    /// Mean pre-clip actor gradient L2 norm across minibatches.
    pub grad_norm: f64,
    /// Mean reward over the buffer this update consumed.
    pub reward_mean: f64,
    /// Population standard deviation of the buffer rewards.
    pub reward_std: f64,
}

/// Output of one [`PpoAgent::act`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ActOutput {
    /// Normalized observation actually fed to the networks — store *this*
    /// in the rollout buffer.
    pub norm_obs: Vec<f64>,
    /// Raw Gaussian action (the environment squashes it).
    pub action: Vec<f64>,
    /// `log π(a|s; θ_a^old)`.
    pub log_prob: f64,
    /// Critic estimate `V(s; θ_v)`.
    pub value: f64,
}

/// One frozen forward over a stack of raw observations
/// ([`PpoAgent::forward_frozen_batch`]). The rows are independent by the
/// kernel bit-exactness contract, so row `i` holds exactly the bits a 1-row
/// forward of observation `i` would have produced; only the Gaussian noise
/// draw is deferred (to [`PpoAgent::sample_frozen_row`], which pulls from
/// whichever RNG stream owns that row).
#[derive(Debug, Clone)]
pub struct FrozenBatch {
    /// Normalized observations, one row per input observation.
    pub norm_obs: Matrix,
    /// `θ_a^old` action means, one row per observation.
    pub means: Matrix,
    /// Critic values `V(s; θ_v)`, one per observation.
    pub values: Vec<f64>,
}

/// Adam state for the standalone log-std parameter vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdamVec {
    lr: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamVec {
    fn new(dim: usize, lr: f64) -> Self {
        AdamVec {
            lr,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    /// Returns the parameter deltas for a gradient-descent step.
    fn step(&mut self, grads: &[f64]) -> Vec<f64> {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        grads
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
                self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
                let mhat = self.m[i] / bc1;
                let vhat = self.v[i] / bc2;
                -self.lr * mhat / (vhat.sqrt() + EPS)
            })
            .collect()
    }
}

/// The DRL agent: current policy `θ_a`, frozen sampling policy `θ_a^old`,
/// critic `θ_v`, optimizers, and observation normalization.
///
/// Mirrors Algorithm 1: [`PpoAgent::act`] samples with `θ_a^old` (line 12);
/// [`PpoAgent::update`] runs `M` PPO epochs over the full buffer (lines
/// 18–21) and then syncs `θ_a^old ← θ_a` (line 22).
///
/// The agent is fully serializable (networks, optimizer moments,
/// observation statistics), so training runs can checkpoint and resume
/// exactly — see [`PpoAgent::to_json`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoAgent {
    config: PpoConfig,
    policy: GaussianPolicy,
    policy_old: GaussianPolicy,
    value: ValueNet,
    actor_opt: Adam,
    critic_opt: Adam,
    log_std_opt: AdamVec,
    obs_norm: RunningNorm,
    training: bool,
    /// Completed [`PpoAgent::update`] calls — the supervisor's poison hook
    /// and intervention log key on it.
    updates_done: u64,
    /// Test-only fault injection: when `Some(k)`, the `k`-th update (0-based
    /// by [`PpoAgent::updates_done`]) corrupts one actor parameter to NaN
    /// right before the post-update finiteness check, producing the exact
    /// divergence signature a real numeric blow-up would. Deliberately
    /// `#[serde(skip)]`: a rollback that restores a serialized snapshot
    /// clears the poison, so the fault fires exactly once.
    #[serde(skip)]
    test_poison: Option<u64>,
    /// Observability hub (disabled by default). `#[serde(skip)]`: restoring
    /// a snapshot — resume *or* supervisor rollback — detaches the
    /// recorder, so the restoring site decides whether to re-attach it.
    /// Recording never consumes RNG and never branches training.
    #[serde(skip)]
    recorder: Recorder,
}

impl PpoAgent {
    /// Builds an agent with the default joint-architecture policy for the
    /// given observation/action dimensions.
    pub fn new(
        obs_dim: usize,
        action_dim: usize,
        config: PpoConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        config.validate()?;
        let policy = GaussianPolicy::new(
            obs_dim,
            &config.hidden,
            action_dim,
            config.init_log_std,
            rng,
        )?;
        Self::with_policy(policy, config, rng)
    }

    /// Builds an agent around a pre-constructed policy (e.g. the
    /// parameter-shared architecture from
    /// [`GaussianPolicy::new_shared`](crate::GaussianPolicy::new_shared)).
    /// The critic and observation normalizer are sized from the policy.
    pub fn with_policy(
        policy: GaussianPolicy,
        config: PpoConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        config.validate()?;
        let policy_old = policy.clone();
        let value = ValueNet::new(policy.obs_dim(), &config.hidden, rng)?;
        let actor_opt = Adam::new(policy.mean_net().num_params(), config.actor_lr);
        let critic_opt = Adam::new(value.net().num_params(), config.critic_lr);
        let log_std_opt = AdamVec::new(policy.action_dim(), config.actor_lr);
        let obs_norm = RunningNorm::new(policy.obs_dim(), config.obs_clip);
        Ok(PpoAgent {
            config,
            policy,
            policy_old,
            value,
            actor_opt,
            critic_opt,
            log_std_opt,
            obs_norm,
            training: true,
            updates_done: 0,
            test_poison: None,
            recorder: Recorder::disabled(),
        })
    }

    /// The hyperparameters.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// The current (trained) policy `θ_a`.
    pub fn policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// The observation normalizer (export alongside the policy for
    /// inference).
    pub fn obs_norm(&self) -> &RunningNorm {
        &self.obs_norm
    }

    /// Enables/disables training mode. In evaluation mode, observation
    /// statistics freeze.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Number of completed [`PpoAgent::update`] calls over this agent's
    /// lifetime (survives checkpoint/resume).
    pub fn updates_done(&self) -> u64 {
        self.updates_done
    }

    /// Current `(actor, critic)` learning rates — diagnostics for LR
    /// schedules and the supervisor's backoff policy.
    pub fn learning_rates(&self) -> (f64, f64) {
        (
            self.actor_opt.learning_rate(),
            self.critic_opt.learning_rate(),
        )
    }

    /// Multiplies every learning rate (actor, critic, log-std) by `factor`
    /// — the supervisor's deterministic divergence backoff.
    pub fn scale_learning_rates(&mut self, factor: f64) {
        let lr = self.actor_opt.learning_rate() * factor;
        self.actor_opt.set_learning_rate(lr);
        let lr = self.critic_opt.learning_rate() * factor;
        self.critic_opt.set_learning_rate(lr);
        self.log_std_opt.lr *= factor;
    }

    /// Attaches an observability recorder: [`PpoAgent::update`] will time
    /// its GAE/epoch phases and emit one deterministic `ppo_update` event
    /// per completed update. The recorder is not serialized, so any
    /// snapshot restore detaches it — re-attach after resume or rollback.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Arms the test-only NaN fault: the update whose 0-based index (per
    /// [`PpoAgent::updates_done`]) equals `update_index` will corrupt one
    /// actor parameter and fail with [`RlError::Diverged`], exactly like a
    /// real numeric blow-up. The flag is not serialized, so restoring a
    /// checkpoint disarms it.
    pub fn poison_update_for_test(&mut self, update_index: u64) {
        self.test_poison = Some(update_index);
    }

    /// Serializes the complete agent state (networks, optimizer moments,
    /// normalization statistics) for exact checkpoint/resume.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| RlError::InvalidArgument(format!("serialize agent: {e}")))
    }

    /// Restores an agent saved by [`PpoAgent::to_json`].
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text)
            .map_err(|e| RlError::InvalidArgument(format!("deserialize agent: {e}")))
    }

    /// Allocates a rollout buffer with the configured capacity.
    pub fn make_buffer(&self) -> Result<RolloutBuffer> {
        RolloutBuffer::new(
            self.config.buffer_capacity,
            self.policy.obs_dim(),
            self.policy.action_dim(),
        )
    }

    /// Samples an action from `θ_a^old` (Algorithm 1 line 12). Updates the
    /// observation statistics when in training mode, then acts exactly as
    /// one row of the rollout engine does: a 1-row
    /// [`PpoAgent::forward_frozen_batch`] and [`PpoAgent::sample_frozen_row`].
    pub fn act(&mut self, obs: &[f64], rng: &mut ChaCha8Rng) -> Result<ActOutput> {
        self.absorb_obs(obs)?;
        let batch = self.forward_frozen_batch(&[obs])?;
        self.sample_frozen_row(&batch, 0, rng)
    }

    /// Runs `θ_a^old` over a whole stack of raw observations in one batched
    /// forward, **without** mutating the agent: per-row normalization with
    /// the current statistics, a single `θ_a^old` mean forward, and a single
    /// critic forward. Because every kernel computes each output row with a
    /// row-count-independent operation sequence, row `i` of the result is
    /// bit-identical to a 1-row forward of observation `i` alone — batching
    /// across environments never changes trained bits. The noise draw is
    /// deliberately *not* part of this call; see
    /// [`PpoAgent::sample_frozen_row`].
    pub fn forward_frozen_batch<R: AsRef<[f64]>>(&self, raw_obs: &[R]) -> Result<FrozenBatch> {
        let norm_obs = self.obs_norm.normalize_batch(raw_obs)?;
        let means = self.policy_old.mean_actions(&norm_obs)?;
        let values = self.value.predict_batch(&norm_obs)?;
        Ok(FrozenBatch {
            norm_obs,
            means,
            values,
        })
    }

    /// Completes row `row` of a [`FrozenBatch`] into a full [`ActOutput`]
    /// by drawing the Gaussian noise from `rng`
    /// ([`GaussianPolicy::sample_with_mean`]).
    pub fn sample_frozen_row(
        &self,
        batch: &FrozenBatch,
        row: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<ActOutput> {
        if row >= batch.means.rows() {
            return Err(RlError::InvalidArgument(format!(
                "frozen batch has {} rows, asked for row {row}",
                batch.means.rows()
            )));
        }
        let (action, log_prob) = self.policy_old.sample_with_mean(batch.means.row(row), rng);
        Ok(ActOutput {
            norm_obs: batch.norm_obs.row(row).to_vec(),
            action,
            log_prob,
            value: batch.values[row],
        })
    }

    /// Absorbs a raw observation into the normalizer statistics (training
    /// mode only). The rollout engine acts through a frozen agent and
    /// replays these updates at merge time, in environment order;
    /// [`PpoAgent::act`] absorbs before it acts.
    pub fn absorb_obs(&mut self, obs: &[f64]) -> Result<()> {
        if self.training {
            self.obs_norm.update(obs)?;
        }
        Ok(())
    }

    /// Deterministic action — the current policy's mean. This is the online
    /// reasoning mode of Section V-B2 ("we only use the trained actor
    /// network to generate its action").
    pub fn act_mean(&self, obs: &[f64]) -> Result<Vec<f64>> {
        let norm = self.obs_norm.normalize_batch(&[obs])?;
        Ok(self.policy.mean_actions(&norm)?.into_data())
    }

    /// Critic value for bootstrapping the final transition of a rollout.
    pub fn bootstrap_value(&self, obs: &[f64]) -> Result<f64> {
        let norm = self.obs_norm.normalize_batch(&[obs])?;
        Ok(self.value.predict_batch(&norm)?[0])
    }

    /// Runs the Algorithm-1 update on a full (or partial) buffer:
    /// GAE advantages → `M` epochs of clipped-surrogate minibatch SGD on
    /// `θ_a` plus TD-target regression on `θ_v` → `θ_a^old ← θ_a`.
    ///
    /// `last_value` bootstraps value beyond the final stored transition
    /// (pass 0.0 if it terminated an episode). The caller clears the buffer
    /// afterwards.
    pub fn update(
        &mut self,
        buffer: &RolloutBuffer,
        last_value: f64,
        rng: &mut ChaCha8Rng,
    ) -> Result<UpdateStats> {
        let n = buffer.len();
        if n == 0 {
            return Err(RlError::InvalidArgument(
                "update called with empty buffer".to_string(),
            ));
        }
        let _update_span = self.recorder.span("update");
        let rewards = buffer.rewards();
        let (mut adv, returns) = {
            let _gae_span = self.recorder.span("gae");
            gae(
                &rewards,
                &buffer.values(),
                &buffer.dones(),
                last_value,
                self.config.gamma,
                self.config.gae_lambda,
            )
        };
        normalize_advantages(&mut adv);
        let reward_mean = rewards.iter().sum::<f64>() / n as f64;
        let reward_std = (rewards
            .iter()
            .map(|r| (r - reward_mean) * (r - reward_mean))
            .sum::<f64>()
            / n as f64)
            .sqrt();

        let obs = buffer.obs_matrix();
        let actions = buffer.action_matrix();
        let logp_old = buffer.log_probs();
        let values_old = buffer.values();
        let mb_size = self.config.minibatch_size.min(n);
        let clip = self.config.clip;

        let mut total_ploss = 0.0;
        let mut total_vloss = 0.0;
        let mut total_kl = 0.0;
        let mut total_clipped = 0usize;
        let mut total_samples = 0usize;
        let mut minibatches = 0usize;
        let mut epochs_run = 0usize;
        let mut total_gnorm = 0.0;

        let _epochs_span = self.recorder.span("epochs");
        let mut indices: Vec<usize> = (0..n).collect();
        'epochs: for _epoch in 0..self.config.epochs {
            epochs_run += 1;
            indices.shuffle(rng);
            let mut epoch_kl = 0.0;
            let mut epoch_batches = 0usize;
            for chunk in indices.chunks(mb_size) {
                let obs_mb = obs.gather_rows(chunk)?;
                let act_mb = actions.gather_rows(chunk)?;
                let bs = chunk.len() as f64;

                // ---- actor: clipped surrogate + entropy bonus ----
                self.policy.zero_grad();
                let means = self.policy.forward_means(&obs_mb)?;
                let logp_new = self.policy.log_prob_batch(&means, &act_mb)?;
                let mut dl_dlogp = vec![0.0; chunk.len()];
                let mut ploss = 0.0;
                let mut kl = 0.0;
                for (i, &gi) in chunk.iter().enumerate() {
                    let ratio = (logp_new[i] - logp_old[gi]).exp();
                    let a = adv[gi];
                    let surr1 = ratio * a;
                    let clipped_ratio = ratio.clamp(1.0 - clip, 1.0 + clip);
                    let surr2 = clipped_ratio * a;
                    ploss -= surr1.min(surr2);
                    if surr1 <= surr2 {
                        // Unclipped branch active: gradient flows.
                        dl_dlogp[i] = -a * ratio / bs;
                    } else {
                        total_clipped += 1;
                    }
                    kl += logp_old[gi] - logp_new[i];
                }
                ploss /= bs;
                kl /= bs;
                let ent = self.policy.entropy();
                let full_loss = ploss - self.config.entropy_coef * ent;
                if !full_loss.is_finite() {
                    return Err(RlError::Diverged(format!(
                        "non-finite policy loss {full_loss}"
                    )));
                }
                self.policy
                    .accumulate_logprob_grads(&means, &act_mb, &dl_dlogp)?;
                // d(−c_ent · H)/d lnσ_d = −c_ent.
                self.policy
                    .add_uniform_log_std_grad(-self.config.entropy_coef);
                total_gnorm += self
                    .policy
                    .mean_net_mut()
                    .clip_grad_norm(self.config.max_grad_norm);
                self.actor_opt.step(self.policy.mean_net_mut());
                let ls_grads = self.policy.log_std_grad().to_vec();
                let deltas = self.log_std_opt.step(&ls_grads);
                self.policy.apply_log_std_delta(&deltas);

                // ---- critic: regression onto GAE returns (λ_GAE = 0 makes
                // these exactly the TD targets of Algorithm 1 line 20);
                // optionally PPO2-clipped against the at-sampling values ----
                let ret_mb = Matrix::from_vec(
                    chunk.len(),
                    1,
                    chunk.iter().map(|&gi| returns[gi]).collect(),
                )?;
                let pred = self.value.forward(&obs_mb)?;
                let (vloss, dv) = match self.config.value_clip {
                    None => loss::mse(&pred, &ret_mb)?,
                    Some(vclip) => {
                        let bs_f = chunk.len().max(1) as f64;
                        let mut l = 0.0;
                        let mut grad = Matrix::zeros(pred.rows(), 1);
                        let gdata = grad.data_mut();
                        for (i, &gi) in chunk.iter().enumerate() {
                            let v = pred.get(i, 0);
                            let vo = values_old[gi];
                            let ret = returns[gi];
                            let vc = vo + (v - vo).clamp(-vclip, vclip);
                            let l1 = (v - ret) * (v - ret);
                            let l2 = (vc - ret) * (vc - ret);
                            if l1 >= l2 {
                                l += l1;
                                gdata[i] = 2.0 * (v - ret) / bs_f;
                            } else {
                                // Clipped branch dominates; if the clamp is
                                // binding the gradient through v vanishes.
                                l += l2;
                            }
                        }
                        (l / bs_f, grad)
                    }
                };
                if !vloss.is_finite() {
                    return Err(RlError::Diverged(format!("non-finite value loss {vloss}")));
                }
                self.value.net_mut().zero_grad();
                self.value.net_mut().backward(&dv)?;
                self.value
                    .net_mut()
                    .clip_grad_norm(self.config.max_grad_norm);
                self.critic_opt.step(self.value.net_mut());

                total_ploss += ploss;
                total_vloss += vloss;
                total_kl += kl;
                epoch_kl += kl;
                epoch_batches += 1;
                total_samples += chunk.len();
                minibatches += 1;
            }
            if let Some(tkl) = self.config.target_kl {
                if epoch_kl / epoch_batches.max(1) as f64 > 1.5 * tkl {
                    break 'epochs;
                }
            }
        }

        drop(_epochs_span);

        // Optional learning-rate annealing.
        if self.config.lr_decay < 1.0 {
            let d = self.config.lr_decay;
            let lr = self.actor_opt.learning_rate() * d;
            self.actor_opt.set_learning_rate(lr);
            let lr = self.critic_opt.learning_rate() * d;
            self.critic_opt.set_learning_rate(lr);
            self.log_std_opt.lr *= d;
        }

        // Algorithm 1 line 22: θ_a^old ← θ_a.
        self.policy_old.copy_params_from(&self.policy)?;
        if self.test_poison == Some(self.updates_done) {
            // Armed fault: corrupt one actor weight so the finiteness check
            // below fires with a genuine NaN in the parameters.
            self.test_poison = None;
            let mut first = true;
            self.policy.mean_net_mut().visit_params(|p, _| {
                if first {
                    *p = f64::NAN;
                    first = false;
                }
            });
        }
        if !self.policy.is_finite() || !self.value.is_finite() {
            return Err(RlError::Diverged(
                "non-finite parameters after update".to_string(),
            ));
        }
        self.updates_done += 1;

        let mbf = minibatches.max(1) as f64;
        let stats = UpdateStats {
            policy_loss: total_ploss / mbf,
            value_loss: total_vloss / mbf,
            entropy: self.policy.entropy(),
            approx_kl: total_kl / mbf,
            clip_fraction: total_clipped as f64 / total_samples.max(1) as f64,
            minibatches,
            epochs_run,
            grad_norm: total_gnorm / mbf,
            reward_mean,
            reward_std,
        };
        self.emit_update_event(&stats);
        Ok(stats)
    }

    /// Emits the deterministic `ppo_update` event for a just-completed
    /// update. Every field is a pure function of training state, so the
    /// event is invariant to worker count and resume boundaries; the key
    /// is the lifetime update index, which survives checkpoints.
    fn emit_update_event(&self, stats: &UpdateStats) {
        if !self.recorder.is_enabled() {
            return;
        }
        let idx = self.updates_done - 1;
        let (lr_actor, lr_critic) = self.learning_rates();
        let l2 = |xs: &[f64]| xs.iter().map(|x| x * x).sum::<f64>().sqrt();
        self.recorder.emit(
            Event::det("ppo_update", format!("u{idx:08}"))
                .u("update", idx)
                .f("policy_loss", stats.policy_loss)
                .f("value_loss", stats.value_loss)
                .f("entropy", stats.entropy)
                .f("approx_kl", stats.approx_kl)
                .f("clip_fraction", stats.clip_fraction)
                .f("grad_norm", stats.grad_norm)
                .f("reward_mean", stats.reward_mean)
                .f("reward_std", stats.reward_std)
                .u("minibatches", stats.minibatches as u64)
                .u("epochs_run", stats.epochs_run as u64)
                .f("lr_actor", lr_actor)
                .f("lr_critic", lr_critic)
                .f("obs_norm_count", self.obs_norm.count())
                .f("obs_norm_mean_l2", l2(self.obs_norm.mean()))
                .f("obs_norm_std_l2", l2(&self.obs_norm.std())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Transition;
    use crate::env::testenv::QuadEnv;
    use crate::env::Environment;
    use rand::SeedableRng;

    fn small_config() -> PpoConfig {
        PpoConfig {
            hidden: vec![16],
            epochs: 5,
            minibatch_size: 64,
            actor_lr: 3e-3,
            critic_lr: 3e-3,
            buffer_capacity: 256,
            entropy_coef: 0.001,
            target_kl: None,
            ..PpoConfig::default()
        }
    }

    /// Runs episodes, returns mean reward of first and last quarter.
    fn train_quad(episodes: usize, seed: u64) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut env = QuadEnv::new(16);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        let mut buffer = agent.make_buffer().unwrap();
        let mut episode_rewards = Vec::new();
        for _ in 0..episodes {
            let mut obs = env.reset(&mut rng).unwrap();
            let mut total = 0.0;
            loop {
                let out = agent.act(&obs, &mut rng).unwrap();
                let step = env.step(&out.action).unwrap();
                total += step.reward;
                buffer
                    .push(Transition {
                        obs: out.norm_obs,
                        action: out.action,
                        log_prob: out.log_prob,
                        reward: step.reward,
                        value: out.value,
                        done: step.done,
                    })
                    .unwrap();
                if buffer.is_full() {
                    let last_v = if step.done {
                        0.0
                    } else {
                        agent.bootstrap_value(&step.obs).unwrap()
                    };
                    agent.update(&buffer, last_v, &mut rng).unwrap();
                    buffer.clear();
                }
                obs = step.obs;
                if step.done {
                    break;
                }
            }
            episode_rewards.push(total);
        }
        let q = episodes / 4;
        let first: f64 = episode_rewards[..q].iter().sum::<f64>() / q as f64;
        let last: f64 = episode_rewards[episodes - q..].iter().sum::<f64>() / q as f64;
        (first, last)
    }

    #[test]
    fn config_validation() {
        let mut c = PpoConfig::default();
        assert!(c.validate().is_ok());
        c.clip = 0.0;
        assert!(c.validate().is_err());
        let c = PpoConfig {
            gamma: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PpoConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PpoConfig {
            entropy_coef: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn act_shapes_and_obs_dim_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut agent = PpoAgent::new(3, 2, small_config(), &mut rng).unwrap();
        let out = agent.act(&[0.1, 0.2, 0.3], &mut rng).unwrap();
        assert_eq!(out.action.len(), 2);
        assert_eq!(out.norm_obs.len(), 3);
        assert!(out.log_prob.is_finite());
        assert!(out.value.is_finite());
        assert!(agent.act(&[0.1], &mut rng).is_err());
    }

    #[test]
    fn eval_mode_freezes_obs_stats() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        agent.act(&[5.0], &mut rng).unwrap();
        let count_before = agent.obs_norm().count();
        agent.set_training(false);
        agent.act(&[7.0], &mut rng).unwrap();
        assert_eq!(agent.obs_norm().count(), count_before);
    }

    #[test]
    fn update_rejects_empty_buffer() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        let buffer = agent.make_buffer().unwrap();
        assert!(agent.update(&buffer, 0.0, &mut rng).is_err());
    }

    #[test]
    fn update_produces_finite_stats_and_syncs_old_policy() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut env = QuadEnv::new(8);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        let mut buffer = agent.make_buffer().unwrap();
        let mut obs = env.reset(&mut rng).unwrap();
        while !buffer.is_full() {
            let out = agent.act(&obs, &mut rng).unwrap();
            let step = env.step(&out.action).unwrap();
            buffer
                .push(Transition {
                    obs: out.norm_obs,
                    action: out.action,
                    log_prob: out.log_prob,
                    reward: step.reward,
                    value: out.value,
                    done: step.done,
                })
                .unwrap();
            obs = if step.done {
                env.reset(&mut rng).unwrap()
            } else {
                step.obs
            };
        }
        let stats = agent.update(&buffer, 0.0, &mut rng).unwrap();
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy.is_finite());
        assert!(stats.minibatches > 0);
        assert!(stats.epochs_run >= 1);
        assert!((0.0..=1.0).contains(&stats.clip_fraction));
        // θ_old synced to θ.
        assert_eq!(
            agent.policy.mean_net().export_params(),
            agent.policy_old.mean_net().export_params()
        );
    }

    #[test]
    fn ppo_learns_quadratic_tracking() {
        let (first, last) = train_quad(400, 42);
        // Initial random policy is far off; trained policy should close most
        // of the gap toward 0 (the optimum).
        assert!(
            last > first * 0.5 && last > -2.0,
            "no learning: first={first}, last={last}"
        );
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let a = train_quad(40, 7);
        let b = train_quad(40, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn act_mean_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let agent = PpoAgent::new(2, 1, small_config(), &mut rng).unwrap();
        let a1 = agent.act_mean(&[0.5, -0.5]).unwrap();
        let a2 = agent.act_mean(&[0.5, -0.5]).unwrap();
        assert_eq!(a1, a2);
    }

    /// Every inference entry point rejects an observation one column too
    /// wide or too narrow instead of truncating or padding it.
    #[test]
    fn inference_rejects_obs_width_mismatch() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let agent = PpoAgent::new(2, 1, small_config(), &mut rng).unwrap();
        assert!(agent.act_mean(&[0.5, -0.5]).is_ok());
        for obs in [&[0.5][..], &[0.5, -0.5, 99.0]] {
            assert!(agent.act_mean(obs).is_err(), "act_mean {obs:?}");
            assert!(agent.bootstrap_value(obs).is_err(), "bootstrap {obs:?}");
            assert!(agent.forward_frozen_batch(&[obs]).is_err());
            assert!(agent.forward_frozen_batch(&[&[0.5, -0.5], obs]).is_err());
        }
    }

    /// Fills a buffer from QuadEnv for update-path tests.
    fn filled_buffer(agent: &mut PpoAgent, rng: &mut ChaCha8Rng) -> crate::RolloutBuffer {
        let mut env = QuadEnv::new(8);
        let mut buffer = agent.make_buffer().unwrap();
        let mut obs = env.reset(rng).unwrap();
        while !buffer.is_full() {
            let out = agent.act(&obs, rng).unwrap();
            let step = env.step(&out.action).unwrap();
            buffer
                .push(Transition {
                    obs: out.norm_obs,
                    action: out.action,
                    log_prob: out.log_prob,
                    reward: step.reward,
                    value: out.value,
                    done: step.done,
                })
                .unwrap();
            obs = if step.done {
                env.reset(rng).unwrap()
            } else {
                step.obs
            };
        }
        buffer
    }

    /// Checkpoint/resume is exact: a restored agent takes the same
    /// deterministic actions and — given the same RNG stream — performs the
    /// same update as the original.
    #[test]
    fn agent_checkpoint_roundtrip_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        // Move past the initial state so optimizer moments are non-trivial.
        let buffer = filled_buffer(&mut agent, &mut rng);
        agent.update(&buffer, 0.0, &mut rng).unwrap();

        let json = agent.to_json().unwrap();
        let mut restored = PpoAgent::from_json(&json).unwrap();
        assert_eq!(
            agent.act_mean(&[0.3]).unwrap(),
            restored.act_mean(&[0.3]).unwrap()
        );
        // Same RNG stream → identical subsequent update.
        let mut r1 = ChaCha8Rng::seed_from_u64(31);
        let mut r2 = ChaCha8Rng::seed_from_u64(31);
        let s1 = agent.update(&buffer, 0.0, &mut r1).unwrap();
        let s2 = restored.update(&buffer, 0.0, &mut r2).unwrap();
        assert!((s1.policy_loss - s2.policy_loss).abs() < 1e-12);
        assert!((s1.value_loss - s2.value_loss).abs() < 1e-12);
        assert!(PpoAgent::from_json("{broken").is_err());
    }

    #[test]
    fn poison_hook_fires_once_and_restore_disarms_it() {
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        let buffer = filled_buffer(&mut agent, &mut rng);
        let snapshot = agent.to_json().unwrap();

        agent.poison_update_for_test(agent.updates_done());
        let err = agent.update(&buffer, 0.0, &mut rng).unwrap_err();
        assert!(matches!(err, RlError::Diverged(_)), "got {err:?}");
        assert_eq!(agent.updates_done(), 0, "failed update must not count");

        // Restoring the pre-poison snapshot clears the (skip-serialized)
        // poison flag: the same update now succeeds.
        let mut restored = PpoAgent::from_json(&snapshot).unwrap();
        restored.update(&buffer, 0.0, &mut rng).unwrap();
        assert_eq!(restored.updates_done(), 1);
    }

    #[test]
    fn scale_learning_rates_hits_all_three_optimizers() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut agent = PpoAgent::new(1, 1, small_config(), &mut rng).unwrap();
        let (a0, c0) = agent.learning_rates();
        let ls0 = agent.log_std_opt.lr;
        agent.scale_learning_rates(0.5);
        let (a1, c1) = agent.learning_rates();
        assert!((a1 - a0 * 0.5).abs() < 1e-15);
        assert!((c1 - c0 * 0.5).abs() < 1e-15);
        assert!((agent.log_std_opt.lr - ls0 * 0.5).abs() < 1e-15);
    }

    #[test]
    fn lr_decay_anneals_learning_rates() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let mut config = small_config();
        config.lr_decay = 0.5;
        let lr0 = config.actor_lr;
        let mut agent = PpoAgent::new(1, 1, config, &mut rng).unwrap();
        let buffer = filled_buffer(&mut agent, &mut rng);
        agent.update(&buffer, 0.0, &mut rng).unwrap();
        assert!((agent.actor_opt.learning_rate() - lr0 * 0.5).abs() < 1e-12);
        agent.update(&buffer, 0.0, &mut rng).unwrap();
        assert!((agent.actor_opt.learning_rate() - lr0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn value_clip_update_is_finite_and_learns() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut config = small_config();
        config.value_clip = Some(0.2);
        let mut agent = PpoAgent::new(1, 1, config, &mut rng).unwrap();
        let buffer = filled_buffer(&mut agent, &mut rng);
        let stats = agent.update(&buffer, 0.0, &mut rng).unwrap();
        assert!(stats.value_loss.is_finite());
        assert!(stats.policy_loss.is_finite());
    }

    #[test]
    fn config_rejects_bad_extensions() {
        let c = PpoConfig {
            lr_decay: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PpoConfig {
            lr_decay: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PpoConfig {
            value_clip: Some(0.0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    /// Batched-rollout contract at the agent level: for any batch size, row
    /// `i` of a frozen batched forward plus its noise draw reproduces `act`
    /// on observation `i` bit-for-bit — normalized obs, action, log-prob,
    /// value, and the RNG position afterwards.
    #[test]
    fn frozen_batch_rows_match_act_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let mut agent = PpoAgent::new(3, 2, small_config(), &mut rng).unwrap();
        // Warm the normalizer so normalization is non-trivial, then freeze
        // it so `act` reads the same statistics the batch does.
        for i in 0..16 {
            let o = [(i as f64 * 0.3).sin(), i as f64 * 0.1, -0.2 * i as f64];
            agent.act(&o, &mut rng).unwrap();
        }
        agent.set_training(false);
        for n in [1usize, 7, 32] {
            let obs: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..3).map(|j| ((i * 3 + j) as f64 * 0.23).cos()).collect())
                .collect();
            let batch = agent.forward_frozen_batch(&obs).unwrap();
            for (i, o) in obs.iter().enumerate() {
                let mut r1 = ChaCha8Rng::seed_from_u64(60 + i as u64);
                let mut r2 = r1.clone();
                let single = agent.act(o, &mut r1).unwrap();
                let from_batch = agent.sample_frozen_row(&batch, i, &mut r2).unwrap();
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&single.norm_obs),
                    bits(&from_batch.norm_obs),
                    "n={n} row {i}"
                );
                assert_eq!(
                    bits(&single.action),
                    bits(&from_batch.action),
                    "n={n} row {i}"
                );
                assert_eq!(single.log_prob.to_bits(), from_batch.log_prob.to_bits());
                assert_eq!(single.value.to_bits(), from_batch.value.to_bits());
                assert_eq!(r1, r2, "identical RNG consumption");
            }
        }
        // Out-of-range row and bad obs dims are rejected.
        let batch = agent.forward_frozen_batch(&[vec![0.0; 3]]).unwrap();
        assert!(agent.sample_frozen_row(&batch, 1, &mut rng).is_err());
        assert!(agent.forward_frozen_batch(&[vec![0.0; 2]]).is_err());
    }

    #[test]
    fn kl_early_stop_limits_epochs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut config = small_config();
        config.target_kl = Some(1e-9); // stop immediately after first epoch
        config.epochs = 10;
        let mut env = QuadEnv::new(8);
        let mut agent = PpoAgent::new(1, 1, config, &mut rng).unwrap();
        let mut buffer = agent.make_buffer().unwrap();
        let mut obs = env.reset(&mut rng).unwrap();
        while !buffer.is_full() {
            let out = agent.act(&obs, &mut rng).unwrap();
            let step = env.step(&out.action).unwrap();
            buffer
                .push(Transition {
                    obs: out.norm_obs,
                    action: out.action,
                    log_prob: out.log_prob,
                    reward: step.reward,
                    value: out.value,
                    done: step.done,
                })
                .unwrap();
            obs = if step.done {
                env.reset(&mut rng).unwrap()
            } else {
                step.obs
            };
        }
        let stats = agent.update(&buffer, 0.0, &mut rng).unwrap();
        assert!(
            stats.epochs_run < 10,
            "expected early stop, ran {}",
            stats.epochs_run
        );
    }
}
