//! Algorithm 1: the offline DRL training procedure.

use crate::controllers::DrlController;
use crate::flenv::{EnvConfig, FlFreqEnv, ObsMode};
use crate::supervise::{
    reward_collapsed, DivergenceCause, Intervention, RecoveryAction, SupervisorPolicy,
    SupervisorState, TrainError,
};
use crate::{CtrlError, Result};
use fl_obs::{Event, Recorder};
use fl_rl::runner::{RunnerState, VecEnvRunner};
use fl_rl::snapshot::{self, CheckpointStore, RngState};
use fl_rl::{Environment, PpoAgent, PpoConfig, RolloutBuffer};
use fl_sim::FleetSim;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Actor-network architecture selection (see `fl_rl::MeanArch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyArch {
    /// One monolithic MLP mapping the full state to all `N` means — the
    /// direct reading of the paper's `π(a_k | s_k; θ_a)`.
    Joint,
    /// One weight-shared MLP applied per device, fed the device's own
    /// bandwidth history, the fleet-average history, and the device's
    /// constants (`τ c_i D_i`, `δ_i^max`, `α_i`, `e_i`). Scales the method
    /// to large fleets (the paper's N = 50 simulation) by making the
    /// gradient signal per weight `N×` denser.
    Shared,
    /// One weight-shared MLP fed the *fixed-size pooled* observation
    /// ([`ObsMode::Pooled`]) broadcast to every device alongside that
    /// device's constants. The network input width never mentions `N`, so
    /// the trained weights transfer to any fleet size
    /// (`GaussianPolicy::with_fleet`) — the fleet-scale architecture.
    Broadcast,
}

/// Offline training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of training episodes (Algorithm 1's outer loop).
    pub episodes: usize,
    /// PPO hyperparameters (Algorithm 1's inner update).
    pub ppo: PpoConfig,
    /// Environment shape: slot length `h`, history `H`, episode length.
    pub env: EnvConfig,
    /// Actor architecture.
    pub arch: PolicyArch,
    /// Multiplier applied to rewards before they enter the buffer. System
    /// costs are O(10); scaling keeps critic targets near unity, which the
    /// tanh-hidden value net fits far faster. Diagnostics (mean cost,
    /// total reward) stay in unscaled units.
    pub reward_scale: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            episodes: 300,
            // Hyperparameters validated by the fig6/fig7 reproduction runs
            // (see fl-bench::Scenario and EXPERIMENTS.md). The short credit
            // horizon (γ = 0.5) reflects that a frequency action only
            // affects the current iteration's cost, making the task
            // near-bandit.
            ppo: PpoConfig {
                hidden: vec![64, 64],
                buffer_capacity: 250,
                minibatch_size: 64,
                epochs: 10,
                actor_lr: 1e-3,
                critic_lr: 3e-3,
                entropy_coef: 0.001,
                gamma: 0.5,
                gae_lambda: 0.9,
                target_kl: Some(0.15),
                ..PpoConfig::default()
            },
            env: EnvConfig::default(),
            arch: PolicyArch::Joint,
            reward_scale: 0.05,
        }
    }
}

/// Per-episode training diagnostics — the series behind Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Episode index (0-based).
    pub episode: usize,
    /// Mean per-iteration system cost during the episode — Fig. 6(b).
    pub mean_cost: f64,
    /// Sum of rewards over the episode.
    pub total_reward: f64,
    /// PPO policy (clipped-surrogate) loss of the most recent update.
    pub policy_loss: f64,
    /// Critic loss of the most recent update — the decreasing "training
    /// loss" curve of Fig. 6(a).
    pub value_loss: f64,
    /// Policy entropy after the most recent update.
    pub entropy: f64,
    /// PPO updates triggered so far (buffer fills).
    pub updates_so_far: usize,
}

/// Result of [`train_drl`].
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// The deployable controller (trained actor + frozen obs statistics).
    pub controller: DrlController,
    /// Per-episode diagnostics.
    pub episodes: Vec<EpisodeStats>,
    /// Every supervisor intervention (rollback/backoff/reseed) the run
    /// survived — empty unless a [`SupervisorPolicy`] was active and fired.
    pub interventions: Vec<Intervention>,
    /// The full trained agent (actor + critic + optimizer state), for
    /// continual-learning deployments (`OnlineDrlController`).
    pub agent: fl_rl::PpoAgent,
}

impl TrainOutput {
    /// Mean cost of the final `n` episodes (plateau estimate).
    pub fn final_mean_cost(&self, n: usize) -> f64 {
        let take = n.min(self.episodes.len()).max(1);
        let tail = &self.episodes[self.episodes.len() - take..];
        tail.iter().map(|e| e.mean_cost).sum::<f64>() / take as f64
    }
}

impl TrainConfig {
    /// Validates the complete configuration upfront — episode budget,
    /// reward scaling, the full PPO hyperparameter set
    /// ([`PpoConfig::validate`]), environment shape, and cross-field
    /// constraints — so misconfiguration surfaces as one structured error
    /// before any training work starts.
    pub fn validate(&self) -> Result<()> {
        if self.episodes == 0 {
            return Err(CtrlError::InvalidArgument(
                "episodes must be nonzero".to_string(),
            ));
        }
        if !(self.reward_scale > 0.0) || !self.reward_scale.is_finite() {
            return Err(CtrlError::InvalidArgument(format!(
                "reward_scale must be positive and finite, got {}",
                self.reward_scale
            )));
        }
        self.ppo.validate().map_err(CtrlError::from)?;
        if self.arch == PolicyArch::Shared && self.env.faults_enabled() {
            // The weight-shared actor slices the observation into per-device
            // bandwidth histories; the participation tail has no slot in that
            // layout yet.
            return Err(CtrlError::InvalidArgument(
                "fault injection is not supported with PolicyArch::Shared (the \
                 participation tail does not fit the per-device feature layout)"
                    .to_string(),
            ));
        }
        if self.arch == PolicyArch::Shared && self.env.obs == ObsMode::Pooled {
            // The shared actor needs the per-device feature blocks the pooled
            // observation deliberately collapses.
            return Err(CtrlError::InvalidArgument(
                "ObsMode::Pooled requires PolicyArch::Joint or PolicyArch::Broadcast \
                 (the Shared actor slices per-device feature blocks)"
                    .to_string(),
            ));
        }
        if self.arch == PolicyArch::Broadcast && self.env.obs == ObsMode::PerDevice {
            // The broadcast actor's whole point is the fixed-size input; a
            // per-device observation would silently re-couple it to N.
            return Err(CtrlError::InvalidArgument(
                "PolicyArch::Broadcast requires ObsMode::Pooled (its input width \
                 must be independent of the device count)"
                    .to_string(),
            ));
        }
        self.env.validate()
    }
}

/// Per-device static constants for the weight-sharing architectures,
/// roughly unit-scaled so they sit comfortably next to the whitened
/// bandwidth features. Row `d` is
/// `[τ·c_d·D_d/2, δ_d^max, 2α_d, 4e_d]`, read straight from the fleet's
/// struct-of-arrays state ([`FleetSim::state`]).
/// Public so deployment harnesses can rebuild the matrix for a *different*
/// fleet when rebinding a broadcast policy (`GaussianPolicy::with_fleet`).
pub fn fleet_statics(state: &fl_sim::FleetState, tau: u32) -> fl_nn::Matrix {
    let tau = tau as f64;
    fl_nn::Matrix::from_fn(state.len(), 4, |d, c| {
        let dev = state.device(d);
        match c {
            0 => tau * dev.gcycles_per_pass() / 2.0,
            1 => dev.delta_max_ghz,
            2 => dev.alpha * 2.0,
            _ => dev.tx_power_w * 4.0,
        }
    })
}

/// Initializes the agent for the selected actor architecture.
fn build_agent(
    sys: &FleetSim,
    config: &TrainConfig,
    obs_dim: usize,
    action_dim: usize,
    rng: &mut ChaCha8Rng,
) -> Result<PpoAgent> {
    match config.arch {
        PolicyArch::Joint => {
            PpoAgent::new(obs_dim, action_dim, config.ppo.clone(), rng).map_err(CtrlError::from)
        }
        PolicyArch::Shared => {
            let policy = fl_rl::GaussianPolicy::new_shared(
                sys.num_devices(),
                config.env.history_len + 1,
                fleet_statics(sys.state(), sys.config().tau),
                &config.ppo.hidden,
                config.ppo.init_log_std,
                rng,
            )
            .map_err(CtrlError::from)?;
            PpoAgent::with_policy(policy, config.ppo.clone(), rng).map_err(CtrlError::from)
        }
        PolicyArch::Broadcast => {
            let policy = fl_rl::GaussianPolicy::new_broadcast(
                obs_dim,
                fleet_statics(sys.state(), sys.config().tau),
                &config.ppo.hidden,
                config.ppo.init_log_std,
                rng,
            )
            .map_err(CtrlError::from)?;
            PpoAgent::with_policy(policy, config.ppo.clone(), rng).map_err(CtrlError::from)
        }
    }
}

/// Trains the DRL agent offline against the simulated federated-learning
/// environment, following Algorithm 1:
///
/// 1. initialize actor/critic, sync `θ_a^old ← θ_a` (lines 1–4);
/// 2. per episode: pick a random start time, build the initial bandwidth
///    state (lines 6–10);
/// 3. per iteration: sample an action from `θ_a^old`, run the FL iteration,
///    compute the Eq. 13 reward, store the transition (lines 12–16);
/// 4. when the buffer fills: `M` PPO epochs, critic TD regression, sync
///    `θ_a^old ← θ_a`, clear the buffer (lines 17–23).
///
/// A shortcut for [`train_drl_parallel_opt`] at [`ParallelConfig::SERIAL`]
/// with default options.
pub fn train_drl(
    sys: &FleetSim,
    config: &TrainConfig,
    rng: &mut ChaCha8Rng,
) -> Result<TrainOutput> {
    train_drl_parallel_opt(
        sys,
        config,
        &ParallelConfig::SERIAL,
        rng,
        &RunOptions::default(),
    )
    .map(|out| out.output)
}

/// Where and how often [`train_drl_parallel_opt`] checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory for the double-buffered `ckpt-A`/`ckpt-B` slot files
    /// (created if missing).
    pub dir: PathBuf,
    /// Save at the first episode boundary at least this many episodes
    /// after the previous save. Must be nonzero.
    pub every_episodes: usize,
    /// Resume from the newest valid checkpoint in `dir` if one exists
    /// (start fresh when the directory is empty). `false` ignores existing
    /// checkpoints and overwrites them as training progresses.
    pub resume: bool,
}

/// Optional behaviors of a training run. [`RunOptions::default`] is inert:
/// [`train_drl_parallel_opt`] with defaults is bit-identical to
/// [`train_drl_parallel`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Crash-safe checkpointing (and resume) of the complete training
    /// state.
    pub checkpoint: Option<CheckpointOptions>,
    /// Self-healing supervision: NaN/collapse detection with rollback to
    /// the last good state and deterministic escalation.
    pub supervisor: Option<SupervisorPolicy>,
    /// Stop cleanly once this many episodes are recorded — the test
    /// harness's deterministic "kill at episode N" (the run exits after
    /// any due checkpoint, exactly as a crash between episodes would).
    pub stop_after_episodes: Option<usize>,
    /// Test hook: poison the N-th PPO update with a NaN parameter (see
    /// [`PpoAgent::poison_update_for_test`]). Ignored when resuming.
    pub poison_update: Option<u64>,
    /// Observability sink (`fl_obs`). The default disabled recorder is a
    /// no-op; an enabled one receives spans, metrics, and the JSONL event
    /// stream. Recording never consumes RNG and never branches training:
    /// runs with and without it are bit-identical.
    pub obs: Recorder,
}

impl RunOptions {
    /// Validates the option set.
    pub fn validate(&self) -> Result<()> {
        if let Some(ck) = &self.checkpoint {
            if ck.every_episodes == 0 {
                return Err(CtrlError::InvalidArgument(
                    "checkpoint cadence (every_episodes) must be nonzero".to_string(),
                ));
            }
        }
        if let Some(pol) = &self.supervisor {
            pol.validate()?;
        }
        Ok(())
    }
}

/// The complete training state a checkpoint payload carries: agent (actor,
/// critic, optimizer moments, obs normalizer), the partially filled PPO
/// buffer, the master RNG position, the full episode history, supervisor
/// bookkeeping, and every env slot's state and stream. Restoring this and
/// continuing is bit-identical to never having stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TrainState {
    /// CRC-32 of the serialized [`TrainConfig`]; a resume under a
    /// different configuration is refused rather than silently diverging.
    config_digest: u32,
    /// Environment count the state was written under; guarded on resume.
    n_envs: usize,
    agent: PpoAgent,
    buffer: RolloutBuffer,
    master_rng: RngState,
    episodes: Vec<EpisodeStats>,
    updates_so_far: usize,
    last_policy_loss: f64,
    last_value_loss: f64,
    last_entropy: f64,
    supervisor: SupervisorState,
    runner: RunnerState,
}

/// The resume guards of a [`TrainState`] payload, decoded before the rest
/// so that a checkpoint of another shape is refused with a structured
/// error before its runner state is read.
#[derive(Deserialize)]
struct TrainStateHeader {
    config_digest: u32,
    n_envs: usize,
}

fn config_digest(config: &TrainConfig) -> Result<u32> {
    Ok(snapshot::crc32(&snapshot::encode_payload(config)?))
}

/// Loads and sanity-checks the resume state, if resuming was requested and
/// a checkpoint exists.
fn load_resume_state(
    opts: &RunOptions,
    store: &Option<CheckpointStore>,
    digest: u32,
    n_envs: usize,
) -> Result<Option<TrainState>> {
    let (Some(ck), Some(store)) = (&opts.checkpoint, store) else {
        return Ok(None);
    };
    if !ck.resume {
        return Ok(None);
    }
    let Some((seq, payload)) = store.load_latest()? else {
        return Ok(None);
    };
    let header: TrainStateHeader = snapshot::decode_payload(&payload)?;
    if header.config_digest != digest {
        return Err(CtrlError::InvalidArgument(
            "checkpoint was written under a different training configuration".to_string(),
        ));
    }
    if header.n_envs != n_envs {
        return Err(CtrlError::InvalidArgument(format!(
            "checkpoint was written with n_envs={}, this run requests n_envs={}",
            header.n_envs, n_envs
        )));
    }
    let st: TrainState = snapshot::decode_payload(&payload)?;
    if opts.obs.is_enabled() {
        opts.obs.emit(
            Event::phys("checkpoint_load")
                .u("seq", seq)
                .u("episodes", st.episodes.len() as u64)
                .u("n_envs", n_envs as u64)
                .u("bytes", payload.len() as u64),
        );
    }
    Ok(Some(st))
}

/// Rolls training back to `last_good` after a divergence strike, applying
/// the deterministic escalation ladder. Returns `Err(TrainError::Diverged)`
/// once the strike budget is exhausted.
fn recover(
    st: &mut TrainState,
    last_good: &Option<Vec<u8>>,
    opts: &RunOptions,
    rng: &mut ChaCha8Rng,
    runner: &mut VecEnvRunner<FlFreqEnv>,
    episode: usize,
    cause: DivergenceCause,
) -> Result<()> {
    let pol = opts.supervisor.as_ref().expect("caller checked supervisor");
    let mut sup = st.supervisor.clone();
    sup.strikes += 1;
    let strike = sup.strikes;
    if strike >= pol.max_strikes {
        return Err(TrainError::Diverged {
            strikes: strike,
            cause,
        }
        .into());
    }
    let reseed = strike >= pol.reseed_after;
    let iv = Intervention {
        episode,
        strike,
        cause,
        action: if reseed {
            RecoveryAction::RollbackReseed
        } else {
            RecoveryAction::RollbackBackoff
        },
    };
    sup.interventions.push(iv);
    sup.lr_scale *= pol.lr_backoff;
    if opts.obs.is_enabled() {
        opts.obs.emit(iv.obs_event(sup.lr_scale));
    }
    let bytes = last_good
        .as_ref()
        .expect("supervisor captures a baseline before training");
    let mut restored: TrainState = snapshot::decode_payload(bytes)?;
    // Strikes survive their own rollback: carry the bookkeeping forward and
    // bring the restored agent's learning rates up to the cumulative scale
    // (the snapshot may already have earlier backoffs baked in).
    let factor = sup.lr_scale / restored.supervisor.lr_scale;
    restored.agent.scale_learning_rates(factor);
    restored.supervisor = sup;
    *rng = restored.master_rng.restore()?;
    runner
        .import_state(&restored.runner)
        .map_err(CtrlError::from)?;
    if reseed {
        // Move every env slot onto a fresh, strike-salted stream family so
        // the replayed trajectory actually changes (deterministic: a
        // resumed run derives the identical streams).
        runner.reseed_streams(strike as u64);
    }
    *st = restored;
    // `decode_payload` rebuilt the agent from scratch (the recorder field is
    // `#[serde(skip)]`), so re-attach the run's recorder.
    st.agent.set_recorder(opts.obs.clone());
    opts.obs.note(&format!(
        "supervisor: strike {strike} at episode {episode} ({}) -> {}",
        iv.cause.tag(),
        iv.action.tag()
    ));
    Ok(())
}

/// Builds the final output from the finished training state.
fn finish_output(st: TrainState, config: &TrainConfig) -> Result<TrainOutput> {
    let TrainState {
        agent,
        mut episodes,
        supervisor,
        ..
    } = st;
    let mut controller = DrlController::new(
        agent.policy().clone(),
        agent.obs_norm().clone(),
        config.env.slot_h,
        config.env.history_len,
        config.env.min_freq_frac,
    )?;
    controller.participation_tail = config.env.faults_enabled();
    controller.obs_mode = config.env.obs;
    episodes.truncate(config.episodes);
    Ok(TrainOutput {
        controller,
        episodes,
        interventions: supervisor.interventions,
        agent,
    })
}

/// Emits the deterministic `episode` event for the newest entry of
/// `st.episodes`. Pure function of the (bit-identical) training state, so
/// the event is invariant across worker counts and kill/resume boundaries.
fn emit_episode_event(obs: &Recorder, st: &TrainState) {
    if !obs.is_enabled() {
        return;
    }
    let Some(e) = st.episodes.last() else {
        return;
    };
    obs.emit(
        Event::det("episode", format!("e{:06}", e.episode))
            .u("episode", e.episode as u64)
            .f("mean_cost", e.mean_cost)
            .f("total_reward", e.total_reward)
            .f("policy_loss", e.policy_loss)
            .f("value_loss", e.value_loss)
            .f("entropy", e.entropy)
            .u("updates_so_far", e.updates_so_far as u64),
    );
}

/// Saves one checkpoint under the `checkpoint_save` span, emits the
/// physical `checkpoint_save` event, and flushes the event sink so a crash
/// right after the save loses no telemetry. Checkpoint events are
/// *physical*, not deterministic: the save cadence after a resume is
/// genuinely different whenever `every_episodes` does not divide the kill
/// point.
fn save_checkpoint(
    obs: &Recorder,
    store: &CheckpointStore,
    payload: &[u8],
    episodes: usize,
) -> Result<()> {
    let _span = obs.span("checkpoint_save");
    let seq = store.save(payload)?;
    if obs.is_enabled() {
        obs.emit(
            Event::phys("checkpoint_save")
                .u("seq", seq)
                .u("episodes", episodes as u64)
                .u("bytes", payload.len() as u64),
        );
        if let Err(e) = obs.flush() {
            eprintln!("fl-obs: event flush failed (training continues): {e}");
        }
    }
    Ok(())
}

/// Rollout settings for [`train_drl_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Independent environment instances stepped concurrently. This is a
    /// *logical* parameter: it changes the data order (like changing the
    /// batch layout), so results are comparable only at fixed `n_envs`.
    pub n_envs: usize,
    /// Worker-thread cap — purely *physical*: any value yields bit-identical
    /// training results, only wall-clock time changes.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            n_envs: 4,
            workers: fl_rl::pool::default_workers(),
        }
    }
}

impl ParallelConfig {
    /// One environment on one worker: serial Algorithm 1.
    pub const SERIAL: ParallelConfig = ParallelConfig {
        n_envs: 1,
        workers: 1,
    };

    /// Validates the shape.
    pub fn validate(&self) -> Result<()> {
        if self.n_envs == 0 {
            return Err(CtrlError::InvalidArgument(
                "n_envs must be nonzero".to_string(),
            ));
        }
        Ok(())
    }
}

/// Result of [`train_drl_parallel`]: the training output plus the worker
/// telemetry of every collection round.
#[derive(Debug)]
pub struct ParallelTrainOutput {
    /// The regular training output (controller, per-episode stats, agent).
    pub output: TrainOutput,
    /// Per-round worker telemetry from the rollout fan-out.
    pub rounds: Vec<Vec<fl_rl::pool::WorkerStats>>,
}

/// Algorithm 1 with vectorized experience collection: `n_envs` environment
/// replicas gather episodes concurrently on a work-stealing pool
/// ([`fl_rl::runner::VecEnvRunner`]), and their transitions merge into the
/// shared PPO buffer in environment order.
///
/// The determinism contract is inherited from the runner: for a fixed RNG
/// state and `par.n_envs`, the returned [`EpisodeStats`], controller, and
/// agent are **bit-identical for every `par.workers` value**. `par.n_envs`
/// is logical: it reorders the experience stream. [`train_drl`] is this
/// driver at `n_envs = 1`.
///
/// Episode numbering follows merge order: round `r` contributes episodes
/// `r·n_envs .. (r+1)·n_envs`, one per environment, each exactly
/// `config.env.episode_len` steps (the environment's fixed horizon). The
/// total is rounded up to a whole number of rounds, then truncated to
/// `config.episodes` in the stats.
pub fn train_drl_parallel(
    sys: &FleetSim,
    config: &TrainConfig,
    par: &ParallelConfig,
    rng: &mut ChaCha8Rng,
) -> Result<ParallelTrainOutput> {
    train_drl_parallel_opt(sys, config, par, rng, &RunOptions::default())
}

/// [`train_drl_parallel`] with crash-safe checkpoint/resume and optional
/// self-healing supervision — the one Algorithm-1 driver.
///
/// # Resume determinism contract
///
/// With checkpointing on, interrupting the run at any round boundary
/// (crash, kill, [`RunOptions::stop_after_episodes`]) and re-running with
/// `resume: true` — even under a *different* `par.workers` — produces
/// **bit-identical** results to the uninterrupted run: the same
/// [`EpisodeStats`] series, the same final parameters, the same
/// controller. Checkpoints capture everything training mutates — agent
/// (incl. optimizer moments and obs-normalizer statistics), the partially
/// filled PPO buffer, the master RNG position, episode history, supervisor
/// bookkeeping, and every environment slot (mid-episode state, per-env RNG
/// stream position, episode accumulators) — in a CRC-checksummed,
/// double-buffered, atomically written file pair (see `fl_rl::snapshot`).
/// A resumed run never re-draws the master seed. Worker telemetry
/// ([`ParallelTrainOutput::rounds`]) covers only the rounds this process
/// executed — it is physical, not part of the deterministic state.
pub fn train_drl_parallel_opt(
    sys: &FleetSim,
    config: &TrainConfig,
    par: &ParallelConfig,
    rng: &mut ChaCha8Rng,
    opts: &RunOptions,
) -> Result<ParallelTrainOutput> {
    config.validate()?;
    par.validate()?;
    opts.validate()?;
    let digest = config_digest(config)?;
    let store = match &opts.checkpoint {
        Some(ck) => Some(CheckpointStore::new(&ck.dir)?),
        None => None,
    };
    let mut envs: Vec<FlFreqEnv> = (0..par.n_envs)
        .map(|_| FlFreqEnv::new(sys.clone(), config.env))
        .collect::<std::result::Result<_, _>>()?;
    for (i, env) in envs.iter_mut().enumerate() {
        // Per-slot scopes keep `fl_round` event keys unique across the
        // vectorized replicas (`env0/e…`, `env1/e…`, …).
        env.set_recorder(opts.obs.clone(), format!("env{i}"));
    }
    if opts.obs.is_enabled() {
        opts.obs.emit(
            Event::phys("run_meta")
                .u("episodes", config.episodes as u64)
                .u("n_envs", par.n_envs as u64)
                .u("workers", par.workers as u64)
                .u("devices", sys.num_devices() as u64),
        );
    }
    let obs_dim = envs[0].obs_dim();
    let action_dim = envs[0].action_dim();

    let (mut st, mut runner) = match load_resume_state(opts, &store, digest, par.n_envs)? {
        Some(mut st) => {
            *rng = st.master_rng.restore()?;
            st.agent.set_recorder(opts.obs.clone());
            // The constructor seed is a placeholder: import_state overwrites
            // every slot (env state, stream, position) from the checkpoint,
            // so the master seed is never re-drawn on resume.
            let mut runner = VecEnvRunner::new(envs, 0, par.workers).map_err(CtrlError::from)?;
            runner.set_recorder(opts.obs.clone());
            runner.import_state(&st.runner).map_err(CtrlError::from)?;
            (st, runner)
        }
        None => {
            let mut agent = build_agent(sys, config, obs_dim, action_dim, rng)?;
            agent.set_recorder(opts.obs.clone());
            if let Some(update) = opts.poison_update {
                agent.poison_update_for_test(update);
            }
            let buffer = agent.make_buffer().map_err(CtrlError::from)?;
            let last_entropy = agent.policy().entropy();
            // Environment RNG streams split off the master seed; the master
            // RNG itself keeps driving only agent init + PPO minibatch
            // shuffling.
            let master_seed = rand::RngCore::next_u64(rng);
            let mut runner =
                VecEnvRunner::new(envs, master_seed, par.workers).map_err(CtrlError::from)?;
            runner.set_recorder(opts.obs.clone());
            let st = TrainState {
                config_digest: digest,
                n_envs: par.n_envs,
                agent,
                buffer,
                master_rng: RngState::capture(rng),
                episodes: Vec::new(),
                updates_so_far: 0,
                last_policy_loss: f64::NAN,
                last_value_loss: f64::NAN,
                last_entropy,
                supervisor: SupervisorState::default(),
                runner: runner.export_state(),
            };
            (st, runner)
        }
    };

    let mut last_good: Option<Vec<u8>> = None;
    if opts.supervisor.is_some() {
        st.master_rng = RngState::capture(rng);
        st.runner = runner.export_state();
        last_good = Some(snapshot::encode_payload(&st)?);
    }
    let rounds_needed = config.episodes.div_ceil(par.n_envs);
    let total_episodes = rounds_needed * par.n_envs;
    let mut rounds = Vec::with_capacity(rounds_needed);
    let mut episodes_since_ckpt = 0usize;
    let stop_at = opts.stop_after_episodes.unwrap_or(usize::MAX);

    'training: while st.episodes.len() < total_episodes && st.episodes.len() < stop_at {
        let episode = st.episodes.len();
        let summary = match runner.train_steps(
            &mut st.agent,
            &mut st.buffer,
            config.env.episode_len,
            config.reward_scale,
            rng,
        ) {
            Ok(summary) => summary,
            Err(fl_rl::RlError::Diverged(msg)) => {
                if opts.supervisor.is_none() {
                    return Err(CtrlError::Rl(fl_rl::RlError::Diverged(msg)));
                }
                recover(
                    &mut st,
                    &last_good,
                    opts,
                    rng,
                    &mut runner,
                    episode,
                    DivergenceCause::NonFinite,
                )?;
                continue 'training;
            }
            Err(e) => return Err(CtrlError::Rl(e)),
        };
        st.updates_so_far += summary.updates.len();
        if let Some(stats) = summary.updates.last() {
            st.last_policy_loss = stats.policy_loss;
            st.last_value_loss = stats.value_loss;
            st.last_entropy = stats.entropy;
        }
        for report in &summary.episodes {
            st.episodes.push(EpisodeStats {
                episode: st.episodes.len(),
                mean_cost: report.mean_metric,
                total_reward: report.total_reward,
                policy_loss: st.last_policy_loss,
                value_loss: st.last_value_loss,
                entropy: st.last_entropy,
                updates_so_far: st.updates_so_far,
            });
            emit_episode_event(&opts.obs, &st);
        }
        episodes_since_ckpt += summary.episodes.len();
        rounds.push(summary.workers);
        if let Some(pol) = &opts.supervisor {
            let _sup_span = opts.obs.span("supervisor_check");
            let costs: Vec<f64> = st.episodes.iter().map(|e| e.mean_cost).collect();
            if reward_collapsed(&costs, pol.collapse_window, pol.collapse_factor) {
                recover(
                    &mut st,
                    &last_good,
                    opts,
                    rng,
                    &mut runner,
                    episode,
                    DivergenceCause::RewardCollapse,
                )?;
                continue 'training;
            }
        }
        let due = store.is_some()
            && opts
                .checkpoint
                .as_ref()
                .is_some_and(|ck| episodes_since_ckpt >= ck.every_episodes);
        if due || opts.supervisor.is_some() {
            st.master_rng = RngState::capture(rng);
            st.runner = runner.export_state();
            let payload = snapshot::encode_payload(&st)?;
            if due {
                let store = store.as_ref().expect("due implies store");
                save_checkpoint(&opts.obs, store, &payload, st.episodes.len())?;
                episodes_since_ckpt = 0;
            }
            if opts.supervisor.is_some() {
                last_good = Some(payload);
            }
        }
    }

    Ok(ParallelTrainOutput {
        output: finish_output(st, config)?,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::FrequencyController;
    use crate::flenv::build_system;
    use fl_net::synth::Profile;
    use fl_sim::FlConfig;
    use rand::SeedableRng;

    fn quick_config(episodes: usize) -> TrainConfig {
        TrainConfig {
            episodes,
            ppo: PpoConfig {
                hidden: vec![16],
                buffer_capacity: 64,
                minibatch_size: 32,
                epochs: 4,
                actor_lr: 1e-3,
                critic_lr: 3e-3,
                target_kl: None,
                ..PpoConfig::default()
            },
            env: EnvConfig {
                episode_len: 8,
                history_len: 3,
                ..EnvConfig::default()
            },
            arch: PolicyArch::Joint,
            reward_scale: 0.05,
        }
    }

    fn system(seed: u64) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        build_system(
            2,
            2,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn zero_episodes_rejected() {
        let sys = system(0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(train_drl(&sys, &quick_config(0), &mut rng).is_err());
    }

    #[test]
    fn produces_stats_and_deployable_controller() {
        let sys = system(2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = train_drl(&sys, &quick_config(12), &mut rng).unwrap();
        assert_eq!(out.episodes.len(), 12);
        // Stats well-formed.
        for (i, e) in out.episodes.iter().enumerate() {
            assert_eq!(e.episode, i);
            assert!(e.mean_cost > 0.0 && e.mean_cost.is_finite());
            assert!(e.total_reward < 0.0);
        }
        // Updates happened (12 episodes * 8 steps = 96 > 64 buffer).
        assert!(out.episodes.last().unwrap().updates_so_far >= 1);
        // Controller drives the system.
        let mut ctrl = out.controller;
        let freqs = ctrl.decide(0, 500.0, &sys, None).unwrap();
        assert_eq!(freqs.len(), 2);
        assert!(sys.run_iteration(500.0, &freqs).is_ok());
    }

    #[test]
    fn training_is_deterministic() {
        let sys = system(4);
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out = train_drl(&sys, &quick_config(6), &mut rng).unwrap();
            (
                out.episodes.iter().map(|e| e.mean_cost).collect::<Vec<_>>(),
                out.controller.policy().mean_net().export_params(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn final_mean_cost_tail() {
        let sys = system(6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let out = train_drl(&sys, &quick_config(5), &mut rng).unwrap();
        let tail2 = out.final_mean_cost(2);
        let expected = (out.episodes[3].mean_cost + out.episodes[4].mean_cost) / 2.0;
        assert!((tail2 - expected).abs() < 1e-12);
        // n larger than history is clamped.
        assert!(out.final_mean_cost(100).is_finite());
    }

    #[test]
    fn fault_training_yields_tail_aware_controller() {
        let sys = system(9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut config = quick_config(6);
        config.env.faults = Some(fl_sim::FaultModel::chaos(0.2, 0.2, Some(120.0)));
        let out = train_drl(&sys, &config, &mut rng).unwrap();
        let mut ctrl = out.controller;
        assert!(ctrl.participation_tail);
        // obs = 2 devices * (3+1) bandwidths + 2 flags.
        assert_eq!(ctrl.policy().obs_dim(), 10);
        // Deployable with and without a previous report.
        let f0 = ctrl.decide(0, 500.0, &sys, None).unwrap();
        assert_eq!(f0.len(), 2);
        let report = sys.run_iteration(500.0, &f0).unwrap();
        assert!(ctrl
            .decide(1, report.end_time(), &sys, Some(&report))
            .is_ok());
    }

    #[test]
    fn shared_arch_rejects_fault_injection() {
        let sys = system(11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut config = quick_config(4);
        config.arch = PolicyArch::Shared;
        config.env.faults = Some(fl_sim::FaultModel::chaos(0.2, 0.2, None));
        assert!(train_drl(&sys, &config, &mut rng).is_err());
        // A `none()` model is inert and must not trip the guard.
        config.env.faults = Some(fl_sim::FaultModel::none());
        assert!(train_drl(&sys, &config, &mut rng).is_ok());
    }

    #[test]
    fn obs_arch_validation_matrix() {
        // Shared × Pooled: the shared actor needs per-device blocks.
        let mut c = quick_config(4);
        c.arch = PolicyArch::Shared;
        c.env.obs = ObsMode::Pooled;
        assert!(c.validate().is_err());
        // Broadcast × PerDevice: the broadcast input must be N-independent.
        let mut c = quick_config(4);
        c.arch = PolicyArch::Broadcast;
        assert!(c.validate().is_err());
        // Broadcast × Pooled: the fleet-scale pairing, faults included.
        c.env.obs = ObsMode::Pooled;
        assert!(c.validate().is_ok());
        c.env.faults = Some(fl_sim::FaultModel::chaos(0.2, 0.2, None));
        assert!(c.validate().is_ok());
        // Joint × Pooled also works (fixed obs, fixed fleet).
        let mut c = quick_config(4);
        c.env.obs = ObsMode::Pooled;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn broadcast_pooled_training_yields_rebindable_controller() {
        let sys = system(13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut config = quick_config(6);
        config.arch = PolicyArch::Broadcast;
        config.env.obs = ObsMode::Pooled;
        config.env.faults = Some(fl_sim::FaultModel::chaos(0.2, 0.2, Some(120.0)));
        let out = train_drl(&sys, &config, &mut rng).unwrap();
        let mut ctrl = out.controller;
        assert_eq!(ctrl.obs_mode, ObsMode::Pooled);
        assert!(ctrl.participation_tail);
        assert!(ctrl.policy().is_broadcast());
        // Pooled width: 5 quantiles × (H+1) slots + 10 statics quantiles
        // + 1 survival entry, independent of N.
        assert_eq!(
            ctrl.policy().obs_dim(),
            fl_sim::pooled_obs_dim(config.env.history_len, true)
        );
        let f = ctrl.decide(0, 500.0, &sys, None).unwrap();
        assert_eq!(f.len(), 2);
        let report = sys.run_iteration(500.0, &f).unwrap();
        assert!(ctrl
            .decide(1, report.end_time(), &sys, Some(&report))
            .is_ok());

        // The same trained weights drive a *different-size* fleet after a
        // statics rebind; a size-mismatched decide without the rebind is
        // rejected rather than silently truncated.
        let mut rng5 = ChaCha8Rng::seed_from_u64(15);
        let big = build_system(
            5,
            3,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &mut rng5,
        )
        .unwrap();
        assert!(ctrl.decide(0, 500.0, &big, None).is_err());
        let mut rebound = ctrl.with_fleet_sim(&big).unwrap();
        assert_eq!(
            rebound.policy().mean_net().export_params(),
            ctrl.policy().mean_net().export_params()
        );
        let f5 = rebound.decide(0, 500.0, &big, None).unwrap();
        assert_eq!(f5.len(), 5);
        assert!(big.run_iteration(500.0, &f5).is_ok());
    }

    /// The Fig. 6(b) property at unit-test scale: average system cost
    /// decreases over training episodes. One short stochastic run can go
    /// either way, so the property is asserted on the mean relative change
    /// `(last15 − first15) / first15` over seeds 0..16. (Absolute
    /// competitiveness against the baselines needs longer budgets and is
    /// exercised in the integration tests.)
    #[test]
    fn training_reduces_episode_cost() {
        let sys = system(8);
        let mut config = quick_config(80);
        config.env.episode_len = 16;
        config.ppo.buffer_capacity = 128;
        let changes: Vec<f64> = (0..16)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let out = train_drl(&sys, &config, &mut rng).unwrap();
                let head = out.episodes[..15].iter().map(|e| e.mean_cost).sum::<f64>() / 15.0;
                (out.final_mean_cost(15) - head) / head
            })
            .collect();
        let mean = changes.iter().sum::<f64>() / changes.len() as f64;
        assert!(
            mean < 0.0,
            "cost did not decrease over training on average: mean relative change {mean}, \
             per seed {changes:?}"
        );
    }
}
