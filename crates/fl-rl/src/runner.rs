//! Vectorized rollout collection and policy evaluation helpers.
//!
//! [`VecEnvRunner`] wraps the act → step → store loop that every user of
//! [`PpoAgent`] + [`Environment`] otherwise hand-writes (Algorithm 1
//! lines 11–16), including the buffer-full update trigger and episode
//! bookkeeping, for any number of environment instances — one environment
//! is the serial case.

use crate::buffer::{RolloutBuffer, Transition};
use crate::env::{Environment, SnapshotEnv, Step};
use crate::pool::{self, WorkerStats};
use crate::ppo::{PpoAgent, UpdateStats};
use crate::snapshot::RngState;
use crate::{Result, RlError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use std::time::{Duration, Instant};

/// Evaluates the current (deterministic, mean-action) policy for
/// `episodes` episodes and returns the mean episode reward. Does not touch
/// observation statistics or parameters.
pub fn evaluate_mean_reward<E: Environment>(
    agent: &PpoAgent,
    env: &mut E,
    episodes: usize,
    max_steps_per_episode: usize,
    rng: &mut ChaCha8Rng,
) -> Result<f64> {
    let mut total = 0.0;
    for _ in 0..episodes.max(1) {
        let mut obs = env.reset(rng)?;
        for _ in 0..max_steps_per_episode {
            let action = agent.act_mean(&obs)?;
            let step = env.step(&action)?;
            total += step.reward;
            if step.done {
                break;
            }
            obs = step.obs;
        }
    }
    Ok(total / episodes.max(1) as f64)
}

/// One completed episode observed by [`VecEnvRunner::train_steps`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Index of the environment instance the episode ran in.
    pub env: usize,
    /// Total (undiscounted, unscaled) episode reward.
    pub total_reward: f64,
    /// Mean of [`Environment::step_metric`] over the episode (falls back to
    /// `-reward` per step when the environment reports `None`).
    pub mean_metric: f64,
    /// Episode length in steps.
    pub steps: usize,
}

/// Outcome of one [`VecEnvRunner::train_steps`] collection round.
#[derive(Debug, Clone)]
pub struct VecRolloutSummary {
    /// Environment steps executed (`n_envs × steps_per_env`).
    pub steps: usize,
    /// Episodes that completed this round, in merge (environment) order.
    pub episodes: Vec<EpisodeReport>,
    /// Total raw reward collected across all environments.
    pub total_reward: f64,
    /// PPO updates triggered by buffer fills during the merge.
    pub updates: Vec<UpdateStats>,
    /// Per-worker execution telemetry from the collection fan-out.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock duration of the collection fan-out (excludes the merge).
    pub collect_wall: Duration,
}

/// Everything a worker records about one environment step. `raw_obs` is
/// kept so the merge can replay the normalizer updates the frozen-agent
/// fan-out deferred; `next_raw_obs` feeds the bootstrap value when a buffer
/// fill lands on this transition.
struct StepRecord {
    raw_obs: Vec<f64>,
    norm_obs: Vec<f64>,
    action: Vec<f64>,
    log_prob: f64,
    reward: f64,
    value: f64,
    done: bool,
    next_raw_obs: Vec<f64>,
}

struct ChunkOutput {
    records: Vec<StepRecord>,
    episodes: Vec<EpisodeReport>,
}

struct EnvSlot<E> {
    env: E,
    rng: ChaCha8Rng,
    /// Raw observation the next action will see; `None` before first reset.
    obs: Option<Vec<f64>>,
    // Accumulators for the episode in progress (episodes may span rounds).
    ep_reward: f64,
    ep_metric_sum: f64,
    ep_steps: usize,
}

/// Serialized state of one environment slot — everything an `EnvSlot` holds,
/// with the environment flattened through [`SnapshotEnv`] and the RNG
/// through [`RngState`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotState {
    /// Environment state ([`SnapshotEnv::export_env_state`]).
    pub env: Value,
    /// Exact per-slot RNG stream position.
    pub rng: RngState,
    /// Pending raw observation (`None` before the slot's first reset).
    pub obs: Option<Vec<f64>>,
    /// Reward accumulated in the episode in progress.
    pub ep_reward: f64,
    /// Metric sum of the episode in progress.
    pub ep_metric_sum: f64,
    /// Steps taken in the episode in progress.
    pub ep_steps: usize,
}

/// Complete mutable state of a [`VecEnvRunner`], captured at a round
/// boundary. Restoring it into a runner of the same shape reproduces the
/// original's future bit-for-bit (see the determinism contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerState {
    /// Per-environment slot states, in environment order.
    pub slots: Vec<SlotState>,
}

/// Steps `N` independent environment instances in lockstep, fanning the
/// environment steps out over a work-stealing pool and feeding one shared
/// rollout buffer. `N = 1` is serial Algorithm 1.
///
/// # Determinism contract
///
/// For a fixed master seed and `n_envs`, results are **bit-identical for
/// every worker count** (1 thread, 8 threads, or anything else). Three
/// mechanisms make that hold:
///
/// 1. **Per-environment RNG streams.** Environment `i` owns a
///    [`ChaCha8Rng`] seeded from the master seed on stream `i + 1`
///    (stream 0 is left to the caller's master RNG, which only drives PPO
///    minibatch shuffling). No worker ever touches another's stream.
/// 2. **Frozen agent during collection.** Each step runs one batched
///    forward of the round-start agent over every environment's
///    observation ([`PpoAgent::forward_frozen_batch`]), then draws each
///    environment's noise from its own stream in environment order
///    ([`PpoAgent::sample_frozen_row`]). Only the RNG-free `env.step` calls
///    run on the pool, so a trajectory depends only on (agent, env state,
///    env stream) — never on scheduling.
/// 3. **Fixed merge order.** Transitions enter the shared buffer in
///    environment-index order; deferred normalizer updates
///    ([`PpoAgent::absorb_obs`]) and buffer-fill PPO updates replay in that
///    same order on the calling thread.
///
/// The results *do* depend on `n_envs`: it changes the data order, so the
/// contract is stated per configuration.
pub struct VecEnvRunner<E> {
    slots: Vec<EnvSlot<E>>,
    workers: usize,
    /// Observability hub (disabled by default): times the rollout fan-out
    /// and records per-round pool telemetry. Never consumes RNG, never
    /// branches collection.
    recorder: fl_obs::Recorder,
}

impl<E: Environment + Send> VecEnvRunner<E> {
    /// Builds a runner over `envs` instances. Environment `i` draws from
    /// ChaCha8 stream `i + 1` of `master_seed`; `workers` caps the thread
    /// pool (pass 1 to force the serial reference behavior).
    pub fn new(envs: Vec<E>, master_seed: u64, workers: usize) -> Result<Self> {
        if envs.is_empty() {
            return Err(RlError::InvalidArgument(
                "VecEnvRunner needs at least one environment".to_string(),
            ));
        }
        let slots = envs
            .into_iter()
            .enumerate()
            .map(|(i, env)| {
                let mut rng = ChaCha8Rng::seed_from_u64(master_seed);
                rng.set_stream(i as u64 + 1);
                EnvSlot {
                    env,
                    rng,
                    obs: None,
                    ep_reward: 0.0,
                    ep_metric_sum: 0.0,
                    ep_steps: 0,
                }
            })
            .collect();
        Ok(VecEnvRunner {
            slots,
            workers: workers.max(1),
            recorder: fl_obs::Recorder::disabled(),
        })
    }

    /// Attaches an observability recorder for rollout spans and
    /// `pool_round` events. Purely additive: collection behaves
    /// identically with or without it.
    pub fn set_recorder(&mut self, recorder: fl_obs::Recorder) {
        self.recorder = recorder;
    }

    /// Number of environment instances.
    pub fn n_envs(&self) -> usize {
        self.slots.len()
    }

    /// Current worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Changes the worker cap (results are unaffected — that is the point).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Re-derives every slot's RNG stream from `salt` (keeping each slot's
    /// key): slot `i` moves to stream `salt · n_envs + i + 1`, rewound to
    /// position 0. `salt = 0` reproduces the constructor's assignment;
    /// distinct salts never collide across slots. This is the supervisor's
    /// "reseed the offending env streams" escalation — deterministic, so a
    /// resumed run reseeds identically.
    pub fn reseed_streams(&mut self, salt: u64) {
        let n = self.slots.len() as u64;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.rng
                .set_stream(salt.wrapping_mul(n).wrapping_add(i as u64 + 1));
        }
    }

    /// Runs one collection round: every environment advances exactly
    /// `steps_per_env` steps under `agent` as it stood at round start, then
    /// the per-env chunks merge into `buffer` in environment order,
    /// triggering a PPO update (and clear) at every fill. Rewards are scaled
    /// by `reward_scale` on their way into the buffer; diagnostics stay
    /// unscaled.
    ///
    /// For one update per round, size the buffer so that
    /// `n_envs × steps_per_env == buffer_capacity`.
    pub fn train_steps(
        &mut self,
        agent: &mut PpoAgent,
        buffer: &mut RolloutBuffer,
        steps_per_env: usize,
        reward_scale: f64,
        rng: &mut ChaCha8Rng,
    ) -> Result<VecRolloutSummary> {
        if steps_per_env == 0 {
            return Err(RlError::InvalidArgument(
                "steps_per_env must be nonzero".to_string(),
            ));
        }
        if !(reward_scale > 0.0) || !reward_scale.is_finite() {
            return Err(RlError::InvalidArgument(format!(
                "reward_scale must be positive and finite, got {reward_scale}"
            )));
        }

        // Collection only reads the agent; the merge below is the only place
        // it mutates.
        let (chunks, worker_stats, collect_wall) = {
            let _rollout_span = self.recorder.span("rollout");
            self.collect(agent, steps_per_env)?
        };
        if self.recorder.is_enabled() {
            self.recorder
                .emit(pool::round_event("rollout", &worker_stats, collect_wall));
        }

        let mut summary = VecRolloutSummary {
            steps: 0,
            episodes: Vec::new(),
            total_reward: 0.0,
            updates: Vec::new(),
            workers: worker_stats,
            collect_wall,
        };
        // Merge in environment order — the only place the shared agent,
        // normalizer, and buffer mutate, so worker scheduling is invisible.
        for chunk in chunks {
            for record in chunk.records {
                agent.absorb_obs(&record.raw_obs)?;
                summary.total_reward += record.reward;
                summary.steps += 1;
                buffer.push(Transition {
                    obs: record.norm_obs,
                    action: record.action,
                    log_prob: record.log_prob,
                    reward: record.reward * reward_scale,
                    value: record.value,
                    done: record.done,
                })?;
                if buffer.is_full() {
                    let last_value = if record.done {
                        0.0
                    } else {
                        agent.bootstrap_value(&record.next_raw_obs)?
                    };
                    summary.updates.push(agent.update(buffer, last_value, rng)?);
                    buffer.clear();
                }
            }
            summary.episodes.extend(chunk.episodes);
        }
        Ok(summary)
    }

    /// Split-step collection: all environments advance in lockstep. Each
    /// step (1) runs ONE batched frozen forward over every environment's
    /// observation, (2) scatters the Gaussian noise draws serially in
    /// environment order, each from its own stream, (3) fans the RNG-free
    /// `env.step` calls out over the pool, and (4) does episode bookkeeping,
    /// including the immediate post-terminal reset, serially in environment
    /// order. Records accumulate into per-environment chunks, which the
    /// caller merges in environment order.
    fn collect(
        &mut self,
        agent: &PpoAgent,
        steps_per_env: usize,
    ) -> Result<(Vec<ChunkOutput>, Vec<WorkerStats>, Duration)> {
        let start = Instant::now();
        let n = self.slots.len();
        let mut chunks: Vec<ChunkOutput> = (0..n)
            .map(|_| ChunkOutput {
                records: Vec::with_capacity(steps_per_env),
                episodes: Vec::new(),
            })
            .collect();
        // Current raw observations, environment order; a slot's first round
        // starts with a reset.
        let mut obs: Vec<Vec<f64>> = Vec::with_capacity(n);
        for slot in &mut self.slots {
            obs.push(match slot.obs.take() {
                Some(o) => o,
                None => slot.env.reset(&mut slot.rng)?,
            });
        }
        let mut agg: Vec<WorkerStats> = Vec::new();
        for _ in 0..steps_per_env {
            // One frozen forward for the whole fleet.
            let batch = agent.forward_frozen_batch(&obs)?;
            // Scatter: per-env noise draws from per-env streams, env order.
            let mut acts = Vec::with_capacity(n);
            for (i, slot) in self.slots.iter_mut().enumerate() {
                acts.push(agent.sample_frozen_row(&batch, i, &mut slot.rng)?);
            }
            // Environment stepping takes no RNG, so it parallelizes; the
            // pool returns results slot-indexed regardless of scheduling.
            let items: Vec<(&mut E, &[f64])> = self
                .slots
                .iter_mut()
                .map(|s| &mut s.env)
                .zip(acts.iter().map(|a| a.action.as_slice()))
                .collect();
            let run = pool::run_indexed(self.workers, items, |_i, (env, action)| {
                let step = env.step(action)?;
                let metric = env.step_metric().unwrap_or(-step.reward);
                Ok::<(Step, f64), RlError>((step, metric))
            });
            merge_worker_stats(&mut agg, &run.workers);
            for (i, ((slot, act), stepped)) in
                self.slots.iter_mut().zip(acts).zip(run.results).enumerate()
            {
                let (step, metric) = stepped?;
                slot.ep_reward += step.reward;
                slot.ep_metric_sum += metric;
                slot.ep_steps += 1;
                let next_obs = if step.done {
                    chunks[i].episodes.push(EpisodeReport {
                        env: i,
                        total_reward: slot.ep_reward,
                        mean_metric: slot.ep_metric_sum / slot.ep_steps.max(1) as f64,
                        steps: slot.ep_steps,
                    });
                    slot.ep_reward = 0.0;
                    slot.ep_metric_sum = 0.0;
                    slot.ep_steps = 0;
                    slot.env.reset(&mut slot.rng)?
                } else {
                    step.obs.clone()
                };
                chunks[i].records.push(StepRecord {
                    raw_obs: std::mem::replace(&mut obs[i], next_obs),
                    norm_obs: act.norm_obs,
                    action: act.action,
                    log_prob: act.log_prob,
                    reward: step.reward,
                    value: act.value,
                    done: step.done,
                    next_raw_obs: step.obs,
                });
            }
        }
        for (slot, o) in self.slots.iter_mut().zip(obs) {
            slot.obs = Some(o);
        }
        Ok((chunks, agg, start.elapsed()))
    }
}

/// Element-wise accumulation of per-worker telemetry across the per-step
/// pool rounds of a collection, so [`VecRolloutSummary::workers`] reports
/// one aggregate entry per worker.
fn merge_worker_stats(agg: &mut Vec<WorkerStats>, round: &[WorkerStats]) {
    while agg.len() < round.len() {
        agg.push(WorkerStats {
            worker: agg.len(),
            tasks: 0,
            steals: 0,
            busy: Duration::ZERO,
        });
    }
    for w in round {
        let a = &mut agg[w.worker];
        a.tasks += w.tasks;
        a.steals += w.steals;
        a.busy += w.busy;
    }
}

impl<E: SnapshotEnv + Send> VecEnvRunner<E> {
    /// Captures the complete runner state (environments, RNG streams,
    /// pending observations, episode accumulators) for checkpointing. Call
    /// at a round boundary — mid-round there is no consistent state to
    /// capture, by construction.
    pub fn export_state(&self) -> RunnerState {
        RunnerState {
            slots: self
                .slots
                .iter()
                .map(|s| SlotState {
                    env: s.env.export_env_state(),
                    rng: RngState::capture(&s.rng),
                    obs: s.obs.clone(),
                    ep_reward: s.ep_reward,
                    ep_metric_sum: s.ep_metric_sum,
                    ep_steps: s.ep_steps,
                })
                .collect(),
        }
    }

    /// Restores state captured by [`VecEnvRunner::export_state`]. The
    /// runner must have the same number of environments; everything mutable
    /// is overwritten, so the constructor's seed is irrelevant after this
    /// call.
    pub fn import_state(&mut self, state: &RunnerState) -> Result<()> {
        if state.slots.len() != self.slots.len() {
            return Err(RlError::InvalidArgument(format!(
                "runner state has {} env slots, runner has {}",
                state.slots.len(),
                self.slots.len()
            )));
        }
        for (slot, saved) in self.slots.iter_mut().zip(&state.slots) {
            slot.env.import_env_state(&saved.env)?;
            slot.rng = saved
                .rng
                .restore()
                .map_err(|e| RlError::InvalidArgument(e.to_string()))?;
            slot.obs = saved.obs.clone();
            slot.ep_reward = saved.ep_reward;
            slot.ep_metric_sum = saved.ep_metric_sum;
            slot.ep_steps = saved.ep_steps;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::QuadEnv;
    use crate::ppo::PpoConfig;
    use rand::SeedableRng;

    fn agent(rng: &mut ChaCha8Rng) -> PpoAgent {
        PpoAgent::new(
            1,
            1,
            PpoConfig {
                hidden: vec![16],
                buffer_capacity: 128,
                minibatch_size: 64,
                epochs: 4,
                actor_lr: 3e-3,
                critic_lr: 3e-3,
                target_kl: None,
                ..PpoConfig::default()
            },
            rng,
        )
        .unwrap()
    }

    /// A one-environment runner over `episode_len`-step QuadEnv episodes.
    fn one_env(episode_len: u32, seed: u64) -> VecEnvRunner<QuadEnv> {
        VecEnvRunner::new(vec![QuadEnv::new(episode_len)], seed, 1).unwrap()
    }

    #[test]
    fn train_steps_bookkeeping() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut a = agent(&mut rng);
        let mut runner = one_env(10, 0);
        let mut buffer = a.make_buffer().unwrap();
        let summary = runner
            .train_steps(&mut a, &mut buffer, 300, 1.0, &mut rng)
            .unwrap();
        assert_eq!(summary.steps, 300);
        // 300 steps / 10-step episodes, resets inclusive.
        assert_eq!(summary.episodes.len(), 30);
        // 300 / 128 → 2 updates, remainder left in the buffer.
        assert_eq!(summary.updates.len(), 2);
        assert_eq!(buffer.len(), 300 - 2 * 128);
        assert!(summary.total_reward.is_finite());
    }

    #[test]
    fn runner_training_improves_policy() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut a = agent(&mut rng);
        let mut eval_env = QuadEnv::new(16);
        let before = evaluate_mean_reward(&a, &mut eval_env, 20, 16, &mut rng).unwrap();
        let mut runner = one_env(16, 1);
        let mut buffer = a.make_buffer().unwrap();
        // One episode per round, like the fl-ctrl driver: 250 × 16 = 4000
        // steps.
        for _ in 0..250 {
            runner
                .train_steps(&mut a, &mut buffer, 16, 1.0, &mut rng)
                .unwrap();
        }
        let after = evaluate_mean_reward(&a, &mut eval_env, 20, 16, &mut rng).unwrap();
        assert!(
            after > before,
            "no improvement: before={before}, after={after}"
        );
    }

    /// Full snapshot of everything a training round mutates, for exact
    /// cross-thread-count comparison.
    fn vec_train_fingerprint(n_envs: usize, workers: usize) -> (Vec<u64>, Vec<u64>, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut a = agent(&mut rng);
        let mut runner = VecEnvRunner::new(
            (0..n_envs).map(|_| QuadEnv::new(8)).collect::<Vec<_>>(),
            77,
            workers,
        )
        .unwrap();
        let mut buffer = a.make_buffer().unwrap();
        let mut episode_bits = Vec::new();
        let mut updates = 0;
        for _ in 0..4 {
            let summary = runner
                .train_steps(&mut a, &mut buffer, 32, 1.0, &mut rng)
                .unwrap();
            for e in &summary.episodes {
                episode_bits.push(e.total_reward.to_bits());
                episode_bits.push(e.mean_metric.to_bits());
                episode_bits.push(e.env as u64);
            }
            updates += summary.updates.len();
        }
        let params = a
            .policy()
            .mean_net()
            .export_params()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        (episode_bits, params, updates)
    }

    #[test]
    fn vec_rollout_identical_for_any_worker_count() {
        let reference = vec_train_fingerprint(4, 1);
        for workers in [2, 4, 8] {
            assert_eq!(
                vec_train_fingerprint(4, workers),
                reference,
                "workers={workers} diverged from the serial reference"
            );
        }
        assert!(reference.2 > 0, "rounds large enough to trigger updates");
    }

    #[test]
    fn vec_rollout_bookkeeping() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = agent(&mut rng);
        let mut runner =
            VecEnvRunner::new((0..4).map(|_| QuadEnv::new(8)).collect::<Vec<_>>(), 5, 2).unwrap();
        let mut buffer = a.make_buffer().unwrap();
        // 4 envs × 32 steps = 128 = buffer capacity → exactly one update.
        let summary = runner
            .train_steps(&mut a, &mut buffer, 32, 1.0, &mut rng)
            .unwrap();
        assert_eq!(summary.steps, 128);
        assert_eq!(summary.updates.len(), 1);
        assert_eq!(buffer.len(), 0);
        // 8-step episodes: each env completes 32/8 = 4 → 16 total, reported
        // grouped by environment index (the merge order).
        assert_eq!(summary.episodes.len(), 16);
        let envs: Vec<usize> = summary.episodes.iter().map(|e| e.env).collect();
        let mut sorted = envs.clone();
        sorted.sort_unstable();
        assert_eq!(envs, sorted, "episodes must arrive in env order");
        // QuadEnv has no step_metric → mean_metric falls back to -reward.
        for e in &summary.episodes {
            assert!((e.mean_metric + e.total_reward / e.steps as f64).abs() < 1e-12);
        }
        // One `env.step` pool task per env per step.
        let worker_tasks: usize = summary.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(worker_tasks, 4 * 32);
    }

    /// Bookkeeping of the split-step schedule when nothing lines up: 5-step
    /// episodes span 7-step rounds, and the one buffer fill lands inside a
    /// round's merge (after 128 of 3 × 7 × 8 = 168 transitions).
    #[test]
    fn batched_rollout_bookkeeping() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = agent(&mut rng);
        let mut runner =
            VecEnvRunner::new((0..3).map(|_| QuadEnv::new(5)).collect::<Vec<_>>(), 5, 2).unwrap();
        let mut buffer = a.make_buffer().unwrap();
        let (mut steps, mut episodes, mut updates) = (0, 0, 0);
        for round in 1..=8 {
            let summary = runner
                .train_steps(&mut a, &mut buffer, 7, 1.0, &mut rng)
                .unwrap();
            assert_eq!(summary.steps, 3 * 7);
            // Each env completes an episode whenever its running step count
            // crosses a multiple of 5, whatever round it started in.
            let per_env = 7 * round / 5 - 7 * (round - 1) / 5;
            assert_eq!(summary.episodes.len(), 3 * per_env, "round {round}");
            let envs: Vec<usize> = summary.episodes.iter().map(|e| e.env).collect();
            let mut sorted = envs.clone();
            sorted.sort_unstable();
            assert_eq!(
                envs, sorted,
                "round {round}: episodes must arrive in env order"
            );
            for e in &summary.episodes {
                assert_eq!(e.steps, 5, "episode accumulators must carry across rounds");
                assert!((e.mean_metric + e.total_reward / e.steps as f64).abs() < 1e-12);
            }
            // One `env.step` pool task per env per step.
            let worker_tasks: usize = summary.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(worker_tasks, 3 * 7);
            steps += summary.steps;
            episodes += summary.episodes.len();
            updates += summary.updates.len();
        }
        assert_eq!(steps, 168);
        assert_eq!(episodes, 3 * (56 / 5));
        assert_eq!(updates, 1);
        assert_eq!(buffer.len(), 168 - 128);
    }

    #[test]
    fn vec_runner_rejects_bad_arguments() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut a = agent(&mut rng);
        assert!(VecEnvRunner::<QuadEnv>::new(vec![], 0, 1).is_err());
        let mut runner = VecEnvRunner::new(vec![QuadEnv::new(4)], 0, 1).unwrap();
        let mut buffer = a.make_buffer().unwrap();
        assert!(runner
            .train_steps(&mut a, &mut buffer, 0, 1.0, &mut rng)
            .is_err());
        assert!(runner
            .train_steps(&mut a, &mut buffer, 4, 0.0, &mut rng)
            .is_err());
        assert!(runner
            .train_steps(&mut a, &mut buffer, 4, f64::NAN, &mut rng)
            .is_err());
    }

    /// Runs `rounds` collection rounds and fingerprints everything the
    /// round mutates (episode stats and final policy params, as bits).
    fn run_rounds(
        runner: &mut VecEnvRunner<QuadEnv>,
        a: &mut PpoAgent,
        buffer: &mut RolloutBuffer,
        rng: &mut ChaCha8Rng,
        rounds: usize,
    ) -> Vec<u64> {
        let mut bits = Vec::new();
        for _ in 0..rounds {
            let summary = runner.train_steps(a, buffer, 32, 1.0, rng).unwrap();
            for e in &summary.episodes {
                bits.push(e.total_reward.to_bits());
                bits.push(e.mean_metric.to_bits());
                bits.push(e.env as u64);
            }
        }
        bits.extend(
            a.policy()
                .mean_net()
                .export_params()
                .iter()
                .map(|p| p.to_bits()),
        );
        bits
    }

    #[test]
    fn runner_state_roundtrip_continues_bit_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut a = agent(&mut rng);
        let mut runner =
            VecEnvRunner::new((0..4).map(|_| QuadEnv::new(8)).collect::<Vec<_>>(), 99, 2).unwrap();
        let mut buffer = a.make_buffer().unwrap();
        run_rounds(&mut runner, &mut a, &mut buffer, &mut rng, 2);

        // Capture at a round boundary, through the serialized form (the
        // same path a checkpoint takes).
        let state = runner.export_state();
        let json = crate::snapshot::encode_payload(&state).unwrap();
        let restored: RunnerState = crate::snapshot::decode_payload(&json).unwrap();
        assert_eq!(restored, state);
        let mut a2 = a.clone();
        let mut buffer2 = buffer.clone();
        let mut rng2 = rng.clone();

        let reference = run_rounds(&mut runner, &mut a, &mut buffer, &mut rng, 2);

        // Fresh runner with a *different* constructor seed and worker
        // count: import_state must overwrite every bit of mutable state.
        let mut runner2 = VecEnvRunner::new(
            (0..4).map(|_| QuadEnv::new(8)).collect::<Vec<_>>(),
            12345,
            4,
        )
        .unwrap();
        runner2.import_state(&restored).unwrap();
        let resumed = run_rounds(&mut runner2, &mut a2, &mut buffer2, &mut rng2, 2);
        assert_eq!(resumed, reference);
    }

    #[test]
    fn import_state_rejects_wrong_slot_count() {
        let runner3 =
            VecEnvRunner::new((0..3).map(|_| QuadEnv::new(4)).collect::<Vec<_>>(), 0, 1).unwrap();
        let state = runner3.export_state();
        let mut runner2 =
            VecEnvRunner::new((0..2).map(|_| QuadEnv::new(4)).collect::<Vec<_>>(), 0, 1).unwrap();
        assert!(runner2.import_state(&state).is_err());
    }

    #[test]
    fn reseed_streams_zero_matches_constructor() {
        let mut runner =
            VecEnvRunner::new((0..3).map(|_| QuadEnv::new(4)).collect::<Vec<_>>(), 7, 1).unwrap();
        let fresh = runner.export_state();
        // Drain some randomness, then reseed with salt 0: streams rewind to
        // the constructor layout.
        for slot in &mut runner.slots {
            let _ = rand::RngCore::next_u64(&mut slot.rng);
        }
        assert_ne!(runner.export_state(), fresh);
        runner.reseed_streams(0);
        assert_eq!(runner.export_state(), fresh);
        // Distinct salts move every slot somewhere new.
        runner.reseed_streams(1);
        assert_ne!(runner.export_state(), fresh);
    }

    #[test]
    fn evaluation_is_side_effect_free() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = agent(&mut rng);
        let params = a.policy().mean_net().export_params();
        let count = a.obs_norm().count();
        let mut env = QuadEnv::new(5);
        evaluate_mean_reward(&a, &mut env, 5, 5, &mut rng).unwrap();
        assert_eq!(a.policy().mean_net().export_params(), params);
        assert_eq!(a.obs_norm().count(), count);
    }
}
