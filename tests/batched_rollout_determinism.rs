//! Batched-rollout determinism suite (integration tier).
//!
//! `VecEnvRunner` collects with one split-step schedule: every step stacks
//! all live observations into one `[n_envs x obs]` matrix, runs a single
//! frozen forward, draws each environment's noise from its own stream in
//! environment order, and fans the RNG-free env steps out across the pool.
//! The bit-exactness contract says that batching is *physical*, like the
//! worker count or the kernel family: it may change wall-clock, never bits.
//!
//! The reference is the per-environment schedule, kept here as a test
//! oracle: each environment's whole chunk runs alone, one 1-row forward per
//! step, and the chunks merge in environment order. This suite proves the
//! two agree end to end:
//!
//! - multi-round training with PPO updates on the FL environment, with
//!   buffer fills inside a round and episodes spanning rounds, matches the
//!   oracle at every worker count, under both kernel families, with and
//!   without fault injection;
//! - a run killed after rounds of one schedule and resumed from serialized
//!   state under the other still matches the uninterrupted run bit for bit:
//!   both consume every per-env RNG stream at the same positions, so the
//!   serialized streams line up at the boundary.

use fl_ctrl::{build_system, EnvConfig, FlFreqEnv};
use fl_net::synth::Profile;
use fl_nn::KernelKind;
use fl_rl::runner::{RunnerState, SlotState, VecEnvRunner, VecRolloutSummary};
use fl_rl::snapshot::RngState;
use fl_rl::{
    Environment, PpoAgent, PpoConfig, RolloutBuffer, SnapshotEnv, Transition, UpdateStats,
};
use fl_sim::{FaultModel, FlConfig, FlSystem};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Serializes tests that touch the process-global kernel kind.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock_global() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed; the global state is
    // still safe to reset, so don't cascade the panic.
    GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const N_ENVS: usize = 4;
const REWARD_SCALE: f64 = 0.05;

fn system(seed: u64) -> FlSystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    build_system(
        2,
        2,
        Profile::Walking4G,
        1200,
        FlConfig::default(),
        &mut rng,
    )
    .unwrap()
}

fn fl_envs(sys: &FlSystem, faults: bool) -> Vec<FlFreqEnv> {
    let cfg = EnvConfig {
        episode_len: 8,
        history_len: 3,
        faults: faults.then(|| FaultModel::chaos(0.2, 0.2, Some(120.0))),
        ..EnvConfig::default()
    };
    (0..N_ENVS)
        .map(|_| FlFreqEnv::new(sys.clone(), cfg).unwrap())
        .collect()
}

fn agent(env: &FlFreqEnv, rng: &mut ChaCha8Rng) -> PpoAgent {
    let config = PpoConfig {
        hidden: vec![16],
        buffer_capacity: 64,
        minibatch_size: 32,
        epochs: 4,
        actor_lr: 1e-3,
        critic_lr: 3e-3,
        target_kl: None,
        ..PpoConfig::default()
    };
    PpoAgent::new(env.obs_dim(), env.action_dim(), config, rng).unwrap()
}

/// Bit-exact fingerprint of one collection round: every episode report,
/// the raw reward total and every PPO update's diagnostics.
#[derive(Debug, PartialEq)]
struct Round {
    steps: usize,
    total_reward: u64,
    episodes: Vec<[u64; 4]>,
    updates: Vec<UpdateStats>,
}

impl From<VecRolloutSummary> for Round {
    fn from(s: VecRolloutSummary) -> Self {
        Round {
            steps: s.steps,
            total_reward: s.total_reward.to_bits(),
            episodes: s
                .episodes
                .iter()
                .map(|e| {
                    [
                        e.env as u64,
                        e.total_reward.to_bits(),
                        e.mean_metric.to_bits(),
                        e.steps as u64,
                    ]
                })
                .collect(),
            updates: s.updates,
        }
    }
}

/// One environment of the per-env oracle: the same state a runner slot
/// holds, so it converts to and from [`SlotState`] losslessly.
struct Slot {
    env: FlFreqEnv,
    rng: ChaCha8Rng,
    obs: Option<Vec<f64>>,
    ep_reward: f64,
    ep_metric_sum: f64,
    ep_steps: usize,
}

/// What the oracle records about one step, mirroring the runner's merge
/// inputs.
struct Record {
    raw_obs: Vec<f64>,
    norm_obs: Vec<f64>,
    action: Vec<f64>,
    log_prob: f64,
    reward: f64,
    value: f64,
    done: bool,
    next_raw_obs: Vec<f64>,
}

/// The per-environment rollout schedule: environment `i` draws from
/// ChaCha8 stream `i + 1` of the master seed (the runner's layout) and runs
/// its whole chunk before environment `i + 1` starts.
struct PerEnvRollout {
    slots: Vec<Slot>,
}

impl PerEnvRollout {
    fn new(envs: Vec<FlFreqEnv>, master_seed: u64) -> Self {
        let slots = envs
            .into_iter()
            .enumerate()
            .map(|(i, env)| {
                let mut rng = ChaCha8Rng::seed_from_u64(master_seed);
                rng.set_stream(i as u64 + 1);
                Slot {
                    env,
                    rng,
                    obs: None,
                    ep_reward: 0.0,
                    ep_metric_sum: 0.0,
                    ep_steps: 0,
                }
            })
            .collect();
        PerEnvRollout { slots }
    }

    fn export_state(&self) -> RunnerState {
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

    fn from_state(envs: Vec<FlFreqEnv>, state: &RunnerState) -> Self {
        assert_eq!(envs.len(), state.slots.len());
        let slots = envs
            .into_iter()
            .zip(&state.slots)
            .map(|(mut env, saved)| {
                env.import_env_state(&saved.env).unwrap();
                Slot {
                    env,
                    rng: saved.rng.restore().unwrap(),
                    obs: saved.obs.clone(),
                    ep_reward: saved.ep_reward,
                    ep_metric_sum: saved.ep_metric_sum,
                    ep_steps: saved.ep_steps,
                }
            })
            .collect();
        PerEnvRollout { slots }
    }

    /// One collection round: every environment runs `steps_per_env` steps
    /// under the round-start agent, then the chunks merge into `buffer` in
    /// environment order with a PPO update at every fill.
    fn round(
        &mut self,
        agent: &mut PpoAgent,
        buffer: &mut RolloutBuffer,
        steps_per_env: usize,
        rng: &mut ChaCha8Rng,
    ) -> Round {
        let mut records = Vec::new();
        let mut episodes = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let mut obs = match slot.obs.take() {
                Some(o) => o,
                None => slot.env.reset(&mut slot.rng).unwrap(),
            };
            for _ in 0..steps_per_env {
                let batch = agent.forward_frozen_batch(&[obs.as_slice()]).unwrap();
                let act = agent.sample_frozen_row(&batch, 0, &mut slot.rng).unwrap();
                let step = slot.env.step(&act.action).unwrap();
                let metric = slot.env.step_metric().unwrap_or(-step.reward);
                slot.ep_reward += step.reward;
                slot.ep_metric_sum += metric;
                slot.ep_steps += 1;
                let next_obs = if step.done {
                    episodes.push([
                        i as u64,
                        slot.ep_reward.to_bits(),
                        (slot.ep_metric_sum / slot.ep_steps as f64).to_bits(),
                        slot.ep_steps as u64,
                    ]);
                    slot.ep_reward = 0.0;
                    slot.ep_metric_sum = 0.0;
                    slot.ep_steps = 0;
                    slot.env.reset(&mut slot.rng).unwrap()
                } else {
                    step.obs.clone()
                };
                records.push(Record {
                    raw_obs: std::mem::replace(&mut obs, next_obs),
                    norm_obs: act.norm_obs,
                    action: act.action,
                    log_prob: act.log_prob,
                    reward: step.reward,
                    value: act.value,
                    done: step.done,
                    next_raw_obs: step.obs,
                });
            }
            slot.obs = Some(obs);
        }

        let mut total_reward = 0.0;
        let mut updates = Vec::new();
        for r in &records {
            agent.absorb_obs(&r.raw_obs).unwrap();
            total_reward += r.reward;
            buffer
                .push(Transition {
                    obs: r.norm_obs.clone(),
                    action: r.action.clone(),
                    log_prob: r.log_prob,
                    reward: r.reward * REWARD_SCALE,
                    value: r.value,
                    done: r.done,
                })
                .unwrap();
            if buffer.is_full() {
                let last_value = if r.done {
                    0.0
                } else {
                    agent.bootstrap_value(&r.next_raw_obs).unwrap()
                };
                updates.push(agent.update(buffer, last_value, rng).unwrap());
                buffer.clear();
            }
        }
        Round {
            steps: records.len(),
            total_reward: total_reward.to_bits(),
            episodes,
            updates,
        }
    }
}

/// Which schedule collects a run's rounds.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    PerEnv,
    Batched { workers: usize },
}

/// Per-round fingerprints plus the fully serialized final agent.
type RunFingerprint = (Vec<Round>, String);

/// Trains `rounds` rounds of `steps_per_env` steps under `schedule`.
fn train(
    sys: &FlSystem,
    faults: bool,
    schedule: Schedule,
    rounds: usize,
    steps_per_env: usize,
) -> RunFingerprint {
    let envs = fl_envs(sys, faults);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut agent = agent(&envs[0], &mut rng);
    let mut buffer = agent.make_buffer().unwrap();
    let mut log = Vec::with_capacity(rounds);
    match schedule {
        Schedule::PerEnv => {
            let mut oracle = PerEnvRollout::new(envs, 7);
            for _ in 0..rounds {
                log.push(oracle.round(&mut agent, &mut buffer, steps_per_env, &mut rng));
            }
        }
        Schedule::Batched { workers } => {
            let mut runner = VecEnvRunner::new(envs, 7, workers).unwrap();
            for _ in 0..rounds {
                let summary = runner
                    .train_steps(
                        &mut agent,
                        &mut buffer,
                        steps_per_env,
                        REWARD_SCALE,
                        &mut rng,
                    )
                    .unwrap();
                log.push(summary.into());
            }
        }
    }
    (log, agent.to_json().unwrap())
}

/// The headline contract: multi-round PPO training produces bit-identical
/// episode reports, update diagnostics and final agent whether the rollout
/// runs per environment or batched, at every worker count, under both
/// kernel families, with and without fault injection. 12 steps per env
/// against a 64-transition buffer puts fills inside rounds and leaves
/// transitions in the buffer across round boundaries.
#[test]
fn training_is_bit_identical_across_rollout_modes() {
    assert!(fl_nn::naive_kernels_available());
    let _guard = lock_global();
    let before = fl_nn::kernel_kind();
    let sys = system(1);
    for faults in [false, true] {
        assert_eq!(
            fl_nn::set_kernel_kind(KernelKind::Blocked),
            KernelKind::Blocked
        );
        let reference = train(&sys, faults, Schedule::PerEnv, 8, 12);
        let updates: usize = reference.0.iter().map(|r| r.updates.len()).sum();
        assert_eq!(updates, 8 * N_ENVS * 12 / 64, "faults={faults}");
        assert!(reference.0.iter().all(|r| !r.episodes.is_empty()));
        for (kind, schedule) in [
            (KernelKind::Blocked, Schedule::Batched { workers: 1 }),
            (KernelKind::Blocked, Schedule::Batched { workers: 4 }),
            (KernelKind::Naive, Schedule::PerEnv),
            (KernelKind::Naive, Schedule::Batched { workers: 1 }),
            (KernelKind::Naive, Schedule::Batched { workers: 4 }),
        ] {
            assert_eq!(fl_nn::set_kernel_kind(kind), kind);
            let got = train(&sys, faults, schedule, 8, 12);
            assert_eq!(
                got, reference,
                "faults={faults} {kind:?} {schedule:?} diverged from blocked/per-env"
            );
        }
    }
    fl_nn::set_kernel_kind(before);
}

/// Everything a kill/resume boundary carries, serialized through JSON.
struct Checkpoint {
    agent: String,
    runner: String,
    rng: RngState,
}

/// Schedule-switch composes with crash-safe resume: run the first rounds
/// under one schedule, serialize agent, runner state and master RNG, then
/// finish the run from that checkpoint under the other schedule. Both
/// directions match the uninterrupted batched reference bit for bit.
#[test]
fn resume_across_rollout_mode_switch_is_bit_identical() {
    let _guard = lock_global();
    let before = fl_nn::kernel_kind();
    assert_eq!(
        fl_nn::set_kernel_kind(KernelKind::Blocked),
        KernelKind::Blocked
    );
    let sys = system(2);
    // 16 steps x 4 envs = one full buffer per round, so a round boundary
    // leaves the buffer empty: the checkpoint holds everything.
    let (rounds, kill_at, steps) = (6, 3, 16);
    let reference = train(&sys, false, Schedule::Batched { workers: 2 }, rounds, steps);

    for (first, second) in [
        (Schedule::PerEnv, Schedule::Batched { workers: 2 }),
        (Schedule::Batched { workers: 2 }, Schedule::PerEnv),
    ] {
        // First process: `kill_at` rounds, then checkpoint.
        let envs = fl_envs(&sys, false);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut agent = agent(&envs[0], &mut rng);
        let mut buffer = agent.make_buffer().unwrap();
        let mut log = Vec::with_capacity(rounds);
        let state = match first {
            Schedule::PerEnv => {
                let mut oracle = PerEnvRollout::new(envs, 7);
                for _ in 0..kill_at {
                    log.push(oracle.round(&mut agent, &mut buffer, steps, &mut rng));
                }
                oracle.export_state()
            }
            Schedule::Batched { workers } => {
                let mut runner = VecEnvRunner::new(envs, 7, workers).unwrap();
                for _ in 0..kill_at {
                    let summary = runner
                        .train_steps(&mut agent, &mut buffer, steps, REWARD_SCALE, &mut rng)
                        .unwrap();
                    log.push(summary.into());
                }
                runner.export_state()
            }
        };
        assert!(
            buffer.is_empty(),
            "round boundary must leave the buffer empty"
        );
        let ckpt = Checkpoint {
            agent: agent.to_json().unwrap(),
            runner: serde_json::to_string(&state).unwrap(),
            rng: RngState::capture(&rng),
        };
        drop((agent, rng, buffer));

        // Second process: restore everything from the checkpoint alone.
        let mut agent = PpoAgent::from_json(&ckpt.agent).unwrap();
        let mut rng = ckpt.rng.restore().unwrap();
        let mut buffer = agent.make_buffer().unwrap();
        let state: RunnerState = serde_json::from_str(&ckpt.runner).unwrap();
        let envs = fl_envs(&sys, false);
        match second {
            Schedule::PerEnv => {
                let mut oracle = PerEnvRollout::from_state(envs, &state);
                for _ in kill_at..rounds {
                    log.push(oracle.round(&mut agent, &mut buffer, steps, &mut rng));
                }
            }
            Schedule::Batched { workers } => {
                // A different constructor seed: the import must overwrite it.
                let mut runner = VecEnvRunner::new(envs, 999, workers).unwrap();
                runner.import_state(&state).unwrap();
                for _ in kill_at..rounds {
                    let summary = runner
                        .train_steps(&mut agent, &mut buffer, steps, REWARD_SCALE, &mut rng)
                        .unwrap();
                    log.push(summary.into());
                }
            }
        }
        assert_eq!(
            (log, agent.to_json().unwrap()),
            reference,
            "{first:?} -> {second:?} across a kill/resume boundary changed the run"
        );
    }
    fl_nn::set_kernel_kind(before);
}
