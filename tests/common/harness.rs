//! The shared determinism harness: one test system, one training config,
//! one temp-dir helper, one bit-exact run fingerprint, one kernel-family
//! guard and one row runner.
//!
//! A determinism test is a table. Each row names the physical knobs a run
//! trains under ([`Knobs`]: worker count, kernel family, environment
//! count, kill points), and every row's [`Fingerprint`] must equal the
//! first row's. A new physical knob adds a field here and rows there, not
//! a suite.
//!
//! Included from each suite via `#[path]` — integration tests are separate
//! crates, so a plain `mod` cannot share this file.

#![allow(dead_code)] // each suite uses a subset of the harness

use fl_ctrl::{
    build_system, train_drl_parallel_opt, CheckpointOptions, EnvConfig, Intervention,
    ParallelConfig, PolicyArch, RunOptions, TrainConfig, TrainOutput,
};
use fl_net::synth::Profile;
pub use fl_nn::KernelKind;
use fl_rl::PpoConfig;
use fl_sim::{FaultModel, FlConfig, FleetSim};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Master seed of every run [`train_under`] makes.
pub const SEED: u64 = 42;

/// A Walking-4G system of `n_devices` devices sampling up to three
/// distinct 1200-slot traces.
pub fn system(n_devices: usize, seed: u64) -> FleetSim {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    build_system(
        n_devices,
        n_devices.min(3),
        Profile::Walking4G,
        1200,
        FlConfig::default(),
        &mut rng,
    )
    .unwrap()
}

/// The fault model the training suites inject: meaningful rates on every
/// channel (dropouts, stragglers, lost uploads, blackouts, the timeout).
pub fn chaos() -> FaultModel {
    FaultModel::chaos(0.2, 0.2, Some(120.0))
}

/// A small-but-real PPO configuration: 8-round episodes, one 16-unit
/// hidden layer, a 64-transition buffer.
pub fn quick_config(episodes: usize, faults: Option<FaultModel>) -> TrainConfig {
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
            faults,
            ..EnvConfig::default()
        },
        arch: PolicyArch::Joint,
        reward_scale: 0.05,
    }
}

/// A fresh, empty directory unique to this process and call.
pub fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fedfreq-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything observable from a finished run, bit-exact: every
/// [`fl_ctrl::EpisodeStats`] field as bits (NaN-safe), the serialized agent
/// (parameters, optimizer moments, normalizers), every supervisor
/// intervention, and the master RNG's next draw (a run that consumed one
/// extra draw anywhere shifts it).
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub episodes: Vec<[u64; 7]>,
    pub agent: String,
    pub interventions: Vec<Intervention>,
    pub rng_next: u64,
}

/// The [`Fingerprint`] of `out`, trained with the master RNG `rng`.
pub fn fingerprint(out: &TrainOutput, rng: &ChaCha8Rng) -> Fingerprint {
    let episodes = out
        .episodes
        .iter()
        .map(|e| {
            [
                e.episode as u64,
                e.mean_cost.to_bits(),
                e.total_reward.to_bits(),
                e.policy_loss.to_bits(),
                e.value_loss.to_bits(),
                e.entropy.to_bits(),
                e.updates_so_far as u64,
            ]
        })
        .collect();
    Fingerprint {
        episodes,
        agent: out.agent.to_json().unwrap(),
        interventions: out.interventions.clone(),
        rng_next: rng.clone().next_u64(),
    }
}

/// The process lock behind [`KernelGuard`]: blocked runs share it, a run
/// that selects the naive family holds it alone.
static KERNEL_LOCK: RwLock<()> = RwLock::new(());

/// Holds a kernel family in effect for its lifetime and restores the
/// default (blocked) family on drop — also when the test panics.
///
/// The family is process-global, so a guard for the naive family is
/// exclusive while blocked guards share the lock: concurrent tests never
/// see a family they did not select, and blocked rows still run in
/// parallel.
pub enum KernelGuard {
    Blocked(RwLockReadGuard<'static, ()>),
    Naive(RwLockWriteGuard<'static, ()>),
}

impl KernelGuard {
    /// Waits for the lock, then puts `kind` in effect.
    pub fn select(kind: KernelKind) -> KernelGuard {
        // A poisoned lock only means another test failed while holding it;
        // its guard restored the default on the way out.
        let guard = match kind {
            KernelKind::Blocked => {
                KernelGuard::Blocked(KERNEL_LOCK.read().unwrap_or_else(|e| e.into_inner()))
            }
            KernelKind::Naive => {
                KernelGuard::Naive(KERNEL_LOCK.write().unwrap_or_else(|e| e.into_inner()))
            }
        };
        fl_nn::set_kernel_kind(kind);
        assert_eq!(fl_nn::kernel_kind(), kind);
        guard
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        if let KernelGuard::Naive(_) = self {
            fl_nn::set_kernel_kind(KernelKind::Blocked);
        }
    }
}

/// The physical knobs of one table row. None of them may change a bit.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Pool width of the rollout fan-out.
    pub workers: usize,
    /// Matmul kernel family the whole run uses.
    pub kernel: KernelKind,
    /// Environment replicas collecting experience (1 is serial
    /// Algorithm 1).
    pub n_envs: usize,
    /// Episode counts after which the run is killed and a fresh call
    /// resumes it from its checkpoints; empty runs once, checkpoint-free.
    pub kill_at: &'static [usize],
    /// Checkpoint cadence (episodes) of a killed run.
    pub every: usize,
}

/// The reference row: one worker, blocked kernels, four environments,
/// never killed.
pub const BASE: Knobs = Knobs {
    workers: 1,
    kernel: KernelKind::Blocked,
    n_envs: 4,
    kill_at: &[],
    every: 4,
};

/// A finished run and the master RNG it left behind.
pub struct Trained {
    pub output: TrainOutput,
    pub rng: ChaCha8Rng,
}

impl Trained {
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(&self.output, &self.rng)
    }
}

/// Trains `config` on `sys` from [`SEED`] under `knobs`, with `opts`
/// (supervision, poisoning, recording) applied to every segment.
pub fn train_under(
    sys: &FleetSim,
    config: &TrainConfig,
    opts: &RunOptions,
    knobs: Knobs,
) -> Trained {
    let _kernel = KernelGuard::select(knobs.kernel);
    let par = ParallelConfig {
        n_envs: knobs.n_envs,
        workers: knobs.workers,
    };
    let dir = (!knobs.kill_at.is_empty()).then(|| temp_dir("ckpt"));
    let mut last = None;
    for stop in knobs.kill_at.iter().copied().map(Some).chain([None]) {
        let mut opts = opts.clone();
        opts.checkpoint = dir.clone().map(|dir| CheckpointOptions {
            dir,
            every_episodes: knobs.every,
            resume: true,
        });
        opts.stop_after_episodes = stop;
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let output = train_drl_parallel_opt(sys, config, &par, &mut rng, &opts)
            .unwrap()
            .output;
        if let Some(stop) = stop {
            assert!(
                output.episodes.len() < config.episodes,
                "{knobs:?}: the segment killed at {stop} ran to completion"
            );
        }
        last = Some(Trained { output, rng });
    }
    last.expect("the final segment always runs")
}

/// Trains under every row of `rows` and asserts each row's fingerprint
/// equals the first row's. Returns the first row's run.
pub fn assert_rows_agree(
    sys: &FleetSim,
    config: &TrainConfig,
    opts: &RunOptions,
    rows: &[Knobs],
) -> Trained {
    let reference = train_under(sys, config, opts, rows[0]);
    let expected = reference.fingerprint();
    for row in &rows[1..] {
        assert_eq!(
            train_under(sys, config, opts, *row).fingerprint(),
            expected,
            "{row:?} diverged from {:?}",
            rows[0]
        );
    }
    reference
}
