//! The crash-safe training contract, tested end to end: interrupt a
//! checkpointed training run anywhere — any quartile, any worker count,
//! with or without fault injection — resume it, and the result must be
//! **bit-identical** to the run that was never interrupted: same
//! per-episode stats, same final agent (every parameter, optimizer moment,
//! and normalizer statistic), same controller. Plus the failure half of the
//! story: corrupted checkpoint slots fall back or fail with structured
//! errors, and the NaN-poison supervisor heals a poisoned run without
//! breaking determinism.

use fl_ctrl::{
    build_system, train_drl_parallel, train_drl_parallel_opt, CheckpointOptions, CtrlError,
    DivergenceCause, EnvConfig, ParallelConfig, RunOptions, SupervisorPolicy, TrainConfig,
    TrainOutput,
};
use fl_net::synth::Profile;
use fl_rl::snapshot::CheckpointStore;
use fl_rl::PpoConfig;
use fl_sim::{FaultModel, FlConfig, FlSystem};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

fn quick_config(episodes: usize, faults: bool) -> TrainConfig {
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
            faults: faults.then(|| FaultModel::chaos(0.2, 0.2, Some(120.0))),
            ..EnvConfig::default()
        },
        arch: fl_ctrl::PolicyArch::Joint,
        reward_scale: 0.05,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fl-resume-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ckpt_opts(dir: &std::path::Path, every: usize) -> RunOptions {
    RunOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.to_path_buf(),
            every_episodes: every,
            resume: true,
        }),
        ..RunOptions::default()
    }
}

/// Everything observable from a finished run, bit-exact: every
/// [`fl_ctrl::EpisodeStats`] field as bits (NaN-safe) plus the complete
/// serialized agent (parameters, optimizer moments, normalizer counts).
fn fingerprint(out: &TrainOutput) -> (Vec<[u64; 6]>, String) {
    let eps = out
        .episodes
        .iter()
        .map(|e| {
            [
                e.episode as u64,
                e.mean_cost.to_bits(),
                e.total_reward.to_bits(),
                e.policy_loss.to_bits(),
                e.value_loss.to_bits(),
                e.updates_so_far as u64,
            ]
        })
        .collect();
    (eps, out.agent.to_json().unwrap())
}

/// Runs training to completion in chained processes: each run stops
/// cleanly after its quota in `stops` (simulating a kill between rounds),
/// the next resumes from disk. Returns the final fingerprint.
fn chained(
    sys: &FlSystem,
    config: &TrainConfig,
    par: ParallelConfig,
    every: usize,
    stops: &[usize],
) -> (Vec<[u64; 6]>, String) {
    let dir = temp_dir("chain");
    let mut last = None;
    for (i, &stop) in stops.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut opts = ckpt_opts(&dir, every);
        if stop != usize::MAX {
            opts.stop_after_episodes = Some(stop);
        }
        let out = train_drl_parallel_opt(sys, config, &par, &mut rng, &opts).unwrap();
        if stop != usize::MAX {
            assert!(
                out.output.episodes.len() < config.episodes,
                "segment {i} should have been interrupted"
            );
        }
        last = Some(out.output);
    }
    fingerprint(&last.expect("at least one segment"))
}

/// Trains `episodes` episodes with `n_envs` environments uninterrupted,
/// then again as a chain of processes killed at each of `stops` and resumed
/// from checkpoints taken `every` episodes, at 1, 2 and 4 workers, clean
/// and faulty: every chained run must be bit-identical to the
/// uninterrupted (checkpoint-free) reference.
fn assert_resume_is_bit_identical(n_envs: usize, episodes: usize, every: usize, stops: &[usize]) {
    let sys = system(1);
    for faults in [false, true] {
        let config = quick_config(episodes, faults);
        let reference = {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let par = ParallelConfig { n_envs, workers: 1 };
            fingerprint(
                &train_drl_parallel(&sys, &config, &par, &mut rng)
                    .unwrap()
                    .output,
            )
        };
        assert_eq!(reference.0.len(), episodes);
        for workers in [1, 2, 4] {
            let par = ParallelConfig { n_envs, workers };
            let resumed = chained(&sys, &config, par, every, stops);
            assert_eq!(
                resumed, reference,
                "faults={faults} n_envs={n_envs} workers={workers}: \
                 resumed run diverged from reference"
            );
        }
    }
}

/// Kill-at-every-quartile, any worker count, clean and faulty: all
/// bit-identical to the uninterrupted (checkpoint-free) reference.
#[test]
fn parallel_resume_is_bit_identical_across_quartiles_and_workers() {
    // Killed at 25%, 50%, 75%, then run to completion — four processes,
    // one training run.
    assert_resume_is_bit_identical(4, 16, 4, &[4, 8, 12, usize::MAX]);
}

/// One environment (serial Algorithm 1) honors the same contract,
/// including a checkpoint cadence deliberately misaligned with the kill
/// points (resume recomputes forward from an earlier checkpoint).
#[test]
fn serial_resume_is_bit_identical() {
    assert_resume_is_bit_identical(
        ParallelConfig::SERIAL.n_envs,
        12,
        2, // misaligned with the stops at 3/6/9
        &[3, 6, 9, usize::MAX],
    );
}

/// Corrupting the newest checkpoint slot forces resume onto the surviving
/// older slot — and the recomputed run is still bit-identical. Corrupting
/// both slots fails with a structured checksum error, never a panic.
#[test]
fn corrupt_slots_fall_back_then_fail_structured() {
    let sys = system(3);
    let config = quick_config(16, false);
    let par = ParallelConfig {
        n_envs: 4,
        workers: 2,
    };
    let reference = {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        fingerprint(
            &train_drl_parallel(&sys, &config, &par, &mut rng)
                .unwrap()
                .output,
        )
    };

    let dir = temp_dir("corrupt");
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut opts = ckpt_opts(&dir, 4);
    opts.stop_after_episodes = Some(8);
    train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();

    // Two checkpoints exist (episodes 4 and 8). Corrupt the newest, chosen
    // by decoding each slot's sequence number.
    let store = CheckpointStore::new(&dir).unwrap();
    let newest = store
        .slot_paths()
        .into_iter()
        .max_by_key(|p| {
            let bytes = std::fs::read(p).unwrap();
            fl_rl::snapshot::decode_frame(&bytes).unwrap().0
        })
        .unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &ckpt_opts(&dir, 4)).unwrap();
    assert_eq!(
        fingerprint(&out.output),
        reference,
        "fallback to the surviving slot must still converge to the reference"
    );

    // Now corrupt both slots: structured error, no panic, no silent fresh
    // restart.
    for p in store.slot_paths() {
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let err = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &ckpt_opts(&dir, 4))
        .expect_err("corrupt checkpoints must not be silently ignored");
    assert!(
        matches!(
            err,
            CtrlError::Snapshot(fl_rl::snapshot::SnapshotError::BadChecksum)
        ),
        "got {err:?}"
    );
}

/// Resuming under a different configuration or fan-out is refused with a
/// structured error instead of silently diverging.
#[test]
fn resume_guards_config_and_shape() {
    let sys = system(4);
    let config = quick_config(8, false);
    let par = ParallelConfig {
        n_envs: 4,
        workers: 2,
    };
    let dir = temp_dir("guard");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut opts = ckpt_opts(&dir, 4);
    opts.stop_after_episodes = Some(4);
    train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();

    // Different hyperparameters → digest mismatch.
    let mut other = config.clone();
    other.ppo.actor_lr *= 2.0;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    assert!(matches!(
        train_drl_parallel_opt(&sys, &other, &par, &mut rng, &ckpt_opts(&dir, 4)),
        Err(CtrlError::InvalidArgument(_))
    ));

    // Different n_envs → shape mismatch.
    let par8 = ParallelConfig {
        n_envs: 8,
        workers: 2,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    assert!(matches!(
        train_drl_parallel_opt(&sys, &config, &par8, &mut rng, &ckpt_opts(&dir, 4)),
        Err(CtrlError::InvalidArgument(_))
    ));

    // One-env resume of a four-env checkpoint → shape mismatch.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    assert!(matches!(
        train_drl_parallel_opt(
            &sys,
            &config,
            &ParallelConfig::SERIAL,
            &mut rng,
            &ckpt_opts(&dir, 4)
        ),
        Err(CtrlError::InvalidArgument(_))
    ));

    // A checkpoint from the retired serial driver (`n_envs = 0`, no runner
    // state) is refused by the same guard, never a panic.
    let (_, payload) = CheckpointStore::new(&dir)
        .unwrap()
        .load_latest()
        .unwrap()
        .unwrap();
    let mut state: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    let serde_json::Value::Object(fields) = &mut state else {
        panic!("a training-state payload is a JSON object");
    };
    fields.insert("n_envs".to_string(), serde_json::Value::Number(0.0));
    fields.insert("runner".to_string(), serde_json::Value::Null);
    let serial_dir = temp_dir("serial-ckpt");
    CheckpointStore::new(&serial_dir)
        .unwrap()
        .save(serde_json::to_string(&state).unwrap().as_bytes())
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    match train_drl_parallel_opt(
        &sys,
        &config,
        &ParallelConfig::SERIAL,
        &mut rng,
        &ckpt_opts(&serial_dir, 4),
    ) {
        Err(CtrlError::InvalidArgument(msg)) => assert!(msg.contains("n_envs=0"), "{msg}"),
        other => panic!("serial-driver checkpoint must be refused, got {other:?}"),
    }
}

fn poison_config(episodes: usize) -> TrainConfig {
    let mut config = quick_config(episodes, false);
    // Smaller buffer → one PPO update every 4 episodes, so the poisoned
    // second update lands early in the run.
    config.ppo.buffer_capacity = 32;
    config.ppo.minibatch_size = 16;
    config
}

/// The self-healing supervisor: one poisoned gradient step produces one
/// rollback intervention, the run completes with finite diagnostics, and
/// the healed run is still bit-identical across worker counts — with one
/// environment (the serial case) and with four.
#[test]
fn supervisor_heals_nan_poisoned_run() {
    let sys = system(5);
    let config = poison_config(12);
    let opts = RunOptions {
        supervisor: Some(SupervisorPolicy::default()),
        poison_update: Some(1),
        ..RunOptions::default()
    };
    for n_envs in [1, 4] {
        let run = |workers| {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let par = ParallelConfig { n_envs, workers };
            let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts)
                .unwrap()
                .output;
            assert_eq!(out.episodes.len(), 12);
            assert_eq!(out.interventions.len(), 1, "{:?}", out.interventions);
            assert_eq!(out.interventions[0].cause, DivergenceCause::NonFinite);
            assert!(out.final_mean_cost(4).is_finite());
            for p in out.agent.policy().mean_net().export_params() {
                assert!(p.is_finite(), "NaN leaked into the healed parameters");
            }
            fingerprint(&out)
        };
        let reference = run(1);
        assert_eq!(run(2), reference, "n_envs={n_envs}");
        assert_eq!(run(4), reference, "n_envs={n_envs}");
    }
}

/// Supervision composes with resume: kill a poisoned+supervised run after
/// the intervention, resume it, and the result matches the uninterrupted
/// supervised run — interventions and strike bookkeeping included.
#[test]
fn supervised_run_resumes_bit_identically() {
    let sys = system(6);
    let config = poison_config(12);
    let base = RunOptions {
        supervisor: Some(SupervisorPolicy::default()),
        poison_update: Some(1),
        ..RunOptions::default()
    };
    let par = ParallelConfig {
        n_envs: 4,
        workers: 2,
    };
    let reference = {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &base)
            .unwrap()
            .output;
        (fingerprint(&out), out.interventions.clone())
    };
    assert_eq!(reference.1.len(), 1);

    let dir = temp_dir("sup-resume");
    let mut last = None;
    for stop in [8, usize::MAX] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut opts = ckpt_opts(&dir, 4);
        opts.supervisor = base.supervisor;
        opts.poison_update = base.poison_update;
        if stop != usize::MAX {
            opts.stop_after_episodes = Some(stop);
        }
        last = Some(
            train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts)
                .unwrap()
                .output,
        );
    }
    let resumed = last.unwrap();
    assert_eq!(
        (fingerprint(&resumed), resumed.interventions.clone()),
        reference
    );
}
