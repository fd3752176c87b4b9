//! The crash-safe training contract, tested end to end: interrupt a
//! checkpointed training run anywhere — any quartile, any worker count,
//! with or without fault injection — resume it, and the result must be
//! **bit-identical** to the run that was never interrupted: same
//! per-episode stats, same final agent (every parameter, optimizer moment,
//! and normalizer statistic), same controller. Plus the failure half of the
//! story: corrupted checkpoint slots fall back or fail with structured
//! errors, and the NaN-poison supervisor heals a poisoned run without
//! breaking determinism.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{
    train_drl_parallel_opt, CheckpointOptions, CtrlError, DivergenceCause, ParallelConfig,
    RunOptions, SupervisorPolicy, TrainConfig,
};
use fl_rl::snapshot::CheckpointStore;
use harness::{
    assert_rows_agree, chaos, fingerprint, quick_config, system, temp_dir, train_under, Knobs,
    BASE, SEED,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// Trains `episodes` episodes with `n_envs` environments uninterrupted,
/// then again as a chain of processes killed at each of `kill_at` and
/// resumed from checkpoints taken `every` episodes, at 1, 2 and 4 workers,
/// clean and faulty: every chained run must be bit-identical to the
/// uninterrupted (checkpoint-free) reference.
fn assert_resume_is_bit_identical(
    n_envs: usize,
    episodes: usize,
    every: usize,
    kill_at: &'static [usize],
) {
    let sys = system(2, 1);
    let reference = Knobs { n_envs, ..BASE };
    let killed = |workers| Knobs {
        workers,
        kill_at,
        every,
        ..reference
    };
    let rows = [reference, killed(1), killed(2), killed(4)];
    for faults in [None, Some(chaos())] {
        let config = quick_config(episodes, faults);
        let run = assert_rows_agree(&sys, &config, &RunOptions::default(), &rows);
        assert_eq!(run.output.episodes.len(), episodes);
    }
}

/// Kill-at-every-quartile, any worker count, clean and faulty: all
/// bit-identical to the uninterrupted (checkpoint-free) reference.
#[test]
fn parallel_resume_is_bit_identical_across_quartiles_and_workers() {
    // Killed at 25%, 50%, 75%, then run to completion — four processes,
    // one training run.
    assert_resume_is_bit_identical(4, 16, 4, &[4, 8, 12]);
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
        &[3, 6, 9],
    );
}

/// Corrupting the newest checkpoint slot forces resume onto the surviving
/// older slot — and the recomputed run is still bit-identical. Corrupting
/// both slots fails with a structured checksum error, never a panic.
#[test]
fn corrupt_slots_fall_back_then_fail_structured() {
    let sys = system(2, 3);
    let config = quick_config(16, None);
    let par = ParallelConfig {
        n_envs: 4,
        workers: 2,
    };
    let reference = train_under(
        &sys,
        &config,
        &RunOptions::default(),
        Knobs { workers: 2, ..BASE },
    )
    .fingerprint();

    let dir = temp_dir("corrupt");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
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

    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &ckpt_opts(&dir, 4)).unwrap();
    assert_eq!(
        fingerprint(&out.output, &rng),
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
    let sys = system(2, 4);
    let config = quick_config(8, None);
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
    let mut config = quick_config(episodes, None);
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
    let sys = system(2, 5);
    let config = poison_config(12);
    let opts = RunOptions {
        supervisor: Some(SupervisorPolicy::default()),
        poison_update: Some(1),
        ..RunOptions::default()
    };
    for n_envs in [1, 4] {
        let row = |workers| Knobs {
            workers,
            n_envs,
            ..BASE
        };
        let out = assert_rows_agree(&sys, &config, &opts, &[row(1), row(2), row(4)]).output;
        assert_eq!(out.episodes.len(), 12);
        assert_eq!(out.interventions.len(), 1, "{:?}", out.interventions);
        assert_eq!(out.interventions[0].cause, DivergenceCause::NonFinite);
        assert!(out.final_mean_cost(4).is_finite());
        for p in out.agent.policy().mean_net().export_params() {
            assert!(p.is_finite(), "NaN leaked into the healed parameters");
        }
    }
}

/// Supervision composes with resume: kill a poisoned+supervised run after
/// the intervention, resume it, and the result matches the uninterrupted
/// supervised run — interventions and strike bookkeeping included.
#[test]
fn supervised_run_resumes_bit_identically() {
    let sys = system(2, 6);
    let opts = RunOptions {
        supervisor: Some(SupervisorPolicy::default()),
        poison_update: Some(1),
        ..RunOptions::default()
    };
    let reference = Knobs { workers: 2, ..BASE };
    let killed = Knobs {
        kill_at: &[8],
        ..reference
    };
    let run = assert_rows_agree(&sys, &poison_config(12), &opts, &[reference, killed]);
    assert_eq!(run.output.interventions.len(), 1);
}
