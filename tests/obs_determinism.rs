//! The observability contract, tested end to end.
//!
//! 1. **Recording is invisible**: training with an enabled recorder is
//!    bit-identical to training with the disabled one — same episode
//!    stats, same final agent, same master-RNG position — at any worker
//!    count, with or without fault injection. Observability never
//!    consumes RNG and never branches training.
//! 2. **Deterministic events are invariant**: the det projection of the
//!    event log (det-only, `wall` stripped, deduped by `(ev, key)`,
//!    sorted) is byte-identical across worker counts and across a
//!    kill-at-50%/resume boundary, including supervisor interventions.
//! 3. The metric primitives (histogram buckets, quantile estimation)
//!    match hand-computed values.

use fl_ctrl::{
    build_system, train_drl_parallel_opt, CheckpointOptions, EnvConfig, ParallelConfig, RunOptions,
    SupervisorPolicy, TrainConfig, TrainOutput,
};
use fl_net::synth::Profile;
use fl_obs::Recorder;
use fl_rl::PpoConfig;
use fl_sim::{FaultModel, FlConfig, FlSystem};
use rand::{RngCore, SeedableRng};
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
    let dir = std::env::temp_dir().join(format!("fl-obs-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything observable from a finished run, bit-exact, plus the
/// master-RNG position after training (one draw) — a recorder that
/// consumed RNG anywhere would shift it.
fn fingerprint(out: &TrainOutput, rng: &mut ChaCha8Rng) -> (Vec<[u64; 6]>, String, u64) {
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
    (eps, out.agent.to_json().unwrap(), rng.next_u64())
}

/// Recording on vs off: training with `n_envs` environments is
/// bit-identical at every count in `worker_counts`, with and without fault
/// injection.
fn assert_recording_is_invisible(sys_seed: u64, n_envs: usize, worker_counts: &[usize]) {
    let sys = system(sys_seed);
    for faults in [false, true] {
        let config = quick_config(12, faults);
        let run = |workers: usize, obs: Recorder| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let par = ParallelConfig { n_envs, workers };
            let opts = RunOptions {
                obs,
                ..RunOptions::default()
            };
            let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts)
                .unwrap()
                .output;
            fingerprint(&out, &mut rng)
        };
        let reference = run(1, Recorder::disabled());
        for &workers in worker_counts {
            assert_eq!(
                run(workers, Recorder::in_memory()),
                reference,
                "faults={faults} n_envs={n_envs} workers={workers}: \
                 recorder changed training"
            );
        }
    }
}

/// Recording on vs off: bit-identical training with one environment (the
/// serial case), with and without fault injection.
#[test]
fn serial_recording_is_invisible_to_training() {
    assert_recording_is_invisible(1, ParallelConfig::SERIAL.n_envs, &[1]);
}

/// Recording on vs off: bit-identical training with four environments, at
/// 1 and 4 workers, with and without fault injection.
#[test]
fn parallel_recording_is_invisible_to_training() {
    assert_recording_is_invisible(2, 4, &[1, 4]);
}

/// The det projection of the event stream is identical at every worker
/// count — including a supervisor intervention healing a poisoned update.
#[test]
fn det_projection_is_worker_count_invariant() {
    let sys = system(3);
    let mut config = quick_config(12, false);
    // Smaller buffer → one PPO update per round, so the poisoned second
    // update (and its intervention event) lands early in the run.
    config.ppo.buffer_capacity = 32;
    config.ppo.minibatch_size = 16;
    let project = |workers: usize| -> Vec<String> {
        let rec = Recorder::in_memory();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let par = ParallelConfig { n_envs: 4, workers };
        let opts = RunOptions {
            supervisor: Some(SupervisorPolicy::default()),
            poison_update: Some(1),
            obs: rec.clone(),
            ..RunOptions::default()
        };
        let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts)
            .unwrap()
            .output;
        assert_eq!(out.interventions.len(), 1, "poison must trigger a strike");
        fl_obs::det_projection(&rec.events_text()).unwrap()
    };
    let reference = project(1);
    // The stream contains every deterministic event family.
    for family in [
        "\"ev\":\"ppo_update\"",
        "\"ev\":\"episode\"",
        "\"ev\":\"fl_round\"",
        "\"ev\":\"intervention\"",
    ] {
        assert!(
            reference.iter().any(|l| l.contains(family)),
            "missing {family} in det projection"
        );
    }
    assert_eq!(project(4), reference, "det projection drifted with workers");
}

/// Kills a recorded `n_envs`-environment run after `kill_at` episodes and
/// resumes it with the same file-backed sink, checkpointing every `every`
/// episodes and switching from 2 to 4 workers across the crash: the det
/// projection must equal the uninterrupted run's, byte for byte (resume
/// overwrites replayed events instead of duplicating them), and every line
/// of the on-disk log must validate against the schema.
fn assert_det_projection_survives_kill(
    sys_seed: u64,
    rng_seed: u64,
    n_envs: usize,
    episodes: usize,
    faults: bool,
    kill_at: usize,
    every: usize,
) {
    let sys = system(sys_seed);
    let config = quick_config(episodes, faults);

    // Uninterrupted reference (in-memory recorder).
    let reference = {
        let rec = Recorder::in_memory();
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let par = ParallelConfig { n_envs, workers: 2 };
        let opts = RunOptions {
            obs: rec.clone(),
            ..RunOptions::default()
        };
        train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();
        fl_obs::det_projection(&rec.events_text()).unwrap()
    };

    // Killed, then resumed — two processes, one JSONL file, different
    // worker counts on each side of the crash.
    let dir = temp_dir("resume");
    let log = dir.join("events.jsonl");
    for (stop, workers) in [(Some(kill_at), 2usize), (None, 4)] {
        let rec = Recorder::to_file(&log).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let par = ParallelConfig { n_envs, workers };
        let opts = RunOptions {
            checkpoint: Some(CheckpointOptions {
                dir: dir.join("ckpt"),
                every_episodes: every,
                resume: true,
            }),
            stop_after_episodes: stop,
            obs: rec.clone(),
            ..RunOptions::default()
        };
        train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();
        rec.finish().unwrap();
    }
    let text = std::fs::read_to_string(&log).unwrap();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        fl_obs::validate_line(line).unwrap();
    }
    let resumed = fl_obs::det_projection(&text).unwrap();
    assert_eq!(
        resumed, reference,
        "n_envs={n_envs}: kill/resume changed the deterministic event stream"
    );
}

/// A four-env faulty run killed at 50% (episode 8 of 16) keeps its det
/// projection across the resume.
#[test]
fn det_projection_survives_kill_and_resume() {
    assert_det_projection_survives_kill(4, 21, 4, 16, true, 8, 4);
}

/// One environment (the serial case) keeps its det projection too, with a
/// checkpoint cadence misaligned with the kill point: the resumed run
/// replays episodes 3–4 and must overwrite, not duplicate, their events.
#[test]
fn serial_det_projection_survives_kill_and_resume() {
    assert_det_projection_survives_kill(5, 13, ParallelConfig::SERIAL.n_envs, 10, false, 5, 3);
}

/// Histogram bucket boundaries: a value exactly on an upper edge lands in
/// that bucket (`v <= bound`), everything past the last edge overflows
/// into a bucket that reports the last finite edge.
#[test]
fn histogram_buckets_hand_computed() {
    let rec = Recorder::in_memory();
    let h = rec.histogram("t", &[1.0, 2.0, 4.0]);
    for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
        h.observe(v);
    }
    // Buckets: <=1 gets {0.5, 1.0}; <=2 gets {1.5, 2.0}; <=4 gets
    // {3.0, 4.0}; overflow gets {9.0} → counts [2, 2, 2, 1].
    assert_eq!(h.count(), 7);
    // Median: rank 3.5 of 7 → second bucket (cumulative 2..4), 1.5 of its
    // 2 ranks past the lower edge → 1 + 0.75 × (2 − 1) = 1.75. Any other
    // bucket assignment of the edge values 1.0/2.0/4.0 would move this.
    assert!(
        (h.quantile(0.5) - 1.75).abs() < 1e-12,
        "{}",
        h.quantile(0.5)
    );
    // q=1 lands in the overflow bucket → last finite edge.
    assert!((h.quantile(1.0) - 4.0).abs() < 1e-12);

    // A single observation exactly on the first edge: inclusive upper
    // bound means q(1) interpolates to 1.0, not 2.0.
    let edge = rec.histogram("edge", &[1.0, 2.0]);
    edge.observe(1.0);
    assert!((edge.quantile(1.0) - 1.0).abs() < 1e-12);

    // Disabled recorders hand out inert histograms.
    let off = Recorder::disabled().histogram("t", &[1.0]);
    off.observe(3.0);
    assert_eq!(off.count(), 0);
    assert!(off.quantile(0.5).is_nan());
}

/// [`fl_obs::histogram_quantile`] against hand-computed values.
#[test]
fn histogram_quantiles_hand_computed() {
    // counts [2, 2, 2, 1] over edges [1, 2, 4]: 7 observations.
    let q = |p: f64| fl_obs::histogram_quantile(&[1.0, 2.0, 4.0], &[2, 2, 2, 1], p);
    // rank 0 → start of the first bucket (implicit lower edge 0).
    assert!((q(0.0) - 0.0).abs() < 1e-12);
    // Median as in the bucket test above.
    assert!((q(0.5) - 1.75).abs() < 1e-12, "{}", q(0.5));
    // q=0.25: rank 1.75 of 7 → first bucket, 1.75 of its 2 ranks past
    // 0 → 0.875.
    assert!((q(0.25) - 0.875).abs() < 1e-12, "{}", q(0.25));
    // Anything needing the overflow bucket returns the last finite edge.
    assert!((q(1.0) - 4.0).abs() < 1e-12);
    // Empty histogram → NaN.
    assert!(fl_obs::histogram_quantile(&[1.0], &[0, 0], 0.5).is_nan());
}

/// Trace events (schema v2) are physical: interleaving them anywhere in
/// a log leaves the deterministic projection byte-identical, and the
/// versioned validator accepts them while the v1 allowlist does not.
#[test]
fn trace_events_do_not_perturb_the_det_projection() {
    use fl_obs::trace::TraceRecord;
    use fl_obs::Event;

    let det_events = |rec: &Recorder| {
        rec.emit(Event::det("episode", "ep:1").f("mean_cost", 1.5));
        rec.emit(Event::det("fl_round", "round:1:1").u("completed", 2));
    };
    let trace_event = |attempt: u64| {
        TraceRecord {
            trace_id: "feedc0de12345678".to_string(),
            attempt,
            op: "decide".to_string(),
            outcome: "ok".to_string(),
            shed_stage: None,
            seq: Some(1),
            stages_us: [
                ("queue_wait".to_string(), 4.0),
                ("inference".to_string(), 90.0),
            ]
            .into_iter()
            .collect(),
            total_us: 101.0,
        }
        .into_event()
    };

    // Reference: deterministic events only.
    let plain = Recorder::in_memory();
    det_events(&plain);
    let reference = fl_obs::det_projection(&plain.events_text()).unwrap();
    assert_eq!(reference.len(), 2);

    // Same det events with trace events woven before, between, and after.
    let traced = Recorder::in_memory();
    traced.emit(trace_event(0));
    det_events(&traced);
    traced.emit(trace_event(1));
    let text = traced.events_text();
    assert_eq!(
        fl_obs::det_projection(&text).unwrap(),
        reference,
        "physical trace events leaked into the det projection"
    );

    // Every line of the traced log passes the v2 schema; the trace lines
    // are exactly what the v1 allowlist rejects.
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        fl_obs::validate_line_versioned(line, fl_obs::SCHEMA_VERSION).unwrap();
        let v1 = fl_obs::validate_line_versioned(line, 1);
        if line.contains("\"ev\":\"trace\"") {
            assert!(v1.is_err(), "v1 must not know the trace kind: {line}");
        } else {
            v1.unwrap();
        }
    }
}

/// Exact-sample quantiles (type-7 linear interpolation) against
/// hand-computed values.
#[test]
fn sample_quantiles_hand_computed() {
    let vals = [1.0, 2.0, 3.0, 4.0];
    assert!((fl_obs::quantile_sorted(&vals, 0.0) - 1.0).abs() < 1e-12);
    // pos = 0.5 × 3 = 1.5 → halfway between the 2nd and 3rd samples.
    assert!((fl_obs::quantile_sorted(&vals, 0.5) - 2.5).abs() < 1e-12);
    assert!((fl_obs::quantile_sorted(&vals, 1.0) - 4.0).abs() < 1e-12);
    // The 3 gaps span [0,1] in thirds: q(1/3) is the second sample.
    assert!((fl_obs::quantile_sorted(&vals, 1.0 / 3.0) - 2.0).abs() < 1e-9);
    assert!(fl_obs::quantile_sorted(&[], 0.5).is_nan());
    assert!((fl_obs::quantile_sorted(&[7.0], 0.9) - 7.0).abs() < 1e-12);
}
