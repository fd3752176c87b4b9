//! The fleet-sharding determinism contract, tested end to end: shard
//! count ({1, 2, 8, 64}), worker count ({1, 4}), and fault injection may
//! reorder *execution* of a 10⁵-style sharded round, but must never
//! change a single observable bit — round physics, cost series, decided
//! frequencies, or training results. Plus the scale-invariance story: one
//! quantile-pooled broadcast policy trained at small `N` decides for any
//! fleet size, and the fleet decision path (`decide_fleet`, fed a
//! `FleetRound`) decides exactly as the `FlSystem` path (`decide`, fed an
//! `IterationReport`) on the same devices.

use fl_ctrl::{
    build_system, fleet_statics, train_drl, train_drl_parallel, train_drl_parallel_opt,
    CheckpointOptions, ControllerSnapshot, DrlController, EnvConfig, FrequencyController, ObsMode,
    ParallelConfig, PolicyArch, RunOptions, TrainConfig, TrainOutput,
};
use fl_net::synth::Profile;
use fl_rl::{GaussianPolicy, PpoConfig, RunningNorm};
use fl_sim::{
    pooled_obs_dim, pooled_observation, FaultModel, FaultPlan, FlConfig, FlSystem, FleetFaults,
    FleetRound, IterationReport,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn system(n: usize, seed: u64) -> FlSystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    build_system(
        n,
        3,
        Profile::Walking4G,
        1200,
        FlConfig::default(),
        &mut rng,
    )
    .unwrap()
}

/// Small-but-real training configuration for the scale-invariant stack:
/// quantile-pooled observation, broadcast actor, chaos faults.
fn pooled_config(episodes: usize) -> TrainConfig {
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
            faults: Some(FaultModel::chaos(0.2, 0.2, Some(120.0))),
            obs: ObsMode::Pooled,
            ..EnvConfig::default()
        },
        arch: PolicyArch::Broadcast,
        reward_scale: 0.05,
    }
}

/// Runs `rounds` chained faulty rounds at the given shard/worker counts
/// and returns every [`FleetRound`] (start time, duration, energy, tally —
/// the full cost series).
fn run_rounds(
    sys: &FlSystem,
    shards: usize,
    workers: usize,
    plan: Option<&FaultPlan>,
    rounds: u64,
) -> Vec<FleetRound> {
    let mut fleet = sys.fleet().clone();
    fleet.set_shards(shards);
    fleet.set_workers(Some(workers));
    let freqs = fleet.max_freqs();
    let n = fleet.num_devices();
    let mut t = 30.0;
    let mut out = Vec::new();
    for k in 0..rounds {
        let faults = match plan {
            Some(p) => FleetFaults::realize(p, k),
            None => FleetFaults::none(n),
        };
        let r = fleet.run_round(t, &freqs, &faults).unwrap();
        t = r.end_time();
        out.push(r);
    }
    out
}

/// The tentpole contract: the full shard × worker × fault grid produces
/// bit-identical round series — every duration, energy sum, tally, and
/// battery statistic — because the reduction tree's shape is a pure
/// function of the device count.
#[test]
fn shard_worker_fault_grid_is_bit_identical() {
    let sys = system(200, 11);
    let plan = FaultPlan::new(FaultModel::chaos(0.15, 0.2, Some(90.0)), 200, 7).unwrap();
    for faulty in [false, true] {
        let plan = faulty.then_some(&plan);
        let reference = run_rounds(&sys, 1, 1, plan, 4);
        assert_eq!(reference.len(), 4);
        for shards in [2, 8, 64] {
            for workers in [1, 4] {
                assert_eq!(
                    run_rounds(&sys, shards, workers, plan, 4),
                    reference,
                    "shards={shards} workers={workers} faulty={faulty}"
                );
            }
        }
    }
}

/// Golden pooled observation on a pinned 16-device profile, hand-computed.
///
/// With per-device slot bandwidths 1..=16, the sorted values are already
/// 1..=16 and the interpolated quantile at fraction `q` sits at index
/// `15q`: q25 → index 3.75 → 4 + 0.75·(5−4) = 4.75, median → 8.5,
/// q75 → 12.25. All arithmetic is exact in binary floating point
/// (fractions of 1/4), so the assertion is on equality, not tolerance.
#[test]
fn pooled_observation_golden_16_devices() {
    let n = 16;
    let bw: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let delta: Vec<f64> = (1..=n).map(|i| 2.0 * i as f64).collect();
    let gcycles: Vec<f64> = (1..=n).map(|i| 4.0 * i as f64).collect();
    let obs = pooled_observation(&bw, n, 0, &delta, &gcycles, Some(0.5)).unwrap();
    assert_eq!(obs.len(), pooled_obs_dim(0, true));
    let expected: [f64; 16] = [
        // Slot 0 bandwidth quantiles over 1..=16.
        1.0, 4.75, 8.5, 12.25, 16.0, // delta_max quantiles: everything doubles.
        2.0, 9.5, 17.0, 24.5, 32.0, // gcycles quantiles: everything quadruples.
        4.0, 19.0, 34.0, 49.0, 64.0, // Survival tail, passed through verbatim.
        0.5,
    ];
    assert_eq!(obs.len(), expected.len());
    for (i, (&got, &want)) in obs.iter().zip(&expected).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "entry {i}: {got} vs {want}");
    }
}

/// The pooled schema is a function of the device *distribution*, not the
/// device *list*: permuting devices changes no bits, and the width never
/// depends on `N`.
#[test]
fn pooled_observation_is_permutation_invariant_and_n_independent() {
    let n = 16;
    let bw: Vec<f64> = (0..n * 3).map(|i| ((i * 37) % 100) as f64 * 0.25).collect();
    let delta: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.125).collect();
    let gcycles: Vec<f64> = (0..n).map(|i| 5.0 + ((i * 13) % 7) as f64).collect();
    let obs = pooled_observation(&bw, n, 2, &delta, &gcycles, None).unwrap();
    assert_eq!(obs.len(), pooled_obs_dim(2, false));

    // Reverse the device order in every per-device array (bandwidth state
    // is device-major: H+1 contiguous slots per device).
    let mut bw_rev = Vec::with_capacity(bw.len());
    for d in (0..n).rev() {
        bw_rev.extend_from_slice(&bw[d * 3..(d + 1) * 3]);
    }
    let delta_rev: Vec<f64> = delta.iter().rev().copied().collect();
    let gcycles_rev: Vec<f64> = gcycles.iter().rev().copied().collect();
    let rev = pooled_observation(&bw_rev, n, 2, &delta_rev, &gcycles_rev, None).unwrap();
    for (a, b) in obs.iter().zip(&rev) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Width is fixed across fleet sizes.
    for m in [1usize, 2, 5, 33] {
        let bw: Vec<f64> = (0..m * 3).map(|i| i as f64).collect();
        let ones = vec![1.0; m];
        let o = pooled_observation(&bw, m, 2, &ones, &ones, None).unwrap();
        assert_eq!(o.len(), obs.len(), "width changed at N={m}");
    }
}

/// Scale invariance: a pooled broadcast controller trained at N=8 rebinds
/// to a 200-device fleet (`with_fleet_sim`, straight from the
/// struct-of-arrays statics). Driven through `FlSystem` (`decide`, fed an
/// `IterationReport`) and through the fleet (`decide_fleet`, fed a
/// `FleetRound`) it decides identically, before and after a faulty round,
/// so the report's survivor count and the round's survival fraction feed
/// the policy the same tail. The 8-device binding refuses the big fleet.
#[test]
fn fleet_decision_path_matches_system_overlap_and_rebinds() {
    let sys = system(8, 21);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let ctrl = train_drl(&sys, &pooled_config(6), &mut rng)
        .unwrap()
        .controller;

    let big_sys = system(200, 33);
    let mut big_fleet = big_sys.fleet().clone();
    big_fleet.set_shards(3);
    let mut via_sys = ctrl.with_fleet_sim(big_sys.fleet()).unwrap();
    let via_fleet = ctrl.with_fleet_sim(&big_fleet).unwrap();
    let plan = FaultPlan::new(FaultModel::chaos(0.2, 0.2, Some(120.0)), 200, 9).unwrap();
    let mut t = 60.0;
    let mut prev_report: Option<IterationReport> = None;
    let mut prev_round: Option<FleetRound> = None;
    for k in 0..2 {
        let f_a = via_sys
            .decide(k as usize, t, &big_sys, prev_report.as_ref())
            .unwrap();
        let f_b = via_fleet
            .decide_fleet(t, &big_fleet, prev_round.as_ref())
            .unwrap();
        assert_eq!(f_a.len(), 200);
        for (x, y) in f_a.iter().zip(&f_b) {
            assert_eq!(x.to_bits(), y.to_bits(), "round {k}: decisions diverged");
        }
        let faults = plan.faults_at(k);
        let report = big_sys.run_iteration_faulty(t, &f_a, &faults).unwrap();
        let round = big_fleet.run_round(t, &f_b, &faults).unwrap();
        assert!(report.survivors() < 200);
        t = round.end_time();
        prev_report = Some(report);
        prev_round = Some(round);
    }
    // The original 8-device binding must refuse the big fleet outright.
    assert!(ctrl.decide_fleet(60.0, &big_fleet, None).is_err());
}

/// The serve path (`ControllerSnapshot::decide_rows`) and the fleet path
/// (`decide_fleet`) run one decision body. For a broadcast controller
/// rebound to N = 20 000 devices — more device rows than one inference
/// chunk holds — they agree bit for bit, on one-row batches and on a
/// two-row batch whose chunk boundaries fall mid-sample.
#[test]
fn served_and_fleet_decisions_agree_across_inference_chunks() {
    let sys = system(8, 5);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let h = 3;
    let obs_dim = pooled_obs_dim(h, false);
    let statics = fleet_statics(sys.fleet().state(), sys.fleet().config().tau);
    let policy = GaussianPolicy::new_broadcast(obs_dim, statics, &[16], -0.5, &mut rng).unwrap();
    let mut norm = RunningNorm::new(obs_dim, 10.0);
    for k in 0..12 {
        let obs = sys.fleet().observe_pooled(40.0 * k as f64, 10.0, h, None);
        norm.update(&obs.unwrap()).unwrap();
    }
    let mut ctrl = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
    ctrl.obs_mode = ObsMode::Pooled;

    let n = 20_000;
    let big = system(n, 7).fleet().clone();
    let bound = ctrl.with_fleet_sim(&big).unwrap();
    let snap = ControllerSnapshot::new(bound.clone(), big.max_freqs()).unwrap();
    let times = [60.0, 245.5];
    let rows: Vec<Vec<f64>> = times
        .iter()
        .map(|&t| big.observe_pooled(t, 10.0, h, None).unwrap())
        .collect();
    let served = snap.decide_rows(&rows).unwrap();
    for (i, &t) in times.iter().enumerate() {
        let fleet = bound.decide_fleet(t, &big, None).unwrap();
        let single = snap.decide_rows(&rows[i..=i]).unwrap();
        assert_eq!(fleet.len(), n);
        for (d, ((a, b), c)) in served[i].iter().zip(&fleet).zip(&single[0]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {i} device {d}: served vs fleet"
            );
            assert_eq!(
                c.to_bits(),
                b.to_bits(),
                "row {i} device {d}: 1-row vs fleet"
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fl-fleet-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bit-exact fingerprint of a finished training run (per-episode stats as
/// bits plus the fully serialized agent).
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

/// Kill/resume composes with the fleet stack: interrupt a checkpointed
/// pooled-broadcast training run (faults on) mid-way, resume it, and the
/// result is bit-identical to the uninterrupted run — at 1 and 4 workers.
#[test]
fn pooled_broadcast_training_resumes_bit_identically() {
    let sys = system(3, 5);
    let config = pooled_config(12);
    let reference = {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let par = ParallelConfig {
            n_envs: 4,
            workers: 1,
        };
        fingerprint(
            &train_drl_parallel(&sys, &config, &par, &mut rng)
                .unwrap()
                .output,
        )
    };
    assert_eq!(reference.0.len(), 12);
    for workers in [1, 4] {
        let dir = temp_dir("resume");
        let par = ParallelConfig { n_envs: 4, workers };
        let mut last = None;
        // Killed at 50%, then run to completion — checkpoint cadence (4)
        // deliberately misaligned with the kill point (6).
        for stop in [6, usize::MAX] {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut opts = RunOptions {
                checkpoint: Some(CheckpointOptions {
                    dir: dir.clone(),
                    every_episodes: 4,
                    resume: true,
                }),
                ..RunOptions::default()
            };
            if stop != usize::MAX {
                opts.stop_after_episodes = Some(stop);
            }
            let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();
            last = Some(out.output);
        }
        assert_eq!(
            fingerprint(&last.unwrap()),
            reference,
            "workers={workers}: resumed pooled-broadcast run diverged"
        );
    }
}
