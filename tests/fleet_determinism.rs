//! The fleet-sharding determinism contract, tested end to end: shard
//! count ({1, 2, 8, 64}), worker count ({1, 4}), and fault injection may
//! reorder *execution* of a 10⁵-style sharded round, but must never
//! change a single observable bit — round physics, cost series, decided
//! frequencies, or training results. Plus the scale-invariance story: one
//! quantile-pooled broadcast policy trained at small `N` decides for any
//! fleet size, and the fleet decision path (`decide_fleet`, fed a
//! `FleetRound`) decides exactly as the per-device report path (`decide`,
//! fed an `IterationReport`) on the same devices.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{
    fleet_statics, train_drl, ControllerSnapshot, DrlController, FrequencyController, ObsMode,
    PolicyArch, RunOptions, TrainConfig,
};
use fl_rl::{GaussianPolicy, RunningNorm};
use fl_sim::{
    pooled_obs_dim, pooled_observation, FaultModel, FaultPlan, FleetFaults, FleetRound, FleetSim,
    IterationReport,
};
use harness::{assert_rows_agree, chaos, quick_config, system, Knobs, BASE};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Small-but-real training configuration for the scale-invariant stack:
/// quantile-pooled observation, broadcast actor, chaos faults.
fn pooled_config(episodes: usize) -> TrainConfig {
    let mut config = quick_config(episodes, Some(chaos()));
    config.env.obs = ObsMode::Pooled;
    config.arch = PolicyArch::Broadcast;
    config
}

/// Runs `rounds` chained faulty rounds at the given shard/worker counts
/// and returns every [`FleetRound`] (start time, duration, energy, tally —
/// the full cost series).
fn run_rounds(
    sys: &FleetSim,
    shards: usize,
    workers: usize,
    plan: Option<&FaultPlan>,
    rounds: u64,
) -> Vec<FleetRound> {
    let mut fleet = sys.clone();
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
/// function of the device count. Each fleet size is a table of
/// `(shards, workers)` rows checked against its first row; the 10⁵-device
/// table is the fleet-scale 1-vs-64-shard check.
#[test]
fn shard_worker_fault_grid_is_bit_identical() {
    let small: &[(usize, usize)] = &[(1, 1), (2, 1), (2, 4), (8, 1), (8, 4), (64, 1), (64, 4)];
    let large: &[(usize, usize)] = &[(1, 1), (1, 4), (64, 1), (64, 4)];
    for (devices, rounds, rows) in [(200, 4, small), (100_000, 2, large)] {
        let sys = system(devices, 11);
        let model = FaultModel::chaos(0.15, 0.2, Some(90.0));
        let plan = FaultPlan::new(model, devices, 7).unwrap();
        for faulty in [false, true] {
            let plan = faulty.then_some(&plan);
            let (shards, workers) = rows[0];
            let reference = run_rounds(&sys, shards, workers, plan, rounds);
            assert_eq!(reference.len() as u64, rounds);
            for &(shards, workers) in &rows[1..] {
                assert_eq!(
                    run_rounds(&sys, shards, workers, plan, rounds),
                    reference,
                    "devices={devices} shards={shards} workers={workers} faulty={faulty}"
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
/// struct-of-arrays statics). Driven through the report path (`decide`, fed
/// an `IterationReport`) and through the round path (`decide_fleet`, fed a
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
    let mut big_fleet = big_sys.clone();
    big_fleet.set_shards(3);
    let mut via_sys = ctrl.with_fleet_sim(&big_sys).unwrap();
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
    let statics = fleet_statics(sys.state(), sys.config().tau);
    let policy = GaussianPolicy::new_broadcast(obs_dim, statics, &[16], -0.5, &mut rng).unwrap();
    let mut norm = RunningNorm::new(obs_dim, 10.0);
    for k in 0..12 {
        let obs = sys.observe_pooled(40.0 * k as f64, 10.0, h, None);
        norm.update(&obs.unwrap()).unwrap();
    }
    let mut ctrl = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
    ctrl.obs_mode = ObsMode::Pooled;

    let n = 20_000;
    let big = system(n, 7);
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

/// Kill/resume composes with the fleet stack: interrupt a checkpointed
/// pooled-broadcast training run (faults on) mid-way, resume it, and the
/// result is bit-identical to the uninterrupted run — at 1 and 4 workers.
#[test]
fn pooled_broadcast_training_resumes_bit_identically() {
    let sys = system(3, 5);
    // Killed at 50%, then run to completion — checkpoint cadence (4)
    // deliberately misaligned with the kill point (6).
    let killed = |workers| Knobs {
        workers,
        kill_at: &[6],
        ..BASE
    };
    let rows = [BASE, killed(1), killed(4)];
    let run = assert_rows_agree(&sys, &pooled_config(12), &RunOptions::default(), &rows);
    assert_eq!(run.output.episodes.len(), 12);
}
