//! The fault layer's determinism contract, tested end to end: fault-injected
//! DRL training and evaluation must be **bit-identical** across worker counts
//! {1, 2, 4} — dropouts, stragglers, upload failures, and blackout windows
//! all land on the same devices at the same iterations no matter how the
//! rollout work is scheduled. And `FaultModel::none()` must be *inert*: a
//! config carrying it trains to bit-for-bit the same controller as one with
//! no fault model at all.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{run_controller_faulty, RunOptions};
use fl_sim::{FaultModel, FaultPlan, OutcomeTally};
use harness::{assert_rows_agree, quick_config, system, train_under, Knobs, BASE};

const WORKER_MATRIX: [usize; 3] = [1, 2, 4];

/// The chaos model used throughout: meaningful rates on every fault channel
/// so the test exercises dropouts, stragglers, lost uploads, blackouts, and
/// the timeout cutoff at once.
fn chaos() -> FaultModel {
    FaultModel::chaos(0.15, 0.2, Some(60.0))
}

#[test]
fn fault_training_identical_across_worker_matrix() {
    let sys = system(3, 1);
    let rows = WORKER_MATRIX.map(|workers| Knobs { workers, ..BASE });
    let reference = assert_rows_agree(
        &sys,
        &quick_config(12, Some(chaos())),
        &RunOptions::default(),
        &rows,
    );
    assert_eq!(reference.output.episodes.len(), 12, "12 episodes requested");
}

#[test]
fn fault_evaluation_identical_across_worker_matrix() {
    // Beyond training stats: deploy each trained controller under a pinned
    // chaos schedule and compare the cost series *and* the per-device
    // outcome tallies bit for bit.
    let sys = system(3, 2);
    let mut per_workers: Vec<(Vec<u64>, OutcomeTally)> = Vec::new();
    for &workers in &WORKER_MATRIX {
        let row = Knobs {
            workers,
            n_envs: 2,
            ..BASE
        };
        let config = quick_config(6, Some(chaos()));
        let mut ctrl = train_under(&sys, &config, &RunOptions::default(), row)
            .output
            .controller;
        let plan = FaultPlan::new(chaos(), sys.num_devices(), 99).unwrap();
        let run = run_controller_faulty(&sys, &mut ctrl, 15, 800.0, Some(&plan)).unwrap();
        let bits: Vec<u64> = run
            .ledger
            .cost_series()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        per_workers.push((bits, run.ledger.outcome_tally()));
    }
    let chaos_hit = per_workers[0].1;
    assert!(
        chaos_hit.dropped + chaos_hit.failed + chaos_hit.straggled > 0,
        "chaos schedule should actually perturb the evaluation: {chaos_hit:?}"
    );
    for (i, candidate) in per_workers.iter().enumerate().skip(1) {
        assert_eq!(
            candidate, &per_workers[0],
            "fault-injected evaluation diverged at workers={}",
            WORKER_MATRIX[i]
        );
    }
}

#[test]
fn none_model_training_matches_fault_free() {
    // `FaultModel::none()` must not consume RNG, widen observations, or
    // otherwise leave a trace: training with it is bit-identical to training
    // with no fault model configured at all.
    let sys = system(3, 3);
    let (row, opts) = (Knobs { workers: 2, ..BASE }, RunOptions::default());
    let with_none = train_under(
        &sys,
        &quick_config(12, Some(FaultModel::none())),
        &opts,
        row,
    );
    let without = train_under(&sys, &quick_config(12, None), &opts, row);
    assert_eq!(
        with_none.fingerprint(),
        without.fingerprint(),
        "FaultModel::none() changed the training trajectory"
    );
}
