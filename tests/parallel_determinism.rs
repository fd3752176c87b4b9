//! The parallel engine's headline guarantee, tested end to end: one master
//! seed, worker counts {1, 2, 4, 8} — every layer (vectorized DRL training,
//! controller comparison, seed sweeps) must produce **bit-identical**
//! results, with thread count changing wall-clock time and nothing else.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{
    compare_controllers, run_parallel_sweep, train_drl_parallel_opt, MaxFreqController,
    ParallelConfig, RunOptions, StaticController,
};
use harness::{assert_rows_agree, quick_config, system, train_under, Knobs, BASE};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

#[test]
fn training_identical_across_worker_matrix() {
    let sys = system(3, 1);
    let rows = WORKER_MATRIX.map(|workers| Knobs { workers, ..BASE });
    let reference = assert_rows_agree(&sys, &quick_config(12, None), &RunOptions::default(), &rows);
    assert_eq!(reference.output.episodes.len(), 12, "12 episodes requested");
}

#[test]
fn trained_controller_final_costs_identical_across_worker_matrix() {
    // Beyond training stats: deploy each trained controller and compare the
    // online evaluation cost series bit for bit.
    let sys = system(3, 2);
    let costs = |workers: usize| -> Vec<u64> {
        let row = Knobs {
            workers,
            n_envs: 2,
            ..BASE
        };
        let trained = train_under(&sys, &quick_config(6, None), &RunOptions::default(), row);
        let runs = compare_controllers(&sys, vec![Box::new(trained.output.controller)], 15, 800.0)
            .unwrap();
        runs[0]
            .ledger
            .cost_series()
            .iter()
            .map(|c| c.to_bits())
            .collect()
    };
    let reference = costs(WORKER_MATRIX[0]);
    for &workers in &WORKER_MATRIX[1..] {
        assert_eq!(
            costs(workers),
            reference,
            "final cost series diverged at workers={workers}"
        );
    }
}

#[test]
fn controller_comparison_matches_serial_reference() {
    let sys = system(3, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let stat = StaticController::new(&sys, 200, 0.1, &mut rng).unwrap();
    let runs = compare_controllers(
        &sys,
        vec![Box::new(MaxFreqController), Box::new(stat.clone())],
        12,
        500.0,
    )
    .unwrap();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].name, "maxfreq");
    assert_eq!(runs[1].name, "static");
    // Serial re-run of the same controllers must match bit for bit.
    let mut maxf = MaxFreqController;
    let serial = fl_ctrl::run_controller(&sys, &mut maxf, 12, 500.0).unwrap();
    assert_eq!(runs[0].ledger.cost_series(), serial.ledger.cost_series());
}

#[test]
fn seed_sweep_order_and_values_invariant_to_workers() {
    // A miniature abl_seeds: train on 5 seeds, each task self-seeded. The
    // sweep must return results in seed order with identical values for
    // every worker count.
    let sys = system(3, 5);
    let sweep = |workers: usize| {
        let seeds: Vec<u64> = (0..5).collect();
        let (results, report) = run_parallel_sweep(workers, seeds, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let par = ParallelConfig {
                n_envs: 2,
                workers: 1,
            };
            let out = train_drl_parallel_opt(
                &sys,
                &quick_config(4, None),
                &par,
                &mut rng,
                &RunOptions::default(),
            )?;
            Ok(out.output.final_mean_cost(2).to_bits())
        })
        .unwrap();
        let tasks: usize = report.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks, 5);
        results
    };
    let reference = sweep(1);
    for &workers in &WORKER_MATRIX[1..] {
        assert_eq!(sweep(workers), reference, "sweep diverged at {workers}");
    }
}
