//! Ablation — robustness to injected device faults.
//!
//! The paper evaluates controllers on clean physics; real fleets drop out,
//! straggle, and lose uploads. This bench sweeps a grid of dropout and
//! straggler rates (plus the `chaos` preset's upload failures and bandwidth
//! blackouts) and evaluates DRL, Heuristic, and Static on the **same pinned
//! fault realization** per grid point, so any divergence is the controller,
//! not the luck of the draw. The DRL agent is trained once on clean
//! physics — the sweep measures how gracefully each approach degrades when
//! deployment conditions violate the training assumptions.
//!
//! Grid points fan out across the work-stealing pool; `FL_WORKERS` only
//! moves the `timing:` line, never the table (cache status goes to stderr
//! for the same reason — CI diffs stdout between worker counts).
//!
//! Usage:
//! `cargo run --release -p fl-bench --bin abl_faults [episodes] [iters] [--ckpt DIR] [--kill-after FRAC] [--obs DIR]`
//!
//! `--ckpt DIR` bypasses the controller cache and trains with crash-safe
//! checkpoints under `DIR`, resuming from any previous run there.
//! `--kill-after FRAC` stops training cleanly after that fraction of the
//! episode budget (stderr notice only, empty stdout) so CI can drill the
//! kill-and-resume path. `--obs DIR` records the fl-obs event stream
//! (training events when `--ckpt` is active, sweep telemetry always) to
//! `DIR/run.jsonl`.

use fl_bench::args::ParsedArgs;
use fl_bench::{dump_json_obs, obs_recorder, workers_from_env_obs, Scenario};
use fl_ctrl::{
    compare_controllers_faulty, CheckpointOptions, FrequencyController, HeuristicController,
    ParallelConfig, RunOptions, StaticController,
};
use fl_sim::{FaultModel, FaultPlan, OutcomeTally};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// (dropout probability, straggler probability) sweep grid. The clean
/// origin anchors the comparison; the rest stress each axis and the corner.
const GRID: [(f64, f64); 6] = [
    (0.0, 0.0),
    (0.1, 0.0),
    (0.3, 0.0),
    (0.0, 0.3),
    (0.1, 0.3),
    (0.3, 0.3),
];

/// Straggler-capped rounds stop making progress past this wall-clock bound.
const TIMEOUT_S: f64 = 45.0;

fn main() {
    let cli = ParsedArgs::parse(&["--ckpt", "--obs", "--kill-after"], &[]);
    let ckpt: Option<PathBuf> = cli.path("--ckpt");
    let obs_dir: Option<PathBuf> = cli.path("--obs");
    let kill_after: Option<f64> = cli.fraction_01("--kill-after");
    let episodes: usize = cli.positional_or(0, 400);
    let iterations: usize = cli.positional_or(1, 150);
    let rec = obs_recorder(obs_dir.as_deref(), "run.jsonl");
    let workers = workers_from_env_obs(&rec);

    let scenario = Scenario::testbed();
    let mut sys = scenario.build();
    sys.set_recorder(&rec);

    // The kill half of a crash drill must not print the header either —
    // its stdout stays empty so the resumed run diffs clean.
    let (drl, cached) = if let Some(dir) = &ckpt {
        // Checkpointed training bypasses the controller cache: the
        // checkpoint directory *is* the resumable state.
        let opts = RunOptions {
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                every_episodes: (episodes / 8).max(1),
                resume: true,
            }),
            stop_after_episodes: kill_after.map(|f| ((episodes as f64 * f) as usize).max(1)),
            obs: rec.clone(),
            ..RunOptions::default()
        };
        let out = scenario
            .train_with(&sys, episodes, &opts)
            .expect("checkpointed training");
        if out.episodes.len() < episodes {
            // Recorder::note mirrors to stderr, keeping stdout empty.
            rec.note(&format!(
                "abl_faults: training killed after {} of {episodes} episodes; \
                 checkpoint saved in {} — re-run with the same --ckpt \
                 (without --kill-after) to resume",
                out.episodes.len(),
                dir.display()
            ));
            if let Err(e) = rec.finish() {
                eprintln!("fl-obs: could not finalize run.jsonl: {e}");
            }
            return;
        }
        (out.controller, false)
    } else {
        let (drl, cached, _) = scenario.train_cached(
            &sys,
            &scenario.train_config(episodes),
            &ParallelConfig::SERIAL,
        );
        (drl, cached)
    };
    println!(
        "abl_faults: N={} walking traces, lambda={}, timeout={TIMEOUT_S}s, {iterations} iters/point",
        sys.num_devices(),
        sys.config().lambda
    );
    // Stderr: the cache hits on the second run of a worker-count diff.
    rec.note(&format!("DRL controller ready (cache hit: {cached})"));
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xFA17);
    let stat = StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static");

    // One task per grid point. Every input the closure touches is either
    // cloned per point or derived from the point index, so the sweep is
    // order- and thread-count-invariant.
    let (per_point, report) =
        fl_ctrl::run_parallel_sweep(workers, (0..GRID.len()).collect::<Vec<usize>>(), |_, g| {
            let (p_drop, p_strag) = GRID[g];
            let model = if p_drop == 0.0 && p_strag == 0.0 {
                FaultModel::none()
            } else {
                FaultModel::chaos(p_drop, p_strag, Some(TIMEOUT_S))
            };
            // A per-point seed pins the realization: every controller at
            // this grid point faces the identical fault schedule.
            let plan =
                FaultPlan::new(model, sys.num_devices(), scenario.seed ^ (0xFA0 + g as u64))?;
            let controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
                Box::new(drl.clone()),
                Box::new(HeuristicController::default()),
                Box::new(stat.clone()),
            ];
            let runs =
                compare_controllers_faulty(&sys, controllers, iterations, 200.0, Some(&plan))?;
            let tally = runs[0].ledger.outcome_tally();
            Ok((
                runs.iter()
                    .map(|r| (r.name.clone(), r.ledger.mean_cost()))
                    .collect::<Vec<(String, f64)>>(),
                tally,
            ))
        })
        .expect("fault sweep");

    println!(
        "\n{:<8} {:<8} {:>9} {:>10} {:>9}   outcomes (ok/strag/drop/fail)",
        "dropout", "straggle", "DRL", "Heuristic", "Static"
    );
    let mut results = Vec::new();
    for (g, (costs, tally)) in per_point.iter().enumerate() {
        let (p_drop, p_strag) = GRID[g];
        let cost_of = |name: &str| {
            costs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<8} {:<8} {:>9.3} {:>10.3} {:>9.3}   {}/{}/{}/{}",
            p_drop,
            p_strag,
            cost_of("drl"),
            cost_of("heuristic"),
            cost_of("static"),
            tally.completed,
            tally.straggled,
            tally.dropped,
            tally.failed,
        );
        results.push(serde_json::json!({
            "dropout": p_drop,
            "straggler": p_strag,
            "costs": costs.iter().map(|(n, c)| serde_json::json!({"name": n, "mean_cost": c})).collect::<Vec<_>>(),
            "outcomes": tally_json(tally),
        }));
    }

    // Degradation relative to each controller's own clean baseline.
    let clean = &per_point[0].0;
    println!("\ncost inflation vs clean (same controller, ×):");
    for (g, (costs, _)) in per_point.iter().enumerate().skip(1) {
        let (p_drop, p_strag) = GRID[g];
        print!("  drop={p_drop} strag={p_strag}:");
        for ((name, c), (_, c0)) in costs.iter().zip(clean) {
            print!("  {name}={:.2}x", c / c0);
        }
        println!();
    }

    println!("timing: {}", report.timing_line());
    if rec.is_enabled() {
        rec.emit(report.obs_event("fault_sweep"));
    }
    dump_json_obs(
        &rec,
        "abl_faults.json",
        &serde_json::json!({
            "episodes": episodes,
            "iterations": iterations,
            "timeout_s": TIMEOUT_S,
            "grid": results,
        }),
    );
    if let Err(e) = rec.finish() {
        eprintln!("fl-obs: could not finalize run.jsonl: {e}");
    }
}

fn tally_json(t: &OutcomeTally) -> serde_json::Value {
    serde_json::json!({
        "completed": t.completed,
        "straggled": t.straggled,
        "dropped": t.dropped,
        "failed": t.failed,
    })
}
