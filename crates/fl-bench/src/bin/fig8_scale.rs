//! Figure 8 — scalability: per-iteration system cost with N = 50 devices,
//! plus the fleet-scale grid mode.
//!
//! Paper setting: 50 devices each randomly selecting one of 5 walking
//! datasets, λ = 0.1, everything else as the testbed. Paper result: DRL's
//! per-iteration cost almost always lowest (avg 11.2) vs heuristic (14.3)
//! and static (17.3).
//!
//! Usage: `cargo run --release -p fl-bench --bin fig8_scale [episodes] [iters] [--obs DIR]`
//!
//! `--obs DIR` records the full fl-obs event stream of the (parallel)
//! training run to `DIR/run.jsonl`. Recording bypasses the controller
//! cache — the telemetry of a cache hit would be empty.
//!
//! ## Grid mode — `--grid [episodes]`
//!
//! Trains one quantile-pooled broadcast controller at N = 50, then rebinds
//! it across the fleet grid (10³…10⁵ devices; add the 10⁶ case with
//! `FLEET_GRID_FULL=1`) and drives each fleet through the sharded
//! [`fl_sim::FleetSim`] engine. Per-round cost, duration, and a CRC-32 of
//! the decided frequency bits print with full precision; wall-clock and
//! peak-RSS lines are prefixed `timing:` so CI can diff the deterministic
//! remainder across shard counts (`FLEET_SHARDS`, default 8) — the output
//! modulo `timing:` lines is identical at 1 and 64 shards, by contract.

use fl_bench::{
    dump_json_obs, fleet_perf, obs_recorder, print_relative, print_round_worker_stats,
    print_summary_table, workers_from_env, workers_from_env_obs, Scenario,
};
use fl_ctrl::{
    compare_controllers, FrequencyController, HeuristicController, MaxFreqController,
    StaticController,
};
use fl_ctrl::{ParallelConfig, RunOptions};
use fl_sim::FleetRound;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// CRC-32 over the little-endian bit patterns of the decided frequencies:
/// a compact witness that two runs decided *exactly* the same actions.
fn freq_digest(freqs: &[f64]) -> u32 {
    let mut bytes = Vec::with_capacity(freqs.len() * 8);
    for f in freqs {
        bytes.extend_from_slice(&f.to_le_bytes());
    }
    fl_rl::snapshot::crc32(&bytes)
}

/// The fleet-scale grid: one scale-invariant controller, many fleet sizes.
fn run_grid(episodes: usize) {
    let scenario = Scenario::scale50();
    let shards: usize = std::env::var("FLEET_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let grid = if std::env::var("FLEET_GRID_FULL").is_ok() {
        fleet_perf::full_grid()
    } else {
        fleet_perf::default_grid()
    };
    println!(
        "fig8-grid: scenario={} | one broadcast controller trained at N={}, \
         rebound across {} fleet sizes",
        scenario.name,
        scenario.n_devices,
        grid.len()
    );
    let sys = scenario.build();
    let config = scenario.train_config_pooled(episodes);
    let t0 = std::time::Instant::now();
    let (ctrl, cached, _) = scenario.train_cached(&sys, &config, &ParallelConfig::SERIAL);
    println!(
        "timing: controller ready in {:.1?} (cache hit: {cached}, shards={shards}, workers={})",
        t0.elapsed(),
        workers_from_env()
    );
    for (devices, rounds) in grid {
        let mut fleet = scenario.build_fleet(devices);
        fleet.set_shards(shards);
        let fc = ctrl
            .with_fleet_sim(&fleet)
            .expect("broadcast controller rebinds to any fleet size");
        let case_t0 = std::time::Instant::now();
        let mut t = 60.0;
        let mut prev: Option<FleetRound> = None;
        for k in 0..rounds {
            let freqs = fc
                .decide_fleet(t, &fleet, prev.as_ref())
                .expect("fleet decision");
            let round = fleet.run_round_benign(t, &freqs).expect("fleet round");
            println!(
                "grid devices={devices} round={k} cost={:.17e} duration={:.17e} \
                 freq_crc32={:08x}",
                round.cost(scenario.fl.lambda),
                round.duration,
                freq_digest(&freqs)
            );
            t = round.end_time();
            prev = Some(round);
        }
        let elapsed = case_t0.elapsed().as_secs_f64();
        println!(
            "timing: devices={devices} rounds={rounds} {:.2} rounds/s, peak RSS {:.1} MiB",
            rounds as f64 / elapsed.max(1e-9),
            fleet_perf::peak_rss_mib()
        );
    }
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut obs_dir: Option<std::path::PathBuf> = None;
    let mut grid_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--obs" => {
                obs_dir = Some(std::path::PathBuf::from(
                    args.next().expect("--obs needs a directory"),
                ))
            }
            "--grid" => grid_mode = true,
            _ => positional.push(a),
        }
    }
    if grid_mode {
        let episodes: usize = positional
            .first()
            .and_then(|s| s.parse().ok())
            .unwrap_or(40);
        run_grid(episodes);
        return;
    }
    let episodes: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let iterations: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    let scenario = Scenario::scale50();
    let rec = obs_recorder(obs_dir.as_deref(), "run.jsonl");
    let mut sys = scenario.build();
    sys.set_recorder(&rec);
    println!(
        "fig8: scenario={} N={} lambda={} | training {episodes} episodes, evaluating {iterations} iterations",
        scenario.name,
        sys.num_devices(),
        sys.config().lambda
    );

    // N=50 training dominates this figure's wall clock: collect rollouts
    // with the vectorized engine. `n_envs` is pinned (it is part of the
    // result); `FL_WORKERS` only changes speed.
    let par = ParallelConfig {
        n_envs: 4,
        workers: workers_from_env_obs(&rec),
    };
    let t0 = std::time::Instant::now();
    let (drl, cached, rounds) = if rec.is_enabled() {
        // Recording bypasses the controller cache: the point of `--obs` is
        // the training telemetry, which a cache hit would skip entirely.
        let opts = RunOptions {
            obs: rec.clone(),
            ..RunOptions::default()
        };
        let out = scenario
            .train_parallel_with(&sys, episodes, &par, &opts)
            .expect("training configuration is valid");
        (out.output.controller, false, Some(out.rounds))
    } else {
        scenario.train_cached(&sys, &scenario.train_config(episodes), &par)
    };
    println!(
        "DRL controller ready in {:.1?} (cache hit: {cached}, n_envs={}, workers={})",
        t0.elapsed(),
        par.n_envs,
        par.workers
    );
    if let Some(rounds) = rounds {
        print_round_worker_stats("rollout workers", &rounds);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xEA1);
    let stat =
        StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static controller construction");
    // The per-iteration oracle is O(grid × N × bisection × trace-walk); at
    // N=50 it is still tractable but slow — include it only when asked.
    let include_oracle = std::env::var("FIG8_ORACLE").is_ok();
    let mut controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
        Box::new(drl),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(MaxFreqController),
    ];
    if include_oracle {
        controllers.push(Box::new(fl_ctrl::OracleController::default()));
    }

    let t1 = std::time::Instant::now();
    let runs =
        compare_controllers(&sys, controllers, iterations, 200.0).expect("controller evaluation");
    println!("evaluation finished in {:.1?}", t1.elapsed());

    print_summary_table("Fig. 8: N=50 averages", &runs);
    print_relative(&runs);

    // The per-iteration cost series the figure plots (first 50 iterations
    // shown; full series in the JSON dump).
    println!("\nper-iteration system cost (first 50):");
    println!(
        "{:>5} {}",
        "iter",
        runs.iter()
            .map(|r| format!("{:>10}", r.name))
            .collect::<String>()
    );
    let series: Vec<Vec<f64>> = runs.iter().map(|r| r.ledger.cost_series()).collect();
    for k in 0..50.min(iterations) {
        print!("{k:>5} ");
        for s in &series {
            print!("{:>10.2}", s[k]);
        }
        println!();
    }

    let json = serde_json::json!({
        "figure": "fig8",
        "episodes": episodes,
        "iterations": iterations,
        "summary": runs.iter().map(|r| {
            let (c, t, e) = r.summary();
            serde_json::json!({"name": r.name, "mean_cost": c, "mean_time": t, "mean_energy": e})
        }).collect::<Vec<_>>(),
        "cost_series": runs.iter().map(|r| serde_json::json!({
            "name": r.name,
            "series": r.ledger.cost_series(),
        })).collect::<Vec<_>>(),
    });
    dump_json_obs(&rec, "fig8_scale.json", &json);
    if let Err(e) = rec.finish() {
        eprintln!("fl-obs: could not finalize run.jsonl: {e}");
    }
}
