//! Figure 7 — testbed comparison (N = 3 devices, 400 online iterations).
//!
//! Reproduces all six panels:
//! (a) average system cost, (b) average training time, (c) average energy,
//! (d–f) the corresponding per-iteration CDFs, for DRL vs Heuristic vs
//! Static (plus MaxFreq and the clairvoyant Oracle as references).
//!
//! Paper numbers for orientation: DRL 7.25 vs Heuristic 9.74 vs Static 10.5
//! average cost (≈35% gap); heuristic ≈38% slower than DRL; static energy a
//! near-constant 1.62/iteration.
//!
//! Usage: `cargo run --release -p fl-bench --bin fig7_testbed [episodes] [iters]`

use fl_bench::{dump_json, print_cdf, print_relative, print_summary_table, Scenario};
use fl_ctrl::{
    compare_controllers, FrequencyController, HeuristicController, MaxFreqController,
    OracleController, ParallelConfig, StaticController,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);

    let scenario = Scenario::testbed();
    let sys = scenario.build();
    println!(
        "fig7: scenario={} N={} lambda={} | training {episodes} episodes, evaluating {iterations} iterations",
        scenario.name,
        sys.num_devices(),
        sys.config().lambda
    );

    let t0 = std::time::Instant::now();
    let (drl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    println!(
        "DRL controller ready in {:.1?} (cache hit: {cached})",
        t0.elapsed()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xEA1);
    let stat =
        StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static controller construction");
    let controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
        Box::new(drl),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(MaxFreqController),
        Box::new(OracleController::default()),
    ];

    // Evaluation starts well inside the traces (past the history window).
    let t_start = 200.0;
    let t1 = std::time::Instant::now();
    let runs =
        compare_controllers(&sys, controllers, iterations, t_start).expect("controller evaluation");
    println!("evaluation finished in {:.1?}", t1.elapsed());

    print_summary_table("Fig. 7(a-c): averages over the online run", &runs);
    print_relative(&runs);

    let cost_series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|r| (r.name.clone(), r.ledger.cost_series()))
        .collect();
    let time_series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|r| (r.name.clone(), r.ledger.time_series()))
        .collect();
    let energy_series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|r| (r.name.clone(), r.ledger.energy_series()))
        .collect();
    print_cdf("system cost (Fig. 7d)", &cost_series, 15);
    print_cdf("training time (Fig. 7e)", &time_series, 15);
    print_cdf("energy (Fig. 7f)", &energy_series, 15);

    let json = serde_json::json!({
        "figure": "fig7",
        "episodes": episodes,
        "iterations": iterations,
        "summary": runs.iter().map(|r| {
            let (c, t, e) = r.summary();
            serde_json::json!({"name": r.name, "mean_cost": c, "mean_time": t, "mean_energy": e})
        }).collect::<Vec<_>>(),
    });
    dump_json("fig7_testbed.json", &json);
}
