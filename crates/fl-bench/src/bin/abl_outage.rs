//! Ablation — robustness to coverage outages.
//!
//! The paper motivates DRL with unpredictable connectivity; the harshest
//! version of that is an on–off channel (tunnels, coverage holes — our
//! `Driving4G` profile), where uploads stall completely for stretches.
//! Every controller is evaluated on the same outage-ridden pool, with the
//! DRL agent trained on it. Predict-then-optimize is expected to suffer
//! most here: a point estimate cannot express "the link might vanish".
//!
//! Usage: `cargo run --release -p fl-bench --bin abl_outage [episodes] [iters]`

use fl_bench::{dump_json, print_relative, print_summary_table, Scenario};
use fl_ctrl::{
    compare_controllers, FrequencyController, HeuristicController, MaxFreqController,
    OracleController, ParallelConfig, StaticController,
};
use fl_net::synth::Profile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);

    let mut scenario = Scenario::testbed();
    scenario.name = "outage-n3".to_string();
    scenario.profile = Profile::Driving4G;
    let sys = scenario.build();
    println!(
        "abl_outage: N={} on on-off (Driving4G) traces, lambda={}",
        sys.num_devices(),
        sys.config().lambda
    );

    let (drl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    println!("DRL controller ready (cache hit: {cached})");
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x0A7);
    let stat = StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static");
    let controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
        Box::new(drl),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(MaxFreqController),
        Box::new(OracleController::default()),
    ];
    let runs = compare_controllers(&sys, controllers, iterations, 200.0).expect("evaluation");
    print_summary_table("outage robustness (on-off channel)", &runs);
    print_relative(&runs);

    dump_json(
        "abl_outage.json",
        &serde_json::json!({
            "summary": runs.iter().map(|r| {
                let (c, t, e) = r.summary();
                serde_json::json!({"name": r.name, "mean_cost": c, "mean_time": t, "mean_energy": e})
            }).collect::<Vec<_>>(),
        }),
    );
}
