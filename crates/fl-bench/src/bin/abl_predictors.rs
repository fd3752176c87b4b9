//! Ablation — the predict-then-optimize family vs the learned policy.
//!
//! Section II argues that "network quality changes and cannot be accurately
//! predicted in practice", motivating model-free DRL over prediction-based
//! control. This bench runs that argument: every classical predictor from
//! `fl_net::predict` is plugged into the same cost-optimal solver and
//! evaluated head-to-head (plus the trained DRL controller and the
//! clairvoyant oracle), along with each predictor's raw bandwidth MAE.
//!
//! Usage: `cargo run --release -p fl-bench --bin abl_predictors [episodes] [iters]`

use fl_bench::{dump_json, print_relative, print_summary_table, Scenario};
use fl_ctrl::{
    compare_controllers, FrequencyController, HeuristicController, OracleController,
    ParallelConfig, PredictiveController, StaticController,
};
use fl_net::predict::{self, Predictor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);

    let scenario = Scenario::testbed();
    let sys = scenario.build();

    // Raw prediction quality on the walking traces (per-slot stream).
    println!("predictor bandwidth MAE on a walking trace (lower is better):");
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let trace = fl_net::synth::Profile::Walking4G
        .generate(4000, 1.0, &mut rng)
        .expect("trace");
    let mut predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(predict::LastValue::new(3.0)),
        Box::new(predict::SlidingMean::new(8, 3.0).expect("window")),
        Box::new(predict::Ewma::new(0.3, 3.0).expect("alpha")),
        Box::new(predict::Ar1::new(3.0)),
    ];
    for p in predictors.iter_mut() {
        let mae = predict::evaluate_mae(p.as_mut(), trace.slots());
        println!("  {:<14} {mae:.3} MB/s", p.name());
    }

    // Controllers: each predictor through the solver, plus references.
    let (drl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    println!("\nDRL controller ready (cache hit: {cached})");
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xEA1);
    let stat = StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static");
    let controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
        Box::new(drl),
        Box::new(
            PredictiveController::uniform("lastval", &sys, 0.1, |p| {
                Box::new(predict::LastValue::new(p))
            })
            .expect("ctor"),
        ),
        Box::new(
            PredictiveController::uniform("slide8", &sys, 0.1, |p| {
                Box::new(predict::SlidingMean::new(8, p).expect("window"))
            })
            .expect("ctor"),
        ),
        Box::new(
            PredictiveController::uniform("ewma.3", &sys, 0.1, |p| {
                Box::new(predict::Ewma::new(0.3, p).expect("alpha"))
            })
            .expect("ctor"),
        ),
        Box::new(
            PredictiveController::uniform("ar1", &sys, 0.1, |p| Box::new(predict::Ar1::new(p)))
                .expect("ctor"),
        ),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(OracleController::default()),
    ];
    let runs = compare_controllers(&sys, controllers, iterations, 200.0).expect("evaluation");
    print_summary_table("predict-then-optimize family vs DRL", &runs);
    print_relative(&runs);

    dump_json(
        "abl_predictors.json",
        &serde_json::json!({
            "summary": runs.iter().map(|r| {
                let (c, t, e) = r.summary();
                serde_json::json!({"name": r.name, "mean_cost": c, "mean_time": t, "mean_energy": e})
            }).collect::<Vec<_>>(),
        }),
    );
}
