//! Ablation — battery lifetime under each controller.
//!
//! The paper's opening motivation is battery exhaustion ("mobile devices
//! may hesitate to join federated learning if the participation incurs
//! quick battery exhaustion"). This bench quantifies it: give every device
//! the same per-session energy budget and count how many synchronized
//! iterations each controller sustains before the first device dies —
//! and how much federated training time that buys.
//!
//! Usage: `cargo run --release -p fl-bench --bin abl_lifetime [episodes] [budget_j]`

use fl_bench::{dump_json, Scenario};
use fl_ctrl::{
    FrequencyController, HeuristicController, MaxFreqController, OracleController, ParallelConfig,
    StaticController,
};
use fl_sim::FleetBattery;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let budget_j: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(300.0);

    let scenario = Scenario::testbed();
    let sys = scenario.build();
    let (drl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    println!("DRL controller ready (cache hit: {cached})");
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xBA7);
    let stat = StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static");

    let mut controllers: Vec<Box<dyn FrequencyController>> = vec![
        Box::new(drl),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(MaxFreqController),
        Box::new(OracleController::default()),
    ];

    println!(
        "\nper-device session energy budget: {budget_j} J\n{:<12} {:>12} {:>16} {:>14}",
        "approach", "iterations", "training time(s)", "min charge"
    );
    let mut results = Vec::new();
    for ctrl in controllers.iter_mut() {
        ctrl.reset();
        let mut fleet = FleetBattery::uniform(sys.num_devices(), budget_j).expect("battery fleet");
        let mut t = 200.0;
        let mut prev = None;
        let mut wall = 0.0;
        let mut k = 0;
        loop {
            let freqs = ctrl
                .decide(k, t, &sys, prev.as_ref())
                .expect("controller decision");
            let report = sys.run_iteration(t, &freqs).expect("iteration");
            t = report.end_time();
            let alive = fleet.apply(&report).expect("fleet alive before apply");
            if alive {
                wall += report.duration;
            }
            prev = Some(report);
            k += 1;
            if !alive || k > 100_000 {
                break;
            }
        }
        println!(
            "{:<12} {:>12} {:>16.1} {:>14.3}",
            ctrl.name(),
            fleet.iterations_survived(),
            wall,
            fleet.min_fraction()
        );
        results.push(serde_json::json!({
            "name": ctrl.name(),
            "iterations_survived": fleet.iterations_survived(),
            "training_seconds": wall,
        }));
    }
    println!("\nmore surviving iterations = more federated rounds per charge —");
    println!("the participation incentive the paper argues for.");
    dump_json(
        "abl_lifetime.json",
        &serde_json::json!({"budget_j": budget_j, "results": results}),
    );
}
