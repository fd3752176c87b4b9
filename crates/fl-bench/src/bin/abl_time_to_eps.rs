//! Ablation — wall-clock and energy to reach the learning target.
//!
//! The paper's closing observation: "blindly increasing the computational
//! speed not only can not accelerate the federated learning convergence
//! rate, but also will increase energy consumption". Synchronous FedAvg
//! fixes the *round count* to reach `F(ω) < ε` regardless of frequencies;
//! what the scheduler controls is the wall-clock and the joules that round
//! count costs. This bench measures exactly that for every controller.
//!
//! Usage: `cargo run --release -p fl-bench --bin abl_time_to_eps [episodes] [epsilon]`

use fl_bench::{dump_json, Scenario};
use fl_ctrl::{
    FrequencyController, HeuristicController, MaxFreqController, OracleController, ParallelConfig,
    StaticController,
};
use fl_learn::{data, FedAvg, FedAvgConfig, LocalTrainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let epsilon: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.04);

    let scenario = Scenario::testbed();
    let sys = scenario.build();
    let n = sys.num_devices();

    // The learning task (identical across controllers).
    let mut data_rng = ChaCha8Rng::seed_from_u64(404);
    let dataset = data::gaussian_blobs(600, 2, 3.5, &mut data_rng).expect("dataset");
    let shards = data::split_non_iid(&dataset, n, 0.8, &mut data_rng).expect("shards");

    let (drl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    println!("DRL controller ready (cache hit: {cached}); target F(w) < {epsilon}\n");
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x7E5);
    let stat = StaticController::new(&sys, 1000, 0.1, &mut rng).expect("static");

    let mut controllers: Vec<Box<dyn FrequencyController>> = vec![
        Box::new(drl),
        Box::new(HeuristicController::default()),
        Box::new(stat),
        Box::new(MaxFreqController),
        Box::new(OracleController::default()),
    ];

    println!(
        "{:<12} {:>8} {:>14} {:>12} {:>10}",
        "approach", "rounds", "wall-clock(s)", "energy(J)", "final F(w)"
    );
    let mut results = Vec::new();
    for ctrl in controllers.iter_mut() {
        ctrl.reset();
        // Fresh learner with identical seeds: the statistical trajectory is
        // the same for every controller by construction.
        let model = {
            let mut mrng = ChaCha8Rng::seed_from_u64(405);
            LocalTrainer::default_model(2, &mut mrng).expect("model")
        };
        let mut fed = FedAvg::new(model, FedAvgConfig::default()).expect("fedavg");
        let mut fed_rng = ChaCha8Rng::seed_from_u64(406);

        let mut t = 200.0;
        let mut prev = None;
        let mut wall = 0.0;
        let mut energy = 0.0;
        let mut rounds = 0;
        let mut loss = f64::INFINITY;
        while loss >= epsilon && rounds < 200 {
            let freqs = ctrl.decide(rounds, t, &sys, prev.as_ref()).expect("decide");
            let report = sys.run_iteration(t, &freqs).expect("iteration");
            t = report.end_time();
            wall += report.duration;
            energy += report.total_energy();
            let round = fed.round(&shards, &mut fed_rng).expect("round");
            loss = round.global_loss;
            prev = Some(report);
            rounds += 1;
        }
        println!(
            "{:<12} {:>8} {:>14.1} {:>12.1} {:>10.4}",
            ctrl.name(),
            rounds,
            wall,
            energy,
            loss
        );
        results.push(serde_json::json!({
            "name": ctrl.name(),
            "rounds": rounds,
            "wall_clock_s": wall,
            "energy_j": energy,
        }));
    }
    println!(
        "\nround count is identical (synchronized protocol); the scheduler only\n\
         changes what those rounds cost — maxfreq pays the most joules for the\n\
         same model, and only marginal wall-clock savings."
    );
    dump_json(
        "abl_time_to_eps.json",
        &serde_json::json!({"epsilon": epsilon, "results": results}),
    );
}
