//! Ablation — frozen actor vs continual (online) learning.
//!
//! The paper deploys a frozen actor after offline training. This bench
//! deploys the *same* trained agent twice on a distribution the training
//! never saw (a different trace profile — route change), once frozen and
//! once continuing Algorithm 1 online, plus a from-scratch online learner
//! as a reference. Distribution shift is where continual learning should
//! pay.
//!
//! Usage: `cargo run --release -p fl-bench --bin abl_online [episodes] [iters]`

use fl_bench::{dump_json, print_relative, print_summary_table, Scenario};
use fl_ctrl::{run_controller, OnlineDrlController};
use fl_net::synth::Profile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(600);

    // Train on the walking profile...
    let scenario = Scenario::testbed();
    let train_sys = scenario.build();
    println!(
        "training on {:?} ({episodes} episodes)...",
        scenario.profile
    );
    let out = scenario.train(&train_sys, episodes);
    let config = scenario.train_config(episodes);

    // ...deploy on the on-off driving profile (same devices, new routes).
    let mut shifted = scenario.clone();
    shifted.name = "online-shift".to_string();
    shifted.profile = Profile::Driving4G;
    let deploy_sys = shifted.build();
    println!(
        "deploying on {:?} for {iterations} iterations (distribution shift)",
        shifted.profile
    );

    let mut frozen = out.controller.clone();
    let frozen_run =
        run_controller(&deploy_sys, &mut frozen, iterations, 200.0).expect("frozen run");

    // Deployment produces one transition per iteration, so use a small
    // online buffer to keep a meaningful update cadence.
    let mut online = OnlineDrlController::new(
        out.agent.clone(),
        config.env,
        config.reward_scale,
        50,
        shifted.seed ^ 0x051,
    )
    .expect("online controller");
    let online_run =
        run_controller(&deploy_sys, &mut online, iterations, 200.0).expect("online run");
    println!(
        "online controller performed {} PPO updates in-flight",
        online.updates()
    );

    let runs = vec![frozen_run, online_run];
    print_summary_table("frozen vs continual learning under route shift", &runs);
    print_relative(&runs);

    dump_json(
        "abl_online.json",
        &serde_json::json!({
            "summary": runs.iter().map(|r| {
                let (c, t, e) = r.summary();
                serde_json::json!({"name": r.name, "mean_cost": c, "mean_time": t, "mean_energy": e})
            }).collect::<Vec<_>>(),
        }),
    );
}
