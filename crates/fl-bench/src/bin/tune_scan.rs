//! Internal tuning scan: measures the controllable cost spread
//! (maxfreq vs heuristic vs static vs oracle) across operating points,
//! WITHOUT training DRL. Used to pick the scenario constants; not one of
//! the paper's figures.
//!
//! Operating points are independent, so they fan out across the
//! work-stealing pool (`FL_WORKERS` caps the threads; rows print in the
//! same order regardless).
//!
//! Usage: `cargo run --release -p fl-bench --bin tune_scan [--obs DIR]`
//! (`--obs DIR` records sweep telemetry to `DIR/run.jsonl`).

use fl_ctrl::{
    compare_controllers, run_parallel_sweep, FrequencyController, HeuristicController,
    MaxFreqController, OracleController, StaticController,
};
use fl_net::TraceSet;
use fl_sim::{DeviceSampler, FlConfig, FleetSim, FleetState, Range};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn build(lambda: f64, xi: f64, data_lo: f64, data_hi: f64) -> FleetSim {
    let mut rng = ChaCha8Rng::seed_from_u64(20200518);
    let traces =
        TraceSet::from_profile(fl_net::synth::Profile::Walking4G, 3, 3600, 1.0, &mut rng).unwrap();
    let assignment = traces.assign(3, &mut rng);
    let sampler = DeviceSampler {
        data_mb: Range {
            lo: data_lo,
            hi: data_hi,
        },
        ..DeviceSampler::default()
    };
    let state = FleetState::sample(&sampler, &assignment, &mut rng).unwrap();
    FleetSim::new(
        state,
        traces,
        FlConfig {
            tau: 1,
            model_size_mb: xi,
            lambda,
        },
    )
    .unwrap()
}

fn main() {
    // (lambda, xi, data range) — the last two rows shrink compute so comm
    // variability dominates (Mbit-reading of the paper's 50-100 "MB").
    let points = vec![
        (0.5, 10.0, 50.0, 100.0),
        (1.0, 10.0, 50.0, 100.0),
        (0.5, 25.0, 6.25, 12.5),
        (1.0, 25.0, 6.25, 12.5),
        (2.0, 25.0, 6.25, 12.5),
        (1.0, 10.0, 6.25, 12.5),
        (2.0, 10.0, 6.25, 12.5),
    ];
    let mut obs_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--obs" {
            obs_dir = Some(std::path::PathBuf::from(
                args.next().expect("--obs needs a directory"),
            ));
        }
    }
    let run_rec = fl_bench::obs_recorder(obs_dir.as_deref(), "run.jsonl");
    let workers = fl_bench::workers_from_env_obs(&run_rec);
    let (rows, report) = run_parallel_sweep(workers, points, |_, (lambda, xi, dlo, dhi)| {
        let sys = build(lambda, xi, dlo, dhi);
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let stat = StaticController::new(&sys, 1000, 0.1, &mut rng2).unwrap();
        let controllers: Vec<Box<dyn FrequencyController + Send>> = vec![
            Box::new(MaxFreqController),
            Box::new(HeuristicController::default()),
            Box::new(stat),
            Box::new(OracleController::default()),
        ];
        let runs = compare_controllers(&sys, controllers, 300, 200.0)?;
        Ok(((lambda, xi, dlo, dhi), runs))
    })
    .expect("tuning scan");

    for ((lambda, xi, dlo, dhi), runs) in &rows {
        let oracle = runs[3].ledger.mean_cost();
        print!("lam={lambda:<4} xi={xi:<4} D=[{dlo},{dhi}]");
        for r in runs {
            print!(
                "  {}={:.2}/{:.1}s (+{:.0}%)",
                r.name,
                r.ledger.mean_cost(),
                r.ledger.mean_time(),
                (r.ledger.mean_cost() / oracle - 1.0) * 100.0
            );
        }
        println!();
    }
    println!("timing: {}", report.timing_line());
    if run_rec.is_enabled() {
        run_rec.emit(report.obs_event("tune_scan"));
        if let Err(e) = run_rec.finish() {
            eprintln!("fl-obs: could not finalize run.jsonl: {e}");
        }
    }
}
