//! Cross-crate integration tests: the full pipeline from synthetic traces
//! through the simulator, the DRL training loop, and the online
//! controllers. These are the repository's "does the paper's system
//! actually work end to end" checks; per-module behaviour is covered by
//! the unit tests inside each crate.

use fl_ctrl::{
    build_system, compare_controllers, run_controller, train_drl, DrlController, EnvConfig,
    FrequencyController, HeuristicController, MaxFreqController, OracleController, PolicyArch,
    StaticController, TrainConfig,
};
use fl_net::synth::Profile;
use fl_rl::PpoConfig;
use fl_sim::FlConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_system(seed: u64, n: usize) -> fl_sim::FleetSim {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    build_system(
        n,
        n.min(3),
        Profile::Walking4G,
        2400,
        FlConfig {
            tau: 1,
            model_size_mb: 10.0,
            lambda: 0.5,
        },
        &mut rng,
    )
    .expect("valid system")
}

fn quick_train_config(episodes: usize, arch: PolicyArch) -> TrainConfig {
    TrainConfig {
        episodes,
        ppo: PpoConfig {
            hidden: vec![24],
            buffer_capacity: 200,
            minibatch_size: 50,
            epochs: 8,
            actor_lr: 1.5e-3,
            critic_lr: 3e-3,
            entropy_coef: 0.001,
            gamma: 0.5,
            gae_lambda: 0.9,
            target_kl: None,
            ..PpoConfig::default()
        },
        env: EnvConfig {
            episode_len: 25,
            history_len: 4,
            ..EnvConfig::default()
        },
        arch,
        reward_scale: 0.05,
    }
}

/// The headline property at test scale: a trained DRL controller achieves
/// lower mean system cost than running every device flat out.
#[test]
fn trained_drl_beats_maxfreq_on_cost() {
    let sys = small_system(1, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let out =
        train_drl(&sys, &quick_train_config(600, PolicyArch::Joint), &mut rng).expect("training");
    let mut drl = out.controller;
    let drl_run = run_controller(&sys, &mut drl, 150, 300.0).expect("drl run");
    let mut maxf = MaxFreqController;
    let maxf_run = run_controller(&sys, &mut maxf, 150, 300.0).expect("maxfreq run");
    assert!(
        drl_run.ledger.mean_cost() < maxf_run.ledger.mean_cost(),
        "drl {} vs maxfreq {}",
        drl_run.ledger.mean_cost(),
        maxf_run.ledger.mean_cost()
    );
    // And it does so by spending less energy, not by magic.
    assert!(drl_run.ledger.mean_energy() < maxf_run.ledger.mean_energy());
}

/// The clairvoyant oracle lower-bounds every deployable controller.
#[test]
fn oracle_is_the_floor() {
    let sys = small_system(3, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let stat = StaticController::new(&sys, 300, 0.1, &mut rng).expect("static");
    let runs = compare_controllers(
        &sys,
        vec![
            Box::new(OracleController::default()),
            Box::new(HeuristicController::default()),
            Box::new(stat),
            Box::new(MaxFreqController),
        ],
        60,
        250.0,
    )
    .expect("comparison");
    let oracle_cost = runs[0].ledger.mean_cost();
    for r in &runs[1..] {
        assert!(
            oracle_cost <= r.ledger.mean_cost() + 1e-9,
            "oracle {} beaten by {} at {}",
            oracle_cost,
            r.name,
            r.ledger.mean_cost()
        );
    }
}

/// Trained controllers survive a JSON round-trip and keep making the exact
/// same decisions — the deployment path of Section V-B2.
#[test]
fn drl_controller_json_roundtrip_preserves_decisions() {
    let sys = small_system(5, 2);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let out =
        train_drl(&sys, &quick_train_config(30, PolicyArch::Joint), &mut rng).expect("training");
    let mut original = out.controller;
    let json = original.to_json().expect("serialize");
    let mut restored = DrlController::from_json(&json).expect("deserialize");
    for k in 0..5 {
        let t = 200.0 + k as f64 * 37.0;
        let a = original.decide(k, t, &sys, None).expect("original");
        let b = restored.decide(k, t, &sys, None).expect("restored");
        // JSON float text loses the last ULP; decisions must agree to
        // far better than any physically meaningful resolution.
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "decision drift: {x} vs {y}");
        }
    }
}

/// Both actor architectures train end-to-end and produce deployable
/// controllers on the same environment.
#[test]
fn joint_and_shared_architectures_both_train() {
    let sys = small_system(7, 4);
    for arch in [PolicyArch::Joint, PolicyArch::Shared] {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let out = train_drl(&sys, &quick_train_config(40, arch), &mut rng)
            .unwrap_or_else(|e| panic!("{arch:?} training failed: {e}"));
        let mut ctrl = out.controller;
        let run = run_controller(&sys, &mut ctrl, 20, 300.0).expect("evaluation");
        assert_eq!(run.ledger.len(), 20);
        assert!(run.ledger.mean_cost().is_finite());
        assert!(out.episodes.iter().all(|e| e.mean_cost.is_finite()));
    }
}

/// The whole pipeline is bit-for-bit deterministic under a fixed seed.
#[test]
fn full_pipeline_is_deterministic() {
    let run_once = || {
        let sys = small_system(9, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let out = train_drl(&sys, &quick_train_config(20, PolicyArch::Joint), &mut rng)
            .expect("training");
        let mut ctrl = out.controller;
        let run = run_controller(&sys, &mut ctrl, 30, 400.0).expect("evaluation");
        run.ledger.cost_series()
    };
    assert_eq!(run_once(), run_once());
}

/// Cross-validation of the two optimizers: on *constant*-bandwidth traces
/// the model-based solver's plan (fed the exact bandwidths) and the
/// trace-walking Oracle must agree — same cost, and per-device frequencies
/// within search tolerance.
#[test]
fn oracle_agrees_with_solver_on_flat_traces() {
    use fl_ctrl::{model_cost, optimize_frequencies, SolverParams};
    use fl_net::{BandwidthTrace, TraceSet};
    use fl_sim::{DeviceSampler, FleetSim, FleetState};

    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let bws = [1.2, 3.0, 0.7];
    let traces = TraceSet::new(
        bws.iter()
            .map(|&b| {
                BandwidthTrace::new(1.0, vec![b; 8])
                    .expect("trace")
                    .cyclic()
            })
            .collect(),
    )
    .expect("trace set");
    let devices = DeviceSampler::default().sample_fleet(&[0, 1, 2], &mut rng);
    let state = FleetState::from_devices(&devices).expect("device ids");
    let sys = FleetSim::new(state, traces, FlConfig::default()).expect("system");

    let params = SolverParams {
        tau: sys.config().tau,
        model_size_mb: sys.config().model_size_mb,
        lambda: sys.config().lambda,
        min_freq_frac: 0.1,
    };
    let plan = optimize_frequencies(&sys.devices(), &params, &bws).expect("solver");

    let mut oracle = OracleController::default();
    let oracle_freqs = oracle.decide(0, 100.0, &sys, None).expect("oracle");
    let oracle_cost = sys
        .run_iteration(100.0, &oracle_freqs)
        .expect("oracle iteration")
        .cost(sys.config().lambda);
    // The solver's model cost IS the exact cost on flat traces.
    let solver_sim_cost = sys
        .run_iteration(100.0, &plan.freqs)
        .expect("solver iteration")
        .cost(sys.config().lambda);
    let model = model_cost(&sys.devices(), &params, &bws, &plan.freqs).expect("model");
    assert!(
        (solver_sim_cost - model).abs() < 1e-6,
        "model {model} vs simulated {solver_sim_cost}"
    );
    assert!(
        (oracle_cost - solver_sim_cost).abs() < 0.01 * solver_sim_cost,
        "oracle {oracle_cost} vs solver {solver_sim_cost}"
    );
}

/// Time accounting holds across a long multi-controller run: iterations
/// tile the timeline exactly (Eq. 11) and idle times are consistent with
/// the synchronization barrier (Eq. 5).
#[test]
fn timeline_and_idle_accounting() {
    let sys = small_system(11, 3);
    let mut ctrl = HeuristicController::default();
    let run = run_controller(&sys, &mut ctrl, 80, 500.0).expect("run");
    let iters = run.ledger.iterations();
    for w in iters.windows(2) {
        assert!((w[0].end_time() - w[1].start_time).abs() < 1e-9);
    }
    for it in iters {
        let max_total = it
            .devices
            .iter()
            .map(|d| d.total_time())
            .fold(0.0f64, f64::max);
        assert!((it.duration - max_total).abs() < 1e-9);
        let min_idle = it
            .devices
            .iter()
            .map(|d| d.idle_time)
            .fold(f64::INFINITY, f64::min);
        assert!(min_idle.abs() < 1e-9, "someone must be the straggler");
        assert!(it.devices.iter().all(|d| d.idle_time >= -1e-9));
    }
}
