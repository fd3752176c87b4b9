//! Integration tests for the learning side: FedAvg running under the
//! frequency scheduler — constraint (10), Eq. (7)/(8), and the interplay
//! between the physical and statistical halves of the system.

use fl_ctrl::{build_system_with, FrequencyController, HeuristicController, MaxFreqController};
use fl_learn::{data, FedAvg, FedAvgConfig, LocalTrainer};
use fl_net::synth::Profile;
use fl_sim::{FlConfig, SessionLedger};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs FedAvg rounds where each round is also one scheduled+simulated FL
/// iteration; returns (rounds, final loss, ledger).
fn fedavg_under_schedule(
    ctrl: &mut dyn FrequencyController,
    epsilon: f64,
    max_rounds: usize,
) -> (usize, f64, SessionLedger) {
    let n_devices = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let sys = build_system_with(
        n_devices,
        3,
        Profile::Walking4G,
        2400,
        FlConfig {
            tau: 1,
            model_size_mb: 10.0,
            lambda: 0.5,
        },
        &fl_sim::DeviceSampler::default(),
        &mut rng,
    )
    .expect("system");
    let dataset = data::gaussian_blobs(450, 2, 5.0, &mut rng).expect("data");
    let shards = data::split_non_iid(&dataset, n_devices, 0.4, &mut rng).expect("shards");
    let model = LocalTrainer::default_model(2, &mut rng).expect("model");
    let mut fed = FedAvg::new(model, FedAvgConfig::default()).expect("fedavg");

    let mut ledger = SessionLedger::new(sys.config().lambda);
    let mut t = 200.0;
    let mut prev = None;
    let mut loss = f64::INFINITY;
    let mut rounds = 0;
    while rounds < max_rounds {
        let freqs = ctrl.decide(rounds, t, &sys, prev.as_ref()).expect("decide");
        let report = sys.run_iteration(t, &freqs).expect("iteration");
        t = report.end_time();
        let round = fed.round(&shards, &mut rng).expect("round");
        loss = round.global_loss;
        ledger.push(report.clone());
        prev = Some(report);
        rounds += 1;
        if loss < epsilon {
            break;
        }
    }
    (rounds, loss, ledger)
}

/// Constraint (10) end to end: the federated model reaches the loss
/// threshold while the scheduler charges time and energy for every round.
#[test]
fn fedavg_reaches_epsilon_under_scheduler() {
    let mut ctrl = HeuristicController::default();
    let (rounds, loss, ledger) = fedavg_under_schedule(&mut ctrl, 0.15, 40);
    assert!(loss < 0.15, "loss {loss} after {rounds} rounds");
    assert_eq!(ledger.iterations().len(), rounds);
    assert!(ledger.total_cost() > 0.0);
}

/// The motivating claim of the paper, measured end to end: for the same
/// learning outcome (same rounds, same data, same aggregation), the
/// energy-aware schedule spends fewer joules than full speed — and more
/// compute power does NOT buy faster convergence (the learner's trajectory
/// is identical by construction of the synchronized protocol).
#[test]
fn energy_aware_schedule_reaches_same_loss_cheaper() {
    let mut fast = MaxFreqController;
    let (rounds_fast, loss_fast, ledger_fast) = fedavg_under_schedule(&mut fast, 0.15, 40);
    let mut smart = HeuristicController::default();
    let (rounds_smart, loss_smart, ledger_smart) = fedavg_under_schedule(&mut smart, 0.15, 40);

    // Same statistical trajectory: identical rounds-to-threshold and loss
    // (the learner RNG and shards are the same in both runs).
    assert_eq!(rounds_fast, rounds_smart);
    assert!((loss_fast - loss_smart).abs() < 1e-12);

    // Different physical bill.
    let energy_fast: f64 = ledger_fast.energy_series().iter().sum();
    let energy_smart: f64 = ledger_smart.energy_series().iter().sum();
    assert!(
        energy_smart < energy_fast,
        "heuristic energy {energy_smart} vs maxfreq {energy_fast}"
    );
}

/// Non-IID severity degrades convergence speed monotonically-ish: the
/// fully-skewed split needs at least as many rounds as the IID split to
/// reach the same loss (a FedAvg sanity property the paper presumes).
#[test]
fn non_iid_skew_slows_convergence() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let dataset = data::gaussian_blobs(600, 2, 5.0, &mut rng).expect("data");
    let rounds_to = |skew: f64| -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let shards = data::split_non_iid(&dataset, 4, skew, &mut rng).expect("split");
        let model = {
            let mut mrng = ChaCha8Rng::seed_from_u64(7);
            LocalTrainer::default_model(2, &mut mrng).expect("model")
        };
        let mut fed = FedAvg::new(model, FedAvgConfig::default()).expect("fedavg");
        for round in 1..=60 {
            let r = fed.round(&shards, &mut rng).expect("round");
            if r.global_loss < 0.12 {
                return round;
            }
        }
        61
    };
    let iid = rounds_to(0.0);
    let skewed = rounds_to(1.0);
    assert!(
        skewed >= iid,
        "skewed split converged faster ({skewed}) than IID ({iid})"
    );
}

/// Eq. (8) consistency: the weighted global loss equals the direct loss on
/// the concatenated data.
#[test]
fn weighted_global_loss_matches_pooled_loss() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let dataset = data::gaussian_blobs(300, 2, 4.0, &mut rng).expect("data");
    let shards = data::split_non_iid(&dataset, 3, 0.7, &mut rng).expect("split");
    let model = LocalTrainer::default_model(2, &mut rng).expect("model");
    let fed = FedAvg::new(model, FedAvgConfig::default()).expect("fedavg");

    let weighted = fed.global_loss(&shards).expect("weighted");
    // Pool the shards back together and evaluate directly.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for s in &shards {
        xs.extend_from_slice(s.x.data());
        ys.extend_from_slice(s.y.data());
    }
    let pooled = data::LabeledData::new(
        fl_nn::Matrix::from_vec(ys.len(), 2, xs).expect("x"),
        fl_nn::Matrix::from_vec(ys.len(), 1, ys).expect("y"),
    )
    .expect("pooled");
    let direct = LocalTrainer::default()
        .evaluate_loss(fed.global(), &pooled)
        .expect("direct");
    assert!(
        (weighted - direct).abs() < 1e-9,
        "weighted {weighted} vs pooled {direct}"
    );
}
