//! The FedAvg parameter server.

use crate::local::LocalTrainer;
use crate::{LabeledData, LearnError, Result};
use fl_nn::Mlp;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Server-side FedAvg configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FedAvgConfig {
    /// Local optimization settings applied on every device.
    pub local: LocalTrainer,
}

/// `D_n`-weighted parameter averaging (the weighting of Eq. 8), extracted
/// as a pure function so partial-participation aggregation can be tested
/// against hand-computed values. `weights` are the raw per-update weights
/// (e.g. shard sizes); they are normalized internally, so only their ratios
/// matter.
pub fn aggregate_params(updates: &[Vec<f64>], weights: &[f64]) -> Result<Vec<f64>> {
    if updates.is_empty() {
        return Err(LearnError::InvalidArgument(
            "need at least one update to aggregate".to_string(),
        ));
    }
    if updates.len() != weights.len() {
        return Err(LearnError::InvalidArgument(format!(
            "{} updates but {} weights",
            updates.len(),
            weights.len()
        )));
    }
    let dim = updates[0].len();
    if updates.iter().any(|u| u.len() != dim) {
        return Err(LearnError::InvalidArgument(
            "updates have mismatched dimensions".to_string(),
        ));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(LearnError::InvalidArgument(
            "weights must be finite and non-negative".to_string(),
        ));
    }
    let total: f64 = weights.iter().sum();
    if !(total > 0.0) {
        return Err(LearnError::InvalidArgument(
            "weights must not all be zero".to_string(),
        ));
    }
    // Accumulate Σ w_i·p_i first and divide by Σ w_i once at the end: with
    // integral weights (shard sizes) the intermediate sums stay exact, so
    // small hand-computed cases aggregate without rounding error.
    let mut aggregated = vec![0.0; dim];
    for (update, weight) in updates.iter().zip(weights) {
        for (agg, p) in aggregated.iter_mut().zip(update) {
            *agg += weight * p;
        }
    }
    for agg in &mut aggregated {
        *agg /= total;
    }
    Ok(aggregated)
}

/// Metrics from one federated round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Global loss `F(ω)` (Eq. 8) after aggregation.
    pub global_loss: f64,
    /// Mean of the devices' final local losses.
    pub mean_local_loss: f64,
    /// `D_n`-weighted global accuracy after aggregation.
    pub accuracy: f64,
}

/// The parameter server: owns the global model `ω` and performs
/// broadcast → local training → `D_n`-weighted averaging each iteration
/// (the Fig. 1 workflow).
#[derive(Debug, Clone)]
pub struct FedAvg {
    global: Mlp,
    config: FedAvgConfig,
}

impl FedAvg {
    /// Wraps an initial global model.
    pub fn new(global: Mlp, config: FedAvgConfig) -> Result<Self> {
        config.local.validate()?;
        Ok(FedAvg { global, config })
    }

    /// The current global model.
    pub fn global(&self) -> &Mlp {
        &self.global
    }

    /// The configuration.
    pub fn config(&self) -> &FedAvgConfig {
        &self.config
    }

    /// Runs one federated iteration over the device shards and returns the
    /// post-aggregation metrics.
    pub fn round(&mut self, shards: &[LabeledData], rng: &mut ChaCha8Rng) -> Result<RoundReport> {
        let all: Vec<usize> = (0..shards.len()).collect();
        self.round_with_participants(shards, &all, rng)
    }

    /// One round with *client selection*: only the devices in
    /// `participants` train and contribute to the average (the partial
    /// participation of McMahan et al. / the resource-aware selection of
    /// Nishio & Yonetani, which the paper cites as complementary work).
    /// The global loss/accuracy are still measured over **all** shards.
    pub fn round_with_participants(
        &mut self,
        shards: &[LabeledData],
        participants: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> Result<RoundReport> {
        if participants.is_empty() {
            return Err(LearnError::InvalidArgument(
                "need at least one participating device".to_string(),
            ));
        }
        let mut seen = vec![false; shards.len()];
        for &p in participants {
            if p >= shards.len() {
                return Err(LearnError::InvalidArgument(format!(
                    "participant {p} out of range for {} shards",
                    shards.len()
                )));
            }
            if std::mem::replace(&mut seen[p], true) {
                return Err(LearnError::InvalidArgument(format!(
                    "participant {p} listed twice"
                )));
            }
        }
        let selected: Vec<LabeledData> = participants.iter().map(|&p| shards[p].clone()).collect();
        let report = self.round_inner(&selected, rng)?;
        // Re-measure quality over the full population (non-participants'
        // data still counts toward Eq. 8).
        Ok(RoundReport {
            global_loss: self.global_loss(shards)?,
            accuracy: self.global_accuracy(shards)?,
            ..report
        })
    }

    /// One round driven by per-device survival flags, as produced by the
    /// fault-injected simulator (`fl-sim`'s `IterationReport::survivor_flags`):
    /// exactly the devices whose flag is `true` contribute updates. Unlike
    /// [`FedAvg::round_with_participants`], an *empty* surviving set is not an
    /// error but a **no-op round**: every upload was lost, so the global model
    /// is left unchanged and `mean_local_loss` reports `0.0` (no local
    /// training counted toward the average).
    pub fn round_with_survivors(
        &mut self,
        shards: &[LabeledData],
        survived: &[bool],
        rng: &mut ChaCha8Rng,
    ) -> Result<RoundReport> {
        if survived.len() != shards.len() {
            return Err(LearnError::InvalidArgument(format!(
                "{} survival flags for {} shards",
                survived.len(),
                shards.len()
            )));
        }
        let participants: Vec<usize> = survived
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.then_some(i))
            .collect();
        if participants.is_empty() {
            return Ok(RoundReport {
                global_loss: self.global_loss(shards)?,
                mean_local_loss: 0.0,
                accuracy: self.global_accuracy(shards)?,
            });
        }
        self.round_with_participants(shards, &participants, rng)
    }

    /// Samples `count` participants uniformly without replacement and runs
    /// a round with them.
    pub fn round_with_sampling(
        &mut self,
        shards: &[LabeledData],
        count: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<RoundReport> {
        if count == 0 || count > shards.len() {
            return Err(LearnError::InvalidArgument(format!(
                "cannot sample {count} of {} devices",
                shards.len()
            )));
        }
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..shards.len()).collect();
        idx.shuffle(rng);
        idx.truncate(count);
        self.round_with_participants(shards, &idx, rng)
    }

    fn round_inner(&mut self, shards: &[LabeledData], rng: &mut ChaCha8Rng) -> Result<RoundReport> {
        if shards.is_empty() {
            return Err(LearnError::InvalidArgument(
                "need at least one device shard".to_string(),
            ));
        }
        if shards.iter().any(LabeledData::is_empty) {
            return Err(LearnError::InvalidArgument(
                "every shard must be non-empty".to_string(),
            ));
        }
        // Draw per-device seeds before the fan-out, and collect results in
        // device order, so the worker count never changes a bit.
        let seeds: Vec<u64> = shards.iter().map(|_| rng.gen()).collect();
        let trainer = self.config.local;
        let global = &self.global;
        let results = fl_pool::run_indexed(
            fl_pool::env_workers(),
            shards.iter().zip(seeds).collect(),
            |_, (shard, seed)| Self::local_update(global, trainer, shard, seed),
        )
        .results;

        // D_n-weighted parameter average (the weighting of Eq. 8).
        let weights: Vec<f64> = shards.iter().map(|s| s.len() as f64).collect();
        let mut updates = Vec::with_capacity(shards.len());
        let mut local_loss_sum = 0.0;
        for result in results {
            let (params, local_loss) = result?;
            updates.push(params);
            local_loss_sum += local_loss;
        }
        let aggregated = aggregate_params(&updates, &weights)?;
        self.global.import_params(&aggregated)?;

        Ok(RoundReport {
            global_loss: self.global_loss(shards)?,
            mean_local_loss: local_loss_sum / shards.len() as f64,
            accuracy: self.global_accuracy(shards)?,
        })
    }

    /// One device's contribution: clone the global model, train locally,
    /// return the updated parameters and final local loss.
    fn local_update(
        global: &Mlp,
        trainer: LocalTrainer,
        shard: &LabeledData,
        seed: u64,
    ) -> Result<(Vec<f64>, f64)> {
        let mut local = global.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let local_loss = trainer.train(&mut local, shard, &mut rng)?;
        Ok((local.export_params(), local_loss))
    }

    /// Eq. (8): the `D_n`-weighted global loss over all shards.
    pub fn global_loss(&self, shards: &[LabeledData]) -> Result<f64> {
        let total: f64 = shards.iter().map(|s| s.len() as f64).sum();
        if total == 0.0 {
            return Err(LearnError::InvalidArgument(
                "global loss over zero samples".to_string(),
            ));
        }
        let mut acc = 0.0;
        for s in shards {
            acc += s.len() as f64 * self.config.local.evaluate_loss(&self.global, s)?;
        }
        Ok(acc / total)
    }

    /// `D_n`-weighted global accuracy.
    pub fn global_accuracy(&self, shards: &[LabeledData]) -> Result<f64> {
        let total: f64 = shards.iter().map(|s| s.len() as f64).sum();
        if total == 0.0 {
            return Err(LearnError::InvalidArgument(
                "accuracy over zero samples".to_string(),
            ));
        }
        let mut acc = 0.0;
        for s in shards {
            acc += s.len() as f64 * self.config.local.evaluate_accuracy(&self.global, s)?;
        }
        Ok(acc / total)
    }

    /// Constraint (10): trains until `F(ω) < ε` or the round budget runs
    /// out (error in the latter case, reporting the final loss). Returns
    /// the per-round reports.
    pub fn train_until(
        &mut self,
        shards: &[LabeledData],
        epsilon: f64,
        max_rounds: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<RoundReport>> {
        if !(epsilon > 0.0) {
            return Err(LearnError::InvalidArgument(
                "epsilon must be positive".to_string(),
            ));
        }
        let mut reports = Vec::new();
        for _ in 0..max_rounds {
            let r = self.round(shards, rng)?;
            let done = r.global_loss < epsilon;
            reports.push(r);
            if done {
                return Ok(reports);
            }
        }
        Err(LearnError::DidNotConverge {
            rounds: max_rounds,
            final_loss: reports.last().map(|r| r.global_loss).unwrap_or(f64::NAN),
            epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, split_non_iid};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(seed: u64, n: usize, devices: usize, skew: f64) -> (FedAvg, Vec<LabeledData>) {
        let mut r = rng(seed);
        let data = gaussian_blobs(n, 2, 5.0, &mut r).unwrap();
        let shards = split_non_iid(&data, devices, skew, &mut r).unwrap();
        let model = LocalTrainer::default_model(2, &mut r).unwrap();
        let fed = FedAvg::new(model, FedAvgConfig::default()).unwrap();
        (fed, shards)
    }

    #[test]
    fn round_reduces_global_loss() {
        let (mut fed, shards) = setup(0, 300, 3, 0.0);
        let before = fed.global_loss(&shards).unwrap();
        let mut r = rng(1);
        let report = fed.round(&shards, &mut r).unwrap();
        assert!(report.global_loss < before);
        assert!(report.accuracy > 0.5);
    }

    #[test]
    fn converges_on_separable_data() {
        let (mut fed, shards) = setup(2, 300, 3, 0.0);
        let mut r = rng(3);
        let reports = fed.train_until(&shards, 0.1, 30, &mut r).unwrap();
        assert!(reports.last().unwrap().global_loss < 0.1);
        assert!(reports.last().unwrap().accuracy > 0.95);
        // Loss is (weakly) trending down: final < first.
        assert!(reports.last().unwrap().global_loss < reports[0].global_loss);
    }

    #[test]
    fn handles_non_iid_shards() {
        let (mut fed, shards) = setup(4, 400, 4, 1.0);
        let mut r = rng(5);
        // Fully skewed shards: still learns, if slower.
        for _ in 0..15 {
            fed.round(&shards, &mut r).unwrap();
        }
        let acc = fed.global_accuracy(&shards).unwrap();
        assert!(acc > 0.8, "non-IID accuracy {acc}");
    }

    /// A round fans local updates out over the worker pool; it must equal
    /// a serial reference built by hand: seeds drawn up front, one
    /// `local_update` per shard in order, then `aggregate_params`.
    #[test]
    fn parallel_matches_serial() {
        let (mut fed, shards) = setup(6, 200, 4, 0.3);
        let mut serial = fed.clone();
        let mut r1 = rng(7);
        let mut r2 = rng(7);
        fed.round(&shards, &mut r1).unwrap();

        let seeds: Vec<u64> = shards.iter().map(|_| r2.gen()).collect();
        let updates: Vec<Vec<f64>> = shards
            .iter()
            .zip(&seeds)
            .map(|(shard, &seed)| {
                FedAvg::local_update(&serial.global, serial.config.local, shard, seed)
                    .unwrap()
                    .0
            })
            .collect();
        let weights: Vec<f64> = shards.iter().map(|s| s.len() as f64).collect();
        let aggregated = aggregate_params(&updates, &weights).unwrap();
        serial.global.import_params(&aggregated).unwrap();

        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(fed.global().export_params()),
            bits(serial.global().export_params())
        );
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn aggregation_weights_by_shard_size() {
        // Two shards of very different sizes; with zero local epochs we
        // cannot test directly, so instead: train where one shard dominates
        // and verify the global model tracks the dominant shard's loss.
        let mut r = rng(8);
        let data = gaussian_blobs(330, 2, 5.0, &mut r).unwrap();
        let big = data.subset(&(0..300).collect::<Vec<_>>()).unwrap();
        let small = data.subset(&(300..330).collect::<Vec<_>>()).unwrap();
        let model = LocalTrainer::default_model(2, &mut r).unwrap();
        let mut fed = FedAvg::new(model, FedAvgConfig::default()).unwrap();
        let shards = vec![big.clone(), small];
        for _ in 0..5 {
            fed.round(&shards, &mut r).unwrap();
        }
        let big_loss = LocalTrainer::default()
            .evaluate_loss(fed.global(), &big)
            .unwrap();
        assert!(big_loss < 0.2, "dominant shard poorly fit: {big_loss}");
    }

    #[test]
    fn partial_participation_round() {
        let (mut fed, shards) = setup(20, 400, 4, 0.0);
        let mut r = rng(21);
        // Only devices 0 and 2 train; quality measured over everyone.
        let before = fed.global_loss(&shards).unwrap();
        let report = fed
            .round_with_participants(&shards, &[0, 2], &mut r)
            .unwrap();
        assert!(report.global_loss < before);
        // Validation.
        assert!(fed.round_with_participants(&shards, &[], &mut r).is_err());
        assert!(fed.round_with_participants(&shards, &[9], &mut r).is_err());
        assert!(fed
            .round_with_participants(&shards, &[1, 1], &mut r)
            .is_err());
    }

    #[test]
    fn golden_partial_aggregate() {
        // Three devices, weights 2:1:1; device 1's upload is lost, so only
        // devices 0 and 2 are averaged with weights 2:1.
        let updates = vec![vec![1.0, 2.0], vec![3.0, 5.0], vec![10.0, 20.0]];
        let weights = [2.0, 1.0, 1.0];
        let survivors = [0usize, 2];
        let kept: Vec<Vec<f64>> = survivors.iter().map(|&i| updates[i].clone()).collect();
        let kept_w: Vec<f64> = survivors.iter().map(|&i| weights[i]).collect();
        let agg = aggregate_params(&kept, &kept_w).unwrap();
        // Hand-computed: [(2*1 + 1*10)/3, (2*2 + 1*20)/3] = [4, 8].
        assert_eq!(agg, vec![4.0, 8.0]);
        // Full-set sanity: [(2*1 + 3 + 10)/4, (2*2 + 5 + 20)/4].
        let full = aggregate_params(&updates, &weights).unwrap();
        assert_eq!(full, vec![15.0 / 4.0, 29.0 / 4.0]);
    }

    #[test]
    fn aggregate_params_rejects_bad_inputs() {
        let u = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert!(aggregate_params(&[], &[]).is_err());
        assert!(aggregate_params(&u, &[1.0]).is_err());
        assert!(aggregate_params(&[vec![1.0], vec![2.0, 3.0]], &[1.0, 1.0]).is_err());
        assert!(aggregate_params(&u, &[1.0, -1.0]).is_err());
        assert!(aggregate_params(&u, &[1.0, f64::NAN]).is_err());
        assert!(aggregate_params(&u, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn survivor_round_matches_participant_round() {
        let (fed_template, shards) = setup(24, 300, 3, 0.0);
        let mut by_flags = fed_template.clone();
        let mut by_index = fed_template.clone();
        let mut r1 = rng(25);
        let mut r2 = rng(25);
        let a = by_flags
            .round_with_survivors(&shards, &[true, false, true], &mut r1)
            .unwrap();
        let b = by_index
            .round_with_participants(&shards, &[0, 2], &mut r2)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            by_flags.global().export_params(),
            by_index.global().export_params()
        );
        // Arity mismatch is rejected.
        assert!(by_flags
            .round_with_survivors(&shards, &[true, false], &mut r1)
            .is_err());
    }

    #[test]
    fn all_dropped_round_is_a_noop() {
        let (mut fed, shards) = setup(26, 200, 3, 0.0);
        let before = fed.global().export_params();
        let loss_before = fed.global_loss(&shards).unwrap();
        let mut r = rng(27);
        let report = fed
            .round_with_survivors(&shards, &[false, false, false], &mut r)
            .unwrap();
        assert_eq!(fed.global().export_params(), before);
        assert_eq!(report.global_loss, loss_before);
        assert_eq!(report.mean_local_loss, 0.0);
    }

    #[test]
    fn sampled_participation_converges() {
        let (mut fed, shards) = setup(22, 400, 5, 0.0);
        let mut r = rng(23);
        for _ in 0..20 {
            fed.round_with_sampling(&shards, 2, &mut r).unwrap();
        }
        let acc = fed.global_accuracy(&shards).unwrap();
        assert!(acc > 0.9, "accuracy with 2/5 participation: {acc}");
        assert!(fed.round_with_sampling(&shards, 0, &mut r).is_err());
        assert!(fed.round_with_sampling(&shards, 6, &mut r).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let (mut fed, shards) = setup(9, 100, 2, 0.0);
        let mut r = rng(10);
        assert!(fed.round(&[], &mut r).is_err());
        let empty = shards[0].subset(&[]).unwrap();
        assert!(fed.round(&[empty], &mut r).is_err());
        assert!(fed.train_until(&shards, 0.0, 5, &mut r).is_err());
        assert!(fed.global_loss(&[]).is_err());
    }

    #[test]
    fn train_until_reports_non_convergence() {
        let (mut fed, shards) = setup(11, 100, 2, 0.0);
        let mut r = rng(12);
        // Impossible threshold within 1 round.
        let err = fed.train_until(&shards, 1e-12, 1, &mut r).unwrap_err();
        assert!(matches!(err, LearnError::DidNotConverge { rounds: 1, .. }));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (mut fed, shards) = setup(13, 120, 3, 0.2);
            let mut r = rng(seed);
            fed.round(&shards, &mut r).unwrap();
            fed.global().export_params()
        };
        assert_eq!(run(14), run(14));
        assert_ne!(run(14), run(15));
    }
}
