//! Local training on one device's shard.

use crate::{LabeledData, LearnError, Result};
use fl_nn::{loss, Adam, Mlp, Optimizer};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of one device's local optimization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainer {
    /// `τ`: passes over the local data per federated iteration.
    pub epochs: u32,
    /// Minibatch size (clamped to the shard size).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for LocalTrainer {
    fn default() -> Self {
        LocalTrainer {
            epochs: 1,
            batch_size: 32,
            lr: 0.01,
        }
    }
}

impl LocalTrainer {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(LearnError::InvalidArgument(
                "epochs and batch_size must be nonzero".to_string(),
            ));
        }
        if !(self.lr > 0.0) || !self.lr.is_finite() {
            return Err(LearnError::InvalidArgument(format!(
                "lr must be positive and finite, got {}",
                self.lr
            )));
        }
        Ok(())
    }

    /// Checks the model has the one-column head the binary cross-entropy
    /// objective needs.
    fn check_model(&self, model: &Mlp) -> Result<()> {
        if model.out_dim() != 1 {
            return Err(LearnError::InvalidArgument(format!(
                "model head width {} does not match the binary objective (1 expected)",
                model.out_dim()
            )));
        }
        Ok(())
    }

    /// Runs `τ` epochs of minibatch Adam on `model`. Returns the mean
    /// minibatch loss of the final epoch.
    pub fn train(&self, model: &mut Mlp, data: &LabeledData, rng: &mut impl Rng) -> Result<f64> {
        self.validate()?;
        self.check_model(model)?;
        if data.is_empty() {
            return Err(LearnError::InvalidArgument(
                "cannot train on an empty shard".to_string(),
            ));
        }
        let mut opt = Adam::new(model.num_params(), self.lr);
        let bs = self.batch_size.min(data.len());
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let mut last_epoch_loss = 0.0;
        for _ in 0..self.epochs {
            indices.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in indices.chunks(bs) {
                let xb = data.x.gather_rows(chunk)?;
                let yb = data.y.gather_rows(chunk)?;
                let pred = model.try_forward(&xb)?;
                let (l, dl) = loss::binary_cross_entropy(&pred, &yb)?;
                model.zero_grad();
                model.backward(dl)?;
                opt.step(model);
                epoch_loss += l;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f64;
        }
        Ok(last_epoch_loss)
    }

    /// Eq. (7): mean per-sample loss of `model` on a shard, without
    /// touching gradients.
    pub fn evaluate_loss(&self, model: &Mlp, data: &LabeledData) -> Result<f64> {
        self.check_model(model)?;
        if data.is_empty() {
            return Err(LearnError::InvalidArgument(
                "cannot evaluate an empty shard".to_string(),
            ));
        }
        let pred = model.infer(&data.x)?;
        let (l, _) = loss::binary_cross_entropy(&pred, &data.y)?;
        Ok(l)
    }

    /// Classification accuracy of `model` on a shard (0.5 threshold).
    pub fn evaluate_accuracy(&self, model: &Mlp, data: &LabeledData) -> Result<f64> {
        self.check_model(model)?;
        if data.is_empty() {
            return Err(LearnError::InvalidArgument(
                "cannot evaluate an empty shard".to_string(),
            ));
        }
        let pred = model.infer(&data.x)?;
        let correct = pred
            .data()
            .iter()
            .zip(data.y.data())
            .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
            .count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// The default binary model: `dim → 16 → 16 → 1`, tanh hidden, sigmoid
    /// head.
    pub fn default_model(dim: usize, rng: &mut impl Rng) -> Result<Mlp> {
        Ok(Mlp::try_new(
            &[dim, 16, 16, 1],
            fl_nn::Activation::Tanh,
            fl_nn::Activation::Sigmoid,
            rng,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_blobs;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validation() {
        let mut t = LocalTrainer::default();
        assert!(t.validate().is_ok());
        t.epochs = 0;
        assert!(t.validate().is_err());
        let t = LocalTrainer {
            lr: 0.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = LocalTrainer {
            batch_size: 0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn local_training_reduces_loss() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = gaussian_blobs(200, 2, 5.0, &mut rng).unwrap();
        let mut model = LocalTrainer::default_model(2, &mut rng).unwrap();
        let trainer = LocalTrainer {
            epochs: 10,
            ..LocalTrainer::default()
        };
        let before = trainer.evaluate_loss(&model, &data).unwrap();
        trainer.train(&mut model, &data, &mut rng).unwrap();
        let after = trainer.evaluate_loss(&model, &data).unwrap();
        assert!(after < before * 0.5, "before={before}, after={after}");
        let acc = trainer.evaluate_accuracy(&model, &data).unwrap();
        assert!(acc > 0.95, "accuracy={acc}");
    }

    #[test]
    fn objective_model_mismatch_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let data = gaussian_blobs(8, 2, 5.0, &mut rng).unwrap();
        // A three-logit head does not fit the binary objective.
        let mut wide_model = Mlp::try_new(
            &[2, 16, 16, 3],
            fl_nn::Activation::Tanh,
            fl_nn::Activation::Identity,
            &mut rng,
        )
        .unwrap();
        let trainer = LocalTrainer::default();
        assert!(trainer.train(&mut wide_model, &data, &mut rng).is_err());
        assert!(trainer.evaluate_loss(&wide_model, &data).is_err());
        assert!(trainer.evaluate_accuracy(&wide_model, &data).is_err());
    }

    #[test]
    fn empty_shard_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let data = gaussian_blobs(4, 2, 5.0, &mut rng).unwrap();
        let empty = data.subset(&[]).unwrap();
        let mut model = LocalTrainer::default_model(2, &mut rng).unwrap();
        let trainer = LocalTrainer::default();
        assert!(trainer.train(&mut model, &empty, &mut rng).is_err());
        assert!(trainer.evaluate_loss(&model, &empty).is_err());
        assert!(trainer.evaluate_accuracy(&model, &empty).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let make = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let data = gaussian_blobs(64, 2, 4.0, &mut rng).unwrap();
            let mut model = LocalTrainer::default_model(2, &mut rng).unwrap();
            LocalTrainer::default()
                .train(&mut model, &data, &mut rng)
                .unwrap();
            model.export_params()
        };
        assert_eq!(make(5), make(5));
    }

    #[test]
    fn batch_size_larger_than_shard_is_fine() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let data = gaussian_blobs(8, 2, 4.0, &mut rng).unwrap();
        let mut model = LocalTrainer::default_model(2, &mut rng).unwrap();
        let trainer = LocalTrainer {
            batch_size: 1000,
            ..LocalTrainer::default()
        };
        assert!(trainer.train(&mut model, &data, &mut rng).is_ok());
    }
}
