//! Staleness-aware asynchronous federated averaging (FedAsync-style).
//!
//! The counterpart to [`crate::FedAvg`] for the asynchronous protocol
//! simulated by `fl-sim::run_async`: the server applies each device's
//! update the moment it arrives, mixed into the global model with a weight
//! that decays in the update's *staleness* (how many server versions
//! elapsed since the device downloaded its base model). Lets the
//! `abl_sync_async` bench measure the synchronous-vs-asynchronous choice
//! the paper makes by citation.

use crate::local::LocalTrainer;
use crate::{LabeledData, LearnError, Result};
use fl_nn::Mlp;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Server-side configuration for asynchronous aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncFedAvgConfig {
    /// Local optimization settings applied on every device.
    pub local: LocalTrainer,
    /// Base mixing weight `α ∈ (0, 1]` applied to a fresh (staleness-0)
    /// update: `ω ← (1 − w) ω + w ω_local`.
    pub mixing: f64,
    /// Polynomial staleness decay: `w = α / (1 + s)^staleness_power`.
    pub staleness_power: f64,
}

impl Default for AsyncFedAvgConfig {
    fn default() -> Self {
        AsyncFedAvgConfig {
            local: LocalTrainer::default(),
            mixing: 0.6,
            staleness_power: 0.5,
        }
    }
}

impl AsyncFedAvgConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.local.validate()?;
        if !(self.mixing > 0.0 && self.mixing <= 1.0) {
            return Err(LearnError::InvalidArgument(format!(
                "mixing must be in (0, 1], got {}",
                self.mixing
            )));
        }
        if !(self.staleness_power >= 0.0) || !self.staleness_power.is_finite() {
            return Err(LearnError::InvalidArgument(format!(
                "staleness_power must be non-negative, got {}",
                self.staleness_power
            )));
        }
        Ok(())
    }
}

/// Metrics from one applied asynchronous update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncUpdateReport {
    /// Which device's update was applied.
    pub device: usize,
    /// Server versions elapsed since the device's base snapshot.
    pub staleness: usize,
    /// Mixing weight actually used.
    pub weight: f64,
    /// Global loss `F(ω)` (Eq. 8 over all shards) after the update.
    pub global_loss: f64,
}

/// The asynchronous parameter server.
///
/// Devices hold base-model snapshots (taken when they start a round);
/// [`AsyncFedAvg::apply_arrival`] trains from the snapshot and folds the
/// result into the global model with a staleness-discounted weight,
/// re-snapshotting the device for its next round — exactly the event
/// semantics of `fl_sim::run_async` arrivals processed in order.
#[derive(Debug, Clone)]
pub struct AsyncFedAvg {
    global: Mlp,
    config: AsyncFedAvgConfig,
    version: usize,
    /// Per-device (snapshot parameters, snapshot version).
    snapshots: Vec<(Vec<f64>, usize)>,
}

impl AsyncFedAvg {
    /// Initializes the server; every device's first snapshot is the
    /// initial global model.
    pub fn new(global: Mlp, n_devices: usize, config: AsyncFedAvgConfig) -> Result<Self> {
        config.validate()?;
        if n_devices == 0 {
            return Err(LearnError::InvalidArgument(
                "need at least one device".to_string(),
            ));
        }
        let snapshot = (global.export_params(), 0usize);
        Ok(AsyncFedAvg {
            global,
            config,
            version: 0,
            snapshots: vec![snapshot; n_devices],
        })
    }

    /// The current global model.
    #[cfg(test)]
    pub fn global(&self) -> &Mlp {
        &self.global
    }

    /// Server version (number of updates applied).
    #[cfg(test)]
    pub fn version(&self) -> usize {
        self.version
    }

    /// Processes one arrival: local training from the device's snapshot,
    /// staleness-weighted mix into the global model, and a fresh snapshot
    /// for the device's next round.
    pub fn apply_arrival(
        &mut self,
        device: usize,
        shards: &[LabeledData],
        rng: &mut ChaCha8Rng,
    ) -> Result<AsyncUpdateReport> {
        if device >= self.snapshots.len() || device >= shards.len() {
            return Err(LearnError::InvalidArgument(format!(
                "device {device} out of range"
            )));
        }
        if shards[device].is_empty() {
            return Err(LearnError::InvalidArgument(format!(
                "device {device} has an empty shard"
            )));
        }
        let (snapshot, base_version) = self.snapshots[device].clone();
        let staleness = self.version - base_version;

        // Train from the snapshot the device actually downloaded.
        let mut local = self.global.clone();
        local.import_params(&snapshot)?;
        let seed: u64 = rand::Rng::gen(rng);
        let mut local_rng = ChaCha8Rng::seed_from_u64(seed);
        self.config
            .local
            .train(&mut local, &shards[device], &mut local_rng)?;

        // Staleness-discounted server mix.
        let weight =
            self.config.mixing / (1.0 + staleness as f64).powf(self.config.staleness_power);
        self.global.lerp_from(&local, weight)?;
        self.version += 1;
        self.snapshots[device] = (self.global.export_params(), self.version);

        let total: f64 = shards.iter().map(|s| s.len() as f64).sum();
        let mut loss = 0.0;
        for s in shards {
            loss += s.len() as f64 * self.config.local.evaluate_loss(&self.global, s)?;
        }
        Ok(AsyncUpdateReport {
            device,
            staleness,
            weight,
            global_loss: loss / total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, split_non_iid};

    fn setup(seed: u64, n: usize) -> (AsyncFedAvg, Vec<LabeledData>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = gaussian_blobs(300, 2, 5.0, &mut rng).unwrap();
        let shards = split_non_iid(&data, n, 0.2, &mut rng).unwrap();
        let model = LocalTrainer::default_model(2, &mut rng).unwrap();
        let fed = AsyncFedAvg::new(model, n, AsyncFedAvgConfig::default()).unwrap();
        (fed, shards)
    }

    #[test]
    fn config_validation() {
        let mut c = AsyncFedAvgConfig::default();
        assert!(c.validate().is_ok());
        c.mixing = 0.0;
        assert!(c.validate().is_err());
        let c = AsyncFedAvgConfig {
            mixing: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AsyncFedAvgConfig {
            staleness_power: -1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn staleness_tracking() {
        let (mut fed, shards) = setup(0, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // First arrival from each: staleness 0.
        let r0 = fed.apply_arrival(0, &shards, &mut rng).unwrap();
        assert_eq!(r0.staleness, 0);
        assert_eq!(fed.version(), 1);
        // Device 1 started at version 0 but one update landed meanwhile.
        let r1 = fed.apply_arrival(1, &shards, &mut rng).unwrap();
        assert_eq!(r1.staleness, 1);
        // Device 0 re-snapshotted at version 1; two updates since.
        fed.apply_arrival(2, &shards, &mut rng).unwrap();
        let r0b = fed.apply_arrival(0, &shards, &mut rng).unwrap();
        assert_eq!(r0b.staleness, 2);
        // Staler → smaller weight.
        assert!(r0b.weight < r0.weight);
    }

    #[test]
    fn async_training_converges() {
        let (mut fed, shards) = setup(2, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let before = fed.apply_arrival(0, &shards, &mut rng).unwrap().global_loss;
        let mut last = before;
        for k in 0..30 {
            last = fed
                .apply_arrival(k % 3, &shards, &mut rng)
                .unwrap()
                .global_loss;
        }
        assert!(last < before * 0.5, "before={before}, after={last}");
    }

    #[test]
    fn rejects_bad_arrivals() {
        let (mut fed, shards) = setup(4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(fed.apply_arrival(2, &shards, &mut rng).is_err());
        let empty = shards[0].subset(&[]).unwrap();
        assert!(fed
            .apply_arrival(0, &[empty, shards[1].clone()], &mut rng)
            .is_err());
        assert!(AsyncFedAvg::new(
            LocalTrainer::default_model(2, &mut rng).unwrap(),
            0,
            AsyncFedAvgConfig::default()
        )
        .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (mut fed, shards) = setup(6, 2);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for k in 0..6 {
                fed.apply_arrival(k % 2, &shards, &mut rng).unwrap();
            }
            fed.global().export_params()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
