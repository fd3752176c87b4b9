//! Deployable controller snapshots: the serving-side counterpart of the
//! training checkpoint.
//!
//! A training checkpoint (`TrainState`) captures *resumable training*
//! state; it is private to the training loop and useless without the
//! `TrainConfig` that produced it. Serving needs something else: a
//! self-contained artifact that a long-lived decision server can load from
//! disk, validate, and evaluate — with no simulator in the process. That
//! artifact is [`ControllerSnapshot`]:
//!
//! * the trained [`DrlController`] (policy weights, frozen Welford
//!   observation statistics, and the env constants `h`, `H`,
//!   `min_freq_frac`, participation-tail flag, observation layout),
//! * the per-device frequency caps `δ_i^max` captured from the training
//!   fleet — the one piece of system state the squash
//!   ([`crate::squash_actions`]) needs at decision time.
//!
//! Snapshots ride the existing `FLSNAP01` envelope through
//! [`CheckpointStore`], so serving inherits the full crash-safety
//! contract for free: double-buffered `ckpt-A`/`ckpt-B` slots, monotonic
//! sequence numbers, CRC validation, and one-corrupt-slot fallback.
//!
//! [`ControllerSnapshot::decide_rows`] is the batched decision path: `n`
//! observations in, `n` frequency vectors out of
//! [`DrlController::decide_rows`], the one decision body every deployed
//! decision runs (normalize → one tiled policy forward → squash). A row
//! is what [`crate::policy_observation`] builds under the controller's
//! layout and tail — the input the policy was trained on. The
//! blocked kernels compute every output element with a row-count-independent
//! operation sequence and the Welford normalizer is per-element, so row `i`
//! of a batch is bit-identical to evaluating that observation alone —
//! micro-batching in a server never changes served bits
//! (`tests/serve_determinism.rs` enforces this).

use crate::controllers::DrlController;
use crate::{CtrlError, Result};
use fl_rl::snapshot::{crc32, decode_payload, encode_payload, CheckpointStore};
use fl_sim::FleetSim;
use serde::{Deserialize, Serialize};

/// A self-contained, deployable decision artifact: trained controller plus
/// the per-device frequency caps the squash needs at serving time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// The trained policy, normalizer, and env constants.
    pub controller: DrlController,
    /// Per-device `δ_i^max` (GHz) captured from the training fleet, in
    /// device order; one entry per action dimension.
    pub delta_max_ghz: Vec<f64>,
}

/// The configuration fingerprint a server and its clients agree on: every
/// field that changes what a given observation means or how actions map to
/// frequencies. Policy *weights* are deliberately excluded — hot-reloading
/// newer weights of the same configuration must keep the digest stable.
#[derive(Serialize)]
struct ConfigFingerprint {
    obs_dim: usize,
    action_dim: usize,
    slot_h: f64,
    history_len: usize,
    min_freq_frac: f64,
    participation_tail: bool,
    obs_mode: crate::ObsMode,
    delta_max_ghz: Vec<f64>,
}

impl ControllerSnapshot {
    /// Packages a controller with explicit frequency caps.
    pub fn new(controller: DrlController, delta_max_ghz: Vec<f64>) -> Result<Self> {
        if delta_max_ghz.len() != controller.policy().action_dim() {
            return Err(CtrlError::InvalidArgument(format!(
                "{} frequency caps for a {}-action policy",
                delta_max_ghz.len(),
                controller.policy().action_dim()
            )));
        }
        if !delta_max_ghz.iter().all(|d| *d > 0.0 && d.is_finite()) {
            return Err(CtrlError::InvalidArgument(
                "frequency caps must be finite and positive".to_string(),
            ));
        }
        Ok(ControllerSnapshot {
            controller,
            delta_max_ghz,
        })
    }

    /// Packages a controller with the caps of the system it was trained
    /// against — the usual export path after training.
    pub fn from_system(controller: DrlController, sys: &FleetSim) -> Result<Self> {
        Self::new(controller, sys.max_freqs())
    }

    /// Observation dimensionality a decision request must supply (including
    /// the participation tail when the controller was trained with one).
    pub fn obs_dim(&self) -> usize {
        self.controller.policy().obs_dim()
    }

    /// Number of devices / served frequencies per decision.
    pub fn action_dim(&self) -> usize {
        self.controller.policy().action_dim()
    }

    /// Total trainable parameters in the serving policy: the mean network
    /// plus the per-device log-std vector. Exposed as a serving gauge so
    /// scrapes can attribute latency changes to model-size changes.
    pub fn param_count(&self) -> usize {
        let policy = self.controller.policy();
        policy.mean_net().num_params() + policy.log_std().len()
    }

    /// CRC-32 fingerprint of the serving configuration (dimensions, env
    /// constants, observation layout, frequency caps — not the weights). A client pins the
    /// digest of the snapshot it was built against; the server rejects
    /// requests carrying a different one, and refuses to hot-reload a
    /// snapshot whose digest differs from the running one.
    pub fn config_digest(&self) -> Result<u32> {
        let fp = ConfigFingerprint {
            obs_dim: self.obs_dim(),
            action_dim: self.action_dim(),
            slot_h: self.controller.slot_h,
            history_len: self.controller.history_len,
            min_freq_frac: self.controller.min_freq_frac,
            participation_tail: self.controller.participation_tail,
            obs_mode: self.controller.obs_mode,
            delta_max_ghz: self.delta_max_ghz.clone(),
        };
        Ok(crc32(&encode_payload(&fp)?))
    }

    /// Saves this snapshot into `store` (next free slot, `newest seq + 1`).
    /// Returns the new sequence number.
    pub fn save(&self, store: &CheckpointStore) -> Result<u64> {
        Ok(store.save(&encode_payload(self)?)?)
    }

    /// Loads the newest valid snapshot from `store`. `Ok(None)` when the
    /// store is empty; a corrupt newest slot falls back to the survivor per
    /// [`CheckpointStore::load_latest`]; all-corrupt is a structured error.
    pub fn load_latest(store: &CheckpointStore) -> Result<Option<(u64, Self)>> {
        match store.load_latest()? {
            Some((seq, payload)) => {
                let snap: ControllerSnapshot = decode_payload(&payload)?;
                // Re-validate: the payload decoded, but the invariants of
                // `new` must hold for decide_rows to be safe.
                let snap = ControllerSnapshot::new(snap.controller, snap.delta_max_ghz)?;
                Ok(Some((seq, snap)))
            }
            None => Ok(None),
        }
    }

    /// Batched decision: one observation row in, one frequency vector out
    /// ([`DrlController::decide_rows`] against the caps captured at export).
    /// An empty batch decides nothing: serving paths that shed every queued
    /// request before inference rely on this. Bit-identical per row to
    /// [`DrlController`]'s `FrequencyController::decide` on the same
    /// observation.
    pub fn decide_rows(&self, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        self.controller.decide_rows(rows, &self.delta_max_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::FrequencyController;
    use crate::flenv::build_system_with;
    use fl_net::synth::Profile;
    use fl_rl::{GaussianPolicy, RunningNorm};
    use fl_sim::FlConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fedfreq-deploy-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(seed: u64) -> (fl_sim::FleetSim, ControllerSnapshot) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sys = build_system_with(
            3,
            3,
            Profile::Walking4G,
            1200,
            FlConfig::default(),
            &fl_sim::DeviceSampler::default(),
            &mut rng,
        )
        .unwrap();
        let h = 4usize;
        let obs_dim = 3 * (h + 1);
        let policy = GaussianPolicy::new(obs_dim, &[8], 3, -0.5, &mut rng).unwrap();
        let mut norm = RunningNorm::new(obs_dim, 10.0);
        for k in 0..20 {
            let obs = sys
                .observe_bandwidth_state(100.0 + 7.0 * k as f64, 10.0, h)
                .unwrap();
            norm.update(&obs).unwrap();
        }
        let ctrl = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
        let snap = ControllerSnapshot::from_system(ctrl, &sys).unwrap();
        (sys, snap)
    }

    #[test]
    fn construction_validates_caps() {
        let (_, snap) = snapshot(0);
        assert!(ControllerSnapshot::new(snap.controller.clone(), vec![1.0, 2.0]).is_err());
        assert!(ControllerSnapshot::new(snap.controller.clone(), vec![1.0, 2.0, 0.0]).is_err());
        assert!(
            ControllerSnapshot::new(snap.controller.clone(), vec![1.0, 2.0, f64::NAN]).is_err()
        );
        assert_eq!(snap.obs_dim(), 15);
        assert_eq!(snap.action_dim(), 3);
    }

    #[test]
    fn decide_rows_matches_decide_bitwise() {
        let (sys, snap) = snapshot(1);
        let mut ctrl = snap.controller.clone();
        let times = [120.0, 333.0, 708.5, 990.25];
        let rows: Vec<Vec<f64>> = times
            .iter()
            .map(|&t| sys.observe_bandwidth_state(t, 10.0, 4).unwrap())
            .collect();
        let batched = snap.decide_rows(&rows).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let direct = ctrl.decide(0, t, &sys, None).unwrap();
            assert_eq!(batched[i].len(), direct.len());
            for (a, b) in batched[i].iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
        // Singleton batch equals its slice of the larger batch.
        let single = snap.decide_rows(&rows[..1]).unwrap();
        assert_eq!(single[0], batched[0]);
    }

    #[test]
    fn param_count_is_mean_net_plus_log_std() {
        let (_, snap) = snapshot(4);
        // obs_dim 15, hidden [8], action_dim 3:
        // (15*8 + 8) + (8*3 + 3) weights+biases, plus 3 log-std entries.
        let expected = (15 * 8 + 8) + (8 * 3 + 3) + 3;
        assert_eq!(snap.param_count(), expected);
    }

    #[test]
    fn decide_rows_validates_dims() {
        let (_, snap) = snapshot(2);
        assert!(snap.decide_rows(&[vec![0.0; 14]]).is_err());
        assert!(snap.decide_rows(&[vec![0.0; 15], vec![0.0; 16]]).is_err());
    }

    #[test]
    fn decide_rows_empty_batch_decides_nothing() {
        let (_, snap) = snapshot(2);
        assert_eq!(snap.decide_rows(&[]).unwrap(), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn digest_tracks_config_not_weights() {
        let (_, a) = snapshot(3);
        let (_, b) = snapshot(3);
        assert_eq!(a.config_digest().unwrap(), b.config_digest().unwrap());

        // Different weights, same config → same digest.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let policy2 = GaussianPolicy::new(15, &[8], 3, -0.5, &mut rng).unwrap();
        let ctrl2 = DrlController::new(
            policy2,
            a.controller.obs_norm().clone(),
            a.controller.slot_h,
            a.controller.history_len,
            a.controller.min_freq_frac,
        )
        .unwrap();
        let c = ControllerSnapshot::new(ctrl2, a.delta_max_ghz.clone()).unwrap();
        assert_eq!(a.config_digest().unwrap(), c.config_digest().unwrap());

        // Different caps → different digest.
        let mut caps = a.delta_max_ghz.clone();
        caps[0] += 0.25;
        let d = ControllerSnapshot::new(a.controller.clone(), caps).unwrap();
        assert_ne!(a.config_digest().unwrap(), d.config_digest().unwrap());

        // Different env constant → different digest.
        let mut ctrl3 = a.controller.clone();
        ctrl3.min_freq_frac = 0.2;
        let e = ControllerSnapshot::new(ctrl3, a.delta_max_ghz.clone()).unwrap();
        assert_ne!(a.config_digest().unwrap(), e.config_digest().unwrap());
    }

    /// The observation layout changes what a request's row means, so two
    /// snapshots differing only in `obs_mode` must not share a digest.
    #[test]
    fn digest_tracks_obs_mode() {
        let (_, a) = snapshot(3);
        let mut pooled = a.controller.clone();
        pooled.obs_mode = crate::ObsMode::Pooled;
        let b = ControllerSnapshot::new(pooled, a.delta_max_ghz.clone()).unwrap();
        assert_ne!(a.config_digest().unwrap(), b.config_digest().unwrap());
    }

    #[test]
    fn store_roundtrip_preserves_decisions() {
        let (sys, snap) = snapshot(4);
        let store = CheckpointStore::new(temp_dir("rt")).unwrap();
        assert!(ControllerSnapshot::load_latest(&store).unwrap().is_none());
        assert_eq!(snap.save(&store).unwrap(), 1);
        let (seq, back) = ControllerSnapshot::load_latest(&store).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(back.config_digest().unwrap(), snap.config_digest().unwrap());
        let obs = sys.observe_bandwidth_state(250.0, 10.0, 4).unwrap();
        let a = snap.decide_rows(std::slice::from_ref(&obs)).unwrap();
        let b = back.decide_rows(std::slice::from_ref(&obs)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_newest_slot_falls_back() {
        let (_, snap) = snapshot(5);
        let store = CheckpointStore::new(temp_dir("fb")).unwrap();
        snap.save(&store).unwrap(); // seq 1
        snap.save(&store).unwrap(); // seq 2
                                    // Find and corrupt the slot holding seq 2.
        for path in store.slot_paths() {
            let bytes = std::fs::read(&path).unwrap();
            if fl_rl::snapshot::decode_frame(&bytes).unwrap().0 == 2 {
                let mut bad = bytes;
                let last = bad.len() - 1;
                bad[last] ^= 0xFF;
                std::fs::write(&path, &bad).unwrap();
            }
        }
        let (seq, _) = ControllerSnapshot::load_latest(&store).unwrap().unwrap();
        assert_eq!(seq, 1);
        // Corrupt the survivor too (a different byte than above, so the
        // already-bad slot is not accidentally repaired): structured error,
        // never a panic.
        for path in store.slot_paths() {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x55;
            std::fs::write(&path, &bytes).unwrap();
        }
        assert!(ControllerSnapshot::load_latest(&store).is_err());
    }
}
