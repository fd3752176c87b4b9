//! Seeded, fully deterministic fault injection.
//!
//! The paper's synchronized-iteration model (Eqs. 1–6) assumes every device
//! is merely *slow*; real fleets also drop out, stall mid-upload, and lose
//! their radio link entirely. This module layers those failure modes over
//! the clean physics without giving up PR 1's determinism contract:
//!
//! * [`FaultModel`] — the *distribution* of faults (per-iteration dropout /
//!   straggler / upload-failure / blackout probabilities, factor ranges,
//!   and an optional server-side timeout cutoff).
//! * [`FaultPlan`] — a seeded realization schedule. `faults_at(k)` derives
//!   iteration `k`'s faults *statelessly*: a fresh ChaCha8 keyed by the
//!   plan seed with the **stream index set to `k`**. Random access by
//!   construction — any worker can materialize any iteration's faults in
//!   any order and get bit-identical results.
//! * [`FleetFaults`] / [`DeviceFault`] — the realized per-iteration
//!   schedule (one column per fault channel) and its per-device view,
//!   consumed by the round kernel behind both `FleetSim` folds.
//! * [`DeviceStatus`] — what each device's round amounted to
//!   (Completed / Straggled / Dropped / Failed).
//!
//! The per-device draw count from the ChaCha8 stream is fixed (seven draws,
//! unconditional), so changing one probability in the model never shifts
//! the noise driving the other fault channels.

use crate::{Result, SimError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How one device's synchronized iteration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeviceStatus {
    /// Finished compute + upload cleanly; update arrived at the server.
    #[default]
    Completed,
    /// Finished and its update arrived, but a fault slowed it down
    /// (compute/communication inflation or a blackout pause).
    Straggled,
    /// Skipped the round entirely: no time spent, no energy spent, no
    /// update. Excluded from `T^k`.
    Dropped,
    /// Spent its full time and energy but the update was lost (upload
    /// failure) or arrived after the server's timeout cutoff.
    Failed,
}

impl DeviceStatus {
    /// True when the device's update reached the aggregator (Completed or
    /// Straggled) — the "surviving set" FedAvg averages over.
    pub fn survived(self) -> bool {
        matches!(self, DeviceStatus::Completed | DeviceStatus::Straggled)
    }
}

/// Distribution of faults: per-device, per-iteration probabilities and
/// factor ranges. All probabilities are independent per device and per
/// iteration; dropout trumps every other channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// P(device skips the round entirely).
    pub dropout_prob: f64,
    /// P(device is a straggler this round).
    pub straggler_prob: f64,
    /// Straggler slowdown factor lower bound (≥ 1; multiplies both
    /// `t_cmp` and the active upload airtime).
    pub straggler_min: f64,
    /// Straggler slowdown factor upper bound (≥ `straggler_min`).
    pub straggler_max: f64,
    /// P(upload completes but the update is lost — energy spent for
    /// nothing).
    pub upload_fail_prob: f64,
    /// P(a bandwidth blackout window opens for the device this round).
    pub blackout_prob: f64,
    /// Blackout window start offset from iteration start, upper bound (s);
    /// the start is drawn uniformly from `[0, blackout_offset_max_s]`.
    pub blackout_offset_max_s: f64,
    /// Blackout duration lower bound (s).
    pub blackout_min_s: f64,
    /// Blackout duration upper bound (s, ≥ `blackout_min_s`).
    pub blackout_max_s: f64,
    /// Server-side cutoff: the aggregator waits at most this long per
    /// iteration. Devices finishing later are `Failed` (energy still
    /// spent); `T^k` is capped at this value. `None` = wait forever.
    pub timeout_s: Option<f64>,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

impl FaultModel {
    /// The fault-free model: every probability zero, factors 1, no
    /// timeout. Guaranteed bit-identical to the non-faulty code path.
    pub fn none() -> Self {
        FaultModel {
            dropout_prob: 0.0,
            straggler_prob: 0.0,
            straggler_min: 1.0,
            straggler_max: 1.0,
            upload_fail_prob: 0.0,
            blackout_prob: 0.0,
            blackout_offset_max_s: 0.0,
            blackout_min_s: 0.0,
            blackout_max_s: 0.0,
            timeout_s: None,
        }
    }

    /// A ready-made chaos preset: the given dropout and straggler rates
    /// plus mild upload-failure (5%) and blackout (10%, 5–20 s windows
    /// within the first 30 s) channels and a `timeout_s` cutoff.
    pub fn chaos(dropout_prob: f64, straggler_prob: f64, timeout_s: Option<f64>) -> Self {
        FaultModel {
            dropout_prob,
            straggler_prob,
            straggler_min: 1.5,
            straggler_max: 4.0,
            upload_fail_prob: 0.05,
            blackout_prob: 0.1,
            blackout_offset_max_s: 30.0,
            blackout_min_s: 5.0,
            blackout_max_s: 20.0,
            timeout_s,
        }
    }

    /// True when this model can never produce a fault — the whole
    /// injection layer is skipped (no RNG draws, no behavior change).
    pub fn is_none(&self) -> bool {
        self.dropout_prob == 0.0
            && self.straggler_prob == 0.0
            && self.upload_fail_prob == 0.0
            && self.blackout_prob == 0.0
            && self.timeout_s.is_none()
    }

    /// Validates probabilities, factor ranges, and the timeout.
    pub fn validate(&self) -> Result<()> {
        let probs = [
            ("dropout_prob", self.dropout_prob),
            ("straggler_prob", self.straggler_prob),
            ("upload_fail_prob", self.upload_fail_prob),
            ("blackout_prob", self.blackout_prob),
        ];
        for (name, p) in probs {
            // `contains` is false for NaN, so NaN is rejected too.
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidArgument(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if !(self.straggler_min >= 1.0) || !self.straggler_min.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "straggler_min must be >= 1, got {}",
                self.straggler_min
            )));
        }
        if !(self.straggler_max >= self.straggler_min) || !self.straggler_max.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "straggler_max must be >= straggler_min, got {}",
                self.straggler_max
            )));
        }
        if !(self.blackout_offset_max_s >= 0.0) || !self.blackout_offset_max_s.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "blackout_offset_max_s must be >= 0, got {}",
                self.blackout_offset_max_s
            )));
        }
        if !(self.blackout_min_s >= 0.0) || !self.blackout_min_s.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "blackout_min_s must be >= 0, got {}",
                self.blackout_min_s
            )));
        }
        if !(self.blackout_max_s >= self.blackout_min_s) || !self.blackout_max_s.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "blackout_max_s must be >= blackout_min_s, got {}",
                self.blackout_max_s
            )));
        }
        if let Some(t) = self.timeout_s {
            if !(t > 0.0) || !t.is_finite() {
                return Err(SimError::InvalidArgument(format!(
                    "timeout_s must be positive and finite, got {t}"
                )));
            }
        }
        Ok(())
    }
}

/// The realized fault for one device in one iteration. The default value
/// is the benign no-fault case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceFault {
    /// Device skips the round entirely.
    pub dropout: bool,
    /// Upload completes but the update is lost.
    pub upload_fail: bool,
    /// Multiplies compute time *and* compute energy (work is re-run).
    pub cmp_factor: f64,
    /// Multiplies the active upload airtime (and hence radio energy).
    pub com_factor: f64,
    /// Blackout window start, seconds after iteration start.
    pub blackout_start_s: f64,
    /// Blackout window duration in seconds; `0` = no blackout.
    pub blackout_dur_s: f64,
}

impl Default for DeviceFault {
    fn default() -> Self {
        DeviceFault {
            dropout: false,
            upload_fail: false,
            cmp_factor: 1.0,
            com_factor: 1.0,
            blackout_start_s: 0.0,
            blackout_dur_s: 0.0,
        }
    }
}

impl DeviceFault {
    /// True when this fault changes nothing about the device's round.
    pub fn is_benign(&self) -> bool {
        !self.dropout
            && !self.upload_fail
            && self.cmp_factor == 1.0
            && self.com_factor == 1.0
            && self.blackout_dur_s == 0.0
    }
}

/// The realized fault schedule for one synchronized round, in
/// struct-of-arrays form: one parallel `Vec` per fault channel, so a
/// million-device schedule is six flat columns rather than a vector of
/// structs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaults {
    /// Device skips the round entirely.
    pub dropout: Vec<bool>,
    /// Update is computed and uploaded but lost.
    pub upload_fail: Vec<bool>,
    /// Compute time/energy multiplier (1.0 = nominal).
    pub cmp_factor: Vec<f64>,
    /// Upload airtime multiplier (1.0 = nominal).
    pub com_factor: Vec<f64>,
    /// Blackout window start relative to the round start (s).
    pub blackout_start_s: Vec<f64>,
    /// Blackout window duration (s); `0.0` disables the window.
    pub blackout_dur_s: Vec<f64>,
    /// Server-side per-device timeout (s), if any.
    pub timeout_s: Option<f64>,
}

impl FleetFaults {
    /// The benign schedule for `n` devices: multiplies by 1.0 and caps at
    /// +∞, exact identities in IEEE arithmetic, so a benign round is
    /// bit-identical to one evaluated without a fault layer.
    pub fn none(n: usize) -> Self {
        FleetFaults {
            dropout: vec![false; n],
            upload_fail: vec![false; n],
            cmp_factor: vec![1.0; n],
            com_factor: vec![1.0; n],
            blackout_start_s: vec![0.0; n],
            blackout_dur_s: vec![0.0; n],
            timeout_s: None,
        }
    }

    /// Realizes iteration `k` of a [`FaultPlan`] (random access: any
    /// iteration, any order, no per-round state).
    pub fn realize(plan: &FaultPlan, k: u64) -> Self {
        plan.faults_at(k)
    }

    /// Number of devices covered.
    pub fn len(&self) -> usize {
        self.dropout.len()
    }

    /// True when the schedule covers zero devices.
    pub fn is_empty(&self) -> bool {
        self.dropout.is_empty()
    }

    /// Checks that every channel covers exactly `n` devices (the columns
    /// are public, so a deserialized schedule may be ragged).
    pub(crate) fn check_len(&self, n: usize) -> Result<()> {
        let lens = [
            self.dropout.len(),
            self.upload_fail.len(),
            self.cmp_factor.len(),
            self.com_factor.len(),
            self.blackout_start_s.len(),
            self.blackout_dur_s.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(SimError::InvalidArgument(format!(
                "expected {n} device faults in every channel, got {lens:?}"
            )));
        }
        Ok(())
    }

    /// Device `i`'s fault as a [`DeviceFault`] view.
    pub fn device(&self, i: usize) -> DeviceFault {
        DeviceFault {
            dropout: self.dropout[i],
            upload_fail: self.upload_fail[i],
            cmp_factor: self.cmp_factor[i],
            com_factor: self.com_factor[i],
            blackout_start_s: self.blackout_start_s[i],
            blackout_dur_s: self.blackout_dur_s[i],
        }
    }
}

/// A seeded fault schedule: `(model, n_devices, seed)` fully determine the
/// faults of every iteration.
///
/// # Determinism contract
///
/// `faults_at(k)` seeds a fresh `ChaCha8Rng` with the plan seed and sets
/// its **stream** to `k`, so iteration schedules are independent of the
/// order (and thread) in which they are materialized. Same seed + same
/// model + same `k` → bit-identical [`FleetFaults`], at any worker
/// count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    model: FaultModel,
    n_devices: usize,
    seed: u64,
}

impl FaultPlan {
    /// Builds a plan, validating the model and device count.
    pub fn new(model: FaultModel, n_devices: usize, seed: u64) -> Result<Self> {
        model.validate()?;
        if n_devices == 0 {
            return Err(SimError::InvalidArgument(
                "fault plan needs at least one device".to_string(),
            ));
        }
        Ok(FaultPlan {
            model,
            n_devices,
            seed,
        })
    }

    /// The fault distribution this plan realizes.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Number of devices the plan covers.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Realizes iteration `k`'s fault schedule (random access, stateless).
    ///
    /// Seven draws per device, unconditional, in a fixed order — so the
    /// realization of one fault channel never depends on another channel's
    /// probability. Dropout trumps the other channels.
    pub fn faults_at(&self, k: u64) -> FleetFaults {
        if self.model.is_none() {
            return FleetFaults::none(self.n_devices);
        }
        let m = &self.model;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_stream(k);
        let n = self.n_devices;
        let mut out = FleetFaults {
            dropout: Vec::with_capacity(n),
            upload_fail: Vec::with_capacity(n),
            cmp_factor: Vec::with_capacity(n),
            com_factor: Vec::with_capacity(n),
            blackout_start_s: Vec::with_capacity(n),
            blackout_dur_s: Vec::with_capacity(n),
            timeout_s: m.timeout_s,
        };
        for _ in 0..n {
            let u_drop: f64 = rng.gen();
            let u_strag: f64 = rng.gen();
            let factor: f64 = rng.gen_range(m.straggler_min..=m.straggler_max);
            let u_fail: f64 = rng.gen();
            let u_blackout: f64 = rng.gen();
            let blackout_start: f64 = rng.gen_range(0.0..=m.blackout_offset_max_s);
            let blackout_dur: f64 = rng.gen_range(m.blackout_min_s..=m.blackout_max_s);

            let dropout = u_drop < m.dropout_prob;
            let straggles = !dropout && u_strag < m.straggler_prob;
            let blacked_out = !dropout && u_blackout < m.blackout_prob && blackout_dur > 0.0;
            out.dropout.push(dropout);
            out.upload_fail
                .push(!dropout && u_fail < m.upload_fail_prob);
            out.cmp_factor.push(if straggles { factor } else { 1.0 });
            out.com_factor.push(if straggles { factor } else { 1.0 });
            out.blackout_start_s
                .push(if blacked_out { blackout_start } else { 0.0 });
            out.blackout_dur_s
                .push(if blacked_out { blackout_dur } else { 0.0 });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_model_is_benign_and_skips_rng() {
        let plan = FaultPlan::new(FaultModel::none(), 4, 123).unwrap();
        let f = plan.faults_at(0);
        assert_eq!(f, FleetFaults::none(4));
        assert!((0..f.len()).all(|i| f.device(i).is_benign()));
        assert!(FaultModel::none().is_none());
        assert!(FaultModel::default().is_none());
    }

    #[test]
    fn chaos_preset_is_valid_and_not_none() {
        let m = FaultModel::chaos(0.2, 0.3, Some(60.0));
        assert!(m.validate().is_ok());
        assert!(!m.is_none());
        // A timeout alone makes the model non-trivial.
        let t = FaultModel {
            timeout_s: Some(10.0),
            ..FaultModel::none()
        };
        assert!(!t.is_none());
    }

    #[test]
    fn validation_rejects_bad_models() {
        let bad = |f: fn(&mut FaultModel)| {
            let mut m = FaultModel::chaos(0.1, 0.1, None);
            f(&mut m);
            m.validate()
        };
        assert!(bad(|m| m.dropout_prob = -0.1).is_err());
        assert!(bad(|m| m.straggler_prob = 1.5).is_err());
        assert!(bad(|m| m.upload_fail_prob = f64::NAN).is_err());
        assert!(bad(|m| m.straggler_min = 0.5).is_err());
        assert!(bad(|m| m.straggler_max = 1.0).is_err()); // < min (1.5)
        assert!(bad(|m| m.blackout_offset_max_s = -1.0).is_err());
        assert!(bad(|m| m.blackout_max_s = 1.0).is_err()); // < min (5.0)
        assert!(bad(|m| m.timeout_s = Some(0.0)).is_err());
        assert!(bad(|m| m.timeout_s = Some(f64::INFINITY)).is_err());
        assert!(FaultPlan::new(FaultModel::none(), 0, 1).is_err());
    }

    #[test]
    fn faults_at_is_stateless_and_order_independent() {
        let plan = FaultPlan::new(FaultModel::chaos(0.3, 0.3, Some(50.0)), 5, 99).unwrap();
        let forward: Vec<FleetFaults> = (0..20).map(|k| plan.faults_at(k)).collect();
        let backward: Vec<FleetFaults> = (0..20).rev().map(|k| plan.faults_at(k)).collect();
        for (k, f) in forward.iter().enumerate() {
            assert_eq!(*f, backward[19 - k], "iteration {k} not random-access");
            assert_eq!(*f, plan.faults_at(k as u64), "iteration {k} not stateless");
        }
    }

    #[test]
    fn different_seeds_or_iterations_differ() {
        let model = FaultModel::chaos(0.5, 0.5, None);
        let a = FaultPlan::new(model, 8, 1).unwrap();
        let b = FaultPlan::new(model, 8, 2).unwrap();
        assert_ne!(a.faults_at(0), b.faults_at(0), "seed must matter");
        assert_ne!(a.faults_at(0), a.faults_at(1), "iteration must matter");
    }

    #[test]
    fn dropout_trumps_other_channels() {
        // With every probability 1, all devices drop — and a dropped device
        // reports no other fault.
        let model = FaultModel {
            dropout_prob: 1.0,
            straggler_prob: 1.0,
            upload_fail_prob: 1.0,
            blackout_prob: 1.0,
            ..FaultModel::chaos(1.0, 1.0, Some(10.0))
        };
        let plan = FaultPlan::new(model, 6, 7).unwrap();
        for k in 0..10 {
            let f = plan.faults_at(k);
            assert!(f.dropout.iter().all(|&d| d));
            assert!(f.upload_fail.iter().all(|&u| !u));
            assert!(f.cmp_factor.iter().all(|&c| c == 1.0));
            assert!(f.blackout_dur_s.iter().all(|&b| b == 0.0));
        }
    }

    proptest! {
        /// Dropout probability 0 → no device ever drops; probability 1 →
        /// every device drops, every iteration.
        #[test]
        fn prop_dropout_extremes(seed in 0u64..1000, k in 0u64..100) {
            let never = FaultPlan::new(
                FaultModel { dropout_prob: 0.0, ..FaultModel::chaos(0.0, 0.5, None) },
                4,
                seed,
            ).unwrap();
            prop_assert!(never.faults_at(k).dropout.iter().all(|&d| !d));
            let always = FaultPlan::new(
                FaultModel { dropout_prob: 1.0, ..FaultModel::chaos(1.0, 0.5, None) },
                4,
                seed,
            ).unwrap();
            prop_assert!(always.faults_at(k).dropout.iter().all(|&d| d));
        }

        /// Straggler factors drawn from the model always respect the
        /// configured `[min, max]` range and never fall below 1.
        #[test]
        fn prop_straggler_factor_in_range(
            seed in 0u64..1000,
            k in 0u64..50,
            lo in 1.0f64..3.0,
            span in 0.0f64..4.0,
        ) {
            let model = FaultModel {
                straggler_prob: 1.0,
                straggler_min: lo,
                straggler_max: lo + span,
                ..FaultModel::chaos(0.0, 1.0, None)
            };
            let plan = FaultPlan::new(model, 3, seed).unwrap();
            let f = plan.faults_at(k);
            for (&cmp, &com) in f.cmp_factor.iter().zip(&f.com_factor) {
                prop_assert!(cmp >= 1.0);
                prop_assert!(cmp >= lo && cmp <= lo + span);
                prop_assert!(com == cmp);
            }
        }

        /// The realized schedule is a pure function of (seed, model, k).
        #[test]
        fn prop_schedule_deterministic(seed in 0u64..10_000, k in 0u64..1000) {
            let model = FaultModel::chaos(0.25, 0.25, Some(40.0));
            let a = FaultPlan::new(model, 5, seed).unwrap();
            let b = FaultPlan::new(model, 5, seed).unwrap();
            prop_assert_eq!(a.faults_at(k), b.faults_at(k));
        }
    }
}
