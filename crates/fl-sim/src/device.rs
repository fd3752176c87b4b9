//! Mobile-device models and fleet sampling.

use crate::{Result, SimError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A closed interval used for uniform sampling of device parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Range {
    /// A constant "range".
    #[cfg(test)]
    pub fn fixed(v: f64) -> Self {
        Range { lo: v, hi: v }
    }

    /// Builds a range, validating `lo <= hi`.
    #[cfg(test)]
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || lo > hi {
            return Err(SimError::InvalidArgument(format!("bad range [{lo}, {hi}]")));
        }
        Ok(Range { lo, hi })
    }

    /// Uniform sample from the range.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// A mobile device participating in federated learning (Table I constants).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobileDevice {
    /// Stable identifier (index into the fleet).
    pub id: usize,
    /// `c_i`: CPU cycles to process one bit of training data.
    pub cycles_per_bit: f64,
    /// `D_i`: size of the local dataset in MB.
    pub data_mb: f64,
    /// `α_i`: effective capacitance in J / (Gcycle · GHz²). The SI
    /// switched-capacitance `κ` maps as `α = κ · 1e27` (so a typical
    /// `κ = 1e-28` becomes `α = 0.1`).
    pub alpha: f64,
    /// `δ_i^max`: maximum CPU-cycle frequency in GHz.
    pub delta_max_ghz: f64,
    /// `e_i`: radio power while uploading, in W (J/s).
    pub tx_power_w: f64,
    /// Index of the bandwidth trace this device follows.
    pub trace_idx: usize,
}

impl MobileDevice {
    /// Validates the device constants.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("cycles_per_bit", self.cycles_per_bit),
            ("data_mb", self.data_mb),
            ("alpha", self.alpha),
            ("delta_max_ghz", self.delta_max_ghz),
        ];
        for (name, v) in positive {
            if !(v > 0.0) || !v.is_finite() {
                return Err(SimError::InvalidArgument(format!(
                    "device {}: {name} must be positive and finite, got {v}",
                    self.id
                )));
            }
        }
        if !(self.tx_power_w >= 0.0) || !self.tx_power_w.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "device {}: tx_power_w must be non-negative, got {}",
                self.id, self.tx_power_w
            )));
        }
        Ok(())
    }

    /// Work for one pass over the local data, in gigacycles:
    /// `c_i · D_i · 8e6 bits/MB / 1e9`.
    pub fn gcycles_per_pass(&self) -> f64 {
        self.cycles_per_bit * self.data_mb * 8.0e6 / 1.0e9
    }

    /// Eq. (1): computation time (s) for `tau` local passes at `delta` GHz.
    pub fn compute_time(&self, tau: u32, delta_ghz: f64) -> f64 {
        tau as f64 * self.gcycles_per_pass() / delta_ghz
    }

    /// CPU energy (J) for `tau` local passes at `delta` GHz — the first term
    /// of Eq. (6) with the `τ` work factor made explicit.
    pub fn compute_energy(&self, tau: u32, delta_ghz: f64) -> f64 {
        self.alpha * tau as f64 * self.gcycles_per_pass() * delta_ghz * delta_ghz
    }

    /// Radio energy (J) for an upload lasting `comm_time` seconds — the
    /// second term of Eq. (6).
    pub fn comm_energy(&self, comm_time: f64) -> f64 {
        self.tx_power_w * comm_time
    }
}

/// Uniform sampler over device constants, defaulting to the paper's
/// Section V-A ranges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSampler {
    /// `D_i` range (MB). Paper: U(50, 100).
    pub data_mb: Range,
    /// `c_i` range (cycles/bit). Paper: U(10, 30).
    pub cycles_per_bit: Range,
    /// `δ^max` range (GHz). Paper: U(1.0, 2.0).
    pub delta_max_ghz: Range,
    /// `α` range (J / (Gcycle · GHz²)); not given by the paper, chosen so
    /// per-iteration CPU energy lands at a few joules (κ ≈ 0.5–2 ×10⁻²⁸).
    pub alpha: Range,
    /// `e_i` range (W); typical LTE uplink power amplifier draw.
    pub tx_power_w: Range,
}

impl Default for DeviceSampler {
    fn default() -> Self {
        DeviceSampler {
            data_mb: Range {
                lo: 50.0,
                hi: 100.0,
            },
            cycles_per_bit: Range { lo: 10.0, hi: 30.0 },
            delta_max_ghz: Range { lo: 1.0, hi: 2.0 },
            alpha: Range { lo: 0.05, hi: 0.2 },
            tx_power_w: Range { lo: 0.1, hi: 0.3 },
        }
    }
}

impl DeviceSampler {
    /// Samples one device; `trace_idx` must be assigned by the caller.
    pub fn sample(&self, id: usize, trace_idx: usize, rng: &mut impl Rng) -> MobileDevice {
        MobileDevice {
            id,
            cycles_per_bit: self.cycles_per_bit.sample(rng),
            data_mb: self.data_mb.sample(rng),
            alpha: self.alpha.sample(rng),
            delta_max_ghz: self.delta_max_ghz.sample(rng),
            tx_power_w: self.tx_power_w.sample(rng),
            trace_idx,
        }
    }

    /// Samples a fleet of `n` devices with the given trace assignment
    /// (one trace index per device).
    pub fn sample_fleet(&self, assignment: &[usize], rng: &mut impl Rng) -> Vec<MobileDevice> {
        assignment
            .iter()
            .enumerate()
            .map(|(id, &trace_idx)| self.sample(id, trace_idx, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn device() -> MobileDevice {
        MobileDevice {
            id: 0,
            cycles_per_bit: 20.0,
            data_mb: 75.0,
            alpha: 0.1,
            delta_max_ghz: 2.0,
            tx_power_w: 0.2,
            trace_idx: 0,
        }
    }

    #[test]
    fn range_validation_and_sampling() {
        assert!(Range::new(2.0, 1.0).is_err());
        assert!(Range::new(f64::NAN, 1.0).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let r = Range::new(1.0, 3.0).unwrap();
        for _ in 0..100 {
            let v = r.sample(&mut rng);
            assert!((1.0..=3.0).contains(&v));
        }
        assert_eq!(Range::fixed(5.0).sample(&mut rng), 5.0);
    }

    #[test]
    fn gcycles_known_value() {
        // 20 cycles/bit * 75 MB * 8e6 bits/MB = 1.2e10 cycles = 12 Gcycles.
        assert!((device().gcycles_per_pass() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn compute_time_eq1() {
        let d = device();
        // 12 Gcycles at 1.5 GHz = 8 s; tau=2 doubles it.
        assert!((d.compute_time(1, 1.5) - 8.0).abs() < 1e-9);
        assert!((d.compute_time(2, 1.5) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn compute_energy_eq6_quadratic_in_freq() {
        let d = device();
        let e1 = d.compute_energy(1, 1.0);
        let e2 = d.compute_energy(1, 2.0);
        assert!((e2 / e1 - 4.0).abs() < 1e-9, "energy must scale with δ²");
        // α τ ε δ² = 0.1 * 1 * 12 * 1 = 1.2 J.
        assert!((e1 - 1.2).abs() < 1e-9);
    }

    #[test]
    fn comm_energy_linear_in_time() {
        let d = device();
        assert!((d.comm_energy(5.0) - 1.0).abs() < 1e-12);
        assert_eq!(d.comm_energy(0.0), 0.0);
    }

    #[test]
    fn energy_time_tradeoff() {
        // Lower frequency: more time, less energy — the paper's core lever.
        let d = device();
        assert!(d.compute_time(1, 1.0) > d.compute_time(1, 2.0));
        assert!(d.compute_energy(1, 1.0) < d.compute_energy(1, 2.0));
    }

    #[test]
    fn validate_catches_bad_constants() {
        let mut d = device();
        d.cycles_per_bit = 0.0;
        assert!(d.validate().is_err());
        let mut d = device();
        d.tx_power_w = -1.0;
        assert!(d.validate().is_err());
        let mut d = device();
        d.alpha = f64::INFINITY;
        assert!(d.validate().is_err());
        assert!(device().validate().is_ok());
    }

    #[test]
    fn sampler_defaults_match_paper_ranges() {
        let s = DeviceSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let fleet = s.sample_fleet(&[0, 1, 2, 0, 1], &mut rng);
        assert_eq!(fleet.len(), 5);
        for (i, d) in fleet.iter().enumerate() {
            assert_eq!(d.id, i);
            assert!((50.0..=100.0).contains(&d.data_mb));
            assert!((10.0..=30.0).contains(&d.cycles_per_bit));
            assert!((1.0..=2.0).contains(&d.delta_max_ghz));
            assert!(d.validate().is_ok());
        }
        assert_eq!(fleet[3].trace_idx, 0);
        assert_eq!(fleet[4].trace_idx, 1);
    }

    #[test]
    fn sampling_deterministic_under_seed() {
        let s = DeviceSampler::default();
        let a = s.sample_fleet(&[0, 1], &mut ChaCha8Rng::seed_from_u64(3));
        let b = s.sample_fleet(&[0, 1], &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    proptest! {
        /// Time–work product is invariant: t(δ) · δ = τ · ε for any δ.
        #[test]
        fn prop_time_freq_product_invariant(delta in 0.1f64..4.0, tau in 1u32..5) {
            let d = device();
            let t = d.compute_time(tau, delta);
            prop_assert!((t * delta - tau as f64 * d.gcycles_per_pass()).abs() < 1e-9);
        }

        /// Energy is monotone increasing in frequency.
        #[test]
        fn prop_energy_monotone(d1 in 0.1f64..4.0, d2 in 0.1f64..4.0) {
            let d = device();
            let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(d.compute_energy(1, lo) <= d.compute_energy(1, hi) + 1e-12);
        }
    }
}
