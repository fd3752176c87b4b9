//! Running observation normalization (Welford's algorithm).

use crate::{Result, RlError};
use fl_nn::Matrix;
use serde::{Deserialize, Serialize};

/// Online per-dimension mean/variance tracker used to whiten observations.
///
/// Raw FL states are bandwidth histories whose magnitude spans two orders of
/// magnitude across trace profiles (0.05–9.5 MB/s); whitening keeps the
/// policy network in its responsive range. Updates are only applied during
/// data collection (the agent freezes the statistics for evaluation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningNorm {
    count: f64,
    mean: Vec<f64>,
    m2: Vec<f64>,
    clip: f64,
}

impl RunningNorm {
    /// Tracker for `dim`-dimensional observations; normalized outputs are
    /// clipped to `[-clip, clip]`.
    pub fn new(dim: usize, clip: f64) -> Self {
        RunningNorm {
            count: 0.0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            clip,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observations absorbed.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Current mean estimate.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current per-dimension standard deviation estimate (1.0 until two
    /// samples are seen).
    pub fn std(&self) -> Vec<f64> {
        if self.count < 2.0 {
            return vec![1.0; self.mean.len()];
        }
        self.m2
            .iter()
            .map(|&m2| (m2 / self.count).sqrt().max(1e-8))
            .collect()
    }

    /// Absorbs one observation (Welford update). Errors on a width other
    /// than [`RunningNorm::dim`].
    #[allow(clippy::needless_range_loop)] // lockstep update of two fields
    pub fn update(&mut self, obs: &[f64]) -> Result<()> {
        self.check_width(0, obs)?;
        self.count += 1.0;
        for i in 0..self.mean.len() {
            let delta = obs[i] - self.mean[i];
            self.mean[i] += delta / self.count;
            let delta2 = obs[i] - self.mean[i];
            self.m2[i] += delta * delta2;
        }
        Ok(())
    }

    /// Whitens a batch of observations with the current statistics, one
    /// matrix row per observation. Errors on any row whose width is not
    /// [`RunningNorm::dim`].
    pub fn normalize_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Result<Matrix> {
        let std = self.std();
        let mut out = Matrix::zeros(rows.len(), self.dim());
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            self.check_width(i, row)?;
            for (z, (&x, (&m, &s))) in out
                .row_mut(i)
                .iter_mut()
                .zip(row.iter().zip(self.mean.iter().zip(&std)))
            {
                *z = ((x - m) / s).clamp(-self.clip, self.clip);
            }
        }
        Ok(out)
    }

    fn check_width(&self, i: usize, obs: &[f64]) -> Result<()> {
        if obs.len() != self.dim() {
            return Err(RlError::InvalidArgument(format!(
                "observation {i} has dim {}, expected {}",
                obs.len(),
                self.dim()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One observation through the batch normalizer.
    fn whiten(n: &RunningNorm, obs: &[f64]) -> Vec<f64> {
        n.normalize_batch(&[obs]).unwrap().into_data()
    }

    #[test]
    fn matches_batch_statistics() {
        let data = [
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let mut n = RunningNorm::new(2, 10.0);
        for d in &data {
            n.update(d).unwrap();
        }
        assert_eq!(n.count(), 4.0);
        assert!((n.mean()[0] - 2.5).abs() < 1e-12);
        assert!((n.mean()[1] - 25.0).abs() < 1e-12);
        // Population std of {1,2,3,4} = sqrt(1.25).
        assert!((n.std()[0] - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn normalize_before_data_is_identityish() {
        let n = RunningNorm::new(2, 5.0);
        assert_eq!(whiten(&n, &[1.0, -2.0]), vec![1.0, -2.0]);
    }

    #[test]
    fn clipping_applies() {
        let mut n = RunningNorm::new(1, 2.0);
        for x in [0.0, 1.0, 0.5, 0.6] {
            n.update(&[x]).unwrap();
        }
        let z = whiten(&n, &[1000.0]);
        assert_eq!(z[0], 2.0);
        let z = whiten(&n, &[-1000.0]);
        assert_eq!(z[0], -2.0);
    }

    #[test]
    fn constant_dimension_does_not_divide_by_zero() {
        let mut n = RunningNorm::new(1, 10.0);
        for _ in 0..5 {
            n.update(&[3.0]).unwrap();
        }
        let z = whiten(&n, &[3.0]);
        assert!(z[0].is_finite());
        assert!(z[0].abs() < 1e-6);
    }

    /// Every row is checked: a row of the wrong width fails the whole batch
    /// (no silent truncation or padding), and neither call mutates state.
    #[test]
    fn width_mismatch_is_an_error() {
        let mut n = RunningNorm::new(2, 10.0);
        n.update(&[1.0, 2.0]).unwrap();
        let before = n.clone();
        assert!(n.update(&[1.0, 2.0, 3.0]).is_err());
        assert!(n.update(&[1.0]).is_err());
        assert_eq!(n, before);
        assert!(n
            .normalize_batch(&[vec![0.5, -0.5], vec![0.5, -0.5, 99.0]])
            .is_err());
        assert!(n.normalize_batch(&[vec![0.5]]).is_err());
        let batch = n.normalize_batch(&[[0.5, -0.5], [1.5, 2.5]]).unwrap();
        assert_eq!(batch.shape(), (2, 2));
        assert_eq!(batch.row(1), whiten(&n, &[1.5, 2.5]).as_slice());
    }

    proptest! {
        /// After many samples, normalizing the sample stream yields roughly
        /// zero mean and unit variance.
        #[test]
        fn prop_whitening(seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut n = RunningNorm::new(1, 10.0);
            let xs: Vec<f64> = (0..500).map(|_| rng.gen_range(5.0..9.0)).collect();
            for x in &xs {
                n.update(&[*x]).unwrap();
            }
            let zs: Vec<f64> = xs.iter().map(|x| whiten(&n, &[*x])[0]).collect();
            let mean = zs.iter().sum::<f64>() / zs.len() as f64;
            let var = zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / zs.len() as f64;
            prop_assert!(mean.abs() < 0.05, "mean={mean}");
            prop_assert!((var - 1.0).abs() < 0.1, "var={var}");
        }
    }
}
