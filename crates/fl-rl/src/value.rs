//! The critic `V(s; θ_v)`.

use crate::Result;
use fl_nn::{Activation, Matrix, Mlp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Value-function network: MLP with a single linear output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueNet {
    net: Mlp,
}

impl ValueNet {
    /// Builds a critic with tanh hidden layers.
    pub fn new(obs_dim: usize, hidden: &[usize], rng: &mut impl Rng) -> Result<Self> {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        Ok(ValueNet {
            net: Mlp::try_new(&sizes, Activation::Tanh, Activation::Identity, rng)?,
        })
    }

    /// Observation dimensionality.
    #[cfg(test)]
    pub fn obs_dim(&self) -> usize {
        self.net.in_dim()
    }

    /// Access to the underlying network (for optimizer binding).
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Read-only access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Values of an observation batch (inference path). The critic head is
    /// a single column, so the network output *is* the value vector — moved
    /// out without the strided column copy.
    pub fn predict_batch(&self, obs: &Matrix) -> Result<Vec<f64>> {
        let out = self.net.infer(obs)?;
        debug_assert_eq!(out.cols(), 1);
        Ok(out.into_data())
    }

    /// Training forward pass (caches activations for backprop).
    pub fn forward(&mut self, obs: &Matrix) -> Result<Matrix> {
        Ok(self.net.try_forward(obs)?)
    }

    /// True when all parameters are finite.
    pub fn is_finite(&self) -> bool {
        self.net.export_params().iter().all(|p| p.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_nn::{loss, Adam, Optimizer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shapes_and_prediction() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let v = ValueNet::new(4, &[8, 8], &mut rng).unwrap();
        assert_eq!(v.obs_dim(), 4);
        let x = v.predict_batch(&Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]));
        assert!(x.unwrap()[0].is_finite());
        let batch = Matrix::zeros(5, 4);
        assert_eq!(v.predict_batch(&batch).unwrap().len(), 5);
        assert!(v.is_finite());
    }

    #[test]
    fn critic_learns_simple_value_function() {
        // V(s) = 3 s0 - s1.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut v = ValueNet::new(2, &[16], &mut rng).unwrap();
        let mut opt = Adam::new(v.net().num_params(), 0.01);
        use rand::Rng;
        let n = 64;
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(n, 1, |r, _| 3.0 * x.get(r, 0) - x.get(r, 1));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let pred = v.forward(&x).unwrap();
            let (l, dl) = loss::mse(&pred, &y).unwrap();
            first.get_or_insert(l);
            last = l;
            v.net_mut().zero_grad();
            v.net_mut().backward(dl).unwrap();
            opt.step(v.net_mut());
        }
        assert!(
            last < first.unwrap() * 0.05,
            "no learning: {first:?} -> {last}"
        );
    }
}
