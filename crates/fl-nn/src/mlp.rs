//! Multi-layer perceptron built from [`Dense`] layers.

use crate::{Activation, Dense, Init, Matrix, NnError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network: a stack of [`Dense`] layers.
///
/// Construction fixes the layer sizes; hidden layers share one activation
/// and the output layer gets its own (typically [`Activation::Identity`] for
/// value heads and Gaussian policy means).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer `sizes` (input, hidden..., output),
    /// using Xavier initialization for hidden layers and a down-scaled final
    /// layer — the standard recipe for stable early PPO updates. Fails if
    /// `sizes` has fewer than two entries or a zero entry.
    pub fn try_new(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if sizes.len() < 2 {
            return Err(NnError::InvalidArgument(
                "an MLP needs at least an input and an output size".to_string(),
            ));
        }
        if sizes.contains(&0) {
            return Err(NnError::InvalidArgument(
                "layer sizes must be nonzero".to_string(),
            ));
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let last = i == sizes.len() - 2;
            let act = if last {
                output_activation
            } else {
                hidden_activation
            };
            let init = if last {
                // Small output init keeps initial policy outputs near zero.
                Init::ScaledXavier { gain: 0.1 }
            } else {
                Init::XavierUniform
            };
            layers.push(Dense::new(sizes[i], sizes[i + 1], act, init, rng));
        }
        Ok(Mlp { layers })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim()).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim()).unwrap_or(0)
    }

    /// The stacked layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Fallible training forward pass. The input is cloned once into the
    /// first layer's cache; every hidden activation is moved, not cloned,
    /// into the next layer via [`Dense::forward_owned`] (the fused
    /// matmul-plus-bias path).
    pub fn try_forward(&mut self, x: &Matrix) -> Result<Matrix> {
        self.try_forward_owned(x.clone())
    }

    /// [`Mlp::try_forward`] taking the input by value: it moves into the
    /// first layer's cache without a copy.
    pub fn try_forward_owned(&mut self, x: Matrix) -> Result<Matrix> {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .ok_or_else(|| NnError::InvalidArgument("forward on an empty MLP".to_string()))?;
        let mut h = first.forward_owned(x)?;
        for layer in rest {
            h = layer.forward_owned(h)?;
        }
        Ok(h)
    }

    /// Stateless inference pass (no gradient caches written). Safe to call
    /// from multiple threads on `&self`. The tiled pass of
    /// [`Mlp::infer_tiled`] over the rows of `x`.
    pub fn infer(&self, x: &Matrix) -> Result<Matrix> {
        self.infer_tiled(&crate::TiledInput::Rows(x))
    }

    /// Backpropagates `dl/dy` through the cached batch, accumulating
    /// parameter gradients in every layer. The gradient is threaded through
    /// the layers by value; each scales it in place. The first layer stops
    /// at its parameters: no caller reads `dl/dx`, so its `dz · Wᵀ` is
    /// never formed.
    pub fn backward(&mut self, dloss_dout: Matrix) -> Result<()> {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .ok_or_else(|| NnError::InvalidArgument("backward on an empty MLP".to_string()))?;
        let d = rest
            .iter_mut()
            .rev()
            .try_fold(dloss_dout, |d, layer| layer.backward(d))?;
        first.backward_params(d)
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every `(param, grad)` pair in a stable order (layer by layer).
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for layer in &mut self.layers {
            layer.visit_params(&mut f);
        }
    }

    /// Flattens all parameters into a vector (stable order).
    pub fn export_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            layer.export_params(&mut out);
        }
        out
    }

    /// Restores parameters from [`Mlp::export_params`] output.
    pub fn import_params(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.num_params() {
            return Err(NnError::InvalidArgument(format!(
                "import_params expected {} values, got {}",
                self.num_params(),
                params.len()
            )));
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.import_params(&params[offset..])?;
        }
        Ok(())
    }

    /// Global gradient L2 norm across all layers.
    pub fn grad_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(Dense::grad_sq_sum)
            .sum::<f64>()
            .sqrt()
    }

    /// Clips gradients to a maximum global L2 norm. Returns the pre-clip
    /// norm. Standard PPO stabilization.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for layer in &mut self.layers {
                layer.scale_grads(scale);
            }
        }
        norm
    }

    /// Interpolates parameters toward `other`: `self = (1-tau) self + tau other`.
    /// Used for soft target-network style sync and FedAvg mixing tests.
    pub fn lerp_from(&mut self, other: &Mlp, tau: f64) -> Result<()> {
        let theirs = other.export_params();
        if theirs.len() != self.num_params() {
            return Err(NnError::InvalidArgument(
                "lerp_from requires identical architectures".to_string(),
            ));
        }
        let mut i = 0;
        self.visit_params(|p, _| {
            *p = (1.0 - tau) * *p + tau * theirs[i];
            i += 1;
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net() -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        Mlp::try_new(
            &[3, 8, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(Mlp::try_new(&[3], Activation::Tanh, Activation::Identity, &mut rng).is_err());
        assert!(Mlp::try_new(&[3, 0], Activation::Tanh, Activation::Identity, &mut rng).is_err());
    }

    #[test]
    fn dims_and_param_count() {
        let n = net();
        assert_eq!(n.in_dim(), 3);
        assert_eq!(n.out_dim(), 2);
        // (3*8+8) + (8*8+8) + (8*2+2) = 32 + 72 + 18 = 122
        assert_eq!(n.num_params(), 122);
        assert_eq!(n.layers().len(), 3);
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut n = net();
        let x = Matrix::from_fn(5, 3, |r, c| (r as f64 - c as f64) * 0.3);
        assert_eq!(n.try_forward(&x).unwrap(), n.infer(&x).unwrap());
    }

    #[test]
    fn export_import_roundtrip() {
        let n = net();
        let p = n.export_params();
        let mut n2 = net();
        n2.visit_params(|v, _| *v += 0.5);
        n2.import_params(&p).unwrap();
        assert_eq!(n2.export_params(), p);
        assert!(n2.import_params(&p[..10]).is_err());
    }

    #[test]
    fn backward_produces_finite_grads() {
        let mut n = net();
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1);
        let y = n.try_forward(&x).unwrap();
        n.zero_grad();
        n.backward(Matrix::filled(y.rows(), y.cols(), 1.0)).unwrap();
        assert!(n.grad_norm().is_finite());
        assert!(n.grad_norm() > 0.0);
    }

    #[test]
    fn clip_grad_norm_enforced() {
        let mut n = net();
        let x = Matrix::filled(8, 3, 1.0);
        let y = n.try_forward(&x).unwrap();
        n.zero_grad();
        n.backward(Matrix::filled(y.rows(), y.cols(), 100.0))
            .unwrap();
        let pre = n.clip_grad_norm(0.5);
        assert!(pre > 0.5);
        assert!((n.grad_norm() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lerp_full_copies() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let a = Mlp::try_new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        let mut b =
            Mlp::try_new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        b.lerp_from(&a, 1.0).unwrap();
        assert_eq!(a.export_params(), b.export_params());
    }

    #[test]
    fn lerp_rejects_architecture_mismatch() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let a = Mlp::try_new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        let mut b =
            Mlp::try_new(&[2, 5, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        assert!(b.lerp_from(&a, 0.5).is_err());
    }

    #[test]
    fn deterministic_construction() {
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let a = Mlp::try_new(&[4, 6, 2], Activation::Relu, Activation::Identity, &mut r1).unwrap();
        let b = Mlp::try_new(&[4, 6, 2], Activation::Relu, Activation::Identity, &mut r2).unwrap();
        assert_eq!(a.export_params(), b.export_params());
    }
}
