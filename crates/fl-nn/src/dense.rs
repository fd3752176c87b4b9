//! A fully-connected layer with manual backpropagation.

use crate::{Activation, Init, Matrix, NnError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense (fully-connected) layer: `y = act(x W + b)`.
///
/// `W` is `in_dim x out_dim`, inputs are batched row-wise (`batch x in_dim`).
/// Gradients accumulate into `grad_w` / `grad_b` until [`Dense::zero_grad`];
/// this accumulate-then-step contract is what lets the PPO loss combine
/// several objective terms (surrogate + entropy) before one optimizer step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f64>,
    activation: Activation,
    #[serde(skip)]
    grad_w: Option<Matrix>,
    #[serde(skip)]
    grad_b: Option<Vec<f64>>,
    /// Cached input of the last `forward` call (needed by `backward`).
    #[serde(skip)]
    cached_input: Option<Matrix>,
    /// What [`Activation::derivative`] reads in `backward`: the output of
    /// the last `forward` call, or its pre-activation for Softplus. `None`
    /// for Identity, whose derivative is 1.
    #[serde(skip)]
    cached_act: Option<Matrix>,
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero biases.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Dense {
            w: init.sample(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            activation,
            grad_w: None,
            grad_b: None,
            cached_input: None,
            cached_act: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weights.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Immutable view of the biases.
    pub fn biases(&self) -> &[f64] {
        &self.b
    }

    /// Number of trainable parameters (`in*out + out`).
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass that caches activations for a later [`Dense::backward`].
    /// The input is taken by value, so the batch is cached without an extra
    /// clone; [`crate::Mlp`] threads its hidden activations through here.
    pub fn forward_owned(&mut self, x: Matrix) -> Result<Matrix> {
        let act = self.activation;
        let (out, cached) = if act.derivative_takes_output() {
            let y = self.infer(&x)?;
            let cached = (act != Activation::Identity).then(|| y.clone());
            (y, cached)
        } else {
            let pre = x.matmul_add_bias(&self.w, &self.b)?;
            let mut y = pre.clone();
            act.apply_slice(y.data_mut());
            (y, Some(pre))
        };
        self.cached_input = Some(x);
        self.cached_act = cached;
        Ok(out)
    }

    /// Stateless forward pass for inference (no caches touched). The
    /// activation runs inside each row partition of the pool-split fused
    /// matmul, right after that partition's rows are computed.
    pub fn infer(&self, x: &Matrix) -> Result<Matrix> {
        self.infer_on(x, None)
    }

    /// [`Dense::infer`] at an explicit pool width, for the conformance
    /// check that the partitioned forward equals the serial one.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn infer_with_workers(&self, x: &Matrix, workers: usize) -> Result<Matrix> {
        self.infer_on(x, Some(workers))
    }

    fn infer_on(&self, x: &Matrix, workers: Option<usize>) -> Result<Matrix> {
        let act = self.activation;
        x.affine_then(&self.w, &self.b, workers, |z| act.apply_slice(z))
    }

    /// Backward pass: consumes `dl/dy` for the cached batch, accumulates
    /// `dl/dW`, `dl/db`, and returns `dl/dx`. `dy` is scaled in place into
    /// `dl/dz`.
    ///
    /// Returns an error when called before `forward` or with a gradient whose
    /// shape does not match the cached batch.
    pub fn backward(&mut self, dy: Matrix) -> Result<Matrix> {
        self.accumulate_grads(dy)?.matmul_nt(&self.w)
    }

    /// [`Dense::backward`] without the input gradient: accumulates `dl/dW`
    /// and `dl/db` only, skipping the `dz · Wᵀ` product. The first layer of
    /// an [`crate::Mlp`] runs this, since no caller reads `dl/dx` there.
    pub(crate) fn backward_params(&mut self, dy: Matrix) -> Result<()> {
        self.accumulate_grads(dy).map(drop)
    }

    /// Accumulates `dl/dW += xᵀ dz` and `dl/db += colsum(dz)` and returns
    /// `dz = dy ⊙ act'`.
    fn accumulate_grads(&mut self, dy: Matrix) -> Result<Matrix> {
        let x = self.cached_input.as_ref().ok_or_else(|| {
            NnError::InvalidArgument("backward called before forward".to_string())
        })?;
        let out_shape = (x.rows(), self.out_dim());
        if dy.shape() != out_shape {
            return Err(NnError::ShapeMismatch {
                op: "dense backward",
                lhs: out_shape,
                rhs: dy.shape(),
            });
        }
        // dz = dy (elementwise*) act'; Identity's factor 1 leaves dy as is.
        let mut dz = dy;
        if let Some(cached) = &self.cached_act {
            let act = self.activation;
            for (d, &v) in dz.data_mut().iter_mut().zip(cached.data()) {
                *d *= act.derivative(v);
            }
        }
        // dW += x^T dz ; db += column sums of dz
        let dw = x.matmul_tn(&dz)?;
        match &mut self.grad_w {
            Some(g) => g.axpy(1.0, &dw)?,
            None => self.grad_w = Some(dw),
        }
        let db = dz.col_sums();
        match &mut self.grad_b {
            Some(g) => {
                for (a, b) in g.iter_mut().zip(&db) {
                    *a += b;
                }
            }
            None => self.grad_b = Some(db),
        }
        Ok(dz)
    }

    /// Clears accumulated gradients (not the activation caches).
    pub fn zero_grad(&mut self) {
        self.grad_w = None;
        self.grad_b = None;
    }

    /// Visits `(param, grad)` pairs in a stable order: weights row-major,
    /// then biases. Missing gradients visit as `0.0`.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut f64, f64)) {
        let w = self.w.data_mut();
        match &self.grad_w {
            Some(g) => w.iter_mut().zip(g.data()).for_each(|(p, &g)| f(p, g)),
            None => w.iter_mut().for_each(|p| f(p, 0.0)),
        }
        match &self.grad_b {
            Some(g) => self.b.iter_mut().zip(g).for_each(|(p, &g)| f(p, g)),
            None => self.b.iter_mut().for_each(|p| f(p, 0.0)),
        }
    }

    /// Copies all parameters out in `visit_params` order.
    pub fn export_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.w.data());
        out.extend_from_slice(&self.b);
    }

    /// Loads parameters from `src` in `visit_params` order, returning how
    /// many values were consumed.
    pub fn import_params(&mut self, src: &[f64]) -> Result<usize> {
        let need = self.num_params();
        if src.len() < need {
            return Err(NnError::InvalidArgument(format!(
                "import_params needs {need} values, got {}",
                src.len()
            )));
        }
        let nw = self.w.rows() * self.w.cols();
        self.w.data_mut().copy_from_slice(&src[..nw]);
        self.b.copy_from_slice(&src[nw..need]);
        Ok(need)
    }

    /// Sum of squared gradient entries (for global-norm clipping).
    pub fn grad_sq_sum(&self) -> f64 {
        let gw = self
            .grad_w
            .as_ref()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f64>())
            .unwrap_or(0.0);
        let gb = self
            .grad_b
            .as_ref()
            .map(|g| g.iter().map(|v| v * v).sum::<f64>())
            .unwrap_or(0.0);
        gw + gb
    }

    /// Scales accumulated gradients in place (for clipping / averaging).
    pub fn scale_grads(&mut self, alpha: f64) {
        if let Some(g) = &mut self.grad_w {
            g.scale_inplace(alpha);
        }
        if let Some(g) = &mut self.grad_b {
            for v in g.iter_mut() {
                *v *= alpha;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layer(act: Activation) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        Dense::new(3, 2, act, Init::XavierUniform, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut l = layer(Activation::Tanh);
        let x = Matrix::zeros(5, 3);
        let y = l.forward_owned(x.clone()).unwrap();
        assert_eq!(y.shape(), (5, 2));
    }

    #[test]
    fn infer_matches_forward() {
        let mut l = layer(Activation::Sigmoid);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1);
        let y1 = l.forward_owned(x.clone()).unwrap();
        let y2 = l.infer(&x).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = layer(Activation::Identity);
        assert!(l.backward(Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn backward_shape_mismatch_errors() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::zeros(4, 3);
        l.forward_owned(x.clone()).unwrap();
        assert!(l.backward(Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn identity_layer_gradient_exact() {
        // With identity activation and a single example, gradients have a
        // closed form: dW = x^T dy, db = dy, dx = dy W^T.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut l = Dense::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, -2.0]).unwrap();
        l.forward_owned(x.clone()).unwrap();
        let dy = Matrix::from_vec(1, 2, vec![0.5, 1.5]).unwrap();
        let dx = l.backward(dy.clone()).unwrap();
        let expected_dx = dy.matmul_nt(l.weights()).unwrap();
        assert_eq!(dx, expected_dx);
        let gw = l.grad_w.as_ref().unwrap();
        assert!((gw.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((gw.get(1, 1) + 3.0).abs() < 1e-12);
        assert_eq!(l.grad_b.as_ref().unwrap(), &vec![0.5, 1.5]);
    }

    #[test]
    fn hidden_layer_backward_returns_input_shaped_dx() {
        // A 4-row batch through a 3 -> 2 tanh layer: dl/dx is 4 x 3.
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1);
        l.forward_owned(x).unwrap();
        let dx = l.backward(Matrix::filled(4, 2, 1.0)).unwrap();
        assert_eq!(dx.shape(), (4, 3));
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_params_accumulates_what_backward_does() {
        let x = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.2 - 1.0);
        let dy = Matrix::from_fn(5, 2, |r, c| (r + 2 * c) as f64 * 0.3 - 0.7);
        let (mut full, mut params) = (layer(Activation::Tanh), layer(Activation::Tanh));
        for l in [&mut full, &mut params] {
            l.forward_owned(x.clone()).unwrap();
        }
        full.backward(dy.clone()).unwrap();
        params.backward_params(dy).unwrap();
        assert_eq!(full.grad_w, params.grad_w);
        assert_eq!(full.grad_b, params.grad_b);
        assert!(layer(Activation::Tanh)
            .backward_params(Matrix::zeros(1, 2))
            .is_err());
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.1);
        let dy = Matrix::filled(2, 2, 1.0);
        l.forward_owned(x.clone()).unwrap();
        l.backward(dy.clone()).unwrap();
        let g1 = l.grad_sq_sum();
        l.forward_owned(x.clone()).unwrap();
        l.backward(dy.clone()).unwrap();
        let g2 = l.grad_sq_sum();
        // Doubled gradients => 4x squared sum.
        assert!((g2 - 4.0 * g1).abs() < 1e-9 * g1.max(1.0));
        l.zero_grad();
        assert_eq!(l.grad_sq_sum(), 0.0);
    }

    #[test]
    fn export_import_roundtrip() {
        let l = layer(Activation::Tanh);
        let mut saved = Vec::new();
        l.export_params(&mut saved);
        assert_eq!(saved.len(), l.num_params());
        let mut l2 = layer(Activation::Tanh);
        // Perturb, then restore.
        l2.visit_params(&mut |p, _| *p += 1.0);
        let consumed = l2.import_params(&saved).unwrap();
        assert_eq!(consumed, saved.len());
        let mut restored = Vec::new();
        l2.export_params(&mut restored);
        assert_eq!(saved, restored);
    }

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
    ];

    /// The pre-activation derivative formulas `backward` used before it
    /// read the cached output, verbatim (tanh through the crate's tanh,
    /// which the forward uses).
    fn derivative_at_pre(act: Activation, z: f64) -> f64 {
        match act {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Tanh => {
                let t = crate::tanh(z);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = crate::activation::sigmoid(z);
                s * (1.0 - s)
            }
            Activation::Softplus => crate::activation::sigmoid(z),
        }
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn output_based_derivative_matches_pre_activation_formula() {
        let sub = f64::from_bits(1);
        let max_sub = f64::from_bits(0x000f_ffff_ffff_ffff);
        let mut zs = vec![
            0.0,
            f64::NAN,
            f64::INFINITY,
            sub,
            max_sub,
            1e-300,
            0.5,
            3.0,
            30.0,
        ];
        zs.extend([710.0, 1e308, f64::MIN_POSITIVE, 2f64.powi(-55), 22.0]);
        zs.extend((-40..=40).map(|i| i as f64 * 0.37));
        let negated: Vec<f64> = zs.iter().map(|&z| -z).collect();
        zs.extend(negated);
        for act in ALL {
            assert_eq!(act.derivative_takes_output(), act != Activation::Softplus);
            for &z in &zs {
                let v = if act.derivative_takes_output() {
                    act.apply(z)
                } else {
                    z
                };
                let (new, old) = (act.derivative(v), derivative_at_pre(act, z));
                assert!(
                    same_bits(new, old),
                    "{act:?} at z = {z:e}: {new:e} vs {old:e}"
                );
            }
        }
    }

    /// Through the layer: with `W = 1`, `b = 0` the pre-activation is the
    /// input, so `dl/db` of a one-row batch with `dy = 2` is `2 · f'(z)`,
    /// formed from the cache (the output, or `z` for Softplus).
    #[test]
    fn backward_scales_by_derivative_at_each_pre_activation() {
        let zs = [
            -30.0, -3.0, -0.5, -1e-300, 1e-300, 0.25, 1.0, 2.5, 21.0, 40.0,
        ];
        for act in ALL {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut l = Dense::new(1, 1, act, Init::XavierUniform, &mut rng);
            l.import_params(&[1.0, 0.0]).unwrap();
            for z in zs {
                l.zero_grad();
                let y = l.forward_owned(Matrix::row_vector(&[z])).unwrap();
                assert!(
                    same_bits(y.get(0, 0), act.apply(z)),
                    "{act:?} forward at {z}"
                );
                l.backward(Matrix::row_vector(&[2.0])).unwrap();
                let db = l.grad_b.as_ref().unwrap()[0];
                let want = 2.0 * derivative_at_pre(act, z);
                assert!(
                    same_bits(db, want),
                    "{act:?} at z = {z:e}: {db:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn visit_params_pairs_each_param_with_its_gradient() {
        let mut l = layer(Activation::Identity);
        let mut zeros = Vec::new();
        l.visit_params(&mut |_, g| zeros.push(g));
        assert_eq!(zeros, vec![0.0; l.num_params()]);
        let x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 - 2.5);
        l.forward_owned(x.clone()).unwrap();
        l.backward(Matrix::from_fn(2, 2, |r, c| (r + 2 * c) as f64 + 0.5))
            .unwrap();
        let mut want = l.grad_w.as_ref().unwrap().data().to_vec();
        want.extend_from_slice(l.grad_b.as_ref().unwrap());
        let mut params = Vec::new();
        l.export_params(&mut params);
        let mut seen = Vec::new();
        let mut visited = Vec::new();
        l.visit_params(&mut |p, g| {
            visited.push(*p);
            seen.push(g);
        });
        assert_eq!(seen, want);
        assert_eq!(visited, params);
    }

    #[test]
    fn import_rejects_short_slice() {
        let mut l = layer(Activation::Tanh);
        assert!(l.import_params(&[0.0]).is_err());
    }

    #[test]
    fn scale_grads_scales() {
        let mut l = layer(Activation::Identity);
        let x = Matrix::filled(1, 3, 1.0);
        l.forward_owned(x.clone()).unwrap();
        l.backward(Matrix::filled(1, 2, 1.0)).unwrap();
        let before = l.grad_sq_sum();
        l.scale_grads(0.5);
        let after = l.grad_sq_sum();
        assert!((after - 0.25 * before).abs() < 1e-12 * before.max(1.0));
    }
}
