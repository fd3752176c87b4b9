//! Finite-difference gradient verification.
//!
//! Used by the test-suite (and available to downstream crates' tests) to
//! prove that every analytic backward pass in the workspace matches the
//! numerical gradient of its loss.

use crate::{Matrix, Mlp, Result};

/// Outcome of a [`grad_check`] run.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_diff: f64,
    /// Largest relative difference (normalized by magnitude sum + 1e-8).
    pub max_rel_diff: f64,
    /// Number of parameters compared.
    pub num_params: usize,
}

impl GradCheckReport {
    /// True when both error measures are below `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }
}

/// Compares the network's analytic gradients against central finite
/// differences of `loss_fn` for every parameter.
///
/// `loss_fn` must be a pure function of the network (and captured data): it
/// is invoked `2 * num_params + 1` times. The analytic gradient is taken
/// from whatever is accumulated after calling `backward_fn`, which should
/// zero grads, forward, and backward exactly once.
pub fn grad_check(
    net: &mut Mlp,
    mut loss_fn: impl FnMut(&mut Mlp) -> f64,
    mut backward_fn: impl FnMut(&mut Mlp),
    eps: f64,
) -> Result<GradCheckReport> {
    // Analytic gradients.
    backward_fn(net);
    let mut analytic = Vec::with_capacity(net.num_params());
    net.visit_params(|_, g| analytic.push(g));

    // Numeric gradients by central differences on the flat parameter vector.
    let base = net.export_params();
    let mut max_abs: f64 = 0.0;
    let mut max_rel: f64 = 0.0;
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        net.import_params(&plus)?;
        let lp = loss_fn(net);

        let mut minus = base.clone();
        minus[i] -= eps;
        net.import_params(&minus)?;
        let lm = loss_fn(net);

        let fd = (lp - lm) / (2.0 * eps);
        let abs = (fd - analytic[i]).abs();
        let rel = abs / (fd.abs() + analytic[i].abs() + 1e-8);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.min(1.0).max(rel);
    }
    net.import_params(&base)?;
    Ok(GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        num_params: base.len(),
    })
}

/// Convenience: checks the MSE loss of `net` on `(x, y)`.
pub fn grad_check_mse(net: &mut Mlp, x: &Matrix, y: &Matrix, eps: f64) -> Result<GradCheckReport> {
    let xc = x.clone();
    let yc = y.clone();
    let loss_fn = move |n: &mut Mlp| {
        let pred = n.try_forward(&xc).unwrap();
        crate::loss::mse(&pred, &yc).expect("shapes fixed").0
    };
    let xb = x.clone();
    let yb = y.clone();
    let backward_fn = move |n: &mut Mlp| {
        let pred = n.try_forward(&xb).unwrap();
        let (_, dl) = crate::loss::mse(&pred, &yb).expect("shapes fixed");
        n.zero_grad();
        n.backward(dl).expect("backward after forward");
    };
    grad_check(net, loss_fn, backward_fn, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn data(rng: &mut ChaCha8Rng, n: usize, din: usize, dout: usize) -> (Matrix, Matrix) {
        use rand::Rng;
        let x = Matrix::from_fn(n, din, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(n, dout, |_, _| rng.gen_range(-1.0..1.0));
        (x, y)
    }

    #[test]
    fn tanh_network_gradients_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut net =
            Mlp::try_new(&[3, 8, 2], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        let (x, y) = data(&mut rng, 5, 3, 2);
        let report = grad_check_mse(&mut net, &x, &y, 1e-5).unwrap();
        assert!(report.passes(1e-5), "{report:?}");
        assert_eq!(report.num_params, net.num_params());
    }

    #[test]
    fn sigmoid_network_gradients_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut net = Mlp::try_new(
            &[2, 6, 6, 1],
            Activation::Sigmoid,
            Activation::Identity,
            &mut rng,
        )
        .unwrap();
        let (x, y) = data(&mut rng, 4, 2, 1);
        let report = grad_check_mse(&mut net, &x, &y, 1e-5).unwrap();
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn softplus_output_gradients_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut net =
            Mlp::try_new(&[2, 5, 1], Activation::Tanh, Activation::Softplus, &mut rng).unwrap();
        let (x, y) = data(&mut rng, 4, 2, 1);
        let report = grad_check_mse(&mut net, &x, &y, 1e-5).unwrap();
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn relu_network_gradients_correct_away_from_kinks() {
        // Use a fixed-seed net + data; probability of sitting exactly on a
        // ReLU kink is zero for this seed (verified by the assertion).
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let mut net = Mlp::try_new(
            &[3, 10, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        )
        .unwrap();
        let (x, y) = data(&mut rng, 6, 3, 2);
        let report = grad_check_mse(&mut net, &x, &y, 1e-6).unwrap();
        assert!(report.passes(1e-4), "{report:?}");
    }

    /// The fused `matmul_add_bias` forward feeds the manual backward pass
    /// (`dW = x^T dz`, `db = Σ dz`, `dx = dz W^T`): a single-layer network
    /// is exactly one fused op plus an activation, so finite differences
    /// over it validate the whole fused forward/backward contract.
    #[test]
    fn fused_matmul_add_bias_backward_matches_fd() {
        for (seed, act) in [(31u64, Activation::Identity), (32, Activation::Tanh)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut net = Mlp::try_new(&[4, 3], act, act, &mut rng).unwrap();
            let (x, y) = data(&mut rng, 6, 4, 3);
            let report = grad_check_mse(&mut net, &x, &y, 1e-5).unwrap();
            assert!(report.passes(1e-5), "{act:?}: {report:?}");
            assert_eq!(report.num_params, 4 * 3 + 3);
        }
    }

    /// ReLU hidden activations produce exact zeros, which the blocked
    /// kernels must *skip* exactly like the reference (the `a == 0.0` rule
    /// is part of the bit contract). A deep ReLU net grad-checked through
    /// the fused path exercises that rule on every layer boundary.
    #[test]
    fn fused_path_with_exact_zero_activations_gradients_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut net = Mlp::try_new(
            &[3, 12, 12, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        )
        .unwrap();
        let (x, y) = data(&mut rng, 5, 3, 2);
        let report = grad_check_mse(&mut net, &x, &y, 1e-6).unwrap();
        assert!(report.passes(1e-4), "{report:?}");
    }

    /// Analytic gradients must be bit-identical under both kernel
    /// families — backward runs through `matmul_tn`/`matmul_nt`, so this
    /// differentials the gradient path, not just the forward values.
    #[test]
    fn gradients_bit_equal_across_kernel_families() {
        let _guard = crate::kernels::TEST_KERNEL_LOCK.lock().unwrap();
        let before = crate::kernel_kind();
        let grads_under = |kind| {
            crate::set_kernel_kind(kind);
            let mut rng = ChaCha8Rng::seed_from_u64(34);
            let mut net = Mlp::try_new(
                &[4, 16, 3],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            )
            .unwrap();
            let (x, y) = data(&mut rng, 8, 4, 3);
            let pred = net.try_forward(&x).unwrap();
            let (_, dl) = crate::loss::mse(&pred, &y).unwrap();
            net.zero_grad();
            net.backward(dl).unwrap();
            let mut grads = Vec::with_capacity(net.num_params());
            net.visit_params(|_, g| grads.push(g.to_bits()));
            grads
        };
        let blocked = grads_under(crate::KernelKind::Blocked);
        let naive = grads_under(crate::KernelKind::Naive);
        crate::set_kernel_kind(before);
        assert_eq!(blocked, naive);
    }

    #[test]
    fn grad_check_restores_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let mut net =
            Mlp::try_new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        let before = net.export_params();
        let (x, y) = data(&mut rng, 3, 2, 1);
        grad_check_mse(&mut net, &x, &y, 1e-5).unwrap();
        assert_eq!(net.export_params(), before);
    }
}
