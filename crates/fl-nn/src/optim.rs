//! First-order optimizers over an [`Mlp`]'s flat parameter view.
//!
//! An optimizer owns its per-parameter state (Adam's two moments) in
//! flat vectors whose layout matches [`Mlp::visit_params`] order, so one
//! optimizer instance is bound to one network architecture.

use crate::Mlp;
use serde::{Deserialize, Serialize};

/// A gradient-descent style optimizer.
///
/// `step` consumes the gradients currently accumulated in the network and
/// applies one parameter update; it does **not** clear the gradients — call
/// [`Mlp::zero_grad`] before the next backward pass (mirrors the usual
/// PyTorch contract the paper's reference stack assumes).
pub trait Optimizer {
    /// Applies one update step using `net`'s accumulated gradients.
    fn step(&mut self, net: &mut Mlp);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (for schedules/annealing).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Adam (Kingma & Ba) with bias correction — the optimizer used for both
/// PPO networks and the FedAvg local solvers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self::with_config(num_params, lr, 0.9, 0.999, 1e-8)
    }

    /// Fully configured Adam.
    pub fn with_config(num_params: usize, lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
        }
    }

    /// Number of updates applied so far.
    #[cfg(test)]
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp) {
        self.t += 1;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let mut i = 0;
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params(|p, g| {
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
            i += 1;
        });
        debug_assert_eq!(i, m.len(), "optimizer bound to wrong network");
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loss, Activation, Matrix, Mlp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Trains y = 2x - 1 with `opt`; it should reduce MSE a lot.
    fn train_linear(opt: &mut dyn Optimizer, net: &mut Mlp, steps: usize) -> (f64, f64) {
        let x = Matrix::from_vec(8, 1, (0..8).map(|i| i as f64 / 8.0).collect()).unwrap();
        let y = x.map(|v| 2.0 * v - 1.0);
        let pred0 = net.try_forward(&x).unwrap();
        let (first, _) = loss::mse(&pred0, &y).unwrap();
        let mut last = first;
        for _ in 0..steps {
            let pred = net.try_forward(&x).unwrap();
            let (l, dl) = loss::mse(&pred, &y).unwrap();
            net.zero_grad();
            net.backward(dl).unwrap();
            opt.step(net);
            last = l;
        }
        (first, last)
    }

    fn fresh_net(seed: u64) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mlp::try_new(
            &[1, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn adam_reduces_loss_fast() {
        let mut net = fresh_net(3);
        let mut opt = Adam::new(net.num_params(), 0.01);
        let (first, last) = train_linear(&mut opt, &mut net, 300);
        assert!(last < first * 0.05, "first={first}, last={last}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(10, 0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.0001);
        assert_eq!(opt.learning_rate(), 0.0001);
    }

    #[test]
    fn zero_grad_means_no_update_direction() {
        // With no backward pass, gradients visit as zero; Adam must not move
        // parameters (m and v stay zero, mhat/vhat are 0/eps).
        let mut net = fresh_net(5);
        let before = net.export_params();
        let mut opt = Adam::new(net.num_params(), 0.1);
        net.zero_grad();
        opt.step(&mut net);
        let after = net.export_params();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
