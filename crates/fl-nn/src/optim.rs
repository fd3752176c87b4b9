//! First-order optimizers over an [`Mlp`]'s flat parameter view.
//!
//! Optimizers own their per-parameter state (momentum, second moments) in
//! flat vectors whose layout matches [`Mlp::visit_params`] order, so one
//! optimizer instance is bound to one network architecture.

use crate::Mlp;
#[cfg(test)]
use crate::NnError;
use serde::{Deserialize, Serialize};

/// A portable dump of an optimizer's mutable state, captured by
/// [`Sgd::state`]/[`Adam::state`] and re-applied with the matching
/// `restore`. Checkpoint/resume must carry these moments: restarting Adam
/// with zeroed moments silently changes the next update step even when the
/// network parameters are bit-identical.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimState {
    /// Current learning rate (schedules mutate it).
    pub lr: f64,
    /// Update steps applied so far (drives Adam's bias correction).
    pub steps: u64,
    /// First-moment buffer (SGD velocity / Adam `m`), parameter-ordered.
    pub first_moment: Vec<f64>,
    /// Second-moment buffer (Adam `v`; empty for SGD).
    pub second_moment: Vec<f64>,
}

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

/// Stochastic gradient descent with optional classical momentum.
#[cfg(test)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

#[cfg(test)]
impl Sgd {
    /// Plain SGD.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self::with_momentum(num_params, lr, 0.0)
    }

    /// SGD with momentum coefficient `momentum` in `[0, 1)`.
    pub fn with_momentum(num_params: usize, lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: vec![0.0; num_params],
        }
    }

    /// Captures the mutable state for checkpointing.
    pub fn state(&self) -> OptimState {
        OptimState {
            lr: self.lr,
            steps: 0,
            first_moment: self.velocity.clone(),
            second_moment: Vec::new(),
        }
    }

    /// Restores state captured by [`Sgd::state`]. Fails if the buffer
    /// length does not match this optimizer's parameter count.
    pub fn restore(&mut self, state: &OptimState) -> Result<(), NnError> {
        if state.first_moment.len() != self.velocity.len() {
            return Err(NnError::InvalidArgument(format!(
                "optimizer state covers {} params, expected {}",
                state.first_moment.len(),
                self.velocity.len()
            )));
        }
        self.lr = state.lr;
        self.velocity = state.first_moment.clone();
        Ok(())
    }
}

#[cfg(test)]
impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Mlp) {
        let (lr, mu) = (self.lr, self.momentum);
        let mut i = 0;
        let velocity = &mut self.velocity;
        net.visit_params(|p, g| {
            let v = &mut velocity[i];
            *v = mu * *v + g;
            *p -= lr * *v;
            i += 1;
        });
        debug_assert_eq!(i, velocity.len(), "optimizer bound to wrong network");
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
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

    /// Captures the mutable state (step count and both moment buffers) for
    /// checkpointing.
    #[cfg(test)]
    pub fn state(&self) -> OptimState {
        OptimState {
            lr: self.lr,
            steps: self.t,
            first_moment: self.m.clone(),
            second_moment: self.v.clone(),
        }
    }

    /// Restores state captured by [`Adam::state`]. Fails if the buffer
    /// lengths do not match this optimizer's parameter count.
    #[cfg(test)]
    pub fn restore(&mut self, state: &OptimState) -> Result<(), NnError> {
        if state.first_moment.len() != self.m.len() || state.second_moment.len() != self.v.len() {
            return Err(NnError::InvalidArgument(format!(
                "optimizer state covers {}/{} params, expected {}",
                state.first_moment.len(),
                state.second_moment.len(),
                self.m.len()
            )));
        }
        self.lr = state.lr;
        self.t = state.steps;
        self.m = state.first_moment.clone();
        self.v = state.second_moment.clone();
        Ok(())
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

/// RMSProp, compiled for the optimizer tests only.
#[cfg(test)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RmsProp {
    lr: f64,
    decay: f64,
    eps: f64,
    sq: Vec<f64>,
}

#[cfg(test)]
impl RmsProp {
    /// RMSProp with the given decay (typically 0.99).
    pub fn new(num_params: usize, lr: f64, decay: f64) -> Self {
        RmsProp {
            lr,
            decay,
            eps: 1e-8,
            sq: vec![0.0; num_params],
        }
    }
}

#[cfg(test)]
impl Optimizer for RmsProp {
    fn step(&mut self, net: &mut Mlp) {
        let (lr, d, eps) = (self.lr, self.decay, self.eps);
        let mut i = 0;
        let sq = &mut self.sq;
        net.visit_params(|p, g| {
            sq[i] = d * sq[i] + (1.0 - d) * g * g;
            *p -= lr * g / (sq[i].sqrt() + eps);
            i += 1;
        });
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

    /// Trains y = 2x - 1 with each optimizer; all should reduce MSE a lot.
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
    fn sgd_reduces_loss() {
        let mut net = fresh_net(1);
        let mut opt = Sgd::new(net.num_params(), 0.05);
        let (first, last) = train_linear(&mut opt, &mut net, 500);
        assert!(last < first * 0.1, "first={first}, last={last}");
    }

    #[test]
    fn sgd_momentum_reduces_loss() {
        let mut net = fresh_net(2);
        let mut opt = Sgd::with_momentum(net.num_params(), 0.01, 0.9);
        let (first, last) = train_linear(&mut opt, &mut net, 500);
        assert!(last < first * 0.1, "first={first}, last={last}");
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
    fn rmsprop_reduces_loss() {
        let mut net = fresh_net(4);
        let mut opt = RmsProp::new(net.num_params(), 0.005, 0.99);
        let (first, last) = train_linear(&mut opt, &mut net, 500);
        assert!(last < first * 0.1, "first={first}, last={last}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(10, 0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.0001);
        assert_eq!(opt.learning_rate(), 0.0001);
    }

    #[test]
    fn optimizer_state_roundtrip_is_exact() {
        // Train a net, snapshot the optimizer, train a fresh optimizer from
        // the restored state alongside the original: both must take
        // bit-identical steps.
        let mut net = fresh_net(6);
        let mut opt = Adam::new(net.num_params(), 0.01);
        train_linear(&mut opt, &mut net, 50);

        let state = opt.state();
        assert_eq!(state.steps, 50);
        let mut twin = Adam::new(net.num_params(), 0.9); // wrong lr on purpose
        twin.restore(&state).unwrap();
        assert_eq!(twin.learning_rate(), opt.learning_rate());

        let mut net2 = net.clone();
        let x = Matrix::from_vec(4, 1, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let y = x.map(|v| 2.0 * v - 1.0);
        for _ in 0..10 {
            for (n, o) in [(&mut net, &mut opt), (&mut net2, &mut twin)] {
                let pred = n.try_forward(&x).unwrap();
                let (_, dl) = loss::mse(&pred, &y).unwrap();
                n.zero_grad();
                n.backward(dl).unwrap();
                o.step(n);
            }
        }
        assert_eq!(net.export_params(), net2.export_params());
    }

    #[test]
    fn sgd_state_roundtrip_and_length_checks() {
        let mut net = fresh_net(7);
        let mut opt = Sgd::with_momentum(net.num_params(), 0.01, 0.9);
        train_linear(&mut opt, &mut net, 20);
        let state = opt.state();
        let mut twin = Sgd::with_momentum(net.num_params(), 0.5, 0.9);
        twin.restore(&state).unwrap();
        assert_eq!(twin.learning_rate(), 0.01);

        // Wrong-arity states are rejected, not silently truncated.
        let mut small = Sgd::new(3, 0.01);
        assert!(small.restore(&state).is_err());
        let mut small_adam = Adam::new(3, 0.01);
        assert!(small_adam.restore(&Adam::new(5, 0.01).state()).is_err());
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
