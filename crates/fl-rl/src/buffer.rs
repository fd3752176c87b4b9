//! The experience replay buffer `D` of Algorithm 1.

use crate::{Result, RlError};
use fl_nn::Matrix;
use serde::{Deserialize, Serialize};

/// One `(s_k, a_k, r_k, ...)` sample (Algorithm 1 line 16), augmented with
/// the sampling policy's log-probability and the critic's value estimate —
/// both required by the PPO surrogate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Observation (already normalized by the agent).
    pub obs: Vec<f64>,
    /// Raw (unsquashed) action emitted by the policy.
    pub action: Vec<f64>,
    /// `log π(a|s; θ_a^old)` at sampling time.
    pub log_prob: f64,
    /// Reward received.
    pub reward: f64,
    /// `V(s; θ_v)` at sampling time.
    pub value: f64,
    /// Whether the episode ended with this transition.
    pub done: bool,
}

/// Fixed-capacity rollout storage. Algorithm 1 triggers a PPO update every
/// time the buffer fills (line 17) and clears it afterwards (line 23).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RolloutBuffer {
    capacity: usize,
    obs_dim: usize,
    action_dim: usize,
    transitions: Vec<Transition>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    pub fn new(capacity: usize, obs_dim: usize, action_dim: usize) -> Result<Self> {
        if capacity == 0 || obs_dim == 0 || action_dim == 0 {
            return Err(RlError::InvalidArgument(
                "buffer capacity and dims must be nonzero".to_string(),
            ));
        }
        Ok(RolloutBuffer {
            capacity,
            obs_dim,
            action_dim,
            transitions: Vec::with_capacity(capacity),
        })
    }

    /// Capacity `|D|`.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transitions currently stored.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// True when the buffer reached capacity (time to update).
    pub fn is_full(&self) -> bool {
        self.transitions.len() >= self.capacity
    }

    /// Stores one transition; rejects dimension mismatches and pushes into a
    /// full buffer.
    pub fn push(&mut self, t: Transition) -> Result<()> {
        if self.is_full() {
            return Err(RlError::InvalidArgument(
                "push into full buffer (call clear after updating)".to_string(),
            ));
        }
        if t.obs.len() != self.obs_dim || t.action.len() != self.action_dim {
            return Err(RlError::InvalidArgument(format!(
                "transition dims ({}, {}) do not match buffer dims ({}, {})",
                t.obs.len(),
                t.action.len(),
                self.obs_dim,
                self.action_dim
            )));
        }
        if !t.reward.is_finite() || !t.value.is_finite() || !t.log_prob.is_finite() {
            return Err(RlError::InvalidArgument(
                "transition contains non-finite scalars".to_string(),
            ));
        }
        self.transitions.push(t);
        Ok(())
    }

    /// Empties the buffer (Algorithm 1 line 23).
    pub fn clear(&mut self) {
        self.transitions.clear();
    }

    /// The stored transitions.
    #[cfg(test)]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// All observations as a `len x obs_dim` matrix.
    pub fn obs_matrix(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.transitions.len() * self.obs_dim);
        for t in &self.transitions {
            data.extend_from_slice(&t.obs);
        }
        Matrix::from_vec(self.transitions.len(), self.obs_dim, data).expect("dims enforced on push")
    }

    /// All actions as a `len x action_dim` matrix.
    pub fn action_matrix(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.transitions.len() * self.action_dim);
        for t in &self.transitions {
            data.extend_from_slice(&t.action);
        }
        Matrix::from_vec(self.transitions.len(), self.action_dim, data)
            .expect("dims enforced on push")
    }

    /// Per-step rewards.
    pub fn rewards(&self) -> Vec<f64> {
        self.transitions.iter().map(|t| t.reward).collect()
    }

    /// Per-step value estimates.
    pub fn values(&self) -> Vec<f64> {
        self.transitions.iter().map(|t| t.value).collect()
    }

    /// Per-step done flags.
    pub fn dones(&self) -> Vec<bool> {
        self.transitions.iter().map(|t| t.done).collect()
    }

    /// Per-step sampling log-probabilities.
    pub fn log_probs(&self) -> Vec<f64> {
        self.transitions.iter().map(|t| t.log_prob).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(v: f64) -> Transition {
        Transition {
            obs: vec![v, v + 1.0],
            action: vec![-v],
            log_prob: -0.5,
            reward: v * 2.0,
            value: v * 0.5,
            done: false,
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(RolloutBuffer::new(0, 2, 1).is_err());
        assert!(RolloutBuffer::new(4, 0, 1).is_err());
        assert!(RolloutBuffer::new(4, 2, 0).is_err());
    }

    #[test]
    fn push_fill_clear_cycle() {
        let mut b = RolloutBuffer::new(2, 2, 1).unwrap();
        assert!(b.is_empty());
        b.push(transition(1.0)).unwrap();
        assert!(!b.is_full());
        b.push(transition(2.0)).unwrap();
        assert!(b.is_full());
        assert!(b.push(transition(3.0)).is_err());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn dimension_and_finiteness_checks() {
        let mut b = RolloutBuffer::new(4, 2, 1).unwrap();
        let mut bad = transition(1.0);
        bad.obs = vec![1.0];
        assert!(b.push(bad).is_err());
        let mut bad = transition(1.0);
        bad.action = vec![1.0, 2.0];
        assert!(b.push(bad).is_err());
        let mut bad = transition(1.0);
        bad.reward = f64::NAN;
        assert!(b.push(bad).is_err());
    }

    #[test]
    fn matrix_views_row_major() {
        let mut b = RolloutBuffer::new(4, 2, 1).unwrap();
        b.push(transition(1.0)).unwrap();
        b.push(transition(3.0)).unwrap();
        let obs = b.obs_matrix();
        assert_eq!(obs.shape(), (2, 2));
        assert_eq!(obs.row(1), &[3.0, 4.0]);
        let act = b.action_matrix();
        assert_eq!(act.shape(), (2, 1));
        assert_eq!(act.get(1, 0), -3.0);
        assert_eq!(b.rewards(), vec![2.0, 6.0]);
        assert_eq!(b.values(), vec![0.5, 1.5]);
        assert_eq!(b.dones(), vec![false, false]);
        assert_eq!(b.log_probs(), vec![-0.5, -0.5]);
    }

    #[test]
    fn accessors_preserve_push_order() {
        // PPO's determinism contract leans on the buffer being strictly
        // append-ordered: transition i must be row i of every view. Push
        // distinct, tagged transitions and check each accessor end-to-end.
        let k = 8;
        let mut b = RolloutBuffer::new(k, 2, 1).unwrap();
        for i in 0..k {
            let v = i as f64;
            b.push(Transition {
                obs: vec![v * 10.0, v * 10.0 + 1.0],
                action: vec![-v],
                log_prob: -0.1 * v,
                reward: v * 2.0,
                value: v * 0.5,
                done: i % 3 == 0,
            })
            .unwrap();
        }
        let ts = b.transitions();
        assert_eq!(ts.len(), k);
        let obs = b.obs_matrix();
        let act = b.action_matrix();
        for (i, t) in ts.iter().enumerate() {
            let v = i as f64;
            assert_eq!(t.obs, vec![v * 10.0, v * 10.0 + 1.0]);
            assert_eq!(obs.row(i), t.obs.as_slice());
            assert_eq!(act.row(i), t.action.as_slice());
            assert_eq!(b.rewards()[i], v * 2.0);
            assert_eq!(b.values()[i], v * 0.5);
            assert_eq!(b.log_probs()[i], -0.1 * v);
            assert_eq!(b.dones()[i], i % 3 == 0);
        }
    }

    #[test]
    fn clear_restarts_ordering_at_row_zero() {
        let mut b = RolloutBuffer::new(2, 2, 1).unwrap();
        b.push(transition(1.0)).unwrap();
        b.push(transition(2.0)).unwrap();
        b.clear();
        b.push(transition(9.0)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.transitions()[0].reward, 18.0);
        assert_eq!(b.obs_matrix().row(0), &[9.0, 10.0]);
        assert_eq!(b.rewards(), vec![18.0]);
    }
}
