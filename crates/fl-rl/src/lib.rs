//! # fl-rl — deep reinforcement learning substrate (actor–critic PPO)
//!
//! A from-scratch implementation of the learning machinery the paper's DRL
//! agent needs (Section IV): a diagonal-Gaussian actor, a value-function
//! critic, generalized advantage estimation, and the PPO-clip update, all on
//! top of `fl-nn`'s manual-backprop MLPs.
//!
//! The pieces compose exactly as Algorithm 1 prescribes:
//!
//! * [`Environment`] — the interface the federated-learning system
//!   implements (state = bandwidth history, action = CPU frequencies,
//!   reward = negative system cost),
//! * [`GaussianPolicy`] — `π(a|s; θ_a)`: an MLP mean plus a trainable
//!   state-independent log-std; continuous actions as required by the
//!   infinite `{state, action}` space argument of Section IV-B2,
//! * [`ValueNet`] — `V(s; θ_v)`,
//! * [`RolloutBuffer`] — the experience replay buffer `D`, filled by the
//!   frozen sampling policy `θ_a^old`,
//! * [`PpoAgent`] — holds both `θ_a` and `θ_a^old`, performs the `M`-epoch
//!   PPO update when the buffer fills, then syncs `θ_a^old ← θ_a`
//!   (Algorithm 1 lines 17–23),
//! * [`RunningNorm`] — Welford observation normalization (raw bandwidths
//!   span two orders of magnitude across profiles).
//!
//! Every gradient path is validated against finite differences in the test
//! suite (`policy::tests`, and `fl-nn`'s gradcheck for the networks).

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

mod buffer;
mod env;
mod error;
pub mod gae;
mod normalize;
mod policy;
mod ppo;
pub mod runner;
pub mod snapshot;
mod value;

pub use buffer::{RolloutBuffer, Transition};
pub use env::{Environment, SnapshotEnv, Step};
pub use error::RlError;
pub use normalize::RunningNorm;
pub use policy::{GaussianPolicy, MeanArch};
pub use ppo::{ActOutput, FrozenBatch, PpoAgent, PpoConfig, UpdateStats};
pub use value::ValueNet;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, RlError>;
