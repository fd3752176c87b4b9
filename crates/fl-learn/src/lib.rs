//! # fl-learn — a hand-built federated-learning training loop
//!
//! The paper's scheduler controls the *timing* of federated learning; the
//! learning itself (Eqs. 7–8, and the `F(ω)` that constraint (10) bounds)
//! is exercised by this crate: a from-scratch FedAvg (McMahan et al., the
//! paper's ref. 1) over the `fl-nn` networks, on one binary objective.
//!
//! * [`LabeledData`] + [`data`] — a synthetic binary-classification
//!   dataset (Gaussian blobs) and **non-IID splitting** across devices
//!   with a tunable label-skew parameter,
//! * [`LocalTrainer`] — `τ` epochs of minibatch Adam on one device's shard
//!   under binary cross-entropy (Algorithm 1's "mobile devices train the
//!   model"),
//! * [`FedAvg`] — the parameter server: broadcast, local training fanned
//!   out over the `fl-pool` workers (`FL_WORKERS`), and `D_n`-weighted
//!   model averaging (Eq. 8's weighting) over all devices or a chosen
//!   participant set; callers read `F(ω)` from each [`RoundReport`] and
//!   stop once it falls below their `ε`,
//! * [`AsyncFedAvg`] — staleness-weighted asynchronous aggregation, the
//!   counterpart the `abl_sync_async` bench compares against.

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

mod async_fedavg;
pub mod data;
mod error;
mod fedavg;
mod local;

pub use async_fedavg::{AsyncFedAvg, AsyncFedAvgConfig, AsyncUpdateReport};
pub use data::LabeledData;
pub use error::LearnError;
pub use fedavg::{aggregate_params, FedAvg, FedAvgConfig, RoundReport};
pub use local::LocalTrainer;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LearnError>;
