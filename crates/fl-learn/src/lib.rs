//! # fl-learn — a hand-built federated-learning training loop
//!
//! The paper's scheduler controls the *timing* of federated learning; the
//! learning itself (Eqs. 7–8 and constraint 10, `F(ω) < ε`) is exercised by
//! this crate: a from-scratch FedAvg (McMahan et al., the paper's ref. 1) over the `fl-nn` networks.
//!
//! * [`LabeledData`] + [`data`] — synthetic binary-classification datasets
//!   (Gaussian blobs, XOR rings) and **non-IID splitting** across devices
//!   with a tunable label-skew parameter,
//! * [`LocalTrainer`] — `τ` epochs of minibatch SGD on one device's shard
//!   (Algorithm 1's "mobile devices train the model"),
//! * [`FedAvg`] — the parameter server: broadcast, local training fanned
//!   out over the `fl-pool` workers (`FL_WORKERS`), and `D_n`-weighted model averaging
//!   (Eq. 8's weighting), with [`FedAvg::train_until`] implementing the
//!   loss-threshold stopping rule of constraint (10).

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
pub use local::{LocalTrainer, Objective};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LearnError>;
