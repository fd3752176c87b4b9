//! # fl-nn — minimal dense neural networks for the fedfreq reproduction
//!
//! A self-contained, dependency-light neural-network substrate used by the
//! DRL stack (`fl-rl`) and the federated-learning loop (`fl-learn`). It
//! provides:
//!
//! * [`Matrix`] — a row-major `f64` matrix with cache-friendly and
//!   (above a size threshold) multi-threaded matrix multiplication,
//! * [`Dense`] — a fully-connected layer with manual backpropagation,
//! * [`tanh`] / [`tanh_slice`] — a host-independent, vectorized tanh (the
//!   hidden activation of the PPO nets),
//! * [`Mlp`] — a stack of dense layers behind a simple train/infer API,
//!   whose inference runs tile by tile over a [`TiledInput`],
//! * [`Adam`] — the optimizer over a flat parameter view.
//!
//! A finite-difference gradient check (`gradcheck`, compiled for tests
//! only) validates every backward pass.
//!
//! The crate deliberately supports exactly what the paper's PPO agent and
//! FedAvg workloads need (small MLPs, batched forward/backward, Adam) rather
//! than being a general tensor library. Everything is deterministic given a
//! seeded RNG.
//!
//! ## Example
//!
//! ```
//! use fl_nn::{Mlp, Activation, Adam, Optimizer, loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // 2-in, 16-hidden, 1-out regression network.
//! let mut net = Mlp::try_new(&[2, 16, 1], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
//! let mut opt = Adam::new(net.num_params(), 1e-2);
//! let x = fl_nn::Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
//! let y = fl_nn::Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]).unwrap();
//! for _ in 0..200 {
//!     let pred = net.try_forward(&x).unwrap();
//!     let (l, dl) = loss::mse(&pred, &y).unwrap();
//!     net.zero_grad();
//!     net.backward(dl).unwrap();
//!     opt.step(&mut net);
//!     let _ = l;
//! }
//! ```

// `deny`, not `forbid`: the one sanctioned exception is `kernels::simd`,
// which calls safe `#[target_feature]` monomorphizations of the portable
// matmul and tanh bodies behind runtime CPU-feature detection. No raw
// pointers, no intrinsics — the `unsafe` is exactly the feature-gated calls.
#![deny(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

mod activation;
mod dense;
mod error;
#[cfg(test)]
mod gradcheck;
mod init;
mod kernels;
pub mod loss;
mod matrix;
mod mlp;
mod optim;
mod tanh;
mod tiled;

pub use activation::Activation;
pub use dense::Dense;
pub use error::NnError;
pub use init::Init;
#[cfg(any(test, feature = "reference-kernels"))]
pub use kernels::set_kernel_kind;
pub use kernels::{kernel_kind, tanh_slice, KernelKind};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Optimizer};
pub use tanh::tanh;
pub use tiled::TiledInput;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, NnError>;
