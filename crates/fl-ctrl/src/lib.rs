//! # fl-ctrl — experience-driven CPU-frequency control for federated learning
//!
//! The paper's contribution (Zhan, Li, Guo — IPDPS 2020), assembled from the
//! workspace substrates:
//!
//! * [`FlFreqEnv`] — the DRL formulation of Section IV-B: state = each
//!   device's trailing `H+1` bandwidth slot-averages, action = the vector of
//!   CPU-cycle frequencies (raw Gaussian outputs squashed into
//!   `(0, δ_i^max]`), reward = `−(T^k + λ Σ_i E_i^k)` (Eq. 13),
//! * [`policy_observation`] and [`squash_actions`] — the one decision
//!   contract: every policy input (training, deployed, fleet, online) is
//!   built by the first, every action row squashed by the second,
//! * [`train_drl`] — the offline training procedure of **Algorithm 1**
//!   (episode sampling with `θ_a^old`, PPO updates every time the replay
//!   buffer fills, `θ_a^old ← θ_a` sync, buffer clear), producing the
//!   Fig. 6 convergence series and a deployable [`DrlController`],
//! * [`solver`] — the model-based per-iteration frequency optimizer shared
//!   by the baselines: given bandwidth estimates it finds the deadline `T`
//!   and per-device frequencies minimizing `T + λ Σ E`,
//! * [`controllers`] — [`DrlController`] plus the paper's comparison
//!   points: **Heuristic** (Wang et al. — re-optimizes every iteration
//!   using the previous iteration's realized bandwidth), **Static**
//!   (Tran et al. — optimizes once against long-run average bandwidth),
//!   **MaxFreq** (always full speed), and **Oracle** (clairvoyant lower
//!   bound that optimizes against the *actual* future bandwidth),
//! * [`experiment`] — the online-reasoning harness of Section V-B2: run any
//!   controller for `K` iterations and collect the cost/time/energy series
//!   behind Figs. 7 and 8.
//!
//! ## Example — the model-based solver (no training needed)
//!
//! ```
//! use fl_ctrl::{optimize_frequencies, SolverParams};
//! use fl_sim::DeviceSampler;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let devices = DeviceSampler::default().sample_fleet(&[0, 0, 0], &mut rng);
//! let params = SolverParams {
//!     tau: 1,
//!     model_size_mb: 10.0,
//!     lambda: 0.5,
//!     min_freq_frac: 0.1,
//! };
//! // Given per-device bandwidth estimates (MB/s), find the frequencies
//! // minimizing T + lambda * sum(E):
//! let plan = optimize_frequencies(&devices, &params, &[3.0, 1.2, 6.0])?;
//! assert_eq!(plan.freqs.len(), 3);
//! for (d, f) in devices.iter().zip(&plan.freqs) {
//!     assert!(*f > 0.0 && *f <= d.delta_max_ghz);
//! }
//! # Ok::<(), fl_ctrl::CtrlError>(())
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod config;
pub mod controllers;
pub mod deploy;
mod error;
pub mod experiment;
mod flenv;
pub mod online;
pub mod solver;
pub mod supervise;
mod train;

pub use config::{ControllerKind, ExperimentConfig, PredictorKind};
pub use controllers::{
    DrlController, FrequencyController, HeuristicController, MaxFreqController, OracleController,
    PredictiveController, StaticController,
};
pub use deploy::ControllerSnapshot;
pub use error::CtrlError;
pub use experiment::{
    compare_controllers, compare_controllers_faulty, run_controller, run_controller_faulty,
    run_parallel_sweep, ControllerRun, SweepReport,
};
pub use flenv::{
    build_system_with, policy_obs_dim, policy_observation, squash_actions, squash_to_freq,
    EnvConfig, FlFreqEnv, ObsMode, Participation,
};
pub use online::OnlineDrlController;
pub use solver::{model_cost, optimize_frequencies, FreqPlan, SolverParams};
pub use supervise::{
    DivergenceCause, Intervention, RecoveryAction, SupervisorPolicy, SupervisorState, TrainError,
};
pub use train::{
    fleet_statics, train_drl, train_drl_parallel_opt, CheckpointOptions, EpisodeStats,
    ParallelConfig, ParallelTrainOutput, PolicyArch, RunOptions, TrainConfig, TrainOutput,
};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CtrlError>;
