//! # fl-sim — the synchronized federated-learning system model
//!
//! Implements the paper's system model (Section III) as a discrete-event
//! simulation driven by bandwidth traces from `fl-net`:
//!
//! * [`MobileDevice`] — per-device constants `c_i` (cycles/bit), `D_i`
//!   (MB of training data), `α_i` (effective capacitance), `δ_i^max`
//!   (GHz frequency cap), and `e_i` (radio transmit power),
//!   with [`DeviceSampler`] reproducing the paper's uniform ranges
//!   (`D_i ~ U(50,100) MB`, `c_i ~ U(10,30) cycles/bit`,
//!   `δ^max ~ U(1.0, 2.0) GHz`),
//! * [`FleetSim`] — one synchronized training round (Eqs. 1–6) over a
//!   struct-of-arrays fleet: compute time `τ c_i D_i / δ_i`,
//!   trace-integrated upload time, `T^k = max_i T_i^k`, idle-time
//!   accounting, and the energy model `E_i = α_i τ c_i D_i δ_i² + e_i t_com`.
//!   One per-device kernel evaluates the physics; it is folded either into
//!   a sharded [`FleetRound`] summary (any `N`, up to 10⁶) or into a
//!   per-device [`IterationReport`] ([`FleetSim::run_iteration`], the view
//!   training and the figure harness use),
//! * [`FaultPlan`] / [`FleetFaults`] — seeded, random-access fault
//!   schedules (dropout, stragglers, blackouts, lost uploads, timeouts),
//! * [`IterationReport`] / [`SessionLedger`] — per-iteration and cumulative
//!   metrics (system cost `T^k + λ Σ E_i^k`, Eq. 9) consumed by the figure
//!   harness.
//!
//! Units: time s, frequency GHz, data MB, bandwidth MB/s, energy J. Work is
//! tracked in **gigacycles** so `Gcycles / GHz = seconds` directly.
//!
//! Note on Eq. (6): the paper's energy expression omits the `τ` factor that
//! Eq. (1) applies to the cycle count. We keep `τ` in both (energy scales
//! with work actually performed); with the paper's implied `τ = 1` the two
//! readings coincide.
//!
//! ## Example
//!
//! ```
//! use fl_sim::{DeviceSampler, FlConfig, FleetSim, FleetState};
//! use fl_net::{synth::Profile, TraceSet};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let traces = TraceSet::from_profile(Profile::Walking4G, 2, 600, 1.0, &mut rng)?;
//! let devices = DeviceSampler::default().sample_fleet(&traces.assign(3, &mut rng), &mut rng);
//! let sim = FleetSim::new(FleetState::from_devices(&devices)?, traces, FlConfig::default())?;
//! // One synchronized iteration with every device at its frequency cap:
//! let report = sim.run_iteration(0.0, &sim.max_freqs())?;
//! assert!(report.duration > 0.0);                 // T^k  (Eq. 5)
//! assert!(report.total_energy() > 0.0);           // sum E_i (Eq. 6)
//! assert!(report.cost(0.5) > report.duration);    // T^k + lambda*sum E (Eq. 9 term)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod async_engine;
mod battery;
mod device;
mod error;
pub mod fault;
pub mod fleet;
mod report;
mod system;

pub use async_engine::{run_async, AsyncArrival, AsyncSession};
pub use battery::{Battery, FleetBattery};
pub use device::{DeviceSampler, MobileDevice, Range};
pub use error::SimError;
pub use fault::{DeviceFault, DeviceStatus, FaultModel, FaultPlan, FleetFaults};
pub use fleet::{
    pooled_obs_dim, pooled_observation, quantile_summary, BatteryRound, FleetRound, FleetSim,
    FleetState,
};
pub use report::{DeviceOutcome, IterationReport, OutcomeTally, SessionLedger};
pub use system::FlConfig;

/// The simulator's former name, kept only so downstream code written
/// against it (the separately built `bench/` package) still compiles.
pub type FlSystem = FleetSim;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SimError>;
