//! Shared fixture for the fl-serve integration suites: a small trained-ish
//! controller snapshot over the paper's 3-device testbed, checkpoint
//! stores in throwaway temp dirs, and observation rows sampled from the
//! bandwidth traces.
//!
//! Included from each suite via `#[path]` — integration tests are separate
//! crates, so a plain `mod` cannot share this file.

#![allow(dead_code)] // each suite uses a subset of the fixture

#[path = "common/harness.rs"]
pub mod harness;
pub use harness::temp_dir;

use fl_ctrl::{build_system_with, ControllerSnapshot, DrlController};
use fl_net::synth::Profile;
use fl_rl::{GaussianPolicy, RunningNorm};
use fl_sim::{FlConfig, FleetSim};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Slot width (seconds) the fixture controller observes bandwidth with.
pub const SLOT_H: f64 = 10.0;
/// History length `H`: the observation carries `H + 1` slot averages per
/// device.
pub const HIST: usize = 4;

/// Builds a 3-device testbed system and a deployable snapshot over it:
/// random policy weights (decision *bits* are what the suites compare, not
/// decision quality) and Welford statistics warmed on real observations.
pub fn make_snapshot(seed: u64) -> (FleetSim, ControllerSnapshot) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sys = build_system_with(
        3,
        3,
        Profile::Walking4G,
        1200,
        FlConfig::default(),
        &fl_sim::DeviceSampler::default(),
        &mut rng,
    )
    .unwrap();
    let obs_dim = 3 * (HIST + 1);
    let policy = GaussianPolicy::new(obs_dim, &[8], 3, -0.5, &mut rng).unwrap();
    let mut norm = RunningNorm::new(obs_dim, 10.0);
    for k in 0..20 {
        let obs = sys
            .observe_bandwidth_state(100.0 + 7.0 * k as f64, SLOT_H, HIST)
            .unwrap();
        norm.update(&obs).unwrap();
    }
    let ctrl = DrlController::new(policy, norm, SLOT_H, HIST, 0.1).unwrap();
    let snap = ControllerSnapshot::from_system(ctrl, &sys).unwrap();
    (sys, snap)
}

/// A snapshot with fresh policy weights but the identical serving config
/// (same normalizer, env constants, and frequency caps — same digest):
/// the hot-reload target. Different `weight_seed`s give bit-distinct
/// decisions, which is what makes reload attribution testable.
pub fn variant_snapshot(base: &ControllerSnapshot, weight_seed: u64) -> ControllerSnapshot {
    let mut rng = ChaCha8Rng::seed_from_u64(weight_seed);
    let policy =
        GaussianPolicy::new(base.obs_dim(), &[8], base.action_dim(), -0.5, &mut rng).unwrap();
    let ctrl = DrlController::new(
        policy,
        base.controller.obs_norm().clone(),
        base.controller.slot_h,
        base.controller.history_len,
        base.controller.min_freq_frac,
    )
    .unwrap();
    ControllerSnapshot::new(ctrl, base.delta_max_ghz.clone()).unwrap()
}

/// `n` deterministic trace times, strided away from both trace ends.
pub fn obs_times(n: usize) -> Vec<f64> {
    (0..n).map(|k| 120.0 + ((k * 83) % 900) as f64).collect()
}

/// Observation rows at the given trace times.
pub fn obs_rows(sys: &FleetSim, times: &[f64]) -> Vec<Vec<f64>> {
    times
        .iter()
        .map(|&t| sys.observe_bandwidth_state(t, SLOT_H, HIST).unwrap())
        .collect()
}
