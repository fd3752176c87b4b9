//! The synchronized-iteration engine.

use crate::fault::{DeviceStatus, FleetFaults};
use crate::fleet::{FleetSim, FleetState};
use crate::report::IterationReport;
use crate::{MobileDevice, Result, SimError};
use fl_net::TraceSet;
use serde::{Deserialize, Serialize};

/// Task-level configuration shared by all devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// `τ`: local training passes per iteration.
    pub tau: u32,
    /// `ξ`: model size uploaded each iteration (MB).
    pub model_size_mb: f64,
    /// `λ`: energy weight in the system cost (Eq. 9).
    pub lambda: f64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            tau: 1,
            model_size_mb: 10.0,
            lambda: 0.25,
        }
    }
}

impl FlConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.tau == 0 {
            return Err(SimError::InvalidArgument("tau must be >= 1".to_string()));
        }
        if !(self.model_size_mb > 0.0) || !self.model_size_mb.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "model_size_mb must be positive, got {}",
                self.model_size_mb
            )));
        }
        if !(self.lambda >= 0.0) || !self.lambda.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "lambda must be non-negative, got {}",
                self.lambda
            )));
        }
        Ok(())
    }
}

/// The federated-learning system of Section III: a fleet of devices, their
/// bandwidth traces, and the synchronized-iteration timing/energy model.
///
/// `FlSystem` is deliberately *policy-free*: callers (the DRL environment,
/// the baselines, the figure harness) pick the frequency vector and this
/// type evaluates one iteration of the physics. It is a thin view over a
/// [`FleetSim`] — every iteration is [`FleetSim::run_round_report`] — plus
/// the per-iteration telemetry counters.
#[derive(Debug, Clone)]
pub struct FlSystem {
    fleet: FleetSim,
    obs: SimObs,
}

/// Observability handles for the iteration engine (all disabled no-ops by
/// default). Clones share the underlying atomics, so a system cloned into
/// many environments aggregates its fault tallies in one place.
#[derive(Debug, Clone, Default)]
struct SimObs {
    iterations: fl_obs::Counter,
    completed: fl_obs::Counter,
    straggled: fl_obs::Counter,
    dropped: fl_obs::Counter,
    failed: fl_obs::Counter,
    duration_s: fl_obs::Histogram,
}

impl FlSystem {
    /// Builds a system, validating devices, trace indices, and config (see
    /// [`FleetSim::new`]). Device `id`s must equal their index.
    pub fn new(devices: Vec<MobileDevice>, traces: TraceSet, config: FlConfig) -> Result<Self> {
        let fleet = FleetSim::new(FleetState::from_devices(&devices)?, traces, config)?;
        Ok(FlSystem {
            fleet,
            obs: SimObs::default(),
        })
    }

    /// Attaches an observability recorder: every iteration bumps fleet
    /// outcome counters (`sim.device.*`, mirroring the `OutcomeTally`
    /// statuses) and a round-duration histogram. Counters are atomic adds
    /// — commutative, so totals are invariant to worker scheduling — and
    /// recording never alters the physics or consumes RNG.
    pub fn set_recorder(&mut self, recorder: &fl_obs::Recorder) {
        self.obs = SimObs {
            iterations: recorder.counter("sim.iterations"),
            completed: recorder.counter("sim.device.completed"),
            straggled: recorder.counter("sim.device.straggled"),
            dropped: recorder.counter("sim.device.dropped"),
            failed: recorder.counter("sim.device.failed"),
            duration_s: recorder.histogram(
                "sim.round_duration_s",
                &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
        };
    }

    /// The underlying struct-of-arrays fleet.
    pub fn fleet(&self) -> &FleetSim {
        &self.fleet
    }

    /// The fleet as per-device structs (materialized, `O(N)`; per-step
    /// code reads `fleet().state()` columns instead).
    pub fn devices(&self) -> Vec<MobileDevice> {
        let state = self.fleet.state();
        (0..state.len()).map(|i| state.device(i)).collect()
    }

    /// Number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.fleet.num_devices()
    }

    /// The trace pool.
    pub fn traces(&self) -> &TraceSet {
        self.fleet.traces()
    }

    /// The trace device `i` follows. Errors (instead of panicking) when
    /// the device index is outside the fleet.
    pub fn trace_of(&self, device: usize) -> Result<&fl_net::BandwidthTrace> {
        let &idx = self
            .fleet
            .state()
            .trace_idx
            .get(device)
            .ok_or(SimError::DeviceOutOfRange {
                device,
                n_devices: self.num_devices(),
            })?;
        Ok(self
            .traces()
            .get(idx as usize)
            .expect("trace indices validated at construction"))
    }

    /// Task configuration.
    pub fn config(&self) -> &FlConfig {
        self.fleet.config()
    }

    /// Replaces λ (used by the λ-sweep ablation without rebuilding traces).
    pub fn set_lambda(&mut self, lambda: f64) -> Result<()> {
        self.fleet.set_lambda(lambda)
    }

    /// Clamps a raw action vector into the feasible region `(0, δ_i^max]`,
    /// with `min_frac · δ_max` as the floor so compute time stays finite.
    pub fn clamp_freqs(&self, raw: &[f64], min_frac: f64) -> Vec<f64> {
        self.fleet
            .state()
            .delta_max_ghz
            .iter()
            .zip(raw)
            .map(|(&cap, &f)| f.clamp(min_frac * cap, cap))
            .collect()
    }

    /// Runs one synchronized iteration starting at `t_start` with the given
    /// per-device CPU frequencies (GHz).
    ///
    /// For each device: compute for `τ c_i D_i / δ_i` seconds (Eq. 1), then
    /// upload `ξ` MB through its trace starting the moment computation ends
    /// — the upload duration is solved exactly against the time-varying
    /// bandwidth, and Eq. (3)'s realized average bandwidth is reported.
    /// `T^k` is the max over devices (Eq. 5); idle time is `T^k − T_i^k`.
    pub fn run_iteration(&self, t_start: f64, freqs: &[f64]) -> Result<IterationReport> {
        // The benign schedule multiplies by 1.0 and caps at +∞ — exact
        // identities in IEEE arithmetic, so this delegation is bit-identical
        // to a dedicated fault-free loop.
        self.run_iteration_faulty(t_start, freqs, &FleetFaults::none(self.num_devices()))
    }

    /// Fault-aware variant of [`FlSystem::run_iteration`]: evaluates the
    /// same physics under a realized per-device fault schedule (dropout,
    /// straggler, blackout, upload failure, timeout — see DESIGN.md "Fault
    /// model & determinism contract").
    ///
    /// `T^k` is the max of the capped waiting times over *non-dropped*
    /// devices; when every device drops, the round is a no-op with
    /// `duration = 0`.
    pub fn run_iteration_faulty(
        &self,
        t_start: f64,
        freqs: &[f64],
        faults: &FleetFaults,
    ) -> Result<IterationReport> {
        let report = self.fleet.run_round_report(t_start, freqs, faults)?;
        self.obs.iterations.inc();
        self.obs.duration_s.observe(report.duration);
        for o in &report.devices {
            match o.status {
                DeviceStatus::Completed => self.obs.completed.inc(),
                DeviceStatus::Straggled => self.obs.straggled.inc(),
                DeviceStatus::Dropped => self.obs.dropped.inc(),
                DeviceStatus::Failed => self.obs.failed.inc(),
            }
        }
        Ok(report)
    }

    /// Builds the DRL state for iteration start time `t` (see
    /// [`FleetSim::observe_bandwidth_state`]).
    pub fn observe_bandwidth_state(
        &self,
        t: f64,
        slot_h: f64,
        history_len: usize,
    ) -> Result<Vec<f64>> {
        self.fleet.observe_bandwidth_state(t, slot_h, history_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, FaultPlan};
    use crate::DeviceSampler;
    use fl_net::BandwidthTrace;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn flat_traces(bws: &[f64]) -> TraceSet {
        TraceSet::new(
            bws.iter()
                .map(|&b| BandwidthTrace::new(1.0, vec![b; 4]).unwrap().cyclic())
                .collect(),
        )
        .unwrap()
    }

    fn simple_device(id: usize, trace_idx: usize, dmax: f64) -> MobileDevice {
        MobileDevice {
            id,
            cycles_per_bit: 20.0,
            data_mb: 62.5, // 20 * 62.5 * 8e6 / 1e9 = 10 Gcycles
            alpha: 0.1,
            delta_max_ghz: dmax,
            tx_power_w: 0.2,
            trace_idx,
        }
    }

    fn system() -> FlSystem {
        let devices = vec![simple_device(0, 0, 2.0), simple_device(1, 1, 2.0)];
        let traces = flat_traces(&[2.0, 5.0]);
        FlSystem::new(devices, traces, FlConfig::default()).unwrap()
    }

    #[test]
    fn construction_validation() {
        let traces = flat_traces(&[1.0]);
        assert!(FlSystem::new(vec![], traces.clone(), FlConfig::default()).is_err());
        // Bad trace index.
        let d = simple_device(0, 5, 2.0);
        assert!(FlSystem::new(vec![d], traces.clone(), FlConfig::default()).is_err());
        // Bad config.
        let d = simple_device(0, 0, 2.0);
        let bad = FlConfig {
            tau: 0,
            ..FlConfig::default()
        };
        assert!(FlSystem::new(vec![d.clone()], traces.clone(), bad).is_err());
        let bad_lambda = FlConfig {
            lambda: -1.0,
            ..FlConfig::default()
        };
        assert!(FlSystem::new(vec![d], traces, bad_lambda).is_err());
    }

    #[test]
    fn iteration_physics_by_hand() {
        // Device 0: 10 Gcycles at 2 GHz = 5 s compute; 10 MB at 2 MB/s = 5 s
        // upload → T_0 = 10. Device 1: 5 s compute, 2 s upload → T_1 = 7.
        let sys = system();
        let r = sys.run_iteration(0.0, &[2.0, 2.0]).unwrap();
        assert!((r.duration - 10.0).abs() < 1e-9);
        assert!((r.devices[0].total_time() - 10.0).abs() < 1e-9);
        assert!((r.devices[1].total_time() - 7.0).abs() < 1e-9);
        assert!((r.devices[1].idle_time - 3.0).abs() < 1e-9);
        assert!((r.devices[0].idle_time).abs() < 1e-9);
        // Realized bandwidth equals the flat trace bandwidth.
        assert!((r.devices[0].avg_bandwidth - 2.0).abs() < 1e-9);
        assert!((r.devices[1].avg_bandwidth - 5.0).abs() < 1e-9);
        // Energy: α τ ε δ² = 0.1*1*10*4 = 4 J compute each; comm 0.2W * t.
        assert!((r.devices[0].compute_energy - 4.0).abs() < 1e-9);
        assert!((r.devices[0].comm_energy - 1.0).abs() < 1e-9);
        assert!((r.devices[1].comm_energy - 0.4).abs() < 1e-9);
    }

    #[test]
    fn slowing_fast_device_saves_energy_without_hurting_time() {
        // The paper's motivating observation (Fig. 3): device 1 idles 3 s at
        // full speed, so it can run slower for free.
        let sys = system();
        let fast = sys.run_iteration(0.0, &[2.0, 2.0]).unwrap();
        // Slow device 1 so its total time is exactly 10 s:
        // compute = 10/δ, comm = 2 → δ = 10/8 = 1.25.
        let tuned = sys.run_iteration(0.0, &[2.0, 1.25]).unwrap();
        assert!((tuned.duration - fast.duration).abs() < 1e-9);
        assert!(tuned.total_energy() < fast.total_energy());
        assert!(tuned.devices[1].idle_time.abs() < 1e-9);
    }

    #[test]
    fn frequency_bounds_enforced() {
        let sys = system();
        assert!(matches!(
            sys.run_iteration(0.0, &[2.5, 2.0]),
            Err(SimError::FrequencyOutOfRange { device: 0, .. })
        ));
        assert!(matches!(
            sys.run_iteration(0.0, &[2.0, 0.0]),
            Err(SimError::FrequencyOutOfRange { device: 1, .. })
        ));
        assert!(sys.run_iteration(0.0, &[2.0]).is_err()); // wrong arity
        assert!(sys.run_iteration(-1.0, &[2.0, 2.0]).is_err());
    }

    #[test]
    fn clamp_freqs_respects_caps() {
        let sys = system();
        let clamped = sys.clamp_freqs(&[99.0, -1.0], 0.05);
        assert_eq!(clamped[0], 2.0);
        assert_eq!(clamped[1], 0.1);
        assert!(sys.run_iteration(0.0, &clamped).is_ok());
    }

    #[test]
    fn upload_rides_time_varying_bandwidth() {
        // Trace: 1 MB/s for 10 s then 10 MB/s. Upload starting at t=5 with
        // 10 MB: 5 MB in [5,10), then 5 MB at 10 MB/s = 0.5 s → 5.5 s total.
        let mut slots = vec![1.0; 10];
        slots.extend(vec![10.0; 10]);
        let traces =
            TraceSet::new(vec![BandwidthTrace::new(1.0, slots).unwrap().cyclic()]).unwrap();
        // 10 Gcycles at 2 GHz = 5 s compute.
        let d = simple_device(0, 0, 2.0);
        let sys = FlSystem::new(vec![d], traces, FlConfig::default()).unwrap();
        let r = sys.run_iteration(0.0, &[2.0]).unwrap();
        assert!((r.devices[0].comm_time - 5.5).abs() < 1e-9);
        // Eq. (3): realized avg bandwidth = 10 MB / 5.5 s.
        assert!((r.devices[0].avg_bandwidth - 10.0 / 5.5).abs() < 1e-9);
    }

    #[test]
    fn observe_bandwidth_state_layout() {
        let sys = system();
        let s = sys.observe_bandwidth_state(7.0, 1.0, 2).unwrap();
        // 2 devices × (H+1 = 3) entries; flat traces → constant values.
        assert_eq!(s.len(), 6);
        assert!(s[..3].iter().all(|&v| (v - 2.0).abs() < 1e-9));
        assert!(s[3..].iter().all(|&v| (v - 5.0).abs() < 1e-9));
    }

    #[test]
    fn set_lambda_validates() {
        let mut sys = system();
        assert!(sys.set_lambda(0.5).is_ok());
        assert_eq!(sys.config().lambda, 0.5);
        assert!(sys.set_lambda(-0.5).is_err());
    }

    #[test]
    fn trace_of_rejects_out_of_range_device() {
        let sys = system();
        assert!(sys.trace_of(0).is_ok());
        assert!(sys.trace_of(1).is_ok());
        assert!(matches!(
            sys.trace_of(5),
            Err(SimError::DeviceOutOfRange {
                device: 5,
                n_devices: 2
            })
        ));
    }

    #[test]
    fn benign_faults_bitwise_match_fault_free_path() {
        let sys = system();
        let clean = sys.run_iteration(3.0, &[1.7, 1.2]).unwrap();
        let faulty = sys
            .run_iteration_faulty(3.0, &[1.7, 1.2], &FleetFaults::none(2))
            .unwrap();
        assert_eq!(clean, faulty);
        assert!(clean
            .devices
            .iter()
            .all(|d| d.status == DeviceStatus::Completed));
    }

    #[test]
    fn dropout_excludes_device_from_round() {
        // Device 0 is the straggler (T_0 = 10 s); dropping it hands the
        // round to device 1 (T_1 = 7 s) and zeroes device 0 entirely.
        let sys = system();
        let mut faults = FleetFaults::none(2);
        faults.dropout[0] = true;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert!((r.duration - 7.0).abs() < 1e-9);
        assert_eq!(r.devices[0].status, DeviceStatus::Dropped);
        assert_eq!(r.devices[0].total_time(), 0.0);
        assert_eq!(r.devices[0].total_energy(), 0.0);
        assert_eq!(r.devices[0].idle_time, 0.0);
        assert_eq!(r.devices[1].status, DeviceStatus::Completed);
        assert_eq!(r.survivors(), 1);
        // All dropped → no-op round.
        faults.dropout[1] = true;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert_eq!(r.duration, 0.0);
        assert_eq!(r.survivors(), 0);
        assert_eq!(r.total_energy(), 0.0);
    }

    #[test]
    fn straggler_inflates_time_and_energy() {
        // Device 1 at factor 2: compute 5 → 10 s (energy 4 → 8 J), upload
        // airtime 2 → 4 s (energy 0.4 → 0.8 J). Total 14 s sets T^k.
        let sys = system();
        let mut faults = FleetFaults::none(2);
        faults.cmp_factor[1] = 2.0;
        faults.com_factor[1] = 2.0;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert!((r.duration - 14.0).abs() < 1e-9);
        assert_eq!(r.devices[1].status, DeviceStatus::Straggled);
        assert!((r.devices[1].compute_time - 10.0).abs() < 1e-9);
        assert!((r.devices[1].comm_time - 4.0).abs() < 1e-9);
        assert!((r.devices[1].compute_energy - 8.0).abs() < 1e-9);
        assert!((r.devices[1].comm_energy - 0.8).abs() < 1e-9);
        // The straggler's update still arrives.
        assert_eq!(r.survivors(), 2);
    }

    #[test]
    fn upload_failure_burns_energy_but_loses_update() {
        let sys = system();
        let clean = sys.run_iteration(0.0, &[2.0, 2.0]).unwrap();
        let mut faults = FleetFaults::none(2);
        faults.upload_fail[1] = true;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert_eq!(r.devices[1].status, DeviceStatus::Failed);
        // Identical physics — only the survival flag changes.
        assert_eq!(r.duration, clean.duration);
        assert_eq!(r.devices[1].total_energy(), clean.devices[1].total_energy());
        assert_eq!(r.survivors(), 1);
    }

    #[test]
    fn blackout_stretches_wall_time_not_energy() {
        // Device 1: compute 5 s, upload airtime 2 s starting at t=5.
        // Blackout [6, 9): 1 s transmitted, 3 s pause, 1 s remainder →
        // wall comm time 5 s, airtime (and radio energy) unchanged.
        let sys = system();
        let mut faults = FleetFaults::none(2);
        faults.blackout_start_s[1] = 6.0;
        faults.blackout_dur_s[1] = 3.0;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert!((r.devices[1].comm_time - 5.0).abs() < 1e-9);
        assert!((r.devices[1].comm_energy - 0.4).abs() < 1e-9);
        assert_eq!(r.devices[1].status, DeviceStatus::Straggled);
        // A window that misses the upload changes nothing.
        let mut miss = FleetFaults::none(2);
        miss.blackout_start_s[1] = 0.0;
        miss.blackout_dur_s[1] = 2.0;
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &miss).unwrap();
        assert_eq!(r.devices[1].status, DeviceStatus::Completed);
        assert!((r.devices[1].comm_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_caps_duration_and_fails_late_devices() {
        // T_0 = 10 s, T_1 = 7 s; timeout 8 s → device 0 misses the cutoff
        // (full energy spent, update lost), T^k = 8.
        let sys = system();
        let mut faults = FleetFaults::none(2);
        faults.timeout_s = Some(8.0);
        let r = sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).unwrap();
        assert!((r.duration - 8.0).abs() < 1e-9);
        assert_eq!(r.devices[0].status, DeviceStatus::Failed);
        assert_eq!(r.devices[1].status, DeviceStatus::Completed);
        assert!((r.devices[1].idle_time - 1.0).abs() < 1e-9);
        let clean = sys.run_iteration(0.0, &[2.0, 2.0]).unwrap();
        assert_eq!(r.total_energy(), clean.total_energy());
        assert_eq!(r.survivors(), 1);
    }

    #[test]
    fn faulty_iteration_validates_inputs() {
        let sys = system();
        // Wrong fault arity.
        assert!(sys
            .run_iteration_faulty(0.0, &[2.0, 2.0], &FleetFaults::none(3))
            .is_err());
        // Bad timeout.
        let mut faults = FleetFaults::none(2);
        faults.timeout_s = Some(-1.0);
        assert!(sys.run_iteration_faulty(0.0, &[2.0, 2.0], &faults).is_err());
        // Frequency bounds still enforced, even for dropped devices.
        let mut faults = FleetFaults::none(2);
        faults.dropout[0] = true;
        assert!(sys.run_iteration_faulty(0.0, &[9.0, 2.0], &faults).is_err());
    }

    #[test]
    fn randomized_fleet_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let traces =
            TraceSet::from_profile(fl_net::synth::Profile::Walking4G, 3, 600, 1.0, &mut rng)
                .unwrap();
        let assignment = traces.assign(5, &mut rng);
        let devices = DeviceSampler::default().sample_fleet(&assignment, &mut rng);
        let sys = FlSystem::new(devices, traces, FlConfig::default()).unwrap();
        let freqs: Vec<f64> = sys.devices().iter().map(|d| d.delta_max_ghz).collect();
        let mut t = 0.0;
        for _ in 0..20 {
            let r = sys.run_iteration(t, &freqs).unwrap();
            assert!(r.duration > 0.0 && r.duration.is_finite());
            assert!(r.total_energy() > 0.0);
            t = r.end_time();
        }
    }

    proptest! {
        /// T^k is exactly the max of the per-device totals, and idle times
        /// are non-negative with at least one (the straggler) zero.
        #[test]
        fn prop_sync_invariants(f0 in 0.2f64..2.0, f1 in 0.2f64..2.0) {
            let sys = system();
            let r = sys.run_iteration(0.0, &[f0, f1]).unwrap();
            let max_total = r
                .devices
                .iter()
                .map(|d| d.total_time())
                .fold(0.0f64, f64::max);
            prop_assert!((r.duration - max_total).abs() < 1e-9);
            prop_assert!(r.devices.iter().all(|d| d.idle_time >= -1e-9));
            let min_idle = r.devices.iter().map(|d| d.idle_time).fold(f64::INFINITY, f64::min);
            prop_assert!(min_idle.abs() < 1e-9);
        }

        /// Lowering any device's frequency never lowers iteration duration
        /// and never raises its compute energy.
        #[test]
        fn prop_freq_monotonicity(f in 0.2f64..2.0) {
            let sys = system();
            let base = sys.run_iteration(0.0, &[2.0, 2.0]).unwrap();
            let slowed = sys.run_iteration(0.0, &[2.0, f]).unwrap();
            prop_assert!(slowed.duration >= base.duration - 1e-9);
            prop_assert!(
                slowed.devices[1].compute_energy <= base.devices[1].compute_energy + 1e-9
            );
        }

        /// A straggler factor ≥ 1 never *decreases* `T^k`, on either
        /// device, at any frequency pair.
        #[test]
        fn prop_straggler_never_decreases_duration(
            factor in 1.0f64..4.0,
            which in 0usize..2,
            f0 in 0.2f64..2.0,
            f1 in 0.2f64..2.0,
        ) {
            let sys = system();
            let base = sys.run_iteration(0.0, &[f0, f1]).unwrap();
            let mut faults = FleetFaults::none(2);
            faults.cmp_factor[which] = factor;
            faults.com_factor[which] = factor;
            let slowed = sys.run_iteration_faulty(0.0, &[f0, f1], &faults).unwrap();
            prop_assert!(slowed.duration >= base.duration - 1e-9);
        }

        /// Surviving-set accounting under a timeout cutoff never costs
        /// more than waiting for the full set: `T^k` is capped, energy is
        /// unchanged, so the Eq. 9 cost can only shrink.
        #[test]
        fn prop_timeout_cost_at_most_full_set(
            timeout in 1.0f64..20.0,
            f0 in 0.2f64..2.0,
            f1 in 0.2f64..2.0,
        ) {
            let sys = system();
            let full = sys.run_iteration(0.0, &[f0, f1]).unwrap();
            let mut faults = FleetFaults::none(2);
            faults.timeout_s = Some(timeout);
            let cut = sys.run_iteration_faulty(0.0, &[f0, f1], &faults).unwrap();
            prop_assert!(cut.duration <= timeout + 1e-12);
            prop_assert!(cut.duration <= full.duration + 1e-12);
            let lambda = sys.config().lambda;
            prop_assert!(cut.cost(lambda) <= full.cost(lambda) + 1e-9);
        }

        /// Dropout probability extremes at the outcome level: 0 → no
        /// `Dropped` status ever; 1 → every device `Dropped`.
        #[test]
        fn prop_dropout_extremes_in_outcomes(seed in 0u64..500, k in 0u64..20) {
            let sys = system();
            let always = FaultPlan::new(
                FaultModel { dropout_prob: 1.0, ..FaultModel::none() },
                2,
                seed,
            ).unwrap();
            let r = sys
                .run_iteration_faulty(0.0, &[2.0, 2.0], &always.faults_at(k))
                .unwrap();
            prop_assert!(r.devices.iter().all(|d| d.status == DeviceStatus::Dropped));
            prop_assert_eq!(r.duration, 0.0);
            let never = FaultPlan::new(FaultModel::chaos(0.0, 0.5, Some(60.0)), 2, seed).unwrap();
            let r = sys
                .run_iteration_faulty(0.0, &[2.0, 2.0], &never.faults_at(k))
                .unwrap();
            prop_assert!(r.devices.iter().all(|d| d.status != DeviceStatus::Dropped));
        }
    }
}
