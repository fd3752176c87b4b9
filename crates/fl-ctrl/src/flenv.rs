//! The DRL environment: federated learning as a control problem.

use crate::{CtrlError, Result};
use fl_rl::{Environment, Step};
use fl_sim::{FaultModel, FaultPlan, FleetSim, IterationReport};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Observation layout served to the policy.
///
/// The per-device mode is the paper's state design; the pooled mode is the
/// fleet-scale extension: a fixed-size vector of cross-device quantile
/// summaries (see `fl_sim::pooled_observation`), so the same policy can be
/// trained at N=10 and deployed at N=10⁶.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ObsMode {
    /// Device-major `H+1` bandwidth slots per device (width grows with N).
    #[default]
    PerDevice,
    /// Quantile-pooled fleet summary (width independent of N). With faults
    /// enabled the per-device participation tail collapses to a single
    /// survival-fraction entry.
    Pooled,
}

/// Environment shape parameters (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// `h`: bandwidth aggregation slot length in seconds ("tens of
    /// seconds" per the paper).
    pub slot_h: f64,
    /// `H`: how many *past* slots beyond the current one enter the state
    /// (state has `H + 1` entries per device).
    pub history_len: usize,
    /// Iterations per training episode.
    pub episode_len: usize,
    /// Frequency floor as a fraction of `δ_max` (keeps compute time
    /// finite; the paper's open interval `(0, δ_max]` needs some floor in
    /// any discretization).
    pub min_freq_frac: f64,
    /// Optional fault-injection model. `None` (or `FaultModel::none()`)
    /// keeps the environment bit-identical to the fault-free path: no
    /// extra RNG draws, no observation tail. With faults enabled, every
    /// episode draws a fresh [`FaultPlan`] seed from the env's RNG stream
    /// and the observation gains per-device participation flags.
    pub faults: Option<FaultModel>,
    /// Observation layout (defaults to the paper's per-device state).
    pub obs: ObsMode,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            slot_h: 10.0,
            history_len: 8,
            episode_len: 50,
            min_freq_frac: 0.1,
            faults: None,
            obs: ObsMode::PerDevice,
        }
    }
}

impl EnvConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.slot_h > 0.0) || !self.slot_h.is_finite() {
            return Err(CtrlError::InvalidArgument(format!(
                "slot_h must be positive, got {}",
                self.slot_h
            )));
        }
        if self.episode_len == 0 {
            return Err(CtrlError::InvalidArgument(
                "episode_len must be nonzero".to_string(),
            ));
        }
        if !(self.min_freq_frac > 0.0 && self.min_freq_frac <= 1.0) {
            return Err(CtrlError::InvalidArgument(format!(
                "min_freq_frac must be in (0, 1], got {}",
                self.min_freq_frac
            )));
        }
        if let Some(m) = self.faults {
            m.validate()?;
        }
        Ok(())
    }

    /// True when a non-trivial fault model is configured — the switch for
    /// every fault-aware code path (plan seeding, observation tail,
    /// faulty iterations).
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some_and(|m| !m.is_none())
    }
}

/// Maps one raw Gaussian policy output into a feasible frequency:
/// `δ = (min_frac + σ(raw) · (1 − min_frac)) · δ_max ∈ (0, δ_max]`.
///
/// The sigmoid squash lives on the environment side so the policy's
/// Gaussian log-probabilities stay exact (no tanh-correction terms).
pub fn squash_to_freq(raw: f64, delta_max: f64, min_frac: f64) -> f64 {
    let s = if raw >= 0.0 {
        1.0 / (1.0 + (-raw).exp())
    } else {
        let e = raw.exp();
        e / (1.0 + e)
    };
    (min_frac + s * (1.0 - min_frac)) * delta_max
}

/// The paper's MDP (Section IV-B):
///
/// * **State** `s_k`: for every device, the `H+1` most recent `h`-second
///   bandwidth slot-averages (newest first), concatenated device-major.
/// * **Action** `a_k`: one raw value per device, squashed into
///   `(0, δ_i^max]` by [`squash_to_freq`].
/// * **Reward** (Eq. 13): `r_k = −T^k − λ Σ_i E_i^k`.
/// * **Episode**: `episode_len` synchronized FL iterations starting from a
///   uniformly random trace time (Algorithm 1 line 6).
pub struct FlFreqEnv {
    sys: FleetSim,
    cfg: EnvConfig,
    t: f64,
    k: usize,
    last_report: Option<IterationReport>,
    /// The episode's realized fault schedule (None on the fault-free path
    /// or before the first faulty reset).
    plan: Option<FaultPlan>,
    /// Previous iteration's per-device participation flags (1.0 =
    /// survived), appended to the observation when faults are enabled.
    flags: Vec<f64>,
    /// Episodes started over this env's lifetime (bumped by the trait
    /// [`Environment::reset`], serialized with the env state). The episode
    /// currently in progress has index `started − 1`; it keys the
    /// deterministic `fl_round` events so they stay stable across worker
    /// counts and kill/resume boundaries. Maintained unconditionally —
    /// recording on or off never changes env behavior.
    started: u64,
    /// Observability hub (disabled by default) plus the scope string
    /// (`env0`, `env1`, …) prefixed onto event keys.
    recorder: fl_obs::Recorder,
    scope: String,
}

impl FlFreqEnv {
    /// Wraps a federated-learning system as an MDP.
    pub fn new(sys: FleetSim, cfg: EnvConfig) -> Result<Self> {
        cfg.validate()?;
        let n = sys.num_devices();
        Ok(FlFreqEnv {
            sys,
            cfg,
            t: 0.0,
            k: 0,
            last_report: None,
            plan: None,
            flags: vec![1.0; n],
            started: 0,
            recorder: fl_obs::Recorder::disabled(),
            scope: "env0".to_string(),
        })
    }

    /// Attaches an observability recorder under `scope` (e.g. `env0`):
    /// every iteration emits a deterministic `fl_round` event with the
    /// paper's per-round telemetry (`T^k`, per-device `t_cmp`/`t_com`/
    /// `E_i^k`, chosen frequencies, outcome tally). Recording never
    /// consumes RNG and never changes the trajectory.
    pub fn set_recorder(&mut self, recorder: fl_obs::Recorder, scope: impl Into<String>) {
        self.recorder = recorder;
        self.scope = scope.into();
    }

    /// The wrapped system.
    pub fn system(&self) -> &FleetSim {
        &self.sys
    }

    /// The environment configuration.
    pub fn env_config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Iteration index within the current episode.
    pub fn iteration(&self) -> usize {
        self.k
    }

    /// The report of the most recent iteration (None right after reset).
    pub fn last_report(&self) -> Option<&IterationReport> {
        self.last_report.as_ref()
    }

    /// The episode's fault plan, if one is active.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Installs (or clears) an explicit fault plan — evaluation harnesses
    /// use this to pin the exact same chaos schedule across controllers.
    /// Training resets draw a fresh plan per episode instead.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<()> {
        if let Some(p) = &plan {
            if p.n_devices() != self.sys.num_devices() {
                return Err(CtrlError::InvalidArgument(format!(
                    "fault plan covers {} devices, system has {}",
                    p.n_devices(),
                    self.sys.num_devices()
                )));
            }
        }
        self.plan = plan;
        Ok(())
    }

    /// Squashes a raw action vector into per-device frequencies.
    pub fn map_action(&self, raw: &[f64]) -> Vec<f64> {
        self.sys
            .state()
            .delta_max_ghz
            .iter()
            .zip(raw)
            .map(|(&cap, &a)| squash_to_freq(a, cap, self.cfg.min_freq_frac))
            .collect()
    }

    fn observe(&self) -> Result<Vec<f64>> {
        match self.cfg.obs {
            ObsMode::PerDevice => {
                let mut obs = self.sys.observe_bandwidth_state(
                    self.t,
                    self.cfg.slot_h,
                    self.cfg.history_len,
                )?;
                if self.cfg.faults_enabled() {
                    obs.extend_from_slice(&self.flags);
                }
                Ok(obs)
            }
            ObsMode::Pooled => {
                // The per-device participation tail collapses to one
                // survival-fraction entry so the obs width stays fixed.
                // Fold from +0.0 (std's `.sum()` starts at -0.0) so an
                // all-failed round yields exactly +0.0, not -0.0.
                let survival = self.cfg.faults_enabled().then(|| {
                    self.flags.iter().fold(0.0, |a, &f| a + f) / self.flags.len().max(1) as f64
                });
                Ok(self.sys.observe_pooled(
                    self.t,
                    self.cfg.slot_h,
                    self.cfg.history_len,
                    survival,
                )?)
            }
        }
    }

    /// Resets to a random start time, fallible version.
    pub fn reset_at(&mut self, t_start: f64) -> Result<Vec<f64>> {
        self.t = t_start;
        self.k = 0;
        self.last_report = None;
        // Post-reset convention: every device assumed participating.
        self.flags = vec![1.0; self.sys.num_devices()];
        self.observe()
    }

    fn step_inner(&mut self, action: &[f64]) -> Result<Step> {
        if action.len() != self.sys.num_devices() {
            return Err(CtrlError::InvalidArgument(format!(
                "expected {} action dims, got {}",
                self.sys.num_devices(),
                action.len()
            )));
        }
        let freqs = self.map_action(action);
        let report = match &self.plan {
            Some(plan) => {
                let faults = plan.faults_at(self.k as u64);
                self.sys.run_iteration_faulty(self.t, &freqs, &faults)?
            }
            None => self.sys.run_iteration(self.t, &freqs)?,
        };
        let reward = -report.cost(self.sys.config().lambda);
        self.emit_round_event(&report, &freqs);
        self.t = report.end_time();
        self.k += 1;
        if self.cfg.faults_enabled() {
            self.flags = report
                .devices
                .iter()
                .map(|d| if d.status.survived() { 1.0 } else { 0.0 })
                .collect();
        }
        self.last_report = Some(report);
        let done = self.k >= self.cfg.episode_len;
        Ok(Step {
            obs: self.observe()?,
            reward,
            done,
        })
    }

    /// Emits the deterministic `fl_round` event for a just-evaluated
    /// iteration (no-op when recording is off). Called *before* `t`/`k`
    /// advance, so `self.k` is the round's own index. Every field is a
    /// pure function of the physics; the key is
    /// `{scope}/e{episode}/k{round}`, both counters surviving checkpoints.
    fn emit_round_event(&self, report: &IterationReport, freqs: &[f64]) {
        if !self.recorder.is_enabled() {
            return;
        }
        let episode = self.started.saturating_sub(1);
        let tally = report.outcome_tally();
        let dev = |f: fn(&fl_sim::DeviceOutcome) -> f64| -> Vec<f64> {
            report.devices.iter().map(f).collect()
        };
        self.recorder.emit(
            fl_obs::Event::det(
                "fl_round",
                format!("{}/e{:06}/k{:04}", self.scope, episode, self.k),
            )
            .u("episode", episode)
            .u("k", self.k as u64)
            .f("t_start", report.start_time)
            .f("duration", report.duration)
            .f("cost", report.cost(self.sys.config().lambda))
            .f("energy", report.total_energy())
            .arr_f("freqs", freqs)
            .arr_f("t_cmp", &dev(|d| d.compute_time))
            .arr_f("t_com", &dev(|d| d.comm_time))
            .arr_f("e_i", &dev(fl_sim::DeviceOutcome::total_energy))
            .u("completed", tally.completed as u64)
            .u("straggled", tally.straggled as u64)
            .u("dropped", tally.dropped as u64)
            .u("failed", tally.failed as u64),
        );
    }
}

impl Environment for FlFreqEnv {
    fn obs_dim(&self) -> usize {
        match self.cfg.obs {
            ObsMode::PerDevice => {
                let base = self.sys.num_devices() * (self.cfg.history_len + 1);
                if self.cfg.faults_enabled() {
                    base + self.sys.num_devices()
                } else {
                    base
                }
            }
            ObsMode::Pooled => {
                fl_sim::pooled_obs_dim(self.cfg.history_len, self.cfg.faults_enabled())
            }
        }
    }

    fn action_dim(&self) -> usize {
        self.sys.num_devices()
    }

    fn reset(&mut self, rng: &mut ChaCha8Rng) -> fl_rl::Result<Vec<f64>> {
        // The episode now starting gets index `started`; the bump is
        // unconditional and RNG-free.
        self.started += 1;
        // Algorithm 1 line 6: random federated-learning start time.
        let horizon = self.sys.traces().random_start_time(rng).max(0.0);
        // Keep the start beyond the history window so early slots exist
        // even on non-cyclic traces.
        let t = horizon + self.cfg.slot_h * (self.cfg.history_len as f64 + 1.0);
        // The plan seed comes from the same per-env stream as the start
        // time, so fault schedules are worker-count invariant. The draw is
        // strictly gated on faults being enabled: the fault-free path
        // consumes exactly the same RNG state as before this layer existed.
        if self.cfg.faults_enabled() {
            let model = self.cfg.faults.expect("faults_enabled implies Some");
            let seed = rng.next_u64();
            self.plan = Some(
                FaultPlan::new(model, self.sys.num_devices(), seed)
                    .map_err(|e| fl_rl::RlError::Environment(e.to_string()))?,
            );
        }
        self.reset_at(t)
            .map_err(|e| fl_rl::RlError::Environment(e.to_string()))
    }

    fn step(&mut self, action: &[f64]) -> fl_rl::Result<Step> {
        self.step_inner(action)
            .map_err(|e| fl_rl::RlError::Environment(e.to_string()))
    }

    /// The Eq. 12 system cost of the last iteration — what the training
    /// diagnostics (Fig. 6(b)) average per episode. Identical to `-reward`
    /// today, but reported through the metric channel so reward shaping
    /// can never silently skew the cost curves.
    fn step_metric(&self) -> Option<f64> {
        self.last_report().map(|r| r.cost(self.sys.config().lambda))
    }
}

/// The serialized form of [`FlFreqEnv`]'s mutable state. The wrapped
/// system and config are construction-time constants, so only the episode
/// cursor travels. The fault-plan seed is a full 64-bit value drawn from
/// the env's RNG stream; it crosses the JSON payload as two `u32` halves
/// because the vendored serde models every number as `f64` (lossy above
/// 2⁵³).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlFreqEnvState {
    t: f64,
    k: usize,
    /// Lifetime episode counter (exact below 2⁵³ — far beyond any run).
    started: u64,
    flags: Vec<f64>,
    last_report: Option<IterationReport>,
    plan: Option<PlanState>,
}

/// Serialized [`FaultPlan`]: model + split seed (device count comes from
/// the system at import time).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanState {
    model: FaultModel,
    seed_lo: u32,
    seed_hi: u32,
}

impl fl_rl::SnapshotEnv for FlFreqEnv {
    fn export_env_state(&self) -> serde::Value {
        FlFreqEnvState {
            t: self.t,
            k: self.k,
            started: self.started,
            flags: self.flags.clone(),
            last_report: self.last_report.clone(),
            plan: self.plan.as_ref().map(|p| {
                let (seed_lo, seed_hi) = fl_rl::snapshot::split_u64(p.seed());
                PlanState {
                    model: *p.model(),
                    seed_lo,
                    seed_hi,
                }
            }),
        }
        .to_value()
    }

    fn import_env_state(&mut self, state: &serde::Value) -> fl_rl::Result<()> {
        let bad = |e: String| fl_rl::RlError::InvalidArgument(e);
        let s = FlFreqEnvState::from_value(state).map_err(|e| bad(e.to_string()))?;
        let n = self.sys.num_devices();
        if s.flags.len() != n {
            return Err(bad(format!(
                "env state has {} participation flags, system has {n} devices",
                s.flags.len()
            )));
        }
        if let Some(r) = &s.last_report {
            if r.devices.len() != n {
                return Err(bad(format!(
                    "env state report covers {} devices, system has {n}",
                    r.devices.len()
                )));
            }
        }
        let plan = match &s.plan {
            Some(p) => Some(
                FaultPlan::new(p.model, n, fl_rl::snapshot::join_u64(p.seed_lo, p.seed_hi))
                    .map_err(|e| bad(e.to_string()))?,
            ),
            None => None,
        };
        self.t = s.t;
        self.k = s.k;
        self.started = s.started;
        self.flags = s.flags;
        self.last_report = s.last_report;
        self.plan = plan;
        Ok(())
    }
}

/// Builds a standard experiment system: `n_devices` sampled per the paper's
/// Section V-A ranges, each assigned a random trace from `n_traces`
/// generated with the given profile.
pub fn build_system(
    n_devices: usize,
    n_traces: usize,
    profile: fl_net::synth::Profile,
    trace_slots: usize,
    config: fl_sim::FlConfig,
    rng: &mut impl Rng,
) -> Result<FleetSim> {
    build_system_with(
        n_devices,
        n_traces,
        profile,
        trace_slots,
        config,
        &fl_sim::DeviceSampler::default(),
        rng,
    )
}

/// [`build_system`] with an explicit device sampler (used when a scenario
/// overrides the default parameter ranges — see `fl-bench`'s calibration
/// notes in DESIGN.md/EXPERIMENTS.md).
pub fn build_system_with(
    n_devices: usize,
    n_traces: usize,
    profile: fl_net::synth::Profile,
    trace_slots: usize,
    config: fl_sim::FlConfig,
    sampler: &fl_sim::DeviceSampler,
    rng: &mut impl Rng,
) -> Result<FleetSim> {
    let traces = fl_net::TraceSet::from_profile(profile, n_traces, trace_slots, 1.0, rng)?;
    let assignment = traces.assign(n_devices, rng);
    let state = fl_sim::FleetState::sample(sampler, &assignment, rng)?;
    Ok(FleetSim::new(state, traces, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_net::synth::Profile;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn env(seed: u64) -> FlFreqEnv {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sys = build_system(
            3,
            3,
            Profile::Walking4G,
            1200,
            fl_sim::FlConfig::default(),
            &mut rng,
        )
        .unwrap();
        FlFreqEnv::new(sys, EnvConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = EnvConfig::default();
        assert!(c.validate().is_ok());
        c.slot_h = 0.0;
        assert!(c.validate().is_err());
        let c = EnvConfig {
            episode_len: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = EnvConfig {
            min_freq_frac: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn dims_match_paper_state_design() {
        let e = env(0);
        // N=3, H=8 → 3 * 9 = 27 state entries, 3 action dims.
        assert_eq!(e.obs_dim(), 27);
        assert_eq!(e.action_dim(), 3);
    }

    #[test]
    fn squash_respects_bounds() {
        for raw in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let f = squash_to_freq(raw, 2.0, 0.1);
            assert!(f > 0.0 && f <= 2.0, "raw={raw} -> {f}");
            assert!(f >= 0.2 - 1e-12, "floor violated: {f}");
        }
        // Extremes approach the bounds.
        assert!((squash_to_freq(100.0, 2.0, 0.1) - 2.0).abs() < 1e-9);
        assert!((squash_to_freq(-100.0, 2.0, 0.1) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reset_step_cycle() {
        let mut e = env(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let obs = e.reset(&mut rng).unwrap();
        assert_eq!(obs.len(), 27);
        assert!(e.last_report().is_none());
        let step = e.step(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(step.obs.len(), 27);
        assert!(step.reward < 0.0, "cost is positive so reward is negative");
        assert!(!step.done);
        assert!(e.last_report().is_some());
        assert_eq!(e.iteration(), 1);
    }

    #[test]
    fn reward_equals_negative_cost() {
        let mut e = env(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        e.reset(&mut rng).unwrap();
        let step = e.step(&[0.5, -0.5, 0.0]).unwrap();
        let lambda = e.system().config().lambda;
        let report = e.last_report().unwrap();
        assert!((step.reward + report.cost(lambda)).abs() < 1e-9);
    }

    #[test]
    fn episode_terminates_at_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sys = build_system(
            2,
            2,
            Profile::Walking4G,
            1200,
            fl_sim::FlConfig::default(),
            &mut rng,
        )
        .unwrap();
        let cfg = EnvConfig {
            episode_len: 3,
            ..EnvConfig::default()
        };
        let mut e = FlFreqEnv::new(sys, cfg).unwrap();
        e.reset(&mut rng).unwrap();
        assert!(!e.step(&[0.0, 0.0]).unwrap().done);
        assert!(!e.step(&[0.0, 0.0]).unwrap().done);
        assert!(e.step(&[0.0, 0.0]).unwrap().done);
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut e = env(6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        e.reset(&mut rng).unwrap();
        assert!(e.step(&[0.0]).is_err());
    }

    #[test]
    fn time_advances_by_iteration_duration() {
        let mut e = env(8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        e.reset(&mut rng).unwrap();
        let t0 = e.time();
        e.step(&[0.0, 0.0, 0.0]).unwrap();
        let report_duration = e.last_report().unwrap().duration;
        assert!((e.time() - t0 - report_duration).abs() < 1e-9);
    }

    #[test]
    fn fault_env_appends_participation_flags() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sys = build_system(
            3,
            3,
            Profile::Walking4G,
            1200,
            fl_sim::FlConfig::default(),
            &mut rng,
        )
        .unwrap();
        let cfg = EnvConfig {
            faults: Some(fl_sim::FaultModel::chaos(0.5, 0.5, Some(60.0))),
            ..EnvConfig::default()
        };
        let mut e = FlFreqEnv::new(sys, cfg).unwrap();
        // N=3, H=8 → 27 bandwidth entries + 3 participation flags.
        assert_eq!(e.obs_dim(), 30);
        let obs = e.reset(&mut rng).unwrap();
        assert_eq!(obs.len(), 30);
        assert!(obs[27..].iter().all(|&f| f == 1.0), "optimistic post-reset");
        assert!(e.fault_plan().is_some());
        let mut saw_nonsurvivor = false;
        for _ in 0..20 {
            let step = e.step(&[0.0, 0.0, 0.0]).unwrap();
            let flags: Vec<f64> = e
                .last_report()
                .unwrap()
                .survivor_flags()
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect();
            assert_eq!(&step.obs[27..], &flags[..], "tail mirrors last report");
            saw_nonsurvivor |= flags.contains(&0.0);
        }
        assert!(saw_nonsurvivor, "50% dropout but 20 rounds all clean?");
    }

    #[test]
    fn none_fault_model_is_inert() {
        // `faults: Some(FaultModel::none())` must behave exactly like
        // `faults: None`: same dims, same RNG draws, same trajectory.
        let build = |faults| {
            let mut rng = ChaCha8Rng::seed_from_u64(12);
            let sys = build_system(
                2,
                2,
                Profile::Walking4G,
                1200,
                fl_sim::FlConfig::default(),
                &mut rng,
            )
            .unwrap();
            FlFreqEnv::new(
                sys,
                EnvConfig {
                    faults,
                    ..EnvConfig::default()
                },
            )
            .unwrap()
        };
        let mut plain = build(None);
        let mut none = build(Some(fl_sim::FaultModel::none()));
        assert_eq!(plain.obs_dim(), none.obs_dim());
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let mut rng_b = ChaCha8Rng::seed_from_u64(13);
        assert_eq!(
            plain.reset(&mut rng_a).unwrap(),
            none.reset(&mut rng_b).unwrap()
        );
        assert!(none.fault_plan().is_none(), "no plan drawn for none model");
        for _ in 0..5 {
            let a = plain.step(&[0.3, -0.2]).unwrap();
            let b = none.step(&[0.3, -0.2]).unwrap();
            assert_eq!(a.obs, b.obs);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
    }

    #[test]
    fn set_fault_plan_checks_arity() {
        let mut e = env(14);
        let model = fl_sim::FaultModel::chaos(0.1, 0.1, None);
        assert!(e
            .set_fault_plan(Some(fl_sim::FaultPlan::new(model, 5, 1).unwrap()))
            .is_err());
        assert!(e
            .set_fault_plan(Some(fl_sim::FaultPlan::new(model, 3, 1).unwrap()))
            .is_ok());
        assert!(e.fault_plan().is_some());
        assert!(e.set_fault_plan(None).is_ok());
        assert!(e.fault_plan().is_none());
    }

    #[test]
    fn env_state_roundtrip_is_exact() {
        use fl_rl::SnapshotEnv;
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(20);
            let sys = build_system(
                2,
                2,
                Profile::Walking4G,
                1200,
                fl_sim::FlConfig::default(),
                &mut rng,
            )
            .unwrap();
            let cfg = EnvConfig {
                episode_len: 6,
                faults: Some(fl_sim::FaultModel::chaos(0.3, 0.3, Some(60.0))),
                ..EnvConfig::default()
            };
            FlFreqEnv::new(sys, cfg).unwrap()
        };
        // Advance a donor env mid-episode, capture, restore into a fresh
        // twin, and require bit-identical trajectories from there on.
        let mut donor = build();
        let mut rng = ChaCha8Rng::seed_from_u64(0xFEED_FACE_1234_5678);
        donor.reset(&mut rng).unwrap();
        donor.step(&[0.2, -0.4]).unwrap();
        donor.step(&[-0.1, 0.6]).unwrap();
        let state = donor.export_env_state();
        let mut twin = build();
        twin.import_env_state(&state).unwrap();
        assert_eq!(twin.fault_plan(), donor.fault_plan(), "u64 seed survives");
        for _ in 0..4 {
            let a = donor.step(&[0.3, 0.3]).unwrap();
            let b = twin.step(&[0.3, 0.3]).unwrap();
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
            assert_eq!(a.obs, b.obs);
            assert_eq!(a.done, b.done);
        }
        // Foreign shapes are rejected, not absorbed.
        let mut rng3 = ChaCha8Rng::seed_from_u64(21);
        let sys3 = build_system(
            3,
            2,
            Profile::Walking4G,
            1200,
            fl_sim::FlConfig::default(),
            &mut rng3,
        )
        .unwrap();
        let mut wrong = FlFreqEnv::new(sys3, EnvConfig::default()).unwrap();
        assert!(wrong.import_env_state(&state).is_err());
        assert!(twin.import_env_state(&serde::Value::Null).is_err());
    }

    #[test]
    fn pooled_obs_mode_has_fixed_width() {
        // Same H, different N → same obs width (the per-device mode grows
        // linearly in N instead).
        for (n, seed) in [(3usize, 30u64), (7, 31)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sys = build_system(
                n,
                3,
                Profile::Walking4G,
                1200,
                fl_sim::FlConfig::default(),
                &mut rng,
            )
            .unwrap();
            let cfg = EnvConfig {
                obs: ObsMode::Pooled,
                ..EnvConfig::default()
            };
            let mut e = FlFreqEnv::new(sys, cfg).unwrap();
            assert_eq!(e.obs_dim(), fl_sim::pooled_obs_dim(8, false));
            assert_eq!(e.action_dim(), n);
            let obs = e.reset(&mut rng).unwrap();
            assert_eq!(obs.len(), e.obs_dim());
            let step = e.step(&vec![0.0; n]).unwrap();
            assert_eq!(step.obs.len(), e.obs_dim());
        }
    }

    #[test]
    fn pooled_obs_with_faults_carries_survival_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let sys = build_system(
            4,
            3,
            Profile::Walking4G,
            1200,
            fl_sim::FlConfig::default(),
            &mut rng,
        )
        .unwrap();
        let cfg = EnvConfig {
            obs: ObsMode::Pooled,
            faults: Some(fl_sim::FaultModel::chaos(0.5, 0.5, Some(60.0))),
            ..EnvConfig::default()
        };
        let mut e = FlFreqEnv::new(sys, cfg).unwrap();
        assert_eq!(e.obs_dim(), fl_sim::pooled_obs_dim(8, true));
        let obs = e.reset(&mut rng).unwrap();
        assert_eq!(obs.len(), e.obs_dim());
        assert_eq!(*obs.last().unwrap(), 1.0, "optimistic post-reset");
        for _ in 0..12 {
            let step = e.step(&[0.0; 4]).unwrap();
            let survived = e
                .last_report()
                .unwrap()
                .survivor_flags()
                .iter()
                .filter(|&&b| b)
                .count();
            let expect = survived as f64 / 4.0;
            assert_eq!(
                step.obs.last().unwrap().to_bits(),
                expect.to_bits(),
                "tail is the previous round's survival fraction"
            );
        }
    }

    proptest! {
        /// Squash output always lies in (min_frac·max, max].
        #[test]
        fn prop_squash_bounds(raw in -50.0f64..50.0, dmax in 0.5f64..4.0, frac in 0.01f64..0.9) {
            let f = squash_to_freq(raw, dmax, frac);
            prop_assert!(f >= frac * dmax - 1e-12);
            prop_assert!(f <= dmax + 1e-12);
        }

        /// Squash is monotone in the raw action.
        #[test]
        fn prop_squash_monotone(a in -10.0f64..10.0, b in -10.0f64..10.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(
                squash_to_freq(lo, 2.0, 0.1) <= squash_to_freq(hi, 2.0, 0.1) + 1e-12
            );
        }
    }
}
