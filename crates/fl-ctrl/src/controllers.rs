//! Frequency controllers: the trained DRL actor and the baselines. The
//! actor's report and fleet-round decisions share one body: the training
//! observation ([`policy_observation`]) through [`DrlController::decide_rows`].

use crate::flenv::{policy_observation, squash_actions, ObsMode, Participation};
use crate::solver::{optimize_frequencies, SolverParams};
use crate::{CtrlError, Result};
use fl_rl::{GaussianPolicy, RunningNorm};
use fl_sim::{FleetRound, FleetSim, IterationReport};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A per-iteration CPU-frequency policy, evaluated online against the same
/// [`FleetSim`] physics for every approach (Section V's comparison).
pub trait FrequencyController {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Chooses frequencies for iteration `k` starting at `t_start`.
    /// `prev` is the previous iteration's outcome (None for `k = 0`) —
    /// the only feedback the Heuristic baseline is allowed to use.
    fn decide(
        &mut self,
        k: usize,
        t_start: f64,
        sys: &FleetSim,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>>;

    /// Clears any per-run state (called between evaluation runs).
    fn reset(&mut self) {}
}

fn solver_params(sys: &FleetSim, min_freq_frac: f64) -> SolverParams {
    let c = sys.config();
    SolverParams {
        tau: c.tau,
        model_size_mb: c.model_size_mb,
        lambda: c.lambda,
        min_freq_frac,
    }
}

/// Long-run mean bandwidth of each device's trace — the "average of some
/// randomly selected bandwidth data" the Static baseline is built from.
fn trace_mean_bandwidths(sys: &FleetSim) -> Result<Vec<f64>> {
    (0..sys.num_devices())
        .map(|i| Ok(sys.trace_of(i)?.mean()))
        .collect()
}

// ---------------------------------------------------------------------------

/// Always run at `δ_i^max` — the behaviour of schedulers that ignore energy
/// entirely; the natural upper reference for energy consumption.
#[derive(Debug, Clone, Default)]
pub struct MaxFreqController;

impl FrequencyController for MaxFreqController {
    fn name(&self) -> &str {
        "maxfreq"
    }

    fn decide(
        &mut self,
        _k: usize,
        _t: f64,
        sys: &FleetSim,
        _prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        Ok(sys.max_freqs())
    }
}

// ---------------------------------------------------------------------------

/// The **Static** baseline (Tran et al., the paper's ref. 4): assumes the network is static,
/// solves the frequency optimization *once* at session start against
/// sampled-average bandwidth, and never adapts.
#[derive(Debug, Clone)]
pub struct StaticController {
    min_freq_frac: f64,
    /// Bandwidth estimates fixed at construction.
    estimates: Vec<f64>,
    /// Cached plan (computed lazily on the first decide).
    plan: Option<Vec<f64>>,
}

impl StaticController {
    /// Builds the controller per the paper's description: "randomly select
    /// some bandwidth data from the dataset, and determine the CPU-cycle
    /// frequency for each mobile device according to the average value of
    /// these bandwidth data" — i.e. one *pool-wide* average (random
    /// instants from random traces), applied to every device.
    pub fn new(
        sys: &FleetSim,
        samples: usize,
        min_freq_frac: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if samples == 0 {
            return Err(CtrlError::InvalidArgument(
                "samples must be nonzero".to_string(),
            ));
        }
        let pool = sys.traces();
        let mut acc = 0.0;
        for _ in 0..samples {
            let trace = pool
                .get(rng.gen_range(0..pool.len()))
                .expect("index in range");
            let t = rng.gen_range(0.0..trace.duration());
            acc += trace.bandwidth_at(t)?;
        }
        let pool_avg = acc / samples as f64;
        Ok(StaticController {
            min_freq_frac,
            estimates: vec![pool_avg; sys.num_devices()],
            plan: None,
        })
    }

    /// The bandwidth estimates the plan is built on.
    #[cfg(test)]
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }
}

impl FrequencyController for StaticController {
    fn name(&self) -> &str {
        "static"
    }

    fn decide(
        &mut self,
        _k: usize,
        _t: f64,
        sys: &FleetSim,
        _prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        if self.plan.is_none() {
            let plan = optimize_frequencies(
                &sys.devices(),
                &solver_params(sys, self.min_freq_frac),
                &self.estimates,
            )?;
            self.plan = Some(plan.freqs);
        }
        Ok(self.plan.clone().expect("just set"))
    }

    fn reset(&mut self) {
        self.plan = None;
    }
}

// ---------------------------------------------------------------------------

/// The **Heuristic** baseline (Wang et al., the paper's ref. 3): at each iteration the
/// parameter server knows the bandwidth every device *realized in the
/// previous iteration* and re-solves the frequency optimization assuming
/// the next iteration will look the same.
#[derive(Debug, Clone)]
pub struct HeuristicController {
    min_freq_frac: f64,
}

impl HeuristicController {
    /// Builds the controller.
    pub fn new(min_freq_frac: f64) -> Self {
        HeuristicController { min_freq_frac }
    }
}

impl Default for HeuristicController {
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl FrequencyController for HeuristicController {
    fn name(&self) -> &str {
        "heuristic"
    }

    fn decide(
        &mut self,
        _k: usize,
        _t: f64,
        sys: &FleetSim,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        let estimates: Vec<f64> = match prev {
            Some(report) => report.devices.iter().map(|d| d.avg_bandwidth).collect(),
            // First iteration: no observation yet; fall back to trace means
            // (equivalent to the Static estimate for one round).
            None => trace_mean_bandwidths(sys)?,
        };
        let plan = optimize_frequencies(
            &sys.devices(),
            &solver_params(sys, self.min_freq_frac),
            &estimates,
        )?;
        Ok(plan.freqs)
    }
}

// ---------------------------------------------------------------------------

/// Classical predict-then-optimize controller: a per-device bandwidth
/// predictor (last-value, EWMA, AR(1), ... from `fl_net::predict`) feeds
/// the model-based solver every iteration.
///
/// This generalizes the Heuristic baseline (which is exactly
/// `Predictive(LastValue)` up to the first-iteration fallback) and is the
/// strongest *hand-designed* family the DRL agent competes with — the
/// `abl_predictors` bench runs the whole family.
pub struct PredictiveController {
    name: String,
    min_freq_frac: f64,
    predictors: Vec<Box<dyn fl_net::predict::Predictor + Send>>,
}

impl PredictiveController {
    /// Builds the controller from one predictor per device.
    pub fn new(
        label: &str,
        predictors: Vec<Box<dyn fl_net::predict::Predictor + Send>>,
        min_freq_frac: f64,
    ) -> Result<Self> {
        if predictors.is_empty() {
            return Err(CtrlError::InvalidArgument(
                "need at least one predictor".to_string(),
            ));
        }
        Ok(PredictiveController {
            name: format!("pred-{label}"),
            min_freq_frac,
            predictors,
        })
    }

    /// Convenience: the same predictor kind for every device, constructed
    /// by a closure receiving the device's long-run mean bandwidth as the
    /// prior.
    pub fn uniform(
        label: &str,
        sys: &FleetSim,
        min_freq_frac: f64,
        make: impl Fn(f64) -> Box<dyn fl_net::predict::Predictor + Send>,
    ) -> Result<Self> {
        let predictors = (0..sys.num_devices())
            .map(|i| Ok(make(sys.trace_of(i)?.mean())))
            .collect::<Result<Vec<_>>>()?;
        Self::new(label, predictors, min_freq_frac)
    }
}

impl std::fmt::Debug for PredictiveController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictiveController")
            .field("name", &self.name)
            .field("devices", &self.predictors.len())
            .finish()
    }
}

impl FrequencyController for PredictiveController {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(
        &mut self,
        _k: usize,
        _t: f64,
        sys: &FleetSim,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        if self.predictors.len() != sys.num_devices() {
            return Err(CtrlError::InvalidArgument(format!(
                "{} predictors for {} devices",
                self.predictors.len(),
                sys.num_devices()
            )));
        }
        if let Some(report) = prev {
            for (p, d) in self.predictors.iter_mut().zip(&report.devices) {
                p.observe(d.avg_bandwidth);
            }
        }
        let estimates: Vec<f64> = self.predictors.iter().map(|p| p.predict()).collect();
        let plan = optimize_frequencies(
            &sys.devices(),
            &solver_params(sys, self.min_freq_frac),
            &estimates,
        )?;
        Ok(plan.freqs)
    }

    fn reset(&mut self) {
        for p in &mut self.predictors {
            p.reset();
        }
    }
}

// ---------------------------------------------------------------------------

/// Clairvoyant reference: optimizes each iteration against the *actual*
/// future bandwidth of every trace (which no deployable controller can
/// know). Reported as the lower-bound line in the figures.
#[derive(Debug, Clone)]
pub struct OracleController {
    min_freq_frac: f64,
    grid_points: usize,
}

impl OracleController {
    /// Builds the oracle with the default search resolution.
    pub fn new(min_freq_frac: f64) -> Self {
        OracleController {
            min_freq_frac,
            grid_points: 48,
        }
    }

    /// Exact finish time (relative to `t_start`) of a device running at
    /// frequency `f`, via trace integration.
    fn finish_time(sys: &FleetSim, device: usize, t_start: f64, freq: f64) -> Result<f64> {
        let d = sys.state().device(device);
        let compute = d.compute_time(sys.config().tau, freq);
        let comm = sys
            .trace_of(device)?
            .transfer_time(t_start + compute, sys.config().model_size_mb)?;
        Ok(compute + comm)
    }

    /// Minimal frequency meeting deadline `rel_deadline` for one device
    /// (bisection; finish time is non-increasing in frequency).
    fn min_feasible_freq(
        sys: &FleetSim,
        device: usize,
        t_start: f64,
        rel_deadline: f64,
        min_frac: f64,
    ) -> Result<f64> {
        let cap = sys.state().delta_max_ghz[device];
        let mut lo = min_frac * cap;
        let mut hi = cap;
        if Self::finish_time(sys, device, t_start, hi)? > rel_deadline {
            return Ok(hi); // deadline unreachable: run flat out
        }
        if Self::finish_time(sys, device, t_start, lo)? <= rel_deadline {
            return Ok(lo);
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if Self::finish_time(sys, device, t_start, mid)? <= rel_deadline {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    fn exact_cost(sys: &FleetSim, t_start: f64, freqs: &[f64]) -> Result<f64> {
        let report = sys.run_iteration(t_start, freqs)?;
        Ok(report.cost(sys.config().lambda))
    }
}

impl Default for OracleController {
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl FrequencyController for OracleController {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(
        &mut self,
        _k: usize,
        t_start: f64,
        sys: &FleetSim,
        _prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        let n = sys.num_devices();
        // Deadline range from the exact finish times at the extremes.
        let mut t_lo: f64 = 0.0;
        let mut t_hi: f64 = 0.0;
        for (i, &cap) in sys.state().delta_max_ghz.iter().enumerate() {
            t_lo = t_lo.max(Self::finish_time(sys, i, t_start, cap)?);
            t_hi = t_hi.max(Self::finish_time(
                sys,
                i,
                t_start,
                self.min_freq_frac * cap,
            )?);
        }
        let mut best_freqs: Option<Vec<f64>> = None;
        let mut best_cost = f64::INFINITY;
        let points = self.grid_points.max(2);
        for g in 0..points {
            let deadline = t_lo + (t_hi - t_lo) * g as f64 / (points - 1) as f64;
            let mut freqs = Vec::with_capacity(n);
            for i in 0..n {
                freqs.push(Self::min_feasible_freq(
                    sys,
                    i,
                    t_start,
                    deadline,
                    self.min_freq_frac,
                )?);
            }
            let cost = Self::exact_cost(sys, t_start, &freqs)?;
            if cost < best_cost {
                best_cost = cost;
                best_freqs = Some(freqs);
            }
        }
        best_freqs
            .ok_or_else(|| CtrlError::InvalidArgument("oracle search produced no plan".to_string()))
    }
}

// ---------------------------------------------------------------------------

/// The trained DRL actor deployed for online reasoning (Section V-B2):
/// state in, deterministic mean action out, squashed into frequencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrlController {
    policy: GaussianPolicy,
    obs_norm: RunningNorm,
    /// `h` used during training.
    pub slot_h: f64,
    /// `H` used during training.
    pub history_len: usize,
    /// Squash floor used during training.
    pub min_freq_frac: f64,
    /// True when trained with faults: the observation carries the previous
    /// round's participation ([`policy_observation`]).
    pub participation_tail: bool,
    /// Observation layout the policy was trained under.
    pub obs_mode: ObsMode,
}

impl DrlController {
    /// Packages a trained policy and its observation statistics.
    pub fn new(
        policy: GaussianPolicy,
        obs_norm: RunningNorm,
        slot_h: f64,
        history_len: usize,
        min_freq_frac: f64,
    ) -> Result<Self> {
        if policy.obs_dim() != obs_norm.dim() {
            return Err(CtrlError::InvalidArgument(format!(
                "policy obs dim {} != normalizer dim {}",
                policy.obs_dim(),
                obs_norm.dim()
            )));
        }
        Ok(DrlController {
            policy,
            obs_norm,
            slot_h,
            history_len,
            min_freq_frac,
            participation_tail: false,
            obs_mode: ObsMode::PerDevice,
        })
    }

    /// Rebinds a broadcast-architecture controller to a different fleet:
    /// the trained network and frozen observation statistics carry over
    /// unchanged (the pooled observation width is fleet-size independent);
    /// only the per-device statics — and hence the action dimension — are
    /// rebuilt, straight from the fleet's struct-of-arrays state. Errors
    /// for non-broadcast policies.
    pub fn with_fleet_sim(&self, fleet: &FleetSim) -> Result<Self> {
        let statics = crate::train::fleet_statics(fleet.state(), fleet.config().tau);
        let policy = self.policy.with_fleet(statics)?;
        Ok(DrlController {
            policy,
            obs_norm: self.obs_norm.clone(),
            ..*self
        })
    }

    /// [`FrequencyController::decide`] fed the previous sharded
    /// [`FleetRound`] (its outcome tally) instead of a per-device report,
    /// so a per-device participation tail is an error here. Broadcast
    /// inference runs tile by tile, never building the `N` input rows.
    pub fn decide_fleet(
        &self,
        t_start: f64,
        fleet: &FleetSim,
        prev: Option<&FleetRound>,
    ) -> Result<Vec<f64>> {
        self.decide_on(t_start, fleet, prev.map(Participation::Round))
    }

    /// The one decision body: the training observation, decided as a 1-row
    /// [`DrlController::decide_rows`] batch.
    fn decide_on(
        &self,
        t_start: f64,
        fleet: &FleetSim,
        prev: Option<Participation<'_>>,
    ) -> Result<Vec<f64>> {
        // The pooled obs width cannot catch a fleet-size mismatch (that is
        // the point of it), so check the action side.
        if self.policy.action_dim() != fleet.num_devices() {
            return Err(CtrlError::InvalidArgument(format!(
                "controller bound to {} devices, fleet has {} \
                 (rebind with DrlController::with_fleet_sim)",
                self.policy.action_dim(),
                fleet.num_devices()
            )));
        }
        let obs = policy_observation(
            fleet,
            t_start,
            self.slot_h,
            self.history_len,
            self.obs_mode,
            self.participation_tail,
            prev,
        )?;
        Ok(self
            .decide_rows(&[obs], &fleet.state().delta_max_ghz)?
            .remove(0))
    }

    /// The one decision body, batched: whitens `rows` with the frozen
    /// statistics (every row's width is checked), runs the deterministic
    /// actor over them in one [`GaussianPolicy::mean_actions`] call, and
    /// squashes output `d` of each row into `(0, caps[d]]`. Row `i` of the
    /// result is bit-identical to deciding row `i` alone, and a broadcast
    /// policy bound to a large fleet runs tile by tile.
    pub fn decide_rows<R: AsRef<[f64]>>(&self, rows: &[R], caps: &[f64]) -> Result<Vec<Vec<f64>>> {
        let norm = self.obs_norm.normalize_batch(rows)?;
        let means = self.policy.mean_actions(&norm)?;
        Ok((0..means.rows())
            .map(|r| squash_actions(means.row(r), caps, self.min_freq_frac))
            .collect())
    }

    /// The underlying actor.
    pub fn policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// The observation normalizer frozen at training time.
    pub fn obs_norm(&self) -> &RunningNorm {
        &self.obs_norm
    }

    /// Serializes the controller to JSON (model checkpointing).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| CtrlError::InvalidArgument(format!("serialize: {e}")))
    }

    /// Restores a controller from [`DrlController::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| CtrlError::InvalidArgument(format!("deserialize: {e}")))
    }
}

impl FrequencyController for DrlController {
    fn name(&self) -> &str {
        "drl"
    }

    fn decide(
        &mut self,
        _k: usize,
        t_start: f64,
        sys: &FleetSim,
        prev: Option<&IterationReport>,
    ) -> Result<Vec<f64>> {
        self.decide_on(t_start, sys, prev.map(Participation::Report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flenv::build_system_with;
    use fl_net::synth::Profile;
    use fl_sim::FlConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system(seed: u64, n: usize) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        build_system_with(
            n,
            3,
            Profile::Walking4G,
            1200,
            FlConfig::default(),
            &fl_sim::DeviceSampler::default(),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn maxfreq_returns_caps() {
        let sys = system(0, 3);
        let mut c = MaxFreqController;
        let f = c.decide(0, 0.0, &sys, None).unwrap();
        for (d, &fi) in sys.devices().iter().zip(&f) {
            assert_eq!(fi, d.delta_max_ghz);
        }
        assert_eq!(c.name(), "maxfreq");
    }

    #[test]
    fn static_controller_is_constant_across_iterations() {
        let sys = system(1, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut c = StaticController::new(&sys, 100, 0.1, &mut rng).unwrap();
        let f0 = c.decide(0, 0.0, &sys, None).unwrap();
        let report = sys.run_iteration(100.0, &f0).unwrap();
        let f1 = c.decide(1, 150.0, &sys, Some(&report)).unwrap();
        assert_eq!(f0, f1);
        assert_eq!(c.name(), "static");
        // reset recomputes (same estimates → same plan).
        c.reset();
        let f2 = c.decide(0, 0.0, &sys, None).unwrap();
        assert_eq!(f0, f2);
    }

    #[test]
    fn static_estimate_is_pool_average() {
        let sys = system(3, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let c = StaticController::new(&sys, 5000, 0.1, &mut rng).unwrap();
        // One shared estimate for every device, near the pool-wide mean.
        assert!(c.estimates().windows(2).all(|w| w[0] == w[1]));
        let pool_mean: f64 =
            sys.traces().traces().iter().map(|t| t.mean()).sum::<f64>() / sys.traces().len() as f64;
        let est = c.estimates()[0];
        assert!(
            (est - pool_mean).abs() < 0.1 * pool_mean + 0.05,
            "est {est} vs pool mean {pool_mean}"
        );
        assert!(StaticController::new(&sys, 0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn heuristic_adapts_to_observed_bandwidth() {
        let sys = system(5, 3);
        let mut c = HeuristicController::default();
        let f0 = c.decide(0, 100.0, &sys, None).unwrap();
        let report = sys.run_iteration(100.0, &f0).unwrap();
        let f1 = c.decide(1, report.end_time(), &sys, Some(&report)).unwrap();
        assert_eq!(f1.len(), 3);
        // Frequencies stay in range.
        for (d, &fi) in sys.devices().iter().zip(&f1) {
            assert!(fi > 0.0 && fi <= d.delta_max_ghz + 1e-9);
        }
        assert_eq!(c.name(), "heuristic");
    }

    #[test]
    fn oracle_not_worse_than_maxfreq() {
        let sys = system(6, 3);
        let lambda = sys.config().lambda;
        let mut oracle = OracleController::default();
        let mut maxf = MaxFreqController;
        let t = 500.0;
        let of = oracle.decide(0, t, &sys, None).unwrap();
        let mf = maxf.decide(0, t, &sys, None).unwrap();
        let oc = sys.run_iteration(t, &of).unwrap().cost(lambda);
        let mc = sys.run_iteration(t, &mf).unwrap().cost(lambda);
        assert!(oc <= mc + 1e-6, "oracle cost {oc} worse than maxfreq {mc}");
        assert_eq!(oracle.name(), "oracle");
    }

    #[test]
    fn oracle_not_worse_than_heuristic_and_static() {
        let sys = system(7, 3);
        let lambda = sys.config().lambda;
        let t = 700.0;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut oracle = OracleController::default();
        let mut stat = StaticController::new(&sys, 200, 0.1, &mut rng).unwrap();
        let mut heur = HeuristicController::default();
        let oc = sys
            .run_iteration(t, &oracle.decide(0, t, &sys, None).unwrap())
            .unwrap()
            .cost(lambda);
        let sc = sys
            .run_iteration(t, &stat.decide(0, t, &sys, None).unwrap())
            .unwrap()
            .cost(lambda);
        let hc = sys
            .run_iteration(t, &heur.decide(0, t, &sys, None).unwrap())
            .unwrap()
            .cost(lambda);
        assert!(oc <= sc + 1e-6, "oracle {oc} vs static {sc}");
        assert!(oc <= hc + 1e-6, "oracle {oc} vs heuristic {hc}");
    }

    #[test]
    fn drl_controller_roundtrip_and_decide() {
        let sys = system(9, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let h = 4usize;
        let obs_dim = 2 * (h + 1);
        let policy = GaussianPolicy::new(obs_dim, &[8], 2, -0.5, &mut rng).unwrap();
        let norm = RunningNorm::new(obs_dim, 10.0);
        let mut c = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
        let f = c.decide(0, 200.0, &sys, None).unwrap();
        assert_eq!(f.len(), 2);
        for (d, &fi) in sys.devices().iter().zip(&f) {
            assert!(fi > 0.0 && fi <= d.delta_max_ghz + 1e-9);
        }
        // JSON round-trip preserves decisions.
        let json = c.to_json().unwrap();
        let mut c2 = DrlController::from_json(&json).unwrap();
        assert_eq!(c2.decide(0, 200.0, &sys, None).unwrap(), f);
        assert_eq!(c.name(), "drl");
    }

    #[test]
    fn predictive_controller_runs_and_adapts() {
        use fl_net::predict::{Ar1, LastValue};
        let sys = system(20, 3);
        let mut c =
            PredictiveController::uniform("ar1", &sys, 0.1, |prior| Box::new(Ar1::new(prior)))
                .unwrap();
        assert_eq!(c.name(), "pred-ar1");
        let f0 = c.decide(0, 100.0, &sys, None).unwrap();
        assert_eq!(f0.len(), 3);
        let report = sys.run_iteration(100.0, &f0).unwrap();
        let f1 = c.decide(1, report.end_time(), &sys, Some(&report)).unwrap();
        for (d, &fi) in sys.devices().iter().zip(&f1) {
            assert!(fi > 0.0 && fi <= d.delta_max_ghz + 1e-9);
        }
        // reset clears predictor state: decisions return to the prior-based
        // plan.
        c.reset();
        let f2 = c.decide(0, 100.0, &sys, None).unwrap();
        assert_eq!(f0, f2);

        // Last-value predictive controller mirrors the Heuristic baseline
        // once it has an observation.
        let mut lv = PredictiveController::uniform("last", &sys, 0.1, |prior| {
            Box::new(LastValue::new(prior))
        })
        .unwrap();
        let mut heur = HeuristicController::default();
        let flv = lv
            .decide(1, report.end_time(), &sys, Some(&report))
            .unwrap();
        let fh = heur
            .decide(1, report.end_time(), &sys, Some(&report))
            .unwrap();
        for (a, b) in flv.iter().zip(&fh) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn predictive_controller_validation() {
        assert!(PredictiveController::new("x", vec![], 0.1).is_err());
        // Arity mismatch against a different system.
        let sys2 = system(21, 2);
        let sys3 = system(22, 3);
        let mut c = PredictiveController::uniform("lv", &sys2, 0.1, |p| {
            Box::new(fl_net::predict::LastValue::new(p))
        })
        .unwrap();
        assert!(c.decide(0, 100.0, &sys3, None).is_err());
    }

    #[test]
    fn drl_controller_dim_mismatch_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let policy = GaussianPolicy::new(10, &[8], 2, -0.5, &mut rng).unwrap();
        let norm = RunningNorm::new(9, 10.0);
        assert!(DrlController::new(policy, norm, 10.0, 4, 0.1).is_err());
        // Trained for wrong system size.
        let sys = system(12, 3);
        let policy = GaussianPolicy::new(10, &[8], 2, -0.5, &mut rng).unwrap();
        let norm = RunningNorm::new(10, 10.0);
        let mut c = DrlController::new(policy, norm, 10.0, 4, 0.1).unwrap();
        assert!(c.decide(0, 100.0, &sys, None).is_err());
    }

    /// A fleet round carries only outcome counts, so a per-device
    /// participation tail cannot be built from it; a report can.
    #[test]
    fn per_device_tail_needs_per_device_feedback() {
        let mut sys = system(15, 3);
        let h = 4usize;
        let w = 3 * (h + 2);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let policy = GaussianPolicy::new(w, &[8], 3, -0.5, &mut rng).unwrap();
        let norm = RunningNorm::new(w, 10.0);
        let mut c = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
        c.participation_tail = true;
        let freqs = c.decide_fleet(200.0, &sys, None).unwrap();
        let report = sys.run_iteration(200.0, &freqs).unwrap();
        let round = sys
            .run_round(200.0, &freqs, &fl_sim::FleetFaults::none(3))
            .unwrap();
        assert!(c
            .decide_fleet(round.end_time(), &sys, Some(&round))
            .is_err());
        let t = report.end_time();
        let after_report = c.decide(1, t, &sys, Some(&report)).unwrap();
        let fresh = c.decide(1, t, &sys, None).unwrap();
        assert_eq!(
            after_report, fresh,
            "a clean report feeds the all-survived tail"
        );
    }

    /// The fleet-side decision paths reject an observation one column too
    /// wide or too narrow: `decide` in both observation modes and
    /// `decide_fleet` (the serving path: `decide_rows_validates_dims`).
    #[test]
    fn drl_decisions_reject_obs_width_off_by_one() {
        let sys = system(13, 3);
        let h = 4usize;
        let per_device = 3 * (h + 1);
        let pooled = fl_sim::pooled_obs_dim(h, false);
        let statics = crate::train::fleet_statics(sys.state(), sys.config().tau);
        for delta in [0isize, -1, 1] {
            let mut rng = ChaCha8Rng::seed_from_u64(14);
            let w = per_device.checked_add_signed(delta).unwrap();
            let policy = GaussianPolicy::new(w, &[8], 3, -0.5, &mut rng).unwrap();
            let norm = RunningNorm::new(w, 10.0);
            let mut c = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
            assert_eq!(c.decide(0, 200.0, &sys, None).is_ok(), delta == 0);

            let w = pooled.checked_add_signed(delta).unwrap();
            let policy =
                GaussianPolicy::new_broadcast(w, statics.clone(), &[8], -0.5, &mut rng).unwrap();
            let norm = RunningNorm::new(w, 10.0);
            let mut c = DrlController::new(policy, norm, 10.0, h, 0.1).unwrap();
            c.obs_mode = ObsMode::Pooled;
            assert_eq!(c.decide_fleet(200.0, &sys, None).is_ok(), delta == 0);
            assert_eq!(c.decide(0, 200.0, &sys, None).is_ok(), delta == 0);
        }
    }
}
