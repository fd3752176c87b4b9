//! # fl-bench — the figure-regeneration harness
//!
//! One binary per figure of the paper (see DESIGN.md's experiment index),
//! plus ablation sweeps. This library holds the pieces the binaries share:
//! canonical scenario builders (the paper's testbed and 50-device
//! simulation), plain-text table/CDF printers, and JSON result dumping for
//! EXPERIMENTS.md bookkeeping.
//!
//! Run any figure with, e.g.:
//!
//! ```bash
//! cargo run --release -p fl-bench --bin fig7_testbed
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style guards reject NaN along with out-of-range values;
// clippy's suggested inversion (`x <= 0.0`) would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod args;
pub mod fleet_perf;
pub mod kernel_perf;
pub mod serve_perf;

use fl_ctrl::{
    train_drl_parallel_opt, ControllerRun, DrlController, EnvConfig, ObsMode, ParallelConfig,
    ParallelTrainOutput, PolicyArch, RunOptions, TrainConfig, TrainOutput,
};
use fl_net::stats::EmpiricalCdf;
use fl_net::synth::Profile;
use fl_rl::PpoConfig;
use fl_sim::{DeviceSampler, FlConfig, FleetSim, Range};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fully specified experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label.
    pub name: String,
    /// Number of devices `N`.
    pub n_devices: usize,
    /// Number of traces in the pool (paper: 3 for the testbed, 5 for the
    /// 50-device simulation).
    pub n_traces: usize,
    /// Trace profile.
    pub profile: Profile,
    /// Trace length in 1-second slots.
    pub trace_slots: usize,
    /// Task configuration (τ, ξ, λ).
    pub fl: FlConfig,
    /// Device-parameter ranges.
    pub sampler: DeviceSampler,
    /// Master seed.
    pub seed: u64,
}

/// Device ranges calibrated to land on the paper's reported magnitudes
/// (per-iteration time ≈ 5–6, cost ≈ 7–10): the paper's "50–100 MB" of
/// training data is read as 50–100 **Mbit** (6.25–12.5 MB) — with the
/// literal MB reading, compute time alone is 8–16 s at full speed, which
/// contradicts the ~6 s total iterations in Fig. 7(b). α is raised to
/// κ ≈ 2–8 × 10⁻²⁸ (older mobile silicon) so energy stays a meaningful
/// cost share. See EXPERIMENTS.md.
fn paper_calibrated_sampler() -> DeviceSampler {
    DeviceSampler {
        data_mb: Range { lo: 6.25, hi: 12.5 },
        alpha: Range { lo: 0.2, hi: 0.8 },
        ..DeviceSampler::default()
    }
}

impl Scenario {
    /// The paper's small-scale testbed: N=3 devices over 3 walking traces.
    /// λ is not reported for the testbed; 0.5 reproduces the paper's cost
    /// decomposition (time ≈ 6 of cost ≈ 7.25).
    pub fn testbed() -> Scenario {
        Scenario {
            name: "testbed-n3".to_string(),
            n_devices: 3,
            n_traces: 3,
            profile: Profile::Walking4G,
            trace_slots: 3600,
            fl: FlConfig {
                tau: 1,
                model_size_mb: 10.0,
                lambda: 0.5,
            },
            sampler: paper_calibrated_sampler(),
            seed: 20200518, // IPDPS 2020 main-conference date
        }
    }

    /// The paper's scalability simulation: N=50 devices drawing from 5
    /// walking traces, λ = 0.1 ("all the other parameters are the same").
    pub fn scale50() -> Scenario {
        Scenario {
            name: "scale-n50".to_string(),
            n_devices: 50,
            n_traces: 5,
            profile: Profile::Walking4G,
            trace_slots: 3600,
            fl: FlConfig {
                tau: 1,
                model_size_mb: 10.0,
                lambda: 0.1,
            },
            sampler: paper_calibrated_sampler(),
            seed: 20200519,
        }
    }

    /// Builds the deterministic [`FleetSim`] for this scenario.
    pub fn build(&self) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        fl_ctrl::build_system_with(
            self.n_devices,
            self.n_traces,
            self.profile,
            self.trace_slots,
            self.fl,
            &self.sampler,
            &mut rng,
        )
        .expect("scenario parameters are valid")
    }

    /// Builds a sharded [`fl_sim::FleetSim`] of `n_devices` drawing from
    /// this scenario's trace profile and device-parameter ranges. The
    /// device count is a parameter (the scale bench sweeps it past 10⁶),
    /// so unlike [`Scenario::build`] it does not come from `n_devices` in
    /// the scenario itself. Deterministic given the scenario seed and the
    /// requested count.
    pub fn build_fleet(&self, n_devices: usize) -> fl_sim::FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xF1EE7);
        let traces = fl_net::TraceSet::from_profile(
            self.profile,
            self.n_traces,
            self.trace_slots,
            1.0,
            &mut rng,
        )
        .expect("scenario trace parameters are valid");
        let assignment = traces.assign(n_devices, &mut rng);
        let state = fl_sim::FleetState::sample(&self.sampler, &assignment, &mut rng)
            .expect("scenario device ranges are valid");
        fl_sim::FleetSim::new(state, traces, self.fl).expect("fleet parameters are valid")
    }

    /// The standard training configuration for this scenario.
    ///
    /// Large fleets get bigger rollout buffers and a tighter initial
    /// exploration noise: with N action dimensions sharing one scalar
    /// reward, the policy-gradient variance grows with N, so the update
    /// needs more samples and less injected noise to stay informative.
    pub fn train_config(&self, episodes: usize) -> TrainConfig {
        let large = self.n_devices >= 20;
        TrainConfig {
            episodes,
            ppo: PpoConfig {
                hidden: vec![64, 64],
                buffer_capacity: if large { 1000 } else { 250 },
                minibatch_size: 64,
                epochs: if large { 6 } else { 10 },
                actor_lr: 1e-3,
                critic_lr: 3e-3,
                lr_decay: if large { 0.999 } else { 1.0 },
                entropy_coef: if large { 0.0002 } else { 0.001 },
                init_log_std: if large { -1.0 } else { -0.5 },
                // The frequency action affects only the current iteration's
                // cost (plus where the next iteration starts in the trace),
                // so the task is near-bandit: a short credit horizon learns
                // much faster than the episodic default.
                gamma: 0.5,
                gae_lambda: 0.9,
                target_kl: Some(0.15),
                ..PpoConfig::default()
            },
            env: EnvConfig {
                slot_h: 10.0,
                history_len: 8,
                episode_len: 50,
                min_freq_frac: 0.1,
                faults: None,
                obs: ObsMode::PerDevice,
            },
            // Large fleets use the weight-shared per-device actor; the
            // N=3 testbed uses the paper-literal joint network.
            arch: if large {
                PolicyArch::Shared
            } else {
                PolicyArch::Joint
            },
            reward_scale: 0.05,
        }
    }

    /// Scale-invariant variant of [`Scenario::train_config`]: quantile-
    /// pooled observation + broadcast actor, so the trained controller's
    /// input width is independent of the device count and the policy can be
    /// rebound to any fleet size with `DrlController::with_fleet_sim`.
    pub fn train_config_pooled(&self, episodes: usize) -> TrainConfig {
        let mut config = self.train_config(episodes);
        config.env.obs = ObsMode::Pooled;
        config.arch = PolicyArch::Broadcast;
        config
    }

    /// Trains the DRL controller for this scenario with one environment
    /// (deterministic given the scenario seed).
    pub fn train(&self, sys: &FleetSim, episodes: usize) -> TrainOutput {
        self.train_with(sys, episodes, &RunOptions::default())
            .expect("training configuration is valid")
    }

    /// [`Scenario::train`] with run options (checkpointing, supervision,
    /// early stop). With `RunOptions::default()` this is bit-identical to
    /// [`Scenario::train`].
    pub fn train_with(
        &self,
        sys: &FleetSim,
        episodes: usize,
        opts: &RunOptions,
    ) -> fl_ctrl::Result<TrainOutput> {
        self.train_parallel_with(sys, episodes, &ParallelConfig::SERIAL, opts)
            .map(|out| out.output)
    }

    /// Trains with `par.n_envs` rollout environments and run options
    /// (checkpointing, supervision, early stop). Deterministic given the
    /// scenario seed and `par.n_envs`; `par.workers` only moves wall-clock
    /// time.
    pub fn train_parallel_with(
        &self,
        sys: &FleetSim,
        episodes: usize,
        par: &ParallelConfig,
        opts: &RunOptions,
    ) -> fl_ctrl::Result<ParallelTrainOutput> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xD51);
        train_drl_parallel_opt(sys, &self.train_config(episodes), par, &mut rng, opts)
    }

    /// Loads a cached trained controller from the temp dir or trains and
    /// caches one. Binaries share training runs this way (fig6 and fig7 use
    /// the same agent, like the paper). The cache filename embeds `n_envs`
    /// (a logical parameter, unlike `workers`) and a CRC-32 of the
    /// canonically encoded config, so any logical change — environment
    /// count, observation mode, actor architecture, fault plan, a PPO
    /// hyperparameter — lands in a different cache file and a controller
    /// trained under another configuration is never silently reused.
    /// Returns the controller, whether the cache hit, and — on a fresh run
    /// — the per-round worker telemetry.
    pub fn train_cached(
        &self,
        sys: &FleetSim,
        config: &TrainConfig,
        par: &ParallelConfig,
    ) -> (DrlController, bool, Option<Vec<Vec<fl_pool::WorkerStats>>>) {
        let path = std::env::temp_dir().join(format!(
            "fedfreq-{}-{}ep-seed{}-vec{}-cfg{:08x}.json",
            self.name,
            config.episodes,
            self.seed,
            par.n_envs,
            config_digest(config)
        ));
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(ctrl) = DrlController::from_json(&text) {
                return (ctrl, true, None);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xD51);
        let out = train_drl_parallel_opt(sys, config, par, &mut rng, &RunOptions::default())
            .expect("training configuration is valid");
        if let Ok(json) = out.output.controller.to_json() {
            // Atomic write: a concurrent binary reading the cache sees
            // either the old controller or the new one, never a torn file.
            let _ = fl_rl::snapshot::atomic_write(&path, json.as_bytes());
        }
        (out.output.controller, false, Some(out.rounds))
    }
}

/// CRC-32 fingerprint of a training configuration's canonical (JSON)
/// encoding — the cache-key component that keeps [`Scenario::train_cached`]
/// honest. Encoding a plain config cannot fail; if it ever does, poisoning
/// the digest (`u32::MAX`) still yields a stable, non-colliding key per
/// process run rather than a panic in a bench binary.
fn config_digest(config: &TrainConfig) -> u32 {
    fl_rl::snapshot::encode_payload(config)
        .map(|bytes| fl_rl::snapshot::crc32(&bytes))
        .unwrap_or(u32::MAX)
}

/// Worker-thread count for the benchmark binaries: the `FL_WORKERS`
/// environment variable when set, otherwise the machine's available
/// parallelism. Thanks to the engine's determinism contract this only
/// changes how fast the binaries run, never what they print.
pub fn workers_from_env() -> usize {
    workers_from_env_obs(&fl_obs::Recorder::disabled())
}

/// [`workers_from_env`] with observability: an unparsable or zero
/// `FL_WORKERS` is no longer swallowed silently — it prints a stderr note
/// and, when the recorder is enabled, emits a structured `warning` event
/// before falling back to the machine's available parallelism.
pub fn workers_from_env_obs(rec: &fl_obs::Recorder) -> usize {
    match fl_pool::env_workers_setting() {
        Ok(workers) => workers.unwrap_or_else(fl_pool::default_workers),
        Err(raw) => {
            let fallback = fl_pool::default_workers();
            if rec.is_enabled() {
                rec.emit(
                    fl_obs::Event::phys("warning")
                        .s("what", "bad_fl_workers")
                        .s("value", raw.as_str())
                        .u("fallback", fallback as u64),
                );
            }
            eprintln!(
                "fl-bench: ignoring FL_WORKERS={raw:?} (want an integer >= 1); \
                 using {fallback} workers"
            );
            fallback
        }
    }
}

/// Opens the observability recorder a benchmark binary writes to:
/// `Some(dir)` records to `dir/<file>`, `None` is the disabled no-op
/// recorder. An unopenable sink degrades to disabled with a stderr note
/// rather than aborting the benchmark.
pub fn obs_recorder(dir: Option<&std::path::Path>, file: &str) -> fl_obs::Recorder {
    let Some(dir) = dir else {
        return fl_obs::Recorder::disabled();
    };
    match fl_obs::Recorder::to_file(dir.join(file)) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!(
                "fl-bench: cannot open event sink {}/{file}: {e}; recording disabled",
                dir.display()
            );
            fl_obs::Recorder::disabled()
        }
    }
}

/// Prints per-worker totals (tasks, steals, busy seconds) aggregated over
/// the collection rounds of a parallel training run.
pub fn print_round_worker_stats(label: &str, rounds: &[Vec<fl_pool::WorkerStats>]) {
    let workers = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut tasks = vec![0usize; workers];
    let mut steals = vec![0usize; workers];
    let mut busy = vec![0.0f64; workers];
    for round in rounds {
        for w in round {
            tasks[w.worker] += w.tasks;
            steals[w.worker] += w.steals;
            busy[w.worker] += w.busy.as_secs_f64();
        }
    }
    print!("{label}: {} rounds |", rounds.len());
    for w in 0..workers {
        print!(
            " w{w}: {} tasks ({} stolen) {:.2}s busy |",
            tasks[w], steals[w], busy[w]
        );
    }
    println!();
}

/// Prints a fixed-width summary table (the Fig. 7(a–c) bars as rows).
pub fn print_summary_table(title: &str, runs: &[ControllerRun]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "approach", "mean cost", "mean time", "mean energy"
    );
    for r in runs {
        let (c, t, e) = r.summary();
        println!("{:<12} {:>12.3} {:>12.3} {:>12.3}", r.name, c, t, e);
    }
}

/// Prints relative-to-first percentages, the "X% higher than DRL" numbers
/// the paper quotes in Section V-B.
pub fn print_relative(runs: &[ControllerRun]) {
    if runs.is_empty() {
        return;
    }
    let base = runs[0].ledger.mean_cost();
    println!("\nrelative mean cost (baseline = {}):", runs[0].name);
    for r in runs {
        let pct = (r.ledger.mean_cost() / base - 1.0) * 100.0;
        println!("  {:<12} {:+7.1}%", r.name, pct);
    }
}

/// Prints a CDF series (Fig. 7(d–f)) as `value cumulative-probability`
/// pairs, one controller per block.
pub fn print_cdf(metric: &str, series: &[(String, Vec<f64>)], points: usize) {
    println!("\n-- CDF of per-iteration {metric} --");
    for (name, data) in series {
        let cdf = EmpiricalCdf::new(data);
        println!("[{name}]");
        for (x, p) in cdf.series(points) {
            println!("  {x:10.4} {p:6.3}");
        }
    }
}

/// Writes a JSON results blob next to the repo root so EXPERIMENTS.md
/// numbers are regenerable. The write is atomic (tmp + fsync + rename), so
/// a crash mid-dump never leaves a torn results file behind.
pub fn dump_json(filename: &str, value: &serde_json::Value) {
    dump_json_obs(&fl_obs::Recorder::disabled(), filename, value)
}

/// [`dump_json`] with observability: a failed write is routed through
/// [`fl_obs::Recorder::note`] (stderr + a `note` event when recording)
/// instead of a bare `eprintln!`.
pub fn dump_json_obs(rec: &fl_obs::Recorder, filename: &str, value: &serde_json::Value) {
    let path = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(path);
    let full = path.join(filename);
    let text = serde_json::to_string_pretty(value).expect("valid json");
    match fl_rl::snapshot::atomic_write(&full, text.as_bytes()) {
        Ok(()) => println!("\n[results written to {}]", full.display()),
        Err(e) => rec.note(&format!("could not write {}: {e}", full.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ctrl::{run_controller, MaxFreqController};

    #[test]
    fn scenarios_build() {
        let t = Scenario::testbed();
        let sys = t.build();
        assert_eq!(sys.num_devices(), 3);
        assert_eq!(sys.config().lambda, 0.5);
        // Calibrated device ranges (Mbit reading of the paper's data size).
        for d in sys.devices() {
            assert!((6.25..=12.5).contains(&d.data_mb));
        }
        let s = Scenario::scale50();
        let sys = s.build();
        assert_eq!(sys.num_devices(), 50);
        assert_eq!(sys.config().lambda, 0.1);
    }

    #[test]
    fn scenario_build_is_deterministic() {
        let a = Scenario::testbed().build();
        let b = Scenario::testbed().build();
        assert_eq!(a.devices(), b.devices());
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv_bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Golden bits of the pooled observation at fleet scale: 10⁴ devices
    /// of `Scenario::scale50` (5 traces), 20 start times spread over the
    /// trace, one digest per observation. Any change to how the fleet
    /// observes — per-trace histories, count-based quantiles, cached
    /// static summaries — must reproduce these exactly.
    #[test]
    fn observe_pooled_golden_scale50_n10000() {
        const GOLDEN: [u64; 20] = [
            0xba77902e985e5447,
            0x3247798e64eb2454,
            0x739500c35b70ff73,
            0x8f3e628f4e84b9fb,
            0x4f5ca8b0e8fa67dd,
            0x0c78b7cc7e8ec06e,
            0xb82b93735ea04ca9,
            0xa1d73de36b5719a2,
            0x465c8d7d96bd2a9b,
            0xe3a5ff0f2e49f497,
            0xc8df17235a6fdc96,
            0xcd5b7dfb2ee0e471,
            0xbf642dd78425d116,
            0x17ddac6b59a8bd64,
            0x21031aff20f41edb,
            0x6de25513acbf5665,
            0xa7599424d8e6f459,
            0x278928dc0f40eab2,
            0xcf1fbd8d5091c3a2,
            0x2323e88ee4875d1b,
        ];
        let fleet = Scenario::scale50().build_fleet(10_000);
        let digests: Vec<u64> = (0..20)
            .map(|k| {
                let t = 7.25 + 181.5 * k as f64;
                let obs = fleet.observe_pooled(t, 10.0, 8, None).unwrap();
                assert_eq!(obs.len(), fl_sim::pooled_obs_dim(8, false));
                fnv_bits(&obs)
            })
            .collect();
        assert_eq!(digests, GOLDEN, "digests: {digests:#018x?}");
    }

    #[test]
    fn printers_do_not_panic() {
        let sys = Scenario::testbed().build();
        let mut ctrl = MaxFreqController;
        let run = run_controller(&sys, &mut ctrl, 5, 200.0).unwrap();
        print_summary_table("smoke", std::slice::from_ref(&run));
        print_relative(std::slice::from_ref(&run));
        print_cdf("cost", &[(run.name.clone(), run.ledger.cost_series())], 5);
    }
}
