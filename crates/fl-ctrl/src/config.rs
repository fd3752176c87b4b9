//! Declarative experiment configuration.
//!
//! An [`ExperimentConfig`] captures an entire study — fleet, traces, task
//! constants, DRL training budget, and the controller line-up — as one
//! serializable value, so experiments can be stored as JSON, diffed, and
//! re-run exactly (`fl-bench --bin custom -- path/to/experiment.json`).

use crate::controllers::{
    DrlController, FrequencyController, HeuristicController, MaxFreqController, OracleController,
    PredictiveController, StaticController,
};
use crate::experiment::{run_controller, ControllerRun};
use crate::flenv::build_system_with;
use crate::train::{train_drl, TrainConfig};
use crate::{CtrlError, Result};
use fl_net::synth::Profile;
use fl_sim::{DeviceSampler, FlConfig, FleetSim};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which classical predictor a [`ControllerKind::Predictive`] entry uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Repeat the last observation.
    LastValue,
    /// Mean of the last `window` observations.
    SlidingMean {
        /// Window length in iterations.
        window: usize,
    },
    /// Exponentially weighted moving average.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Online-fitted AR(1).
    Ar1,
}

/// A controller to include in the evaluation line-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerKind {
    /// The DRL agent (trained per the config's `train` section).
    Drl,
    /// Last-iteration-bandwidth re-optimization (Wang et al.).
    Heuristic,
    /// One-shot pool-average optimization (Tran et al.).
    Static {
        /// Bandwidth samples used for the pool average.
        samples: usize,
    },
    /// Always `δ_max`.
    MaxFreq,
    /// Clairvoyant per-iteration optimum (slow; reference only).
    Oracle,
    /// Predict-then-optimize with a classical predictor.
    Predictive(PredictorKind),
}

/// A complete, reproducible experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of devices `N`.
    pub n_devices: usize,
    /// Traces in the pool.
    pub n_traces: usize,
    /// Bandwidth profile for the pool.
    pub profile: Profile,
    /// Trace length in 1-second slots.
    pub trace_slots: usize,
    /// Task constants (τ, ξ, λ).
    pub fl: FlConfig,
    /// Device-parameter ranges.
    pub sampler: DeviceSampler,
    /// DRL training budget and hyperparameters.
    pub train: TrainConfig,
    /// Online evaluation length (the paper uses 400).
    pub eval_iterations: usize,
    /// Evaluation start time within the traces.
    pub eval_start: f64,
    /// Controllers to evaluate, in report order.
    pub controllers: Vec<ControllerKind>,
    /// Master seed; every random choice derives from it.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n_devices: 3,
            n_traces: 3,
            profile: Profile::Walking4G,
            trace_slots: 3600,
            fl: FlConfig::default(),
            sampler: DeviceSampler::default(),
            train: TrainConfig {
                episodes: 300,
                ..TrainConfig::default()
            },
            eval_iterations: 400,
            eval_start: 200.0,
            controllers: vec![
                ControllerKind::Drl,
                ControllerKind::Heuristic,
                ControllerKind::Static { samples: 1000 },
                ControllerKind::MaxFreq,
            ],
            seed: 1,
        }
    }
}

impl ExperimentConfig {
    /// Validates the configuration without running anything.
    pub fn validate(&self) -> Result<()> {
        if self.n_devices == 0 || self.n_traces == 0 || self.trace_slots == 0 {
            return Err(CtrlError::InvalidArgument(
                "n_devices, n_traces, trace_slots must be nonzero".to_string(),
            ));
        }
        if self.eval_iterations == 0 {
            return Err(CtrlError::InvalidArgument(
                "eval_iterations must be nonzero".to_string(),
            ));
        }
        if self.controllers.is_empty() {
            return Err(CtrlError::InvalidArgument(
                "need at least one controller".to_string(),
            ));
        }
        self.fl.validate()?;
        self.train.env.validate()?;
        for c in &self.controllers {
            match c {
                ControllerKind::Static { samples } if *samples == 0 => {
                    return Err(CtrlError::InvalidArgument(
                        "Static controller needs samples > 0".to_string(),
                    ));
                }
                ControllerKind::Predictive(PredictorKind::SlidingMean { window })
                    if *window == 0 =>
                {
                    return Err(CtrlError::InvalidArgument(
                        "SlidingMean window must be nonzero".to_string(),
                    ));
                }
                ControllerKind::Predictive(PredictorKind::Ewma { alpha })
                    if !(*alpha > 0.0 && *alpha <= 1.0) =>
                {
                    return Err(CtrlError::InvalidArgument(
                        "Ewma alpha must be in (0, 1]".to_string(),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Builds the deterministic system for this experiment.
    pub fn build_system(&self) -> Result<FleetSim> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        build_system_with(
            self.n_devices,
            self.n_traces,
            self.profile,
            self.trace_slots,
            self.fl,
            &self.sampler,
            &mut rng,
        )
    }

    /// Trains the DRL controller for this experiment (only needed when the
    /// line-up includes [`ControllerKind::Drl`]).
    pub fn train_drl(&self, sys: &FleetSim) -> Result<DrlController> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xD51);
        Ok(train_drl(sys, &self.train, &mut rng)?.controller)
    }

    /// Instantiates one controller of the line-up.
    pub fn make_controller(
        &self,
        kind: &ControllerKind,
        sys: &FleetSim,
        drl: Option<&DrlController>,
    ) -> Result<Box<dyn FrequencyController + Send>> {
        let min_frac = self.train.env.min_freq_frac;
        Ok(match kind {
            ControllerKind::Drl => Box::new(drl.cloned().ok_or_else(|| {
                CtrlError::InvalidArgument(
                    "Drl controller requested but no trained agent supplied".to_string(),
                )
            })?),
            ControllerKind::Heuristic => Box::new(HeuristicController::new(min_frac)),
            ControllerKind::Static { samples } => {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x57A7);
                Box::new(StaticController::new(sys, *samples, min_frac, &mut rng)?)
            }
            ControllerKind::MaxFreq => Box::new(MaxFreqController),
            ControllerKind::Oracle => Box::new(OracleController::new(min_frac)),
            ControllerKind::Predictive(p) => {
                let kind = *p;
                Box::new(match kind {
                    PredictorKind::LastValue => {
                        PredictiveController::uniform("lastval", sys, min_frac, |prior| {
                            Box::new(fl_net::predict::LastValue::new(prior))
                        })?
                    }
                    PredictorKind::SlidingMean { window } => PredictiveController::uniform(
                        &format!("slide{window}"),
                        sys,
                        min_frac,
                        |prior| {
                            Box::new(
                                fl_net::predict::SlidingMean::new(window, prior)
                                    .expect("window validated"),
                            )
                        },
                    )?,
                    PredictorKind::Ewma { alpha } => PredictiveController::uniform(
                        &format!("ewma{alpha}"),
                        sys,
                        min_frac,
                        |prior| {
                            Box::new(
                                fl_net::predict::Ewma::new(alpha, prior).expect("alpha validated"),
                            )
                        },
                    )?,
                    PredictorKind::Ar1 => {
                        PredictiveController::uniform("ar1", sys, min_frac, |prior| {
                            Box::new(fl_net::predict::Ar1::new(prior))
                        })?
                    }
                })
            }
        })
    }

    /// Runs the full experiment: build, (maybe) train, evaluate every
    /// controller on the shared timeline. Controllers run sequentially so
    /// results are identical on any core count.
    pub fn run(&self) -> Result<Vec<ControllerRun>> {
        self.validate()?;
        let sys = self.build_system()?;
        let needs_drl = self.controllers.contains(&ControllerKind::Drl);
        let drl = if needs_drl {
            Some(self.train_drl(&sys)?)
        } else {
            None
        };
        let mut runs = Vec::with_capacity(self.controllers.len());
        for kind in &self.controllers {
            let mut ctrl = self.make_controller(kind, &sys, drl.as_ref())?;
            runs.push(run_controller(
                &sys,
                ctrl.as_mut(),
                self.eval_iterations,
                self.eval_start,
            )?);
        }
        Ok(runs)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| CtrlError::InvalidArgument(format!("serialize: {e}")))
    }

    /// Parses from JSON.
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text)
            .map_err(|e| CtrlError::InvalidArgument(format!("deserialize: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            trace_slots: 1200,
            train: TrainConfig {
                episodes: 4,
                env: crate::EnvConfig {
                    episode_len: 5,
                    history_len: 2,
                    ..crate::EnvConfig::default()
                },
                ppo: fl_rl::PpoConfig {
                    hidden: vec![8],
                    buffer_capacity: 20,
                    minibatch_size: 10,
                    epochs: 2,
                    ..fl_rl::PpoConfig::default()
                },
                ..TrainConfig::default()
            },
            eval_iterations: 6,
            controllers: vec![
                ControllerKind::Drl,
                ControllerKind::Heuristic,
                ControllerKind::Static { samples: 50 },
                ControllerKind::MaxFreq,
                ControllerKind::Predictive(PredictorKind::Ar1),
                ControllerKind::Predictive(PredictorKind::Ewma { alpha: 0.4 }),
                ControllerKind::Predictive(PredictorKind::SlidingMean { window: 4 }),
            ],
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn validation_catches_mistakes() {
        let mut c = tiny();
        c.n_devices = 0;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.controllers.clear();
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.controllers = vec![ControllerKind::Static { samples: 0 }];
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.controllers = vec![ControllerKind::Predictive(PredictorKind::Ewma {
            alpha: 2.0,
        })];
        assert!(c.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn json_roundtrip() {
        let c = tiny();
        let json = c.to_json().unwrap();
        let back = ExperimentConfig::from_json(&json).unwrap();
        assert_eq!(c, back);
        assert!(ExperimentConfig::from_json("{bad").is_err());
    }

    #[test]
    fn full_run_produces_all_controllers() {
        let c = tiny();
        let runs = c.run().unwrap();
        assert_eq!(runs.len(), 7);
        let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "drl",
                "heuristic",
                "static",
                "maxfreq",
                "pred-ar1",
                "pred-ewma0.4",
                "pred-slide4"
            ]
        );
        for r in &runs {
            assert_eq!(r.ledger.len(), 6);
            assert!(r.ledger.mean_cost().is_finite());
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = tiny().run().unwrap();
        let b = tiny().run().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ledger.cost_series(), y.ledger.cost_series());
        }
    }

    #[test]
    fn drl_requires_training() {
        let c = tiny();
        let sys = c.build_system().unwrap();
        assert!(c.make_controller(&ControllerKind::Drl, &sys, None).is_err());
    }
}
