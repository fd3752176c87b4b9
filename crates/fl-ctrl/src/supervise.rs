//! Self-healing training supervision: divergence detection, checkpoint
//! rollback, and deterministic escalation.
//!
//! Long PPO runs can die two ways: a non-finite update (NaN/Inf losses or
//! parameters — the `fl_rl` layer refuses to apply these and surfaces
//! [`fl_rl::RlError::Diverged`]) or a silent reward collapse, where the
//! policy wedges itself into a corner and the cost curve explodes. The
//! supervisor watches for both from inside [`crate::train_drl_parallel_opt`];
//! on a strike it rolls training back to the last good in-memory snapshot
//! and escalates deterministically:
//!
//! 1. every strike: roll back and multiply all learning rates by
//!    [`SupervisorPolicy::lr_backoff`] (compounding),
//! 2. from strike [`SupervisorPolicy::reseed_after`] on: additionally
//!    re-derive the environment RNG streams
//!    ([`fl_rl::runner::VecEnvRunner::reseed_streams`]) so the replayed
//!    trajectory actually changes,
//! 3. at [`SupervisorPolicy::max_strikes`]: abort with the structured
//!    [`TrainError::Diverged`].
//!
//! Everything is deterministic — the same run diverges at the same point
//! and recovers the same way, so supervised training composes with the
//! crash-safe resume contract: strikes and interventions are checkpointed
//! and a resumed run replays the same recovery decisions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why the supervisor intervened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergenceCause {
    /// A PPO update produced non-finite losses or parameters (detected and
    /// refused by the `fl_rl` layer).
    NonFinite,
    /// The trailing mean episode cost exploded relative to the best window
    /// seen so far.
    RewardCollapse,
}

impl fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceCause::NonFinite => write!(f, "non-finite update"),
            DivergenceCause::RewardCollapse => write!(f, "reward collapse"),
        }
    }
}

/// What the supervisor did about a strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Rolled back to the last good snapshot and backed off the learning
    /// rates.
    RollbackBackoff,
    /// Rollback + backoff, plus re-derived environment RNG streams.
    RollbackReseed,
    /// Strike budget exhausted — training aborted with
    /// [`TrainError::Diverged`].
    Abort,
}

/// One supervisor intervention, logged into
/// [`crate::TrainOutput::interventions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Intervention {
    /// Episode index (0-based) the divergence was detected at.
    pub episode: usize,
    /// Strike number this intervention consumed (1-based).
    pub strike: u32,
    /// What tripped the watchdog.
    pub cause: DivergenceCause,
    /// How the supervisor responded.
    pub action: RecoveryAction,
}

impl DivergenceCause {
    /// Stable machine-readable tag (part of the event-schema contract).
    pub fn tag(&self) -> &'static str {
        match self {
            DivergenceCause::NonFinite => "non_finite",
            DivergenceCause::RewardCollapse => "reward_collapse",
        }
    }
}

impl RecoveryAction {
    /// Stable machine-readable tag (part of the event-schema contract).
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryAction::RollbackBackoff => "rollback_backoff",
            RecoveryAction::RollbackReseed => "rollback_reseed",
            RecoveryAction::Abort => "abort",
        }
    }
}

impl Intervention {
    /// The deterministic `intervention` observability event for this
    /// strike. Interventions replay identically on resume (the supervisor
    /// state is checkpointed), so the strike number is a stable key.
    /// `lr_scale` is the cumulative backoff multiplier *after* this
    /// intervention.
    pub fn obs_event(&self, lr_scale: f64) -> fl_obs::Event {
        fl_obs::Event::det("intervention", format!("s{:04}", self.strike))
            .u("episode", self.episode as u64)
            .u("strike", u64::from(self.strike))
            .s("cause", self.cause.tag())
            .s("action", self.action.tag())
            .f("lr_scale", lr_scale)
    }
}

/// Structured training failure raised by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainError {
    /// Training kept diverging through the whole strike budget.
    Diverged {
        /// Strikes consumed (equals the policy's `max_strikes`).
        strikes: u32,
        /// Cause of the final, fatal strike.
        cause: DivergenceCause,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { strikes, cause } => {
                write!(
                    f,
                    "training diverged after {strikes} strikes (last cause: {cause})"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Watchdog tuning for the self-healing supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorPolicy {
    /// Strikes allowed before training aborts with
    /// [`TrainError::Diverged`].
    pub max_strikes: u32,
    /// Multiplier applied to every learning rate on each rollback
    /// (compounds across strikes).
    pub lr_backoff: f64,
    /// Window (in episodes) for the reward-collapse detector; `0` disables
    /// collapse detection (NaN detection stays on).
    pub collapse_window: usize,
    /// A trailing window whose mean cost exceeds `collapse_factor ×` the
    /// best window mean seen so far counts as collapsed.
    pub collapse_factor: f64,
    /// Strike number from which rollbacks also re-derive the environment
    /// RNG streams (earlier rollbacks replay the same trajectory under the
    /// backed-off learning rate).
    pub reseed_after: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_strikes: 3,
            lr_backoff: 0.5,
            collapse_window: 20,
            collapse_factor: 8.0,
            reseed_after: 2,
        }
    }
}

impl SupervisorPolicy {
    /// Validates the policy.
    pub fn validate(&self) -> crate::Result<()> {
        if self.max_strikes == 0 {
            return Err(crate::CtrlError::InvalidArgument(
                "max_strikes must be nonzero".to_string(),
            ));
        }
        if !(self.lr_backoff > 0.0 && self.lr_backoff <= 1.0) {
            return Err(crate::CtrlError::InvalidArgument(format!(
                "lr_backoff must be in (0, 1], got {}",
                self.lr_backoff
            )));
        }
        if !(self.collapse_factor > 1.0) || !self.collapse_factor.is_finite() {
            return Err(crate::CtrlError::InvalidArgument(format!(
                "collapse_factor must be finite and > 1, got {}",
                self.collapse_factor
            )));
        }
        Ok(())
    }
}

/// Mutable supervisor bookkeeping. Checkpointed alongside the training
/// state so a resumed run replays the same escalation trajectory; *not*
/// rolled back on a strike (strikes survive their own rollbacks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorState {
    /// Strikes consumed so far.
    pub strikes: u32,
    /// Cumulative learning-rate multiplier applied by backoffs.
    pub lr_scale: f64,
    /// Every intervention, in order.
    pub interventions: Vec<Intervention>,
}

impl Default for SupervisorState {
    fn default() -> Self {
        SupervisorState {
            strikes: 0,
            lr_scale: 1.0,
            interventions: Vec::new(),
        }
    }
}

/// The pure reward-collapse detector: true when the trailing `window`
/// costs average more than `factor ×` the best (lowest) `window`-mean seen
/// anywhere earlier in the series. Needs at least `2 × window` episodes of
/// history; a non-finite trailing mean always counts as collapsed.
///
/// `costs` are positive system costs (lower is better), so "collapse"
/// means the mean cost *rising* far above the best plateau.
pub fn reward_collapsed(costs: &[f64], window: usize, factor: f64) -> bool {
    if window == 0 || costs.len() < 2 * window {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let trailing = mean(&costs[costs.len() - window..]);
    if !trailing.is_finite() {
        return true;
    }
    let mut best = f64::INFINITY;
    for w in costs[..costs.len() - window].windows(window) {
        let m = mean(w);
        if m < best {
            best = m;
        }
    }
    best.is_finite() && trailing > factor * best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_needs_enough_history() {
        assert!(!reward_collapsed(&[1.0, 100.0, 100.0], 2, 2.0));
        assert!(!reward_collapsed(&[], 2, 2.0));
        assert!(!reward_collapsed(&[1.0; 100], 0, 2.0), "window 0 disables");
    }

    #[test]
    fn collapse_detects_cost_explosion() {
        // Stable plateau around 1.0, then explosion to 50.0.
        let mut costs = vec![1.0; 10];
        costs.extend_from_slice(&[50.0, 52.0, 48.0]);
        assert!(reward_collapsed(&costs, 3, 8.0));
        // The same plateau without the explosion is fine.
        assert!(!reward_collapsed(&[1.0; 13], 3, 8.0));
        // Mild noise is not a collapse.
        let noisy: Vec<f64> = (0..20).map(|i| 1.0 + 0.2 * (i % 3) as f64).collect();
        assert!(!reward_collapsed(&noisy, 4, 8.0));
    }

    #[test]
    fn collapse_on_non_finite_trailing_mean() {
        let mut costs = vec![1.0; 8];
        costs.push(f64::NAN);
        assert!(reward_collapsed(&costs, 1, 8.0));
    }

    #[test]
    fn improving_cost_never_collapses() {
        // Cost decreasing 100 → 1: trailing window is always the best.
        let costs: Vec<f64> = (0..50).map(|i| 100.0 / (1.0 + i as f64)).collect();
        assert!(!reward_collapsed(&costs, 5, 2.0));
    }

    #[test]
    fn policy_validation() {
        assert!(SupervisorPolicy::default().validate().is_ok());
        let bad = SupervisorPolicy {
            max_strikes: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorPolicy {
            lr_backoff: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorPolicy {
            lr_backoff: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisorPolicy {
            collapse_factor: 1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn state_roundtrips_through_serde() {
        use serde::{Deserialize, Serialize};
        let state = SupervisorState {
            strikes: 2,
            lr_scale: 0.25,
            interventions: vec![Intervention {
                episode: 7,
                strike: 1,
                cause: DivergenceCause::NonFinite,
                action: RecoveryAction::RollbackBackoff,
            }],
        };
        let restored = SupervisorState::from_value(&state.to_value()).unwrap();
        assert_eq!(restored, state);
    }

    #[test]
    fn train_error_displays_context() {
        let e = TrainError::Diverged {
            strikes: 3,
            cause: DivergenceCause::RewardCollapse,
        };
        let msg = e.to_string();
        assert!(
            msg.contains('3') && msg.contains("reward collapse"),
            "{msg}"
        );
    }
}
