//! Diagonal-Gaussian policy with manual gradients.

use crate::{Result, RlError};
use fl_nn::{Activation, Matrix, Mlp};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// Bounds applied to the log standard deviation parameters. Projection back
/// into this interval after each optimizer step keeps exploration noise in
/// a sane range without distorting gradients.
pub const LOG_STD_MIN: f64 = -4.0;
/// Upper log-std bound; see [`LOG_STD_MIN`].
pub const LOG_STD_MAX: f64 = 1.0;

const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7; // 0.5 * ln(2π)

/// Mean-network architecture.
///
/// * [`MeanArch::Joint`] — one MLP mapping the full state to all `N` action
///   means at once (positional device identity). The natural reading of the
///   paper's `π(a_k|s_k; θ_a)`.
/// * [`MeanArch::Shared`] — one *parameter-shared* MLP applied per device:
///   each device's mean comes from `MLP(own features ⊕ fleet mean/min/max
///   features ⊕ own static constants)`. With `N` devices the gradient
///   signal per weight is `N×` denser, which is what makes the 50-device
///   experiment train in reasonable budgets. The trade-off is explored by
///   the `abl_arch` bench.
/// * [`MeanArch::Broadcast`] — one shared MLP fed a *fixed-size pooled*
///   observation (quantile summaries over the fleet) broadcast to every
///   device next to that device's static constants:
///   `MLP(pooled obs ⊕ statics.row(d))`. The observation width is
///   independent of `N`, so one trained network serves a 10-device and a
///   10⁶-device fleet alike — [`GaussianPolicy::with_fleet`] rebinds the
///   statics for a new fleet without touching the trained weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MeanArch {
    /// Monolithic state→actions network.
    Joint(Mlp),
    /// Weight sharing across devices.
    Shared {
        /// The per-device network (`4*feat_dim + statics.cols()` → 1).
        net: Mlp,
        /// Number of devices `N` (= action dim).
        n_devices: usize,
        /// Per-device observation features (the `H+1` bandwidth slots).
        feat_dim: usize,
        /// Per-device static constants (`N x S`), e.g. work, δ_max, α, e —
        /// fixed at construction, serialized with the policy.
        statics: Matrix,
    },
    /// Scale-invariant weight sharing: a fixed-size pooled observation
    /// broadcast to every device.
    Broadcast {
        /// The per-device network (`obs_dim + statics.cols()` → 1).
        net: Mlp,
        /// Number of devices `N` (= action dim) in the *bound* fleet.
        n_devices: usize,
        /// Width of the pooled observation — independent of `N`.
        obs_dim: usize,
        /// Per-device static constants (`N x S`), rebindable via
        /// [`GaussianPolicy::with_fleet`].
        statics: Matrix,
    },
}

/// The actor network `π(a|s; θ_a)`: a mean architecture plus a trainable
/// state-independent log-std vector (the standard continuous PPO
/// parameterization).
///
/// Actions live in `R^action_dim`; bounded action spaces (the paper's
/// `δ ∈ (0, δ_max]`) are handled by the environment squashing raw actions,
/// which keeps these log-probabilities exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianPolicy {
    arch: MeanArch,
    log_std: Vec<f64>,
    // Serialized (it is small) so checkpoint/restore round-trips exactly
    // even mid-accumulation.
    log_std_grad: Vec<f64>,
}

impl GaussianPolicy {
    /// Builds a joint-architecture policy with tanh hidden layers and an
    /// identity mean head.
    pub fn new(
        obs_dim: usize,
        hidden: &[usize],
        action_dim: usize,
        init_log_std: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(action_dim);
        let mean_net = Mlp::try_new(&sizes, Activation::Tanh, Activation::Identity, rng)?;
        if !init_log_std.is_finite() {
            return Err(RlError::InvalidArgument(
                "init_log_std must be finite".to_string(),
            ));
        }
        Ok(GaussianPolicy {
            arch: MeanArch::Joint(mean_net),
            log_std: vec![init_log_std.clamp(LOG_STD_MIN, LOG_STD_MAX); action_dim],
            log_std_grad: vec![0.0; action_dim],
        })
    }

    /// Builds a parameter-shared policy: the observation is interpreted as
    /// `n_devices` blocks of `feat_dim` features; every device's action
    /// mean is produced by the same MLP fed its own block, the fleet's
    /// mean/min/max aggregate blocks, and its row of `statics`.
    pub fn new_shared(
        n_devices: usize,
        feat_dim: usize,
        statics: Matrix,
        hidden: &[usize],
        init_log_std: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if n_devices == 0 || feat_dim == 0 {
            return Err(RlError::InvalidArgument(
                "n_devices and feat_dim must be nonzero".to_string(),
            ));
        }
        if statics.rows() != n_devices {
            return Err(RlError::InvalidArgument(format!(
                "statics has {} rows, expected {}",
                statics.rows(),
                n_devices
            )));
        }
        if !init_log_std.is_finite() {
            return Err(RlError::InvalidArgument(
                "init_log_std must be finite".to_string(),
            ));
        }
        let in_dim = 4 * feat_dim + statics.cols();
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(in_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let net = Mlp::try_new(&sizes, Activation::Tanh, Activation::Identity, rng)?;
        Ok(GaussianPolicy {
            arch: MeanArch::Shared {
                net,
                n_devices,
                feat_dim,
                statics,
            },
            log_std: vec![init_log_std.clamp(LOG_STD_MIN, LOG_STD_MAX); n_devices],
            log_std_grad: vec![0.0; n_devices],
        })
    }

    /// Builds a scale-invariant broadcast policy: the observation is a
    /// single pooled vector of width `obs_dim` (quantile summaries over the
    /// fleet — see `fl_sim::pooled_observation`), and every device's action
    /// mean comes from the same MLP fed that vector plus its row of
    /// `statics`. Because the network input width never mentions `N`, the
    /// trained weights transfer to any fleet size via
    /// [`GaussianPolicy::with_fleet`].
    pub fn new_broadcast(
        obs_dim: usize,
        statics: Matrix,
        hidden: &[usize],
        init_log_std: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let n_devices = statics.rows();
        if n_devices == 0 || obs_dim == 0 {
            return Err(RlError::InvalidArgument(
                "n_devices and obs_dim must be nonzero".to_string(),
            ));
        }
        if !init_log_std.is_finite() {
            return Err(RlError::InvalidArgument(
                "init_log_std must be finite".to_string(),
            ));
        }
        let in_dim = obs_dim + statics.cols();
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(in_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let net = Mlp::try_new(&sizes, Activation::Tanh, Activation::Identity, rng)?;
        Ok(GaussianPolicy {
            arch: MeanArch::Broadcast {
                net,
                n_devices,
                obs_dim,
                statics,
            },
            log_std: vec![init_log_std.clamp(LOG_STD_MIN, LOG_STD_MAX); n_devices],
            log_std_grad: vec![0.0; n_devices],
        })
    }

    /// Rebinds a broadcast policy to a new fleet: same trained network, new
    /// per-device statics (and hence a new action dimension). The log-std
    /// vector is re-broadcast from its first entry — exploration noise is
    /// per-device state that does not transfer across fleets, but the
    /// deterministic path ([`GaussianPolicy::mean_actions`]) never
    /// reads it, so deployment behaviour is exactly the trained network.
    pub fn with_fleet(&self, statics: Matrix) -> Result<Self> {
        match &self.arch {
            MeanArch::Broadcast {
                net,
                obs_dim,
                statics: old,
                ..
            } => {
                let n_devices = statics.rows();
                if n_devices == 0 {
                    return Err(RlError::InvalidArgument(
                        "with_fleet: statics must have at least one row".to_string(),
                    ));
                }
                if statics.cols() != old.cols() {
                    return Err(RlError::InvalidArgument(format!(
                        "with_fleet: statics has {} columns, trained with {}",
                        statics.cols(),
                        old.cols()
                    )));
                }
                Ok(GaussianPolicy {
                    arch: MeanArch::Broadcast {
                        net: net.clone(),
                        n_devices,
                        obs_dim: *obs_dim,
                        statics,
                    },
                    log_std: vec![self.log_std[0]; n_devices],
                    log_std_grad: vec![0.0; n_devices],
                })
            }
            _ => Err(RlError::InvalidArgument(
                "with_fleet: only broadcast policies can be rebound".to_string(),
            )),
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        match &self.arch {
            MeanArch::Joint(net) => net.in_dim(),
            MeanArch::Shared {
                n_devices,
                feat_dim,
                ..
            } => n_devices * feat_dim,
            MeanArch::Broadcast { obs_dim, .. } => *obs_dim,
        }
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        match &self.arch {
            MeanArch::Joint(net) => net.out_dim(),
            MeanArch::Shared { n_devices, .. } | MeanArch::Broadcast { n_devices, .. } => {
                *n_devices
            }
        }
    }

    /// True when the policy shares weights across devices.
    pub fn is_shared(&self) -> bool {
        matches!(self.arch, MeanArch::Shared { .. })
    }

    /// True when the policy consumes the fixed-size pooled observation.
    pub fn is_broadcast(&self) -> bool {
        matches!(self.arch, MeanArch::Broadcast { .. })
    }

    /// Architecture discriminant for [`GaussianPolicy::copy_params_from`].
    fn arch_tag(&self) -> u8 {
        match &self.arch {
            MeanArch::Joint(_) => 0,
            MeanArch::Shared { .. } => 1,
            MeanArch::Broadcast { .. } => 2,
        }
    }

    /// The underlying network (for optimizer binding).
    pub fn mean_net_mut(&mut self) -> &mut Mlp {
        match &mut self.arch {
            MeanArch::Joint(net) => net,
            MeanArch::Shared { net, .. } | MeanArch::Broadcast { net, .. } => net,
        }
    }

    /// The underlying network (read-only).
    pub fn mean_net(&self) -> &Mlp {
        match &self.arch {
            MeanArch::Joint(net) => net,
            MeanArch::Shared { net, .. } | MeanArch::Broadcast { net, .. } => net,
        }
    }

    /// Checks `obs`'s width and lays it out as the mean net's input rows.
    fn net_input<'p, 'o>(&'p self, obs: &'o Matrix) -> Result<NetInput<'p, 'o>> {
        if obs.cols() != self.obs_dim() {
            return Err(RlError::InvalidArgument(format!(
                "obs width {} != policy obs_dim {}",
                obs.cols(),
                self.obs_dim()
            )));
        }
        let layout = match &self.arch {
            MeanArch::Joint(_) => Layout::Joint,
            MeanArch::Shared {
                n_devices,
                feat_dim,
                statics,
                ..
            } => Layout::Shared {
                n_devices: *n_devices,
                feat_dim: *feat_dim,
                aggs: fleet_aggregates(obs, *n_devices, *feat_dim),
                statics,
            },
            MeanArch::Broadcast {
                n_devices, statics, ..
            } => Layout::Broadcast {
                n_devices: *n_devices,
                statics,
            },
        };
        Ok(NetInput { obs, layout })
    }

    /// Current per-dimension standard deviations.
    pub fn std(&self) -> Vec<f64> {
        self.log_std.iter().map(|ls| ls.exp()).collect()
    }

    /// Current log-std parameters.
    pub fn log_std(&self) -> &[f64] {
        &self.log_std
    }

    /// Accumulated log-std gradients.
    pub fn log_std_grad(&self) -> &[f64] {
        &self.log_std_grad
    }

    /// Applies a raw update to the log-std parameters and projects back into
    /// `[LOG_STD_MIN, LOG_STD_MAX]`.
    pub fn apply_log_std_delta(&mut self, delta: &[f64]) {
        for (ls, d) in self.log_std.iter_mut().zip(delta) {
            *ls = (*ls + d).clamp(LOG_STD_MIN, LOG_STD_MAX);
        }
    }

    /// Deterministic actions, the only frozen-actor forward: one
    /// Gaussian-mean row per observation row of `obs` (`n x obs_dim` in,
    /// `n x action_dim` out). Evaluation, rollout collection, serving and
    /// fleet decisions all act through it — Section V-B2's "we only use the
    /// trained actor network to generate its action".
    ///
    /// The architecture's input rows (one per observation for Joint, `N`
    /// sample-major device rows per observation for Shared and Broadcast)
    /// run through the network in chunks of at most 8192 rows, so a
    /// 10⁶-device fleet never materializes its full input batch. The kernels
    /// compute each output element with a row-count-independent operation
    /// sequence, so neither batching nor chunking changes a bit: row `i` of
    /// the result equals a 1-row call on observation `i` alone.
    pub fn mean_actions(&self, obs: &Matrix) -> Result<Matrix> {
        self.mean_actions_chunked(obs, CHUNK_ROWS)
    }

    /// [`GaussianPolicy::mean_actions`] with an explicit chunk size.
    fn mean_actions_chunked(&self, obs: &Matrix, chunk_rows: usize) -> Result<Matrix> {
        let input = self.net_input(obs)?;
        let (net, total) = (self.mean_net(), input.len());
        let mut means = Vec::with_capacity(obs.rows() * self.action_dim());
        for start in (0..total).step_by(chunk_rows) {
            let end = total.min(start + chunk_rows);
            means.extend_from_slice(net.infer(&*input.rows(start, end)?)?.data());
        }
        Ok(Matrix::from_vec(obs.rows(), self.action_dim(), means)?)
    }

    /// Samples `a ~ N(mean, σ²)` around a precomputed mean and returns
    /// `(action, log_prob)`. The mean comes from a batched forward, so one
    /// forward serves many environments while each draws its noise from its
    /// own RNG stream: per dimension one Box–Muller `gaussian` draw (two
    /// `rng.gen::<f64>()` calls), `mean + std * noise`, then
    /// [`GaussianPolicy::log_prob_given_mean`].
    pub fn sample_with_mean(&self, mean: &[f64], rng: &mut impl Rng) -> (Vec<f64>, f64) {
        let std = self.std();
        let action: Vec<f64> = mean
            .iter()
            .zip(&std)
            .map(|(&m, &s)| m + s * gaussian(rng))
            .collect();
        let logp = self.log_prob_given_mean(mean, &action);
        (action, logp)
    }

    /// Log-probability of `action` under a Gaussian with the given mean and
    /// this policy's std.
    pub fn log_prob_given_mean(&self, mean: &[f64], action: &[f64]) -> f64 {
        debug_assert_eq!(mean.len(), action.len());
        let mut lp = 0.0;
        for ((&m, &a), &ls) in mean.iter().zip(action).zip(&self.log_std) {
            let s = ls.exp();
            let z = (a - m) / s;
            lp += -0.5 * z * z - ls - HALF_LN_2PI;
        }
        lp
    }

    /// Batched log-probabilities given a precomputed mean batch.
    pub fn log_prob_batch(&self, means: &Matrix, actions: &Matrix) -> Result<Vec<f64>> {
        if means.shape() != actions.shape() || means.cols() != self.action_dim() {
            return Err(RlError::InvalidArgument(format!(
                "log_prob_batch shape mismatch: means {:?}, actions {:?}, action_dim {}",
                means.shape(),
                actions.shape(),
                self.action_dim()
            )));
        }
        Ok((0..means.rows())
            .map(|i| self.log_prob_given_mean(means.row(i), actions.row(i)))
            .collect())
    }

    /// Differential entropy of the (state-independent-σ) Gaussian:
    /// `Σ_d (ln σ_d + ½ ln 2πe)`.
    pub fn entropy(&self) -> f64 {
        self.log_std.iter().map(|ls| ls + HALF_LN_2PI + 0.5).sum()
    }

    /// Training forward pass: computes the mean batch with gradient caches.
    /// Same input rows as [`GaussianPolicy::mean_actions`], in one batch.
    pub fn forward_means(&mut self, obs: &Matrix) -> Result<Matrix> {
        let input = {
            let input = self.net_input(obs)?;
            input.rows(0, input.len())?
        };
        let flat = self.mean_net_mut().try_forward(&input)?;
        Ok(Matrix::from_vec(
            obs.rows(),
            self.action_dim(),
            flat.into_data(),
        )?)
    }

    /// Accumulates gradients of a scalar loss `L` given `∂L/∂logp_i` for each
    /// sample of the batch last passed to [`GaussianPolicy::forward_means`].
    ///
    /// Chain rule for the diagonal Gaussian:
    /// `∂logp/∂μ_d = (a_d − μ_d)/σ_d²` and
    /// `∂logp/∂lnσ_d = ((a_d − μ_d)²/σ_d² − 1)`.
    /// Mean-net gradients accumulate via backprop; log-std gradients
    /// accumulate into an internal buffer read by the optimizer.
    pub fn accumulate_logprob_grads(
        &mut self,
        means: &Matrix,
        actions: &Matrix,
        dl_dlogp: &[f64],
    ) -> Result<()> {
        let n = means.rows();
        if actions.shape() != means.shape() || dl_dlogp.len() != n {
            return Err(RlError::InvalidArgument(
                "accumulate_logprob_grads shape mismatch".to_string(),
            ));
        }
        let d = self.action_dim();
        let std = self.std();
        let mut dmean = Matrix::zeros(n, d);
        for (i, &coef) in dl_dlogp.iter().enumerate() {
            let arow = actions.row(i);
            let mrow = means.row(i);
            let drow = dmean.row_mut(i);
            for j in 0..d {
                let diff = arow[j] - mrow[j];
                let var = std[j] * std[j];
                drow[j] = coef * diff / var;
                self.log_std_grad[j] += coef * (diff * diff / var - 1.0);
            }
        }
        match &mut self.arch {
            MeanArch::Joint(net) => {
                net.backward(&dmean)?;
            }
            MeanArch::Shared { net, n_devices, .. }
            | MeanArch::Broadcast { net, n_devices, .. } => {
                // Unfold the n x N mean gradients back into the (n*N) x 1
                // layout the shared net's cached forward batch used — a
                // row-major reshape, so the flat data is reused as-is.
                let nd = *n_devices;
                let flat = Matrix::from_vec(n * nd, 1, dmean.into_data())
                    .expect("n x N reshapes to (n*N) x 1");
                net.backward(&flat)?;
            }
        }
        Ok(())
    }

    /// Adds `g` to every log-std gradient (used for the entropy bonus,
    /// whose gradient w.r.t. each `lnσ_d` is constant).
    pub fn add_uniform_log_std_grad(&mut self, g: f64) {
        for v in &mut self.log_std_grad {
            *v += g;
        }
    }

    /// Clears accumulated gradients in both the mean net and the log-std.
    pub fn zero_grad(&mut self) {
        self.mean_net_mut().zero_grad();
        self.log_std_grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Copies parameters from another policy of identical architecture —
    /// the `θ_a^old ← θ_a` sync of Algorithm 1 line 22.
    pub fn copy_params_from(&mut self, other: &GaussianPolicy) -> Result<()> {
        if self.log_std.len() != other.log_std.len() || self.arch_tag() != other.arch_tag() {
            return Err(RlError::InvalidArgument(
                "copy_params_from: architecture mismatch".to_string(),
            ));
        }
        let params = other.mean_net().export_params();
        self.mean_net_mut().import_params(&params)?;
        self.log_std.copy_from_slice(&other.log_std);
        Ok(())
    }

    /// True when all parameters are finite.
    pub fn is_finite(&self) -> bool {
        self.mean_net()
            .export_params()
            .iter()
            .all(|p| p.is_finite())
            && self.log_std.iter().all(|p| p.is_finite())
    }
}

/// Largest number of network input rows one inference forward builds
/// (chunking is bit-neutral; see [`GaussianPolicy::mean_actions`]).
const CHUNK_ROWS: usize = 8192;

/// An observation batch laid out as the mean net's input rows: Joint rows
/// pass through; Shared and Broadcast expand each observation into `N`
/// device rows, sample-major (`sample 0 device 0, sample 0 device 1, ...`).
struct NetInput<'p, 'o> {
    obs: &'o Matrix,
    layout: Layout<'p>,
}

enum Layout<'p> {
    Joint,
    /// Device `d` of sample `r` sees its own feature block, the sample's
    /// fleet aggregates `aggs.row(r)` and `statics.row(d)`.
    Shared {
        n_devices: usize,
        feat_dim: usize,
        aggs: Matrix,
        statics: &'p Matrix,
    },
    /// Device `d` of sample `r` sees the whole pooled row `r` next to
    /// `statics.row(d)` — device identity enters only through the statics.
    Broadcast {
        n_devices: usize,
        statics: &'p Matrix,
    },
}

impl<'o> NetInput<'_, 'o> {
    /// Input rows in the whole expanded batch.
    fn len(&self) -> usize {
        match &self.layout {
            Layout::Joint => self.obs.rows(),
            Layout::Shared { n_devices, .. } | Layout::Broadcast { n_devices, .. } => {
                self.obs.rows() * n_devices
            }
        }
    }

    /// Input rows `start..end` of the expanded batch; a chunk may start and
    /// end mid-sample.
    fn rows(&self, start: usize, end: usize) -> Result<Cow<'o, Matrix>> {
        let obs = self.obs;
        Ok(match &self.layout {
            Layout::Joint if start == 0 && end == obs.rows() => Cow::Borrowed(obs),
            Layout::Joint => Cow::Owned(obs.slice_rows(start, end)?),
            Layout::Shared {
                n_devices,
                feat_dim: f,
                aggs,
                statics,
            } => Cow::Owned(device_rows(
                start..end,
                *n_devices,
                4 * f,
                statics,
                |row, r, d| {
                    row[..*f].copy_from_slice(&obs.row(r)[d * f..(d + 1) * f]);
                    row[*f..].copy_from_slice(aggs.row(r));
                },
            )),
            Layout::Broadcast { n_devices, statics } => Cow::Owned(device_rows(
                start..end,
                *n_devices,
                obs.cols(),
                statics,
                |row, r, _| row.copy_from_slice(obs.row(r)),
            )),
        })
    }
}

/// Builds device rows `range` of a sample-major expansion: `head` fills the
/// first `head_width` columns of row (sample `r`, device `d`), and
/// `statics.row(d)` fills the rest.
fn device_rows(
    range: Range<usize>,
    n_devices: usize,
    head_width: usize,
    statics: &Matrix,
    mut head: impl FnMut(&mut [f64], usize, usize),
) -> Matrix {
    let mut out = Matrix::zeros(range.len(), head_width + statics.cols());
    for (i, j) in range.enumerate() {
        let (r, d) = (j / n_devices, j % n_devices);
        let (lead, tail) = out.row_mut(i).split_at_mut(head_width);
        head(lead, r, d);
        tail.copy_from_slice(statics.row(d));
    }
    out
}

/// The shared architecture's per-sample fleet aggregates: one
/// `mean | min | max` row (`3F` wide) per observation, accumulated in device
/// order. The extremes matter because the synchronized iteration is paced by
/// the *straggler*: a device cannot judge its slack without knowing how slow
/// the slowest peer looks.
fn fleet_aggregates(obs: &Matrix, n_devices: usize, feat_dim: usize) -> Matrix {
    let mut aggs = Matrix::zeros(obs.rows(), 3 * feat_dim);
    for r in 0..obs.rows() {
        let (mean, extremes) = aggs.row_mut(r).split_at_mut(feat_dim);
        let (min, max) = extremes.split_at_mut(feat_dim);
        min.fill(f64::INFINITY);
        max.fill(f64::NEG_INFINITY);
        for device in obs.row(r).chunks_exact(feat_dim) {
            for (f, &v) in device.iter().enumerate() {
                mean[f] += v;
                min[f] = min[f].min(v);
                max[f] = max[f].max(v);
            }
        }
        for m in mean.iter_mut() {
            *m /= n_devices as f64;
        }
    }
    aggs
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One observation through [`GaussianPolicy::mean_actions`].
    fn mean1(p: &GaussianPolicy, obs: &[f64]) -> Vec<f64> {
        p.mean_actions(&Matrix::row_vector(obs))
            .unwrap()
            .into_data()
    }

    fn policy(seed: u64) -> GaussianPolicy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        GaussianPolicy::new(3, &[8], 2, -0.5, &mut rng).unwrap()
    }

    #[test]
    fn dims() {
        let p = policy(0);
        assert_eq!(p.obs_dim(), 3);
        assert_eq!(p.action_dim(), 2);
        assert_eq!(p.std().len(), 2);
        assert!((p.std()[0] - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn init_log_std_validation_and_clamping() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(GaussianPolicy::new(2, &[4], 1, f64::NAN, &mut rng).is_err());
        let p = GaussianPolicy::new(2, &[4], 1, -100.0, &mut rng).unwrap();
        assert_eq!(p.log_std()[0], LOG_STD_MIN);
    }

    #[test]
    fn log_prob_matches_closed_form() {
        let p = policy(2);
        // For mean=action the density is the mode: logp = Σ(−lnσ − ½ln2π).
        let mean = vec![0.3, -0.7];
        let lp = p.log_prob_given_mean(&mean, &mean);
        let expected: f64 = p.log_std().iter().map(|ls| -ls - HALF_LN_2PI).sum();
        assert!((lp - expected).abs() < 1e-12);
    }

    #[test]
    fn log_prob_decreases_away_from_mean() {
        let p = policy(3);
        let mean = vec![0.0, 0.0];
        let near = p.log_prob_given_mean(&mean, &[0.1, 0.0]);
        let far = p.log_prob_given_mean(&mean, &[2.0, 0.0]);
        assert!(near > far);
    }

    #[test]
    fn sample_log_prob_consistent() {
        let p = policy(4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let obs = [0.2, -0.1, 0.5];
        let (a, lp) = p.sample_with_mean(&mean1(&p, &obs), &mut rng);
        assert_eq!(a.len(), 2);
        let lp2 = p.log_prob_given_mean(&mean1(&p, &obs), &a);
        assert!((lp - lp2).abs() < 1e-12);
    }

    #[test]
    fn entropy_increases_with_std() {
        let mut p = policy(6);
        let h1 = p.entropy();
        p.apply_log_std_delta(&[0.5, 0.5]);
        assert!(p.entropy() > h1);
    }

    #[test]
    fn log_std_projection() {
        let mut p = policy(7);
        p.apply_log_std_delta(&[100.0, -100.0]);
        assert_eq!(p.log_std()[0], LOG_STD_MAX);
        assert_eq!(p.log_std()[1], LOG_STD_MIN);
    }

    #[test]
    fn copy_params_from_syncs() {
        let a = policy(8);
        let mut b = policy(9);
        assert_ne!(a.mean_net().export_params(), b.mean_net().export_params());
        b.copy_params_from(&a).unwrap();
        assert_eq!(a.mean_net().export_params(), b.mean_net().export_params());
        assert_eq!(a.log_std(), b.log_std());
    }

    /// The critical correctness test: analytic gradients of
    /// `L = Σ_i w_i · logp_i` versus finite differences over *all*
    /// parameters (mean net + log-std).
    #[test]
    fn logprob_gradients_match_finite_differences() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut p = policy(10);
        let n = 4;
        let obs = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0..1.0));
        let actions = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0..1.0));
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let loss = |p: &GaussianPolicy| -> f64 {
            let means = p.mean_net().infer(&obs).unwrap();
            let lps = p.log_prob_batch(&means, &actions).unwrap();
            lps.iter().zip(&weights).map(|(lp, w)| lp * w).sum()
        };

        // Analytic.
        p.zero_grad();
        let means = p.forward_means(&obs).unwrap();
        p.accumulate_logprob_grads(&means, &actions, &weights)
            .unwrap();
        let mut analytic_mean_grads = Vec::new();
        p.mean_net_mut()
            .visit_params(|_, g| analytic_mean_grads.push(g));
        let analytic_ls = p.log_std_grad().to_vec();

        // Numeric over mean-net params.
        let eps = 1e-6;
        let base = p.mean_net().export_params();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            p.mean_net_mut().import_params(&plus).unwrap();
            let lp = loss(&p);
            let mut minus = base.clone();
            minus[i] -= eps;
            p.mean_net_mut().import_params(&minus).unwrap();
            let lm = loss(&p);
            p.mean_net_mut().import_params(&base).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic_mean_grads[i]).abs() < 1e-5,
                "mean param {i}: fd={fd}, analytic={}",
                analytic_mean_grads[i]
            );
        }

        // Numeric over log-std params.
        for j in 0..2 {
            let mut pp = p.clone();
            let mut delta = vec![0.0; 2];
            delta[j] = eps;
            pp.apply_log_std_delta(&delta);
            let lp = loss(&pp);
            let mut pm = p.clone();
            delta[j] = -eps;
            pm.apply_log_std_delta(&delta);
            let lm = loss(&pm);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic_ls[j]).abs() < 1e-5,
                "log_std {j}: fd={fd}, analytic={}",
                analytic_ls[j]
            );
        }
    }

    fn shared_policy(seed: u64) -> GaussianPolicy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // 3 devices, 2 features each, 2 static constants per device.
        let statics = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.3 - 0.2);
        GaussianPolicy::new_shared(3, 2, statics, &[6], -0.5, &mut rng).unwrap()
    }

    #[test]
    fn shared_policy_dims() {
        let p = shared_policy(40);
        assert_eq!(p.obs_dim(), 6);
        assert_eq!(p.action_dim(), 3);
        assert!(p.is_shared());
        assert!(!policy(0).is_shared());
        // Per-device net: 4*2 feature blocks + 2 statics = 10 inputs, one
        // output.
        assert_eq!(p.mean_net().in_dim(), 10);
        assert_eq!(p.mean_net().out_dim(), 1);
    }

    #[test]
    fn shared_policy_constructor_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let statics = Matrix::zeros(2, 1);
        assert!(GaussianPolicy::new_shared(3, 2, statics.clone(), &[4], -0.5, &mut rng).is_err());
        assert!(GaussianPolicy::new_shared(0, 2, statics.clone(), &[4], -0.5, &mut rng).is_err());
        assert!(GaussianPolicy::new_shared(2, 2, statics, &[4], f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn shared_policy_is_permutation_consistent() {
        // Devices with identical features and statics must get identical
        // means — weight sharing in action.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let statics = Matrix::from_fn(3, 2, |_, c| c as f64 * 0.5);
        let p = GaussianPolicy::new_shared(3, 2, statics, &[6], -0.5, &mut rng).unwrap();
        let obs = vec![0.4, -0.1, 0.4, -0.1, 0.4, -0.1];
        let m = mean1(&p, &obs);
        assert!((m[0] - m[1]).abs() < 1e-12);
        assert!((m[1] - m[2]).abs() < 1e-12);
        // Different feature block -> different mean.
        let obs2 = vec![0.4, -0.1, 0.9, 0.3, 0.4, -0.1];
        let m2 = mean1(&p, &obs2);
        assert!((m2[0] - m2[2]).abs() < 1e-12);
        assert!((m2[0] - m2[1]).abs() > 1e-6);
    }

    #[test]
    fn shared_forward_matches_infer() {
        let mut p = shared_policy(43);
        let obs = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f64 * 0.17).sin());
        let trained = p.forward_means(&obs).unwrap();
        let inferred = p.mean_actions(&obs).unwrap();
        assert_eq!(trained, inferred);
        assert_eq!(trained.shape(), (4, 3));
    }

    /// Finite-difference gradient check for the SHARED architecture — the
    /// reshape/aggregate plumbing must not corrupt backprop.
    #[test]
    fn shared_logprob_gradients_match_finite_differences() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let mut p = shared_policy(44);
        let n = 3;
        let obs = Matrix::from_fn(n, 6, |_, _| rng.gen_range(-1.0..1.0));
        let actions = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0..1.0));
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let loss = |p: &GaussianPolicy| -> f64 {
            let means = p.mean_actions(&obs).unwrap();
            let lps = p.log_prob_batch(&means, &actions).unwrap();
            lps.iter().zip(&weights).map(|(lp, w)| lp * w).sum()
        };

        p.zero_grad();
        let means = p.forward_means(&obs).unwrap();
        p.accumulate_logprob_grads(&means, &actions, &weights)
            .unwrap();
        let mut analytic = Vec::new();
        p.mean_net_mut().visit_params(|_, g| analytic.push(g));

        let eps = 1e-6;
        let base = p.mean_net().export_params();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            p.mean_net_mut().import_params(&plus).unwrap();
            let lp = loss(&p);
            let mut minus = base.clone();
            minus[i] -= eps;
            p.mean_net_mut().import_params(&minus).unwrap();
            let lm = loss(&p);
            p.mean_net_mut().import_params(&base).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 1e-5,
                "shared param {i}: fd={fd}, analytic={}",
                analytic[i]
            );
        }
    }

    #[test]
    fn copy_params_rejects_arch_mismatch() {
        let joint = policy(45);
        let mut shared = shared_policy(45);
        // Same action_dim (3 vs 2?) — policy() has action dim 2, shared 3;
        // build a joint with 3 actions to isolate the arch check.
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        let joint3 = GaussianPolicy::new(6, &[4], 3, -0.5, &mut rng).unwrap();
        assert!(shared.copy_params_from(&joint3).is_err());
        // Broadcast vs Shared with identical action dims must also be
        // rejected — is_shared() alone cannot tell them apart.
        let mut broadcast = broadcast_policy(45);
        assert!(broadcast.copy_params_from(&shared_policy(45)).is_err());
        assert!(shared.copy_params_from(&broadcast_policy(46)).is_err());
        let _ = joint;
    }

    fn broadcast_policy(seed: u64) -> GaussianPolicy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // 3 devices, pooled obs of width 5, 2 static constants per device.
        let statics = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.3 - 0.2);
        GaussianPolicy::new_broadcast(5, statics, &[6], -0.5, &mut rng).unwrap()
    }

    #[test]
    fn broadcast_policy_dims() {
        let p = broadcast_policy(60);
        assert_eq!(p.obs_dim(), 5);
        assert_eq!(p.action_dim(), 3);
        assert!(p.is_broadcast());
        assert!(!p.is_shared());
        assert!(!shared_policy(60).is_broadcast());
        // Per-device net: 5 pooled features + 2 statics = 7 inputs, one out.
        assert_eq!(p.mean_net().in_dim(), 7);
        assert_eq!(p.mean_net().out_dim(), 1);
    }

    #[test]
    fn broadcast_constructor_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        assert!(
            GaussianPolicy::new_broadcast(0, Matrix::zeros(2, 1), &[4], -0.5, &mut rng).is_err()
        );
        assert!(
            GaussianPolicy::new_broadcast(5, Matrix::zeros(0, 1), &[4], -0.5, &mut rng).is_err()
        );
        assert!(
            GaussianPolicy::new_broadcast(5, Matrix::zeros(2, 1), &[4], f64::NAN, &mut rng)
                .is_err()
        );
    }

    #[test]
    fn broadcast_devices_with_identical_statics_get_identical_means() {
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        // Devices 0 and 2 share a statics row; device 1 differs.
        let statics = Matrix::from_fn(3, 2, |r, c| if r == 1 { 0.9 } else { c as f64 * 0.5 });
        let p = GaussianPolicy::new_broadcast(4, statics, &[6], -0.5, &mut rng).unwrap();
        let obs = vec![0.4, -0.1, 0.2, 0.7];
        let m = mean1(&p, &obs);
        assert_eq!(m[0].to_bits(), m[2].to_bits());
        assert!((m[0] - m[1]).abs() > 1e-6);
    }

    #[test]
    fn broadcast_forward_matches_infer() {
        let mut p = broadcast_policy(63);
        let obs = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f64 * 0.17).sin());
        let trained = p.forward_means(&obs).unwrap();
        let inferred = p.mean_actions(&obs).unwrap();
        assert_eq!(trained, inferred);
        assert_eq!(trained.shape(), (4, 3));
    }

    /// Chunked inference is the 10⁶-device serving path; for every
    /// architecture it must be bit-identical to one unchunked forward for
    /// every chunk size — chunks that split a sample's device rows and chunks
    /// that span samples alike.
    #[test]
    fn broadcast_chunked_mean_matches_batch_bitwise() {
        for p in [policy(65), shared_policy(65), broadcast_policy(65)] {
            let dim = p.obs_dim();
            let obs = Matrix::from_fn(4, dim, |r, c| ((r * dim + c) as f64 * 0.23).cos());
            let total = p.net_input(&obs).unwrap().len();
            let full = p.mean_actions_chunked(&obs, total).unwrap();
            assert_eq!(full.shape(), (4, p.action_dim()));
            let n = p.action_dim();
            for chunk in [1, 3, 7, n, n + 1] {
                let chunked = p.mean_actions_chunked(&obs, chunk).unwrap();
                assert_eq!(chunked.shape(), full.shape());
                for (a, b) in chunked.data().iter().zip(full.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "chunk={chunk}");
                }
            }
            // A wrong observation width is rejected, wider or narrower.
            assert!(p.mean_actions(&Matrix::zeros(2, dim - 1)).is_err());
            assert!(p.mean_actions(&Matrix::zeros(2, dim + 1)).is_err());
        }
    }

    /// The scale-invariance contract: rebinding to a larger fleet reuses the
    /// trained weights verbatim, keeps `obs_dim` fixed, and devices whose
    /// statics match a device of the original fleet get bit-identical means
    /// for the same pooled observation.
    #[test]
    fn with_fleet_transfers_weights_across_fleet_sizes() {
        let p = broadcast_policy(64);
        let old_statics_row1: Vec<f64> = {
            let statics = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.3 - 0.2);
            statics.row(1).to_vec()
        };
        // New fleet of 7 devices; device 4 copies old device 1's statics.
        let big = Matrix::from_fn(7, 2, |r, c| {
            if r == 4 {
                old_statics_row1[c]
            } else {
                (r as f64 * 0.11 - 0.3) + c as f64 * 0.05
            }
        });
        let q = p.with_fleet(big).unwrap();
        assert_eq!(q.obs_dim(), p.obs_dim());
        assert_eq!(q.action_dim(), 7);
        assert_eq!(
            p.mean_net().export_params(),
            q.mean_net().export_params(),
            "with_fleet must not touch trained weights"
        );
        let obs: Vec<f64> = (0..5).map(|i| (i as f64 * 0.23).sin()).collect();
        let m_old = mean1(&p, &obs);
        let m_new = mean1(&q, &obs);
        assert_eq!(m_old[1].to_bits(), m_new[4].to_bits());
        // Rebinding with a mismatched statics width is rejected.
        assert!(p.with_fleet(Matrix::zeros(4, 3)).is_err());
        assert!(p.with_fleet(Matrix::zeros(0, 2)).is_err());
        // Non-broadcast policies cannot be rebound.
        assert!(policy(64).with_fleet(Matrix::zeros(2, 2)).is_err());
    }

    /// Finite-difference gradient check for the BROADCAST architecture.
    #[test]
    fn broadcast_logprob_gradients_match_finite_differences() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(65);
        let mut p = broadcast_policy(65);
        let n = 3;
        let obs = Matrix::from_fn(n, 5, |_, _| rng.gen_range(-1.0..1.0));
        let actions = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0..1.0));
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let loss = |p: &GaussianPolicy| -> f64 {
            let means = p.mean_actions(&obs).unwrap();
            let lps = p.log_prob_batch(&means, &actions).unwrap();
            lps.iter().zip(&weights).map(|(lp, w)| lp * w).sum()
        };

        p.zero_grad();
        let means = p.forward_means(&obs).unwrap();
        p.accumulate_logprob_grads(&means, &actions, &weights)
            .unwrap();
        let mut analytic = Vec::new();
        p.mean_net_mut().visit_params(|_, g| analytic.push(g));

        let eps = 1e-6;
        let base = p.mean_net().export_params();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            p.mean_net_mut().import_params(&plus).unwrap();
            let lp = loss(&p);
            let mut minus = base.clone();
            minus[i] -= eps;
            p.mean_net_mut().import_params(&minus).unwrap();
            let lm = loss(&p);
            p.mean_net_mut().import_params(&base).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 1e-5,
                "broadcast param {i}: fd={fd}, analytic={}",
                analytic[i]
            );
        }
    }

    /// Serving-path contract: batched means are bit-identical to the
    /// single-row path for every row, for both architectures.
    #[test]
    fn mean_actions_batch_is_bitwise_row_independent() {
        for p in [policy(30), shared_policy(30), broadcast_policy(30)] {
            let dim = p.obs_dim();
            let obs = Matrix::from_fn(7, dim, |r, c| ((r * dim + c) as f64 * 0.31).sin());
            let batch = p.mean_actions(&obs).unwrap();
            assert_eq!(batch.shape(), (7, p.action_dim()));
            for r in 0..obs.rows() {
                let single = mean1(&p, obs.row(r));
                for (a, b) in batch.row(r).iter().zip(&single) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    fn batch_log_prob_shape_validation() {
        let p = policy(11);
        let means = Matrix::zeros(2, 2);
        let actions = Matrix::zeros(3, 2);
        assert!(p.log_prob_batch(&means, &actions).is_err());
    }

    #[test]
    fn finite_check() {
        let p = policy(12);
        assert!(p.is_finite());
    }
}
