//! Fleet-scale sharded simulation: struct-of-arrays device state, the one
//! per-device round kernel, lazy per-shard evaluation on the `fl-pool`
//! work-stealing pool, and a fixed-arity hierarchical reduction whose
//! floating-point op sequence is a pure function of the device count.
//!
//! # One kernel, two folds
//!
//! The synchronized-round physics of one device (Eqs. 1–6 under a realized
//! fault) lives in exactly one function, `device_round`. It has two folds:
//!
//! * [`FleetSim::run_round`] folds kernel outputs shard by shard into a
//!   [`FleetRound`] summary (tree-summed energy, max duration, tally)
//!   without ever holding per-device outcomes;
//! * [`FleetSim::run_iteration_faulty`] (and its benign form
//!   [`FleetSim::run_iteration`]) collects every device's outcome into an
//!   [`IterationReport`] and fills in idle time once `T^k` is known.
//!
//! Both are methods of the one simulator type; only the report fold
//! bumps the `sim.*` telemetry counters.
//!
//! # Why shard count cannot change bits
//!
//! Shard boundaries always land on multiples of
//! [`fl_pool::tree::TREE_ARITY`] ([`fl_pool::tree::aligned_shard_ranges`]).
//! Each shard emits the *level-1 partials* of the fixed-arity reduction
//! tree (one `f64` per `TREE_ARITY`-sized group, summed left-to-right with
//! `Iterator::sum`, exactly like [`fl_pool::tree::group_partials`]);
//! concatenating shard partials in shard order therefore reproduces the
//! single-threaded level-1 array bit-for-bit, and
//! [`fl_pool::tree::reduce_group_partials`] finishes the reduction with an
//! op sequence that depends only on the device count. Duration is a `max`
//! fold (`max` is associative over the non-NaN, non-negative values the
//! physics produces) and tallies are integer merges — so the shard count,
//! like `FL_WORKERS`, may change *scheduling* but never a single bit of
//! the round summary.
//!
//! The report fold sums energies flat, left to right
//! ([`IterationReport::total_energy`]); the summary's tree sum equals it
//! for `N <= TREE_ARITY` and may differ in the last bits above that.
//!
//! # Pooled observation
//!
//! The per-device observation (`N·(H+1)` bandwidths) does not scale to
//! 10⁶ devices and pins the policy input width to `N`. The quantile-pooled
//! observation replaces each per-device axis with a fixed 5-point summary
//! (min, q25, median, q75, max — linear interpolation on the
//! `total_cmp`-sorted values), giving a fixed-size vector independent of
//! `N` and exactly invariant under device permutation. See
//! [`pooled_observation`] for the schema.
//!
//! [`FleetSim::observe_pooled`] computes the same bits at the cost of the
//! trace pool, not the fleet: a device's history depends only on its
//! trace, so each used trace's history is computed once, and each
//! bandwidth column is summarized from at most `T` `(value, device
//! count)` pairs. The frequency-cap and work-size summaries depend only on
//! columns that never change after [`FleetSim::new`], so they are computed
//! on the first observe and cached.

use crate::fault::{DeviceFault, DeviceStatus, FleetFaults};
use crate::report::{DeviceOutcome, IterationReport, OutcomeTally};
use crate::{DeviceSampler, FlConfig, MobileDevice, Result, SimError};
use fl_net::{BandwidthTrace, TraceSet};
use fl_pool::tree::{aligned_shard_ranges, reduce_group_partials, TREE_ARITY};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Device state in struct-of-arrays form: one parallel `Vec` per channel
/// instead of a `Vec<MobileDevice>`, so shard evaluation streams through
/// contiguous memory and a million-device fleet costs ~44 bytes/device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    /// `c_i`: CPU cycles per bit, one entry per device.
    pub cycles_per_bit: Vec<f64>,
    /// `D_i`: local dataset size in MB.
    pub data_mb: Vec<f64>,
    /// `α_i`: effective capacitance in J / (Gcycle · GHz²).
    pub alpha: Vec<f64>,
    /// `δ_i^max`: frequency cap in GHz.
    pub delta_max_ghz: Vec<f64>,
    /// `e_i`: radio transmit power in W.
    pub tx_power_w: Vec<f64>,
    /// Bandwidth-trace index per device (`u32`: the pool is small).
    pub trace_idx: Vec<u32>,
    /// Remaining battery charge in J per device; empty when battery
    /// bookkeeping is disabled. Batteries never alter the round physics —
    /// they are drained *from* round energies (participation gating is the
    /// fault layer's job), so enabling them cannot change any other bit.
    pub battery_j: Vec<f64>,
    /// Battery capacity in J (0.0 when battery bookkeeping is disabled).
    pub battery_capacity_j: f64,
}

impl FleetState {
    fn with_capacity(n: usize) -> Self {
        FleetState {
            cycles_per_bit: Vec::with_capacity(n),
            data_mb: Vec::with_capacity(n),
            alpha: Vec::with_capacity(n),
            delta_max_ghz: Vec::with_capacity(n),
            tx_power_w: Vec::with_capacity(n),
            trace_idx: Vec::with_capacity(n),
            battery_j: Vec::new(),
            battery_capacity_j: 0.0,
        }
    }

    fn push(&mut self, d: &MobileDevice) -> Result<()> {
        let trace_idx = u32::try_from(d.trace_idx).map_err(|_| {
            SimError::InvalidArgument(format!(
                "device {}: trace index {} does not fit the fleet's u32 column",
                d.id, d.trace_idx
            ))
        })?;
        self.cycles_per_bit.push(d.cycles_per_bit);
        self.data_mb.push(d.data_mb);
        self.alpha.push(d.alpha);
        self.delta_max_ghz.push(d.delta_max_ghz);
        self.tx_power_w.push(d.tx_power_w);
        self.trace_idx.push(trace_idx);
        Ok(())
    }

    /// Scatters an existing device list into parallel channels. Device
    /// `id`s must equal their index (the fleet addresses devices by
    /// position, and error reporting relies on it); the constants
    /// themselves are validated by [`FleetSim::new`].
    pub fn from_devices(devices: &[MobileDevice]) -> Result<Self> {
        let mut state = FleetState::with_capacity(devices.len());
        for (i, d) in devices.iter().enumerate() {
            if d.id != i {
                return Err(SimError::InvalidArgument(format!(
                    "fleet device ids must equal their index: found id {} at position {i}",
                    d.id
                )));
            }
            state.push(d)?;
        }
        Ok(state)
    }

    /// Samples `assignment.len()` devices with the given per-device trace
    /// assignment. Draw order matches [`DeviceSampler::sample_fleet`]
    /// exactly, so the same RNG seed yields the same fleet either way.
    pub fn sample(
        sampler: &DeviceSampler,
        assignment: &[usize],
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let mut state = FleetState::with_capacity(assignment.len());
        for (id, &trace_idx) in assignment.iter().enumerate() {
            let d = sampler.sample(id, trace_idx, rng);
            d.validate()?;
            state.push(&d)?;
        }
        Ok(state)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.cycles_per_bit.len()
    }

    /// True for an empty fleet (rejected by [`FleetSim::new`]).
    pub fn is_empty(&self) -> bool {
        self.cycles_per_bit.is_empty()
    }

    /// Checks the public columns for a consistent shape: every device
    /// channel has [`FleetState::len`] entries and `battery_j` has either
    /// none (bookkeeping off) or one per device.
    fn check_columns(&self) -> Result<()> {
        let n = self.len();
        let lens = [
            self.data_mb.len(),
            self.alpha.len(),
            self.delta_max_ghz.len(),
            self.tx_power_w.len(),
            self.trace_idx.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(SimError::InvalidArgument(format!(
                "fleet columns must all have {n} entries (cycles_per_bit), got \
                 data_mb/alpha/delta_max_ghz/tx_power_w/trace_idx = {lens:?}"
            )));
        }
        if !self.battery_j.is_empty() && self.battery_j.len() != n {
            return Err(SimError::InvalidArgument(format!(
                "battery_j must be empty or have {n} entries, got {}",
                self.battery_j.len()
            )));
        }
        Ok(())
    }

    /// Device `i` as a [`MobileDevice`] view (`id == i`).
    pub fn device(&self, i: usize) -> MobileDevice {
        MobileDevice {
            id: i,
            cycles_per_bit: self.cycles_per_bit[i],
            data_mb: self.data_mb[i],
            alpha: self.alpha[i],
            delta_max_ghz: self.delta_max_ghz[i],
            tx_power_w: self.tx_power_w[i],
            trace_idx: self.trace_idx[i] as usize,
        }
    }

    /// Enables battery bookkeeping: every device starts at `capacity_j`
    /// joules of charge.
    pub fn set_batteries(&mut self, capacity_j: f64) -> Result<()> {
        if !(capacity_j > 0.0) || !capacity_j.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "battery capacity must be positive and finite, got {capacity_j}"
            )));
        }
        self.battery_j = vec![capacity_j; self.len()];
        self.battery_capacity_j = capacity_j;
        Ok(())
    }

    /// True when battery bookkeeping is enabled.
    pub fn batteries_enabled(&self) -> bool {
        !self.battery_j.is_empty()
    }
}

/// Battery bookkeeping for one fleet round (present only when
/// batteries were enabled, e.g. by [`FleetSim::set_batteries`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryRound {
    /// Devices at zero charge after this round's drain.
    pub depleted: usize,
    /// Minimum remaining charge fraction across the fleet.
    pub min_fraction: f64,
}

/// Summary of one fleet round: the aggregate quantities a controller or
/// bench needs, without the `O(N)` per-device outcome vector a full
/// [`IterationReport`] would carry (use [`FleetSim::run_iteration_faulty`]
/// when the breakdown is wanted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRound {
    /// `t^k`: wall-clock start of the round (s).
    pub start_time: f64,
    /// `T^k = max_i min(T_i^k, timeout)` over non-dropped devices (s).
    pub duration: f64,
    /// `Σ_i E_i^k` via the fixed-arity reduction tree (J). Bit-identical
    /// to [`IterationReport::total_energy`] for `N <=` [`TREE_ARITY`].
    pub total_energy: f64,
    /// Outcome counts, merged across shards in shard order.
    pub tally: OutcomeTally,
    /// Battery drain summary, when bookkeeping is enabled.
    pub battery: Option<BatteryRound>,
}

impl FleetRound {
    /// System cost of this round: `T^k + λ Σ_i E_i^k` (one term of
    /// Eq. 9) — the same expression as [`IterationReport::cost`].
    pub fn cost(&self, lambda: f64) -> f64 {
        self.duration + lambda * self.total_energy
    }

    /// `t^{k+1} = t^k + T^k`.
    pub fn end_time(&self) -> f64 {
        self.start_time + self.duration
    }

    /// Fraction of devices whose update reached the aggregator —
    /// integer-derived, so exact and shard/permutation invariant.
    pub fn survival_fraction(&self) -> f64 {
        let total = self.tally.total();
        if total == 0 {
            return 0.0;
        }
        (self.tally.completed + self.tally.straggled) as f64 / total as f64
    }
}

/// Per-shard partial results: level-1 tree partials plus the shard-local
/// folds that are exactly associative (max, integer counts).
struct ShardPartial {
    /// One level-1 energy partial per `TREE_ARITY`-sized device group.
    energy_groups: Vec<f64>,
    /// Max capped waiting time over the shard's non-dropped devices.
    t_max: f64,
    /// Outcome counts for the shard.
    tally: OutcomeTally,
    /// Per-device total energies (device order within the shard), kept
    /// only when battery bookkeeping needs them.
    energies: Option<Vec<f64>>,
}

/// The federated-learning system of Section III: a fleet of devices in
/// struct-of-arrays form ([`FleetState`]), their bandwidth traces, and the
/// synchronized-iteration timing/energy model.
///
/// `FleetSim` is deliberately *policy-free*: callers (the DRL environment,
/// the baselines, the figure harness) pick the frequency vector and this
/// type evaluates one iteration of the physics, either as a sharded
/// [`FleetRound`] summary ([`FleetSim::run_round`], evaluated `shards`
/// ranges at a time on the `fl-pool` work-stealing pool) or as a
/// per-device [`IterationReport`] ([`FleetSim::run_iteration`]). Shard
/// count and worker count are scheduling knobs only — see the module docs
/// for the bit-invariance argument.
///
/// The device columns are immutable after [`FleetSim::new`] (only the
/// battery charges change), which is what lets observation statics be
/// cached.
#[derive(Debug, Clone)]
pub struct FleetSim {
    state: FleetState,
    traces: TraceSet,
    config: FlConfig,
    shards: usize,
    workers: Option<usize>,
    /// Built on the first observe, never in [`FleetSim::new`]: the static
    /// summaries sort two `N`-value columns.
    obs_statics: OnceLock<ObsStatics>,
    obs: SimObs,
}

/// Observability handles for the report fold (all disabled no-ops by
/// default). Clones share the underlying atomics, so a simulator cloned
/// into many environments aggregates its fault tallies in one place.
#[derive(Debug, Clone, Default)]
struct SimObs {
    iterations: fl_obs::Counter,
    completed: fl_obs::Counter,
    straggled: fl_obs::Counter,
    dropped: fl_obs::Counter,
    failed: fl_obs::Counter,
    duration_s: fl_obs::Histogram,
}

/// Observation inputs that depend only on the immutable device columns.
#[derive(Debug, Clone)]
struct ObsStatics {
    /// `(trace index, devices following it)` for every trace at least one
    /// device follows, in order of each trace's first device.
    trace_counts: Vec<(usize, usize)>,
    /// [`quantile_summary`] of the per-device frequency caps `δ_i^max`.
    delta_max: [f64; POOL_QUANTILES],
    /// [`quantile_summary`] of the per-device gigacycles per pass.
    gcycles: [f64; POOL_QUANTILES],
}

impl FleetSim {
    /// Builds a fleet simulator, validating the config, the column shapes,
    /// every device's constants, and its trace index.
    pub fn new(state: FleetState, traces: TraceSet, config: FlConfig) -> Result<Self> {
        config.validate()?;
        state.check_columns()?;
        if state.is_empty() {
            return Err(SimError::InvalidArgument(
                "fleet needs at least one device".to_string(),
            ));
        }
        for (i, &t) in state.trace_idx.iter().enumerate() {
            state.device(i).validate()?;
            if t as usize >= traces.len() {
                return Err(SimError::InvalidArgument(format!(
                    "device {i} references trace {t} but only {} traces exist",
                    traces.len()
                )));
            }
        }
        Ok(FleetSim {
            state,
            traces,
            config,
            shards: 1,
            workers: None,
            obs_statics: OnceLock::new(),
            obs: SimObs::default(),
        })
    }

    /// Attaches an observability recorder: every [`FleetSim::run_iteration`]
    /// / [`FleetSim::run_iteration_faulty`] bumps fleet outcome counters
    /// (`sim.device.*`, mirroring the `OutcomeTally` statuses) and a
    /// round-duration histogram; [`FleetSim::run_round`] records nothing.
    /// Counters are atomic adds — commutative, so totals are invariant to
    /// worker scheduling — and recording never alters the physics or
    /// consumes RNG.
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

    /// Device state.
    pub fn state(&self) -> &FleetState {
        &self.state
    }

    /// The fleet as per-device structs (materialized, `O(N)`; per-step
    /// code reads `state()` columns instead).
    pub fn devices(&self) -> Vec<MobileDevice> {
        (0..self.state.len())
            .map(|i| self.state.device(i))
            .collect()
    }

    /// Enables battery bookkeeping: every device (re)starts at
    /// `capacity_j` joules of charge.
    pub fn set_batteries(&mut self, capacity_j: f64) -> Result<()> {
        self.state.set_batteries(capacity_j)
    }

    /// The trace pool.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The trace device `i` follows (index validated at construction).
    fn trace(&self, i: usize) -> &BandwidthTrace {
        self.traces
            .get(self.state.trace_idx[i] as usize)
            .expect("trace indices validated at construction")
    }

    /// The trace device `i` follows. Errors (instead of panicking) when
    /// the device index is outside the fleet.
    pub fn trace_of(&self, device: usize) -> Result<&BandwidthTrace> {
        if device >= self.state.len() {
            return Err(SimError::DeviceOutOfRange {
                device,
                n_devices: self.state.len(),
            });
        }
        Ok(self.trace(device))
    }

    /// Task configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.state.len()
    }

    /// Sets the shard count (clamped to at least 1). Guaranteed not to
    /// change a single bit of any round result.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Overrides the worker count (`None` = honor `FL_WORKERS` /
    /// available parallelism at each call).
    pub fn set_workers(&mut self, workers: Option<usize>) {
        self.workers = workers;
    }

    /// Every device at its frequency cap — the canonical bench action.
    pub fn max_freqs(&self) -> Vec<f64> {
        self.state.delta_max_ghz.clone()
    }

    /// Validates one round's inputs against the fleet (whose column
    /// shapes [`FleetSim::new`] checked) and returns the server timeout
    /// (`+∞` when none).
    fn check_round(&self, t_start: f64, freqs: &[f64], faults: &FleetFaults) -> Result<f64> {
        let n = self.state.len();
        if freqs.len() != n {
            return Err(SimError::InvalidArgument(format!(
                "expected {n} frequencies, got {}",
                freqs.len()
            )));
        }
        faults.check_len(n)?;
        if !(t_start.is_finite()) || t_start < 0.0 {
            return Err(SimError::InvalidArgument(format!(
                "t_start must be finite and non-negative, got {t_start}"
            )));
        }
        match faults.timeout_s {
            Some(t) if !(t > 0.0) || !t.is_finite() => Err(SimError::InvalidArgument(format!(
                "timeout_s must be positive and finite, got {t}"
            ))),
            timeout => Ok(timeout.unwrap_or(f64::INFINITY)),
        }
    }

    /// Runs one synchronized round starting at `t_start` with the given
    /// per-device frequencies, under a realized fault schedule.
    ///
    /// Folds the round kernel shard-parallel and reduces via the
    /// fixed-arity tree; the result is invariant to `shards`,
    /// `FL_WORKERS`, and scheduling. Errors match a serial loop: the
    /// lowest-indexed failing device wins.
    pub fn run_round(
        &mut self,
        t_start: f64,
        freqs: &[f64],
        faults: &FleetFaults,
    ) -> Result<FleetRound> {
        let timeout = self.check_round(t_start, freqs, faults)?;
        let n = self.state.len();
        let want_energies = self.state.batteries_enabled();
        let ranges = aligned_shard_ranges(n, self.shards, TREE_ARITY);
        let workers = self.workers.unwrap_or_else(fl_pool::env_workers);
        let sim = &*self;
        let run = fl_pool::run_indexed(workers, ranges, |_, range| {
            sim.eval_shard(range, t_start, freqs, faults, timeout, want_energies)
        });

        // Shard ranges ascend, and each shard reports its lowest-indexed
        // error, so the first error in shard order is the same error the
        // serial loop would have hit first.
        let mut partials = Vec::with_capacity(run.results.len());
        for result in run.results {
            partials.push(result.map_err(|(_, e)| e)?);
        }

        // Level-1 partials concatenated in shard order == the
        // single-threaded level-1 array, because shard boundaries align to
        // TREE_ARITY. The remaining levels are shard-blind.
        let groups: Vec<f64> = partials
            .iter()
            .flat_map(|p| p.energy_groups.iter().copied())
            .collect();
        let total_energy = reduce_group_partials(groups, TREE_ARITY);
        let duration = partials.iter().fold(0.0_f64, |m, p| m.max(p.t_max));
        let mut tally = OutcomeTally::default();
        for p in &partials {
            tally.merge(&p.tally);
        }

        let battery = if want_energies {
            // Elementwise drain in device order: trivially shard-invariant.
            let mut idx = 0usize;
            for p in &partials {
                for &e in p.energies.as_ref().expect("requested above") {
                    let charge = &mut self.state.battery_j[idx];
                    *charge = (*charge - e).max(0.0);
                    idx += 1;
                }
            }
            let depleted = self.state.battery_j.iter().filter(|&&c| c <= 0.0).count();
            let min_fraction = self
                .state
                .battery_j
                .iter()
                .fold(f64::INFINITY, |m, &c| m.min(c))
                / self.state.battery_capacity_j;
            Some(BatteryRound {
                depleted,
                min_fraction,
            })
        } else {
            None
        };

        Ok(FleetRound {
            start_time: t_start,
            duration,
            total_energy,
            tally,
            battery,
        })
    }

    /// Benign-schedule convenience wrapper around [`FleetSim::run_round`].
    pub fn run_round_benign(&mut self, t_start: f64, freqs: &[f64]) -> Result<FleetRound> {
        let faults = FleetFaults::none(self.state.len());
        self.run_round(t_start, freqs, &faults)
    }

    /// Evaluates one shard (half-open device range) and returns its level-1
    /// tree partials. On error, reports the *lowest-indexed* failing device
    /// in the shard (ranges ascend, so the caller's first-in-shard-order
    /// error is the serial loop's error).
    fn eval_shard(
        &self,
        range: std::ops::Range<usize>,
        t_start: f64,
        freqs: &[f64],
        faults: &FleetFaults,
        timeout: f64,
        want_energies: bool,
    ) -> std::result::Result<ShardPartial, (usize, SimError)> {
        let len = range.len();
        let mut energy_groups = Vec::with_capacity(len.div_ceil(TREE_ARITY));
        // Buffered per-group so each partial is `buf.iter().sum()` — the
        // exact accumulation `fl_pool::tree::group_partials` (and, at
        // N <= ARITY, `IterationReport::total_energy`) performs.
        let mut buf: Vec<f64> = Vec::with_capacity(TREE_ARITY);
        let mut energies = want_energies.then(|| Vec::with_capacity(len));
        let mut t_max: f64 = 0.0;
        let mut tally = OutcomeTally::default();
        for i in range {
            let (outcome, waited) = device_round(
                &self.state.device(i),
                freqs[i],
                &faults.device(i),
                self.trace(i),
                &self.config,
                t_start,
                timeout,
            )
            .map_err(|e| (i, e))?;
            let energy = outcome.total_energy();
            t_max = t_max.max(waited);
            tally.add(outcome.status);
            buf.push(energy);
            if buf.len() == TREE_ARITY {
                energy_groups.push(buf.iter().sum());
                buf.clear();
            }
            if let Some(es) = &mut energies {
                es.push(energy);
            }
        }
        if !buf.is_empty() {
            energy_groups.push(buf.iter().sum());
        }
        Ok(ShardPartial {
            energy_groups,
            t_max,
            tally,
            energies,
        })
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
        self.run_iteration_faulty(t_start, freqs, &FleetFaults::none(self.state.len()))
    }

    /// Fault-aware variant of [`FleetSim::run_iteration`]: evaluates the
    /// same physics under a realized per-device fault schedule (dropout,
    /// straggler, blackout, upload failure, timeout — see DESIGN.md "Fault
    /// model & determinism contract") and returns the full per-device
    /// [`IterationReport`]: every device's kernel outcome in device order,
    /// then idle time `T^k − min(T_i^k, timeout)` once `T^k` is known.
    ///
    /// `T^k` is the max of the capped waiting times over *non-dropped*
    /// devices; when every device drops, the round is a no-op with
    /// `duration = 0`. Serial, `O(N)` outcomes; batteries are not
    /// drained. Bumps the recorder's `sim.*` counters (see
    /// [`FleetSim::set_recorder`]).
    pub fn run_iteration_faulty(
        &self,
        t_start: f64,
        freqs: &[f64],
        faults: &FleetFaults,
    ) -> Result<IterationReport> {
        let timeout = self.check_round(t_start, freqs, faults)?;
        let n = self.state.len();
        let mut outcomes = Vec::with_capacity(n);
        let mut waited = Vec::with_capacity(n);
        let mut t_max: f64 = 0.0;
        for (i, &freq) in freqs.iter().enumerate() {
            let (outcome, w) = device_round(
                &self.state.device(i),
                freq,
                &faults.device(i),
                self.trace(i),
                &self.config,
                t_start,
                timeout,
            )?;
            t_max = t_max.max(w);
            outcomes.push(outcome);
            waited.push(w);
        }
        self.obs.iterations.inc();
        self.obs.duration_s.observe(t_max);
        for (o, &w) in outcomes.iter_mut().zip(&waited) {
            if o.status != DeviceStatus::Dropped {
                o.idle_time = t_max - w;
            }
            match o.status {
                DeviceStatus::Completed => self.obs.completed.inc(),
                DeviceStatus::Straggled => self.obs.straggled.inc(),
                DeviceStatus::Dropped => self.obs.dropped.inc(),
                DeviceStatus::Failed => self.obs.failed.inc(),
            }
        }
        Ok(IterationReport {
            start_time: t_start,
            duration: t_max,
            devices: outcomes,
        })
    }

    /// The statics cache, built on first use.
    fn obs_statics(&self) -> &ObsStatics {
        self.obs_statics.get_or_init(|| {
            let mut counts = vec![0usize; self.traces.len()];
            let mut order = Vec::new();
            for &t in &self.state.trace_idx {
                let t = t as usize;
                if counts[t] == 0 {
                    order.push(t);
                }
                counts[t] += 1;
            }
            let gcycles: Vec<f64> = (0..self.state.len())
                .map(|i| self.state.device(i).gcycles_per_pass())
                .collect();
            let summary = |v: &[f64]| quantile_summary(v).expect("fleets are non-empty");
            ObsStatics {
                trace_counts: order.into_iter().map(|t| (t, counts[t])).collect(),
                delta_max: summary(&self.state.delta_max_ghz),
                gcycles: summary(&gcycles),
            }
        })
    }

    /// [`BandwidthTrace::history`] at `t` of every trace some device
    /// follows, indexed by trace (empty for unused traces). Traces are
    /// evaluated in order of their first device, so an error is the one
    /// the lowest-indexed device would have raised.
    fn trace_histories(&self, t: f64, slot_h: f64, history_len: usize) -> Result<Vec<Vec<f64>>> {
        let mut histories = vec![Vec::new(); self.traces.len()];
        for &(ti, _) in &self.obs_statics().trace_counts {
            histories[ti] = self.traces.traces()[ti].history(t, slot_h, history_len)?;
        }
        Ok(histories)
    }

    /// The DRL state for round start time `t`: for every device, the
    /// `history_len + 1` most recent `slot_h`-second slot-average
    /// bandwidths (newest first), concatenated device-major — the
    /// `s_k = (B_1^k, ..., B_N^k)` of Section IV-B1. Each trace's history
    /// is computed once and copied to every device that follows it.
    pub fn observe_bandwidth_state(
        &self,
        t: f64,
        slot_h: f64,
        history_len: usize,
    ) -> Result<Vec<f64>> {
        let histories = self.trace_histories(t, slot_h, history_len)?;
        let mut state = Vec::with_capacity(self.state.len() * (history_len + 1));
        for &ti in &self.state.trace_idx {
            state.extend_from_slice(&histories[ti as usize]);
        }
        Ok(state)
    }

    /// Quantile-pooled observation of the fleet at time `t` — the
    /// fixed-size state vector one policy can consume at any `N`. See
    /// [`pooled_observation`] for the schema; pass `survival` from the
    /// previous round's [`FleetRound::survival_fraction`] when the fault
    /// tail is wanted.
    ///
    /// Bit-identical to [`pooled_observation`] over
    /// [`FleetSim::observe_bandwidth_state`], at a cost independent of
    /// `N` once the statics are cached: each bandwidth column is
    /// summarized from `(trace value, device count)` pairs.
    pub fn observe_pooled(
        &self,
        t: f64,
        slot_h: f64,
        history_len: usize,
        survival: Option<f64>,
    ) -> Result<Vec<f64>> {
        let statics = self.obs_statics();
        let histories = self.trace_histories(t, slot_h, history_len)?;
        let mut obs = Vec::with_capacity(pooled_obs_dim(history_len, survival.is_some()));
        let used: Vec<(&[f64], usize)> = statics
            .trace_counts
            .iter()
            .map(|&(ti, count)| (histories[ti].as_slice(), count))
            .collect();
        let mut pairs = Vec::with_capacity(used.len());
        for s in 0..=history_len {
            pairs.clear();
            pairs.extend(used.iter().map(|&(history, count)| (history[s], count)));
            obs.extend(counted_quantile_summary(&mut pairs));
        }
        obs.extend(statics.delta_max);
        obs.extend(statics.gcycles);
        if let Some(frac) = survival {
            obs.push(frac);
        }
        Ok(obs)
    }
}

/// The per-device round kernel: Eqs. 1–6 for one device under one
/// realized fault, the only place the synchronized-round physics is
/// evaluated. Returns the device's outcome (with `idle_time` left at 0 —
/// it needs `T^k`) and the server's capped wait `min(T_i^k, timeout)`.
///
/// Semantics (see DESIGN.md "Fault model & determinism contract"):
///
/// * **Frequency** — `freq` must lie in `(0, δ_max]`, checked even for a
///   dropped device.
/// * **Dropout** — the device skips the round: zero time, zero energy,
///   zero wait (so it never sets `T^k`), status `Dropped`.
/// * **Straggler** — `cmp_factor` multiplies compute time *and* compute
///   energy (the work is re-run, e.g. thermal throttling + retries);
///   `com_factor` multiplies the active upload airtime and hence radio
///   energy. Status `Straggled` when the update still arrives.
/// * **Blackout** — the window `[blackout_start_s, +dur)` (relative to
///   `t_start`) halts transmission: wall-clock upload time stretches, but
///   the radio is idle during the pause so `comm_energy` covers airtime
///   only. The post-pause remainder is *not* re-integrated against the
///   shifted trace (documented approximation).
/// * **Upload failure** — full time and energy are spent but the update
///   is lost: status `Failed`.
/// * **Timeout** — the server waits at most `timeout` on the device; a
///   later finisher is `Failed` (it still burns its full energy locally).
#[inline]
fn device_round(
    dev: &MobileDevice,
    freq: f64,
    fault: &DeviceFault,
    trace: &BandwidthTrace,
    config: &FlConfig,
    t_start: f64,
    timeout: f64,
) -> Result<(DeviceOutcome, f64)> {
    if !(freq > 0.0) || freq > dev.delta_max_ghz + 1e-12 || !freq.is_finite() {
        return Err(SimError::FrequencyOutOfRange {
            device: dev.id,
            freq,
            max: dev.delta_max_ghz,
        });
    }
    if fault.dropout {
        let dropped = DeviceOutcome {
            freq_ghz: freq,
            compute_time: 0.0,
            comm_time: 0.0,
            idle_time: 0.0,
            compute_energy: 0.0,
            comm_energy: 0.0,
            avg_bandwidth: 0.0,
            status: DeviceStatus::Dropped,
        };
        return Ok((dropped, 0.0));
    }
    let compute_time = dev.compute_time(config.tau, freq) * fault.cmp_factor;
    let upload_start = t_start + compute_time;
    // Airtime: seconds the radio actually transmits (Eq. 3 integration,
    // inflated by the straggler factor).
    let airtime = trace.transfer_time(upload_start, config.model_size_mb)? * fault.com_factor;
    let comm_time = blackout_wall_time(t_start, upload_start, airtime, fault);
    let avg_bandwidth = if airtime > 0.0 {
        config.model_size_mb / airtime
    } else {
        trace.bandwidth_at(upload_start)?
    };
    let total = compute_time + comm_time;
    let lost = fault.upload_fail || total > timeout;
    let slowed = fault.cmp_factor > 1.0 || fault.com_factor > 1.0 || comm_time > airtime;
    let outcome = DeviceOutcome {
        freq_ghz: freq,
        compute_time,
        comm_time,
        idle_time: 0.0,
        compute_energy: dev.compute_energy(config.tau, freq) * fault.cmp_factor,
        comm_energy: dev.comm_energy(airtime),
        avg_bandwidth,
        status: if lost {
            DeviceStatus::Failed
        } else if slowed {
            DeviceStatus::Straggled
        } else {
            DeviceStatus::Completed
        },
    };
    Ok((outcome, total.min(timeout)))
}

/// Wall-clock upload duration after applying a blackout pause.
///
/// The device needs `airtime` seconds of link time starting at
/// `upload_start`; the window `[t_start + blackout_start_s, +dur)` halts
/// transmission. The pause adds dead time only — the post-pause remainder
/// is not re-integrated against the time-shifted trace.
fn blackout_wall_time(t_start: f64, upload_start: f64, airtime: f64, fault: &DeviceFault) -> f64 {
    if fault.blackout_dur_s <= 0.0 {
        return airtime;
    }
    let b0 = t_start + fault.blackout_start_s;
    let b1 = b0 + fault.blackout_dur_s;
    if b1 <= upload_start || b0 >= upload_start + airtime {
        return airtime; // window misses the active upload entirely
    }
    let before = (b0 - upload_start).max(0.0);
    (b1 - upload_start) + (airtime - before)
}

/// Number of quantile points per pooled axis: min, q25, median, q75, max.
pub const POOL_QUANTILES: usize = 5;

/// Length of the pooled observation vector:
/// `5·(history_len + 1)` bandwidth quantiles + `5` frequency-cap
/// quantiles + `5` work-size quantiles, plus a 1-entry survival tail when
/// `participation_tail` is set. Independent of the device count.
pub fn pooled_obs_dim(history_len: usize, participation_tail: bool) -> usize {
    POOL_QUANTILES * (history_len + 1) + 2 * POOL_QUANTILES + usize::from(participation_tail)
}

/// Linear-interpolation quantile of `n >= 1` sorted values, read through
/// `at(rank)`: `idx = q·(n−1)`, value `v[⌊idx⌋] + frac·(v[⌈idx⌉] − v[⌊idx⌋])`.
fn quantile_at(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 1 {
        return at(0);
    }
    let idx = q * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    if hi == lo || frac == 0.0 {
        at(lo)
    } else {
        at(lo) + frac * (at(hi) - at(lo))
    }
}

/// `[min, q25, median, q75, max]` of `n >= 1` sorted values read through
/// `at(rank)` — the one place the summary arithmetic lives.
fn summary_at(n: usize, at: impl Fn(usize) -> f64) -> [f64; POOL_QUANTILES] {
    [
        at(0),
        quantile_at(n, 0.25, &at),
        quantile_at(n, 0.5, &at),
        quantile_at(n, 0.75, &at),
        at(n - 1),
    ]
}

/// 5-point quantile summary `[min, q25, median, q75, max]` of a value
/// set. Sorts a copy with `f64::total_cmp`, so the result is exactly
/// invariant under any permutation of `values`. Errors on an empty set.
pub fn quantile_summary(values: &[f64]) -> Result<[f64; POOL_QUANTILES]> {
    if values.is_empty() {
        return Err(SimError::InvalidArgument(
            "quantile summary needs at least one value".to_string(),
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Ok(summary_at(sorted.len(), |r| sorted[r]))
}

/// [`quantile_summary`] of the multiset in which each `(value, count)`
/// pair stands for `count` copies of `value` (at least one positive
/// count), without expanding it. Sorting the pairs by `total_cmp` lays
/// out the same sequence the expanded sort would (values that compare
/// equal under `total_cmp` have equal bits), and rank `r` is read
/// through the cumulative counts, so the summary picks the same elements
/// and does the same arithmetic — the bits are equal by construction.
fn counted_quantile_summary(pairs: &mut [(f64, usize)]) -> [f64; POOL_QUANTILES] {
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let ends: Vec<usize> = pairs
        .iter()
        .scan(0, |acc, &(_, count)| {
            *acc += count;
            Some(*acc)
        })
        .collect();
    let n = *ends.last().expect("at least one pair");
    summary_at(n, |r| pairs[ends.partition_point(|&end| end <= r)].0)
}

/// Builds the quantile-pooled observation from a device-major bandwidth
/// state (the [`FleetSim::observe_bandwidth_state`] layout: `history_len
/// + 1` slot averages per device, newest first).
///
/// Schema, in order:
/// 1. for each history slot `s = 0..=history_len` (newest first): the
///    5-point quantile summary over devices of slot `s`'s bandwidth,
/// 2. the 5-point summary of per-device frequency caps `δ_i^max`,
/// 3. the 5-point summary of per-device work sizes (gigacycles/pass),
/// 4. optionally a single survival fraction in `[0, 1]` (mean of the
///    previous round's 0/1 survivor flags — an exact integer-derived sum,
///    so permutation- and shard-invariant).
///
/// The vector length is [`pooled_obs_dim`] — independent of `N` — and
/// every entry is exactly invariant under device permutation.
pub fn pooled_observation(
    bw_state: &[f64],
    n_devices: usize,
    history_len: usize,
    delta_max_ghz: &[f64],
    gcycles: &[f64],
    survival: Option<f64>,
) -> Result<Vec<f64>> {
    if n_devices == 0 {
        return Err(SimError::InvalidArgument(
            "pooled observation needs at least one device".to_string(),
        ));
    }
    let slots = history_len + 1;
    if bw_state.len() != n_devices * slots {
        return Err(SimError::InvalidArgument(format!(
            "bandwidth state has {} entries, expected {n_devices} devices x {slots} slots",
            bw_state.len()
        )));
    }
    if delta_max_ghz.len() != n_devices || gcycles.len() != n_devices {
        return Err(SimError::InvalidArgument(format!(
            "per-device stats must match the fleet: got {} caps / {} work sizes for {n_devices} devices",
            delta_max_ghz.len(),
            gcycles.len()
        )));
    }
    let mut obs = Vec::with_capacity(pooled_obs_dim(history_len, survival.is_some()));
    let mut col = Vec::with_capacity(n_devices);
    for s in 0..slots {
        col.clear();
        col.extend((0..n_devices).map(|d| bw_state[d * slots + s]));
        obs.extend(quantile_summary(&col)?);
    }
    obs.extend(quantile_summary(delta_max_ghz)?);
    obs.extend(quantile_summary(gcycles)?);
    if let Some(frac) = survival {
        obs.push(frac);
    }
    Ok(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, FaultPlan};
    use fl_net::{synth::Profile, BandwidthTrace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn flat_traces(bws: &[f64]) -> TraceSet {
        let traces = bws
            .iter()
            .map(|&b| BandwidthTrace::new(1.0, vec![b; 4]).unwrap().cyclic())
            .collect::<Vec<_>>();
        TraceSet::new(traces).unwrap()
    }

    fn sampled_fleet(n: usize, seed: u64) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traces = TraceSet::from_profile(Profile::Walking4G, 3, 600, 1.0, &mut rng).unwrap();
        let assignment = traces.assign(n, &mut rng);
        let devices = DeviceSampler::default().sample_fleet(&assignment, &mut rng);
        let state = FleetState::from_devices(&devices).unwrap();
        FleetSim::new(state, traces, FlConfig::default()).unwrap()
    }

    #[test]
    fn sample_matches_sample_fleet_draw_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let traces = TraceSet::from_profile(Profile::Walking4G, 3, 600, 1.0, &mut rng).unwrap();
        let assignment = traces.assign(7, &mut rng);
        let devices =
            DeviceSampler::default().sample_fleet(&assignment, &mut ChaCha8Rng::seed_from_u64(5));
        let state = FleetState::sample(
            &DeviceSampler::default(),
            &assignment,
            &mut ChaCha8Rng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(state, FleetState::from_devices(&devices).unwrap());
    }

    #[test]
    fn from_devices_rejects_misnumbered_ids() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut devices = DeviceSampler::default().sample_fleet(&[0, 0], &mut rng);
        devices[1].id = 5;
        assert!(FleetState::from_devices(&devices).is_err());
    }

    /// At or below the tree arity the sharded summary and the per-device
    /// report agree bit for bit, energy and cost included. (The name keeps
    /// the simulator's former type name so the test's id stays stable.)
    #[test]
    fn round_matches_flsystem_bitwise_small_n() {
        let mut fleet = sampled_fleet(8, 42);
        let freqs = fleet.max_freqs();
        let report = fleet.run_iteration(0.0, &freqs).unwrap();
        for shards in [1, 2, 8, 64] {
            fleet.set_shards(shards);
            let round = fleet.run_round_benign(0.0, &freqs).unwrap();
            assert_eq!(round.duration.to_bits(), report.duration.to_bits());
            assert_eq!(
                round.total_energy.to_bits(),
                report.total_energy().to_bits()
            );
            assert_eq!(round.tally, report.outcome_tally());
            assert_eq!(round.cost(0.25).to_bits(), report.cost(0.25).to_bits());
        }
    }

    #[test]
    fn faulty_round_matches_flsystem_bitwise() {
        let mut fleet = sampled_fleet(8, 7);
        let freqs = fleet.max_freqs();
        let plan = FaultPlan::new(FaultModel::chaos(0.2, 0.3, Some(60.0)), 8, 99).unwrap();
        for k in 0..5 {
            let faults = plan.faults_at(k);
            let report = fleet.run_iteration_faulty(100.0, &freqs, &faults).unwrap();
            for shards in [1, 3, 64] {
                fleet.set_shards(shards);
                let round = fleet.run_round(100.0, &freqs, &faults).unwrap();
                assert_eq!(round.duration.to_bits(), report.duration.to_bits());
                assert_eq!(
                    round.total_energy.to_bits(),
                    report.total_energy().to_bits()
                );
                assert_eq!(round.tally, report.outcome_tally());
            }
        }
    }

    /// The two folds of the one kernel agree above the tree arity: at
    /// N = 517 (not a multiple of 8) under chaos faults, the sharded
    /// summary's duration and tally equal the report's, and its tree-summed
    /// energy equals the fixed-arity tree sum of the report's per-device
    /// energies, at every shard count.
    #[test]
    fn summary_and_report_folds_agree_large_n() {
        let mut fleet = sampled_fleet(517, 13);
        let freqs = fleet.max_freqs();
        let plan = FaultPlan::new(FaultModel::chaos(0.2, 0.3, Some(60.0)), 517, 4).unwrap();
        for k in 0..3 {
            let faults = plan.faults_at(k);
            let report = fleet.run_iteration_faulty(50.0, &freqs, &faults).unwrap();
            let energies: Vec<f64> = report.devices.iter().map(|d| d.total_energy()).collect();
            let tree_energy = fl_pool::tree::tree_sum_arity(&energies, TREE_ARITY);
            let tally = report.outcome_tally();
            assert!(tally.dropped > 0 && tally.failed > 0 && tally.straggled > 0);
            for shards in [1, 8, 64] {
                fleet.set_shards(shards);
                let round = fleet.run_round(50.0, &freqs, &faults).unwrap();
                assert_eq!(round.duration.to_bits(), report.duration.to_bits());
                assert_eq!(round.total_energy.to_bits(), tree_energy.to_bits());
                assert_eq!(round.tally, tally);
            }
        }
    }

    /// The `sim.*` counters are bumped by the report fold only: two clones
    /// sharing one recorder add up to the summed tallies of their reports,
    /// and a sharded `run_round` records nothing.
    #[test]
    fn report_fold_counters_sum_outcome_tallies_across_clones() {
        const K: u64 = 6;
        let rec = fl_obs::Recorder::in_memory();
        let mut a = sampled_fleet(24, 5);
        a.set_recorder(&rec);
        let b = a.clone();
        let freqs = a.max_freqs();
        let plan = FaultPlan::new(FaultModel::chaos(0.2, 0.3, Some(60.0)), 24, 11).unwrap();
        let mut tally = OutcomeTally::default();
        for k in 0..K {
            for sim in [&a, &b] {
                let report = sim
                    .run_iteration_faulty(30.0 * k as f64, &freqs, &plan.faults_at(k))
                    .unwrap();
                tally.merge(&report.outcome_tally());
            }
        }
        assert!(tally.dropped > 0 && tally.straggled > 0 && tally.failed > 0);
        let counters = |rec: &fl_obs::Recorder| {
            [
                "sim.iterations",
                "sim.device.completed",
                "sim.device.straggled",
                "sim.device.dropped",
                "sim.device.failed",
            ]
            .map(|name| rec.counter_value(name) as usize)
        };
        let want = [
            2 * K as usize,
            tally.completed,
            tally.straggled,
            tally.dropped,
            tally.failed,
        ];
        assert_eq!(counters(&rec), want);
        a.run_round(0.0, &freqs, &plan.faults_at(0)).unwrap();
        assert_eq!(counters(&rec), want);
    }

    #[test]
    fn shard_count_never_changes_bits_large_n() {
        let mut fleet = sampled_fleet(517, 13);
        let freqs = fleet.max_freqs();
        let plan = FaultPlan::new(FaultModel::chaos(0.2, 0.3, Some(60.0)), 517, 4).unwrap();
        let faults = FleetFaults::realize(&plan, 2);
        fleet.set_shards(1);
        let baseline = fleet.run_round(50.0, &freqs, &faults).unwrap();
        for shards in [2, 8, 64, 517, 1000] {
            fleet.set_shards(shards);
            assert_eq!(fleet.run_round(50.0, &freqs, &faults).unwrap(), baseline);
        }
        for workers in [1, 4] {
            fleet.set_workers(Some(workers));
            fleet.set_shards(64);
            assert_eq!(fleet.run_round(50.0, &freqs, &faults).unwrap(), baseline);
        }
    }

    #[test]
    fn error_reporting_matches_serial_first_error() {
        let mut fleet = sampled_fleet(20, 17);
        let mut freqs = fleet.max_freqs();
        freqs[5] = -1.0;
        freqs[13] = f64::NAN;
        let serial = fleet.run_iteration(0.0, &freqs).unwrap_err();
        for shards in [1, 4, 64] {
            fleet.set_shards(shards);
            let err = fleet.run_round_benign(0.0, &freqs).unwrap_err();
            match (&err, &serial) {
                (
                    SimError::FrequencyOutOfRange { device: a, .. },
                    SimError::FrequencyOutOfRange { device: b, .. },
                ) => assert_eq!((*a, *b), (5, 5)),
                other => panic!("unexpected errors: {other:?}"),
            }
        }
    }

    #[test]
    fn battery_bookkeeping_is_shard_invariant_and_physics_free() {
        let mut fleet = sampled_fleet(40, 23);
        let freqs = fleet.max_freqs();
        let no_batt = fleet.run_round_benign(0.0, &freqs).unwrap();
        fleet.set_batteries(100.0).unwrap();
        fleet.set_shards(1);
        let one = fleet.run_round_benign(0.0, &freqs).unwrap();
        // Physics fields unchanged by the battery channel.
        assert_eq!(one.duration.to_bits(), no_batt.duration.to_bits());
        assert_eq!(one.total_energy.to_bits(), no_batt.total_energy.to_bits());
        let charges_one = fleet.state().battery_j.clone();
        fleet.set_batteries(100.0).unwrap();
        fleet.set_shards(64);
        let many = fleet.run_round_benign(0.0, &freqs).unwrap();
        assert_eq!(one, many);
        assert_eq!(charges_one, fleet.state().battery_j);
        assert!(one.battery.unwrap().min_fraction <= 1.0);
    }

    #[test]
    fn quantile_summary_golden() {
        // Sorted: [1, 2, 3, 4] → q25 idx 0.75 → 1.75, median 2.5, q75 3.25.
        let q = quantile_summary(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(q, [1.0, 1.75, 2.5, 3.25, 4.0]);
        assert_eq!(quantile_summary(&[7.0]).unwrap(), [7.0; 5]);
        assert!(quantile_summary(&[]).is_err());
    }

    #[test]
    fn pooled_observation_is_permutation_invariant_and_fixed_size() {
        let fleet = sampled_fleet(16, 31);
        let obs = fleet.observe_pooled(120.0, 10.0, 8, Some(0.75)).unwrap();
        assert_eq!(obs.len(), pooled_obs_dim(8, true));

        // Reverse the device order: every pooled entry must be unchanged.
        let mut devices = fleet.devices();
        devices.reverse();
        for (i, d) in devices.iter_mut().enumerate() {
            d.id = i;
        }
        let state = FleetState::from_devices(&devices).unwrap();
        let rev = FleetSim::new(state, fleet.traces().clone(), *fleet.config()).unwrap();
        let rev_obs = rev.observe_pooled(120.0, 10.0, 8, Some(0.75)).unwrap();
        assert_eq!(obs, rev_obs);
    }

    /// A fleet of `n` devices over `n_traces` random cyclic traces whose
    /// slots are about one-fifth exact zeros (whole zero traces included).
    fn random_fleet(n: usize, n_traces: usize, seed: u64) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traces = (0..n_traces)
            .map(|k| {
                let len = rng.gen_range(1..50);
                let slots = (0..len)
                    .map(|_| {
                        if k % 7 == 3 {
                            0.0
                        } else {
                            rng.gen_range(-1.0f64..4.0).max(0.0)
                        }
                    })
                    .collect();
                let sd = [0.5, 1.0, 3.0][rng.gen_range(0..3usize)];
                BandwidthTrace::new(sd, slots).unwrap().cyclic()
            })
            .collect();
        let traces = TraceSet::new(traces).unwrap();
        let assignment = traces.assign(n, &mut rng);
        let state = FleetState::sample(&DeviceSampler::default(), &assignment, &mut rng).unwrap();
        FleetSim::new(state, traces, FlConfig::default()).unwrap()
    }

    /// `observe_pooled` against the public reference: the expanded
    /// per-device state through `pooled_observation`, bit for bit, at
    /// several times on one fleet (so the cached statics are reused).
    fn assert_pooled_matches_reference(fleet: &FleetSim, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = fleet.num_devices();
        let gcycles: Vec<f64> = (0..n)
            .map(|i| fleet.state().device(i).gcycles_per_pass())
            .collect();
        for _ in 0..4 {
            let t = rng.gen_range(0.0..500.0);
            let slot_h = [0.7, 2.0, 10.0][rng.gen_range(0..3usize)];
            let h = rng.gen_range(0..6);
            let survival = rng.gen_bool(0.5).then(|| rng.gen_range(0.0..1.0));
            let got = fleet.observe_pooled(t, slot_h, h, survival).unwrap();
            let bw = fleet.observe_bandwidth_state(t, slot_h, h).unwrap();
            let want =
                pooled_observation(&bw, n, h, &fleet.state().delta_max_ghz, &gcycles, survival)
                    .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n} t={t} h={h}");
        }
    }

    proptest::proptest! {
        /// The count-based pooled observation equals the expanded
        /// reference bit for bit, with fewer, as many, or more traces than
        /// devices and with zero-bandwidth slots.
        #[test]
        fn prop_observe_pooled_matches_reference(
            n in 1usize..60,
            regime in 0usize..3,
            gap in 1usize..20,
            seed in 0u64..1_000_000,
        ) {
            let n_traces = [n.saturating_sub(gap).max(1), n, n + gap][regime];
            assert_pooled_matches_reference(&random_fleet(n, n_traces, seed), seed);
        }
    }

    #[test]
    fn observe_errors_match_the_per_device_walk() {
        let fleet = random_fleet(6, 3, 9);
        let per_device = fleet.trace(0).history(10.0, 0.0, 2).unwrap_err();
        let err = fleet.observe_bandwidth_state(10.0, 0.0, 2).unwrap_err();
        assert_eq!(err.to_string(), SimError::from(per_device).to_string());
        assert!(fleet.observe_pooled(10.0, -1.0, 2, None).is_err());
    }

    #[test]
    fn pooled_dim_is_independent_of_n() {
        for n in [1, 2, 16, 33] {
            let fleet = sampled_fleet(n, 100 + n as u64);
            let obs = fleet.observe_pooled(60.0, 10.0, 4, None).unwrap();
            assert_eq!(obs.len(), pooled_obs_dim(4, false));
        }
    }

    /// Construction and round inputs are validated (the name keeps the
    /// simulator's former type name so the test's id stays stable).
    #[test]
    fn validation_mirrors_flsystem() {
        let traces = flat_traces(&[2.0]);
        let state = FleetState::from_devices(&[]).unwrap();
        assert!(FleetSim::new(state, traces.clone(), FlConfig::default()).is_err());

        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut state = FleetState::sample(&DeviceSampler::default(), &[0, 0], &mut rng).unwrap();
        state.trace_idx[1] = 9;
        assert!(FleetSim::new(state, traces, FlConfig::default()).is_err());

        let mut fleet = sampled_fleet(4, 2);
        let freqs = fleet.max_freqs();
        assert!(fleet.run_round_benign(-1.0, &freqs).is_err());
        assert!(fleet.run_round_benign(0.0, &freqs[..3]).is_err());
        let mut faults = FleetFaults::none(4);
        faults.timeout_s = Some(0.0);
        assert!(fleet.run_round(0.0, &freqs, &faults).is_err());
        let bad_len = FleetFaults::none(3);
        assert!(fleet.run_round(0.0, &freqs, &bad_len).is_err());
    }

    /// The SoA columns are public and deserializable, so a ragged fleet or
    /// fault schedule must come back as a structured error, never an
    /// index panic.
    #[test]
    fn ragged_columns_are_errors_not_panics() {
        let fleet = sampled_fleet(4, 2);
        let rebuild = |edit: fn(&mut FleetState)| {
            let mut state = fleet.state().clone();
            edit(&mut state);
            FleetSim::new(state, fleet.traces().clone(), *fleet.config())
        };
        let ragged = rebuild(|s| {
            s.data_mb.pop();
        });
        assert!(matches!(ragged, Err(SimError::InvalidArgument(_))));
        let ragged = rebuild(|s| s.tx_power_w.push(0.2));
        assert!(matches!(ragged, Err(SimError::InvalidArgument(_))));
        let ragged = rebuild(|s| s.battery_j = vec![1.0; 3]);
        assert!(matches!(ragged, Err(SimError::InvalidArgument(_))));
        assert!(rebuild(|s| s.battery_j = vec![1.0; 4]).is_ok());

        let mut fleet = fleet;
        let freqs = fleet.max_freqs();
        let mut faults = FleetFaults::none(4);
        faults.cmp_factor.pop();
        assert!(matches!(
            fleet.run_round(0.0, &freqs, &faults),
            Err(SimError::InvalidArgument(_))
        ));
        assert!(matches!(
            fleet.run_iteration_faulty(0.0, &freqs, &faults),
            Err(SimError::InvalidArgument(_))
        ));
        let mut faults = FleetFaults::none(4);
        faults.blackout_dur_s.push(0.0);
        assert!(fleet.run_round(0.0, &freqs, &faults).is_err());
        assert!(fleet.run_iteration_faulty(0.0, &freqs, &faults).is_err());
    }
}
