//! Pieces every workload shares: controller training with a fixed amount
//! of work, the op loop, the metric report, benchmark-side spans and their
//! self-time arithmetic, quantiles, the seeded arrival schedule, repeated
//! set-up, and the `BENCHMARK.json` declarations the output is checked
//! against.

use fl_bench::Scenario;
use fl_ctrl::{
    train_drl_parallel_opt, ParallelConfig, ParallelTrainOutput, RunOptions, TrainConfig,
};
use fl_net::BandwidthTrace;
use fl_obs::Recorder;
use fl_sim::{FlSystem, FleetRound, OutcomeTally};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads for every pool the benchmark drives: the rollout pool
/// (`ParallelConfig.workers`), the fleet shard pool and the GEMM pool.
/// Pinned, so a run on a wider host measures the same schedule.
pub const WORKERS: usize = 2;
/// Fleet shard count (the `fig8_scale` default).
pub const SHARDS: usize = 8;
/// A traced op's layer self-times plus its harness time must cover its
/// wall time to within this share.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Where runs leave span files and scratch state.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Trains `config` on `sys` with the parallel driver: two rollout
/// environments on [`WORKERS`] workers, seeded by the
/// `Scenario::train_parallel` convention. The KL early stop is switched
/// off, so every PPO update runs all its epochs and the work of a training
/// run is the same for every seed.
pub fn train(
    scenario: &Scenario,
    sys: &FlSystem,
    mut config: TrainConfig,
    obs: Recorder,
) -> fl_ctrl::Result<ParallelTrainOutput> {
    config.ppo.target_kl = None;
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xD51);
    let par = ParallelConfig {
        n_envs: 2,
        workers: WORKERS,
    };
    let opts = RunOptions {
        obs,
        ..RunOptions::default()
    };
    train_drl_parallel_opt(sys, &config, &par, &mut rng, &opts)
}

/// Round start time `t_k`: a deterministic stride through the 3600 s
/// traces that stays away from both ends, so every round is independent of
/// the previous round's duration (the `fleet_perf` schedule).
pub fn round_start(k: usize) -> f64 {
    60.0 + ((k * 97) % 3300) as f64
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Which list of the final JSON line a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported by untraced runs and gated by its bound.
    EndToEnd,
    /// Reported by traced runs.
    Layer,
    /// Printed only.
    Info,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, `^[A-Za-z0-9_.-]+$`.
    pub name: String,
    /// As measured, all digits.
    pub value: f64,
    /// Unit label.
    pub unit: String,
    /// Output list.
    pub kind: Kind,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Operations attempted (rounds, requests, training runs, checks).
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the metrics (tables).
    pub notes: Vec<String>,
}

/// True for a legal metric name: 1–64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    fn push(&mut self, kind: Kind, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            kind,
        });
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::EndToEnd, name, value, unit);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::Layer, name, value, unit);
    }

    /// Records a printed-only metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::Info, name, value, unit);
    }

    /// Counts one operation; a failed one is recorded with its reason.
    pub fn op(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(reason());
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, reason: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(reason());
        }
    }

    /// Adds a printed line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile (type 7); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    fl_obs::quantile_sorted(&sorted(values), q)
}

/// Median; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), which the benchmark's acceptance
/// check uses for its spreads. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let x = sorted(values);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // Python's arithmetic step for step: position i·(n+1)/4 (1-based)
        // with j clamped into the data and the remainder unclamped, so the
        // outer cut points extrapolate for tiny samples exactly as it does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// samples beyond it in a sample of `n`.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Seeded Poisson arrival offsets (seconds from the phase start) at
/// `rate` per second over `duration` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `op` back to back until the budget is spent, at least once. A
/// traced run spends the first half of the budget untraced and the second
/// half traced; `op` is told which half it is in.
pub fn run_ops(cfg: &RunConfig, mut op: impl FnMut(bool)) {
    let phases: &[(bool, f64)] = if cfg.trace {
        &[(false, cfg.seconds / 2.0), (true, cfg.seconds / 2.0)]
    } else {
        &[(false, cfg.seconds)]
    };
    for &(traced, budget) in phases {
        let start = Instant::now();
        loop {
            op(traced);
            if secs(start) >= budget {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Set-up build times and digests. The host's speed drifts over seconds,
/// so a run builds its set-up at several moments — before the
/// measurement, and between ops or after the measurement — and `setup_s`
/// is the median over all of them.
#[derive(Debug, Default)]
pub struct SetupTimes {
    seconds: Vec<f64>,
    digests: Vec<u64>,
}

impl SetupTimes {
    /// Builds the set-up `reps` times, dropping each build before the next
    /// so the peak memory is that of one. Returns the last build.
    pub fn sample<T>(
        &mut self,
        reps: usize,
        build: impl Fn() -> T,
        digest: impl Fn(&T) -> u64,
    ) -> T {
        let mut value = None;
        for _ in 0..reps.max(1) {
            drop(value.take());
            let t0 = Instant::now();
            let v = build();
            self.seconds.push(secs(t0));
            self.digests.push(digest(&v));
            value = Some(v);
        }
        value.expect("at least one build")
    }

    /// Median build time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.seconds)
    }

    /// Records `setup_s` and the check that every build agreed.
    pub fn report(&self, report: &mut Report) {
        report.e2e("setup_s", self.median(), "s");
        report.op(self.digests.windows(2).all(|w| w[0] == w[1]), || {
            "repeated set-up builds disagree: set-up is not a function of the seed".to_string()
        });
    }
}

/// CRC-32 of `f64` values by bit pattern.
pub fn digest_f64s(values: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    u64::from(fl_rl::snapshot::crc32(&bytes))
}

/// CRC-32 of a string.
pub fn digest_str(s: &str) -> u64 {
    u64::from(fl_rl::snapshot::crc32(s.as_bytes()))
}

// ---------------------------------------------------------------------------
// Layer probes and shared checks
// ---------------------------------------------------------------------------

/// Calls into `BandwidthTrace::transfer_time` per probe.
const TRANSFER_PROBE_CALLS: usize = 10_000;

/// Times [`TRANSFER_PROBE_CALLS`] direct `transfer_time` calls at the
/// rounds' start times and records nanoseconds per call as a per-layer
/// metric; every answer must be a finite positive time.
pub fn report_transfer_probe(report: &mut Report, trace: &BandwidthTrace, mb: f64) {
    let t0 = Instant::now();
    let mut ok = true;
    for k in 0..TRANSFER_PROBE_CALLS {
        let t = std::hint::black_box(round_start(k));
        match trace.transfer_time(t, std::hint::black_box(mb)) {
            Ok(d) => ok &= d.is_finite() && d > 0.0,
            Err(_) => ok = false,
        }
    }
    let ns = secs(t0) * 1e9 / TRANSFER_PROBE_CALLS as f64;
    report.layer("fl-net.transfer_time_ns", ns, "ns");
    report.op(ok, || {
        "transfer_time returned an error or a non-finite time".to_string()
    });
}

/// A fleet round's outputs are well formed: the tally covers every device
/// and the cost, duration and energy are finite.
pub fn round_ok(round: &FleetRound, devices: usize, lambda: f64) -> bool {
    round.tally.total() == devices
        && round.cost(lambda).is_finite()
        && round.duration.is_finite()
        && round.total_energy.is_finite()
}

/// Bitwise equality of two round results (`PartialEq` on `f64` would call
/// `-0.0 == 0.0` equal).
pub fn rounds_bit_equal(a: &FleetRound, b: &FleetRound) -> bool {
    a.start_time.to_bits() == b.start_time.to_bits()
        && a.duration.to_bits() == b.duration.to_bits()
        && a.total_energy.to_bits() == b.total_energy.to_bits()
        && a.tally == b.tally
        && a.battery == b.battery
}

/// Per-round outcome counts and cost, averaged over the rounds seen.
#[derive(Debug, Default)]
pub struct RoundStats {
    rounds: usize,
    devices: usize,
    tally: OutcomeTally,
    cost: f64,
}

impl RoundStats {
    /// Adds one round.
    pub fn add(&mut self, round: &FleetRound, lambda: f64) {
        self.rounds += 1;
        self.devices += round.tally.total();
        self.tally.merge(&round.tally);
        self.cost += round.cost(lambda);
    }

    /// Records the per-round means as per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        let per = |v: usize| v as f64 / self.rounds.max(1) as f64;
        let t = &self.tally;
        report.layer(
            "fl-sim.fleet.useful_frac",
            (t.completed + t.straggled) as f64 / self.devices.max(1) as f64,
            "frac",
        );
        report.layer("fl-sim.fleet.completed", per(t.completed), "count");
        report.layer("fl-sim.fleet.straggled", per(t.straggled), "count");
        report.layer("fl-sim.fleet.failed", per(t.failed), "count");
        report.layer("fl-sim.fleet.dropped", per(t.dropped), "count");
        report.layer(
            "cost_per_round",
            self.cost / self.rounds.max(1) as f64,
            "cost",
        );
    }
}

// ---------------------------------------------------------------------------
// Spans and attribution
// ---------------------------------------------------------------------------

/// One benchmark-side span: an interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, seconds since the run's origin.
    pub start: f64,
    /// End, seconds since the run's origin.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Round, request or training-run id shared by an op's spans.
    pub id: u64,
}

/// A time total the program aggregated itself (fl-obs phases), attached
/// under a benchmark span.
#[derive(Debug, Clone)]
pub struct TotalRec {
    /// Layer-qualified name.
    pub name: String,
    /// Parent span index.
    pub parent: usize,
    /// Summed duration, seconds.
    pub seconds: f64,
    /// How many intervals the total covers.
    pub count: u64,
}

/// The spans of one run, kept in memory and written out when it ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Interval spans in recording order.
    pub recs: Vec<SpanRec>,
    /// Program-side totals.
    pub totals: Vec<TotalRec>,
}

impl Spans {
    /// An empty span store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Records a span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.recs.push(SpanRec {
            name,
            start: at(start),
            end: at(end),
            parent,
            id,
        });
        self.recs.len() - 1
    }

    /// Records a program-side total under span `parent`.
    pub fn push_total(&mut self, name: &str, parent: usize, seconds: f64, count: u64) {
        self.totals.push(TotalRec {
            name: name.to_string(),
            parent,
            seconds,
            count,
        });
    }

    /// Duration of span `i`.
    pub fn dur(&self, i: usize) -> f64 {
        self.recs[i].end - self.recs[i].start
    }

    /// Writes every span and total as JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut text = String::new();
        let line = |fields: Vec<(&str, Value)>| {
            let obj: BTreeMap<String, Value> = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            serde_json::to_string(&Value::Object(obj)).expect("JSON values always render")
        };
        let parent = |p: Option<usize>| p.map_or(Value::Null, |p| Value::Number(p as f64));
        for (i, r) in self.recs.iter().enumerate() {
            text.push_str(&line(vec![
                ("workload", Value::String(workload.to_string())),
                ("span", Value::Number(i as f64)),
                ("name", Value::String(r.name.to_string())),
                ("start_s", Value::Number(r.start)),
                ("end_s", Value::Number(r.end)),
                ("parent", parent(r.parent)),
                ("id", Value::Number(r.id as f64)),
            ]));
            text.push('\n');
        }
        for t in &self.totals {
            text.push_str(&line(vec![
                ("workload", Value::String(workload.to_string())),
                ("name", Value::String(t.name.clone())),
                ("total_s", Value::Number(t.seconds)),
                ("count", Value::Number(t.count as f64)),
                ("parent", parent(Some(t.parent))),
                ("id", Value::Number(self.recs[t.parent].id as f64)),
            ]));
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// One traced op split into layer self-times. The parts plus the
/// unattributed rest make up the wall time.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Traced wall time of the op, seconds.
    pub wall: f64,
    /// `(per-layer metric stem, self time in seconds)`, in blocking order.
    pub parts: Vec<(&'static str, f64)>,
}

impl Attribution {
    /// Wall time no part accounts for.
    pub fn unattributed(&self) -> f64 {
        self.wall - self.parts.iter().map(|p| p.1).sum::<f64>()
    }

    /// The parts are non-negative and cover the wall time to within
    /// `tolerance` of it.
    pub fn closes(&self, tolerance: f64) -> bool {
        let slack = 1e-9;
        self.wall > 0.0
            && self.parts.iter().all(|p| p.1 >= -slack)
            && self.unattributed().abs() <= tolerance * self.wall + slack
    }

    /// Self time of the part named `name` (0 when absent).
    pub fn part(&self, name: &str) -> f64 {
        self.parts.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1)
    }

    /// Median over ops of `f`.
    pub fn p50(ops: &[Attribution], f: impl Fn(&Attribution) -> f64) -> f64 {
        median(&ops.iter().map(f).collect::<Vec<_>>())
    }

    /// Sums ops part by part (all ops must list the same parts).
    pub fn total(ops: &[Attribution]) -> Attribution {
        let mut out = ops.first().cloned().unwrap_or_default();
        for op in ops.iter().skip(1) {
            out.wall += op.wall;
            for (acc, part) in out.parts.iter_mut().zip(&op.parts) {
                debug_assert_eq!(acc.0, part.0);
                acc.1 += part.1;
            }
        }
        out
    }

    /// One table row: wall time and each part in milliseconds.
    pub fn row(&self, label: &str) -> String {
        let mut s = format!("{label:<10} wall {:>10.3} ms |", self.wall * 1e3);
        for (name, t) in &self.parts {
            s.push_str(&format!(" {name} {:.3}", t * 1e3));
        }
        s.push_str(&format!(
            " | unattributed {:.3} ms ({:+.2}%)",
            self.unattributed() * 1e3,
            100.0 * self.unattributed() / self.wall
        ));
        s
    }
}

/// Checks and tabulates traced ops (one table row each when `rows`),
/// then records each part's share of the total wall time
/// (`<stem>_frac`), the unattributed share, and the mean traced op wall
/// time.
pub fn report_attribution(report: &mut Report, label: &str, ops: &[Attribution], rows: bool) {
    for (k, op) in ops.iter().enumerate() {
        if rows {
            report.note(op.row(&format!("{label} {k}")));
        }
        report.op(op.closes(ATTRIBUTION_TOLERANCE), || {
            format!(
                "{label} {k}: layer self-times do not add up to the traced wall time: {}",
                op.row("")
            )
        });
    }
    let total = Attribution::total(ops);
    if ops.len() > 1 || !rows {
        report.note(total.row(&format!("{} {label}s", ops.len())));
    }
    for (name, t) in &total.parts {
        report.layer(&format!("{name}_frac"), t / total.wall, "frac");
    }
    report.layer(
        "unattributed_frac",
        total.unattributed() / total.wall,
        "frac",
    );
    report.layer(
        "trace.op_wall_mean_ms",
        total.wall * 1e3 / ops.len().max(1) as f64,
        "ms",
    );
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Allowed worsening as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The benchmark declaration at the repository root.
pub fn benchmark_json() -> Result<Value, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`).
pub fn declared(key: &str) -> Result<Vec<Declared>, String> {
    let json = benchmark_json()?;
    let list = json[key]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                unit: m["unit"]
                    .as_str()
                    .ok_or("metric without a unit")?
                    .to_string(),
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1_000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 1000.0, 2.0);
        let b = poisson_schedule(7, 1000.0, 2.0);
        let c = poisson_schedule(8, 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 2000 expected arrivals; the count's sd is about 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in [
            "setup_s",
            "fl-sim.fleet.run_round_frac",
            "a",
            "9x",
            "A.b-c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "p99%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn report_refuses_illegal_names() {
        Report::default().layer("bad name", 1.0, "ms");
    }

    #[test]
    fn attribution_closes_within_tolerance() {
        let op = |unattributed: f64| Attribution {
            wall: 1.0,
            parts: vec![("a", 0.5), ("b", 0.5 - unattributed)],
        };
        assert!(op(0.0).closes(0.05));
        assert!(op(0.049).closes(0.05));
        assert!(!op(0.06).closes(0.05));
        // Parts that over-cover the wall (negative rest) fail too.
        assert!(!op(-0.06).closes(0.05));
        let neg = Attribution {
            wall: 1.0,
            parts: vec![("a", 1.1), ("b", -0.1)],
        };
        assert!(!neg.closes(0.05));
        let total = Attribution::total(&[op(0.0), op(0.02)]);
        assert_eq!(total.wall, 2.0);
        assert!((total.unattributed() - 0.02).abs() < 1e-12);
        assert_eq!(total.parts[0], ("a", 1.0));
    }

    #[test]
    fn setup_sampling_counts_builds_and_checks_agreement() {
        let mut same = SetupTimes::default();
        assert_eq!(same.sample(3, || 42u64, |v| *v), 42);
        assert_eq!(same.sample(0, || 42u64, |v| *v), 42);
        assert_eq!(same.seconds.len(), 4);
        let mut report = Report::default();
        same.report(&mut report);
        assert_eq!((report.attempted, report.failed), (1, 0));

        // A build that differs from the others fails the check.
        let n = std::cell::Cell::new(0u64);
        let mut drift = SetupTimes::default();
        let counter = || {
            n.set(n.get() + 1);
            n.get()
        };
        assert_eq!(drift.sample(3, counter, |v| *v), 3);
        let mut report = Report::default();
        drift.report(&mut report);
        assert_eq!(report.failed, 1);
    }
}
