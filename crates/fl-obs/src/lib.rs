//! Zero-dependency observability for the FL training stack: metric
//! registries, lightweight spans, and a JSONL event log.
//!
//! Everything funnels through a [`Recorder`]. A disabled recorder
//! (`Recorder::disabled()`, also the `Default`) is a single `Option` check
//! on every hot path — no allocation, no locking, no I/O — so
//! instrumented code costs nothing when observability is off.
//!
//! # Determinism contract
//!
//! Observability extends the repo's bit-exact reproducibility guarantees
//! (PR 1–3) with three hard rules:
//!
//! 1. **Never consumes RNG.** Nothing in this crate draws random numbers
//!    or feeds entropy back into training.
//! 2. **Never branches training.** Instrumented code must behave
//!    identically whether its recorder is enabled or disabled; recorders
//!    only observe values that training already computed.
//! 3. **Deterministic fields diff clean.** Every event carries a `det`
//!    flag. Events with `det: true` hold only fields that are invariant
//!    to worker count and to kill/resume boundaries, keyed by a stable
//!    `key`; all wall-clock timing lives in a separate `wall` sub-object.
//!    The [`det_projection`] of a log (det events, `wall` stripped,
//!    deduplicated by `(ev, key)` last-wins, sorted) is therefore
//!    byte-identical across worker counts and across a kill/resume
//!    boundary of the same run.
//!
//! # Event shape
//!
//! One JSON object per line:
//!
//! ```json
//! {"det":true,"ev":"ppo_update","key":"u00000003","policy_loss":-0.01,
//!  "wall":{"s":0.0123}}
//! ```
//!
//! `ev` names the event type, `det` marks determinism, `key` (required
//! when `det` is true) orders and deduplicates, and `wall` (optional)
//! holds physical timings that are *expected* to differ run-to-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod trace;

use parking_lot::Mutex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// A JSONL line failed to parse.
    Parse(String),
    /// A line parsed but violates the event schema.
    Schema(String),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io(m) => write!(f, "obs io error: {m}"),
            ObsError::Parse(m) => write!(f, "obs parse error: {m}"),
            ObsError::Schema(m) => write!(f, "obs schema error: {m}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// Result alias for this crate.
pub type ObsResult<T> = Result<T, ObsError>;

/// Writes `bytes` to `path` atomically: a sibling tmp file is written and
/// fsynced, then renamed over the destination (rename within one directory
/// is atomic on POSIX). A crash at any point leaves either the old file or
/// the new one — never a torn mix. The containing directory is fsynced
/// best-effort so the rename itself is durable.
///
/// This is the single atomic-write primitive for the whole workspace;
/// `fl_rl::snapshot::atomic_write` delegates here so checkpoints and event
/// logs share one crash-safety story.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> ObsResult<()> {
    let io_err = |e: std::io::Error| ObsError::Io(format!("{}: {e}", path.display()));
    let file_name = path
        .file_name()
        .ok_or_else(|| ObsError::Io(format!("{}: no file name", path.display())))?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename durable; best-effort because
        // some filesystems refuse to open directories.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Builder for one structured event line.
///
/// Deterministic events ([`Event::det`]) carry a stable `key` and may only
/// hold fields that are invariant to worker count and resume boundaries;
/// put timings in the `wall` sub-object ([`Event::wall_f`]). Physical
/// events ([`Event::phys`]) have no such restriction.
#[derive(Debug, Clone)]
pub struct Event {
    ev: String,
    det: bool,
    key: Option<String>,
    fields: BTreeMap<String, Value>,
    wall: BTreeMap<String, Value>,
}

impl Event {
    /// A deterministic event: `key` must be stable across worker counts
    /// and resume boundaries, and later events with the same `(ev, key)`
    /// replace earlier ones in the [`det_projection`].
    pub fn det(ev: &str, key: impl Into<String>) -> Self {
        Event {
            ev: ev.to_string(),
            det: true,
            key: Some(key.into()),
            fields: BTreeMap::new(),
            wall: BTreeMap::new(),
        }
    }

    /// A physical (lifecycle/timing) event, excluded from the
    /// deterministic projection.
    pub fn phys(ev: &str) -> Self {
        Event {
            ev: ev.to_string(),
            det: false,
            key: None,
            fields: BTreeMap::new(),
            wall: BTreeMap::new(),
        }
    }

    /// Adds a float field.
    pub fn f(mut self, name: &str, v: f64) -> Self {
        self.fields.insert(name.to_string(), Value::Number(v));
        self
    }

    /// Adds an unsigned-integer field (exact below 2⁵³ under the f64
    /// number model).
    pub fn u(mut self, name: &str, v: u64) -> Self {
        debug_assert!(v < (1u64 << 53), "integer field {name}={v} exceeds 2^53");
        self.fields
            .insert(name.to_string(), Value::Number(v as f64));
        self
    }

    /// Adds a string field.
    pub fn s(mut self, name: &str, v: &str) -> Self {
        self.fields
            .insert(name.to_string(), Value::String(v.to_string()));
        self
    }

    /// Adds a float-array field.
    pub fn arr_f(mut self, name: &str, vs: &[f64]) -> Self {
        let arr = vs.iter().map(|&v| Value::Number(v)).collect();
        self.fields.insert(name.to_string(), Value::Array(arr));
        self
    }

    /// Adds an arbitrary JSON value field.
    pub fn val(mut self, name: &str, v: Value) -> Self {
        self.fields.insert(name.to_string(), v);
        self
    }

    /// Adds a wall-clock float (seconds, typically) to the `wall`
    /// sub-object. Wall fields are stripped by [`det_projection`].
    pub fn wall_f(mut self, name: &str, v: f64) -> Self {
        self.wall.insert(name.to_string(), Value::Number(v));
        self
    }

    /// Adds an arbitrary JSON value to the `wall` sub-object.
    pub fn wall_val(mut self, name: &str, v: Value) -> Self {
        self.wall.insert(name.to_string(), v);
        self
    }

    /// Lowers the event to its JSON object form.
    pub fn into_value(self) -> Value {
        let mut obj = self.fields;
        obj.insert("ev".to_string(), Value::String(self.ev));
        obj.insert("det".to_string(), Value::Bool(self.det));
        if let Some(k) = self.key {
            obj.insert("key".to_string(), Value::String(k));
        }
        if !self.wall.is_empty() {
            obj.insert("wall".to_string(), Value::Object(self.wall));
        }
        Value::Object(obj)
    }
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle. Cloning is cheap; clones
/// share the same underlying atomic, so counters aggregate across cloned
/// owners (e.g. one `FleetSim` cloned into many environments).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle storing an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistInner {
    /// Upper bucket edges, strictly increasing. Bucket `i` counts values
    /// `v <= bounds[i]` (and above the previous edge); one extra overflow
    /// bucket counts everything beyond the last edge.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum of observed values as f64 bits, updated by CAS.
    sum_bits: AtomicU64,
}

impl HistInner {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        histogram_quantile(&self.bounds, &counts, q)
    }

    fn snapshot_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert(
            "bounds".to_string(),
            Value::Array(self.bounds.iter().map(|&b| Value::Number(b)).collect()),
        );
        obj.insert(
            "counts".to_string(),
            Value::Array(
                self.counts
                    .iter()
                    .map(|c| Value::Number(c.load(Ordering::Relaxed) as f64))
                    .collect(),
            ),
        );
        obj.insert("count".to_string(), Value::Number(self.count() as f64));
        obj.insert(
            "sum".to_string(),
            Value::Number(f64::from_bits(self.sum_bits.load(Ordering::Relaxed))),
        );
        Value::Object(obj)
    }
}

/// A fixed-bucket histogram handle for non-negative values. Cloning is
/// cheap and clones share the same buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistInner>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Total observation count (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count())
    }

    /// Interpolated quantile estimate (see [`histogram_quantile`]); NaN
    /// when disabled or empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.as_ref().map_or(f64::NAN, |h| h.quantile(q))
    }
}

/// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) of a fixed-bucket histogram
/// from bucket `counts` over upper-edge `bounds` (plus one trailing
/// overflow count), by linear interpolation within the bucket that
/// contains the target rank. The first bucket's lower edge is taken as
/// `0.0` — values are assumed non-negative. Returns NaN for an empty
/// histogram.
///
/// Two edge conventions are pinned by hand-computed tests:
///
/// * **Exact bucket bounds.** The target rank `q * total` is snapped to
///   the nearest integer when it is within float error of one, so a rank
///   that lands exactly on a cumulative bucket boundary reports that
///   bucket's upper edge instead of skipping into the next non-empty
///   bucket. (Without the snap, `0.1 * 30 = 3.0000000000000004` walks
///   past a bucket whose cumulative count is exactly 3.)
/// * **Overflow bucket.** Ranks landing in the `+inf` bucket report the
///   last finite edge — there is no upper edge to interpolate toward, so
///   the estimate saturates (a deliberate under-estimate; widen the
///   bounds if overflow mass matters).
pub fn histogram_quantile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.len() != bounds.len() + 1 {
        return f64::NAN;
    }
    let raw = q.clamp(0.0, 1.0) * total as f64;
    // Snap ranks that are within float error of an integer: q*total is
    // computed in f64 and can land an ulp past an exact bucket boundary.
    let target = if (raw - raw.round()).abs() < 1e-9 * (total as f64).max(1.0) {
        raw.round()
    } else {
        raw
    };
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let next = cum + c;
        if (next as f64) >= target && c > 0 {
            if i == bounds.len() {
                // Overflow bucket: no finite upper edge to interpolate to.
                return bounds[bounds.len() - 1];
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let frac = (target - cum as f64) / c as f64;
            return lo + frac.clamp(0.0, 1.0) * (hi - lo);
        }
        cum = next;
    }
    bounds[bounds.len() - 1]
}

/// Exact quantile of an ascending-sorted slice, by linear interpolation
/// between order statistics (the "linear" / type-7 method). NaN when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket edges, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one more entry than `bounds` (the trailing
    /// overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Point-in-time copy of a [`Recorder`]'s metric registries, in
/// deterministic (sorted-by-name) order. This is what
/// [`expose::render_prometheus`] serializes for scrapes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, buckets)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[derive(Debug, Default)]
struct PhaseStat {
    count: u64,
    total: Duration,
    min: Duration,
    max: Duration,
}

/// An RAII timing guard created by [`Recorder::span`]. While alive, child
/// spans on the same thread nest under it (`update` → `update/gae`); on
/// drop, the elapsed wall time is folded into the recorder's per-phase
/// statistics. Spans never touch training state or RNG.
#[must_use = "a span measures the scope it is bound to; bind it to a local"]
#[derive(Debug)]
pub struct Span {
    active: Option<(Arc<Inner>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, start)) = self.active.take() {
            let elapsed = start.elapsed();
            let path = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let path = s.join("/");
                s.pop();
                path
            });
            let mut phases = inner.phases.lock();
            let stat = phases.entry(path).or_default();
            if stat.count == 0 || elapsed < stat.min {
                stat.min = elapsed;
            }
            if elapsed > stat.max {
                stat.max = elapsed;
            }
            stat.count += 1;
            stat.total += elapsed;
        }
    }
}

/// Opens a timing span on a recorder: `let _s = span!(rec, "rollout");`.
/// Sugar for [`Recorder::span`].
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $rec.span($name)
    };
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct SinkState {
    path: Option<PathBuf>,
    /// Events in arrival order (pre-existing file lines first on resume).
    events: Vec<Value>,
    /// `(ev, key)` → position in `events` for deterministic keyed events,
    /// so a resumed run's replayed events overwrite instead of duplicate.
    index: BTreeMap<(String, String), usize>,
}

impl SinkState {
    fn insert(&mut self, v: Value) {
        let det = v.get("det").and_then(Value::as_bool).unwrap_or(false);
        let ev = v.get("ev").and_then(Value::as_str).map(str::to_string);
        let key = v.get("key").and_then(Value::as_str).map(str::to_string);
        if det {
            if let (Some(ev), Some(key)) = (ev, key) {
                match self.index.entry((ev, key)) {
                    std::collections::btree_map::Entry::Occupied(e) => {
                        self.events[*e.get()] = v;
                        return;
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(self.events.len());
                    }
                }
            }
        }
        self.events.push(v);
    }
}

#[derive(Debug)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistInner>>>,
    phases: Mutex<BTreeMap<String, PhaseStat>>,
    sink: Mutex<SinkState>,
    mirror_stderr: AtomicBool,
}

impl Inner {
    fn new(path: Option<PathBuf>) -> Self {
        Inner {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            phases: Mutex::new(BTreeMap::new()),
            sink: Mutex::new(SinkState {
                path,
                ..Default::default()
            }),
            mirror_stderr: AtomicBool::new(true),
        }
    }
}

/// The observability hub: metric registries, span timings, and the JSONL
/// event sink. Cloning is cheap (an `Arc`); clones share all state.
///
/// `Recorder::default()` is [disabled](Recorder::disabled): every
/// operation is a no-op behind one branch, so instrumented code can hold a
/// recorder unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl PartialEq for Recorder {
    /// Two disabled recorders are equal; enabled recorders are equal only
    /// if they share state. (Needed so option structs holding a recorder
    /// can keep deriving `PartialEq`.)
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Recorder {
    /// The no-op recorder: every operation is a cheap no-op.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// An enabled recorder with no backing file — events accumulate in
    /// memory (see [`Recorder::events_text`]). Used by tests.
    pub fn in_memory() -> Self {
        Recorder(Some(Arc::new(Inner::new(None))))
    }

    /// An enabled recorder backed by a JSONL file. If the file already
    /// exists its events are loaded first, so a resumed run's replayed
    /// deterministic events overwrite their earlier copies instead of
    /// duplicating (the resume-union property the determinism tests rely
    /// on). Parent directories are created as needed.
    pub fn to_file(path: impl Into<PathBuf>) -> ObsResult<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| ObsError::Io(format!("{}: {e}", dir.display())))?;
            }
        }
        let rec = Recorder(Some(Arc::new(Inner::new(Some(path.clone())))));
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| ObsError::Io(format!("{}: {e}", path.display())))?;
            let inner = rec.0.as_ref().expect("just constructed enabled");
            let mut sink = inner.sink.lock();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v = serde_json::parse_value(line)
                    .map_err(|e| ObsError::Parse(format!("{}:{}: {e:?}", path.display(), i + 1)))?;
                sink.insert(v);
            }
        }
        Ok(rec)
    }

    /// Whether this recorder records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Controls whether [`Recorder::note`] also prints to stderr
    /// (default: on, preserving the "diagnostics go to stderr" contract).
    pub fn set_stderr_mirror(&self, on: bool) {
        if let Some(inner) = &self.0 {
            inner.mirror_stderr.store(on, Ordering::Relaxed);
        }
    }

    /// Registers (or fetches) a counter. The returned handle is the hot
    /// path: one atomic add per increment, no lock.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .gauges
                    .lock()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
            )
        }))
    }

    /// Registers (or fetches) a histogram with the given upper bucket
    /// edges (strictly increasing; an overflow bucket is added
    /// automatically). Re-registering an existing name keeps the original
    /// bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(self.0.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistInner::new(bounds))),
            )
        }))
    }

    /// Opens a timing span; the returned guard records elapsed wall time
    /// into the per-phase table when dropped. Spans opened while another
    /// span guard is alive on the same thread nest into a `parent/child`
    /// phase path.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.0 {
            Some(inner) => {
                SPAN_STACK.with(|s| s.borrow_mut().push(name));
                Span {
                    active: Some((Arc::clone(inner), Instant::now())),
                }
            }
            None => Span { active: None },
        }
    }

    /// Appends an event to the sink (no-op when disabled). Events are
    /// buffered in memory until [`Recorder::flush`].
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.0 {
            inner.sink.lock().insert(event.into_value());
        }
    }

    /// Routes a human-readable diagnostic: always printed to stderr when
    /// the recorder is disabled or its stderr mirror is on (the default),
    /// and additionally recorded as a physical `note` event when enabled.
    /// This is the single funnel for what used to be ad-hoc `eprintln!`s.
    pub fn note(&self, msg: &str) {
        match &self.0 {
            None => eprintln!("{msg}"),
            Some(inner) => {
                if inner.mirror_stderr.load(Ordering::Relaxed) {
                    eprintln!("{msg}");
                }
                inner
                    .sink
                    .lock()
                    .insert(Event::phys("note").s("msg", msg).into_value());
            }
        }
    }

    /// Snapshots every registered counter, gauge, and histogram in
    /// deterministic name order. Empty when disabled. The three
    /// registries are locked one at a time, so the snapshot is
    /// per-registry consistent (good enough for exposition — Prometheus
    /// scrapes make the same non-atomicity assumption).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .iter()
            .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .iter()
            .map(|(k, g)| (k.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                        sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Current value of a counter by name (0 if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.0.as_ref().map_or(0, |inner| {
            inner
                .counters
                .lock()
                .get(name)
                .map_or(0, |c| c.load(Ordering::Relaxed))
        })
    }

    /// Serializes the buffered events to JSONL text (empty when
    /// disabled). This is exactly what [`Recorder::flush`] writes.
    pub fn events_text(&self) -> String {
        match &self.0 {
            None => String::new(),
            Some(inner) => {
                let sink = inner.sink.lock();
                let mut out = String::new();
                for v in &sink.events {
                    out.push_str(
                        &serde_json::to_string(v).expect("Value serialization is infallible"),
                    );
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Builds the physical `phase_summary` event from span timings, or
    /// `None` if no spans were recorded.
    fn phase_summary(&self) -> Option<Event> {
        let inner = self.0.as_ref()?;
        let phases = inner.phases.lock();
        if phases.is_empty() {
            return None;
        }
        let mut obj = BTreeMap::new();
        for (path, stat) in phases.iter() {
            let mut p = BTreeMap::new();
            p.insert("count".to_string(), Value::Number(stat.count as f64));
            p.insert(
                "total_s".to_string(),
                Value::Number(stat.total.as_secs_f64()),
            );
            p.insert(
                "mean_s".to_string(),
                Value::Number(stat.total.as_secs_f64() / stat.count.max(1) as f64),
            );
            p.insert("min_s".to_string(), Value::Number(stat.min.as_secs_f64()));
            p.insert("max_s".to_string(), Value::Number(stat.max.as_secs_f64()));
            obj.insert(path.clone(), Value::Object(p));
        }
        Some(Event::phys("phase_summary").val("phases", Value::Object(obj)))
    }

    /// Builds the physical `metrics_summary` event from the registries,
    /// or `None` if nothing was registered.
    fn metrics_summary(&self) -> Option<Event> {
        let inner = self.0.as_ref()?;
        let mut ev = Event::phys("metrics_summary");
        let mut any = false;
        {
            let counters = inner.counters.lock();
            if !counters.is_empty() {
                let obj = counters
                    .iter()
                    .map(|(k, c)| (k.clone(), Value::Number(c.load(Ordering::Relaxed) as f64)))
                    .collect();
                ev = ev.val("counters", Value::Object(obj));
                any = true;
            }
        }
        {
            let gauges = inner.gauges.lock();
            if !gauges.is_empty() {
                let obj = gauges
                    .iter()
                    .map(|(k, g)| {
                        (
                            k.clone(),
                            Value::Number(f64::from_bits(g.load(Ordering::Relaxed))),
                        )
                    })
                    .collect();
                ev = ev.val("gauges", Value::Object(obj));
                any = true;
            }
        }
        {
            let hists = inner.histograms.lock();
            if !hists.is_empty() {
                let obj = hists
                    .iter()
                    .map(|(k, h)| (k.clone(), h.snapshot_value()))
                    .collect();
                ev = ev.val("histograms", Value::Object(obj));
                any = true;
            }
        }
        any.then_some(ev)
    }

    /// Writes the buffered events to the backing file via
    /// [`atomic_write`]. No-op for disabled or in-memory recorders.
    pub fn flush(&self) -> ObsResult<()> {
        let Some(inner) = &self.0 else { return Ok(()) };
        let text = self.events_text();
        let sink = inner.sink.lock();
        match &sink.path {
            Some(path) => atomic_write(path, text.as_bytes()),
            None => Ok(()),
        }
    }

    /// Finalizes the log: appends the physical `phase_summary` and
    /// `metrics_summary` events, then flushes. Safe to call more than
    /// once (each call appends fresh summaries).
    pub fn finish(&self) -> ObsResult<()> {
        if let Some(ev) = self.phase_summary() {
            self.emit(ev);
        }
        if let Some(ev) = self.metrics_summary() {
            self.emit(ev);
        }
        self.flush()
    }
}

// ---------------------------------------------------------------------------
// Log analysis: schema validation & deterministic projection
// ---------------------------------------------------------------------------

/// Current event-schema version. Version 1 is the PR 4 det/phys schema;
/// version 2 adds the physical `trace` event kind (PR 9). Each version's
/// [`known_events`] list is a superset of the previous one, so validating
/// an old log against the latest version always passes.
pub const SCHEMA_VERSION: u32 = 2;

/// Event kinds introduced by schema version 1.
const KNOWN_EVENTS_V1: &[&str] = &[
    "checkpoint_load",
    "checkpoint_save",
    "episode",
    "fl_round",
    "intervention",
    "metrics_summary",
    "note",
    "phase_summary",
    "pool_round",
    "ppo_update",
    "run_meta",
    "serve_drain",
    "serve_reload",
    "serve_reload_failed",
    "serve_stalled_write",
    "serve_start",
    "serve_stop",
    "warning",
];

/// Event kinds introduced by schema version 2 (on top of version 1).
const KNOWN_EVENTS_V2: &[&str] = &["trace"];

/// The event kinds allowed at schema `version` (clamped to
/// `1..=`[`SCHEMA_VERSION`]). Later versions only ever *add* kinds, so a
/// log valid at version `n` is valid at every version `≥ n` — the
/// property that lets `obs_report` validate old logs against the latest
/// allowlist without breaking them.
pub fn known_events(version: u32) -> Vec<&'static str> {
    let version = version.clamp(1, SCHEMA_VERSION);
    let mut kinds: Vec<&'static str> = KNOWN_EVENTS_V1.to_vec();
    if version >= 2 {
        kinds.extend_from_slice(KNOWN_EVENTS_V2);
    }
    kinds.sort_unstable();
    kinds
}

/// Validates a line like [`validate_line`] and additionally checks the
/// event kind against the [`known_events`] allowlist for `version`.
/// Unknown kinds are schema errors: a typo'd emitter should fail report
/// validation rather than silently vanish from every analysis.
pub fn validate_line_versioned(line: &str, version: u32) -> ObsResult<Value> {
    let v = validate_line(line)?;
    let ev = v.get("ev").and_then(Value::as_str).unwrap_or_default();
    if !known_events(version).contains(&ev) {
        return Err(ObsError::Schema(format!(
            "unknown event kind '{ev}' (schema v{version} allowlist)"
        )));
    }
    Ok(v)
}

/// Validates one JSONL line against the event schema: a JSON object with
/// a string `ev`, a boolean `det`, a string `key` when `det` is true, and
/// an object-valued `wall` when present.
pub fn validate_line(line: &str) -> ObsResult<Value> {
    let v = serde_json::parse_value(line).map_err(|e| ObsError::Parse(format!("{e:?}")))?;
    let obj = v
        .as_object()
        .ok_or_else(|| ObsError::Schema("event is not a JSON object".to_string()))?;
    let ev = obj
        .get("ev")
        .and_then(Value::as_str)
        .ok_or_else(|| ObsError::Schema("missing string field 'ev'".to_string()))?;
    let det = obj
        .get("det")
        .and_then(Value::as_bool)
        .ok_or_else(|| ObsError::Schema(format!("event '{ev}': missing bool field 'det'")))?;
    if det && obj.get("key").and_then(Value::as_str).is_none() {
        return Err(ObsError::Schema(format!(
            "deterministic event '{ev}' has no string 'key'"
        )));
    }
    if let Some(w) = obj.get("wall") {
        if w.as_object().is_none() {
            return Err(ObsError::Schema(format!(
                "event '{ev}': 'wall' is not an object"
            )));
        }
    }
    Ok(v)
}

/// Extracts the deterministic projection of a JSONL log: keeps `det:
/// true` events, strips their `wall` sub-objects, deduplicates by `(ev,
/// key)` with the *last* occurrence winning (so resumed runs overwrite
/// replayed events), and returns the lines sorted by `(ev, key)`. Two
/// logs of the same training run — at any worker count, killed and
/// resumed or not — project to identical line sequences.
pub fn det_projection(text: &str) -> ObsResult<Vec<String>> {
    let mut keyed: BTreeMap<(String, String), String> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = validate_line(line).map_err(|e| match e {
            ObsError::Parse(m) => ObsError::Parse(format!("line {}: {m}", i + 1)),
            ObsError::Schema(m) => ObsError::Schema(format!("line {}: {m}", i + 1)),
            other => other,
        })?;
        let Some(obj) = v.as_object() else { continue };
        if obj.get("det").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let ev = obj.get("ev").and_then(Value::as_str).unwrap_or_default();
        let key = obj.get("key").and_then(Value::as_str).unwrap_or_default();
        let mut clean = obj.clone();
        clean.remove("wall");
        keyed.insert(
            (ev.to_string(), key.to_string()),
            serde_json::to_string(&Value::Object(clean))
                .expect("Value serialization is infallible"),
        );
    }
    Ok(keyed.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("x");
        c.inc();
        c.add(10);
        assert_eq!(c.value(), 0);
        rec.gauge("g").set(3.0);
        rec.histogram("h", &[1.0, 2.0]).observe(1.5);
        {
            let _s = rec.span("phase");
        }
        rec.emit(Event::det("e", "k").f("x", 1.0));
        assert_eq!(rec.events_text(), "");
        rec.finish().unwrap();
    }

    #[test]
    fn counters_and_gauges_register_and_share() {
        let rec = Recorder::in_memory();
        let a = rec.counter("hits");
        let b = rec.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        assert_eq!(rec.counter_value("hits"), 3);
        let g = rec.gauge("lr");
        g.set(0.125);
        assert_eq!(g.value(), 0.125);
    }

    #[test]
    fn histogram_bucket_boundaries_hand_computed() {
        // Bounds [1, 2, 4]: buckets are (-inf,1], (1,2], (2,4], (4,inf).
        let rec = Recorder::in_memory();
        let h = rec.histogram("d", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
            h.observe(v);
        }
        let inner = h.0.as_ref().unwrap();
        let counts: Vec<u64> = inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // 0.5 and 1.0 → bucket 0 (v <= 1); 1.5 and 2.0 → bucket 1;
        // 3.0 and 4.0 → bucket 2; 9.0 → overflow.
        assert_eq!(counts, vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        let sum = f64::from_bits(inner.sum_bits.load(Ordering::Relaxed));
        assert!((sum - 21.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_hand_computed() {
        // 10 observations in bucket (1,2], nothing else: every quantile
        // interpolates linearly across that bucket.
        // target = q*10; cum=0, c=10 → frac = q → 1 + q*(2-1).
        let bounds = [1.0, 2.0, 4.0];
        let counts = [0u64, 10, 0, 0];
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 1.5).abs() < 1e-12);
        assert!((histogram_quantile(&bounds, &counts, 0.9) - 1.9).abs() < 1e-12);
        // Split 5/5 across buckets 0 and 2: median lands exactly at the
        // top of bucket 0 (cum 5 >= target 5 → frac 1.0 → edge 1.0).
        let counts = [5u64, 0, 5, 0];
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 1.0).abs() < 1e-12);
        // p75 → target 7.5 inside bucket 2: lo=2, frac=(7.5-5)/5=0.5 →
        // 2 + 0.5*(4-2) = 3.
        assert!((histogram_quantile(&bounds, &counts, 0.75) - 3.0).abs() < 1e-12);
        // All mass in overflow → reports the last finite edge.
        let counts = [0u64, 0, 0, 3];
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 4.0).abs() < 1e-12);
        // Empty histogram → NaN.
        assert!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5).is_nan());
    }

    #[test]
    fn histogram_quantile_exact_boundary_hand_computed() {
        // Regression: q*total computed in f64 can land an ulp above an
        // exact cumulative boundary. 30 observations, 3 of them in bucket
        // (0,1]: p10's target rank is exactly 3, but 0.1*30 =
        // 3.0000000000000004 — without snapping, the walk skips to the
        // next non-empty bucket and reports ~2.0 instead of 1.0.
        let bounds = [1.0, 2.0, 4.0];
        let counts = [3u64, 0, 27, 0];
        assert!((histogram_quantile(&bounds, &counts, 0.1) - 1.0).abs() < 1e-12);
        // Same shape where the boundary rank falls on a *populated*
        // bucket's top: 10 in bucket 0, 10 in bucket 1; p50 target is
        // exactly 10 → frac 1.0 → upper edge of bucket 0.
        let counts = [10u64, 10, 0, 0];
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 1.0).abs() < 1e-12);
        // 0.3 * 10 = 2.9999999999999996 must snap *up* to rank 3, not
        // report slightly below the interpolated point for rank 3.
        let counts = [10u64, 0, 0, 0];
        let q03 = histogram_quantile(&bounds, &counts, 0.3);
        assert!((q03 - 0.3).abs() < 1e-12, "got {q03}");
    }

    #[test]
    fn histogram_quantile_overflow_bucket_hand_computed() {
        let bounds = [1.0, 2.0, 4.0];
        // Half the mass beyond the last finite edge: any quantile landing
        // in the overflow bucket saturates at that edge — including q=1.0.
        let counts = [0u64, 5, 0, 5];
        assert!((histogram_quantile(&bounds, &counts, 0.9) - 4.0).abs() < 1e-12);
        assert!((histogram_quantile(&bounds, &counts, 1.0) - 4.0).abs() < 1e-12);
        // q=0.5: rank 5 is exactly the top of bucket 1 → its upper edge.
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 2.0).abs() < 1e-12);
        // Degenerate: single finite bucket plus overflow mass only.
        assert!((histogram_quantile(&[3.0], &[0, 7], 0.99) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_events_versions_nest() {
        let v1 = known_events(1);
        let v2 = known_events(2);
        assert!(v1.iter().all(|k| v2.contains(k)), "v2 must contain v1");
        assert!(!v1.contains(&"trace"));
        assert!(v2.contains(&"trace"));
        // Out-of-range versions clamp instead of panicking.
        assert_eq!(known_events(0), v1);
        assert_eq!(known_events(99), known_events(SCHEMA_VERSION));
    }

    #[test]
    fn validate_line_versioned_checks_allowlist() {
        let ok = "{\"ev\":\"trace\",\"det\":false}";
        assert!(validate_line_versioned(ok, 2).is_ok());
        assert!(validate_line_versioned(ok, 1).is_err(), "trace is v2-only");
        let unknown = "{\"ev\":\"no_such_kind\",\"det\":false}";
        assert!(validate_line(unknown).is_ok(), "shape check alone passes");
        assert!(validate_line_versioned(unknown, SCHEMA_VERSION).is_err());
    }

    #[test]
    fn metrics_snapshot_copies_registries() {
        let rec = Recorder::in_memory();
        rec.counter("a.hits").add(3);
        rec.gauge("b.depth").set(2.5);
        let h = rec.histogram("c.lat", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counters, vec![("a.hits".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("b.depth".to_string(), 2.5)]);
        assert_eq!(snap.histograms.len(), 1);
        let (name, hs) = &snap.histograms[0];
        assert_eq!(name, "c.lat");
        assert_eq!(hs.bounds, vec![1.0, 2.0]);
        assert_eq!(hs.counts, vec![1, 0, 1]);
        assert_eq!(hs.count(), 2);
        assert!((hs.sum - 5.5).abs() < 1e-12);
        assert_eq!(
            Recorder::disabled().metrics_snapshot(),
            MetricsSnapshot::default()
        );
    }

    #[test]
    fn quantile_sorted_hand_computed() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        // pos = 0.5 * 3 = 1.5 → 2 + 0.5*(3-2) = 2.5.
        assert!((quantile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        // pos = 0.25 * 3 = 0.75 → 1 + 0.75*1 = 1.75.
        assert!((quantile_sorted(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn spans_nest_into_paths() {
        let rec = Recorder::in_memory();
        {
            let _outer = rec.span("update");
            {
                let _inner = rec.span("gae");
            }
            {
                let _inner = rec.span("epochs");
            }
        }
        let inner = rec.0.as_ref().unwrap();
        let phases = inner.phases.lock();
        let keys: Vec<String> = phases.keys().cloned().collect();
        assert_eq!(keys, vec!["update", "update/epochs", "update/gae"]);
        assert_eq!(phases["update"].count, 1);
        assert_eq!(phases["update/gae"].count, 1);
    }

    #[test]
    fn events_dedupe_by_key_last_wins() {
        let rec = Recorder::in_memory();
        rec.emit(Event::det("ppo_update", "u00000001").f("loss", 1.0));
        rec.emit(Event::phys("note").s("msg", "hello"));
        rec.emit(Event::det("ppo_update", "u00000001").f("loss", 2.0));
        let text = rec.events_text();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("\"loss\":2"), "{text}");
        assert!(!text.contains("\"loss\":1,"), "{text}");
    }

    #[test]
    fn det_projection_strips_wall_sorts_and_dedupes() {
        let rec = Recorder::in_memory();
        rec.emit(Event::det("b_ev", "k2").f("x", 2.0).wall_f("s", 0.9));
        rec.emit(Event::phys("pool_round").u("workers", 4).wall_f("s", 1.0));
        rec.emit(Event::det("a_ev", "k1").f("x", 1.0).wall_f("s", 0.1));
        rec.emit(Event::det("b_ev", "k2").f("x", 3.0).wall_f("s", 0.2));
        let lines = det_projection(&rec.events_text()).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("a_ev"), "{lines:?}");
        assert!(lines[1].contains("\"x\":3"), "{lines:?}");
        assert!(lines.iter().all(|l| !l.contains("wall")), "{lines:?}");
    }

    #[test]
    fn validate_line_rejects_schema_violations() {
        assert!(validate_line("{\"ev\":\"x\",\"det\":false}").is_ok());
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[1,2]").is_err());
        assert!(validate_line("{\"det\":true}").is_err(), "missing ev");
        assert!(
            validate_line("{\"ev\":\"x\",\"det\":true}").is_err(),
            "det without key"
        );
        assert!(
            validate_line("{\"ev\":\"x\",\"det\":false,\"wall\":3}").is_err(),
            "non-object wall"
        );
    }

    #[test]
    fn file_sink_roundtrips_and_resumes() {
        let dir = std::env::temp_dir().join(format!("fl-obs-test-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let rec = Recorder::to_file(&path).unwrap();
            rec.emit(Event::det("episode", "e000001").f("cost", 5.0));
            rec.emit(Event::phys("note").s("msg", "first run"));
            rec.flush().unwrap();
        }
        {
            // Reopening loads the prior events; re-emitting the same key
            // overwrites instead of duplicating.
            let rec = Recorder::to_file(&path).unwrap();
            rec.emit(Event::det("episode", "e000001").f("cost", 7.0));
            rec.emit(Event::det("episode", "e000002").f("cost", 6.0));
            rec.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        let proj = det_projection(&text).unwrap();
        assert_eq!(proj.len(), 2);
        assert!(proj[0].contains("\"cost\":7"), "{proj:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_appends_summaries() {
        let rec = Recorder::in_memory();
        rec.counter("sim.completed").add(5);
        {
            let _s = rec.span("rollout");
        }
        rec.finish().unwrap();
        let text = rec.events_text();
        assert!(text.contains("phase_summary"), "{text}");
        assert!(text.contains("metrics_summary"), "{text}");
        assert!(text.contains("sim.completed"), "{text}");
        // Summaries are physical: the det projection ignores them.
        assert!(det_projection(&text).unwrap().is_empty());
    }

    #[test]
    fn recorder_equality_and_default() {
        assert_eq!(Recorder::default(), Recorder::disabled());
        let a = Recorder::in_memory();
        assert_eq!(a, a.clone());
        assert_ne!(a, Recorder::in_memory());
        assert_ne!(a, Recorder::disabled());
    }

    #[test]
    fn atomic_write_creates_and_replaces() {
        let dir = std::env::temp_dir().join(format!("fl-obs-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
