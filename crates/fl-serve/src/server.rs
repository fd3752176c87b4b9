//! The decision server: accept loop, connection handlers, hot-reload, and
//! the inference thread behind the micro-batch queue.
//!
//! ## Hot-reload contract
//!
//! The serving snapshot lives in one double-buffered slot: an
//! `RwLock<Arc<Loaded>>`. The inference thread clones the `Arc` **once per
//! micro-batch**, so every request in a batch — and therefore every
//! response — is attributable to exactly one snapshot sequence number,
//! even while a reload swaps the slot mid-flight. A reload builds the new
//! `Loaded` entirely off-lock (disk read, CRC check, digest check) and
//! holds the write lock only for the pointer swap; in-flight requests are
//! never dropped, blocked behind disk I/O, or served torn state.
//!
//! Reload adopts whatever `CheckpointStore::load_latest` returns, which
//! inherits the store's crash-safety: a corrupt newest slot falls back to
//! the survivor, all-corrupt keeps the currently loaded snapshot serving
//! (with a `reload_failed` error and counter). A snapshot whose config
//! digest differs from the serving one is refused — clients pinned to the
//! digest they were built against must never silently get a different
//! observation contract.
//!
//! ## Overload & deadline contract
//!
//! The admission queue is bounded (`max_queue`): when it is full, a
//! `decide` is answered immediately with `overloaded` plus a
//! `retry_after_ms` hint instead of joining an ever-growing line. A
//! request that carries a `deadline_ms` budget (or inherits the server's
//! `default_deadline`) and expires while queued is shed *before*
//! inference with `deadline_exceeded` — the server never burns a policy
//! forward on an answer nobody is waiting for. Response writes carry a
//! `write_timeout`: a peer that stops reading cannot wedge its connection
//! thread (the write errors, the connection is closed and counted as
//! `stalled_write`). Shutdown first flips the server into **draining** —
//! new decides get `shutting_down`, queued work is finished and answered —
//! then joins every thread.

use crate::batch::{BatchError, BatchQueue, BatchTiming, Drained, Loaded, Pending};
use crate::protocol::{
    codes, decode_json, encode_json, read_frame, write_frame, ErrorCounters, FrameError, FrameRead,
    LatencySummary, ServeStats, StageSummary, TraceContext, WireRequest, WireResponse,
};
use crate::ServeError;
use fl_ctrl::ControllerSnapshot;
use fl_obs::trace::{StageHistograms, TraceRecord};
use fl_obs::{Counter, Event, Gauge, Histogram, Recorder};
use fl_rl::snapshot::CheckpointStore;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper edges (µs) for the request-latency histogram: roughly
/// logarithmic from 1 µs to 1 s.
const LATENCY_BOUNDS_US: [f64; 19] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6,
];

/// Upper edges for the micro-batch-size histogram.
const BATCH_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Socket read-poll interval of connection and scrape threads: how quickly
/// an idle connection thread notices a server shutdown.
const READ_POLL: Duration = Duration::from_millis(250);

/// Tuning knobs for [`DecisionServer::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Largest micro-batch a single policy forward serves.
    pub max_batch: usize,
    /// How long the inference thread waits after the first queued request
    /// for more to arrive (the batching window). Zero disables lingering.
    pub linger: Duration,
    /// Per-connection response-write timeout: a peer that stops reading
    /// is disconnected once a write stalls this long, instead of pinning
    /// its connection thread forever. `None` disables the guard.
    pub write_timeout: Option<Duration>,
    /// Admission-queue bound: `decide` requests beyond this many waiting
    /// entries are shed with `overloaded` + a `retry_after_ms` hint.
    pub max_queue: usize,
    /// Server-side default deadline budget applied to `decide` requests
    /// that do not carry their own `deadline_ms`. `None` = wait forever.
    pub default_deadline: Option<Duration>,
    /// Artificial per-batch inference delay, for overload benchmarking
    /// and deadline tests: emulates a heavier model so offered load can
    /// exceed capacity deterministically. Zero (the default) in any real
    /// deployment.
    pub inference_slowdown: Duration,
    /// When set, a background thread checks the store at this interval and
    /// adopts newer snapshots automatically (in addition to explicit
    /// `reload` requests).
    pub reload_poll: Option<Duration>,
    /// When set, a plain-text metrics listener binds this address (use
    /// port 0 for ephemeral) and answers every connection with one
    /// Prometheus-style exposition snapshot ([`fl_obs::expose`]) — the
    /// same text a `metrics` FSV1 request returns, reachable by any
    /// HTTP/1.0 scraper or raw TCP client.
    pub metrics_addr: Option<String>,
    /// Telemetry sink. A disabled recorder is upgraded to in-memory so
    /// `stats` responses always carry real numbers.
    pub recorder: Recorder,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_batch: 32,
            linger: Duration::from_micros(500),
            write_timeout: Some(Duration::from_secs(5)),
            max_queue: 256,
            default_deadline: None,
            inference_slowdown: Duration::ZERO,
            reload_poll: None,
            metrics_addr: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// All serving metrics, recorded through fl-obs instruments.
pub(crate) struct Metrics {
    latency_us: Histogram,
    batch_size: Histogram,
    pub(crate) decisions: Counter,
    pub(crate) batches: Counter,
    reloads: Counter,
    reload_errors: Counter,
    /// Requests shed without inference: `overloaded` + `deadline_exceeded`.
    shed_total: Counter,
    /// Sheds at admission (`overloaded` + `shutting_down`).
    shed_admission: Counter,
    /// Sheds in queue (`deadline_exceeded`).
    shed_queue: Counter,
    /// Per-stage latency decomposition for served decides.
    pub(crate) stages: StageHistograms,
    /// Parameter count of the serving policy (set once at startup; the
    /// digest pin guarantees reloads cannot change it).
    model_params: Gauge,
    /// Live admission-queue depth (mirrored by the batch queue).
    pub(crate) queue_depth: Gauge,
    err_bad_magic: Counter,
    err_oversized: Counter,
    err_empty_payload: Counter,
    err_bad_json: Counter,
    err_bad_request: Counter,
    err_dim_mismatch: Counter,
    err_digest_mismatch: Counter,
    err_reload_failed: Counter,
    err_overloaded: Counter,
    err_deadline: Counter,
    err_shutting_down: Counter,
    err_internal: Counter,
    err_truncated: Counter,
    err_stalled_write: Counter,
    pub(crate) max_batch_seen: AtomicU64,
    recorder: Recorder,
}

impl Metrics {
    fn new(recorder: Recorder) -> Self {
        Metrics {
            latency_us: recorder.histogram("serve.latency_us", &LATENCY_BOUNDS_US),
            batch_size: recorder.histogram("serve.batch_size", &BATCH_BOUNDS),
            decisions: recorder.counter("serve.decisions"),
            batches: recorder.counter("serve.batches"),
            reloads: recorder.counter("serve.reloads"),
            reload_errors: recorder.counter("serve.reload_errors"),
            shed_total: recorder.counter("serve.shed_total"),
            shed_admission: recorder.counter("serve.shed.admission"),
            shed_queue: recorder.counter("serve.shed.queue"),
            stages: StageHistograms::register(&recorder),
            model_params: recorder.gauge("serve.model_params"),
            queue_depth: recorder.gauge("serve.queue_depth"),
            err_bad_magic: recorder.counter("serve.err.bad_magic"),
            err_oversized: recorder.counter("serve.err.oversized"),
            err_empty_payload: recorder.counter("serve.err.empty_payload"),
            err_bad_json: recorder.counter("serve.err.bad_json"),
            err_bad_request: recorder.counter("serve.err.bad_request"),
            err_dim_mismatch: recorder.counter("serve.err.dim_mismatch"),
            err_digest_mismatch: recorder.counter("serve.err.digest_mismatch"),
            err_reload_failed: recorder.counter("serve.err.reload_failed"),
            err_overloaded: recorder.counter("serve.err.overloaded"),
            err_deadline: recorder.counter("serve.err.deadline_exceeded"),
            err_shutting_down: recorder.counter("serve.err.shutting_down"),
            err_internal: recorder.counter("serve.err.internal"),
            err_truncated: recorder.counter("serve.err.truncated"),
            err_stalled_write: recorder.counter("serve.err.stalled_write"),
            max_batch_seen: AtomicU64::new(0),
            recorder,
        }
    }

    /// The counter behind a wire error code.
    fn err_counter(&self, code: &str) -> &Counter {
        match code {
            codes::BAD_MAGIC => &self.err_bad_magic,
            codes::OVERSIZED => &self.err_oversized,
            codes::EMPTY_PAYLOAD => &self.err_empty_payload,
            codes::BAD_JSON => &self.err_bad_json,
            codes::BAD_REQUEST => &self.err_bad_request,
            codes::DIM_MISMATCH => &self.err_dim_mismatch,
            codes::DIGEST_MISMATCH => &self.err_digest_mismatch,
            codes::RELOAD_FAILED => &self.err_reload_failed,
            codes::OVERLOADED => &self.err_overloaded,
            codes::DEADLINE_EXCEEDED => &self.err_deadline,
            codes::SHUTTING_DOWN => &self.err_shutting_down,
            _ => &self.err_internal,
        }
    }
}

/// State shared by the accept loop, connection threads, the inference
/// thread, and the reload poller.
pub(crate) struct Shared {
    pub(crate) slot: RwLock<Arc<Loaded>>,
    store: CheckpointStore,
    pub(crate) queue: BatchQueue,
    pub(crate) metrics: Metrics,
    shutdown: AtomicBool,
    /// Drain flag: set strictly before `shutdown`. New `decide` work is
    /// refused with `shutting_down` while queued work finishes.
    draining: AtomicBool,
    /// Config digest pinned at startup; immutable for the server lifetime
    /// (reloads refusing digest drift is what makes it safe to cache).
    digest: u32,
    obs_dim: usize,
    action_dim: usize,
    max_batch: usize,
    max_queue: usize,
    default_deadline: Option<Duration>,
    inference_slowdown: Duration,
    linger: Duration,
    write_timeout: Option<Duration>,
}

/// Summarizes a latency histogram into the wire quantile triple.
fn latency_summary(h: &Histogram) -> LatencySummary {
    let count = h.count();
    let q = |p: f64| if count == 0 { 0.0 } else { h.quantile(p) };
    LatencySummary {
        count,
        p50_us: q(0.5),
        p99_us: q(0.99),
        p999_us: q(0.999),
    }
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let m = &self.metrics;
        ServeStats {
            seq: self.slot.read().seq,
            digest: self.digest,
            obs_dim: self.obs_dim,
            action_dim: self.action_dim,
            decisions: m.decisions.value(),
            batches: m.batches.value(),
            max_batch_observed: m.max_batch_seen.load(Ordering::Relaxed),
            reloads: m.reloads.value(),
            reload_errors: m.reload_errors.value(),
            shed_total: m.shed_total.value(),
            queue_depth: self.queue.depth() as u64,
            errors: ErrorCounters {
                bad_magic: m.err_bad_magic.value(),
                oversized: m.err_oversized.value(),
                empty_payload: m.err_empty_payload.value(),
                bad_json: m.err_bad_json.value(),
                bad_request: m.err_bad_request.value(),
                dim_mismatch: m.err_dim_mismatch.value(),
                digest_mismatch: m.err_digest_mismatch.value(),
                reload_failed: m.err_reload_failed.value(),
                overloaded: m.err_overloaded.value(),
                deadline_exceeded: m.err_deadline.value(),
                shutting_down: m.err_shutting_down.value(),
                internal: m.err_internal.value(),
                truncated: m.err_truncated.value(),
                stalled_write: m.err_stalled_write.value(),
            },
            latency_us: latency_summary(&m.latency_us),
            stages: Some(StageSummary {
                queue_wait_us: latency_summary(&m.stages.queue_wait_us),
                batch_linger_us: latency_summary(&m.stages.batch_linger_us),
                inference_us: latency_summary(&m.stages.inference_us),
                write_us: latency_summary(&m.stages.write_us),
                shed_admission: m.shed_admission.value(),
                shed_queue: m.shed_queue.value(),
            }),
        }
    }

    /// Backoff hint for an `overloaded` shed: the estimated time for the
    /// current backlog to drain — batches ahead of the caller times the
    /// per-batch cost (linger window + ~1 ms of forward/dispatch, plus any
    /// configured slowdown). A heuristic, clamped to [1 ms, 10 s]; the
    /// contract is only "soon but not immediately".
    fn retry_after_ms(&self, depth: usize) -> u64 {
        let batches_ahead = (depth / self.max_batch.max(1)) as u64 + 1;
        let per_batch_ms =
            self.linger.as_millis() as u64 + self.inference_slowdown.as_millis() as u64 + 1;
        (batches_ahead * per_batch_ms).clamp(1, 10_000)
    }

    /// Attempts to adopt the newest store snapshot. `Ok(false)` when the
    /// store's newest is already serving; `Err` leaves the current
    /// snapshot serving untouched.
    fn try_reload(&self) -> Result<(bool, u64), String> {
        let fail = |msg: String| {
            self.metrics.reload_errors.inc();
            self.metrics
                .recorder
                .emit(Event::phys("serve_reload_failed").s("error", &msg));
            Err(msg)
        };
        let (seq, snap) = match ControllerSnapshot::load_latest(&self.store) {
            Err(e) => return fail(format!("snapshot load failed: {e}")),
            Ok(None) => return fail("checkpoint store is empty".to_string()),
            Ok(Some(pair)) => pair,
        };
        let current = self.slot.read().seq;
        if seq == current {
            return Ok((false, current));
        }
        let digest = match snap.config_digest() {
            Ok(d) => d,
            Err(e) => return fail(format!("snapshot digest failed: {e}")),
        };
        if digest != self.digest {
            return fail(format!(
                "snapshot seq {seq} has config digest {digest:08x}, serving {:08x}",
                self.digest
            ));
        }
        // Swap is a pointer store: in-flight batches keep their Arc.
        *self.slot.write() = Arc::new(Loaded { snap, seq });
        self.metrics.reloads.inc();
        self.metrics.recorder.emit(
            Event::phys("serve_reload")
                .u("from_seq", current)
                .u("to_seq", seq),
        );
        Ok((true, seq))
    }
}

/// A running decision server. Dropping it shuts the server down.
pub struct DecisionServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    infer: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    scrape: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl DecisionServer {
    /// Loads the newest snapshot from the checkpoint store at `ckpt_dir`,
    /// binds `addr` (use port 0 for an ephemeral port), and starts
    /// serving. Fails when the store is empty or holds no valid snapshot.
    pub fn start(
        ckpt_dir: impl Into<PathBuf>,
        addr: &str,
        opts: ServeOptions,
    ) -> Result<Self, ServeError> {
        let store = CheckpointStore::new(ckpt_dir)?;
        let (seq, snap) = ControllerSnapshot::load_latest(&store)?.ok_or(ServeError::EmptyStore)?;
        let digest = snap.config_digest()?;
        let recorder = if opts.recorder.is_enabled() {
            opts.recorder.clone()
        } else {
            Recorder::in_memory()
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = Metrics::new(recorder);
        metrics.model_params.set(snap.param_count() as f64);
        let queue = BatchQueue::new(opts.max_queue.max(1), metrics.queue_depth.clone());
        let shared = Arc::new(Shared {
            obs_dim: snap.obs_dim(),
            action_dim: snap.action_dim(),
            slot: RwLock::new(Arc::new(Loaded { snap, seq })),
            store,
            queue,
            metrics,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            digest,
            max_batch: opts.max_batch.max(1),
            max_queue: opts.max_queue.max(1),
            default_deadline: opts.default_deadline,
            inference_slowdown: opts.inference_slowdown,
            linger: opts.linger,
            write_timeout: opts.write_timeout,
        });
        shared.metrics.recorder.emit(
            Event::phys("serve_start")
                .u("seq", seq)
                .u("digest", u64::from(digest))
                .u("obs_dim", shared.obs_dim as u64)
                .u("action_dim", shared.action_dim as u64)
                .u("max_queue", shared.max_queue as u64)
                .s("addr", &local.to_string()),
        );

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, shared, conns))
        };
        let infer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || inference_loop(shared))
        };
        let poller = opts.reload_poll.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reload_poll_loop(shared, interval))
        });
        let (scrape, metrics_addr) = match &opts.metrics_addr {
            Some(bind) => {
                let scrape_listener = TcpListener::bind(bind.as_str())?;
                let scrape_addr = scrape_listener.local_addr()?;
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || scrape_loop(scrape_listener, shared));
                (Some(handle), Some(scrape_addr))
            }
            None => (None, None),
        };
        Ok(DecisionServer {
            shared,
            addr: local,
            metrics_addr,
            accept: Some(accept),
            infer: Some(infer),
            poller,
            scrape,
            conns,
            stopped: false,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-scrape address, when
    /// [`ServeOptions::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Sequence number of the snapshot currently serving.
    pub fn serving_seq(&self) -> u64 {
        self.shared.slot.read().seq
    }

    /// Config digest pinned at startup.
    pub fn config_digest(&self) -> u32 {
        self.shared.digest
    }

    /// Observation dimension `decide` requests must supply.
    pub fn obs_dim(&self) -> usize {
        self.shared.obs_dim
    }

    /// Devices / frequencies per decision.
    pub fn action_dim(&self) -> usize {
        self.shared.action_dim
    }

    /// Current serving metrics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Flips the server into drain mode without stopping it: new `decide`
    /// requests are refused with `shutting_down` while already-admitted
    /// work keeps flowing through inference and is answered normally.
    /// Non-mutating requests (`ping`, `stats`) keep working — a load
    /// balancer can watch the queue empty out. Irreversible.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::AcqRel) {
            self.shared.metrics.recorder.emit(
                Event::phys("serve_drain").u("queue_depth", self.shared.queue.depth() as u64),
            );
        }
    }

    /// Whether [`Self::begin_drain`] (or shutdown) has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // Drain ordering: refuse new decides first, then let the
        // inference thread finish whatever was already admitted (collect
        // keeps draining a non-empty queue after shutdown is set), then
        // join every thread.
        self.shared.draining.store(true, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue.notify();
        // Unblock the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scrape.take() {
            let _ = h.join();
        }
        if let Some(h) = self.infer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.shared
            .metrics
            .recorder
            .emit(Event::phys("serve_stop").u("decisions", self.shared.metrics.decisions.value()));
        let _ = self.shared.metrics.recorder.flush();
    }

    /// Stops accepting, drains in-flight requests, and joins every thread.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.shared.stats()
    }
}

impl Drop for DecisionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_connection(shared, stream));
                conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn inference_loop(shared: Arc<Shared>) {
    loop {
        let Drained {
            live,
            expired,
            window_open,
            collected,
        } = shared
            .queue
            .collect(shared.max_batch, shared.linger, &shared.shutdown);
        // Shed expired entries first: they are answered (by their
        // connection threads) with `deadline_exceeded` and never reach
        // the policy.
        for pending in expired {
            let waited_ms = pending.enqueued.elapsed().as_millis() as u64;
            let _ = pending.tx.send(Err(BatchError::Deadline { waited_ms }));
        }
        if live.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) && shared.queue.depth() == 0 {
                // Queue fully drained after shutdown: exit.
                return;
            }
            continue;
        }
        // The slowdown is stamped inside the inference stage so injected
        // model-cost faults attribute to inference, not batching.
        let infer_start = Instant::now();
        if !shared.inference_slowdown.is_zero() {
            std::thread::sleep(shared.inference_slowdown);
        }
        // One Arc clone per batch: every response in it is attributable to
        // exactly this snapshot seq, even if a reload swaps the slot now.
        let loaded = Arc::clone(&shared.slot.read());
        let rows: Vec<Vec<f64>> = live.iter().map(|p| p.obs.clone()).collect();
        let n = live.len() as u64;
        match loaded.snap.decide_rows(&rows) {
            Ok(all_freqs) => {
                let timing = BatchTiming {
                    window_open,
                    collected,
                    infer_start,
                    infer_end: Instant::now(),
                };
                // Count the batch before any reply leaves: a client that
                // reads `stats` right after its answer must see it counted.
                shared.metrics.batches.inc();
                shared.metrics.decisions.add(n);
                shared.metrics.batch_size.observe(n as f64);
                shared
                    .metrics
                    .max_batch_seen
                    .fetch_max(n, Ordering::Relaxed);
                for (pending, freqs) in live.into_iter().zip(all_freqs) {
                    // A receiver gone (client thread died) is not an error.
                    let _ = pending.tx.send(Ok((loaded.seq, freqs, timing)));
                }
            }
            Err(e) => {
                // Dims are validated before enqueue and the digest pin
                // freezes the config, so this is unexpected — but it must
                // surface as a structured error, never a hang or panic.
                let msg = format!("batched decide failed: {e}");
                for pending in live {
                    let _ = pending.tx.send(Err(BatchError::Internal(msg.clone())));
                }
            }
        }
    }
}

fn reload_poll_loop(shared: Arc<Shared>, interval: Duration) {
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(20).min(interval));
        if last.elapsed() >= interval {
            let _ = shared.try_reload();
            last = Instant::now();
        }
    }
}

/// Serves one client connection until EOF, shutdown, or an
/// unrecoverable framing violation.
fn handle_connection(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(shared.write_timeout);
    loop {
        match read_frame(&mut stream) {
            Ok(FrameRead::Idle) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(payload)) => {
                let t0 = Instant::now();
                let (response, close, lifecycle) = handle_payload(&shared, &payload);
                let w0 = Instant::now();
                let sent = send_response(&shared, &mut stream, &response);
                let write_us = w0.elapsed().as_secs_f64() * 1e6;
                let total_us = t0.elapsed().as_secs_f64() * 1e6;
                shared.metrics.latency_us.observe(total_us);
                // The write stage only exists for requests that went
                // through the pipeline (a non-empty stage map).
                if !lifecycle.stages_us.is_empty() {
                    shared.metrics.stages.write_us.observe(write_us);
                }
                if let Some(ctx) = lifecycle.ctx {
                    let mut stages_us = lifecycle.stages_us;
                    if !stages_us.is_empty() {
                        stages_us.insert("write".to_string(), write_us);
                    }
                    let outcome = if response.ok {
                        "ok".to_string()
                    } else {
                        response
                            .code
                            .clone()
                            .unwrap_or_else(|| "unknown".to_string())
                    };
                    let record = TraceRecord {
                        trace_id: ctx.id,
                        attempt: ctx.attempt,
                        op: lifecycle.op,
                        outcome,
                        shed_stage: response.stage.clone(),
                        seq: response.seq,
                        stages_us,
                        total_us,
                    };
                    shared.metrics.recorder.emit(record.into_event());
                }
                if close || !sent {
                    return;
                }
            }
            Err(err) => {
                let code = err.code();
                match err {
                    FrameError::EmptyPayload => {
                        shared.metrics.err_counter(code).inc();
                        let resp =
                            WireResponse::error(code, "frame declared a zero-length payload");
                        if !send_response(&shared, &mut stream, &resp) {
                            return;
                        }
                    }
                    FrameError::Oversized { declared, drained } => {
                        shared.metrics.err_counter(code).inc();
                        let resp = WireResponse::error(
                            code,
                            format!(
                                "declared payload {declared} B exceeds the {} B limit",
                                crate::protocol::MAX_PAYLOAD
                            ),
                        );
                        let sent = send_response(&shared, &mut stream, &resp);
                        if !drained || !sent {
                            return;
                        }
                    }
                    FrameError::BadMagic(got) => {
                        shared.metrics.err_counter(code).inc();
                        let resp = WireResponse::error(
                            code,
                            format!("bad frame magic {got:02x?}; expected \"FSV1\""),
                        );
                        // Best-effort response; the stream cannot be
                        // resynchronized, so close either way.
                        let _ = send_response(&shared, &mut stream, &resp);
                        return;
                    }
                    FrameError::Truncated => {
                        shared.metrics.err_truncated.inc();
                        return;
                    }
                    FrameError::Io(_) => {
                        shared.metrics.err_truncated.inc();
                        return;
                    }
                }
            }
        }
    }
}

/// Encodes and writes a response frame; `false` means the peer is gone or
/// stalled past the write timeout (counted separately) — either way the
/// connection must close.
fn send_response(shared: &Shared, stream: &mut TcpStream, response: &WireResponse) -> bool {
    let Ok(payload) = encode_json(response) else {
        return false;
    };
    match write_frame(stream, &payload) {
        Ok(()) => true,
        Err(e) => {
            // A blocking socket with a write timeout surfaces a stalled
            // peer as WouldBlock/TimedOut; the frame may be partially
            // written, so the stream is unusable — close and count it.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                shared.metrics.err_stalled_write.inc();
                shared.metrics.recorder.emit(
                    Event::phys("serve_stalled_write").u("payload_len", payload.len() as u64),
                );
            }
            false
        }
    }
}

/// What the connection thread needs beyond the response to finish a
/// request's lifecycle record: the validated trace context (when the
/// client sent one) and the stage durations measured on the decide path.
/// The write stage and the outcome are only known after the response is
/// on the wire, so the connection thread completes the record.
struct Lifecycle {
    /// Request kind (`decide`, `ping`, ...; `unknown` when unparseable).
    op: String,
    /// Validated client trace context; `None` disables trace emission.
    ctx: Option<TraceContext>,
    /// Measured pipeline-stage durations in µs (decide path only).
    stages_us: BTreeMap<String, f64>,
}

impl Lifecycle {
    fn new(op: &str) -> Self {
        Lifecycle {
            op: op.to_string(),
            ctx: None,
            stages_us: BTreeMap::new(),
        }
    }
}

/// Dispatches one parsed frame. Returns the response, whether the
/// connection must close afterwards, and the request's lifecycle record.
fn handle_payload(shared: &Shared, payload: &[u8]) -> (WireResponse, bool, Lifecycle) {
    let request: WireRequest = match decode_json(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.err_bad_json.inc();
            return (
                WireResponse::error(codes::BAD_JSON, format!("unparseable request: {e}")),
                false,
                Lifecycle::new("unknown"),
            );
        }
    };
    let mut lifecycle = Lifecycle::new(&request.kind);
    if let Some(trace) = &request.trace {
        match TraceContext::parse(trace) {
            Ok(ctx) => lifecycle.ctx = Some(ctx),
            Err(e) => {
                // Malformed trace context is a request-level error, not a
                // frame-level one: the connection stays usable.
                shared.metrics.err_bad_request.inc();
                return (
                    WireResponse::error(codes::BAD_REQUEST, format!("malformed trace: {e}")),
                    false,
                    lifecycle,
                );
            }
        }
    }
    let response = match request.kind.as_str() {
        "ping" => WireResponse::pong(shared.slot.read().seq, shared.digest),
        "stats" => WireResponse::stats(shared.stats()),
        "metrics" => WireResponse::metrics_text(fl_obs::expose::render_prometheus(
            &shared.metrics.recorder.metrics_snapshot(),
        )),
        "reload" => match shared.try_reload() {
            Ok((reloaded, seq)) => WireResponse::reloaded(reloaded, seq),
            Err(msg) => WireResponse::error(codes::RELOAD_FAILED, msg),
        },
        "decide" => {
            let response = handle_decide(shared, request, &mut lifecycle.stages_us);
            return (response, false, lifecycle);
        }
        other => {
            shared.metrics.err_bad_request.inc();
            WireResponse::error(
                codes::BAD_REQUEST,
                format!("unknown request kind {other:?}"),
            )
        }
    };
    (response, false, lifecycle)
}

fn handle_decide(
    shared: &Shared,
    request: WireRequest,
    stages_us: &mut BTreeMap<String, f64>,
) -> WireResponse {
    let Some(obs) = request.obs else {
        shared.metrics.err_bad_request.inc();
        return WireResponse::error(codes::BAD_REQUEST, "decide request carries no obs");
    };
    if obs.len() != shared.obs_dim {
        shared.metrics.err_dim_mismatch.inc();
        return WireResponse::error(
            codes::DIM_MISMATCH,
            format!(
                "observation has dim {}, served controller wants {}",
                obs.len(),
                shared.obs_dim
            ),
        );
    }
    if !obs.iter().all(|v| v.is_finite()) {
        shared.metrics.err_bad_request.inc();
        return WireResponse::error(codes::BAD_REQUEST, "observation has non-finite values");
    }
    if let Some(pinned) = request.digest {
        if pinned != shared.digest {
            shared.metrics.err_digest_mismatch.inc();
            return WireResponse::error(
                codes::DIGEST_MISMATCH,
                format!(
                    "request pinned config digest {pinned:08x}, serving {:08x}",
                    shared.digest
                ),
            );
        }
    }
    // Drain window: already-admitted work keeps flowing, new work is
    // refused with a retryable code so clients fail over cleanly.
    if shared.draining.load(Ordering::Acquire) {
        shared.metrics.err_shutting_down.inc();
        shared.metrics.shed_admission.inc();
        return WireResponse::error(codes::SHUTTING_DOWN, "server is draining for shutdown")
            .with_stage("admission");
    }
    let now = Instant::now();
    let deadline = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.default_deadline)
        .map(|budget| now + budget);
    let (tx, rx) = channel();
    let pending = Pending {
        obs,
        tx,
        deadline,
        enqueued: now,
    };
    if let Err(_rejected) = shared.queue.try_push(pending) {
        let depth = shared.queue.depth();
        shared.metrics.err_overloaded.inc();
        shared.metrics.shed_total.inc();
        shared.metrics.shed_admission.inc();
        return WireResponse::error_with_retry(
            codes::OVERLOADED,
            format!(
                "admission queue is full ({depth}/{} entries)",
                shared.max_queue
            ),
            shared.retry_after_ms(depth),
        )
        .with_stage("admission");
    }
    match rx.recv() {
        Ok(Ok((seq, freqs, timing))) => {
            // Decompose this request's latency into pipeline stages from
            // the batch timestamps (`saturating` guards clock skew across
            // threads at µs granularity).
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            let queue_wait = us(timing.window_open.saturating_duration_since(now));
            let linger_from = timing.window_open.max(now);
            let batch_linger = us(timing.collected.saturating_duration_since(linger_from));
            let inference = us(timing
                .infer_end
                .saturating_duration_since(timing.infer_start));
            let m = &shared.metrics;
            m.stages.queue_wait_us.observe(queue_wait);
            m.stages.batch_linger_us.observe(batch_linger);
            m.stages.inference_us.observe(inference);
            stages_us.insert("queue_wait".to_string(), queue_wait);
            stages_us.insert("batch_linger".to_string(), batch_linger);
            stages_us.insert("inference".to_string(), inference);
            WireResponse::decided(seq, freqs)
        }
        Ok(Err(BatchError::Deadline { waited_ms })) => {
            shared.metrics.err_deadline.inc();
            shared.metrics.shed_total.inc();
            shared.metrics.shed_queue.inc();
            WireResponse::error(
                codes::DEADLINE_EXCEEDED,
                format!("deadline expired after {waited_ms} ms in the batch queue"),
            )
            .with_stage("queue_wait")
        }
        Ok(Err(BatchError::Internal(msg))) => {
            shared.metrics.err_internal.inc();
            WireResponse::error(codes::INTERNAL, msg)
        }
        Err(_) => {
            shared.metrics.err_internal.inc();
            WireResponse::error(codes::INTERNAL, "server shut down mid-request")
        }
    }
}

/// Answers every metrics-port connection with one Prometheus exposition
/// snapshot over HTTP/1.0, then closes. The request bytes are drained
/// best-effort and never parsed: any client — an HTTP scraper or a raw
/// TCP probe that sends nothing — gets the same scrape.
fn scrape_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let body = fl_obs::expose::render_prometheus(&shared.metrics.recorder.metrics_snapshot());
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
    }
}
