//! Shared measurement core for the serving load benchmark.
//!
//! Trains (or loads from the shared cache) a small testbed controller,
//! exports it as a [`ControllerSnapshot`] into a throwaway checkpoint
//! store, starts a real [`DecisionServer`] on an ephemeral port, and
//! drives it with synthetic FL decision traffic: observation rows sampled
//! from the scenario's fl-net bandwidth traces, exactly what a federated
//! aggregator would send between iterations.
//!
//! Each case reports client-side latency quantiles (p50/p99/p999, exact
//! over the recorded samples, not histogram-interpolated) and throughput.
//! The `serial_1` case is the no-contention floor; the burst cases measure
//! micro-batching under concurrency. Both the `serve_bench` binary and
//! the `bench_check` CI gate build on this module, so the committed
//! baseline and the regression check always measure the same thing.
//!
//! The gate compares *ratios* against the committed baseline with wide
//! margins (throughput may drop to 1/4, p99 may grow 8x before failing):
//! serving latency on shared CI hosts is noisy, and the gate exists to
//! catch order-of-magnitude regressions — an accidentally serialized
//! batcher, a lock held across a policy forward — not microsecond drift.

use crate::Scenario;
use fl_ctrl::{ControllerSnapshot, ParallelConfig};
use fl_obs::trace::{attribution, collect_spans, TraceAttribution};
use fl_obs::{quantile_sorted, Recorder};
use fl_rl::snapshot::CheckpointStore;
use fl_serve::protocol::codes;
use fl_serve::{
    DecisionServer, ResilientClient, RetryPolicy, ServeClient, ServeError, ServeOptions,
    WireRequest,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::{Duration, Instant};

/// Training episodes for the served controller: enough to exercise the
/// full pipeline, small enough for a CI smoke run (the decision-serving
/// cost is independent of how well-trained the weights are).
pub const SNAPSHOT_EPISODES: usize = 40;

/// Gate: measured throughput must stay above this fraction of baseline.
pub const MIN_THROUGHPUT_FRAC: f64 = 0.25;
/// Gate: measured p99 may grow at most this factor over baseline ...
pub const MAX_P99_GROWTH: f64 = 8.0;
/// ... but never fails while under this absolute floor (µs): scheduler
/// jitter on a busy host dominates below it.
pub const P99_FLOOR_US: f64 = 5_000.0;

/// One load case against a live server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeCase {
    /// Case id, e.g. `burst_8`.
    pub name: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Decisions served.
    pub requests: u64,
    /// Client-observed decisions per second.
    pub throughput_rps: f64,
    /// Exact client-side latency quantiles, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Largest micro-batch the server formed during the case.
    pub max_batch_observed: u64,
}

/// The overload scenario: offered load deliberately past capacity, so the
/// interesting numbers are *goodput* (decisions actually served per
/// second), the shed rate, and the p99 of the accepted requests — an
/// overloaded server must stay fast for the work it admits and answer the
/// rest immediately with structured `overloaded` sheds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadCase {
    /// Concurrent closed-loop clients (no think time, no backoff).
    pub clients: usize,
    /// Requests attempted (accepted + shed + failed).
    pub offered: u64,
    /// Requests served with a decision.
    pub accepted: u64,
    /// Requests shed with `overloaded` / `deadline_exceeded`.
    pub shed: u64,
    /// Anything else — transport errors, unexpected codes. An overloaded
    /// server must degrade structurally, so the gate requires zero.
    pub transport_failures: u64,
    /// Accepted decisions per second.
    pub goodput_rps: f64,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// p99 latency of *accepted* requests, microseconds.
    pub p99_accepted_us: f64,
    /// Server-side sheds attributed to admission (`overloaded` +
    /// `shutting_down`), from the stage counters. `None` in baselines
    /// predating stage attribution.
    pub shed_admission: Option<u64>,
    /// Server-side sheds attributed to in-queue deadline expiry.
    pub shed_queue: Option<u64>,
}

/// A full sweep, serialized as the committed baseline
/// (`crates/fl-bench/results/serve_bench.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-case driving budget, milliseconds.
    pub budget_ms: u64,
    /// Observation dimension of the served controller.
    pub obs_dim: usize,
    /// Devices per decision.
    pub action_dim: usize,
    /// All measured cases.
    pub cases: Vec<ServeCase>,
    /// The past-capacity scenario (absent in pre-overload baselines).
    pub overload: Option<OverloadCase>,
    /// Stage attribution of a traced sample (absent in pre-trace
    /// baselines). Informational — quantiles are host-dependent, so the
    /// gate does not compare them.
    pub trace: Option<TraceAttribution>,
}

/// Trains (cache-aware) the testbed controller and saves it as the only
/// snapshot in a fresh [`CheckpointStore`] at `dir`. Returns the snapshot
/// and an observation pool sampled from the scenario's bandwidth traces.
pub fn prepare_store(dir: &Path, pool_size: usize) -> (ControllerSnapshot, Vec<Vec<f64>>) {
    let scenario = Scenario::testbed();
    let sys = scenario.build();
    let (ctrl, _cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(SNAPSHOT_EPISODES),
        &ParallelConfig::SERIAL,
    );
    let snap = ControllerSnapshot::from_system(ctrl, &sys).expect("testbed snapshot is valid");
    let store = CheckpointStore::new(dir).expect("checkpoint store");
    snap.save(&store).expect("snapshot saves");
    let h = snap.controller.history_len;
    let slot_h = snap.controller.slot_h;
    let pool: Vec<Vec<f64>> = (0..pool_size)
        .map(|k| {
            // Deterministic stride through the 3600 s traces, away from
            // both ends so the trailing history window is always full.
            let t = 60.0 + ((k * 97) % 3300) as f64;
            sys.observe_bandwidth_state(t, slot_h, h)
                .expect("observation inside trace")
        })
        .collect();
    (snap, pool)
}

/// Runs one load case: `clients` connections hammering `decide` for
/// `budget`, against a fresh server over the store at `ckpt_dir`.
pub fn run_case(
    ckpt_dir: &Path,
    name: &str,
    clients: usize,
    budget: Duration,
    obs_pool: &[Vec<f64>],
) -> ServeCase {
    let opts = ServeOptions {
        // Serial traffic should not pay a batching window; concurrent
        // traffic gets a short one so bursts coalesce.
        linger: if clients == 1 {
            Duration::ZERO
        } else {
            Duration::from_micros(200)
        },
        ..ServeOptions::default()
    };
    let server = DecisionServer::start(ckpt_dir, "127.0.0.1:0", opts).expect("server starts");
    let addr = server.local_addr();
    let start = Instant::now();
    let deadline = start + budget;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let pool = obs_pool.to_vec();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                let mut latencies_us = Vec::new();
                // Stagger the pool walk per client so concurrent requests
                // carry different observations.
                let mut i = c;
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    client.decide(&pool[i % pool.len()]).expect("decide ok");
                    latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    i += clients.max(1);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let q = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            quantile_sorted(&latencies, p)
        }
    };
    ServeCase {
        name: name.to_string(),
        clients,
        requests: latencies.len() as u64,
        throughput_rps: latencies.len() as f64 / elapsed.max(1e-9),
        p50_us: q(0.5),
        p99_us: q(0.99),
        p999_us: q(0.999),
        max_batch_observed: stats.max_batch_observed,
    }
}

/// Knobs that make the overload scenario *reliably* past capacity: a
/// small artificial per-batch inference delay emulates a heavier model,
/// so 16 closed-loop clients against a 4-row batch and an 8-deep queue
/// saturate the server regardless of host speed.
const OVERLOAD_CLIENTS: usize = 16;
const OVERLOAD_MAX_BATCH: usize = 4;
const OVERLOAD_MAX_QUEUE: usize = 8;
const OVERLOAD_SLOWDOWN: Duration = Duration::from_millis(2);
/// Per-request deadline carried by overload traffic — generous against
/// the ~7 ms worst-case queue residence, so sheds are `overloaded` (queue
/// full), not deadline expiries; it still exercises the deadline path on
/// every admitted request.
const OVERLOAD_DEADLINE_MS: u64 = 250;

/// Runs the overload case: closed-loop clients hammering a deliberately
/// undersized server for `budget`. Sheds are expected and counted; any
/// *unstructured* failure is a bug and lands in `transport_failures`.
pub fn run_overload_case(ckpt_dir: &Path, budget: Duration, obs_pool: &[Vec<f64>]) -> OverloadCase {
    let opts = ServeOptions {
        max_batch: OVERLOAD_MAX_BATCH,
        linger: Duration::from_micros(200),
        max_queue: OVERLOAD_MAX_QUEUE,
        inference_slowdown: OVERLOAD_SLOWDOWN,
        ..ServeOptions::default()
    };
    let server = DecisionServer::start(ckpt_dir, "127.0.0.1:0", opts).expect("server starts");
    let addr = server.local_addr();
    let start = Instant::now();
    let deadline = start + budget;
    let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
        .map(|c| {
            let pool = obs_pool.to_vec();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                client
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                let mut accepted_us = Vec::new();
                let mut shed = 0u64;
                let mut failed = 0u64;
                let mut i = c;
                while Instant::now() < deadline {
                    let request = WireRequest::decide(pool[i % pool.len()].clone())
                        .with_deadline(OVERLOAD_DEADLINE_MS);
                    let t0 = Instant::now();
                    match client.decide_request(&request) {
                        Ok(_) => accepted_us.push(t0.elapsed().as_secs_f64() * 1e6),
                        Err(ServeError::Server { ref code, .. })
                            if code == codes::OVERLOADED || code == codes::DEADLINE_EXCEEDED =>
                        {
                            shed += 1;
                        }
                        Err(_) => failed += 1,
                    }
                    i += OVERLOAD_CLIENTS;
                }
                (accepted_us, shed, failed)
            })
        })
        .collect();
    let mut accepted_us: Vec<f64> = Vec::new();
    let (mut shed, mut failed) = (0u64, 0u64);
    for h in handles {
        let (us, s, f) = h.join().expect("client thread");
        accepted_us.extend(us);
        shed += s;
        failed += f;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    accepted_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let accepted = accepted_us.len() as u64;
    let offered = accepted + shed + failed;
    OverloadCase {
        clients: OVERLOAD_CLIENTS,
        offered,
        accepted,
        shed,
        transport_failures: failed,
        goodput_rps: accepted as f64 / elapsed.max(1e-9),
        shed_rate: shed as f64 / (offered.max(1)) as f64,
        p99_accepted_us: if accepted_us.is_empty() {
            0.0
        } else {
            quantile_sorted(&accepted_us, 0.99)
        },
        shed_admission: stats.stages.as_ref().map(|s| s.shed_admission),
        shed_queue: stats.stages.as_ref().map(|s| s.shed_queue),
    }
}

/// Drives `requests` traced decides through a fresh server logging to a
/// JSONL file, then reconstructs the stage attribution from that log —
/// the same offline pipeline the `obs_trace` binary runs. The trace-id
/// stream is a pure function of the retry seed, so repeated runs
/// attribute the same trace ids (durations vary with the host, the
/// table *structure* does not).
pub fn run_trace_case(ckpt_dir: &Path, requests: u64, obs_pool: &[Vec<f64>]) -> TraceAttribution {
    let log_dir = std::env::temp_dir().join(format!(
        "fedfreq-serve-trace-{}-{requests}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&log_dir);
    std::fs::create_dir_all(&log_dir).expect("trace log dir");
    let log_path = log_dir.join("serve.jsonl");
    let opts = ServeOptions {
        recorder: Recorder::to_file(&log_path).expect("trace recorder"),
        ..ServeOptions::default()
    };
    let server = DecisionServer::start(ckpt_dir, "127.0.0.1:0", opts).expect("server starts");
    let mut client =
        ResilientClient::new(server.local_addr(), RetryPolicy::default()).expect("client builds");
    client.set_tracing(true);
    for i in 0..requests {
        client
            .decide(&obs_pool[i as usize % obs_pool.len()])
            .expect("traced decide ok");
    }
    server.shutdown();
    let text = std::fs::read_to_string(&log_path).expect("trace log readable");
    let attr = attribution(&collect_spans(&text));
    let _ = std::fs::remove_dir_all(&log_dir);
    attr
}

/// The full sweep: serial floor plus two burst levels, each against its
/// own fresh server (so per-case stats do not bleed into each other).
pub fn measure(budget: Duration) -> ServeReport {
    let dir = std::env::temp_dir().join(format!("fedfreq-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let (snap, pool) = prepare_store(&dir, 512);
    let cases = [("serial_1", 1usize), ("burst_8", 8), ("burst_32", 32)]
        .iter()
        .map(|&(name, clients)| run_case(&dir, name, clients, budget, &pool))
        .collect();
    let overload = run_overload_case(&dir, budget, &pool);
    let trace = run_trace_case(&dir, 256, &pool);
    let report = ServeReport {
        budget_ms: budget.as_millis() as u64,
        obs_dim: snap.obs_dim(),
        action_dim: snap.action_dim(),
        cases,
        overload: Some(overload),
        trace: Some(trace),
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Returns the failures of `measured` against `baseline` (empty = pass).
pub fn check(baseline: &ServeReport, measured: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.cases {
        let Some(m) = measured.cases.iter().find(|m| m.name == b.name) else {
            failures.push(format!("case {} missing from measurement", b.name));
            continue;
        };
        let min_rps = b.throughput_rps * MIN_THROUGHPUT_FRAC;
        if m.throughput_rps < min_rps {
            failures.push(format!(
                "{}: throughput {:.0} rps fell below {:.0} rps (baseline {:.0} x {})",
                b.name, m.throughput_rps, min_rps, b.throughput_rps, MIN_THROUGHPUT_FRAC
            ));
        }
        let p99_allowed = (b.p99_us * MAX_P99_GROWTH).max(P99_FLOOR_US);
        if m.p99_us > p99_allowed {
            failures.push(format!(
                "{}: p99 {:.0} us exceeded {:.0} us (baseline {:.0} us x {MAX_P99_GROWTH}, \
                 floor {P99_FLOOR_US} us)",
                b.name, m.p99_us, p99_allowed, b.p99_us
            ));
        }
    }
    if let Some(b) = &baseline.overload {
        match &measured.overload {
            None => failures.push("overload case missing from measurement".to_string()),
            Some(m) => {
                let min_rps = b.goodput_rps * MIN_THROUGHPUT_FRAC;
                if m.goodput_rps < min_rps {
                    failures.push(format!(
                        "overload: goodput {:.0} rps fell below {:.0} rps (baseline {:.0} x {})",
                        m.goodput_rps, min_rps, b.goodput_rps, MIN_THROUGHPUT_FRAC
                    ));
                }
                if m.transport_failures > 0 {
                    failures.push(format!(
                        "overload: {} unstructured failures — overload must shed with \
                         structured errors, never break transport",
                        m.transport_failures
                    ));
                }
                if m.shed == 0 {
                    failures.push(
                        "overload: offered load past capacity shed nothing — the bounded \
                         admission queue is not shedding"
                            .to_string(),
                    );
                }
                let p99_allowed = (b.p99_accepted_us * MAX_P99_GROWTH).max(P99_FLOOR_US);
                if m.p99_accepted_us > p99_allowed {
                    failures.push(format!(
                        "overload: p99-of-accepted {:.0} us exceeded {:.0} us \
                         (baseline {:.0} us x {MAX_P99_GROWTH}, floor {P99_FLOOR_US} us)",
                        m.p99_accepted_us, p99_allowed, b.p99_accepted_us
                    ));
                }
            }
        }
    }
    failures
}

/// Prints a report as a fixed-width table.
pub fn print_report(report: &ServeReport) {
    println!(
        "\nserve_bench: obs_dim {}, {} devices, {} ms per case",
        report.obs_dim, report.action_dim, report.budget_ms
    );
    println!(
        "{:<10} {:>8} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "case", "clients", "requests", "rps", "p50 us", "p99 us", "p999 us", "max batch"
    );
    for c in &report.cases {
        println!(
            "{:<10} {:>8} {:>9} {:>11.0} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            c.name,
            c.clients,
            c.requests,
            c.throughput_rps,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.max_batch_observed
        );
    }
    if let Some(o) = &report.overload {
        println!(
            "overload   {:>8} offered {:>7} accepted {:>7} shed {:>7} failed {:>3} | \
             goodput {:>7.0} rps, shed rate {:>5.1}%, p99-of-accepted {:>8.1} us",
            o.clients,
            o.offered,
            o.accepted,
            o.shed,
            o.transport_failures,
            o.goodput_rps,
            o.shed_rate * 100.0,
            o.p99_accepted_us
        );
        if let (Some(adm), Some(q)) = (o.shed_admission, o.shed_queue) {
            println!(
                "           shed by stage: admission {adm} (queue full / draining), \
                 queue_wait {q} (deadline expired in queue)"
            );
        }
    }
    if let Some(t) = &report.trace {
        println!("\n{}", fl_obs::trace::render_attribution(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, rps: f64, p99: f64) -> ServeCase {
        ServeCase {
            name: name.to_string(),
            clients: 1,
            requests: 100,
            throughput_rps: rps,
            p50_us: p99 / 2.0,
            p99_us: p99,
            p999_us: p99 * 2.0,
            max_batch_observed: 1,
        }
    }

    fn report(cases: Vec<ServeCase>) -> ServeReport {
        ServeReport {
            budget_ms: 100,
            obs_dim: 27,
            action_dim: 3,
            cases,
            overload: None,
            trace: None,
        }
    }

    fn overload(goodput: f64, shed: u64, failed: u64, p99: f64) -> OverloadCase {
        let accepted = 1_000u64;
        OverloadCase {
            clients: 16,
            offered: accepted + shed + failed,
            accepted,
            shed,
            transport_failures: failed,
            goodput_rps: goodput,
            shed_rate: shed as f64 / (accepted + shed + failed) as f64,
            p99_accepted_us: p99,
            shed_admission: None,
            shed_queue: None,
        }
    }

    #[test]
    fn check_passes_within_margins() {
        let base = report(vec![case("serial_1", 10_000.0, 300.0)]);
        // 4x slower and 8x latency growth under the floor still passes.
        let measured = report(vec![case("serial_1", 2_500.0, 2_400.0)]);
        assert!(check(&base, &measured).is_empty());
    }

    #[test]
    fn check_flags_throughput_collapse_and_p99_blowup() {
        let base = report(vec![case("serial_1", 10_000.0, 1_000.0)]);
        let slow = report(vec![case("serial_1", 2_000.0, 1_000.0)]);
        assert_eq!(check(&base, &slow).len(), 1);
        let laggy = report(vec![case("serial_1", 9_000.0, 9_000.0)]);
        assert_eq!(check(&base, &laggy).len(), 1);
        let missing = report(vec![]);
        assert_eq!(check(&base, &missing).len(), 1);
    }

    #[test]
    fn overload_gate_checks_goodput_structure_and_p99() {
        let mut base = report(vec![]);
        base.overload = Some(overload(2_000.0, 5_000, 0, 7_000.0));

        let mut ok = report(vec![]);
        ok.overload = Some(overload(1_000.0, 3_000, 0, 8_000.0));
        assert!(check(&base, &ok).is_empty());

        // Goodput collapse, unstructured failures, no shedding, and a
        // p99-of-accepted blowup each fail independently.
        let mut bad = report(vec![]);
        bad.overload = Some(overload(100.0, 0, 7, 7_000.0 * 9.0));
        let failures = check(&base, &bad);
        assert_eq!(failures.len(), 4, "{failures:?}");

        // A measurement missing the overload case entirely fails too.
        let missing = report(vec![]);
        assert_eq!(check(&base, &missing).len(), 1);

        // ...but an old baseline without the case gates nothing new.
        assert!(check(&report(vec![]), &missing).is_empty());
    }

    #[test]
    fn p99_floor_absorbs_small_baselines() {
        // Baseline p99 of 100 us: 8x would be 800 us, but the 5 ms floor
        // applies, so 4 ms passes.
        let base = report(vec![case("serial_1", 10_000.0, 100.0)]);
        let measured = report(vec![case("serial_1", 10_000.0, 4_000.0)]);
        assert!(check(&base, &measured).is_empty());
    }
}
