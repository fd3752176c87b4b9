//! `serve_open_2c`: the decision server as deployed.
//!
//! A `DecisionServer` with `ServeOptions::default()` (500 µs linger, batches
//! of up to 32) serves a testbed (N = 3) controller trained in-process.
//! Two client connections drive it in two phases:
//!
//! 1. open loop: Poisson arrivals at 1000 requests/s from the seed, split
//!    over the two connections; each request's latency runs from the time
//!    it was due, so a late generator or a busy connection counts against
//!    the server, and how late the generator ran is reported beside it;
//! 2. closed loop: both connections send their next request as soon as the
//!    last one returns, which gives the capacity.
//!
//! Every 16th decision served on each connection must equal in-process
//! `ControllerSnapshot::decide_rows` bit for bit.

use crate::harness::{
    digest_str, median, out_dir, poisson_schedule, quantile, report_attribution,
    report_transfer_probe, round_start, supported_percentile, train, Attribution, Report,
    RunConfig, SetupTimes, Spans,
};
use fl_bench::Scenario;
use fl_ctrl::ControllerSnapshot;
use fl_obs::trace::{collect_spans, TraceSpan};
use fl_obs::Recorder;
use fl_rl::snapshot::CheckpointStore;
use fl_serve::{DecisionServer, ServeClient, ServeOptions, TraceContext, WireRequest};
use fl_sim::FlSystem;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Training episodes of the served controller. Serving cost does not
/// depend on how well the weights are trained.
const EPISODES: usize = 20;
/// Open-loop arrival rate, requests per second over both connections.
const RATE: f64 = 1000.0;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Every n-th decision served on each connection is checked against
/// in-process inference.
const CHECK_EVERY: usize = 16;
/// Distinct observations the requests cycle through.
const POOL: usize = 512;
/// Completions per closed-loop capacity window.
const WINDOW: usize = 500;

struct Rig {
    // Field order is drop order: clients close before the server stops.
    clients: Vec<ServeClient>,
    server: Option<DecisionServer>,
    recorder: Recorder,
    snap: ControllerSnapshot,
    sys: FlSystem,
    lambda: f64,
    /// `(round start time, observation)` in seeded order.
    pool: Vec<(f64, Vec<f64>)>,
    digest: u64,
}

fn store_dir() -> PathBuf {
    out_dir().join(format!("serve-store-{}", std::process::id()))
}

fn build(seed: u64) -> Rig {
    let mut scenario = Scenario::testbed();
    scenario.seed = seed;
    let sys = scenario.build();
    let controller = train(
        &scenario,
        &sys,
        scenario.train_config(EPISODES),
        Recorder::disabled(),
    )
    .expect("the testbed training configuration is valid")
    .output
    .controller;
    let snap = ControllerSnapshot::from_system(controller, &sys)
        .expect("a trained testbed controller is a valid snapshot");
    let digest = digest_str(&snap.controller.to_json().expect("a controller serializes"));
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).expect("the checkpoint store directory is writable");
    snap.save(&store).expect("the snapshot saves");
    let recorder = Recorder::in_memory();
    let opts = ServeOptions {
        recorder: recorder.clone(),
        ..ServeOptions::default()
    };
    let server = DecisionServer::start(&dir, "127.0.0.1:0", opts).expect("the server starts");
    let clients = (0..CONNECTIONS)
        .map(|_| ServeClient::connect(server.local_addr()).expect("a client connects"))
        .collect();
    let (h, slot_h) = (snap.controller.history_len, snap.controller.slot_h);
    let mut pool: Vec<(f64, Vec<f64>)> = (0..POOL)
        .map(|k| {
            let t = round_start(k);
            let obs = sys
                .observe_bandwidth_state(t, slot_h, h)
                .expect("round start times lie inside the traces");
            (t, obs)
        })
        .collect();
    pool.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x9001));
    Rig {
        clients,
        server: Some(server),
        recorder,
        snap,
        lambda: scenario.fl.lambda,
        sys,
        pool,
        digest,
    }
}

/// One request as the client saw it.
struct Sample {
    /// Request index (selects the observation).
    i: usize,
    due: Instant,
    sent: Instant,
    recv: Instant,
    result: Result<Vec<f64>, String>,
}

/// The decide request for request index `i`, carrying a trace context when
/// `trace` names one.
fn request(pool: &[(f64, Vec<f64>)], i: usize, trace: Option<String>) -> WireRequest {
    let req = WireRequest::decide(pool[i % pool.len()].1.clone());
    match trace {
        Some(id) => req.with_trace(TraceContext::new(id, 0).to_value()),
        None => req,
    }
}

/// Open loop: request `i` is due at `schedule[i]` after the start and goes
/// out on connection `i % CONNECTIONS`.
fn open_loop(rig: &mut Rig, schedule: &[f64], traced: bool) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let pool = &rig.pool;
    std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(schedule.len() / CONNECTIONS + 1);
                    for i in (c..schedule.len()).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(schedule[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let req = request(pool, i, traced.then(|| format!("r{i}")));
                        let sent = Instant::now();
                        let result = client.decide_request(&req);
                        out.push(Sample {
                            i,
                            due,
                            sent,
                            recv: Instant::now(),
                            result: result.map(|r| r.1).map_err(|e| e.to_string()),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Closed loop for `seconds`: both connections send back to back. Returns
/// the capacity: the median, over windows of [`WINDOW`] consecutive
/// completions, of the decisions completed per second, so a short stall of
/// the host moves one window rather than the whole phase.
fn closed_loop(
    rig: &mut Rig,
    report: &mut Report,
    tally: &mut Tally,
    seconds: f64,
    traced: bool,
) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let pool = &rig.pool;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = c;
                    while Instant::now() < deadline {
                        let req = request(pool, i, traced.then(|| format!("c{i}")));
                        let sent = Instant::now();
                        let result = client.decide_request(&req);
                        out.push(Sample {
                            i,
                            due: sent,
                            sent,
                            recv: Instant::now(),
                            result: result.map(|r| r.1).map_err(|e| e.to_string()),
                        });
                        i += CONNECTIONS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let phase = if traced {
        "traced closed-loop"
    } else {
        "closed-loop"
    };
    check(rig, report, tally, phase, &samples);
    let mut done: Vec<Instant> = samples
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.recv)
        .collect();
    done.sort_unstable();
    done.insert(0, start);
    let rates: Vec<f64> = done
        .windows(WINDOW + 1)
        .step_by(WINDOW)
        .map(|w| WINDOW as f64 / (w[WINDOW] - w[0]).as_secs_f64())
        .collect();
    if rates.is_empty() {
        (done.len() - 1) as f64 / seconds
    } else {
        median(&rates)
    }
}

/// Decisions served and the round cost of the checked ones.
#[derive(Default)]
struct Tally {
    served: u64,
    cost: f64,
    costed: usize,
}

/// Whether request `i` is bit-checked. Request `i` goes out on connection
/// `i % CONNECTIONS` as that connection's `i / CONNECTIONS`-th request, so
/// this picks every [`CHECK_EVERY`]-th request of each connection.
fn checked(i: usize) -> bool {
    (i / CONNECTIONS).is_multiple_of(CHECK_EVERY)
}

/// Counts every request as an op; errors and every checked decision that
/// differs from in-process inference fail. The checked
/// decisions also run through the testbed's round physics for their cost.
fn check(rig: &Rig, report: &mut Report, tally: &mut Tally, phase: &str, samples: &[Sample]) {
    let mut failed = 0u64;
    let mut first: Option<String> = None;
    for s in samples {
        let freqs = match &s.result {
            Ok(f) => {
                tally.served += 1;
                f
            }
            Err(e) => {
                failed += 1;
                first.get_or_insert_with(|| format!("{phase} request {}: {e}", s.i));
                continue;
            }
        };
        if !checked(s.i) {
            continue;
        }
        let (t, obs) = &rig.pool[s.i % rig.pool.len()];
        let expected = rig.snap.decide_rows(std::slice::from_ref(obs));
        let equal = expected.as_ref().is_ok_and(|rows| {
            rows.len() == 1
                && rows[0].len() == freqs.len()
                && rows[0]
                    .iter()
                    .zip(freqs)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !equal {
            failed += 1;
            first.get_or_insert_with(|| {
                format!(
                    "{phase} request {}: served decision differs from decide_rows",
                    s.i
                )
            });
            continue;
        }
        match rig.sys.run_iteration(*t, freqs) {
            Ok(r) => {
                tally.cost += r.cost(rig.lambda);
                tally.costed += 1;
            }
            Err(e) => {
                failed += 1;
                first.get_or_insert_with(|| format!("{phase} request {}: physics: {e}", s.i));
            }
        }
    }
    report.ops(samples.len() as u64, failed, || first.unwrap_or_default());
}

fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

pub fn run(cfg: &RunConfig, report: &mut Report, spans: &mut Spans) {
    let mut setup = SetupTimes::default();
    // Three builds before the measurement and three after it.
    let mut rig = setup.sample(3, || build(cfg.seed), |rig| rig.digest);

    // Phase 1: open loop (traced in a traced run).
    let mut tally = Tally::default();
    let open_s = cfg.seconds * 2.0 / 3.0;
    let schedule = poisson_schedule(cfg.seed ^ 0x5C4E, RATE, open_s);
    let open = open_loop(&mut rig, &schedule, cfg.trace);
    check(&rig, report, &mut tally, "open-loop", &open);
    let ok: Vec<&Sample> = open.iter().filter(|s| s.result.is_ok()).collect();
    let latency: Vec<f64> = ok.iter().map(|s| us(s.due, s.recv)).collect();
    let lag: Vec<f64> = open.iter().map(|s| us(s.due, s.sent)).collect();
    report.e2e("latency_p50_ms", median(&latency) / 1e3, "ms");
    report.info("serve.offered_rps", open.len() as f64 / open_s, "1/s");
    report.info("serve.samples", latency.len() as f64, "count");
    report.info("serve.p50_us", median(&latency), "us");
    report.info("serve.p90_us", quantile(&latency, 0.9), "us");
    if let Some(q) = supported_percentile(latency.len()) {
        let name = format!("serve.p{}_us", format!("{}", q * 100.0).replace('.', ""));
        report.info(&name, quantile(&latency, q), "us");
    }
    report.info("client.lag_p50_us", median(&lag), "us");
    report.info("client.lag_p99_us", quantile(&lag, 0.99), "us");

    // Phase 2: closed loop. A traced run splits it into an untraced and a
    // traced half to measure the tracing overhead on capacity.
    let closed_s = cfg.seconds - open_s;
    let half = if cfg.trace { closed_s / 2.0 } else { closed_s };
    let capacity = closed_loop(&mut rig, report, &mut tally, half, false);
    report.e2e("throughput_per_s", capacity, "1/s");
    let traced_capacity = cfg
        .trace
        .then(|| closed_loop(&mut rig, report, &mut tally, half, true));

    drop(std::mem::take(&mut rig.clients));
    let stats = rig
        .server
        .take()
        .expect("the server is still running")
        .shutdown();
    report.op(stats.decisions == tally.served, || {
        format!(
            "server counted {} decisions, clients received {}",
            stats.decisions, tally.served
        )
    });
    if let Some(traced_capacity) = traced_capacity {
        report.layer(
            "trace_overhead_frac",
            1.0 - traced_capacity / capacity,
            "frac",
        );
        report.layer(
            "fl-serve.mean_batch",
            stats.decisions as f64 / stats.batches.max(1) as f64,
            "count",
        );
        report.layer(
            "cost_per_round",
            tally.cost / tally.costed.max(1) as f64,
            "cost",
        );
        attribute(&rig, report, spans, &ok);
        decide_rows_probe(&rig, report);
        let trace = rig.sys.traces().get(0).expect("the testbed has traces");
        report_transfer_probe(report, trace, rig.sys.config().model_size_mb);
    }
    drop(rig);
    drop(setup.sample(3, || build(cfg.seed), |rig| rig.digest));
    setup.report(report);
    let _ = std::fs::remove_dir_all(store_dir());
}

/// Splits each traced open-loop request into generator lag, the server's
/// stages, the server's own remainder, and the transport.
fn attribute(rig: &Rig, report: &mut Report, spans: &mut Spans, ok: &[&Sample]) {
    let server: HashMap<String, TraceSpan> = collect_spans(&rig.recorder.events_text())
        .into_iter()
        .map(|s| (s.trace_id.clone(), s))
        .collect();
    let mut ops = Vec::with_capacity(ok.len());
    let mut stage_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut missing = 0u64;
    for s in ok {
        let Some(t) = server.get(&format!("r{}", s.i)) else {
            missing += 1;
            continue;
        };
        let id = s.i as u64;
        let root = spans.push("request", None, id, s.due, s.recv);
        spans.push("client.lag", Some(root), id, s.due, s.sent);
        let rtt = spans.push("fl-serve.round_trip", Some(root), id, s.sent, s.recv);
        let mut staged = Vec::with_capacity(4);
        for (stage, name) in [
            ("queue_wait", "fl-serve.queue_wait"),
            ("batch_linger", "fl-serve.batch_linger"),
            ("inference", "fl-serve.inference"),
            ("write", "fl-serve.write"),
        ] {
            let v = t.stages_us.get(stage).copied().unwrap_or(0.0);
            stage_us.entry(name).or_default().push(v);
            spans.push_total(name, rtt, v / 1e6, 1);
            staged.push((name, v));
        }
        let other = t.total_us - staged.iter().map(|p| p.1).sum::<f64>();
        // The server stamps its write done after the socket call returns,
        // by which time the client may already hold the reply. That tail
        // is off the request's path: it comes off the write stage first.
        let overlap = (t.total_us - us(s.sent, s.recv)).max(0.0);
        let write = staged[3].1;
        staged[3].1 = (write - overlap).max(0.0);
        let other = other - (overlap - (write - staged[3].1));
        let mut parts = vec![("client.lag", us(s.due, s.sent) / 1e6)];
        parts.extend(staged.into_iter().map(|(name, v)| (name, v / 1e6)));
        parts.push(("fl-serve.server_other", other / 1e6));
        parts.push((
            "fl-serve.transport",
            (us(s.sent, s.recv) - t.total_us).max(0.0) / 1e6,
        ));
        ops.push(Attribution {
            wall: us(s.due, s.recv) / 1e6,
            parts,
        });
    }
    report.ops(ok.len() as u64, missing, || {
        format!("{missing} traced requests have no server-side trace record")
    });
    report_attribution(report, "request", &ops, false);
    let mut names: Vec<_> = stage_us.keys().copied().collect();
    names.sort_unstable();
    for name in names {
        let v = &stage_us[name];
        report.info(&format!("{name}_p50_us"), median(v), "us");
        report.info(&format!("{name}_p99_us"), quantile(v, 0.99), "us");
    }
}

/// In-process `decide_rows` on one- and two-row batches, µs per call.
fn decide_rows_probe(rig: &Rig, report: &mut Report) {
    const CALLS: usize = 2_000;
    for rows in [1usize, 2] {
        let batch: Vec<Vec<f64>> = rig.pool[..rows].iter().map(|p| p.1.clone()).collect();
        let t0 = Instant::now();
        let mut ok = true;
        for _ in 0..CALLS {
            ok &= std::hint::black_box(rig.snap.decide_rows(std::hint::black_box(&batch))).is_ok();
        }
        let per_call = t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64;
        report.op(ok, || format!("decide_rows failed on a {rows}-row batch"));
        report.info(&format!("fl-ctrl.decide_rows_{rows}row_us"), per_call, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_connection_gets_checked() {
        let n = 64 * CONNECTIONS * CHECK_EVERY;
        for c in 0..CONNECTIONS {
            // Connection c carries requests c, c + CONNECTIONS, …
            let sent: Vec<usize> = (c..n).step_by(CONNECTIONS).collect();
            let hits = sent.iter().filter(|&&i| checked(i)).count();
            assert_eq!(hits * CHECK_EVERY, sent.len(), "connection {c}");
            assert!(checked(c), "connection {c}'s first request");
        }
    }
}
