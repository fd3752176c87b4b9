//! End-to-end contract for request tracing and metrics exposition.
//!
//! * A [`fl_serve::ResilientClient`] with tracing enabled stamps every
//!   request with a deterministic trace context; the server answers each
//!   with exactly one physical `trace` event carrying per-stage wall
//!   durations — and the deterministic projection of the log is
//!   untouched by any of it.
//! * Malformed trace contexts are a *request*-level error: structured
//!   `bad_request`, never a panic, never a dropped connection
//!   (proptest-fuzzed).
//! * The trace-id stream is a pure function of the retry seed, so two
//!   identical runs attribute the same ids in the same order.
//! * Under pinned network chaos, retry attempts appear as sibling spans:
//!   same trace id, strictly increasing attempt numbers.
//! * The `metrics` op and the `--metrics-port` scrape listener serve
//!   Prometheus-style exposition (the scrape smoke speaks raw TCP — no
//!   HTTP client involved).

#[path = "serve_common.rs"]
mod common;

use fl_obs::trace::{collect_spans, TraceSpan};
use fl_obs::Recorder;
use fl_rl::snapshot::CheckpointStore;
use fl_serve::protocol::codes;
use fl_serve::{
    trace_id, ChaosModel, ChaosPlan, ChaosProxy, DecisionServer, ResilientClient, RetryPolicy,
    ServeClient, ServeOptions, WireRequest,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Decides per traced workload.
const DECIDES: usize = 16;

/// Starts a server over the shared fixture snapshot with an in-memory
/// recorder (returned for span inspection) and optional extra tuning.
fn traced_server(tag: &str, opts: ServeOptions) -> (DecisionServer, Recorder, Vec<Vec<f64>>) {
    let dir = common::temp_dir(tag);
    let (sys, snap) = common::make_snapshot(31);
    let rows = common::obs_rows(&sys, &common::obs_times(DECIDES));
    let store = CheckpointStore::new(&dir).unwrap();
    snap.save(&store).unwrap();
    let recorder = Recorder::in_memory();
    let opts = ServeOptions {
        recorder: recorder.clone(),
        ..opts
    };
    let server = DecisionServer::start(&dir, "127.0.0.1:0", opts).unwrap();
    (server, recorder, rows)
}

/// The client's retry discipline for these suites: tight, seeded, bounded.
fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 30,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(30),
        jitter_frac: 0.5,
        seed,
        budget: Some(Duration::from_secs(20)),
        io_timeout: Some(Duration::from_millis(800)),
    }
}

#[test]
fn traced_decides_emit_one_span_per_request_and_leave_det_projection_alone() {
    let (server, rec, rows) = traced_server("trace-e2e", ServeOptions::default());
    let mut client = ResilientClient::new(server.local_addr(), policy(42)).unwrap();
    client.set_tracing(true);
    for row in &rows {
        client.decide(row).unwrap();
    }
    client.ping().unwrap();
    server.shutdown();

    let text = rec.events_text();
    let spans = collect_spans(&text);
    let decides: Vec<&TraceSpan> = spans.iter().filter(|s| s.op == "decide").collect();
    assert_eq!(decides.len(), DECIDES, "one span per traced decide");
    for (i, span) in decides.iter().enumerate() {
        assert_eq!(span.trace_id, trace_id(42, i as u64), "id stream mismatch");
        assert_eq!(span.attempt, 0, "no retries happened on a clean network");
        assert_eq!(span.outcome, "ok");
        assert_eq!(span.seq, Some(1));
        for stage in ["queue_wait", "batch_linger", "inference", "write"] {
            assert!(
                span.stages_us.contains_key(stage),
                "decide span missing stage {stage}: {span:?}"
            );
        }
        let staged: f64 = span.stages_us.values().sum();
        assert!(
            span.total_us >= 0.0 && staged <= span.total_us * 1.5 + 1.0,
            "stage sum {staged} wildly exceeds total {}",
            span.total_us
        );
    }
    // The ping rode the trace stream too — next id after the decides.
    // Pings never enter the batcher, so the span carries only the
    // end-to-end duration, no per-stage breakdown.
    let ping = spans.iter().find(|s| s.op == "ping").expect("ping span");
    assert_eq!(ping.trace_id, trace_id(42, DECIDES as u64));
    assert_eq!(ping.outcome, "ok");
    assert!(ping.stages_us.is_empty());
    assert!(ping.total_us >= 0.0);

    // Trace events are physical: none of them survives into the
    // deterministic projection.
    let det = fl_obs::det_projection(&text).unwrap();
    assert!(
        det.iter().all(|l| !l.contains("\"ev\":\"trace\"")),
        "trace events leaked into the det projection"
    );
}

#[test]
fn untraced_requests_emit_no_trace_events() {
    let (server, rec, rows) = traced_server("trace-off", ServeOptions::default());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for row in rows.iter().take(4) {
        client.decide(row).unwrap();
    }
    client.ping().unwrap();
    server.shutdown();
    assert!(
        collect_spans(&rec.events_text()).is_empty(),
        "untraced traffic must not fabricate trace events"
    );
}

#[test]
fn stats_carry_the_stage_summary() {
    let (server, _rec, rows) = traced_server("trace-stats", ServeOptions::default());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for row in &rows {
        client.decide(row).unwrap();
    }
    let stats = client.stats().unwrap();
    let stages = stats.stages.expect("stats must carry the stage summary");
    // Stage histograms are observed for every decide, traced or not.
    assert_eq!(stages.queue_wait_us.count, DECIDES as u64);
    assert_eq!(stages.inference_us.count, DECIDES as u64);
    assert!(stages.write_us.count >= DECIDES as u64);
    assert_eq!(stages.shed_admission, 0);
    assert_eq!(stages.shed_queue, 0);
    server.shutdown();
}

#[test]
fn metrics_op_serves_prometheus_exposition() {
    let (server, _rec, rows) = traced_server("trace-metrics", ServeOptions::default());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for row in rows.iter().take(3) {
        client.decide(row).unwrap();
    }
    let text = client.metrics().unwrap();
    assert!(
        text.contains("# TYPE serve_stage_queue_wait_us histogram"),
        "missing stage histogram:\n{text}"
    );
    assert!(text.contains("serve_decisions 3"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert!(text.contains("serve_stage_inference_us_count 3"), "{text}");
    server.shutdown();
}

/// The batch loop counts a batch before it replies, so `stats` read right
/// after an answered `decide` on the same connection always includes it.
#[test]
fn stats_count_every_answered_decide() {
    let (server, _rec, rows) = traced_server("trace-count", ServeOptions::default());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for answered in 1..=400u64 {
        client
            .decide(&rows[answered as usize % rows.len()])
            .unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.decisions, answered,
            "stats lag the replies after {answered} decides"
        );
    }
    server.shutdown();
}

#[test]
fn scrape_listener_answers_http_and_raw_tcp() {
    let opts = ServeOptions {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    };
    let (server, _rec, rows) = traced_server("trace-scrape", opts);
    let addr = server.metrics_addr().expect("scrape listener bound");
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.decide(&rows[0]).unwrap();

    // HTTP/1.0-shaped scrape, raw sockets only.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    assert!(body.contains("serve_decisions 1"), "{body}");
    assert!(body.contains("le=\"+Inf\""), "{body}");

    // A silent raw-TCP peer gets the same snapshot after the read grace.
    let mut mute = TcpStream::connect(addr).unwrap();
    let mut again = String::new();
    mute.read_to_string(&mut again).unwrap();
    assert!(again.starts_with("HTTP/1.0 200 OK\r\n"), "{again}");
    server.shutdown();
}

/// An object-shaped `trace` value built from key/value pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

/// Draws a trace context that is malformed *by construction* — every
/// variant violates one documented validation rule.
fn draw_malformed_trace(rng: &mut rand_chacha::ChaCha8Rng) -> Value {
    let variant = (0usize..14).sample(rng);
    let num = (-1e9f64..1e9).sample(rng);
    let valid_id = Value::String("aaaa".to_string());
    match variant {
        // Not an object at all.
        0 => Value::Bool((0u64..2).sample(rng) == 1),
        1 => Value::Number(num),
        2 => Value::String(format!("s{}", (0u64..1_000).sample(rng))),
        3 => Value::Array(vec![Value::Number(1.0)]),
        // NB: a bare `null` is NOT malformed — it decodes as "no trace".
        // id missing or of the wrong type.
        4 => obj(vec![("id", Value::Null)]),
        5 => obj(vec![]),
        6 => obj(vec![("id", Value::Number(num))]),
        // id empty, oversized, or with characters outside the allowlist.
        7 => obj(vec![("id", Value::String(String::new()))]),
        8 => obj(vec![(
            "id",
            Value::String("x".repeat((65usize..200).sample(rng))),
        )]),
        9 => obj(vec![(
            "id",
            Value::String(format!("a{} b", (0u64..1_000).sample(rng))),
        )]),
        // attempt negative, fractional, too large, or the wrong type.
        10 => obj(vec![
            ("id", valid_id),
            (
                "attempt",
                Value::Number(-((1u64..1_000).sample(rng) as f64)),
            ),
        ]),
        11 => obj(vec![("id", valid_id), ("attempt", Value::Number(0.5))]),
        12 => obj(vec![
            ("id", valid_id),
            (
                "attempt",
                Value::Number((1_000_001u64..10_000_000).sample(rng) as f64),
            ),
        ]),
        _ => obj(vec![
            ("id", valid_id),
            ("attempt", Value::String("3".to_string())),
        ]),
    }
}

#[test]
fn malformed_trace_is_bad_request_and_the_connection_survives() {
    let (server, _rec, rows) = traced_server("trace-fuzz", ServeOptions::default());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let client = std::cell::RefCell::new(client);
    proptest::run_proptest(
        &ProptestConfig::with_cases(128),
        "malformed_trace_is_bad_request",
        |rng| {
            let junk = draw_malformed_trace(rng);
            let mut c = client.borrow_mut();
            let request = WireRequest::decide(rows[0].clone()).with_trace(junk.clone());
            let response = c.request(&request).expect("connection must stay usable");
            prop_assert!(!response.ok, "malformed trace accepted: {junk:?}");
            prop_assert_eq!(response.code.as_deref(), Some(codes::BAD_REQUEST));
            // The same connection still serves the next clean decide.
            let (seq, _) = c.decide(&rows[0]).expect("connection must survive");
            prop_assert_eq!(seq, 1);
            Ok(())
        },
    );
    server.shutdown();
}

#[test]
fn trace_id_stream_is_deterministic_across_runs() {
    let run = |tag: &str| -> Vec<(String, u64, String, String, Option<u64>)> {
        let (server, rec, rows) = traced_server(tag, ServeOptions::default());
        let mut client = ResilientClient::new(server.local_addr(), policy(7)).unwrap();
        client.set_tracing(true);
        for row in rows.iter().take(12) {
            client.decide(row).unwrap();
        }
        server.shutdown();
        collect_spans(&rec.events_text())
            .into_iter()
            .map(|s| (s.trace_id, s.attempt, s.op, s.outcome, s.seq))
            .collect()
    };
    let a = run("trace-det-a");
    let b = run("trace-det-b");
    assert_eq!(a, b, "trace structure must replay exactly");
    assert_eq!(a.len(), 12);
    for (i, (id, attempt, op, outcome, seq)) in a.iter().enumerate() {
        assert_eq!(id, &trace_id(7, i as u64));
        assert_eq!((*attempt, op.as_str()), (0, "decide"));
        assert_eq!((outcome.as_str(), *seq), ("ok", Some(1)));
    }
}

#[test]
fn chaos_retries_share_a_trace_id_with_increasing_attempts() {
    let (server, rec, rows) = traced_server("trace-chaos", ServeOptions::default());
    let plan = ChaosPlan::new(
        ChaosModel {
            tear_chunk: 16,
            ..ChaosModel::hostile()
        },
        13,
    );
    let proxy = ChaosProxy::start(server.local_addr(), plan).unwrap();
    let mut client = ResilientClient::new(proxy.local_addr(), policy(42)).unwrap();
    client.set_tracing(true);
    for row in &rows {
        client.decide(row).unwrap();
    }
    assert!(
        client.retries_total() >= 1,
        "pinned chaos seed no longer forces retries — pick another seed"
    );
    server.shutdown();

    let spans = collect_spans(&rec.events_text());
    assert!(!spans.is_empty());
    // Every server-side span belongs to the deterministic id stream the
    // client was issuing.
    let expected: Vec<String> = (0..rows.len() as u64).map(|i| trace_id(42, i)).collect();
    let mut by_trace: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for span in &spans {
        assert!(
            expected.contains(&span.trace_id),
            "span carries an id the client never issued: {span:?}"
        );
        by_trace
            .entry(span.trace_id.as_str())
            .or_default()
            .push(span.attempt);
    }
    // Sibling attempts under one trace arrive in strictly increasing
    // attempt order (chaos may eat attempts, so gaps are fine; going
    // backwards or repeating is not).
    for (id, attempts) in &by_trace {
        assert!(
            attempts.windows(2).all(|w| w[0] < w[1]),
            "trace {id}: attempts not strictly increasing: {attempts:?}"
        );
    }
    // Retries happened, so some attempt past the first reached the server.
    assert!(
        spans.iter().any(|s| s.attempt >= 1),
        "no sibling attempt ever reached the server despite {} retries",
        client.retries_total()
    );
}
