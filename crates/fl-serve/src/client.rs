//! Blocking clients for the serving protocol.
//!
//! [`ServeClient`] is the raw single-connection client — used by the test
//! suites, the load generator, and anyone embedding a decision client in
//! Rust. The wire format is trivial enough (see [`crate::protocol`]) that
//! other languages need ~20 lines to speak it.
//!
//! [`ResilientClient`] wraps it with the retry discipline a real
//! aggregator needs: reconnect on any transport-shaped failure, bounded
//! retries with ChaCha-seeded exponential backoff + jitter
//! ([`RetryPolicy`]), honoring the server's `retry_after_ms` hints, and
//! retryable/non-retryable classification via
//! [`ServeError::is_retryable`]. The backoff schedule is a pure function
//! of `(seed, attempt)` — bit-stable across reconnects and processes, so
//! chaos tests can pin it exactly.

use crate::protocol::{
    decode_json, encode_json, read_frame, write_frame, FrameRead, ServeStats, TraceContext,
    WireRequest, WireResponse,
};
use crate::ServeError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A blocking connection to a [`crate::DecisionServer`].
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Guards blocking reads with a timeout (off by default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Guards blocking writes with a timeout (off by default).
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sends a request frame and reads the response frame.
    pub fn request(&mut self, request: &WireRequest) -> Result<WireResponse, ServeError> {
        write_frame(&mut self.stream, &encode_json(request)?)?;
        self.read_response()
    }

    /// Sends raw bytes verbatim — no framing. Protocol tests use this to
    /// put malformed traffic on the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Sends `payload` wrapped in a well-formed frame.
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    /// Reads one response frame.
    ///
    /// EOF and timeout surface as the distinct [`ServeError::ConnectionClosed`]
    /// and [`ServeError::TimedOut`] variants so retry classification never
    /// has to string-match. Both (and any framing violation) leave the
    /// stream possibly desynchronized — see [`ServeError::needs_reconnect`].
    pub fn read_response(&mut self) -> Result<WireResponse, ServeError> {
        match read_frame(&mut self.stream) {
            Ok(FrameRead::Frame(payload)) => decode_json(&payload),
            Ok(FrameRead::Eof) => Err(ServeError::ConnectionClosed),
            Ok(FrameRead::Idle) => Err(ServeError::TimedOut),
            Err(e) => Err(ServeError::Protocol(format!("bad response frame: {e:?}"))),
        }
    }

    fn expect_ok(response: WireResponse) -> Result<WireResponse, ServeError> {
        if response.ok {
            Ok(response)
        } else {
            let retry_after_ms = response.retry_after_ms;
            let stage = response.stage.clone();
            let (code, msg) = response.error_parts();
            Err(ServeError::Server {
                code,
                msg,
                retry_after_ms,
                stage,
            })
        }
    }

    /// One decision: observation in, `(snapshot seq, frequencies)` out.
    pub fn decide(&mut self, obs: &[f64]) -> Result<(u64, Vec<f64>), ServeError> {
        self.decide_request(&WireRequest::decide(obs.to_vec()))
    }

    /// One decision pinned to a config digest.
    pub fn decide_pinned(
        &mut self,
        obs: &[f64],
        digest: u32,
    ) -> Result<(u64, Vec<f64>), ServeError> {
        self.decide_request(&WireRequest::decide_pinned(obs.to_vec(), digest))
    }

    /// Sends an arbitrary `decide`-shaped request (e.g. one built with
    /// [`WireRequest::with_deadline`]) and unpacks the decision.
    pub fn decide_request(&mut self, request: &WireRequest) -> Result<(u64, Vec<f64>), ServeError> {
        let response = Self::expect_ok(self.request(request)?)?;
        match (response.seq, response.freqs) {
            (Some(seq), Some(freqs)) => Ok((seq, freqs)),
            _ => Err(ServeError::Protocol(
                "decide response missing seq or freqs".to_string(),
            )),
        }
    }

    /// Liveness probe: returns `(serving seq, config digest)`.
    pub fn ping(&mut self) -> Result<(u64, u32), ServeError> {
        let response = Self::expect_ok(self.request(&WireRequest::ping())?)?;
        match (response.seq, response.digest) {
            (Some(seq), Some(digest)) => Ok((seq, digest)),
            _ => Err(ServeError::Protocol(
                "ping response missing seq or digest".to_string(),
            )),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let response = Self::expect_ok(self.request(&WireRequest::stats())?)?;
        response
            .stats
            .ok_or_else(|| ServeError::Protocol("stats response missing stats".to_string()))
    }

    /// Fetches the server's live Prometheus-style exposition text.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let response = Self::expect_ok(self.request(&WireRequest::metrics())?)?;
        response
            .metrics
            .ok_or_else(|| ServeError::Protocol("metrics response missing text".to_string()))
    }

    /// Asks the server to adopt the newest store snapshot. Returns
    /// `(swapped, now-serving seq)`.
    pub fn reload(&mut self) -> Result<(bool, u64), ServeError> {
        let response = Self::expect_ok(self.request(&WireRequest::reload())?)?;
        match (response.reloaded, response.seq) {
            (Some(swapped), Some(seq)) => Ok((swapped, seq)),
            _ => Err(ServeError::Protocol(
                "reload response missing fields".to_string(),
            )),
        }
    }
}

/// Derives a trace id from a retry seed and a per-client request index:
/// a splitmix64-style mix rendered as 16 hex digits. A pure function, so
/// a client replayed with the same seed issues the same trace ids — and
/// the ids carry no wall-clock or host state.
pub fn trace_id(seed: u64, index: u64) -> String {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    format!("{z:016x}")
}

/// Retry discipline for [`ResilientClient`]: bounded attempts, seeded
/// exponential backoff with jitter, and an overall wall-clock budget.
///
/// The delay before retry `k` is a **pure function** of `(seed, k)` — see
/// [`RetryPolicy::backoff_delay`] — so two clients with the same policy
/// produce bit-identical schedules, and the schedule does not drift when
/// connections are torn down and rebuilt in between.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = fail fast).
    pub max_retries: u32,
    /// First backoff delay; retry `k` starts from `base * 2^k`.
    pub base: Duration,
    /// Upper bound on any single delay (after jitter).
    pub cap: Duration,
    /// Jitter half-width as a fraction of the exponential delay: the
    /// jittered delay is uniform in `[(1-f)·d, (1+f)·d)`. Clamped to
    /// `[0, 1]`; `0` disables jitter.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Total wall-clock budget across all attempts of one request: a
    /// retry that cannot fit (elapsed + next delay ≥ budget) is not
    /// attempted and the last error is returned. `None` = retries are
    /// bounded only by `max_retries`.
    pub budget: Option<Duration>,
    /// Read/write timeout installed on every (re)connected stream, so a
    /// stalled server or network surfaces as [`ServeError::TimedOut`]
    /// instead of a hang. `None` = block forever.
    pub io_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(1_000),
            jitter_frac: 0.5,
            seed: 0xF15EED,
            budget: Some(Duration::from_secs(30)),
            io_timeout: Some(Duration::from_secs(2)),
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based): `base * 2^attempt`,
    /// capped, then jittered by a uniform draw from a fresh ChaCha8
    /// keyed by `seed` with the stream index set to `attempt` — the
    /// [`fl_sim::fault::FaultPlan`]-style stateless random access that
    /// makes the whole schedule a pure, replayable function of the
    /// policy. Exactly one draw per attempt, unconditionally, so turning
    /// jitter off and on never shifts other attempts' draws.
    ///
    /// [`fl_sim::fault::FaultPlan`]: ../../fl_sim/fault/struct.FaultPlan.html
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.cap);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_stream(u64::from(attempt));
        let u: f64 = rng.gen_range(0.0..1.0);
        let frac = self.jitter_frac.clamp(0.0, 1.0);
        let scale = 1.0 - frac + 2.0 * frac * u;
        exp.mul_f64(scale).min(self.cap)
    }

    /// The full delay schedule one request may sleep through: delays for
    /// attempts `0..max_retries`, truncated at the first delay whose
    /// cumulative sum would exceed `budget`. By construction
    /// `planned_delays().iter().sum() < budget` whenever a budget is set
    /// (the proptest in `tests/serve_chaos.rs` pins this).
    pub fn planned_delays(&self) -> Vec<Duration> {
        let mut total = Duration::ZERO;
        let mut out = Vec::new();
        for attempt in 0..self.max_retries {
            let d = self.backoff_delay(attempt);
            if let Some(budget) = self.budget {
                if total + d >= budget {
                    break;
                }
            }
            total += d;
            out.push(d);
        }
        out
    }
}

/// A [`ServeClient`] wrapped in reconnect-and-retry armor.
///
/// Every operation runs under the [`RetryPolicy`]: transport-shaped
/// failures ([`ServeError::needs_reconnect`]) tear the connection down
/// and rebuild it before the next attempt; transient server refusals
/// (`overloaded`, `deadline_exceeded`, `shutting_down`) are retried on
/// the live connection, honoring any `retry_after_ms` hint (the larger
/// of hint and backoff wins, still capped by `policy.cap`).
/// Non-retryable errors (`dim_mismatch`, `digest_mismatch`, ...) return
/// immediately. Connection setup is lazy, so the client can be built
/// while the server (or a chaos proxy in front of it) is still down.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<ServeClient>,
    retries_total: u64,
    reconnects_total: u64,
    giveups_total: u64,
    /// When true, every `decide`/`ping` carries a trace context: id from
    /// `trace_id(policy.seed, request index)`, attempt from the retry
    /// loop — so retries appear as sibling spans under one trace.
    tracing: bool,
    /// Requests issued so far (indexes the trace-id stream).
    requests_issued: u64,
}

impl ResilientClient {
    /// Resolves `addr` and builds the client. Does **not** connect yet —
    /// the first operation does, under the retry policy.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, ServeError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        Ok(ResilientClient {
            addr,
            policy,
            conn: None,
            retries_total: 0,
            reconnects_total: 0,
            giveups_total: 0,
            tracing: false,
            requests_issued: 0,
        })
    }

    /// The policy this client retries under.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Turns wire-propagated tracing on or off (off by default). With
    /// tracing on, each operation draws the next id from the
    /// deterministic `trace_id(policy.seed, index)` stream and stamps
    /// every attempt with its 0-based attempt number.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Retries slept through so far (across all operations).
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Connections torn down because an error left the stream suspect.
    pub fn reconnects_total(&self) -> u64 {
        self.reconnects_total
    }

    fn ensure_conn(&mut self) -> Result<&mut ServeClient, ServeError> {
        if self.conn.is_none() {
            let mut client = ServeClient::connect(self.addr)?;
            client.set_read_timeout(self.policy.io_timeout)?;
            client.set_write_timeout(self.policy.io_timeout)?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient, u32) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = match self.ensure_conn() {
                Ok(conn) => op(conn, attempt),
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if err.needs_reconnect() {
                // The stream may be desynchronized (a timed-out response
                // could still arrive and be misattributed to the next
                // request), so it must never be reused.
                self.conn = None;
                self.reconnects_total += 1;
            }
            if !err.is_retryable() || attempt >= self.policy.max_retries {
                self.giveups_total += 1;
                return Err(err);
            }
            let mut delay = self.policy.backoff_delay(attempt);
            if let Some(hint) = err.retry_after() {
                delay = delay.max(hint).min(self.policy.cap);
            }
            if let Some(budget) = self.policy.budget {
                if start.elapsed() + delay >= budget {
                    self.giveups_total += 1;
                    return Err(err);
                }
            }
            std::thread::sleep(delay);
            self.retries_total += 1;
            attempt += 1;
        }
    }

    /// Draws the next trace id (advancing the request index), or `None`
    /// with tracing off. The index advances either way, so toggling
    /// tracing never shifts the id stream of later requests.
    fn next_trace_id(&mut self) -> Option<String> {
        let index = self.requests_issued;
        self.requests_issued += 1;
        self.tracing.then(|| trace_id(self.policy.seed, index))
    }

    /// Stamps `request` with this trace/attempt pair, when tracing is on.
    fn stamp(request: &WireRequest, tid: &Option<String>, attempt: u32) -> WireRequest {
        match tid {
            Some(id) => request
                .clone()
                .with_trace(TraceContext::new(id.as_str(), u64::from(attempt)).to_value()),
            None => request.clone(),
        }
    }

    /// One decision with retries: observation in, `(seq, freqs)` out.
    pub fn decide(&mut self, obs: &[f64]) -> Result<(u64, Vec<f64>), ServeError> {
        self.decide_request(&WireRequest::decide(obs.to_vec()))
    }

    /// An arbitrary `decide`-shaped request (deadline-carrying, pinned,
    /// ...) with retries.
    pub fn decide_request(&mut self, request: &WireRequest) -> Result<(u64, Vec<f64>), ServeError> {
        let tid = self.next_trace_id();
        self.with_retries(|c, attempt| c.decide_request(&Self::stamp(request, &tid, attempt)))
    }

    /// Liveness probe with retries.
    pub fn ping(&mut self) -> Result<(u64, u32), ServeError> {
        let tid = self.next_trace_id();
        let request = WireRequest::ping();
        self.with_retries(|c, attempt| {
            let response =
                ServeClient::expect_ok(c.request(&Self::stamp(&request, &tid, attempt))?)?;
            match (response.seq, response.digest) {
                (Some(seq), Some(digest)) => Ok((seq, digest)),
                _ => Err(ServeError::Protocol(
                    "ping response missing seq or digest".to_string(),
                )),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            jitter_frac: 0.5,
            seed,
            budget: None,
            io_timeout: None,
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_seed_sensitive() {
        let a: Vec<_> = (0..6).map(|k| policy(7).backoff_delay(k)).collect();
        let b: Vec<_> = (0..6).map(|k| policy(7).backoff_delay(k)).collect();
        let c: Vec<_> = (0..6).map(|k| policy(8).backoff_delay(k)).collect();
        assert_eq!(a, b, "same seed must give a bit-identical schedule");
        assert_ne!(a, c, "different seeds must jitter differently");
    }

    #[test]
    fn backoff_stays_within_jitter_envelope_and_cap() {
        let p = policy(42);
        for k in 0..6 {
            let exp = p.base.saturating_mul(1 << k).min(p.cap);
            let d = p.backoff_delay(k);
            assert!(d <= p.cap, "attempt {k}: {d:?} exceeds cap");
            assert!(
                d >= exp.mul_f64(0.5) && d <= exp.mul_f64(1.5).min(p.cap),
                "attempt {k}: {d:?} outside the ±50% envelope of {exp:?}"
            );
        }
    }

    #[test]
    fn zero_jitter_gives_pure_exponential() {
        let mut p = policy(3);
        p.jitter_frac = 0.0;
        assert_eq!(p.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(p.backoff_delay(5), Duration::from_millis(200), "capped");
    }

    #[test]
    fn planned_delays_respect_budget() {
        let mut p = policy(11);
        p.budget = Some(Duration::from_millis(35));
        let delays = p.planned_delays();
        let total: Duration = delays.iter().sum();
        assert!(total < Duration::from_millis(35));
        assert!(delays.len() < 6, "budget must truncate the schedule");
    }

    #[test]
    fn planned_delays_unbudgeted_covers_every_retry() {
        assert_eq!(policy(1).planned_delays().len(), 6);
    }

    #[test]
    fn trace_ids_are_pure_distinct_and_wire_legal() {
        assert_eq!(trace_id(7, 0), trace_id(7, 0));
        assert_ne!(trace_id(7, 0), trace_id(7, 1));
        assert_ne!(trace_id(7, 0), trace_id(8, 0));
        let id = trace_id(0xF15EED, 3);
        assert_eq!(id.len(), 16);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        // Every id passes the server-side validation gate.
        let ctx = TraceContext::new(id, 0);
        assert!(TraceContext::parse(&ctx.to_value()).is_ok());
    }
}
