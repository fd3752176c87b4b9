//! A deterministic network-chaos proxy for torturing the serving path.
//!
//! [`ChaosProxy`] is a std-TCP relay that sits between a client and a
//! [`crate::DecisionServer`], injecting latency, connection resets,
//! torn (tiny-chunk) writes, and byte corruption. What happens to each
//! connection is decided by a [`ChaosPlan`] — the same seeded
//! random-access idiom as `fl_sim::fault::FaultPlan`: the chaos for
//! connection `i` in direction `d` is derived *statelessly* from a fresh
//! ChaCha8 keyed by the plan seed with the stream index set to
//! `i * 2 + d`. Any run with the same seed, model, and client workload
//! replays the same faults.
//!
//! Two design rules keep the chaos reproducible under real TCP:
//!
//! * **Events key off byte offsets, not read chunks.** TCP is free to
//!   fragment a stream differently on every run, so "corrupt the 3rd
//!   read" is nondeterministic — "corrupt byte 97 of the stream" is not.
//!   Delays fire at fixed byte-offset thresholds, resets cut the relay
//!   after an exact byte count, corruption flips one exact byte.
//! * **Fixed draw count per connection.** Each `(conn, direction)`
//!   consumes exactly seven uniform draws, unconditionally, so changing
//!   one probability in the model never shifts the noise driving the
//!   other chaos channels (the `FaultPlan` trick).
//!
//! Corruption flips a byte by XOR `0xFF`. Flipping a *length-prefix or
//! magic* byte yields `bad_magic`/framing errors; flipping a *payload*
//! byte yields `bad_json` or a digest of garbage — either way the damage
//! is detected, never silently served, which is what the chaos soak
//! asserts. Downstream-only corruption is the mode the bit-exactness
//! suite uses: a corrupted response always fails framing or JSON
//! decoding at the client, so every *successful* decide is guaranteed
//! uncorrupted (upstream corruption could craft a parseable-but-wrong
//! request, which is a robustness concern, not a bit-exactness one —
//! it gets its own test without bit assertions).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The distribution of network chaos: per-connection, per-direction
/// probabilities and parameter ranges. All channels are independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosModel {
    /// P(a connection direction gets latency injection).
    pub latency_prob: f64,
    /// Injected delay lower bound.
    pub delay_min: Duration,
    /// Injected delay upper bound (≥ `delay_min`).
    pub delay_max: Duration,
    /// A latency-afflicted direction sleeps once every this many relayed
    /// bytes (thresholds at `k * delay_every_bytes`, `k ≥ 1`).
    pub delay_every_bytes: u64,
    /// P(a connection direction is reset mid-stream).
    pub reset_prob: f64,
    /// Reset point lower bound (bytes relayed before the cut).
    pub reset_min_bytes: u64,
    /// Reset point upper bound (≥ `reset_min_bytes`).
    pub reset_max_bytes: u64,
    /// P(a connection direction gets exactly one corrupted byte).
    pub corrupt_prob: f64,
    /// Corrupted byte offset lower bound.
    pub corrupt_min_byte: u64,
    /// Corrupted byte offset upper bound (≥ `corrupt_min_byte`).
    pub corrupt_max_byte: u64,
    /// Whether corruption may hit client→server traffic.
    pub corrupt_upstream: bool,
    /// Whether corruption may hit server→client traffic.
    pub corrupt_downstream: bool,
    /// P(a connection direction relays in torn, tiny-chunk writes).
    pub tear_prob: f64,
    /// Chunk size for torn writes (bytes; each chunk is flushed and
    /// separated by a 1 ms pause so the peer really sees partial frames).
    pub tear_chunk: usize,
}

impl ChaosModel {
    /// The chaos-free model: every probability zero. A proxy under this
    /// model is a transparent relay.
    pub fn none() -> Self {
        ChaosModel {
            latency_prob: 0.0,
            delay_min: Duration::ZERO,
            delay_max: Duration::ZERO,
            delay_every_bytes: 1 << 20,
            reset_prob: 0.0,
            reset_min_bytes: 0,
            reset_max_bytes: 0,
            corrupt_prob: 0.0,
            corrupt_min_byte: 0,
            corrupt_max_byte: 0,
            corrupt_upstream: false,
            corrupt_downstream: true,
            tear_prob: 0.0,
            tear_chunk: 3,
        }
    }

    /// A ready-made hostile network: 30% latency (1–5 ms every 64 bytes),
    /// 25% resets within the first 256 bytes, 25% downstream corruption
    /// in the first 128 bytes, 30% torn 3-byte writes.
    pub fn hostile() -> Self {
        ChaosModel {
            latency_prob: 0.3,
            delay_min: Duration::from_millis(1),
            delay_max: Duration::from_millis(5),
            delay_every_bytes: 64,
            reset_prob: 0.25,
            reset_min_bytes: 8,
            reset_max_bytes: 256,
            corrupt_prob: 0.25,
            corrupt_min_byte: 0,
            corrupt_max_byte: 128,
            corrupt_upstream: false,
            corrupt_downstream: true,
            tear_prob: 0.3,
            tear_chunk: 3,
        }
    }
}

impl Default for ChaosModel {
    fn default() -> Self {
        ChaosModel::none()
    }
}

/// Traffic direction through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    Upstream,
    /// Server → client.
    Downstream,
}

impl Direction {
    fn stream_index(self) -> u64 {
        match self {
            Direction::Upstream => 0,
            Direction::Downstream => 1,
        }
    }
}

/// A seeded chaos realization schedule. [`ChaosPlan::conn_chaos`] is a
/// pure function: any caller can materialize any connection's chaos in
/// any order and get bit-identical results.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    model: ChaosModel,
    seed: u64,
}

impl ChaosPlan {
    /// Builds the plan for a model and seed.
    pub fn new(model: ChaosModel, seed: u64) -> Self {
        ChaosPlan { model, seed }
    }

    /// Derives the chaos for `(conn, direction)` statelessly: a fresh
    /// ChaCha8 keyed by the plan seed, stream `conn * 2 + direction`,
    /// exactly seven unconditional uniform draws.
    pub fn conn_chaos(&self, conn: u64, direction: Direction) -> ConnChaos {
        let m = &self.model;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_stream(conn.wrapping_mul(2).wrapping_add(direction.stream_index()));
        let u_latency: f64 = rng.gen_range(0.0..1.0);
        let u_delay: f64 = rng.gen_range(0.0..1.0);
        let u_reset: f64 = rng.gen_range(0.0..1.0);
        let u_reset_at: f64 = rng.gen_range(0.0..1.0);
        let u_corrupt: f64 = rng.gen_range(0.0..1.0);
        let u_corrupt_at: f64 = rng.gen_range(0.0..1.0);
        let u_tear: f64 = rng.gen_range(0.0..1.0);

        let span = |lo: u64, hi: u64, u: f64| lo + ((hi.saturating_sub(lo)) as f64 * u) as u64;
        let delay_every = (u_latency < m.latency_prob).then(|| {
            let range = (m.delay_max - m.delay_min).as_secs_f64();
            (
                m.delay_every_bytes.max(1),
                m.delay_min + Duration::from_secs_f64(range * u_delay),
            )
        });
        let reset_after = (u_reset < m.reset_prob)
            .then(|| span(m.reset_min_bytes, m.reset_max_bytes, u_reset_at));
        let corrupt_allowed = match direction {
            Direction::Upstream => m.corrupt_upstream,
            Direction::Downstream => m.corrupt_downstream,
        };
        let corrupt_at = (corrupt_allowed && u_corrupt < m.corrupt_prob)
            .then(|| span(m.corrupt_min_byte, m.corrupt_max_byte, u_corrupt_at));
        ConnChaos {
            delay_every,
            reset_after,
            corrupt_at,
            tear_chunk: (u_tear < m.tear_prob).then_some(m.tear_chunk.max(1)),
        }
    }
}

/// The realized chaos for one `(connection, direction)` stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnChaos {
    /// Sleep `duration` every `bytes` relayed, when present.
    pub delay_every: Option<(u64, Duration)>,
    /// Cut the connection (both directions) after exactly this many
    /// bytes have been relayed in this direction.
    pub reset_after: Option<u64>,
    /// XOR the byte at exactly this stream offset with `0xFF`.
    pub corrupt_at: Option<u64>,
    /// Relay in flushed chunks of this size (torn writes).
    pub tear_chunk: Option<usize>,
}

impl ConnChaos {
    /// True when this stream is a transparent relay.
    #[cfg(test)]
    pub fn is_clean(&self) -> bool {
        self.delay_every.is_none()
            && self.reset_after.is_none()
            && self.corrupt_at.is_none()
            && self.tear_chunk.is_none()
    }
}

/// What the proxy did to a stream, for reproducibility assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Connection index (accept order, 0-based).
    pub conn: u64,
    /// Stream direction the event hit.
    pub direction: Direction,
    /// What happened.
    pub kind: ChaosEventKind,
    /// Byte offset in the stream where it happened.
    pub at_byte: u64,
}

/// Kinds of injected chaos (only *injected* faults are logged — natural
/// EOFs are not, since their timing can race).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// A latency sleep fired at a byte-offset threshold.
    Delay,
    /// One byte was XOR-corrupted.
    Corrupt,
    /// The connection was cut after the given byte count.
    Reset,
}

struct ProxyShared {
    shutdown: AtomicBool,
    events: Mutex<Vec<ChaosEvent>>,
    conn_counter: AtomicU64,
}

/// A running chaos proxy. Dropping it stops the relay.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

/// Poll interval for relay reads, so threads notice shutdown promptly.
const RELAY_POLL: Duration = Duration::from_millis(20);

impl ChaosProxy {
    /// Binds an ephemeral local port and starts relaying every accepted
    /// connection to `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            shutdown: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            conn_counter: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(client) = stream else { continue };
                    let conn = shared.conn_counter.fetch_add(1, Ordering::Relaxed);
                    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2))
                    else {
                        // Upstream down: drop the client connection — the
                        // resilient client treats it like any reset.
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    spawn_relay_pair(&shared, &plan, conn, client, server);
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.shared.conn_counter.load(Ordering::Relaxed)
    }

    /// The injected-fault log so far, in (conn, direction, offset) order
    /// per stream. With a deterministic client workload the log is
    /// reproducible from the plan seed.
    pub fn events(&self) -> Vec<ChaosEvent> {
        let mut events = self
            .shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // Relay threads interleave nondeterministically; a canonical sort
        // makes the log comparable across runs.
        events.sort_by_key(|e| (e.conn, e.direction.stream_index(), e.at_byte));
        events
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_relay_pair(
    shared: &Arc<ProxyShared>,
    plan: &ChaosPlan,
    conn: u64,
    client: TcpStream,
    server: TcpStream,
) {
    let pairs = [
        (Direction::Upstream, client.try_clone(), server.try_clone()),
        (
            Direction::Downstream,
            server.try_clone(),
            client.try_clone(),
        ),
    ];
    for (direction, from, to) in pairs {
        let (Ok(from), Ok(to)) = (from, to) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let chaos = plan.conn_chaos(conn, direction);
        let shared = Arc::clone(shared);
        // Relay threads are detached: they exit on EOF, reset, peer
        // error, or proxy shutdown (the read poll observes the flag).
        std::thread::spawn(move || relay(shared, conn, direction, chaos, from, to));
    }
}

/// Relays one direction of one connection, applying its chaos. `from`
/// and `to` are clones sharing the underlying sockets with the opposite
/// relay thread, so a `Shutdown::Both` here tears down the whole
/// connection — exactly what a reset should do.
fn relay(
    shared: Arc<ProxyShared>,
    conn: u64,
    direction: Direction,
    chaos: ConnChaos,
    mut from: TcpStream,
    mut to: TcpStream,
) {
    let _ = from.set_read_timeout(Some(RELAY_POLL));
    let mut offset: u64 = 0;
    let mut next_delay_at = chaos.delay_every.map(|(every, _)| every);
    let mut buf = [0u8; 4096];
    let log = |kind: ChaosEventKind, at_byte: u64| {
        shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ChaosEvent {
                conn,
                direction,
                kind,
                at_byte,
            });
    };
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Natural EOF: half-close forward so the peer sees it.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => {
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        };
        let mut chunk = buf[..n].to_vec();
        let chunk_start = offset;
        let mut chunk_len = n as u64;
        let mut reset_now = false;

        // Reset: truncate to exactly `reset_after - start` bytes, deliver
        // them, then cut the connection.
        if let Some(cut) = chaos.reset_after {
            if cut < chunk_start + chunk_len {
                chunk_len = cut.saturating_sub(chunk_start);
                chunk.truncate(chunk_len as usize);
                reset_now = true;
            }
        }
        // Corruption: XOR the one byte whose stream offset matches.
        if let Some(at) = chaos.corrupt_at {
            if at >= chunk_start && at < chunk_start + chunk_len {
                chunk[(at - chunk_start) as usize] ^= 0xFF;
                log(ChaosEventKind::Corrupt, at);
            }
        }
        // Latency: sleep once per crossed threshold.
        if let (Some((every, delay)), Some(next)) = (chaos.delay_every, next_delay_at.as_mut()) {
            while *next <= chunk_start + chunk_len {
                log(ChaosEventKind::Delay, *next);
                std::thread::sleep(delay);
                *next += every;
            }
        }
        if !write_chunk(&mut to, &chunk, chaos.tear_chunk) {
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        offset = chunk_start + chunk_len;
        if reset_now {
            log(ChaosEventKind::Reset, offset);
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Writes `chunk`, torn into flushed `tear`-byte pieces with a short
/// pause between them when torn writes are on. `false` = peer gone.
fn write_chunk(to: &mut TcpStream, chunk: &[u8], tear: Option<usize>) -> bool {
    match tear {
        None => to.write_all(chunk).and_then(|()| to.flush()).is_ok(),
        Some(size) => {
            for piece in chunk.chunks(size.max(1)) {
                if to.write_all(piece).and_then(|()| to.flush()).is_err() {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_chaos_is_a_pure_function_of_plan_and_key() {
        let plan = ChaosPlan::new(ChaosModel::hostile(), 99);
        for conn in 0..32 {
            for dir in [Direction::Upstream, Direction::Downstream] {
                assert_eq!(plan.conn_chaos(conn, dir), plan.conn_chaos(conn, dir));
            }
        }
        let other = ChaosPlan::new(ChaosModel::hostile(), 100);
        let differs = (0..32).any(|c| {
            plan.conn_chaos(c, Direction::Downstream) != other.conn_chaos(c, Direction::Downstream)
        });
        assert!(differs, "different seeds must realize different chaos");
    }

    #[test]
    fn directions_get_independent_chaos_streams() {
        let plan = ChaosPlan::new(ChaosModel::hostile(), 7);
        let differs = (0..32).any(|c| {
            plan.conn_chaos(c, Direction::Upstream) != plan.conn_chaos(c, Direction::Downstream)
        });
        assert!(differs);
    }

    #[test]
    fn probability_changes_do_not_shift_other_channels() {
        // The fixed-draw-count contract: zeroing one probability must not
        // change the *realization* of channels that were active.
        let mut with_resets = ChaosModel::hostile();
        let mut without = with_resets;
        without.reset_prob = 0.0;
        // Use full-probability latency so it is active either way.
        with_resets.latency_prob = 1.0;
        without.latency_prob = 1.0;
        let a = ChaosPlan::new(with_resets, 5);
        let b = ChaosPlan::new(without, 5);
        for conn in 0..16 {
            let ca = a.conn_chaos(conn, Direction::Downstream);
            let cb = b.conn_chaos(conn, Direction::Downstream);
            assert_eq!(ca.delay_every, cb.delay_every);
            assert_eq!(ca.corrupt_at, cb.corrupt_at);
            assert_eq!(ca.tear_chunk, cb.tear_chunk);
            assert_eq!(cb.reset_after, None);
        }
    }

    #[test]
    fn none_model_realizes_clean_streams() {
        let plan = ChaosPlan::new(ChaosModel::none(), 1234);
        for conn in 0..16 {
            assert!(plan.conn_chaos(conn, Direction::Upstream).is_clean());
            assert!(plan.conn_chaos(conn, Direction::Downstream).is_clean());
        }
    }
}
