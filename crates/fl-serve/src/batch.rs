//! The micro-batching queue between connection threads and the single
//! inference thread.
//!
//! Connection threads validate a `decide` request, push a [`Pending`]
//! entry, and block on their private response channel. The inference
//! thread wakes on the first entry, lingers briefly for stragglers (the
//! batching window), drains up to `max_batch` entries, and runs them
//! through one `[n × obs]` policy forward. Because the blocked kernels
//! are row-count independent and the Welford normalizer is per-element,
//! batching never changes served bits — only latency.
//!
//! ## Overload semantics
//!
//! The queue is **bounded** (`max_depth`): under sustained overload it
//! refuses new entries at admission ([`BatchQueue::try_push`] returns the
//! entry back) instead of growing without limit while every queued
//! request's latency climbs. Entries that carry a deadline and expire
//! while waiting are **shed during the drain** ([`Drained::expired`]) —
//! before inference, without occupying a batch slot — so a backed-up
//! queue burns no policy forwards on answers nobody is waiting for.
//!
//! Built on `std::sync::{Mutex, Condvar}`: the vendored `parking_lot`
//! shim has no `wait_timeout`, and the linger window needs one.

use fl_ctrl::ControllerSnapshot;
use fl_obs::Gauge;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The snapshot occupying the serving slot. The inference thread clones
/// the containing `Arc` once per micro-batch, so a hot-reload swapping the
/// slot never tears a batch across two snapshots.
pub(crate) struct Loaded {
    /// The deployable controller artifact.
    pub snap: ControllerSnapshot,
    /// Store sequence number this snapshot was loaded under.
    pub seq: u64,
}

/// Structured failure sent back over a [`Pending`] channel instead of a
/// decision. The connection thread maps it onto a wire error code.
pub(crate) enum BatchError {
    /// The entry's deadline expired in the queue; it was shed before
    /// inference. Carries how long the entry waited, for the error msg.
    Deadline {
        /// Queue wait at shed time, milliseconds.
        waited_ms: u64,
    },
    /// The policy forward itself failed (unexpected — dims are validated
    /// at admission).
    Internal(String),
}

/// Batch-level timestamps the inference thread stamps for every drain, so
/// connection threads can decompose a request's latency into pipeline
/// stages without a second clock read per entry:
///
/// * `queue_wait`  = `window_open - enqueued` (per entry),
/// * `batch_linger` = `collected - max(enqueued, window_open)`,
/// * `inference`   = `infer_end - infer_start`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchTiming {
    /// When the batching window opened (first entry seen by `collect`).
    pub window_open: Instant,
    /// When the drain completed (linger window closed).
    pub collected: Instant,
    /// Policy forward start. Stamped before any configured inference
    /// slowdown so fault injection shows up as inference time.
    pub infer_start: Instant,
    /// Policy forward end.
    pub infer_end: Instant,
}

/// What the inference thread sends back per request: the serving snapshot
/// sequence, the frequency vector, and the batch's stage timestamps — or
/// a structured failure.
pub(crate) type DecisionResult = Result<(u64, Vec<f64>, BatchTiming), BatchError>;

/// One queued decision request.
pub(crate) struct Pending {
    /// The raw (unnormalized) observation row.
    pub obs: Vec<f64>,
    /// Where the requesting connection thread waits for the answer.
    pub tx: Sender<DecisionResult>,
    /// Absolute expiry, when the request carries a deadline budget.
    pub deadline: Option<Instant>,
    /// Admission time, for the `waited_ms` diagnostic on sheds.
    pub enqueued: Instant,
}

/// One drain of the queue: entries to run through the policy forward, and
/// entries whose deadline expired while they waited (to be answered with
/// `deadline_exceeded`, never evaluated).
pub(crate) struct Drained {
    /// Live entries, at most `max_batch` of them, FIFO order preserved.
    pub live: Vec<Pending>,
    /// Expired entries shed during this drain. They do not count against
    /// `max_batch` — shedding frees batch slots rather than eating them.
    pub expired: Vec<Pending>,
    /// When `collect` first saw a non-empty queue (batch window opened).
    pub window_open: Instant,
    /// When the drain completed (after the linger window).
    pub collected: Instant,
}

/// Bounded FIFO of pending decisions, shared by all connection threads and
/// the inference thread.
pub(crate) struct BatchQueue {
    queue: Mutex<VecDeque<Pending>>,
    cv: Condvar,
    max_depth: usize,
    /// Live queue depth, mirrored to fl-obs after every push/drain.
    depth_gauge: Gauge,
}

impl BatchQueue {
    pub(crate) fn new(max_depth: usize, depth_gauge: Gauge) -> Self {
        BatchQueue {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            max_depth: max_depth.max(1),
            depth_gauge,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        // A panicking holder cannot leave the VecDeque in an invalid state
        // (push/drain are atomic under the lock), so recover from poison.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current queue depth (admitted, not yet drained).
    pub(crate) fn depth(&self) -> usize {
        self.lock().len()
    }

    /// Attempts to enqueue a request. `Ok` wakes the inference thread and
    /// returns the depth after the push; `Err` hands the entry back when
    /// the queue is at capacity — the caller sheds it with `overloaded`.
    pub(crate) fn try_push(&self, pending: Pending) -> Result<usize, Pending> {
        let depth = {
            let mut q = self.lock();
            if q.len() >= self.max_depth {
                return Err(pending);
            }
            q.push_back(pending);
            q.len()
        };
        self.depth_gauge.set(depth as f64);
        self.cv.notify_all();
        Ok(depth)
    }

    /// Blocks until at least one request is pending, lingers up to
    /// `linger` for more (bounded by `max_batch`), and drains the batch,
    /// splitting out entries whose deadline has already expired. Returns
    /// an entirely empty [`Drained`] only when `shutdown` is set and the
    /// queue is empty — the inference thread's exit signal.
    pub(crate) fn collect(
        &self,
        max_batch: usize,
        linger: Duration,
        shutdown: &AtomicBool,
    ) -> Drained {
        let max_batch = max_batch.max(1);
        let mut q = self.lock();
        while q.is_empty() {
            if shutdown.load(Ordering::Acquire) {
                let now = Instant::now();
                return Drained {
                    live: Vec::new(),
                    expired: Vec::new(),
                    window_open: now,
                    collected: now,
                };
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        let window_open = Instant::now();
        if !linger.is_zero() && q.len() < max_batch && !shutdown.load(Ordering::Acquire) {
            let deadline = window_open + linger;
            loop {
                let now = Instant::now();
                if now >= deadline || q.len() >= max_batch || shutdown.load(Ordering::Acquire) {
                    break;
                }
                let (guard, _) = self
                    .cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        }
        // Drain front-to-back: expired entries are shed without counting
        // against the batch, so one slow burst cannot starve live work.
        let now = Instant::now();
        let mut live = Vec::new();
        let mut expired = Vec::new();
        while live.len() < max_batch {
            let Some(front) = q.front() else { break };
            let is_expired = front.deadline.is_some_and(|d| d <= now);
            let entry = q.pop_front().expect("front exists");
            if is_expired {
                expired.push(entry);
            } else {
                live.push(entry);
            }
        }
        self.depth_gauge.set(q.len() as f64);
        Drained {
            live,
            expired,
            window_open,
            collected: now,
        }
    }

    /// Wakes the inference thread (shutdown path).
    pub(crate) fn notify(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn queue(max: usize) -> BatchQueue {
        BatchQueue::new(max, Gauge::default())
    }

    fn pending(v: f64) -> (Pending, std::sync::mpsc::Receiver<DecisionResult>) {
        let (tx, rx) = channel();
        (
            Pending {
                obs: vec![v],
                tx,
                deadline: None,
                enqueued: Instant::now(),
            },
            rx,
        )
    }

    fn pending_expired(v: f64) -> (Pending, std::sync::mpsc::Receiver<DecisionResult>) {
        let (mut p, rx) = pending(v);
        p.deadline = Some(Instant::now() - Duration::from_millis(1));
        (p, rx)
    }

    #[test]
    fn collect_drains_up_to_max_batch_in_order() {
        let q = queue(64);
        let stop = AtomicBool::new(false);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (p, rx) = pending(i as f64);
            q.try_push(p).map_err(|_| ()).unwrap();
            rxs.push(rx);
        }
        let batch = q.collect(3, Duration::ZERO, &stop);
        assert_eq!(batch.live.len(), 3);
        assert!(batch.expired.is_empty());
        assert_eq!(batch.live[0].obs, vec![0.0]);
        assert_eq!(batch.live[2].obs, vec![2.0]);
        let rest = q.collect(3, Duration::ZERO, &stop);
        assert_eq!(rest.live.len(), 2);
        assert_eq!(rest.live[1].obs, vec![4.0]);
    }

    #[test]
    fn try_push_bounds_depth() {
        let q = queue(2);
        let (p0, _rx0) = pending(0.0);
        let (p1, _rx1) = pending(1.0);
        let (p2, _rx2) = pending(2.0);
        assert_eq!(q.try_push(p0).map_err(|_| ()).unwrap(), 1);
        assert_eq!(q.try_push(p1).map_err(|_| ()).unwrap(), 2);
        let rejected = q.try_push(p2).expect_err("queue is full");
        assert_eq!(rejected.obs, vec![2.0], "entry handed back intact");
        assert_eq!(q.depth(), 2);
        // Draining frees capacity again.
        let stop = AtomicBool::new(false);
        let drained = q.collect(8, Duration::ZERO, &stop);
        assert_eq!(drained.live.len(), 2);
        let (p3, _rx3) = pending(3.0);
        assert!(q.try_push(p3).is_ok());
    }

    #[test]
    fn expired_entries_shed_without_eating_batch_slots() {
        let q = queue(64);
        let stop = AtomicBool::new(false);
        let mut rxs = Vec::new();
        // expired, live, expired, live, live — batch of 2 must still get
        // 2 live entries while both expired ones shed in the same drain.
        for (i, exp) in [(0, true), (1, false), (2, true), (3, false), (4, false)] {
            let (p, rx) = if exp {
                pending_expired(i as f64)
            } else {
                pending(i as f64)
            };
            q.try_push(p).map_err(|_| ()).unwrap();
            rxs.push(rx);
        }
        let drained = q.collect(2, Duration::ZERO, &stop);
        assert_eq!(drained.live.len(), 2);
        assert_eq!(drained.live[0].obs, vec![1.0]);
        assert_eq!(drained.live[1].obs, vec![3.0]);
        assert_eq!(drained.expired.len(), 2);
        assert_eq!(drained.expired[0].obs, vec![0.0]);
        assert_eq!(drained.expired[1].obs, vec![2.0]);
        assert_eq!(q.depth(), 1, "the last live entry waits for next drain");
    }

    #[test]
    fn depth_gauge_tracks_push_and_drain() {
        let rec = fl_obs::Recorder::in_memory();
        let q = BatchQueue::new(8, rec.gauge("q.depth"));
        let depth = || rec.metrics_snapshot().gauges[0].clone();
        let (p0, _rx0) = pending(0.0);
        let (p1, _rx1) = pending(1.0);
        q.try_push(p0).map_err(|_| ()).unwrap();
        q.try_push(p1).map_err(|_| ()).unwrap();
        assert_eq!(depth(), ("q.depth".to_string(), 2.0));
        let stop = AtomicBool::new(false);
        let _ = q.collect(8, Duration::ZERO, &stop);
        assert_eq!(depth(), ("q.depth".to_string(), 0.0));
    }

    #[test]
    fn collect_returns_empty_on_shutdown() {
        let q = Arc::new(queue(8));
        let stop = Arc::new(AtomicBool::new(false));
        let (q2, stop2) = (Arc::clone(&q), Arc::clone(&stop));
        let h = std::thread::spawn(move || q2.collect(8, Duration::ZERO, &stop2));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Release);
        q.notify();
        let drained = h.join().unwrap();
        assert!(drained.live.is_empty() && drained.expired.is_empty());
    }

    #[test]
    fn linger_window_gathers_stragglers() {
        let q = Arc::new(queue(8));
        let stop = AtomicBool::new(false);
        let (first, _rx1) = pending(1.0);
        q.try_push(first).map_err(|_| ()).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (late, rx) = pending(2.0);
            q2.try_push(late).map_err(|_| ()).unwrap();
            rx
        });
        let batch = q.collect(8, Duration::from_millis(500), &stop);
        let _rx2 = h.join().unwrap();
        assert_eq!(
            batch.live.len(),
            2,
            "linger window should catch the straggler"
        );
    }
}
