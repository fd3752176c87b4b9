//! # fl-pool — work-stealing thread pool for deterministic fan-out.
//!
//! The pool runs a fixed batch of indexed tasks on `workers` logical
//! workers and returns the results **in task-index order**, no matter which
//! worker executed which task or in what sequence. That slot-indexed
//! collection is the primitive every parallel layer above (vectorized
//! rollouts, seed sweeps, controller comparisons, row-split matmuls) relies
//! on for thread-count-invariant results: parallelism may reorder
//! *execution*, never *observation*.
//!
//! Scheduling is classic work stealing: task indices are dealt round-robin
//! into one deque per worker; a worker pops its own deque from the front
//! and, when empty, steals from the back of its neighbors'. Because tasks
//! never enqueue new tasks, a worker that finds every deque empty can
//! retire immediately.
//!
//! The threads live as long as the process. Helper threads are spawned
//! lazily, up to the widest width requested so far minus one, and park
//! between jobs; the calling thread always runs as worker 0. A call posts
//! one ticket per further logical worker and runs worker 0's loop. It then
//! withdraws every ticket no helper has claimed and runs those loops itself
//! (they return at once when the deques are empty), and only then waits,
//! and only for the tickets a helper did claim. So a call never waits on a
//! helper that is busy with another caller, and a call made from inside a
//! pool task, on any thread, runs inline: nested and concurrent callers
//! always make progress.
//!
//! This crate sits *below* `fl-nn` in the dependency graph so the blocked
//! GEMM can row-split across the same pool the rollout runner uses.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-worker execution telemetry, reported by the benchmark binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: usize,
    /// How many of those tasks were stolen from another worker's deque.
    pub steals: usize,
    /// Wall-clock time spent inside task bodies (excludes idle/steal time).
    pub busy: Duration,
}

impl WorkerStats {
    /// JSON form for observability events. Everything here is scheduling
    /// telemetry — physical by nature, never part of a deterministic
    /// event.
    pub fn obs_value(&self) -> serde_json::Value {
        serde_json::json!({
            "worker": self.worker as f64,
            "tasks": self.tasks as f64,
            "steals": self.steals as f64,
            "busy_s": self.busy.as_secs_f64(),
        })
    }
}

/// Outcome of [`run_indexed`]: results in task order plus telemetry.
#[derive(Debug)]
pub struct PoolRun<R> {
    /// `results[i]` is the output of task `i`, regardless of scheduling.
    pub results: Vec<R>,
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock duration of the whole batch.
    pub wall: Duration,
}

impl<R> PoolRun<R> {
    /// Total busy time across workers (the serial-equivalent cost).
    #[cfg(test)]
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// One-line human summary of the batch ("4 workers, 2.13x speedup").
    #[cfg(test)]
    pub fn timing_line(&self) -> String {
        let wall = self.wall.as_secs_f64();
        let busy = self.total_busy().as_secs_f64();
        let speedup = if wall > 0.0 { busy / wall } else { 1.0 };
        let per_worker: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "w{}: {} tasks ({} stolen) {:.2}s",
                    w.worker,
                    w.tasks,
                    w.steals,
                    w.busy.as_secs_f64()
                )
            })
            .collect();
        format!(
            "{} workers, wall {:.2}s, busy {:.2}s, speedup {:.2}x [{}]",
            self.workers.len(),
            wall,
            busy,
            speedup,
            per_worker.join("; ")
        )
    }
}

/// Builds the physical `pool_round` observability event from worker
/// telemetry and a wall-clock duration. Callers that aggregate stats
/// across many pool rounds (the batched rollout runs one `env.step`
/// fan-out per step) emit it without holding a `PoolRun`.
pub fn round_event(label: &str, workers: &[WorkerStats], wall: Duration) -> fl_obs::Event {
    let per_worker = serde_json::Value::Array(workers.iter().map(WorkerStats::obs_value).collect());
    let busy: Duration = workers.iter().map(|w| w.busy).sum();
    fl_obs::Event::phys("pool_round")
        .s("label", label)
        .u("workers", workers.len() as u64)
        .u(
            "tasks",
            workers.iter().map(|w| w.tasks).sum::<usize>() as u64,
        )
        .wall_val("per_worker", per_worker)
        .wall_f("s", wall.as_secs_f64())
        .wall_f("busy_s", busy.as_secs_f64())
}

/// Default worker count: the machine's available parallelism, resolved
/// once per process. `available_parallelism` re-reads the cgroup CPU quota
/// on every call (tens of µs), and every parallel matmul asks.
pub fn default_workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Worker count honoring the `FL_WORKERS` environment variable: the parsed
/// value when it is a positive integer, otherwise [`default_workers`].
///
/// `FL_WORKERS` is read on every call (an env lookup is nothing next to
/// the work a pool round fans out), so CI matrices and tests that vary it
/// per-invocation see the live value; only the default is cached. Thanks to the determinism contract
/// the value only ever changes wall-clock time, never results — callers on
/// hot paths (the parallel matmul) need no further validation or warning
/// plumbing here; `fl-bench`'s `workers_from_env_obs` adds the loud
/// variant for the CLI binaries on top of [`env_workers_setting`].
pub fn env_workers() -> usize {
    env_workers_setting()
        .ok()
        .flatten()
        .unwrap_or_else(default_workers)
}

/// The one `FL_WORKERS` parse: `Ok(None)` when the variable is unset,
/// `Ok(Some(w))` for a positive integer (surrounding whitespace allowed),
/// and `Err(raw)` with the raw value for anything else (zero, negative,
/// garbage).
pub fn env_workers_setting() -> Result<Option<usize>, String> {
    let Ok(raw) = std::env::var("FL_WORKERS") else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(w) if w >= 1 => Ok(Some(w)),
        _ => Err(raw),
    }
}

/// Runs `f(i, items[i])` for every item on a work-stealing pool of
/// `workers` logical workers and returns the results in item order.
///
/// The scheduling is nondeterministic; the output is not: `results[i]`
/// always corresponds to `items[i]`, and `f` receives each item exactly
/// once. With `workers <= 1` (or a single item) everything runs on the
/// calling thread, which doubles as the reference behavior the
/// determinism tests compare against. A task that panics re-raises its own
/// payload in the caller, once every worker of the call has stopped.
pub fn run_indexed<T, R, F>(workers: usize, items: Vec<T>, f: F) -> PoolRun<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    POOL.run(workers, items, f)
}

/// The process-wide pool behind [`run_indexed`].
static POOL: Pool = Pool::new();

thread_local! {
    /// Set while this thread runs a worker loop: a call made from inside a
    /// pool task runs every logical worker inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a pool task until dropped.
struct InTask(bool);

impl InTask {
    fn enter() -> Self {
        InTask(IN_TASK.replace(true))
    }
}

impl Drop for InTask {
    fn drop(&mut self) {
        IN_TASK.set(self.0);
    }
}

/// What a call shares with the helpers: its worker loops, and how many of
/// its tickets a helper has claimed and not yet finished. `claimed`
/// changes only under the pool lock.
struct Job<'a> {
    /// Runs logical worker `w`'s loop; never unwinds.
    run: &'a (dyn Fn(usize) + Sync + 'a),
    claimed: AtomicUsize,
}

/// One logical worker of a posted call, waiting for a helper.
struct Ticket {
    job: &'static Job<'static>,
    worker: usize,
}

struct State {
    /// Posted tickets no helper has claimed yet.
    queue: VecDeque<Ticket>,
    /// Helper threads spawned so far.
    helpers: usize,
}

/// Resident helper threads and the queue of tickets they take work from.
struct Pool {
    state: Mutex<State>,
    /// Helpers park here until a ticket is posted.
    posted: Condvar,
    /// Callers park here until their claimed tickets finish.
    finished: Condvar,
}

/// Erases the lifetime of a call's [`Job`] so its tickets can sit in the
/// process-wide queue.
#[allow(unsafe_code)]
fn erase<'a>(job: &'a Job<'a>) -> &'static Job<'static> {
    // SAFETY: `Pool::run` neither returns nor unwinds while any ticket
    // that points at `job` can still run. Every ticket is either still in
    // the queue, where the caller withdraws it under the pool lock, or was
    // claimed under that lock, which raised `job.claimed`; the caller then
    // waits under the same lock until `claimed` is back to zero, and a
    // helper lowers it as its last access to `job`. Every worker loop runs
    // under `catch_unwind`, and nothing else between posting and that wait
    // can unwind, so the frame `job` lives in outlasts every use.
    unsafe { std::mem::transmute::<&'a Job<'a>, &'static Job<'static>>(job) }
}

type WorkerOutput<R> = (WorkerStats, Vec<(usize, R)>);

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                helpers: 0,
            }),
            posted: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    /// Helpers held by the pool.
    #[cfg(test)]
    fn helpers(&self) -> usize {
        self.state.lock().helpers
    }

    fn run<T, R, F>(&'static self, workers: usize, items: Vec<T>, f: F) -> PoolRun<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n_tasks = items.len();
        let n_workers = workers.max(1).min(n_tasks.max(1));
        let start = Instant::now();

        if n_workers <= 1 {
            let mut stats = WorkerStats {
                worker: 0,
                tasks: 0,
                steals: 0,
                busy: Duration::ZERO,
            };
            let mut results = Vec::with_capacity(n_tasks);
            for (i, item) in items.into_iter().enumerate() {
                let t0 = Instant::now();
                results.push(f(i, item));
                stats.busy += t0.elapsed();
                stats.tasks += 1;
            }
            return PoolRun {
                results,
                workers: vec![stats],
                wall: start.elapsed(),
            };
        }

        // Task slots: each item is taken exactly once by whichever worker
        // wins its index. Deques hold indices, dealt round-robin so the
        // initial distribution is balanced without coordination.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..n_workers)
            .map(|w| {
                Mutex::new(
                    (0..n_tasks)
                        .filter(|i| i % n_workers == w)
                        .collect::<VecDeque<usize>>(),
                )
            })
            .collect();
        let outputs: Vec<Mutex<Option<WorkerOutput<R>>>> =
            (0..n_workers).map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<Box<dyn Any + Send>>> = Mutex::new(Vec::new());
        let abort = AtomicBool::new(false);

        let worker_loop = |w: usize| {
            let mut stats = WorkerStats {
                worker: w,
                tasks: 0,
                steals: 0,
                busy: Duration::ZERO,
            };
            let mut produced: Vec<(usize, R)> = Vec::new();
            while !abort.load(Ordering::Relaxed) {
                // Own deque first (front), then steal (back) walking the
                // ring of victims starting at the right neighbor.
                let mut found: Option<(usize, bool)> =
                    queues[w].lock().pop_front().map(|i| (i, false));
                if found.is_none() {
                    for v in 1..n_workers {
                        let victim = (w + v) % n_workers;
                        if let Some(i) = queues[victim].lock().pop_back() {
                            found = Some((i, true));
                            break;
                        }
                    }
                }
                let Some((idx, stolen)) = found else {
                    // Tasks never spawn tasks: empty everywhere = done.
                    break;
                };
                let Some(item) = slots[idx].lock().take() else {
                    continue; // lost a race for an index; keep scanning
                };
                let t0 = Instant::now();
                produced.push((idx, f(idx, item)));
                stats.busy += t0.elapsed();
                stats.tasks += 1;
                stats.steals += usize::from(stolen);
            }
            (stats, produced)
        };
        let run = |w: usize| {
            let _in_task = InTask::enter();
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                *outputs[w].lock() = Some(worker_loop(w));
            }));
            if let Err(payload) = ran {
                abort.store(true, Ordering::Relaxed);
                panics.lock().push(payload);
            }
        };
        let job = Job {
            run: &run,
            claimed: AtomicUsize::new(0),
        };

        if IN_TASK.get() {
            for w in 0..n_workers {
                run(w);
            }
        } else {
            let job = erase(&job);
            self.post(job, n_workers);
            run(0);
            for w in self.withdraw(job) {
                run(w);
            }
            self.wait(job);
        }

        let mut panics = panics.into_inner();
        if !panics.is_empty() {
            panic::resume_unwind(panics.swap_remove(0));
        }
        let mut workers_out = Vec::with_capacity(n_workers);
        let mut ordered: Vec<Option<R>> = Vec::new();
        ordered.resize_with(n_tasks, || None);
        for out in outputs {
            let (stats, produced) = out.into_inner().expect("every worker reports");
            workers_out.push(stats);
            for (idx, r) in produced {
                debug_assert!(ordered[idx].is_none(), "task {idx} executed twice");
                ordered[idx] = Some(r);
            }
        }
        PoolRun {
            results: ordered
                .into_iter()
                .map(|r| r.expect("every task executed"))
                .collect(),
            workers: workers_out,
            wall: start.elapsed(),
        }
    }

    /// Posts tickets for workers `1..n_workers` of `job`, growing the
    /// helper set to `n_workers - 1` first if it is smaller.
    fn post(&'static self, job: &'static Job<'static>, n_workers: usize) {
        let spawn = {
            let mut state = self.state.lock();
            let spawn = (n_workers - 1).saturating_sub(state.helpers);
            state.helpers += spawn;
            state
                .queue
                .extend((1..n_workers).map(|worker| Ticket { job, worker }));
            spawn
        };
        for _ in 1..n_workers {
            self.posted.notify_one();
        }
        // Helpers are never joined: they live as long as the process, and
        // nothing they run can unwind (every worker loop catches panics).
        for _ in 0..spawn {
            let helper = std::thread::Builder::new()
                .name("fl-pool".to_string())
                .spawn(move || self.serve());
            if helper.is_err() {
                // The caller runs every unclaimed ticket itself, so a
                // missing helper costs parallelism, never progress.
                self.state.lock().helpers -= 1;
            }
        }
    }

    /// Removes `job`'s unclaimed tickets from the queue and returns their
    /// worker indices.
    fn withdraw(&self, job: &'static Job<'static>) -> Vec<usize> {
        let mut mine = Vec::new();
        self.state.lock().queue.retain(|t| {
            let own = std::ptr::eq(t.job, job);
            if own {
                mine.push(t.worker);
            }
            !own
        });
        mine
    }

    /// Blocks until no helper is running a ticket of `job`.
    fn wait(&self, job: &Job<'_>) {
        drop(self.finished.wait_while(self.state.lock(), |_| {
            job.claimed.load(Ordering::Relaxed) > 0
        }));
    }

    /// A helper's life: claim a ticket, run its worker loop, report, repeat.
    fn serve(&'static self) {
        // Everything a helper runs is a pool task.
        IN_TASK.set(true);
        let mut state = self.state.lock();
        loop {
            let Some(ticket) = state.queue.pop_front() else {
                state = self.posted.wait(state);
                continue;
            };
            ticket.job.claimed.fetch_add(1, Ordering::Relaxed);
            drop(state);
            (ticket.job.run)(ticket.worker);
            state = self.state.lock();
            ticket.job.claimed.fetch_sub(1, Ordering::Relaxed);
            self.finished.notify_all();
        }
    }
}

pub mod tree {
    //! Fixed-arity reduction trees: the aggregation-order contract behind
    //! fleet sharding.
    //!
    //! A sharded reduction is bit-stable only if the floating-point
    //! operation sequence is a pure function of the *element count*, never
    //! of the shard layout. These helpers pin that sequence: elements are
    //! summed left-to-right within fixed-arity groups, group partials are
    //! then reduced the same way, level by level, until one value remains.
    //! Shards that cover whole groups (see [`aligned_shard_ranges`]) can
    //! compute level-1 partials in parallel and hand them to
    //! [`reduce_group_partials`]; the result is bitwise identical to
    //! the tree sum of the flat input (the test-only `tree_sum_arity`
    //! reference) — and, for at most
    //! [`TREE_ARITY`] elements, identical to a plain left-to-right
    //! `Iterator::sum`, which is why the fleet engine agrees bit-for-bit
    //! with the small-N per-device simulator.

    /// The reduction-tree arity every fleet aggregation uses. Eight keeps
    /// a single group bit-identical to the historical flat folds over the
    /// paper-scale fleets (N <= 8) while bounding tree depth at
    /// `log_8(N)` — four levels cover a million devices.
    pub const TREE_ARITY: usize = 8;

    /// Sums `values` with a fixed-arity reduction tree: left-to-right
    /// within each `arity`-sized group, then the group partials are
    /// reduced the same way until one value remains. The FP op sequence
    /// depends only on `values.len()` and `arity`. One to `arity` values
    /// degenerate to a plain left-to-right fold — bitwise exactly
    /// `values.iter().sum::<f64>()`. Empty input sums to positive `0.0`
    /// (std's empty float `sum()` yields `-0.0`; the fleet never reduces
    /// an empty list, so the edge is pinned here for documentation only).
    ///
    /// # Panics
    /// Panics if `arity < 2` (a 1-ary "tree" would never terminate).
    #[cfg(test)]
    pub fn tree_sum_arity(values: &[f64], arity: usize) -> f64 {
        reduce_group_partials(group_partials(values, arity), arity)
    }

    /// The level-1 partials of the reduction tree: one left-to-right sum
    /// per `arity`-sized group of `values` (the last group may be short).
    /// Shards whose ranges are group-aligned compute these independently;
    /// concatenating the per-shard outputs in shard order reproduces the
    /// single-threaded level-1 array bit-for-bit.
    #[cfg(test)]
    pub fn group_partials(values: &[f64], arity: usize) -> Vec<f64> {
        assert!(arity >= 2, "reduction tree arity must be at least 2");
        values.chunks(arity).map(|c| c.iter().sum()).collect()
    }

    /// Finishes a reduction from already-computed level-1 group partials:
    /// repeatedly chunk-sums with the same `arity` until one value
    /// remains. `tree_sum_arity(v, a)` is by construction
    /// `reduce_group_partials(group_partials(v, a), a)`.
    pub fn reduce_group_partials(partials: Vec<f64>, arity: usize) -> f64 {
        assert!(arity >= 2, "reduction tree arity must be at least 2");
        let mut level = partials;
        if level.is_empty() {
            return 0.0;
        }
        while level.len() > 1 {
            level = level.chunks(arity).map(|c| c.iter().sum()).collect();
        }
        level[0]
    }

    /// Splits `n` elements into at most `shards` contiguous ranges whose
    /// boundaries fall on multiples of `arity`, so every shard covers
    /// whole reduction-tree groups. Groups are dealt as evenly as
    /// possible (the first `groups % shards` shards get one extra).
    /// Returns fewer ranges than requested when there are fewer groups
    /// than shards; `n == 0` yields no ranges. The concatenation of the
    /// ranges is always exactly `0..n`.
    pub fn aligned_shard_ranges(
        n: usize,
        shards: usize,
        arity: usize,
    ) -> Vec<std::ops::Range<usize>> {
        assert!(arity >= 2, "reduction tree arity must be at least 2");
        if n == 0 {
            return Vec::new();
        }
        let groups = n.div_ceil(arity);
        let s = shards.max(1).min(groups);
        let base = groups / s;
        let extra = groups % s;
        let mut ranges = Vec::with_capacity(s);
        let mut group_start = 0usize;
        for i in 0..s {
            let take = base + usize::from(i < extra);
            let group_end = group_start + take;
            ranges.push((group_start * arity)..(group_end * arity).min(n));
            group_start = group_end;
        }
        ranges
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn small_inputs_match_flat_sum_bitwise() {
            // At most TREE_ARITY values: the tree is one left-to-right
            // group — the historical flat fold.
            let values = [0.1, 0.7, 1e-9, 3.5, -2.25, 0.3, 9.75, 0.125];
            for len in 1..=TREE_ARITY {
                let v = &values[..len];
                assert_eq!(
                    tree_sum_arity(v, TREE_ARITY).to_bits(),
                    v.iter().sum::<f64>().to_bits(),
                    "len={len}"
                );
            }
        }

        #[test]
        fn partials_then_reduce_equals_tree_sum() {
            let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.013).collect();
            for arity in [2, 3, 8] {
                let direct = tree_sum_arity(&values, arity);
                let partials = group_partials(&values, arity);
                assert_eq!(
                    direct.to_bits(),
                    reduce_group_partials(partials, arity).to_bits()
                );
            }
        }

        #[test]
        fn sharded_partials_are_layout_invariant() {
            // Concatenating group partials computed per aligned shard must
            // reproduce the whole-array partials for ANY shard count.
            let values: Vec<f64> = (0..517).map(|i| (i as f64 * 0.731).sin()).collect();
            let whole = group_partials(&values, TREE_ARITY);
            for shards in [1, 2, 3, 7, 8, 64, 517, 1000] {
                let ranges = aligned_shard_ranges(values.len(), shards, TREE_ARITY);
                let stitched: Vec<f64> = ranges
                    .iter()
                    .flat_map(|r| group_partials(&values[r.clone()], TREE_ARITY))
                    .collect();
                let whole_bits: Vec<u64> = whole.iter().map(|v| v.to_bits()).collect();
                let stitched_bits: Vec<u64> = stitched.iter().map(|v| v.to_bits()).collect();
                assert_eq!(whole_bits, stitched_bits, "shards={shards}");
            }
        }

        #[test]
        fn aligned_ranges_partition_exactly() {
            for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
                for shards in [1usize, 2, 8, 64, 2000] {
                    let ranges = aligned_shard_ranges(n, shards, TREE_ARITY);
                    let mut cursor = 0usize;
                    for r in &ranges {
                        assert_eq!(r.start, cursor, "n={n} shards={shards}");
                        assert!(r.start % TREE_ARITY == 0);
                        assert!(r.end > r.start);
                        cursor = r.end;
                    }
                    assert_eq!(cursor, n, "n={n} shards={shards}");
                    assert!(ranges.len() <= shards.max(1));
                }
            }
        }

        #[test]
        fn empty_input_sums_to_zero() {
            assert_eq!(tree_sum_arity(&[], TREE_ARITY), 0.0);
            assert_eq!(reduce_group_partials(Vec::new(), TREE_ARITY), 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_task_order() {
        for workers in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..37).collect();
            let run = run_indexed(workers, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(
                run.results,
                (0u64..37).map(|x| x * x).collect::<Vec<_>>(),
                "workers={workers}"
            );
            let total: usize = run.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(total, 37);
        }
    }

    #[test]
    fn default_is_cached_and_fl_workers_still_overrides() {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(default_workers(), machine);
        assert_eq!(default_workers(), machine);
        // The only test in this crate that touches `FL_WORKERS`.
        let saved = std::env::var("FL_WORKERS").ok();
        std::env::set_var("FL_WORKERS", (machine + 3).to_string());
        assert_eq!(env_workers(), machine + 3);
        std::env::set_var("FL_WORKERS", "0");
        assert_eq!(env_workers(), machine);
        std::env::remove_var("FL_WORKERS");
        assert_eq!(env_workers(), machine);
        if let Some(v) = saved {
            std::env::set_var("FL_WORKERS", v);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let run = run_indexed(4, Vec::<u8>::new(), |_, x| x);
        assert!(run.results.is_empty());
    }

    #[test]
    fn each_item_consumed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let run = run_indexed(8, vec![(); 100], |_, ()| {
            counter.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let mut seen: Vec<usize> = run.results;
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_tasks_get_stolen() {
        // One long task pinned to worker 0's deque plus many short ones:
        // with stealing, the short tasks finish elsewhere while worker 0 is
        // busy. We only assert correctness (stealing is opportunistic), but
        // record that steal accounting stays consistent.
        let items: Vec<u64> = (0..64).collect();
        let run = run_indexed(4, items, |i, x| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(run.results, (1u64..=64).collect::<Vec<_>>());
        let stolen: usize = run.workers.iter().map(|w| w.steals).sum();
        let tasks: usize = run.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks, 64);
        assert!(stolen <= tasks);
    }

    #[test]
    fn timing_line_mentions_every_worker() {
        let run = run_indexed(3, vec![1, 2, 3, 4, 5], |_, x| x);
        let line = run.timing_line();
        for w in 0..run.workers.len() {
            assert!(line.contains(&format!("w{w}:")), "{line}");
        }
    }

    #[test]
    fn a_panicking_task_re_raises_its_own_payload() {
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(workers, (0..16).collect(), |i, x: usize| {
                    if i == 11 {
                        panic!("task 11 failed");
                    }
                    x
                })
            });
            let payload = caught.expect_err("the task's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task 11 failed"),
                "workers={workers}"
            );
        }
        // The pool still serves calls afterwards.
        let run = run_indexed(2, vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(run.results, [2, 4, 6]);
    }

    #[test]
    fn a_task_that_fans_out_completes_with_the_serial_results() {
        let inner = |i: usize| -> Vec<u64> {
            run_indexed(4, (0..9u64).collect(), |j, x| x * 100 + i as u64 + j as u64).results
        };
        let serial: Vec<Vec<u64>> = (0..12).map(inner).collect();
        for workers in [2, 4] {
            let run = run_indexed(workers, (0..12).collect(), |_, i| inner(i));
            assert_eq!(run.results, serial, "workers={workers}");
            assert_eq!(run.workers.len(), workers);
        }
    }

    #[test]
    fn concurrent_callers_all_get_slot_ordered_results() {
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                scope.spawn(move || {
                    for call in 0..500u64 {
                        let n = 1 + (call % 7) as usize;
                        let items: Vec<u64> = (0..n as u64).collect();
                        let workers = 2 + (call % 3) as usize;
                        let run = run_indexed(workers, items, |i, x| (caller, call, i as u64 + x));
                        let want: Vec<(u64, u64, u64)> =
                            (0..n as u64).map(|i| (caller, call, 2 * i)).collect();
                        assert_eq!(run.results, want, "caller={caller} call={call}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_pool_holds_one_helper_fewer_than_its_widest_call() {
        static POOL: Pool = Pool::new();
        assert_eq!(POOL.helpers(), 0);
        POOL.run(1, vec![0u8; 8], |_, x| x);
        assert_eq!(POOL.helpers(), 0, "a serial call spawns nothing");
        for call in 0..10_000u32 {
            let run = POOL.run(2, vec![call, call + 1], |i, x| x + i as u32);
            assert_eq!(run.results, [call, call + 2]);
        }
        assert_eq!(POOL.helpers(), 1);
        POOL.run(3, vec![(); 2], |_, ()| ());
        assert_eq!(POOL.helpers(), 1, "width is capped at the task count");
        POOL.run(3, vec![(); 3], |_, ()| ());
        assert_eq!(POOL.helpers(), 2);
    }

    #[test]
    fn four_workers_at_least_halve_wall_clock() {
        // The wall-clock acceptance check for the pool itself: the same
        // 8-task workload must finish at least 2x faster on 4 workers than
        // on 1. Tasks *block* rather than spin so the test also holds on a
        // single-core CI box (sleeps overlap; only the scheduler is under
        // test). CPU-bound workloads scale the same way up to the physical
        // core count — `abl_seeds` prints the live numbers per run.
        let task = |_i: usize, ()| std::thread::sleep(Duration::from_millis(30));
        let serial = run_indexed(1, vec![(); 8], task);
        let par = run_indexed(4, vec![(); 8], task);
        assert_eq!(par.workers.len(), 4);
        assert!(
            2.0 * par.wall.as_secs_f64() < serial.wall.as_secs_f64(),
            "expected >=2x speedup at 4 workers: serial {:?}, parallel {:?}",
            serial.wall,
            par.wall
        );
    }
}
