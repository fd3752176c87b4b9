//! Shared measurement core for the kernel differential benchmarks.
//!
//! The blocked kernels exist to be *faster* than the streaming reference
//! kernels while staying bit-identical (see fl-nn's `kernels` module). This
//! module measures that speedup: each case runs the same operation under
//! both [`KernelKind`]s and reports mean ns/iter plus the naive/blocked
//! ratio. Both the `kernel_bench` criterion bench and the `bench_check` CI
//! gate build on it, so the committed baseline and the regression check
//! always measure exactly the same thing.
//!
//! The gate compares *ratios*, not absolute nanoseconds: both families are
//! measured in the same process on the same machine, so the ratio is
//! insensitive to the host's absolute speed while still catching a
//! de-optimized blocked kernel.

use fl_nn::{KernelKind, Matrix};
use fl_rl::{GaussianPolicy, ValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured kernel case: the same op under both kernel families.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelCase {
    /// Case id, e.g. `matmul_64`.
    pub name: String,
    /// Mean ns/iter under the blocked (default) kernels.
    pub blocked_ns: f64,
    /// Mean ns/iter under the naive reference kernels.
    pub naive_ns: f64,
    /// `naive_ns / blocked_ns` — how much faster the blocked family is.
    pub speedup: f64,
}

/// A full measurement sweep, serialized as the committed baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelReport {
    /// Per-case timing budget used for the sweep, in milliseconds.
    pub budget_ms: u64,
    /// All measured cases.
    pub cases: Vec<KernelCase>,
}

/// A benchmarkable kernel operation, runnable under either family.
pub struct KernelOp {
    /// Case id, e.g. `matmul_64`.
    pub name: String,
    f: Box<dyn FnMut(KernelKind)>,
}

impl KernelOp {
    /// Runs the operation once under `kind`.
    pub fn run(&mut self, kind: KernelKind) {
        (self.f)(kind)
    }
}

/// Deterministic dense test matrix; ~1/13 of entries are exactly `0.0`, so
/// the zero-skip fast path is exercised at a realistic (sparse-ish
/// activations) rate in both families.
fn mk(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt * 7) % 13) as f64 - 6.0
    })
}

/// The benchmarked operations. Square matmuls frame the headline number
/// (the dense forward/backward GEMMs); `tn`/`nt` cover the gradient
/// kernels, and `matmul_tn_3200`/`matmul_tn_3200x1` time `tn` at the
/// training minibatch's weight-gradient shapes; the fused case compares
/// one fused sweep against the reference's unfused matmul-then-broadcast;
/// transpose covers the tiled copy; the tanh case compares the in-repo
/// activation against libm.
///
/// The square `matmul_{n}` cases force the serial path (`parallel:
/// false`), so they compare single-thread kernels on any host. The
/// `matmul_tn_64`, `matmul_nt_64` and `matmul_add_bias_64` cases call entry
/// points that choose by shape: 64³ is exactly the parallel-dispatch
/// threshold, so their blocked arm (and the naive `nt` and fused arms)
/// runs as a pool round at `FL_WORKERS` (default: every core) workers,
/// while the naive `tn` never splits. Those three ratios therefore include
/// one fan-out per call on a multi-core host, as does `matmul_tn_3200`'s
/// (`matmul_tn_3200x1` is below the threshold). `bench_check` prints the
/// two training-shape cases but gates nothing on them: no baseline
/// carries them. The three scheduling cases (`matmul_256_par4`,
/// `rollout_forward_batched_32`, `pool_fanout_2`) instead pin the kernel
/// family and vary the *schedule* — worker count, batching, fan-out —
/// which the bit-exactness contract guarantees cannot change results.
pub fn ops() -> Vec<KernelOp> {
    let mut ops = Vec::new();
    for n in [32usize, 64, 128] {
        let a = mk(n, n, 1);
        let b = mk(n, n, 2);
        ops.push(KernelOp {
            name: format!("matmul_{n}"),
            f: Box::new(move |kind| {
                black_box(a.matmul_with(&b, kind, false).unwrap());
            }),
        });
    }
    {
        let a = mk(64, 64, 3);
        let b = mk(64, 64, 4);
        ops.push(KernelOp {
            name: "matmul_tn_64".to_string(),
            f: Box::new(move |kind| {
                black_box(a.matmul_tn_with(&b, kind).unwrap());
            }),
        });
    }
    {
        let a = mk(64, 64, 5);
        let b = mk(64, 64, 6);
        ops.push(KernelOp {
            name: "matmul_nt_64".to_string(),
            f: Box::new(move |kind| {
                black_box(a.matmul_nt_with(&b, kind).unwrap());
            }),
        });
    }
    {
        let a = mk(64, 64, 7);
        let b = mk(64, 64, 8);
        let bias: Vec<f64> = (0..64).map(|j| j as f64 * 0.25 - 8.0).collect();
        ops.push(KernelOp {
            name: "matmul_add_bias_64".to_string(),
            f: Box::new(move |kind| {
                black_box(a.matmul_add_bias_with(&b, &bias, kind).unwrap());
            }),
        });
    }
    // Weight gradients `dW = xᵀ · dz` of a training minibatch: 64 samples
    // broadcast over 50 devices make 3200 rows. The first layer's `x` is
    // the 63-wide expanded rows and its `dz` 64 wide; the one-column head
    // reads a 64-wide `x` and is the `n = 1` case. Like `matmul_tn_64`,
    // the blocked `3200` arm takes a pool round; the `3200x1` shape is
    // below the threshold and runs serially.
    for (name, m, n) in [("matmul_tn_3200", 63, 64), ("matmul_tn_3200x1", 64, 1)] {
        let a = mk(3200, m, 13);
        let b = mk(3200, n, 14);
        ops.push(KernelOp {
            name: name.to_string(),
            f: Box::new(move |kind| {
                black_box(a.matmul_tn_with(&b, kind).unwrap());
            }),
        });
    }
    {
        let a = mk(256, 256, 9);
        ops.push(KernelOp {
            name: "transpose_256".to_string(),
            f: Box::new(move |kind| match kind {
                KernelKind::Blocked => {
                    black_box(a.transpose());
                }
                KernelKind::Naive => {
                    black_box(a.naive_transpose());
                }
            }),
        });
    }
    // Activation at the decide width: 8192 rows of a 64-wide tanh hidden
    // layer (256 of the decide's 32-row tiles). The blocked slot runs the in-repo vectorized tanh (what
    // the dense forward applies), the naive slot libm's `f64::tanh` per
    // element (what it applied before). Both pay the same copy of the
    // pre-activations.
    {
        let pre = Matrix::from_fn(8192, 64, |r, c| ((r * 64 + c) % 601) as f64 / 100.0 - 3.0);
        ops.push(KernelOp {
            name: "tanh_8192x64".to_string(),
            f: Box::new(move |kind| {
                let mut z = pre.clone();
                match kind {
                    KernelKind::Blocked => fl_nn::tanh_slice(z.data_mut()),
                    KernelKind::Naive => z.map_inplace(f64::tanh),
                }
                black_box(z);
            }),
        });
    }
    // Pool-parallel GEMM: the two "families" here are worker counts, not
    // kernel kinds — the blocked slot runs the row-block-partitioned path on
    // 4 workers, the naive slot the same blocked kernel serially, so the
    // reported speedup is 4-workers-vs-1 on a 256^2 matmul (well above the
    // `parallel_dispatch` threshold). Bit-identical by the partition
    // argument in DESIGN.md, so this is a pure scheduling comparison.
    {
        let a = mk(256, 256, 10);
        let b = mk(256, 256, 11);
        ops.push(KernelOp {
            name: "matmul_256_par4".to_string(),
            f: Box::new(move |kind| {
                let workers = match kind {
                    KernelKind::Blocked => 4,
                    KernelKind::Naive => 1,
                };
                black_box(
                    a.matmul_par_with_workers(&b, KernelKind::Blocked, workers)
                        .unwrap(),
                );
            }),
        });
    }
    // Batched rollout forward: the blocked slot runs ONE `32 x obs` policy
    // mean + value forward (what the rollout engine does per step for a
    // 32-env fleet), the naive slot the same work as 32 one-row
    // forwards. Row bits are identical either way; the speedup is the
    // per-call overhead amortization the batched rollout buys. Kernel
    // family is pinned to Blocked in both slots.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let policy = GaussianPolicy::new(18, &[64, 64], 4, -0.5, &mut rng).unwrap();
        let value = ValueNet::new(18, &[64, 64], &mut rng).unwrap();
        let obs = mk(32, 18, 12);
        ops.push(KernelOp {
            name: "rollout_forward_batched_32".to_string(),
            f: Box::new(move |kind| match kind {
                KernelKind::Blocked => {
                    black_box(policy.mean_actions(&obs).unwrap());
                    black_box(value.predict_batch(&obs).unwrap());
                }
                KernelKind::Naive => {
                    for r in 0..obs.rows() {
                        let row = Matrix::row_vector(obs.row(r));
                        black_box(policy.mean_actions(&row).unwrap());
                        black_box(value.predict_batch(&row).unwrap());
                    }
                }
            }),
        });
    }
    // Pool fan-out cost: the blocked slot runs two empty tasks as one
    // 2-worker pool round, the naive slot the same two tasks inline on the
    // caller. The "speedup" is inline/fan-out, so it sits below 1; its
    // reciprocal is what one pool round costs over doing nothing. Reported,
    // not gated: no baseline carries it.
    ops.push(KernelOp {
        name: "pool_fanout_2".to_string(),
        f: Box::new(|kind| {
            let workers = match kind {
                KernelKind::Blocked => 2,
                KernelKind::Naive => 1,
            };
            black_box(fl_pool::run_indexed(workers, vec![(), ()], |i, ()| {
                black_box(i)
            }));
        }),
    });
    ops
}

/// Mean ns per call of `f`, after a warmup of one tenth of `budget`.
fn mean_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let warmup = Instant::now();
    let mut n: u64 = 0;
    while warmup.elapsed() < budget / 10 && n < 1_000_000 {
        f();
        n += 1;
    }
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < budget && iters < 10_000_000 {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Measures every [`ops`] case under both kernel families.
pub fn measure(budget: Duration) -> KernelReport {
    let cases = ops()
        .into_iter()
        .map(|mut op| {
            let blocked_ns = mean_ns(budget, || op.run(KernelKind::Blocked));
            let naive_ns = mean_ns(budget, || op.run(KernelKind::Naive));
            KernelCase {
                name: op.name,
                blocked_ns,
                naive_ns,
                speedup: naive_ns / blocked_ns,
            }
        })
        .collect();
    KernelReport {
        budget_ms: budget.as_millis() as u64,
        cases,
    }
}

/// Prints the report as a fixed-width table.
pub fn print_report(report: &KernelReport) {
    println!(
        "{:<20} {:>14} {:>14} {:>9}",
        "kernel case", "blocked ns", "naive ns", "speedup"
    );
    for c in &report.cases {
        println!(
            "{:<20} {:>14.1} {:>14.1} {:>8.2}x",
            c.name, c.blocked_ns, c.naive_ns, c.speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_covers_every_op_with_positive_times() {
        // Tiny budget: this is a smoke test of the sweep plumbing, not a
        // performance assertion (debug builds invert every ratio anyway).
        let report = measure(Duration::from_millis(2));
        let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "matmul_32",
                "matmul_64",
                "matmul_128",
                "matmul_tn_64",
                "matmul_nt_64",
                "matmul_add_bias_64",
                "matmul_tn_3200",
                "matmul_tn_3200x1",
                "transpose_256",
                "tanh_8192x64",
                "matmul_256_par4",
                "rollout_forward_batched_32",
                "pool_fanout_2",
            ]
        );
        for c in &report.cases {
            assert!(c.blocked_ns > 0.0 && c.naive_ns > 0.0, "{c:?}");
            assert!(c.speedup.is_finite() && c.speedup > 0.0, "{c:?}");
        }
    }
}
