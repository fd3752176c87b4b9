//! Differential kernel-conformance suite: the blocked fast kernels must be
//! **bit-identical** to the streaming reference kernels on every shape and
//! every input — including NaN/Inf/signed-zero (NaN payload bits excepted;
//! see [`bits`]) — and swapping kernel families mid-training (even across a
//! kill/resume boundary) must not move a single bit of a training run.
//!
//! Strategy: every linear-algebra kernel pair (`matmul`, `matmul_tn`,
//! `matmul_nt`, fused `matmul_add_bias`, `transpose`, `axpy`,
//! `add_row_broadcast`) is compared with `f64::to_bits` equality over
//! proptest-drawn shapes (degenerate `0xN` / `Nx0` / `1xN` included) and
//! special-value injections; golden hand-computed products pin absolute
//! values; and full `train_drl_parallel` runs are fingerprinted under both
//! `KernelKind`s at 1 and 4 workers, with and without fault injection.
//!
//! The pool-parallel extension: the row-split GEMM path is forced at
//! explicit worker counts (1/2/4/8) via `matmul_par_with_workers` /
//! `matmul_nt_par_with_workers` and compared bitwise against the serial
//! kernels on shapes straddling the dispatch threshold, the threshold edge
//! itself is pinned as a pure function of shape, and batched-forward row
//! independence (the batched-rollout contract) gets a hand-computed golden.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{train_drl_parallel_opt, CheckpointOptions, ParallelConfig, RunOptions};
use fl_nn::Matrix;
use harness::{
    assert_rows_agree, chaos, quick_config, system, temp_dir, train_under, KernelGuard, KernelKind,
    Knobs, BASE, SEED,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Shape + per-element bits: NaN-safe equality for matrices.
///
/// NaN *payloads* are canonicalized before comparison: IEEE-754 leaves
/// payload propagation unspecified, and LLVM freely commutes `fadd`/`fmul`
/// operands at -O3, so two compilations of the *same* source can pick
/// different payload/sign bits when both addends are NaN (SSE keeps the
/// first operand's payload). The contract is therefore: NaN-ness itself
/// must agree per element, and every non-NaN value must match to the bit.
fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (
        m.rows(),
        m.cols(),
        m.data()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect(),
    )
}

/// Draws a dimension favoring small and degenerate shapes but reaching 64
/// (the exact parallel-dispatch threshold for a cubic matmul).
fn dim(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..10u32) {
        0 => 0,
        1 => 1,
        2..=7 => rng.gen_range(2..=24),
        _ => rng.gen_range(25..=64),
    }
}

const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];

/// Random matrix; with `specials`, ~15% of entries are NaN/±Inf/±0 to
/// exercise the IEEE edge semantics of the zero-skip rule.
fn rand_matrix(rng: &mut ChaCha8Rng, r: usize, c: usize, specials: bool) -> Matrix {
    Matrix::from_fn(r, c, |_, _| {
        if specials && rng.gen_range(0..100u32) < 15 {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-3.0..3.0)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `matmul`: blocked == naive, bit for bit, serial and (row-split)
    /// parallel, on arbitrary shapes with special values.
    #[test]
    fn prop_matmul_families_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (m, k, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, m, k, specials);
        let b = rand_matrix(&mut rng, k, n, specials);
        let naive = a.matmul_with(&b, KernelKind::Naive, false).unwrap();
        for parallel in [false, true] {
            let blocked = a.matmul_with(&b, KernelKind::Blocked, parallel).unwrap();
            prop_assert!(bits(&blocked) == bits(&naive), "{}x{}x{} specials={} parallel={}", m, k, n, specials, parallel
            );
        }
    }

    /// Fused `matmul_add_bias`: bit-identical to the unfused
    /// `matmul` + `add_row_broadcast` composition, in both families.
    #[test]
    fn prop_fused_bias_families_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (m, k, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, m, k, specials);
        let b = rand_matrix(&mut rng, k, n, specials);
        let bias = rand_matrix(&mut rng, 1, n, specials).into_data();
        let mut unfused = a.matmul_with(&b, KernelKind::Naive, false).unwrap();
        unfused.naive_add_row_broadcast(&bias).unwrap();
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            let fused = a.matmul_add_bias_with(&b, &bias, kind).unwrap();
            prop_assert!(bits(&fused) == bits(&unfused), "{}x{}x{} specials={} {:?}", m, k, n, specials, kind
            );
        }
    }

    /// `matmul_tn`: blocked == naive == explicit-transpose matmul, bitwise.
    /// The last leg pins the contract that `a^T * b` computed without
    /// materializing `a^T` accumulates in the same order as the
    /// materialized form.
    #[test]
    fn prop_matmul_tn_families_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (k, m, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, k, m, specials);
        let b = rand_matrix(&mut rng, k, n, specials);
        let naive = a.naive_matmul_tn(&b).unwrap();
        let blocked = a.matmul_tn_with(&b, KernelKind::Blocked).unwrap();
        prop_assert!(bits(&blocked) == bits(&naive), "{}x{}x{} specials={}", k, m, n, specials);
        let via_transpose = a.transpose().matmul_with(&b, KernelKind::Blocked, false).unwrap();
        prop_assert!(bits(&blocked) == bits(&via_transpose), "tn vs transpose-matmul");
    }

    /// `matmul_nt`: blocked == naive, bitwise.
    #[test]
    fn prop_matmul_nt_families_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (m, k, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, m, k, specials);
        let b = rand_matrix(&mut rng, n, k, specials);
        let naive = a.naive_matmul_nt(&b).unwrap();
        let blocked = a.matmul_nt_with(&b, KernelKind::Blocked).unwrap();
        prop_assert!(bits(&blocked) == bits(&naive), "{}x{}x{} specials={}", m, k, n, specials);
    }

    /// Blocked `transpose`: a pure permutation — involution restores the
    /// exact bits, and it agrees with the element-wise reference copy.
    #[test]
    fn prop_transpose_blocked_is_exact_permutation(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (m, n) = (dim(&mut rng), dim(&mut rng));
        let a = rand_matrix(&mut rng, m, n, true);
        prop_assert!(bits(&a.transpose()) == bits(&a.naive_transpose()), "{}x{}", m, n);
        prop_assert!(bits(&a.transpose().transpose()) == bits(&a), "involution {}x{}", m, n);
    }

    /// Unrolled `axpy` and `chunks_exact` `add_row_broadcast`: bit-identical
    /// to their element-wise reference forms on every shape and input.
    #[test]
    fn prop_axpy_and_broadcast_match_reference(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (m, n) = (dim(&mut rng), dim(&mut rng));
        let alpha = if seed % 4 == 0 {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-2.0..2.0)
        };
        let base = rand_matrix(&mut rng, m, n, true);
        let other = rand_matrix(&mut rng, m, n, true);
        let bias = rand_matrix(&mut rng, 1, n, true).into_data();

        let mut fast = base.clone();
        fast.axpy(alpha, &other).unwrap();
        let mut reference = base.clone();
        reference.naive_axpy(alpha, &other).unwrap();
        prop_assert!(bits(&fast) == bits(&reference), "axpy {}x{} alpha={}", m, n, alpha);

        let mut fast = base.clone();
        fast.add_row_broadcast(&bias).unwrap();
        let mut reference = base.clone();
        reference.naive_add_row_broadcast(&bias).unwrap();
        prop_assert!(bits(&fast) == bits(&reference), "broadcast {}x{}", m, n);
    }
}

/// Draws a dimension that frequently lands at or above the parallel
/// threshold (64..=80 — `64³ = 2^18` is exactly the cutoff), so the pool
/// path row-splits into non-trivial chunks, while still visiting
/// degenerate and tiny shapes.
fn dim_par(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..5u32) {
        0 => rng.gen_range(0..=2),
        1 => rng.gen_range(3..=32),
        2 => rng.gen_range(33..=63),
        _ => rng.gen_range(64..=80),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row-split pool parallelism is bit-invariant: for both kernel
    /// families, forcing the pool path at 1/2/4/8 workers reproduces the
    /// serial kernels' bits exactly — on shapes below, at, and above the
    /// dispatch threshold, with NaN/Inf/±0 injection.
    #[test]
    fn prop_parallel_matmul_any_worker_count_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5_0000);
        let (m, k, n) = (dim_par(&mut rng), dim_par(&mut rng), dim_par(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, m, k, specials);
        let b = rand_matrix(&mut rng, k, n, specials);
        let serial = a.matmul_with(&b, KernelKind::Blocked, false).unwrap();
        prop_assert!(bits(&serial) == bits(&a.matmul_with(&b, KernelKind::Naive, false).unwrap()));
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            for workers in [1usize, 2, 4, 8] {
                let par = a.matmul_par_with_workers(&b, kind, workers).unwrap();
                prop_assert!(
                    bits(&par) == bits(&serial),
                    "{}x{}x{} specials={} {:?} workers={}", m, k, n, specials, kind, workers
                );
            }
        }
    }

    /// The same sweep for `matmul_nt` — the *no-skip* family, where a
    /// `0·∞` term must manufacture the same NaN in every row chunk.
    #[test]
    fn prop_parallel_matmul_nt_any_worker_count_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A5A_0000);
        let (m, k, n) = (dim_par(&mut rng), dim_par(&mut rng), dim_par(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, m, k, specials);
        let b = rand_matrix(&mut rng, n, k, specials);
        let serial = a.matmul_nt_with(&b, KernelKind::Blocked).unwrap();
        prop_assert!(bits(&serial) == bits(&a.naive_matmul_nt(&b).unwrap()));
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            for workers in [1usize, 2, 4, 8] {
                let par = a.matmul_nt_par_with_workers(&b, kind, workers).unwrap();
                prop_assert!(
                    bits(&par) == bits(&serial),
                    "nt {}x{}x{} specials={} {:?} workers={}", m, k, n, specials, kind, workers
                );
            }
        }
    }
}

/// The parallel-dispatch decision is a pure function of the shape — never
/// of core count or `FL_WORKERS` — so a matrix exactly at the cutoff picks
/// the same path on every machine and under every pool width. `64³ = 2^18`
/// is exactly the threshold.
#[test]
fn parallel_dispatch_threshold_edge_is_deterministic() {
    // Exactly at the cutoff: parallel.
    assert!(Matrix::parallel_dispatch(64, 64, 64));
    // One short of the cutoff product in any dimension: serial.
    assert!(!Matrix::parallel_dispatch(63, 64, 64));
    assert!(!Matrix::parallel_dispatch(64, 63, 64));
    assert!(!Matrix::parallel_dispatch(64, 64, 63));
    // A single row can never split, no matter how heavy.
    assert!(!Matrix::parallel_dispatch(1, 1 << 20, 1 << 20));
    // Two rows qualify exactly when the flop product reaches the threshold.
    assert!(Matrix::parallel_dispatch(2, 512, 256));
    assert!(!Matrix::parallel_dispatch(2, 512, 255));
    // Degenerate shapes never dispatch; enormous ones saturate, not wrap.
    assert!(!Matrix::parallel_dispatch(0, 1 << 20, 1 << 20));
    assert!(Matrix::parallel_dispatch(usize::MAX, usize::MAX, 2));

    // At the exact edge, the chosen path is bit-invariant anyway: the auto
    // path (whatever `FL_WORKERS` resolves to on this host) equals the
    // forced-serial kernel and every forced pool width, in both families.
    let mut rng = ChaCha8Rng::seed_from_u64(64);
    let a = rand_matrix(&mut rng, 64, 64, true);
    let b = rand_matrix(&mut rng, 64, 64, true);
    let serial = a.matmul_with(&b, KernelKind::Blocked, false).unwrap();
    let auto = a.matmul_with(&b, KernelKind::Blocked, true).unwrap();
    assert_eq!(bits(&auto), bits(&serial));
    for kind in [KernelKind::Blocked, KernelKind::Naive] {
        for workers in [1usize, 2, 4, 8] {
            let par = a.matmul_par_with_workers(&b, kind, workers).unwrap();
            assert_eq!(bits(&par), bits(&serial), "{kind:?} workers={workers}");
        }
    }
}

/// Batched-forward row independence, pinned with a hand-computed golden:
/// `[1, 2] · [[7,8,9],[10,11,12]] = [27, 30, 33]`. A row's output bits are
/// identical whether it sits in a batch of 1, 7, or 32 rows — serial or
/// pool-parallel, both families. This is the property that lets the
/// batched rollout stack per-environment observations into one forward
/// without changing trained bits.
#[test]
fn golden_batched_forward_is_row_independent() {
    let b = Matrix::from_vec(2, 3, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
    let golden_row = [27.0, 30.0, 33.0];
    let single = Matrix::from_vec(1, 2, vec![1.0, 2.0])
        .unwrap()
        .matmul_with(&b, KernelKind::Blocked, false)
        .unwrap();
    assert_eq!(single.data(), &golden_row);

    for batch_rows in [1usize, 7, 32] {
        // The golden row sits mid-batch, surrounded by varied filler rows
        // (including special values) that must not perturb it.
        let mid = batch_rows / 2;
        let a = Matrix::from_fn(batch_rows, 2, |r, c| {
            if r == mid {
                [1.0, 2.0][c]
            } else if r % 5 == 3 {
                SPECIALS[(r + c) % SPECIALS.len()]
            } else {
                (r * 2 + c) as f64 * 0.37 - 1.0
            }
        });
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            for workers in [1usize, 4] {
                let out = a.matmul_par_with_workers(&b, kind, workers).unwrap();
                assert_eq!(
                    out.row(mid),
                    &golden_row,
                    "{kind:?} workers={workers} batch={batch_rows}"
                );
                // Every row equals its batch-of-one product, bitwise.
                for r in 0..batch_rows {
                    let one = Matrix::from_vec(1, 2, a.row(r).to_vec())
                        .unwrap()
                        .matmul_with(&b, kind, false)
                        .unwrap();
                    let one_bits = bits(&one).2;
                    let row_bits: Vec<u64> = out
                        .row(r)
                        .iter()
                        .map(|v| {
                            if v.is_nan() {
                                f64::NAN.to_bits()
                            } else {
                                v.to_bits()
                            }
                        })
                        .collect();
                    assert_eq!(
                        row_bits, one_bits,
                        "{kind:?} workers={workers} batch={batch_rows} row {r}"
                    );
                }
            }
        }
    }
}

/// The zero-skip rule is *semantics*, not an optimization: a literal `0.0`
/// in the left operand suppresses its term entirely, so `0 * Inf` never
/// manufactures a NaN — in either family, identically.
#[test]
fn zero_skip_semantics_are_identical_across_families() {
    let a = Matrix::from_vec(1, 2, vec![0.0, 2.0]).unwrap();
    let b = Matrix::from_vec(2, 1, vec![f64::INFINITY, 3.0]).unwrap();
    for parallel in [false, true] {
        let blocked = a.matmul_with(&b, KernelKind::Blocked, parallel).unwrap();
        assert_eq!(blocked.get(0, 0), 6.0, "0*Inf term must be skipped");
    }
    let naive = a.matmul_with(&b, KernelKind::Naive, false).unwrap();
    assert_eq!(naive.get(0, 0), 6.0);

    // The skip is on the left operand only: Inf on the left with 0.0 on the
    // right *does* produce NaN, in both families.
    let a = Matrix::from_vec(1, 1, vec![f64::INFINITY]).unwrap();
    let b = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
    let blocked = a.matmul_with(&b, KernelKind::Blocked, false).unwrap();
    let naive = a.matmul_with(&b, KernelKind::Naive, false).unwrap();
    assert!(blocked.get(0, 0).is_nan());
    assert_eq!(bits(&blocked), bits(&naive));

    // Signed zero: an all-zero (skipped) row yields the +0.0 of the zeroed
    // output buffer, never -0.0, in both families.
    let a = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
    let b = Matrix::from_vec(1, 1, vec![-0.0]).unwrap();
    let blocked = a.matmul_with(&b, KernelKind::Blocked, false).unwrap();
    let naive = a.matmul_with(&b, KernelKind::Naive, false).unwrap();
    assert_eq!(blocked.get(0, 0).to_bits(), 0.0f64.to_bits());
    assert_eq!(bits(&blocked), bits(&naive));
}

/// Hand-computed golden products: exact integer-valued f64 constants, no
/// tolerance. Both kernel families must hit them exactly.
#[test]
fn golden_matmul_and_fused_bias() {
    let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    let b = Matrix::from_vec(2, 3, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
    let expected = [27.0, 30.0, 33.0, 61.0, 68.0, 75.0, 95.0, 106.0, 117.0];
    let bias = [0.5, -1.5, 2.5];
    let expected_biased = [
        27.5, 28.5, 35.5, //
        61.5, 66.5, 77.5, //
        95.5, 104.5, 119.5,
    ];
    for kind in [KernelKind::Blocked, KernelKind::Naive] {
        let c = a.matmul_with(&b, kind, false).unwrap();
        assert_eq!(c.data(), &expected, "{kind:?}");
        let cb = a.matmul_add_bias_with(&b, &bias, kind).unwrap();
        assert_eq!(cb.data(), &expected_biased, "{kind:?} fused");
    }
}

/// Golden `matmul_tn` / `matmul_nt` pair on the same left operand.
#[test]
fn golden_matmul_tn_nt() {
    let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();

    // a^T (3x2) * b (2x2)
    let b = Matrix::from_vec(2, 2, vec![7.0, 8.0, 9.0, 10.0]).unwrap();
    let expected_tn = [43.0, 48.0, 59.0, 66.0, 75.0, 84.0];

    // a (2x3) * c^T (3x2)
    let c = Matrix::from_vec(2, 3, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
    let expected_nt = [50.0, 68.0, 122.0, 167.0];

    for kind in [KernelKind::Blocked, KernelKind::Naive] {
        assert_eq!(
            a.matmul_tn_with(&b, kind).unwrap().data(),
            &expected_tn,
            "{kind:?} tn"
        );
        assert_eq!(
            a.matmul_nt_with(&c, kind).unwrap().data(),
            &expected_nt,
            "{kind:?} nt"
        );
    }
}

// ---------------------------------------------------------------------------
// End-to-end: whole training runs are kernel-family invariant.
// ---------------------------------------------------------------------------

/// The headline contract: a full parallel PPO training run — rollouts,
/// updates, normalizers, fault injection and all — produces bit-identical
/// episode stats and a bit-identical final agent under the blocked and
/// naive kernels, at every worker count.
#[test]
fn training_is_bit_identical_across_kernel_families() {
    let sys = system(2, 1);
    let rows = [
        BASE,
        Knobs { workers: 4, ..BASE },
        Knobs {
            kernel: KernelKind::Naive,
            ..BASE
        },
        Knobs {
            kernel: KernelKind::Naive,
            workers: 4,
            ..BASE
        },
    ];
    for faults in [None, Some(chaos())] {
        let config = quick_config(12, faults);
        let reference = assert_rows_agree(&sys, &config, &RunOptions::default(), &rows);
        assert_eq!(reference.output.episodes.len(), 12);
    }
}

/// Kernel invariance composes with crash-safe resume: checkpoint a run
/// under the blocked kernels, kill it, resume it under the *naive* kernels,
/// and the completed run still matches the uninterrupted blocked reference
/// bit for bit.
#[test]
fn resume_across_kernel_switch_is_bit_identical() {
    let sys = system(2, 2);
    let config = quick_config(12, None);
    let row = Knobs { workers: 2, ..BASE };
    let reference = train_under(&sys, &config, &RunOptions::default(), row).fingerprint();

    let dir = temp_dir("switch");
    let par = ParallelConfig {
        n_envs: row.n_envs,
        workers: row.workers,
    };
    // First half under the blocked kernels, resumed to completion under
    // the naive kernels.
    let mut resumed = None;
    for (kernel, stop) in [(KernelKind::Blocked, Some(6)), (KernelKind::Naive, None)] {
        let _kernel = KernelGuard::select(kernel);
        let opts = RunOptions {
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                every_episodes: 3,
                resume: true,
            }),
            stop_after_episodes: stop,
            ..RunOptions::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let out = train_drl_parallel_opt(&sys, &config, &par, &mut rng, &opts).unwrap();
        assert_eq!(stop.is_some(), out.output.episodes.len() < 12, "{kernel:?}");
        resumed = Some(harness::fingerprint(&out.output, &rng));
    }
    assert_eq!(
        resumed.unwrap(),
        reference,
        "kernel switch across a kill/resume boundary changed the run"
    );
}
