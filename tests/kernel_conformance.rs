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
//! values; and full `train_drl_parallel_opt` runs are fingerprinted under both
//! `KernelKind`s at 1 and 4 workers, with and without fault injection.
//!
//! The tanh rows: the in-repo `fl_nn::tanh` equals libm's bit for bit on
//! FMA hosts, its SIMD dispatch equals its portable body on every host,
//! and the dense forward that applies it per row partition equals the
//! serial, unfused forward.
//!
//! The tiled-inference rows: the accumulator-start dense forward equals the
//! fused forward on whole rows, the one-column fused forward (the
//! rows-interleaved head) equals the reference, and every architecture's
//! tiled `mean_actions` equals its training forward.
//!
//! The pool-parallel extension: the row-split GEMM path is forced at
//! explicit worker counts (1/2/4/8) via `matmul_par_with_workers`,
//! `matmul_nt_par_with_workers` and `matmul_tn_par_with_workers` and
//! compared bitwise against the serial kernels on shapes straddling the
//! dispatch threshold, the threshold edge itself is pinned as a pure
//! function of shape, and batched-forward row independence (the
//! batched-rollout contract) gets a hand-computed golden.

#[path = "common/harness.rs"]
mod harness;

use fl_ctrl::{train_drl_parallel_opt, CheckpointOptions, ParallelConfig, RunOptions};
use fl_nn::Matrix;
use fl_rl::GaussianPolicy;
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

/// The inner dimension of a `tn` product: a small one, or one that spans
/// several of the blocked body's 64-step k-slabs (up to 300, not a
/// multiple of 64).
fn dim_tn_k(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..3u32) {
        0 => dim(rng),
        _ => rng.gen_range(65..=300),
    }
}

/// The output width of a `tn` product: the one-column head one time in
/// four, else [`dim`].
fn dim_tn_n(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..4u32) {
        0 => 1,
        _ => dim(rng),
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
    /// materialized form. `k` often spans several of the blocked body's
    /// k-slabs, `m` is often not a multiple of its row block, and one
    /// shape in four has the one-column (`n = 1`) head.
    #[test]
    fn prop_matmul_tn_families_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (k, m, n) = (dim_tn_k(&mut rng), dim(&mut rng), dim_tn_n(&mut rng));
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

    /// The same sweep for `matmul_tn`: every pool partition reads `a` and
    /// `b` whole in their stored layout and computes its own output rows,
    /// so 1/2/4/8 workers reproduce the serial reference's bits — across
    /// k-slabs, the one-column head and NaN/±Inf/±0 terms.
    #[test]
    fn prop_parallel_matmul_tn_any_worker_count_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3C3C_0000);
        let (k, m, n) = (dim_tn_k(&mut rng), dim_par(&mut rng), dim_tn_n(&mut rng));
        let specials = seed % 2 == 0;
        let a = rand_matrix(&mut rng, k, m, specials);
        let b = rand_matrix(&mut rng, k, n, specials);
        let serial = a.naive_matmul_tn(&b).unwrap();
        prop_assert!(bits(&serial) == bits(&a.matmul_tn_with(&b, KernelKind::Blocked).unwrap()));
        for workers in [1usize, 2, 4, 8] {
            let par = a.matmul_tn_par_with_workers(&b, workers).unwrap();
            prop_assert!(
                bits(&par) == bits(&serial),
                "tn {}x{}x{} specials={} workers={}", k, m, n, specials, workers
            );
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
// tanh: one in-repo body, equal to libm, to itself at every vector width,
// and to itself inside the partitioned dense forward.
// ---------------------------------------------------------------------------

/// Inputs that reach every case of the tanh lane body: ±0, subnormals,
/// the `2⁻⁵⁵` cut, the `|x| = 1` and `|x| = 22` cuts, ±∞, NaN, f64 edges,
/// the `expm1` reduction cuts and every `k · ln2 / 2` (each reduction
/// multiple `k` tanh reaches), each of those negated, a dense sweep of
/// `[0, 30]`, uniform draws on `[−3, 3]`, and random bit patterns.
fn tanh_inputs() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        f64::INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        1e-300,
        0.5,
        19.0,
        28.0,
        700.0,
    ];
    let ulps =
        |x: f64, n: i64| (-n..=n).map(move |d| f64::from_bits((x.to_bits() as i64 + d) as u64));
    for edge in [2f64.powi(-55), 2f64.powi(-54), 1.0, 22.0] {
        xs.extend(ulps(edge, 64));
    }
    // `expm1` sees 2|x|: its `½ ln2` and `1.5 ln2` high-word cuts.
    for hi_word in [0x3fd6_2e42u64, 0x3fd6_2e43, 0x3ff0_a2b1, 0x3ff0_a2b2] {
        xs.extend(ulps(f64::from_bits(hi_word << 32) / 2.0, 8));
    }
    for k in 1..=64 {
        xs.extend(ulps(k as f64 * std::f64::consts::LN_2 / 2.0, 4));
    }
    let negated: Vec<f64> = xs.iter().map(|&x| -x).collect();
    xs.extend(negated);
    // tanh is odd (the body works on |x|), so the bulk inputs are not
    // mirrored: every one is a new magnitude.
    let step = 2f64.powi(-15);
    xs.extend((0..=(30.0 / step) as usize).map(|i| i as f64 * step));
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    xs.extend((0..800_000).map(|_| rng.gen_range(-3.0..3.0)));
    xs.extend((0..200_000).map(|_| f64::from_bits(rng.gen::<u64>())));
    xs
}

/// Whether this host's libm `tanh` is glibc's FMA build, which the in-repo
/// body reproduces: x86-64 glibc picks that build on CPUs with FMA.
fn libm_tanh_is_fma_build() -> bool {
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", target_env = "gnu")))]
    {
        false
    }
}

/// The in-repo tanh equals `f64::tanh` bit for bit on every non-NaN input
/// (and NaN in gives NaN out) where libm runs the FMA build. Other libms
/// round differently in the last places, so there the row checks 2 ulps.
#[test]
fn tanh_matches_libm_bitwise() {
    let bitwise = libm_tanh_is_fma_build();
    let mut mismatches = Vec::new();
    for x in tanh_inputs() {
        let (ours, libm) = (fl_nn::tanh(x), x.tanh());
        if x.is_nan() {
            assert!(ours.is_nan(), "tanh(NaN) = {ours}");
            continue;
        }
        let ulp_gap = (ours.to_bits() as i64 - libm.to_bits() as i64).unsigned_abs();
        if ulp_gap > if bitwise { 0 } else { 2 } {
            mismatches.push((x, ours, libm));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} inputs differ from libm (bitwise: {bitwise}), first: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

/// The SIMD-dispatched slice body equals the portable scalar body bitwise,
/// on every host: the vector width regroups lanes, never a lane's ops.
#[test]
fn tanh_simd_dispatch_matches_portable_body() {
    let xs = tanh_inputs();
    let mut dispatched = xs.clone();
    fl_nn::tanh_slice(&mut dispatched);
    for (&x, &y) in xs.iter().zip(&dispatched) {
        let want = fl_nn::tanh(x);
        assert!(
            y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
            "tanh_slice({x:e}) = {y:e}, portable body gives {want:e}"
        );
    }
}

/// The fused, pool-partitioned dense forward (matmul + bias + tanh per row
/// partition) equals the serial unfused one bitwise at the decide shape
/// (8192 × 63 input, 64 units), at every worker count and in both kernel
/// families.
#[test]
fn partitioned_tanh_dense_forward_matches_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let layer = fl_nn::Dense::new(
        63,
        64,
        fl_nn::Activation::Tanh,
        fl_nn::Init::XavierUniform,
        &mut rng,
    );
    let x = rand_matrix(&mut rng, 8192, 63, true);
    let mut serial = x
        .matmul_with(layer.weights(), KernelKind::Blocked, false)
        .unwrap();
    serial.add_row_broadcast(layer.biases()).unwrap();
    serial.map_inplace(fl_nn::tanh);
    let serial = bits(&serial);
    for kind in [KernelKind::Blocked, KernelKind::Naive] {
        let _guard = KernelGuard::select(kind);
        for workers in [1usize, 2, 4, 8] {
            let fused = layer.infer_with_workers(&x, workers).unwrap();
            assert!(bits(&fused) == serial, "{kind:?} workers={workers}");
        }
        assert!(
            bits(&layer.infer(&x).unwrap()) == serial,
            "{kind:?} env workers"
        );
    }
}

// ---------------------------------------------------------------------------
// The tiled inference pass: its two kernels equal the fused forward they
// stand in for, and every architecture's `mean_actions` equals the training
// forward.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The accumulator-start dense forward: the k-sum of a row's leading
    /// `p` columns, taken once, continued over the row's other columns,
    /// equals the fused forward on the whole row bit for bit, in both
    /// families — with NaN, ±∞, ±0 and skipped zeros (also an all-zero
    /// prefix) in the prefix, the tail, the weights and the bias.
    #[test]
    fn prop_matmul_add_bias_from_equals_whole_rows(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (samples, devices, n) = (rng.gen_range(1..=3), dim(&mut rng), dim(&mut rng));
        let (p, s) = (dim(&mut rng), rng.gen_range(0..=8));
        let specials = seed % 4 != 0;
        let mut prefix = rand_matrix(&mut rng, samples, p, specials);
        if seed % 3 == 0 {
            prefix.row_mut(0).fill(0.0);
        }
        let tail = rand_matrix(&mut rng, devices, s, specials);
        let w = rand_matrix(&mut rng, p + s, n, specials);
        let bias = rand_matrix(&mut rng, 1, n, specials).into_data();
        let whole = Matrix::from_fn(samples * devices, p + s, |i, c| {
            if c < p {
                prefix.get(i / devices, c)
            } else {
                tail.get(i % devices, c - p)
            }
        });
        let w_head = w.gather_rows(&(0..p).collect::<Vec<_>>()).unwrap();
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            let want = whole.matmul_add_bias_with(&w, &bias, kind).unwrap();
            let sums = prefix.matmul_with(&w_head, kind, false).unwrap();
            for r in 0..samples {
                let got = tail
                    .matmul_add_bias_from_with(sums.row(r), &w, p, &bias, kind)
                    .unwrap();
                let want = want
                    .gather_rows(&(r * devices..(r + 1) * devices).collect::<Vec<_>>())
                    .unwrap();
                prop_assert!(bits(&got) == bits(&want), "{} samples x {} devices, p={} s={} n={} specials={} {:?}", samples, devices, p, s, n, specials, kind
                );
            }
        }
    }

    /// The one-column fused forward (a value or one-action policy head,
    /// which the blocked family runs rows-interleaved) equals the
    /// reference composition bit for bit, at row counts around its lane
    /// width and with NaN, ±∞, ±0 and skipped zeros in the inputs, the
    /// weights and the bias.
    #[test]
    fn prop_one_column_fused_forward_equals_reference(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows = rng.gen_range(0..=40);
        let k = if seed % 5 == 0 { rng.gen_range(65..=140) } else { dim(&mut rng) };
        let specials = seed % 4 != 0;
        let x = rand_matrix(&mut rng, rows, k, specials);
        let w = rand_matrix(&mut rng, k, 1, specials);
        let bias = rand_matrix(&mut rng, 1, 1, specials).into_data();
        let got = x.matmul_add_bias_with(&w, &bias, KernelKind::Blocked).unwrap();
        let want = x.matmul_add_bias_with(&w, &bias, KernelKind::Naive).unwrap();
        prop_assert!(bits(&got) == bits(&want), "{}x{} specials={}", rows, k, specials);
    }
}

/// Every architecture's tiled inference equals the training forward on a
/// clone (`forward_means` over the expanded rows, an independent oracle)
/// bit for bit: at device counts on both sides of the tile (7 and the
/// default 32 rows) and pool-partition boundaries, at 1, 2 and 4 workers,
/// in both kernel families, with random biases and special values in the
/// observations.
#[test]
fn tiled_mean_actions_match_training_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    for n in [1usize, 31, 33, 257] {
        let statics = rand_matrix(&mut rng, n, 4, false);
        let policies = [
            GaussianPolicy::new(9, &[64, 64], n, -0.5, &mut rng),
            GaussianPolicy::new_shared(n, 3, statics.clone(), &[64, 64], -0.5, &mut rng),
            GaussianPolicy::new_broadcast(11, statics, &[64, 64], -0.5, &mut rng),
        ];
        for p in policies {
            // Random weights and biases: a fresh net's biases are all zero.
            let mut p = p.unwrap();
            let params = p.mean_net().export_params();
            let params: Vec<f64> = params.iter().map(|_| rng.gen_range(-0.5..0.5)).collect();
            p.mean_net_mut().import_params(&params).unwrap();
            let obs = rand_matrix(&mut rng, 3, p.obs_dim(), true);
            let want = bits(&p.clone().forward_means(&obs).unwrap());
            for kind in [KernelKind::Blocked, KernelKind::Naive] {
                let _guard = KernelGuard::select(kind);
                let means = p.mean_actions(&obs).unwrap();
                assert!(bits(&means) == want, "n={n} {kind:?} mean_actions");
                let input = p.net_input(&obs).unwrap();
                for (tile, workers) in [7, 32].into_iter().flat_map(|t| [(t, 1), (t, 2), (t, 4)]) {
                    let flat = p
                        .mean_net()
                        .infer_tiled_with(&input, tile, workers)
                        .unwrap();
                    let got = Matrix::from_vec(3, n, flat.into_data()).unwrap();
                    assert!(
                        bits(&got) == want,
                        "n={n} {kind:?} tile={tile} workers={workers}"
                    );
                }
            }
        }
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
