//! Matmul kernel implementations and runtime kernel selection.
//!
//! Two kernel families share one contract:
//!
//! * `naive_*` — the original streaming loops, kept verbatim as the
//!   executable specification. Compiled only under `cfg(test)` or the
//!   `reference-kernels` feature.
//! * `blocked_*` — cache-blocked, register-tiled rewrites. Each output
//!   element accumulates its k-terms **in exactly the same order** as the
//!   naive loop, with exactly the same `a == 0.0` skip rule, so the fast
//!   path is bit-identical to the reference by construction (IEEE-754
//!   operations are deterministic; only the *grouping* of independent
//!   elements changes, never the op sequence of any one element).
//!
//! [`crate::Matrix`] runs the blocked family. Builds with the reference
//! kernels compiled in can switch the process to the naive family with
//! [`set_kernel_kind`] — the test oracle the conformance suites use to run
//! whole training jobs under both families in one process.

#[cfg(any(test, feature = "reference-kernels"))]
use std::sync::atomic::{AtomicBool, Ordering};

/// Which matmul kernel family the process uses. See the module docs for
/// the bit-exactness contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Cache-blocked, register-tiled kernels (the default).
    Blocked,
    /// The original streaming reference loops. Exists only when the crate
    /// is compiled with the `reference-kernels` feature (or under
    /// `cfg(test)`).
    #[cfg(any(test, feature = "reference-kernels"))]
    Naive,
}

/// Process-wide selection of the naive family. Relaxed ordering is
/// enough: both families produce the same bits.
#[cfg(any(test, feature = "reference-kernels"))]
static NAIVE_SELECTED: AtomicBool = AtomicBool::new(false);

/// The kernel family in effect: [`KernelKind::Blocked`] unless a build
/// with the reference kernels selected the naive family.
pub fn kernel_kind() -> KernelKind {
    #[cfg(any(test, feature = "reference-kernels"))]
    if NAIVE_SELECTED.load(Ordering::Relaxed) {
        return KernelKind::Naive;
    }
    KernelKind::Blocked
}

/// Selects the process-wide kernel family, returning the one it replaces.
#[cfg(any(test, feature = "reference-kernels"))]
pub fn set_kernel_kind(kind: KernelKind) -> KernelKind {
    let before = kernel_kind();
    NAIVE_SELECTED.store(kind == KernelKind::Naive, Ordering::Relaxed);
    before
}

/// Wide output-column register tile: 32 accumulators live in registers
/// across the whole k loop (4 zmm under AVX-512, 8 ymm under AVX2), so each
/// output element is loaded/stored once instead of once per k-term and
/// enough independent add chains are in flight to hide the FP add latency
/// that the contract's fixed per-element accumulation order imposes.
const W_WIDE: usize = 32;

/// Narrow tile for mid-size column remainders (one ymm pair / zmm half).
const W_NARROW: usize = 8;

/// Square tile edge for the blocked transpose copy.
const TR_TILE: usize = 32;

// ---------------------------------------------------------------------------
// Blocked kernels
// ---------------------------------------------------------------------------

/// One `T`-wide column tile of one output row:
/// `out_row[j + t] = Σ_k a_row[k] · b[k][j + t] (+ bias[j + t])`.
///
/// The k loop is outer with `T` register accumulators, so per element the
/// accumulation is the naive order: k ascending, terms with
/// `a_row[k] == 0.0` skipped when `SKIP`, bias (if any) added last. The
/// tile body is elementwise `mul` then `add` — never `mul_add` — so wider
/// vector units change throughput, not bits.
#[inline(always)]
fn tile_cols<const T: usize, const BIAS: bool, const SKIP: bool>(
    a_row: &[f64],
    b: &[f64],
    bias: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [0.0f64; T];
    for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        if SKIP && aik == 0.0 {
            continue;
        }
        let b_tile: &[f64; T] = (&b_row[j..j + T]).try_into().expect("tile width");
        for (a, &bv) in acc.iter_mut().zip(b_tile) {
            *a += aik * bv;
        }
    }
    if BIAS {
        for (a, &bv) in acc.iter_mut().zip(&bias[j..j + T]) {
            *a += bv;
        }
    }
    out_row[j..j + T].copy_from_slice(&acc);
}

/// The sub-[`W_NARROW`] column tail of one output row (runtime width).
#[inline(always)]
fn tail_cols<const BIAS: bool, const SKIP: bool>(
    a_row: &[f64],
    b: &[f64],
    bias: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [0.0f64; W_NARROW];
    let acc = &mut acc[..n - j];
    for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        if SKIP && aik == 0.0 {
            continue;
        }
        for (a, &bv) in acc.iter_mut().zip(&b_row[j..]) {
            *a += aik * bv;
        }
    }
    if BIAS {
        for (a, &bv) in acc.iter_mut().zip(&bias[j..]) {
            *a += bv;
        }
    }
    out_row[j..].copy_from_slice(acc);
}

/// Register-tiled `out = a · b (+ bias)` over a row range (`a` is
/// `rows x k` for `rows = out.len() / n`, `b` is `k x n`, `n > 0`).
///
/// This single body is the whole blocked-kernel algorithm; the `simd`
/// module re-monomorphizes it under wider target features. Column tiles
/// partition `j`, so no element's k-term op sequence ever changes.
#[inline(always)]
fn matmul_body<const BIAS: bool, const SKIP: bool>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
    k: usize,
    n: usize,
) {
    let rows = out.len() / n;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + W_WIDE <= n {
            tile_cols::<W_WIDE, BIAS, SKIP>(a_row, b, bias, out_row, n, j);
            j += W_WIDE;
        }
        while j + W_NARROW <= n {
            tile_cols::<W_NARROW, BIAS, SKIP>(a_row, b, bias, out_row, n, j);
            j += W_NARROW;
        }
        if j < n {
            tail_cols::<BIAS, SKIP>(a_row, b, bias, out_row, n, j);
        }
    }
}

/// Runtime-dispatched SIMD monomorphizations of [`matmul_body`] and of the
/// `tanh` slice body.
///
/// The reference kernels define the bits; these re-compilations only widen
/// the vector units the *same* op sequence runs on. Each wrapper is a safe
/// `#[target_feature]` function whose body is the portable one — identical
/// Rust, so identical per-element IEEE-754 ops — and the only `unsafe` in
/// the crate is calling them, guarded by `is_x86_feature_detected!`. (This
/// is why the crate is `deny(unsafe_code)` rather than `forbid`: this
/// module is the single, documented exception.) Every tier also enables
/// `fma`: rustc never contracts `a * b + c` on its own, so the matmul body
/// keeps its separate `mul` and `add`, and the `tanh` body's explicit
/// `mul_add`s become single instructions instead of libm calls.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::matmul_body;
    use crate::tanh::tanh_body;
    use std::sync::atomic::{AtomicU8, Ordering};

    const ISA_UNRESOLVED: u8 = 0;
    const ISA_AVX512: u8 = 1;
    const ISA_AVX2: u8 = 2;
    const ISA_NONE: u8 = 3;

    /// Cached `is_x86_feature_detected!` result (detection is not free).
    static ISA: AtomicU8 = AtomicU8::new(ISA_UNRESOLVED);

    fn isa() -> u8 {
        match ISA.load(Ordering::Relaxed) {
            ISA_UNRESOLVED => {
                let fma = std::arch::is_x86_feature_detected!("fma");
                let level = if fma && std::arch::is_x86_feature_detected!("avx512f") {
                    ISA_AVX512
                } else if fma && std::arch::is_x86_feature_detected!("avx2") {
                    ISA_AVX2
                } else {
                    ISA_NONE
                };
                ISA.store(level, Ordering::Relaxed);
                level
            }
            level => level,
        }
    }

    macro_rules! monomorphize {
        ($name:ident, $feat:literal, $bias:literal, $skip:literal) => {
            #[target_feature(enable = $feat)]
            fn $name(a: &[f64], b: &[f64], bias: &[f64], out: &mut [f64], k: usize, n: usize) {
                matmul_body::<$bias, $skip>(a, b, bias, out, k, n)
            }
        };
    }

    monomorphize!(mm_skip_avx512, "avx512f,fma", false, true);
    monomorphize!(mm_bias_avx512, "avx512f,fma", true, true);
    monomorphize!(mm_noskip_avx512, "avx512f,fma", false, false);
    monomorphize!(mm_skip_avx2, "avx2,fma", false, true);
    monomorphize!(mm_bias_avx2, "avx2,fma", true, true);
    monomorphize!(mm_noskip_avx2, "avx2,fma", false, false);

    #[target_feature(enable = "avx512f,fma")]
    fn tanh_avx512(xs: &mut [f64]) {
        tanh_body(xs)
    }

    #[target_feature(enable = "avx2,fma")]
    fn tanh_avx2(xs: &mut [f64]) {
        tanh_body(xs)
    }

    /// Runs the `tanh` slice body under the widest available vector ISA;
    /// `false` means the caller should run the baseline-compiled body.
    pub(super) fn tanh(xs: &mut [f64]) -> bool {
        match isa() {
            // SAFETY: each arm is reached only after the corresponding
            // target features were detected on this CPU at runtime.
            ISA_AVX512 => unsafe { tanh_avx512(xs) },
            ISA_AVX2 => unsafe { tanh_avx2(xs) },
            _ => return false,
        }
        true
    }

    /// Runs [`matmul_body`] under the widest available vector ISA.
    /// Returns `false` when neither AVX-512 nor AVX2 (each with FMA) is
    /// present and the caller should fall back to the baseline-compiled
    /// body.
    pub(super) fn run<const BIAS: bool, const SKIP: bool>(
        a: &[f64],
        b: &[f64],
        bias: &[f64],
        out: &mut [f64],
        k: usize,
        n: usize,
    ) -> bool {
        match isa() {
            // SAFETY: each arm is reached only after the corresponding
            // target feature was detected on this CPU at runtime.
            ISA_AVX512 => unsafe {
                match (BIAS, SKIP) {
                    (false, true) => mm_skip_avx512(a, b, bias, out, k, n),
                    (true, true) => mm_bias_avx512(a, b, bias, out, k, n),
                    (false, false) => mm_noskip_avx512(a, b, bias, out, k, n),
                    (true, false) => unreachable!("no biased no-skip kernel"),
                }
                true
            },
            ISA_AVX2 => unsafe {
                match (BIAS, SKIP) {
                    (false, true) => mm_skip_avx2(a, b, bias, out, k, n),
                    (true, true) => mm_bias_avx2(a, b, bias, out, k, n),
                    (false, false) => mm_noskip_avx2(a, b, bias, out, k, n),
                    (true, false) => unreachable!("no biased no-skip kernel"),
                }
                true
            },
            _ => false,
        }
    }
}

/// Dispatches one matmul sweep to the widest ISA monomorphization, falling
/// back to the baseline-compiled [`matmul_body`] off x86-64 (or on CPUs
/// without AVX2 and FMA).
#[inline]
fn run_matmul<const BIAS: bool, const SKIP: bool>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::run::<BIAS, SKIP>(a, b, bias, out, k, n) {
        return;
    }
    matmul_body::<BIAS, SKIP>(a, b, bias, out, k, n)
}

/// Applies [`crate::tanh`] in place to every element, on the widest vector
/// unit the CPU offers (falling back to the baseline-compiled body, as the
/// matmul dispatch does). Bit-identical to mapping [`crate::tanh`] over the
/// slice.
pub fn tanh_slice(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::tanh(xs) {
        return;
    }
    crate::tanh::tanh_body(xs)
}

/// Blocked `out = a · b` over a row range (`a` is `rows x k` for
/// `rows = out.len() / n`, `b` is `k x n`).
pub(crate) fn blocked_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    run_matmul::<false, true>(a, b, &[], out, k, n);
}

/// Blocked fused `out = a · b + bias` (bias broadcast across rows), over a
/// row range like [`blocked_matmul`]. Per element this is exactly
/// "complete the matmul sum, then one bias add" — the same op sequence as
/// the unfused matmul + broadcast composition.
pub(crate) fn blocked_matmul_bias(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    run_matmul::<true, true>(a, b, bias, out, k, n);
}

/// Blocked `out = a^T · b` (`a` is `k x m`, `b` is `k x n`).
///
/// Materializes `a^T` with the tiled transpose (a pure copy), then reuses
/// the row-tiled body — which preserves the naive per-element order:
/// k ascending, `a[k][i] == 0.0` terms skipped.
pub(crate) fn blocked_matmul_tn(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    let mut at = vec![0.0f64; k * m];
    blocked_transpose(a, &mut at, k, m);
    run_matmul::<false, true>(&at, b, &[], out, k, n);
}

/// Blocked `out = a · b^T` (`a` is `m x k`, `b` is `n x k`).
///
/// Materializes `b^T` (a pure copy), turning every output element's dot
/// product into the same k-ascending contiguous sweep as `matmul` — but
/// with **no zero-skip**, because the naive `nt` kernel has none (and the
/// skip is observable: `0.0 · ∞` must still produce NaN here).
pub(crate) fn blocked_matmul_nt(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let mut bt = vec![0.0f64; k * n];
    blocked_transpose(b, &mut bt, n, k);
    blocked_matmul_nt_pret(a, &bt, out, k, n);
}

/// The row-range half of [`blocked_matmul_nt`]: `out = a · bt` where `bt`
/// is the **already materialized** `b^T` (`k x n`), no zero-skip. Split
/// out so `Matrix` can transpose once and row-partition this body across
/// the pool — each chunk then runs the exact op sequence the serial `nt`
/// kernel runs after its own internal transpose.
pub(crate) fn blocked_matmul_nt_pret(a: &[f64], bt: &[f64], out: &mut [f64], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    run_matmul::<false, false>(a, bt, &[], out, k, n);
}

/// Blocked transpose copy: walks `TR_TILE x TR_TILE` tiles so both the
/// read and the write side stay within a cache-resident window. A pure
/// permutation — values are moved, never recomputed.
pub(crate) fn blocked_transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    for rb in (0..rows).step_by(TR_TILE) {
        let r_end = (rb + TR_TILE).min(rows);
        for cb in (0..cols).step_by(TR_TILE) {
            let c_end = (cb + TR_TILE).min(cols);
            for r in rb..r_end {
                let src_row = &src[r * cols..(r + 1) * cols];
                for c in cb..c_end {
                    dst[c * rows + r] = src_row[c];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the original loops, verbatim)
// ---------------------------------------------------------------------------

/// Reference serial i-k-j kernel over a row range of the output.
#[cfg(any(test, feature = "reference-kernels"))]
pub(crate) fn naive_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    let rows = out.len() / n.max(1);
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// Reference `a^T · b` kernel (`a` is `k x m`, `b` is `k x n`).
#[cfg(any(test, feature = "reference-kernels"))]
pub(crate) fn naive_matmul_tn(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aki * bv;
            }
        }
    }
}

/// Reference `a · b^T` kernel (`a` is `m x k`, `b` is `n x k`).
#[cfg(any(test, feature = "reference-kernels"))]
pub(crate) fn naive_matmul_nt(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// Reference transpose (the original element-wise double loop).
#[cfg(any(test, feature = "reference-kernels"))]
pub(crate) fn naive_transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Serializes tests that flip the process-wide kernel selection. Both
/// families are bit-identical, so concurrent *compute* is unaffected —
/// this lock only protects tests that assert on `kernel_kind()` itself.
#[cfg(test)]
pub(crate) static TEST_KERNEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_kernel_kind_round_trips() {
        let _guard = TEST_KERNEL_LOCK.lock().unwrap();
        let before = set_kernel_kind(KernelKind::Naive);
        assert_eq!(kernel_kind(), KernelKind::Naive);
        assert_eq!(set_kernel_kind(KernelKind::Blocked), KernelKind::Naive);
        assert_eq!(kernel_kind(), KernelKind::Blocked);
        set_kernel_kind(before);
    }

    /// The degenerate shapes every kernel must survive: zero rows, zero
    /// cols, zero inner dimension.
    #[test]
    fn empty_shapes_are_noops() {
        let mut out = [0.0f64; 0];
        blocked_matmul(&[], &[], &mut out, 0, 0);
        blocked_matmul_bias(&[], &[], &[], &mut out, 0, 0);
        blocked_matmul_tn(&[], &[], &mut out, 0, 0, 0);
        blocked_matmul_nt(&[], &[], &mut out, 0, 0);
        blocked_transpose(&[], &mut out, 0, 0);
        // k = 0 with nonempty output: all sums are empty, so out is zero.
        let mut out = [1.0f64; 6];
        blocked_matmul(&[], &[], &mut out, 0, 3);
        assert_eq!(out, [0.0; 6]);
    }
}
