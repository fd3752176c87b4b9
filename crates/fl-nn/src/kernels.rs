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

/// Output rows of one `tn` register block: each `b` row tile loaded at a
/// k-step feeds this many rows' accumulators.
const TN_ROWS: usize = 4;

/// k-steps per pass of the `tn` body. One pass reads a `TN_KBLOCK`-row slab
/// of `a` and of `b`, which stays cache-resident while every output block
/// takes its terms from it.
const TN_KBLOCK: usize = 64;

// ---------------------------------------------------------------------------
// Blocked kernels
// ---------------------------------------------------------------------------

/// One `T`-wide column tile of one output row:
/// `out_row[j + t] = (init[j + t] +) Σ_k a_row[k] · b[k][j + t] (+ bias[j + t])`.
///
/// The k loop is outer with `T` register accumulators, so per element the
/// accumulation is the naive order: k ascending, terms with
/// `a_row[k] == 0.0` skipped when `SKIP`, bias (if any) added last. With
/// `INIT` the accumulators start from `init` instead of `0.0`: the state a
/// longer k-sum reached after its leading terms, which this call continues.
/// The tile body is elementwise `mul` then `add` — never `mul_add` — so
/// wider vector units change throughput, not bits.
#[inline(always)]
fn tile_cols<const T: usize, const BIAS: bool, const SKIP: bool, const INIT: bool>(
    a_row: &[f64],
    b: &[f64],
    bias: &[f64],
    init: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [0.0f64; T];
    if INIT {
        acc.copy_from_slice(&init[j..j + T]);
    }
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
fn tail_cols<const BIAS: bool, const SKIP: bool, const INIT: bool>(
    a_row: &[f64],
    b: &[f64],
    bias: &[f64],
    init: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [0.0f64; W_NARROW];
    let acc = &mut acc[..n - j];
    if INIT {
        acc.copy_from_slice(&init[j..]);
    }
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

/// Register-tiled `out = (init +) a · b (+ bias)` over a row range (`a` is
/// `rows x k` for `rows = out.len() / n`, `b` is `k x n`, `n > 0`; with
/// `INIT`, every row's accumulators start from the one `init` row).
///
/// This single body is the whole blocked-kernel algorithm; the `simd`
/// module re-monomorphizes it under wider target features. Column tiles
/// partition `j`, so no element's k-term op sequence ever changes.
#[inline(always)]
fn matmul_body<const BIAS: bool, const SKIP: bool, const INIT: bool>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    init: &[f64],
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
            tile_cols::<W_WIDE, BIAS, SKIP, INIT>(a_row, b, bias, init, out_row, n, j);
            j += W_WIDE;
        }
        while j + W_NARROW <= n {
            tile_cols::<W_NARROW, BIAS, SKIP, INIT>(a_row, b, bias, init, out_row, n, j);
            j += W_NARROW;
        }
        if j < n {
            tail_cols::<BIAS, SKIP, INIT>(a_row, b, bias, init, out_row, n, j);
        }
    }
}

/// Lanes of [`head_body`]: rows whose k-sums advance together.
const HEAD_LANES: usize = 8;

/// The one-column fused forward `out[i] = Σ_k a[i][k] · w[k] + bias`, rows
/// interleaved (`a` is `rows x k` for `rows = out.len()`).
///
/// [`matmul_body`] at `n = 1` runs one row's k-sum at a time, a chain of
/// dependent adds. Here each of [`HEAD_LANES`] lanes carries one row's
/// chain, and the lanes take step `k` together, so the chains overlap. Per
/// element the op sequence is the naive one: k ascending, then the bias. The zero-skip is a per-lane
/// select that keeps the accumulator as it was; adding `0 · w` instead
/// would turn a `-0.0` sum into `+0.0` and `0 · ∞` into NaN.
#[inline(always)]
fn head_body(a: &[f64], w: &[f64], bias: f64, out: &mut [f64], k: usize) {
    let mut blocks = a.chunks_exact(k * HEAD_LANES);
    let mut outs = out.chunks_exact_mut(HEAD_LANES);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        let rows: [&[f64]; HEAD_LANES] = std::array::from_fn(|l| &block[l * k..(l + 1) * k]);
        let mut acc = [0.0f64; HEAD_LANES];
        for (kk, &wk) in w[..k].iter().enumerate() {
            for l in 0..HEAD_LANES {
                let x = rows[l][kk];
                let sum = acc[l] + x * wk;
                acc[l] = if x == 0.0 { acc[l] } else { sum };
            }
        }
        for (o, acc) in out.iter_mut().zip(acc) {
            *o = acc + bias;
        }
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(k)
        .zip(outs.into_remainder())
    {
        let mut acc = 0.0f64;
        for (&x, &wk) in row.iter().zip(w) {
            if x != 0.0 {
                acc += x * wk;
            }
        }
        *o = acc + bias;
    }
}

/// One `R x w` block (`w <= T`) of `out = aᵀ · b` over one k-slab,
/// continued from `out`: output rows `r..r + R` (columns `i..i + R` of
/// `a`), columns `j..j + w`. Full tiles pass `w = T`, which the inlined
/// body sees as a constant; the column tail passes its runtime width.
///
/// `a` and `b` are the slab's rows in their stored layout (`m` and `n`
/// wide). Each k-step reads the contiguous `a[k][i..i + R]` and one
/// `b[k][j..j + w]` tile, so one `b` load feeds `R` rows. Per element the
/// op sequence is the naive one: k ascending, a term with `a[k][i] == 0.0`
/// skipped, `mul` then `add`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_block<const R: usize, const T: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    i: usize,
    r: usize,
    j: usize,
    w: usize,
) {
    let mut acc = [[0.0f64; T]; R];
    for (row, acc) in acc.iter_mut().enumerate() {
        let at = (r + row) * n + j;
        acc[..w].copy_from_slice(&out[at..at + w]);
    }
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let xs: &[f64; R] = (&a_row[i..i + R]).try_into().expect("row block");
        let b_tile = &b_row[j..j + w];
        for (acc, &x) in acc.iter_mut().zip(xs) {
            if x == 0.0 {
                continue;
            }
            for (o, &bv) in acc[..w].iter_mut().zip(b_tile) {
                *o += x * bv;
            }
        }
    }
    for (row, acc) in acc.iter().enumerate() {
        let at = (r + row) * n + j;
        out[at..at + w].copy_from_slice(&acc[..w]);
    }
}

/// `R` output rows of one k-slab of [`tn_body`], across every column tile.
#[inline(always)]
fn tn_rows<const R: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    i: usize,
    r: usize,
) {
    let mut j = 0;
    while j + W_WIDE <= n {
        tn_block::<R, W_WIDE>(a, b, out, m, n, i, r, j, W_WIDE);
        j += W_WIDE;
    }
    while j + W_NARROW <= n {
        tn_block::<R, W_NARROW>(a, b, out, m, n, i, r, j, W_NARROW);
        j += W_NARROW;
    }
    if j < n {
        tn_block::<R, W_NARROW>(a, b, out, m, n, i, r, j, n - j);
    }
}

/// `L` lanes of the one-column `tn` over one k-slab, continued from `out`:
/// `out[r + l] += Σ_k a[k][i + l] · b[k]`. The lanes run across `a`'s row,
/// and the zero-skip is a per-lane select that keeps the accumulator, as in
/// [`head_body`].
#[inline(always)]
fn tn_lanes<const L: usize>(a: &[f64], b: &[f64], out: &mut [f64], m: usize, i: usize, r: usize) {
    let mut acc: [f64; L] = out[r..r + L].try_into().expect("lane count");
    for (a_row, &bk) in a.chunks_exact(m).zip(b) {
        let xs: &[f64; L] = (&a_row[i..i + L]).try_into().expect("lane count");
        for (acc, &x) in acc.iter_mut().zip(xs) {
            let sum = *acc + x * bk;
            *acc = if x == 0.0 { *acc } else { sum };
        }
    }
    out[r..r + L].copy_from_slice(&acc);
}

/// Blocked `out = aᵀ · b` over output rows `i0..i0 + out.len() / n`, with
/// `a` (`k x m`) and `b` (`k x n`) read in their stored layout; `out` holds
/// `0.0`s on entry and `n > 0`.
///
/// k is walked in [`TN_KBLOCK`] slabs; every output element continues its
/// accumulator from `out` across slabs (an `f64` store and reload is
/// exact). Within a slab, [`TN_ROWS`] x 32 register blocks share each `b`
/// row tile across the rows. One output column (the value or one-action
/// head) runs lanes across `a`'s row instead.
#[inline(always)]
fn tn_body(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize, i0: usize) {
    let rows = out.len() / n;
    for k0 in (0..k).step_by(TN_KBLOCK) {
        let k1 = (k0 + TN_KBLOCK).min(k);
        let (a, b) = (&a[k0 * m..k1 * m], &b[k0 * n..k1 * n]);
        let mut r = 0;
        if n == 1 {
            while r + W_WIDE <= rows {
                tn_lanes::<W_WIDE>(a, b, out, m, i0 + r, r);
                r += W_WIDE;
            }
            while r + W_NARROW <= rows {
                tn_lanes::<W_NARROW>(a, b, out, m, i0 + r, r);
                r += W_NARROW;
            }
            while r < rows {
                tn_lanes::<1>(a, b, out, m, i0 + r, r);
                r += 1;
            }
            continue;
        }
        while r + TN_ROWS <= rows {
            tn_rows::<TN_ROWS>(a, b, out, m, n, i0 + r, r);
            r += TN_ROWS;
        }
        while r < rows {
            tn_rows::<1>(a, b, out, m, n, i0 + r, r);
            r += 1;
        }
    }
}

/// Runtime-dispatched SIMD monomorphizations of [`matmul_body`],
/// [`head_body`], [`tn_body`] and the `tanh` slice body.
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
    use super::{head_body, matmul_body, tn_body};
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
        ($name:ident, $feat:literal, $bias:literal, $skip:literal, $init:literal) => {
            #[target_feature(enable = $feat)]
            fn $name(
                a: &[f64],
                b: &[f64],
                bias: &[f64],
                init: &[f64],
                out: &mut [f64],
                k: usize,
                n: usize,
            ) {
                matmul_body::<$bias, $skip, $init>(a, b, bias, init, out, k, n)
            }
        };
    }

    monomorphize!(mm_skip_avx512, "avx512f,fma", false, true, false);
    monomorphize!(mm_bias_avx512, "avx512f,fma", true, true, false);
    monomorphize!(mm_from_avx512, "avx512f,fma", true, true, true);
    monomorphize!(mm_noskip_avx512, "avx512f,fma", false, false, false);
    monomorphize!(mm_skip_avx2, "avx2,fma", false, true, false);
    monomorphize!(mm_bias_avx2, "avx2,fma", true, true, false);
    monomorphize!(mm_from_avx2, "avx2,fma", true, true, true);
    monomorphize!(mm_noskip_avx2, "avx2,fma", false, false, false);

    #[target_feature(enable = "avx512f,fma")]
    fn head_avx512(a: &[f64], w: &[f64], bias: f64, out: &mut [f64], k: usize) {
        head_body(a, w, bias, out, k)
    }

    #[target_feature(enable = "avx2,fma")]
    fn head_avx2(a: &[f64], w: &[f64], bias: f64, out: &mut [f64], k: usize) {
        head_body(a, w, bias, out, k)
    }

    #[target_feature(enable = "avx512f,fma")]
    fn tn_avx512(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize, i0: usize) {
        tn_body(a, b, out, k, m, n, i0)
    }

    #[target_feature(enable = "avx2,fma")]
    fn tn_avx2(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize, i0: usize) {
        tn_body(a, b, out, k, m, n, i0)
    }

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

    /// Runs [`head_body`] under the widest available vector ISA; `false`
    /// means the caller should run the baseline-compiled body.
    pub(super) fn head(a: &[f64], w: &[f64], bias: f64, out: &mut [f64], k: usize) -> bool {
        match isa() {
            // SAFETY: each arm is reached only after the corresponding
            // target features were detected on this CPU at runtime.
            ISA_AVX512 => unsafe { head_avx512(a, w, bias, out, k) },
            ISA_AVX2 => unsafe { head_avx2(a, w, bias, out, k) },
            _ => return false,
        }
        true
    }

    /// Runs [`tn_body`] under the widest available vector ISA; `false`
    /// means the caller should run the baseline-compiled body.
    pub(super) fn tn(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        k: usize,
        m: usize,
        n: usize,
        i0: usize,
    ) -> bool {
        match isa() {
            // SAFETY: each arm is reached only after the corresponding
            // target features were detected on this CPU at runtime.
            ISA_AVX512 => unsafe { tn_avx512(a, b, out, k, m, n, i0) },
            ISA_AVX2 => unsafe { tn_avx2(a, b, out, k, m, n, i0) },
            _ => return false,
        }
        true
    }

    /// Runs [`matmul_body`] under the widest available vector ISA.
    /// Returns `false` when neither AVX-512 nor AVX2 (each with FMA) is
    /// present and the caller should fall back to the baseline-compiled
    /// body.
    pub(super) fn run<const BIAS: bool, const SKIP: bool, const INIT: bool>(
        a: &[f64],
        b: &[f64],
        bias: &[f64],
        init: &[f64],
        out: &mut [f64],
        k: usize,
        n: usize,
    ) -> bool {
        match isa() {
            // SAFETY: each arm is reached only after the corresponding
            // target feature was detected on this CPU at runtime.
            ISA_AVX512 => unsafe {
                match (BIAS, SKIP, INIT) {
                    (false, true, false) => mm_skip_avx512(a, b, bias, init, out, k, n),
                    (true, true, false) => mm_bias_avx512(a, b, bias, init, out, k, n),
                    (true, true, true) => mm_from_avx512(a, b, bias, init, out, k, n),
                    (false, false, false) => mm_noskip_avx512(a, b, bias, init, out, k, n),
                    _ => unreachable!("no such kernel variant"),
                }
                true
            },
            ISA_AVX2 => unsafe {
                match (BIAS, SKIP, INIT) {
                    (false, true, false) => mm_skip_avx2(a, b, bias, init, out, k, n),
                    (true, true, false) => mm_bias_avx2(a, b, bias, init, out, k, n),
                    (true, true, true) => mm_from_avx2(a, b, bias, init, out, k, n),
                    (false, false, false) => mm_noskip_avx2(a, b, bias, init, out, k, n),
                    _ => unreachable!("no such kernel variant"),
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
fn run_matmul<const BIAS: bool, const SKIP: bool, const INIT: bool>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    init: &[f64],
    out: &mut [f64],
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::run::<BIAS, SKIP, INIT>(a, b, bias, init, out, k, n) {
        return;
    }
    matmul_body::<BIAS, SKIP, INIT>(a, b, bias, init, out, k, n)
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
    run_matmul::<false, true, false>(a, b, &[], &[], out, k, n);
}

/// Blocked fused `out = a · b + bias` (bias broadcast across rows), over a
/// row range like [`blocked_matmul`]. Per element this is exactly
/// "complete the matmul sum, then one bias add" — the same op sequence as
/// the unfused matmul + broadcast composition. One output column (a value
/// or one-action policy head) runs the rows-interleaved [`head_body`],
/// which keeps that op sequence per element.
fn blocked_matmul_bias(a: &[f64], b: &[f64], bias: &[f64], out: &mut [f64], k: usize, n: usize) {
    match n {
        0 => {}
        // An empty k-sum: `0.0 + bias`, as `matmul_body` gives it.
        1 if k == 0 => out.fill(0.0 + bias[0]),
        1 => {
            #[cfg(target_arch = "x86_64")]
            if simd::head(a, b, bias[0], out, k) {
                return;
            }
            head_body(a, b, bias[0], out, k)
        }
        _ => run_matmul::<true, true, false>(a, b, bias, &[], out, k, n),
    }
}

/// The dense pre-activation `out = (init +) a · b + bias` over a row range
/// (`a` is `rows x k`, `b` is `k x n` for `n = bias.len()`), serial, on the
/// `kind` family: the blocked kernels, or the reference composition of
/// zeroed output, naive matmul and bias add. Both give the same bits.
///
/// With `init`, every row's accumulators start from the one `init` row
/// (`n` wide) instead of `0.0`. When `init` is the k-sum of a longer row's
/// leading terms against the leading rows of a weight matrix, `a` the rest
/// of that row and `b` the remaining weight rows, each element runs exactly
/// the op sequence the whole row runs without it: k ascending, zero-skip,
/// bias last.
pub(crate) fn affine(
    kind: KernelKind,
    init: Option<&[f64]>,
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
    k: usize,
) {
    let n = bias.len();
    if n == 0 {
        return;
    }
    match kind {
        KernelKind::Blocked => match init {
            Some(init) => run_matmul::<true, true, true>(a, b, bias, init, out, k, n),
            None => blocked_matmul_bias(a, b, bias, out, k, n),
        },
        #[cfg(any(test, feature = "reference-kernels"))]
        KernelKind::Naive => {
            for row in out.chunks_exact_mut(n) {
                match init {
                    Some(init) => row.copy_from_slice(init),
                    None => row.fill(0.0),
                }
            }
            naive_matmul(a, b, out, k, n);
            for row in out.chunks_exact_mut(n) {
                for (o, b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
    }
}

/// Blocked `out = aᵀ · b` over output rows `i0..i0 + out.len() / n` (`a`
/// is `k x m`, `b` is `k x n`, `out` zeroed on entry), read in the stored
/// layout: no `aᵀ` is formed. The rows are independent, so [`crate::Matrix`]
/// hands each pool partition its own `i0` and the bits cannot depend on
/// the split.
pub(crate) fn blocked_matmul_tn(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
    i0: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::tn(a, b, out, k, m, n, i0) {
        return;
    }
    tn_body(a, b, out, k, m, n, i0)
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
    run_matmul::<false, false, false>(a, bt, &[], &[], out, k, n);
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
        blocked_matmul_tn(&[], &[], &mut out, 0, 0, 0, 0);
        blocked_matmul_nt(&[], &[], &mut out, 0, 0);
        blocked_transpose(&[], &mut out, 0, 0);
        // k = 0 with nonempty output: all sums are empty, so out is zero.
        let mut out = [1.0f64; 6];
        blocked_matmul(&[], &[], &mut out, 0, 3);
        assert_eq!(out, [0.0; 6]);
        // ... and a one-column fused forward is the bias alone.
        blocked_matmul_bias(&[], &[], &[2.5], &mut out, 0, 1);
        assert_eq!(out, [2.5; 6]);
    }
}
