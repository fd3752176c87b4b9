//! The crate's one `tanh`: a branch-free, host-independent port of fdlibm.
//!
//! This is fdlibm's `tanh` with its `expm1` inlined, using glibc's
//! Estrin-form `expm1` polynomial. Every `a * b ± c` that glibc's FMA build
//! contracts is written as [`f64::mul_add`]. A fused multiply-add rounds
//! once, exactly, on every host (in hardware or in libm's software `fma`),
//! so the result is the same on every CPU. On a host whose libm runs that
//! FMA build (glibc 2.36 on x86-64 with FMA), it equals `f64::tanh` bit for
//! bit; `tests/kernel_conformance.rs` checks this.
//!
//! The lane body has no branches. It computes every fdlibm case per lane
//! and then selects one: NaN, `|x| < 2⁻⁵⁵` (which also covers ±0 and the
//! subnormals), `|x| < 1`, `|x| < 22`, and `|x| ≥ 22` (which also covers
//! ±∞). A slice loop over it vectorizes, and `kernels::simd`
//! re-monomorphizes that loop under AVX-512/AVX2 with FMA, exactly as it
//! does the matmul body. The op sequence of each lane stays the same at any
//! vector width, so the bits do too.

// fdlibm's constants, by their bit patterns (as its source gives them).
/// `ln 2`, split so that `k · LN2_HI` is exact for the `k` used here.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// The rest of `ln 2`: `LN2_HI + LN2_LO ≈ ln 2`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1 / ln 2`.
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// fdlibm's scaled `expm1` coefficients `Q1..Q5`.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `2⁻⁵⁵`: below it fdlibm returns `x · (1 + x)`.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// `2⁵² + 1023`: adding it to a small integer-valued `k` leaves `k + 1023`
/// in the low mantissa bits, ready to shift into the exponent field.
const POW2_BIAS: f64 = 4_503_599_627_370_496.0 + 1023.0;
const SIGN: u64 = 1 << 63;

/// `2^k` for an integer-valued `k` in the normal exponent range, built
/// from bits. Multiplying by it is exact where fdlibm adds `k` to the
/// exponent field of a value near 1.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits((k + POW2_BIAS).to_bits() << 52)
}

/// `expm1(a)` for the two arguments fdlibm's `tanh` passes: `a = 2|x|` in
/// `[2, 44)` and `a = −2|x|` in `(−2, −2⁻⁵⁴]`. So the reduction multiple
/// `k` is in `{−3, …, 0} ∪ [3, 63]`, and the overflow, `k = 1` and
/// `|a| < 2⁻⁵⁴` branches of the full `expm1` are never taken. `pos` is
/// `a > 0`.
#[inline(always)]
fn expm1_lane(a: f64, pos: bool) -> f64 {
    // Argument reduction `a = k·ln2 + r`. fdlibm's three regimes differ only
    // in `k`: 0 when `|a| ≤ ½ ln2`, ±1 when `|a| < 1.5 ln2`, else
    // `trunc(a/ln2 ± ½)`. With that `k`, the general `hi`/`lo` formulas
    // give exactly the special cases (`a ∓ LN2_HI`, and `a` itself at k = 0).
    let ha = (a.to_bits() >> 32) & 0x7fff_ffff;
    let unit = if pos { 1.0 } else { -1.0 };
    let k = if ha <= 0x3fd6_2e42 {
        0.0
    } else if ha < 0x3ff0_a2b2 {
        unit
    } else {
        INVLN2.mul_add(a, 0.5 * unit).trunc()
    };
    let hi = (-k).mul_add(LN2_HI, a);
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // `r` is in the primary range: glibc's Estrin-form rational core.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let p1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let p2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let p3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(p3, h2.mul_add(p2, p1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-r).mul_add(t, 6.0));

    // Reconstruction: one candidate per range of `k`, then a select.
    let at_zero = r - r.mul_add(e, -hxs);
    let e = r.mul_add(e - c, -c) - hxs;
    let at_minus_one = 0.5f64.mul_add(r - e, -0.5);
    let scale = pow2(k);
    let ulp = pow2(-k);
    let wide = (1.0 - (e - r)) * scale - 1.0;
    let low = ((1.0 - ulp) - (e - r)) * scale;
    let mid = ((r - (e + ulp)) + 1.0) * scale;
    if k == 0.0 {
        at_zero
    } else if k == -1.0 {
        at_minus_one
    } else if k <= -2.0 || k > 56.0 {
        wide
    } else if k < 20.0 {
        low
    } else {
        mid
    }
}

/// `a` where `mask` is all ones, `b` where it is all zeros, by bits.
#[inline(always)]
fn blend(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// Hyperbolic tangent, host-independent (see the module docs).
///
/// This is the lane body: every fdlibm case is computed, then one is
/// selected, so a loop over it has no branches to stop vectorization.
/// Batches should use [`crate::tanh_slice`], which runs the same ops on the
/// widest vector unit.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2), t = expm1(−2|x|).
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax }, big);
    // The two later `big` selects are bit blends, not `if`s: LLVM threads
    // repeated `if big` branches through the inlined `expm1_lane`, and the
    // vectorized loop then runs both copies (two `expm1`s and two
    // quotients: four divides per vector instead of two).
    let m = (big as u64).wrapping_neg();
    let q = blend(m, 2.0, -t) / (t + 2.0);
    let z = blend(m, 1.0 - q, q);
    // |x| ≥ 22 (±∞ included): fdlibm's `1 − tiny`, which rounds to 1.
    let z = if ax < 22.0 { z } else { 1.0 };
    // `z ≥ 0`, so flipping the sign bit is fdlibm's `−z` for negative x.
    let signed = f64::from_bits(z.to_bits() ^ (x.to_bits() & SIGN));
    let y = if ax < TINY { x * (1.0 + x) } else { signed };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// Applies [`tanh`] to every element of `xs`: the loop `kernels::simd`
/// re-monomorphizes.
#[inline(always)]
pub(crate) fn tanh_body(xs: &mut [f64]) {
    for v in xs {
        *v = tanh(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tanh_slice;

    #[test]
    fn pow2_builds_exact_powers() {
        for k in -3..=63 {
            assert_eq!(pow2(k as f64), 2f64.powi(k), "k = {k}");
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(22.0), 1.0);
        assert_eq!(tanh(-700.0), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        let sub = f64::from_bits(1);
        assert_eq!(tanh(sub), sub);
        assert_eq!(tanh(-sub), -sub);
    }

    #[test]
    fn odd_and_bounded() {
        for i in -3000..=3000 {
            let x = i as f64 / 100.0;
            let y = tanh(x);
            assert_eq!(y.to_bits(), (-tanh(-x)).to_bits(), "x = {x}");
            assert!((-1.0..=1.0).contains(&y), "x = {x}");
            assert!((y - x.tanh()).abs() <= 2.0 * f64::EPSILON, "x = {x}");
        }
    }

    #[test]
    fn slice_matches_scalar() {
        let mut xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.0625).collect();
        let want: Vec<u64> = xs.iter().map(|&x| tanh(x).to_bits()).collect();
        tanh_slice(&mut xs);
        let got: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }
}
