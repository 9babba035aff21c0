//! AVX-512 lanes for [`super`]'s slice kernels: sixteen `f32`s per zmm,
//! each lane the scalar port's IEEE operations in the scalar port's order.
//!
//! `expf`'s `f64` part runs as two halves of eight lanes; its five fused
//! multiply-adds are `vfmadd`/`vfmsub` (`fma(a, b, −c)` and `a·b − c` round
//! once, identically), every other operation a plain rounded one — Rust
//! never contracts `mul` then `add` into an `fma`. A lane outside the fast
//! range is computed anyway, then overwritten with the scalar port's value,
//! so lanes that are NaN, infinite or on a special branch cost one scalar
//! call each.
//!
//! The kernels are `#[target_feature(enable = "avx512f")]` functions, so
//! their intrinsics are safe calls; `unsafe` is confined to the three entry
//! points, and loads and stores go through the backend tile's masked
//! helpers.

use crate::backend::avx512::{load_tail, store_tail, tail_mask, L};
use std::arch::x86_64::*;

/// `v[i] = expf(v[i])` (see [`super::exp_in_place`]).
pub(super) fn exp_in_place(v: &mut [f32]) {
    // SAFETY: this module is compiled only when `avx512f` is enabled for the
    // whole build target, so every CPU the binary may run on has it.
    unsafe { exp_avx512(v) }
}

/// `v[i] = sigmoid(v[i])` (see [`super::sigmoid_in_place`]).
pub(super) fn sigmoid_in_place(v: &mut [f32]) {
    // SAFETY: as for `exp_in_place`.
    unsafe { sigmoid_avx512(v) }
}

/// `v[i] = tanhf(v[i])` (see [`super::tanh_in_place`]).
pub(super) fn tanh_in_place(v: &mut [f32]) {
    // SAFETY: as for `exp_in_place`.
    unsafe { tanh_avx512(v) }
}

#[target_feature(enable = "avx512f")]
fn exp_avx512(v: &mut [f32]) {
    for c in v.chunks_mut(L) {
        map_zmm(c, |x| exp_lanes(x), super::expf);
    }
}

#[target_feature(enable = "avx512f")]
fn sigmoid_avx512(v: &mut [f32]) {
    for c in v.chunks_mut(L) {
        map_zmm(c, |x| sigmoid_lanes(x), super::sigmoid);
    }
}

#[target_feature(enable = "avx512f")]
fn tanh_avx512(v: &mut [f32]) {
    for c in v.chunks_mut(L) {
        map_zmm(c, |x| tanh_lanes(x), super::tanhf);
    }
}

/// Maps up to sixteen elements: `lanes` computes every lane and flags those
/// outside its fast range, which `scalar` then recomputes from the input.
#[target_feature(enable = "avx512f")]
#[inline]
fn map_zmm(c: &mut [f32], lanes: impl Fn(__m512) -> (__m512, __mmask16), scalar: fn(f32) -> f32) {
    let x = load_tail(c);
    let (y, slow) = lanes(x);
    if slow & tail_mask(c.len()) == 0 {
        store_tail(c, y);
    } else {
        let mut xs = [0.0f32; L];
        xs[..c.len()].copy_from_slice(c);
        store_tail(c, y);
        for (i, (o, &xi)) in c.iter_mut().zip(&xs).enumerate() {
            if slow >> i & 1 != 0 {
                *o = scalar(xi);
            }
        }
    }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat_u32(b: u32) -> __m512i {
    _mm512_set1_epi32(b as i32)
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat(x: f32) -> __m512 {
    _mm512_set1_ps(x)
}

/// The eight table entries `t[0..8]` as one zmm of `u64` lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn table8(t: &[u64]) -> __m512i {
    let e = |i: usize| t[i] as i64;
    _mm512_set_epi64(e(7), e(6), e(5), e(4), e(3), e(2), e(1), e(0))
}

/// `expf` over all sixteen lanes; flags `|x| ≥ 88` and non-finite lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn exp_lanes(x: __m512) -> (__m512, __mmask16) {
    let abstop = _mm512_and_si512(
        _mm512_srli_epi32::<20>(_mm512_castps_si512(x)),
        splat_u32(0x7ff),
    );
    let slow = _mm512_cmpge_epu32_mask(abstop, splat_u32(super::EXP_TOP12_88));
    let xd = _mm512_castps_pd(x);
    let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(x));
    let hi = _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(xd)));
    let lo = _mm512_castps256_ps512(_mm512_cvtpd_ps(exp_f64(lo)));
    let hi = _mm512_cvtpd_ps(exp_f64(hi));
    let y = _mm512_insertf64x4::<1>(_mm512_castps_pd(lo), _mm256_castps_pd(hi));
    (_mm512_castpd_ps(y), slow)
}

/// `expf`'s `f64` body on eight lanes, before the rounding to `f32`.
#[target_feature(enable = "avx512f")]
#[inline]
fn exp_f64(xd: __m512d) -> __m512d {
    let inv_ln2_n = _mm512_set1_pd(super::EXP_INV_LN2_N);
    let shift = _mm512_set1_pd(super::EXP_SHIFT);
    let kd = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm512_castpd_si512(kd);
    let kd = _mm512_sub_pd(kd, shift);
    let r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
    // T[ki % 32]: two 16-entry permutes, picked by bit 4 of the index.
    let t = &super::EXP_TABLE;
    let lo = _mm512_permutex2var_epi64(table8(&t[0..8]), ki, table8(&t[8..16]));
    let hi = _mm512_permutex2var_epi64(table8(&t[16..24]), ki, table8(&t[24..32]));
    let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    let tab = _mm512_mask_blend_epi64(upper, lo, hi);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(tab, _mm512_slli_epi64::<47>(ki)));
    let [c0, c1, c2] = super::EXP_C.map(|c| _mm512_set1_pd(c));
    let z = _mm512_fmadd_pd(c0, r, c1);
    let r2 = _mm512_mul_pd(r, r);
    let y = _mm512_fmadd_pd(c2, r, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, r2, y);
    _mm512_mul_pd(y, s)
}

/// The sigmoid over all sixteen lanes: `e = expf(−|x|)`, which is the
/// scalar port's `expf(−x)` for `x ≥ 0` and `expf(x)` below, then
/// `1 / (1 + e)` or `e / (1 + e)`. Flags the lanes `exp` flags.
#[target_feature(enable = "avx512f")]
#[inline]
fn sigmoid_lanes(x: __m512) -> (__m512, __mmask16) {
    let neg_abs = _mm512_castsi512_ps(_mm512_or_si512(
        _mm512_castps_si512(x),
        splat_u32(0x8000_0000),
    ));
    let (e, slow) = exp_lanes(neg_abs);
    let one = splat(1.0);
    let nonneg = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_setzero_ps());
    let num = _mm512_mask_blend_ps(nonneg, e, one);
    (_mm512_div_ps(num, _mm512_add_ps(one, e)), slow)
}

/// `tanhf` over all sixteen lanes, with `expm1f` inlined on the arguments
/// tanh's fast range gives it: `2|x| ∈ [2, 44)`, where its reduction
/// constant is `k ∈ [3, 63]`, and `−2|x| ∈ (−2, −2⁻⁵⁴]`, where `k ∈ {−3,
/// −2, −1, 0}` or `|2x| < 2⁻²⁵` returns the argument. Every branch is
/// computed and each lane takes its own. Flags `|x| < 2⁻⁵⁵`, `|x| ≥ 22` and
/// non-finite lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn tanh_lanes(x: __m512) -> (__m512, __mmask16) {
    let one = splat(1.0);
    let two = splat(2.0);
    let half = splat(0.5);
    let xi = _mm512_castps_si512(x);
    let ix = _mm512_and_si512(xi, splat_u32(0x7fff_ffff));
    let sign = _mm512_and_si512(xi, splat_u32(0x8000_0000));
    let slow = _mm512_cmplt_epu32_mask(ix, splat_u32(0x2400_0000))
        | _mm512_cmpge_epu32_mask(ix, splat_u32(0x41b0_0000));
    let big = _mm512_cmpge_epu32_mask(ix, splat_u32(0x3f80_0000)); // |x| >= 1

    // expm1f's argument: 2|x| for |x| >= 1, −2|x| below; `hx` is |arg|.
    let two_abs = _mm512_mul_ps(two, _mm512_castsi512_ps(ix));
    let hx = _mm512_castps_si512(two_abs);
    let a = _mm512_castsi512_ps(_mm512_mask_blend_epi32(
        big,
        _mm512_or_si512(hx, splat_u32(0x8000_0000)),
        hx,
    ));

    // Argument reduction: k = 0, ±1, or ⌊a/ln2 ± 1/2⌉ truncated.
    let mid = _mm512_cmpgt_epu32_mask(hx, splat_u32(0x3eb1_7218)); // |a| > 0.5·ln2
    let far = _mm512_cmpge_epu32_mask(hx, splat_u32(0x3f85_1592)); // |a| >= 1.5·ln2
    let rounding = _mm512_mask_blend_ps(big, splat(-0.5), half);
    let k_far = _mm512_cvttps_epi32(_mm512_add_ps(
        _mm512_mul_ps(splat(super::EXPM1_INV_LN2), a),
        rounding,
    ));
    let k_one = _mm512_mask_blend_epi32(big, _mm512_set1_epi32(-1), _mm512_set1_epi32(1));
    let k = _mm512_mask_blend_epi32(far, k_one, k_far);
    let k = _mm512_maskz_mov_epi32(mid, k);
    let t = _mm512_cvtepi32_ps(k);
    // For k = 0 these give r = a exactly; for k = ±1 they are fdlibm's
    // `a ∓ ln2_hi` and `±ln2_lo`.
    let hi = _mm512_sub_ps(a, _mm512_mul_ps(t, splat(super::EXPM1_LN2_HI)));
    let lo = _mm512_mul_ps(t, splat(super::EXPM1_LN2_LO));
    let r = _mm512_sub_ps(hi, lo);
    let c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

    // The primary range.
    let [q1, q2, q3, q4, q5] = super::EXPM1_Q.map(|q| splat(q));
    let hfx = _mm512_mul_ps(half, r);
    let hxs = _mm512_mul_ps(r, hfx);
    let p = _mm512_add_ps(q4, _mm512_mul_ps(hxs, q5));
    let p = _mm512_add_ps(q3, _mm512_mul_ps(hxs, p));
    let p = _mm512_add_ps(q2, _mm512_mul_ps(hxs, p));
    let p = _mm512_add_ps(q1, _mm512_mul_ps(hxs, p));
    let r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, p));
    let tt = _mm512_sub_ps(splat(3.0), _mm512_mul_ps(r1, hfx));
    let e = _mm512_mul_ps(
        hxs,
        _mm512_div_ps(
            _mm512_sub_ps(r1, tt),
            _mm512_sub_ps(splat(6.0), _mm512_mul_ps(r, tt)),
        ),
    );
    // k == 0
    let y_zero = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
    let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
    // k == −1
    let y_minus = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r, e)), half);
    let k_exp = _mm512_slli_epi32::<23>(k);
    let scale = |y: __m512| _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), k_exp));
    // k <= −2 or k > 56
    let y_wide = _mm512_sub_ps(scale(_mm512_sub_ps(one, _mm512_sub_ps(e, r))), one);
    // 2 <= k < 23: t = 1 − 2^−k
    let t_low = _mm512_castsi512_ps(_mm512_sub_epi32(
        splat_u32(0x3f80_0000),
        _mm512_srlv_epi32(splat_u32(0x0100_0000), k),
    ));
    let y_low = scale(_mm512_sub_ps(t_low, _mm512_sub_ps(e, r)));
    // 23 <= k <= 56: t = 2^−k
    let t_high = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(
        _mm512_set1_epi32(0x7f),
        k,
    )));
    let y_high = scale(_mm512_add_ps(
        _mm512_sub_ps(r, _mm512_add_ps(e, t_high)),
        one,
    ));

    let is = |v: i32| _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(v));
    let k_wide = _mm512_cmple_epi32_mask(k, _mm512_set1_epi32(-2))
        | _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
    let k_low = _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23));
    let em1 = _mm512_mask_blend_ps(k_low, y_high, y_low);
    let em1 = _mm512_mask_blend_ps(k_wide, em1, y_wide);
    let em1 = _mm512_mask_blend_ps(is(-1), em1, y_minus);
    let em1 = _mm512_mask_blend_ps(is(0), em1, y_zero);
    let tiny = _mm512_cmplt_epu32_mask(hx, splat_u32(0x3300_0000)); // |a| < 2^-25
    let em1 = _mm512_mask_blend_ps(tiny, em1, a);

    // tanh from expm1: 1 − 2/(t + 2) for |x| >= 1, −t/(t + 2) below, with
    // one division for both.
    let neg_em1 = _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(em1),
        splat_u32(0x8000_0000),
    ));
    let q = _mm512_div_ps(
        _mm512_mask_blend_ps(big, neg_em1, two),
        _mm512_add_ps(em1, two),
    );
    let z = _mm512_mask_sub_ps(q, big, one, q);
    let y = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(z), sign));
    (y, slow)
}
