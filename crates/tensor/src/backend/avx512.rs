//! AVX-512 register tiles for [`super::Tiled`]: the `8×16` GEMM
//! micro-kernel, the CSR SpMM row kernel and the batch-sum add.
//!
//! Compiled only when the build target has `avx512f`
//! (`cfg(all(target_arch = "x86_64", target_feature = "avx512f"))`, which the
//! workspace's `-C target-cpu=native` turns on for an AVX-512 host). Every
//! lane does what the portable kernels do per element: a multiply then a
//! separate add, rounded as `_mm512_mul_ps` / `_mm512_add_ps` round them —
//! two roundings, never `fmadd` — over `k` (or a row's nonzeros) in
//! ascending order, so the output bits are the reference's.
//!
//! The kernels are `#[target_feature(enable = "avx512f")]` functions, so
//! their arithmetic intrinsics are safe calls. `unsafe` is confined to the
//! two entry points (the call into a target-feature function) and the four
//! load/store helpers, whose pointers come only from slices of exactly the
//! accessed length or are masked to it; `crate::math`'s slice kernels load
//! and store through the two masked ones.

use std::arch::x86_64::{
    __m512, __mmask16, _mm512_add_round_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
    _mm512_maskz_loadu_ps, _mm512_mul_round_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_storeu_ps, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
};

/// `f32` lanes per zmm register.
pub(crate) const L: usize = 16;

/// Rows per register micro-tile: eight zmm accumulators.
pub const MR: usize = 8;
/// Columns per packed B panel (and per register micro-tile): one zmm.
pub const NR: usize = L;

/// The `MR×NR` register micro-kernel (see [`micro_avx512`]).
#[inline]
pub(super) fn micro(apack: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    // SAFETY: this module is compiled only when `avx512f` is enabled for the
    // whole build target, so every CPU the binary may run on has it.
    unsafe { micro_avx512(apack, panel) }
}

/// CSR row kernel: `out += Σ vals[p] · x[cols[p], ..]` (see [`spmm_row_avx512`]).
#[inline]
pub(super) fn spmm_row(cols: &[usize], vals: &[f32], x: &[f32], out: &mut [f32]) {
    // SAFETY: as for `micro` — `avx512f` is a compile-time feature of the
    // target this module is built for.
    unsafe { spmm_row_avx512(cols, vals, x, out) }
}

/// `dst += v` lane by lane, the batch sum of `Tiled::bmm_panels_dw`: `v`
/// is the first operand of every add and the running sum `dst` the second,
/// the order `add_assign`'s compiled `*acc += v` has (see [`add`]).
#[inline]
pub(super) fn add_into(dst: &mut [f32], v: &[f32]) {
    // SAFETY: as for `micro`.
    unsafe { add_into_avx512(dst, v) }
}

#[target_feature(enable = "avx512f")]
fn add_into_avx512(dst: &mut [f32], v: &[f32]) {
    for (d, x) in dst.chunks_mut(L).zip(v.chunks(L)) {
        store_tail(d, add(load_tail(x), load_tail(d)));
    }
}

/// Eight zmm accumulators, one per tile row, stay in registers across the
/// whole `k` loop. Step `l` broadcasts `A[r, l]`, multiplies it by `B`'s
/// 16-wide lane `l`, then adds the product: `k` ascending, seeded from
/// `+0.0`, exactly the reference's `acc += a * b` in every lane.
#[target_feature(enable = "avx512f")]
fn micro_avx512(apack: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [_mm512_setzero_ps(); MR];
    for (al, bp) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        let b = load(bp.try_into().expect("packed B lane"));
        for (accr, &av) in acc.iter_mut().zip(al) {
            *accr = add(mul(_mm512_set1_ps(av), b), *accr);
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (o, &a) in out.iter_mut().zip(&acc) {
        store(o, a);
    }
    out
}

/// One CSR row over all `n = out.len()` columns, in passes of up to four
/// 16-lane strips. Each pass seeds its accumulators from `out`, adds the
/// row's nonzeros in storage order (`mul` then `add`), and stores each strip
/// once; the last strip of the row is masked to the remaining columns.
#[target_feature(enable = "avx512f")]
fn spmm_row_avx512(cols: &[usize], vals: &[f32], x: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(4 * L);
        let pass = &mut out[j0..j0 + w];
        match w.div_ceil(L) {
            1 => strip_pass::<1>(cols, vals, x, n, j0, pass),
            2 => strip_pass::<2>(cols, vals, x, n, j0, pass),
            3 => strip_pass::<3>(cols, vals, x, n, j0, pass),
            _ => strip_pass::<4>(cols, vals, x, n, j0, pass),
        }
        j0 += w;
    }
}

/// Columns `j0..j0 + out.len()` of one CSR row in `S` zmm accumulators; the
/// first `S − 1` strips are full and the last holds the remaining
/// `1..=16` columns. `x[c]`'s columns are sliced (and bounds-checked) once
/// per nonzero, so a column index past `x`'s rows panics.
#[target_feature(enable = "avx512f")]
fn strip_pass<const S: usize>(
    cols: &[usize],
    vals: &[f32],
    x: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let w = out.len();
    let full = (S - 1) * L;
    let mut acc = [_mm512_setzero_ps(); S];
    for (a, o) in acc.iter_mut().zip(out.chunks_exact(L)).take(S - 1) {
        *a = load(o.try_into().expect("full strip"));
    }
    acc[S - 1] = load_tail(&out[full..]);
    for (&c, &v) in cols.iter().zip(vals) {
        let xr = &x[c * n + j0..c * n + j0 + w];
        let v = _mm512_set1_ps(v);
        for (a, xs) in acc.iter_mut().zip(xr.chunks_exact(L)).take(S - 1) {
            *a = add(mul(v, load(xs.try_into().expect("full strip"))), *a);
        }
        acc[S - 1] = add(mul(v, load_tail(&xr[full..])), acc[S - 1]);
    }
    for (o, &a) in out.chunks_exact_mut(L).zip(&acc).take(S - 1) {
        store(o.try_into().expect("full strip"), a);
    }
    store_tail(&mut out[full..], acc[S - 1]);
}

/// Round to nearest even (the default mode) and raise no exception flag.
///
/// `mul` and `add` use the explicit-rounding intrinsics for their operand
/// order, not their rounding: LLVM may commute a plain `_mm512_add_ps`, and
/// when both operands are NaN the first one's payload is the result. The
/// reference's compiled loops put the product first (the accumulator is
/// the folded memory operand), as `add_assign`'s `*acc += v` puts `v`
/// first, and pinning the same order keeps even NaN payloads bit-equal.
const RN: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// `a * b`, rounded as `_mm512_mul_ps` rounds it, with `a` pinned as the
/// first source operand.
#[target_feature(enable = "avx512f")]
#[inline]
fn mul(a: __m512, b: __m512) -> __m512 {
    _mm512_mul_round_ps::<RN>(a, b)
}

/// `a + b`, rounded as `_mm512_add_ps` rounds it, with `a` pinned as the
/// first source operand.
#[target_feature(enable = "avx512f")]
#[inline]
fn add(a: __m512, b: __m512) -> __m512 {
    _mm512_add_round_ps::<RN>(a, b)
}

/// Lanes `0..min(len, 16)` set.
#[inline]
pub(crate) fn tail_mask(len: usize) -> __mmask16 {
    ((1u32 << len.min(L)) - 1) as __mmask16
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load(src: &[f32; L]) -> __m512 {
    // SAFETY: `src` is exactly the 16 `f32`s read; `loadu` needs no alignment.
    unsafe { _mm512_loadu_ps(src.as_ptr()) }
}

/// The first `min(src.len(), 16)` lanes of `src`, zeros above.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn load_tail(src: &[f32]) -> __m512 {
    // SAFETY: the mask enables only lanes below `src.len()`; masked-off
    // lanes are neither read nor able to fault.
    unsafe { _mm512_maskz_loadu_ps(tail_mask(src.len()), src.as_ptr()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(dst: &mut [f32; L], v: __m512) {
    // SAFETY: `dst` is exactly the 16 `f32`s written, borrowed mutably.
    unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
}

/// Writes the first `min(dst.len(), 16)` lanes of `v` to `dst`.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn store_tail(dst: &mut [f32], v: __m512) {
    // SAFETY: the mask enables only lanes below `dst.len()`, all inside the
    // mutably borrowed `dst`; masked-off lanes are not written.
    unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), tail_mask(dst.len()), v) }
}
