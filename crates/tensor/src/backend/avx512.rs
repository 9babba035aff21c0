//! AVX-512 register tiles for [`super::Tiled`]: the GEMM's `MR×NC` block
//! and one-column kernels, which read their operands where they lie, and
//! the CSR SpMM row kernel.
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
//! their arithmetic intrinsics are safe calls. The GEMM kernels read and
//! write through raw pointers: each entry point asserts that every element
//! its block can touch lies inside the slice it came from, and only then
//! calls the `unsafe fn` that does the work. The SpMM and the four
//! load/store helpers take slices of exactly the accessed length or mask to
//! it; `crate::math`'s slice kernels load and store through the two masked
//! ones.

use super::{Dst, Operands};
use std::arch::x86_64::{
    __m512, __mmask16, _mm512_add_round_ps, _mm512_loadu_ps, _mm512_mask_i32gather_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_round_ps, _mm512_mullo_epi32,
    _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32, _mm512_setzero_ps, _mm512_storeu_ps,
    _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
};

/// `f32` lanes per zmm register.
pub(crate) const L: usize = 16;

/// Rows per GEMM block.
pub(crate) const MR: usize = 12;
/// Columns per GEMM block: two zmm strips, so a full block keeps 24 zmm
/// accumulators.
pub(crate) const NC: usize = 2 * L;
/// Rows per block of a one-column product: four zmm accumulators, one row
/// per lane.
pub(crate) const COL_MR: usize = 4 * L;

/// `dst` rows `i0..i0 + rows`, columns `j0..j0 + cols` of `A @ B` (see
/// [`block_rs`]). Panics unless `rows ≤ MR`, `cols ≤ NC` and every
/// element the block reads or writes lies inside its slice.
pub(super) fn block(ops: &Operands, i0: usize, rows: usize, j0: usize, cols: usize, dst: &mut Dst) {
    if rows == 0 || cols == 0 {
        return;
    }
    check(ops, i0, rows, j0 + cols, dst);
    macro_rules! dispatch {
        ($($r:literal)*) => {
            match (rows, cols.div_ceil(L)) {
                // SAFETY: the asserts above cover every A, B and `dst`
                // element of rows `i0..i0 + rows`, columns `j0..j0 + cols`,
                // which is all `block_rs` reads or writes.
                $(($r, 1) => unsafe { block_rs::<$r, 1>(ops, i0, j0, cols, dst) },
                  ($r, 2) => unsafe { block_rs::<$r, 2>(ops, i0, j0, cols, dst) },)*
                _ => panic!("a {rows}×{cols} block is larger than {MR}×{NC}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12)
}

/// `dst` rows `i0..i0 + rows` of the one-column product `A @ b[.., 0]`, one
/// output row per lane (see [`column_rs`]). Panics unless `rows ≤ COL_MR`
/// and every element it reads or writes lies inside its slice. An lhs
/// whose row stride does not fit the 32-bit gather offsets goes through
/// [`block`] instead.
pub(super) fn column(ops: &Operands, i0: usize, rows: usize, dst: &mut Dst) {
    assert!(rows <= COL_MR, "{rows} rows in a one-column block");
    assert!(
        matches!(dst.panels.first(), Some((_, 1))),
        "a one-column output is one panel of width 1"
    );
    if ops.lhs.iter().any(|s| s.rs > i32::MAX as usize / L) {
        for r0 in (i0..i0 + rows).step_by(MR) {
            block(ops, r0, MR.min(i0 + rows - r0), 0, 1, dst);
        }
        return;
    }
    if rows == 0 {
        return;
    }
    check(ops, i0, rows, 1, dst);
    // SAFETY: the asserts above cover every A and B element of rows
    // `i0..i0 + rows` and `dst`'s one column there; the gather offsets fit
    // `i32` (checked above).
    unsafe { column_rs(ops, i0, rows, dst) }
}

/// Asserts that rows `i0..i0 + rows` of every lhs stretch, `B`'s columns
/// below `cols` in every row the stretches reach, and rows `0..i0 + rows`
/// of every `dst` panel holding a column below `cols` lie inside their
/// slices (`rows > 0`). The offsets are computed without overflow, so
/// every offset the kernels form from them is in range too.
fn check(ops: &Operands, i0: usize, rows: usize, cols: usize, dst: &Dst) {
    let last = i0.saturating_add(rows - 1);
    let mut k = 0usize;
    for s in ops.lhs.iter().filter(|s| s.lanes > 0) {
        let end = offset(last, s.rs, offset(s.lanes - 1, s.ls, 0));
        assert!(end < s.a.len(), "an lhs row ends past its panel");
        k = k.saturating_add(s.lanes);
    }
    assert!(
        k == 0 || offset(k - 1, ops.ldb, cols) <= ops.b.len(),
        "a B row ends past the rhs"
    );
    let mut off = 0usize;
    for (p, w) in dst.panels.iter() {
        assert!(
            off >= cols || offset(last.saturating_add(1), *w, 0) <= p.len(),
            "an output panel is short"
        );
        off = off.saturating_add(*w);
    }
}

/// `a·b + c`, or `usize::MAX` (past every slice) when it overflows.
fn offset(a: usize, b: usize, c: usize) -> usize {
    a.checked_mul(b)
        .and_then(|x| x.checked_add(c))
        .unwrap_or(usize::MAX)
}

/// An `R×16S` block: `R·S` zmm accumulators, seeded from `+0.0`, stay in
/// registers across the whole `k` loop. Step `l` loads `B`'s row `l` (the
/// last strip masked to `cols`), and for each row `r` broadcasts `A[r, l]`
/// from where it lies, multiplies it by each strip (`A` first), then adds
/// the product to the strip's accumulator (product first): `k` ascending,
/// exactly the reference's `acc += a * b` in every lane. The block is then
/// stored, or added into `dst` (the new value first), one masked store per
/// strip and output panel it meets.
///
/// # Safety
///
/// Every `A` element of rows `i0..i0 + R`, every `B` element of rows
/// `0..k` and columns `j0..j0 + cols`, and every `dst` element of those
/// rows and columns must lie inside its slice, with `16(S − 1) < cols ≤
/// 16S`.
#[target_feature(enable = "avx512f")]
unsafe fn block_rs<const R: usize, const S: usize>(
    ops: &Operands,
    i0: usize,
    j0: usize,
    cols: usize,
    dst: &mut Dst,
) {
    let mut acc = [[_mm512_setzero_ps(); S]; R];
    let last = tail_mask(cols - (S - 1) * L);
    let mut brow = ops.b.as_ptr().wrapping_add(j0);
    for s in ops.lhs {
        let mut arow = s.a.as_ptr().wrapping_add(i0 * s.rs);
        for _ in 0..s.lanes {
            let mut bv = [_mm512_setzero_ps(); S];
            for (x, v) in bv.iter_mut().enumerate() {
                let m = if x + 1 < S { !0 } else { last };
                // SAFETY: columns `j0 + 16x..` of this B row below `j0 +
                // cols` are in bounds (the caller's contract); the mask
                // keeps the last strip inside them.
                *v = unsafe { _mm512_maskz_loadu_ps(m, brow.add(x * L)) };
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: `A[i0 + r, l]` is in bounds (the caller's contract).
                let av = _mm512_set1_ps(unsafe { *arow.add(r * s.rs) });
                for (a, &b) in accr.iter_mut().zip(&bv) {
                    *a = add(mul(av, b), *a);
                }
            }
            arow = arow.wrapping_add(s.ls);
            brow = brow.wrapping_add(ops.ldb);
        }
    }
    let mut off = 0;
    for (p, w) in dst.panels.iter_mut() {
        let w = *w;
        let (lo, hi) = (j0.max(off), (j0 + cols).min(off + w));
        for x in 0..S {
            let (s0, s1) = (lo.max(j0 + x * L), hi.min(j0 + x * L + L));
            if s0 >= s1 {
                continue;
            }
            // Lanes `s0 - strip..s1 - strip` of the strip that starts at
            // column `strip`; lane 0's address may sit before the row.
            let strip = j0 + x * L;
            let m = tail_mask(s1 - strip) & !tail_mask(s0 - strip);
            for (r, accr) in acc.iter().enumerate() {
                let at = p
                    .as_mut_ptr()
                    .wrapping_add((i0 + r) * w + s0 - off)
                    .wrapping_sub(s0 - strip);
                // SAFETY: the enabled lanes are columns `s0..s1` of row
                // `i0 + r`, inside this panel (the caller's contract).
                unsafe { put(at, m, accr[x], dst.add) }
            }
        }
        off += w;
    }
}

/// A one-column block of up to 64 rows in four zmm accumulators, one row
/// per lane, seeded from `+0.0`. Step `l` broadcasts `B[l, 0]` and loads
/// `A`'s lane `l` for 16 rows at a time — contiguously when the rows are
/// adjacent (`rs = 1`, the `dW` of a projection), gathered otherwise — then
/// multiplies (`A` first) and adds (product first), `k` ascending: the
/// same sequence per element as [`block_rs`].
///
/// # Safety
///
/// Every `A` element of rows `i0..i0 + rows`, `B`'s column 0 in rows
/// `0..k` and `dst`'s one column in those rows must lie inside its slice,
/// `rows ≤ 64`, and `16 · rs` must fit an `i32` for every stretch.
#[target_feature(enable = "avx512f")]
unsafe fn column_rs(ops: &Operands, i0: usize, rows: usize, dst: &mut Dst) {
    const G: usize = COL_MR / L;
    let mask: [__mmask16; G] = std::array::from_fn(|g| tail_mask(rows.saturating_sub(g * L)));
    let mut acc = [_mm512_setzero_ps(); G];
    let mut bp = ops.b.as_ptr();
    for s in ops.lhs {
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let offsets = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(s.rs as i32));
        let mut arow = s.a.as_ptr().wrapping_add(i0 * s.rs);
        for _ in 0..s.lanes {
            // SAFETY: `B[l, 0]` is in bounds (the caller's contract).
            let bv = _mm512_set1_ps(unsafe { *bp });
            for (g, a) in acc.iter_mut().enumerate() {
                let at = arow.wrapping_add(g * L * s.rs);
                // SAFETY: the enabled lanes are `A[i0 + 16g + j, l]` for
                // rows below `i0 + rows`, in bounds (the caller's
                // contract); masked-off lanes are not read.
                let av = unsafe {
                    if s.rs == 1 {
                        _mm512_maskz_loadu_ps(mask[g], at)
                    } else {
                        _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask[g], offsets, at)
                    }
                };
                *a = add(mul(av, bv), *a);
            }
            arow = arow.wrapping_add(s.ls);
            bp = bp.wrapping_add(ops.ldb);
        }
    }
    let (p, _) = &mut dst.panels[0];
    for (g, &a) in acc.iter().enumerate() {
        let at = p.as_mut_ptr().wrapping_add(i0 + g * L);
        // SAFETY: the enabled lanes are rows `i0 + 16g..i0 + rows` of the
        // one-column output, in bounds (the caller's contract).
        unsafe { put(at, mask[g], a, dst.add) }
    }
}

/// Stores the lanes of `v` that `m` enables at `at`, or with `add` adds
/// `v` into what they hold (`v` first). Masked-off lanes are neither read
/// nor written, so `at` itself may lie outside the buffer.
///
/// # Safety
///
/// Every enabled lane's address must lie inside one mutably borrowed
/// buffer.
#[target_feature(enable = "avx512f")]
unsafe fn put(at: *mut f32, m: __mmask16, v: __m512, add_into: bool) {
    // SAFETY: the enabled lanes are in bounds (the caller's contract).
    unsafe {
        let v = if add_into {
            add(v, _mm512_maskz_loadu_ps(m, at))
        } else {
            v
        };
        _mm512_mask_storeu_ps(at, m, v);
    }
}

/// CSR row kernel: `out += Σ vals[p] · x[cols[p], ..]` (see [`spmm_row_avx512`]).
#[inline]
pub(super) fn spmm_row(cols: &[usize], vals: &[f32], x: &[f32], out: &mut [f32]) {
    // SAFETY: this module is compiled only when `avx512f` is enabled for the
    // whole build target, so every CPU the binary may run on has it.
    unsafe { spmm_row_avx512(cols, vals, x, out) }
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
