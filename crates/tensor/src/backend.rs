//! Pluggable compute backends: the [`Kernels`] trait and its two
//! implementations, [`Reference`] (the original naive loops) and [`Tiled`]
//! (register-tiled kernels that read their operands where they lie, with
//! no packed copies; explicit AVX-512 register tiles for the GEMM and the
//! CSR SpMM when the build target has `avx512f`).
//!
//! Every dense hot loop in the workspace — trainer, the distributed step
//! engine, `st-serve` inference, and the benches — bottoms out in the four
//! kernel families dispatched here: GEMM (`matmul`), batched GEMM (`bmm`),
//! sparse×dense (`spmm`, behind `st-graph`'s CSR), and the fused
//! elementwise kernels backing the DCRNN gate path. Every [`Kernels`]
//! method writes all of its `out` and reads none of it, so the ops take
//! outputs from `Storage::scratch` and zero-fill nothing.
//!
//! # Bitwise equality contract
//!
//! Both backends produce **bit-identical** `f32` outputs. The tiled GEMM
//! tiles only the `i`/`j` (row/column) loops; the `k` accumulation for each
//! output element stays sequential and in ascending order, in a plain
//! `acc += a * b` form (no FMA, no pairwise reassociation). Rust does not
//! contract float expressions by default, so the rounding sequence of every
//! output element is exactly the reference kernel's. The AVX-512 tiles keep
//! the same sequence per lane: a multiply then a separate add, each rounded
//! to nearest exactly as `_mm512_mul_ps` / `_mm512_add_ps` round, never
//! `fmadd`. Operand order is kept as well — the `A` element first in every
//! multiply, the product first in every add, each batch's tile first in
//! the weight gradient's batch sum — so even NaN payloads agree. This is
//! what lets the engine's golden tests pin train-loss
//! *bits* while the backend underneath is swapped freely. The proptest
//! suite (`tests/proptests_kernels.rs`) pins the contract across ragged
//! shapes; DESIGN.md §8 documents the reasoning.
//!
//! # Selection
//!
//! The active backend is a process-wide choice: [`set_backend`] /
//! [`active_backend`], initialized once from the `ST_BACKEND` environment
//! variable (`"tiled"` — the default — or `"reference"`), so ranks, serve
//! shards and gradient bucketing on their own threads agree on the
//! kernels. `st_tensor::ops` is the only code that dispatches to it and
//! times a kernel; the structs ([`Reference`], [`Tiled`], [`kernels_for`])
//! are public for side-by-side comparison (benches, proptests).

use crate::math;
use crate::par;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which [`Kernels`] implementation the process-wide dispatch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The original naive loops (i-k-j GEMM, per-op elementwise passes).
    Reference,
    /// Cache-blocked, register-tiled kernels (the default).
    Tiled,
}

impl BackendKind {
    /// Parse a backend name as accepted by the `ST_BACKEND` environment
    /// variable. Unknown or empty names mean "no override".
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" | "naive" => Some(BackendKind::Reference),
            "tiled" | "fast" => Some(BackendKind::Tiled),
            _ => None,
        }
    }

    /// Stable lowercase name (`"reference"` / `"tiled"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Tiled => "tiled",
        }
    }
}

const KIND_UNSET: u8 = 0;
const KIND_REFERENCE: u8 = 1;
const KIND_TILED: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(KIND_UNSET);

/// The process-wide backend every dispatching op routes through.
///
/// First call resolves `ST_BACKEND` (default [`BackendKind::Tiled`]); later
/// calls return the cached choice unless [`set_backend`] replaced it.
pub fn active_backend() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        KIND_REFERENCE => BackendKind::Reference,
        KIND_TILED => BackendKind::Tiled,
        _ => {
            let kind = std::env::var("ST_BACKEND")
                .ok()
                .as_deref()
                .and_then(BackendKind::parse)
                .unwrap_or(BackendKind::Tiled);
            set_backend(kind);
            kind
        }
    }
}

/// Select the process-wide backend (trainer configs, `ServeConfig`, and the
/// benches route their explicit knobs here). Safe to call from any thread;
/// the swap is racy only in the benign sense that in-flight ops finish on
/// the backend they started with — both produce identical bits anyway.
pub fn set_backend(kind: BackendKind) {
    let v = match kind {
        BackendKind::Reference => KIND_REFERENCE,
        BackendKind::Tiled => KIND_TILED,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The [`Kernels`] implementation for `kind` as a static reference.
pub fn kernels_for(kind: BackendKind) -> &'static dyn Kernels {
    match kind {
        BackendKind::Reference => &Reference,
        BackendKind::Tiled => &Tiled,
    }
}

/// Elementwise activation selector for the fused bias+activation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation: the fused kernel degenerates to a bias add.
    Identity,
    /// Numerically-stable logistic sigmoid (the DCRNN gate nonlinearity).
    Sigmoid,
    /// Hyperbolic tangent (the DCRNN candidate nonlinearity).
    Tanh,
}

impl Activation {
    /// Scalar evaluation through the [`math`] ports ([`math::sigmoid`],
    /// [`math::tanhf`]), whose bits the unfused `st_tensor::ops` activation
    /// maps and `Tiled`'s slice kernels share, so fused and composed paths
    /// agree bitwise.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => math::sigmoid(x),
            Activation::Tanh => math::tanhf(x),
        }
    }

    /// [`Activation::eval`] over a slice, through the [`math`] slice
    /// kernels.
    pub(crate) fn apply_in_place(self, v: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Sigmoid => math::sigmoid_in_place(v),
            Activation::Tanh => math::tanh_in_place(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-time accounting
// ---------------------------------------------------------------------------

/// Kernel families tracked by the per-thread time counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelClass {
    /// Dense matrix multiplication (matmul / bmm and the panel GEMMs).
    Gemm,
    /// Sparse×dense products (`ops::spmm`, behind `st-graph`'s CSR).
    Spmm,
    /// Elementwise maps/zips and the fused gate kernels.
    Elementwise,
}

thread_local! {
    static KERNEL_SECS: [Cell<f64>; 3] =
        const { [Cell::new(0.0), Cell::new(0.0), Cell::new(0.0)] };
}

/// Cumulative `[gemm, spmm, elementwise]` kernel seconds recorded on the
/// calling thread since it started. Ops time themselves at their entry
/// point, so work farmed out to the `par` pool is charged to the thread
/// that invoked the op — each engine rank reads its own compute split.
pub fn kernel_secs() -> [f64; 3] {
    KERNEL_SECS.with(|k| [k[0].get(), k[1].get(), k[2].get()])
}

/// Run `f` on the active backend's kernels and charge its wall-clock time
/// to `class` on this thread's counters: the one way `st_tensor::ops`
/// calls a kernel.
pub(crate) fn timed<R>(class: KernelClass, f: impl FnOnce(&dyn Kernels) -> R) -> R {
    let (kernels, start) = (kernels_for(active_backend()), Instant::now());
    let out = f(kernels);
    let secs = start.elapsed().as_secs_f64();
    KERNEL_SECS.with(|k| k[class as usize].set(k[class as usize].get() + secs));
    out
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// Raw-slice compute kernels a backend must provide.
///
/// Shape validation, contiguity, and tensor construction stay in
/// `st_tensor::ops`; implementations only see flat buffers. Every method
/// writes every element of its output, whatever the buffer held before,
/// and honors the crate's bitwise-equality contract (see module docs).
pub trait Kernels: Sync {
    /// Backend name for reports and bench labels.
    fn name(&self) -> &'static str;

    /// `out[m,n] = a[m,k] @ b[k,n]`.
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Batched `out[bs,m,n] = a[bs,m,k] @ b`. `b` is `[bs,k,n]`, or `[k,n]`
    /// shared across the batch when `shared_rhs`.
    #[allow(clippy::too_many_arguments)]
    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
        shared_rhs: bool,
    );

    /// Shared-rhs batched GEMM over a lhs given as column panels:
    /// `out[bs,m,n] = [P₀ | P₁ | …] @ b[k,n]`. Panel `p`
    /// is a `[bs,m,widths[p]]` buffer and `k = Σ widths`. Every output
    /// element accumulates its `k` lanes in ascending order from `+0.0`, so
    /// its bits equal concatenating the panels and calling [`Kernels::bmm`].
    #[allow(clippy::too_many_arguments)]
    fn bmm_panels(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    );

    /// Shared-rhs batched GEMM whose output is stored as column panels:
    /// `[O₀ | O₁ | …] = a[bs,m,k] @ b[k,n]` with `n = Σ widths`, panel `p`
    /// the `[bs,m,widths[p]]` buffer `outs[p]`. Only the store is split, so
    /// every element's bits equal [`Kernels::bmm`]'s.
    #[allow(clippy::too_many_arguments)]
    fn bmm_split(
        &self,
        a: &[f32],
        b: &[f32],
        outs: &mut [&mut [f32]],
        widths: &[usize],
        bs: usize,
        m: usize,
        k: usize,
    );

    /// The weight gradient of [`Kernels::bmm_panels`]:
    /// `out[k,n] = Σ_b [P₀ | P₁ | …][b]ᵀ @ g[b]` for `g` a `[bs,m,n]` buffer,
    /// panels as in `bmm_panels` and `k = Σ widths`. Each batch's product
    /// accumulates its `m` lanes in ascending order from `+0.0`, and the
    /// products are summed in batch order, each add taking the new product
    /// as its first operand and the running sum as its second (which NaN
    /// payload survives): the bits of stacking the panels' transposes,
    /// one batched GEMM and an in-order batch sum (which [`Reference`]
    /// does). With `bs = 0` the sum is empty and `out` is all `+0.0`.
    #[allow(clippy::too_many_arguments)]
    fn bmm_panels_dw(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        g: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    );

    /// CSR sparse×dense: `out[rows,n] = S @ x[cols,n]`. Row `r`'s nonzeros
    /// are `col_idx/values[row_ptr[r]..row_ptr[r+1]]`, and each output
    /// element adds them in storage order from `+0.0`. A column index past
    /// `x`'s rows, or an `x` shorter than the rows it names, panics.
    #[allow(clippy::too_many_arguments)]
    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    );

    /// Fused `out[i] = act(z[i] + bias[i % bias.len()])` — the DCRNN
    /// gate tail (`dconv → add-bias → σ/tanh`) in one pass.
    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation);

    /// Fused GRU blend `out = u⊙h + (1−u)⊙c`, elementwise over equal-length
    /// slices, replicating the composed expression
    /// `(u*h) + (((u*-1.0)+1.0)*c)` per element.
    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]);
}

// ---------------------------------------------------------------------------
// Reference backend — the original naive loops
// ---------------------------------------------------------------------------

/// The seed repo's naive kernels, kept as the ground truth the tiled
/// backend is pinned against. Every output element's sum starts at `+0.0`
/// (DESIGN.md §8 says why the old `a == 0.0` skip is gone).
pub struct Reference;

impl Kernels for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return;
        }
        par::parallel_fill_chunks(out, n, m * n * k, |i, row| {
            naive_row_kernel(&a[i * k..(i + 1) * k], b, row, n);
        });
    }

    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
        shared_rhs: bool,
    ) {
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        par::parallel_fill_chunks(out, m * n, bs * m * n * k, |i, slab| {
            let a_i = &a[i * m * k..(i + 1) * m * k];
            let b_i = if shared_rhs {
                b
            } else {
                &b[i * k * n..(i + 1) * k * n]
            };
            for r in 0..m {
                naive_row_kernel(
                    &a_i[r * k..(r + 1) * k],
                    b_i,
                    &mut slab[r * n..(r + 1) * n],
                    n,
                );
            }
        });
    }

    fn bmm_panels(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    ) {
        // The oracle: materialize the concatenation, then the naive bmm.
        for (p, &w) in panels.iter().zip(widths) {
            assert_eq!(p.len(), bs * m * w, "a [bs, m, width] panel");
        }
        let k: usize = widths.iter().sum();
        let mut cat = vec![0.0f32; bs * m * k];
        let mut lane = 0;
        for (&p, &w) in panels.iter().zip(widths).filter(|(_, &w)| w > 0) {
            for (row, src) in cat.chunks_exact_mut(k).zip(p.chunks_exact(w)) {
                row[lane..lane + w].copy_from_slice(src);
            }
            lane += w;
        }
        self.bmm(&cat, b, out, bs, m, k, n, true);
    }

    fn bmm_split(
        &self,
        a: &[f32],
        b: &[f32],
        outs: &mut [&mut [f32]],
        widths: &[usize],
        bs: usize,
        m: usize,
        k: usize,
    ) {
        // The oracle: the whole product, then each column panel copied out.
        let n: usize = widths.iter().sum();
        let mut full = vec![0.0f32; bs * m * n];
        self.bmm(a, b, &mut full, bs, m, k, n, true);
        let mut off = 0;
        for (out, &w) in outs.iter_mut().zip(widths).filter(|(_, &w)| w > 0) {
            for (dst, src) in out.chunks_exact_mut(w).zip(full.chunks_exact(n)) {
                dst.copy_from_slice(&src[off..off + w]);
            }
            off += w;
        }
    }

    fn bmm_panels_dw(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        g: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    ) {
        // The oracle: the panels' transposes stacked, one batched GEMM,
        // then the products summed in batch order into the first.
        let k: usize = widths.iter().sum();
        if bs == 0 || k == 0 || n == 0 {
            out.fill(0.0);
            return;
        }
        let mut at = vec![0.0f32; bs * k * m];
        let mut lane0 = 0;
        for (&p, &w) in panels.iter().zip(widths) {
            assert_eq!(p.len(), bs * m * w, "a [bs, m, width] panel");
            for (b, pb) in p.chunks_exact(m * w).enumerate() {
                for (l, row) in pb.chunks_exact(w).enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        at[(b * k + lane0 + c) * m + l] = v;
                    }
                }
            }
            lane0 += w;
        }
        let mut prods = vec![0.0f32; bs * k * n];
        self.bmm(&at, g, &mut prods, bs, k, m, n, false);
        let (first, rest) = prods.split_at(k * n);
        out.copy_from_slice(first);
        for slab in rest.chunks_exact(k * n) {
            for (o, &v) in out.iter_mut().zip(slab) {
                *o += v;
            }
        }
    }

    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    ) {
        spmm_rows(row_ptr, col_idx, values, x, out, rows, n, naive_spmm_row);
    }

    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation) {
        // Two materializing passes, mirroring the historical composed path
        // (`add` then activation `map`) op for op.
        let nb = bias.len();
        for (i, (o, &zv)) in out.iter_mut().zip(z).enumerate() {
            *o = zv + bias[i % nb];
        }
        for o in out.iter_mut() {
            *o = act.eval(*o);
        }
    }

    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]) {
        // Materialize each intermediate exactly like the historical
        // four-op composition (mul, neg, add_scalar, mul, add).
        let n = out.len();
        let mut uh = vec![0.0f32; n];
        for ((o, &uv), &hv) in uh.iter_mut().zip(u).zip(h) {
            *o = uv * hv;
        }
        let mut omu = vec![0.0f32; n];
        for (o, &uv) in omu.iter_mut().zip(u) {
            // Deliberately `* -1.0`, not negation: this mirrors the exact
            // `neg → add_scalar` composition the models used to build.
            #[allow(clippy::neg_multiply)]
            {
                *o = (uv * -1.0) + 1.0;
            }
        }
        for (((o, &uhv), &omuv), &cv) in out.iter_mut().zip(&uh).zip(&omu).zip(c) {
            *o = uhv + omuv * cv;
        }
    }
}

/// The CSR driver both backends share: rows split over `par`, each row's
/// `out` slice handed to `row` with its nonzeros (`cols`, `vals`) in storage
/// order.
#[allow(clippy::too_many_arguments)]
fn spmm_rows(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    rows: usize,
    n: usize,
    row: impl Fn(&[usize], &[f32], &[f32], &mut [f32]) + Sync,
) {
    if rows == 0 || n == 0 {
        return;
    }
    par::parallel_fill_chunks(out, n, values.len() * n, |r, row_out| {
        let nz = row_ptr[r]..row_ptr[r + 1];
        row(&col_idx[nz.clone()], &values[nz], x, row_out);
    });
}

/// One CSR row of the naive SpMM: `out = Σ vals[p] · x[cols[p], ..]`, the
/// nonzeros in storage order, each column's `acc += v * x` in place from
/// `+0.0`.
fn naive_spmm_row(cols: &[usize], vals: &[f32], x: &[f32], out: &mut [f32]) {
    let n = out.len();
    out.fill(0.0);
    for (&c, &v) in cols.iter().zip(vals) {
        let xrow = &x[c * n..(c + 1) * n];
        for (o, &xv) in out.iter_mut().zip(xrow) {
            *o += v * xv;
        }
    }
}

/// One output row of the naive i-k-j GEMM: `row = a_row @ b`, each
/// element's sum from `+0.0`.
#[inline]
fn naive_row_kernel(arow: &[f32], b: &[f32], row: &mut [f32], n: usize) {
    row.fill(0.0);
    for (l, &al) in arow.iter().enumerate() {
        let brow = &b[l * n..(l + 1) * n];
        for (c, &bv) in row.iter_mut().zip(brow) {
            *c += al * bv;
        }
    }
}

// ---------------------------------------------------------------------------
// Tiled backend
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) mod avx512;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512 as tile;

/// The portable tile, the only one on targets without AVX-512: a `4×8`
/// block of accumulators the compiler keeps in four ymm registers, and the
/// naive CSR row.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod tile {
    pub(super) use super::naive_spmm_row as spmm_row;
    use super::{Dst, Operands};

    /// Rows per GEMM block.
    pub const MR: usize = 4;
    /// Columns per GEMM block.
    pub const NC: usize = 8;
    /// Rows per block of a one-column product.
    pub const COL_MR: usize = MR;

    /// `dst` rows `i0..i0 + rows`, columns `j0..j0 + cols` of `A @ B`: the
    /// partial sums stay in registers across the whole `k` loop (ascending,
    /// `mul` then `add` — never FMA, `A` read where it lies), then each row
    /// is stored, or added into `dst` as `add_assign` adds (`v` first; the
    /// NaN payload it keeps), split where an output panel ends.
    pub(super) fn block(
        ops: &Operands,
        i0: usize,
        rows: usize,
        j0: usize,
        cols: usize,
        dst: &mut Dst,
    ) {
        let mut acc = [[0.0f32; NC]; MR];
        let mut l = 0;
        for s in ops.lhs {
            for t in 0..s.lanes {
                let brow = &ops.b[l * ops.ldb + j0..][..cols];
                for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                    let av = s.a[(i0 + r) * s.rs + t * s.ls];
                    for (c, &bv) in accr.iter_mut().zip(brow) {
                        *c += av * bv;
                    }
                }
                l += 1;
            }
        }
        let mut off = 0;
        for (p, w) in dst.panels.iter_mut() {
            let (lo, hi) = (j0.max(off), (j0 + cols).min(off + *w));
            for (r, accr) in acc.iter().enumerate().take(rows).filter(|_| lo < hi) {
                let at = (i0 + r) * *w + lo - off;
                let (row, v) = (&mut p[at..at + hi - lo], &accr[lo - j0..hi - j0]);
                if dst.add {
                    for (d, &x) in row.iter_mut().zip(v) {
                        *d += x;
                    }
                } else {
                    row.copy_from_slice(v);
                }
            }
            off += *w;
        }
    }

    /// The one-column case of [`block`].
    pub(super) fn column(ops: &Operands, i0: usize, rows: usize, dst: &mut Dst) {
        block(ops, i0, rows, 0, 1, dst);
    }
}

use tile::{COL_MR, MR, NC};

/// One stretch of a GEMM's `k` loop, read where it lies: `lanes` lanes
/// whose lhs element for row `r`, lane `t` is `a[r * rs + t * ls]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) rs: usize,
    pub(crate) ls: usize,
    pub(crate) lanes: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major `[.., k]` matrix (or a column panel of width `k`).
    fn rows(a: &'a [f32], k: usize) -> Self {
        Lhs {
            a,
            rs: k,
            ls: 1,
            lanes: k,
        }
    }
}

/// A GEMM's operands as the tiles read them, in place: the lhs stretch by
/// stretch along `k`, and the rhs, whose row `l` (counted across all
/// stretches) starts at `b[l * ldb]`.
pub(crate) struct Operands<'a> {
    pub(crate) lhs: &'a [Lhs<'a>],
    pub(crate) b: &'a [f32],
    pub(crate) ldb: usize,
}

/// Where a GEMM's rows go: column panels `(buffer, width)` side by side,
/// row `i` of panel `q` at `buffer[i * width..]`; one panel is a plain
/// matrix. A tile is stored, or, with `add`, added into what is there (the
/// weight gradient's batch sum).
pub(crate) struct Dst<'o, 'a> {
    pub(crate) panels: &'o mut [(&'a mut [f32], usize)],
    pub(crate) add: bool,
}

/// `panels = lhs @ b[k, n]` over rows `0..rows`: `MR×NC` blocks, row
/// blocks outermost, or one-column blocks of `COL_MR` rows when `n == 1`.
/// The tile reads both operands where they lie and writes each block
/// once; nothing is packed or allocated.
fn gemm(
    lhs: &[Lhs],
    b: &[f32],
    rows: usize,
    n: usize,
    panels: &mut [(&mut [f32], usize)],
    add: bool,
) {
    let (ops, dst) = (&Operands { lhs, b, ldb: n }, &mut Dst { panels, add });
    if n == 1 {
        for i0 in (0..rows).step_by(COL_MR) {
            tile::column(ops, i0, COL_MR.min(rows - i0), dst);
        }
        return;
    }
    for i0 in (0..rows).step_by(MR) {
        for j0 in (0..n).step_by(NC) {
            tile::block(ops, i0, MR.min(rows - i0), j0, NC.min(n - j0), dst);
        }
    }
}

/// Register-tiled kernels that read their operands where they lie.
///
/// Every GEMM runs one driver: `MR`-row blocks of the output, split over
/// the pool as whole blocks, each swept in `NC`-column register blocks
/// whose partial sums stay in registers across the whole `k` loop, so `C`
/// is written once. The lhs is read through row and lane strides (a
/// matrix, column panels, a transposed panel), the rhs row by row, and the
/// store splits at output panel edges; nothing is packed. A one-column
/// product runs its own block, one output row per lane. The `k` loop is
/// never split or reassociated — see the module docs for the bitwise
/// contract.
///
/// The tile is chosen at build time. With `avx512f` in the target
/// (`-C target-cpu=native` on an AVX-512 host) it is `12×32`, 24 zmm
/// accumulators (a one-column block holds 64 rows in four), and `spmm`
/// runs each CSR row's columns in 16-lane zmm strips, up to four
/// accumulators per pass, storing each strip once. Everywhere else it is
/// the portable `4×8` tile and `spmm` is the reference's row loop.
pub struct Tiled;

impl Kernels for Tiled {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "an [m, k] lhs");
        if m == 0 || n == 0 {
            return;
        }
        // `MR`-aligned row blocks over the pool.
        par::parallel_slabs(out, MR * n, m * n * k, |group, slab| {
            let lhs = [Lhs::rows(&a[group * MR * k..], k)];
            gemm(&lhs, b, slab.len() / n, n, &mut [(slab, n)], false);
        });
    }

    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
        shared_rhs: bool,
    ) {
        if shared_rhs {
            // A one-panel lhs.
            return self.bmm_panels(&[a], &[k], b, out, bs, m, n);
        }
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        par::parallel_fill_chunks(out, m * n, bs * m * n * k, |i, slab| {
            let (a, b) = (
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
            );
            gemm(&[Lhs::rows(a, k)], b, m, n, &mut [(slab, n)], false);
        });
    }

    fn bmm_panels(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        b: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    ) {
        for (p, &w) in panels.iter().zip(widths) {
            assert_eq!(p.len(), bs * m * w, "a [bs, m, width] panel");
        }
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        let k: usize = widths.iter().sum();
        // Batches over the pool; batch `i`'s lhs is one stretch per panel.
        par::parallel_fill_chunks(out, m * n, bs * m * n * k, |i, slab| {
            let lhs: Vec<Lhs> = (panels.iter().zip(widths))
                .map(|(&p, &w)| Lhs::rows(&p[i * m * w..], w))
                .collect();
            gemm(&lhs, b, m, n, &mut [(slab, n)], false);
        });
    }

    fn bmm_split(
        &self,
        a: &[f32],
        b: &[f32],
        outs: &mut [&mut [f32]],
        widths: &[usize],
        bs: usize,
        m: usize,
        k: usize,
    ) {
        let n: usize = widths.iter().sum();
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        // One GEMM over all `n` columns; batch `i`'s slice of every output
        // panel goes to the chunk that runs it.
        let mut batches: Vec<Vec<(&mut [f32], usize)>> = (0..bs).map(|_| Vec::new()).collect();
        for (out, &w) in outs.iter_mut().zip(widths).filter(|(_, &w)| w > 0) {
            for (slabs, slab) in batches.iter_mut().zip(out.chunks_exact_mut(m * w)) {
                slabs.push((slab, w));
            }
        }
        let batches: Vec<Mutex<_>> = batches.into_iter().map(Mutex::new).collect();
        par::parallel_chunks(bs, bs * m * n * k, |_, start, end| {
            for (i, outs) in batches.iter().enumerate().take(end).skip(start) {
                let mut outs = outs.lock().expect("a batch is locked once, by its chunk");
                let a = &a[i * m * k..(i + 1) * m * k];
                gemm(&[Lhs::rows(a, k)], b, m, n, &mut outs, false);
            }
        });
    }

    fn bmm_panels_dw(
        &self,
        panels: &[&[f32]],
        widths: &[usize],
        g: &[f32],
        out: &mut [f32],
        bs: usize,
        m: usize,
        n: usize,
    ) {
        let k: usize = widths.iter().sum();
        if bs == 0 || k == 0 || n == 0 {
            out.fill(0.0);
            return;
        }
        for (p, &w) in panels.iter().zip(widths) {
            assert_eq!(p.len(), bs * m * w, "a [bs, m, width] panel");
        }
        // Row blocks of `out` in parallel. Output row `c` of panel `p` is
        // the panel's column `c` read down its `m` rows (row stride 1, lane
        // stride `w`); each block runs the batches in order, batch 0 stored
        // and each later one added, so every element's sum keeps its order.
        par::parallel_slabs(out, MR * n, bs * m * n * k, |group, slab| {
            let (s0, s1) = (group * MR, group * MR + slab.len() / n);
            let mut off = 0;
            for (&p, &w) in panels.iter().zip(widths) {
                let (lo, hi) = (s0.max(off), s1.min(off + w));
                for b in (0..bs).filter(|_| lo < hi) {
                    let a = &p[b * m * w + lo - off..];
                    let lhs = [Lhs {
                        a,
                        rs: 1,
                        ls: w,
                        lanes: m,
                    }];
                    let rows = &mut slab[(lo - s0) * n..(hi - s0) * n];
                    gemm(
                        &lhs,
                        &g[b * m * n..(b + 1) * m * n],
                        hi - lo,
                        n,
                        &mut [(rows, n)],
                        b > 0,
                    );
                }
                off += w;
            }
        });
    }

    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    ) {
        spmm_rows(row_ptr, col_idx, values, x, out, rows, n, tile::spmm_row);
    }

    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation) {
        // The bias add row-chunked (no modulo), then the activation's slice
        // kernel over `out` in place. Trailing partial rows (never produced
        // by the public op, which validates `z`'s last dim against `bias`)
        // still zip correctly — `zip` truncates to the shorter side.
        let nb = bias.len().max(1);
        for (orow, zrow) in out.chunks_mut(nb).zip(z.chunks(nb)) {
            for ((o, &zv), &bv) in orow.iter_mut().zip(zrow).zip(bias) {
                *o = zv + bv;
            }
        }
        act.apply_in_place(out);
    }

    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]) {
        for (((o, &uv), &hv), &cv) in out.iter_mut().zip(u).zip(h).zip(c) {
            // `* -1.0` kept on purpose — the fused blend must replicate the
            // composed `(u*h) + (((u*-1)+1)*c)` expression bit for bit.
            #[allow(clippy::neg_multiply)]
            {
                *o = (uv * hv) + (((uv * -1.0) + 1.0) * cv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Cheap deterministic pseudo-random values with mixed signs.
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn matmul_both(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        Reference.matmul(&a, &b, &mut r, m, k, n);
        Tiled.matmul(&a, &b, &mut t, m, k, n);
        (r, t)
    }

    #[test]
    fn tiled_matmul_bitwise_equals_reference() {
        // Ragged m/k/n remainders against the register blocks.
        for (m, k, n) in [(64, 64, 64), (67, 33, 41), (128, 37, 9), (31, 130, 65)] {
            let (r, t) = matmul_both(m, k, n);
            for (i, (x, y)) in r.iter().zip(&t).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) elem {i}");
            }
        }
    }

    #[test]
    fn tiled_small_and_empty_shapes_fall_back() {
        for (m, k, n) in [(3, 4, 5), (0, 4, 5), (4, 0, 5), (4, 5, 0), (1, 1, 1)] {
            let (r, t) = matmul_both(m, k, n);
            assert_eq!(r, t, "({m},{k},{n})");
        }
    }

    #[test]
    fn tiled_bmm_matches_reference_both_rhs_modes() {
        let (bs, m, k, n) = (3, 33, 29, 17);
        let a = fill(bs * m * k, 3);
        let shared = fill(k * n, 4);
        let per = fill(bs * k * n, 5);
        for (b, shared_rhs) in [(&shared, true), (&per, false)] {
            let mut r = vec![0.0f32; bs * m * n];
            let mut t = vec![0.0f32; bs * m * n];
            Reference.bmm(&a, b, &mut r, bs, m, k, n, shared_rhs);
            Tiled.bmm(&a, b, &mut t, bs, m, k, n, shared_rhs);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r), bits(&t), "shared_rhs={shared_rhs}");
        }
    }

    #[test]
    fn fused_kernels_match_reference() {
        let z = fill(6 * 7, 6);
        let bias = fill(7, 7);
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            let mut r = vec![0.0f32; z.len()];
            let mut t = vec![0.0f32; z.len()];
            Reference.bias_act(&z, &bias, &mut r, act);
            Tiled.bias_act(&z, &bias, &mut t, act);
            assert_eq!(r, t, "{act:?}");
        }
        let (u, h, c) = (fill(40, 8), fill(40, 9), fill(40, 10));
        // Squash u into (0,1) like a real gate.
        let u: Vec<f32> = u.iter().map(|&x| math::sigmoid(x)).collect();
        let mut r = vec![0.0f32; 40];
        let mut t = vec![0.0f32; 40];
        Reference.gru_blend(&u, &h, &c, &mut r);
        Tiled.gru_blend(&u, &h, &c, &mut t);
        assert_eq!(r, t);
    }

    #[test]
    fn backend_kind_parse_and_names() {
        assert_eq!(BackendKind::parse("tiled"), Some(BackendKind::Tiled));
        assert_eq!(BackendKind::parse(" REF "), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("naive"), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::parse(""), None);
        assert_eq!(BackendKind::Tiled.name(), "tiled");
        assert_eq!(kernels_for(BackendKind::Reference).name(), "reference");
    }

    fn nap() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    #[test]
    fn kernel_time_counters_accumulate_per_class() {
        let before = kernel_secs();
        timed(KernelClass::Gemm, |_| nap());
        let mid = kernel_secs();
        timed(KernelClass::Spmm, |_| nap());
        let after = kernel_secs();
        assert!(mid[0] - before[0] >= 0.002, "gemm secs advanced");
        assert_eq!(after[0], mid[0], "gemm untouched by spmm");
        assert!(after[1] - mid[1] >= 0.002, "spmm secs advanced");
        assert_eq!(after[2], before[2], "elementwise untouched");
    }

    #[test]
    fn counters_are_thread_local() {
        timed(KernelClass::Gemm, |_| nap());
        let other = std::thread::spawn(|| kernel_secs()[0]).join().unwrap();
        assert_eq!(other, 0.0, "fresh thread starts at zero");
    }

    #[test]
    fn nan_and_inf_propagate_through_both_backends() {
        // A zero row in A against NaN/Inf in B must land NaN in C: the
        // historical `al == 0.0` skip broke this.
        let m = 2;
        let k = 2;
        let n = 2;
        let a = vec![0.0, 0.0, 1.0, 0.0];
        let b = vec![f32::NAN, f32::INFINITY, 1.0, 1.0];
        for kind in [BackendKind::Reference, BackendKind::Tiled] {
            let mut out = vec![0.0f32; m * n];
            kernels_for(kind).matmul(&a, &b, &mut out, m, k, n);
            assert!(out[0].is_nan(), "{kind:?}: 0×NaN must propagate");
            assert!(out[1].is_nan(), "{kind:?}: 0×Inf is NaN");
            assert!(out[2].is_nan() && out[3].is_infinite(), "{kind:?}");
        }
    }
}
