//! Pluggable compute backends: the [`Kernels`] trait and its two
//! implementations, [`Reference`] (the original naive loops) and [`Tiled`]
//! (cache-blocked, register-tiled, packed-panel kernels; explicit AVX-512
//! register tiles for the GEMM and the CSR SpMM when the build target has
//! `avx512f`).
//!
//! Every dense hot loop in the workspace — trainer, the distributed step
//! engine, `st-serve` inference, and the benches — bottoms out in the four
//! kernel families dispatched here: GEMM (`matmul`), batched GEMM (`bmm`),
//! sparse×dense (`spmm`, called back from `st-graph`'s CSR), and the fused
//! elementwise kernels backing the DCRNN gate path.
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
//! `fmadd`. This is what lets the engine's golden tests pin train-loss
//! *bits* while the backend underneath is swapped freely. The proptest
//! suite (`tests/proptests_kernels.rs`) pins the contract across ragged
//! shapes; DESIGN.md §8 documents the reasoning.
//!
//! # Selection
//!
//! The active backend is a process-wide choice: [`set_backend`] /
//! [`active_backend`], initialized once from the `ST_BACKEND` environment
//! variable (`"tiled"` — the default — or `"reference"`). A global is the
//! right scope because worker ranks, serve shards, and gradient bucketing
//! all run the same model math on their own threads and must agree on the
//! kernels; per-call structs ([`Reference`], [`Tiled`]) remain available
//! for side-by-side comparison (benches, proptests).

use crate::math;
use crate::par;
use crate::storage::Storage;
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

/// The active backend's kernels (shorthand for
/// `kernels_for(active_backend())`).
pub fn kernels() -> &'static dyn Kernels {
    kernels_for(active_backend())
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
pub enum KernelClass {
    /// Dense matrix multiplication (matmul / bmm / matvec).
    Gemm,
    /// Sparse×dense products (CSR spmm, reported by `st-graph`).
    Spmm,
    /// Elementwise maps/zips and the fused gate kernels.
    Elementwise,
}

thread_local! {
    static KERNEL_SECS: [Cell<f64>; 3] =
        const { [Cell::new(0.0), Cell::new(0.0), Cell::new(0.0)] };
}

/// Add `secs` of wall-clock time to `class` on this thread's counters.
/// Public so sibling crates owning a kernel family (`st-graph`'s spmm) can
/// report into the same ledger.
pub fn record_kernel_secs(class: KernelClass, secs: f64) {
    KERNEL_SECS.with(|k| {
        let c = &k[class as usize];
        c.set(c.get() + secs);
    });
}

/// Cumulative `[gemm, spmm, elementwise]` kernel seconds recorded on the
/// calling thread since it started. Ops time themselves at their entry
/// point, so work farmed out to the `par` pool is charged to the thread
/// that invoked the op — each engine rank reads its own compute split.
pub fn kernel_secs() -> [f64; 3] {
    KERNEL_SECS.with(|k| [k[0].get(), k[1].get(), k[2].get()])
}

/// Time `f` and charge its wall-clock duration to `class`.
pub fn timed<R>(class: KernelClass, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    record_kernel_secs(class, start.elapsed().as_secs_f64());
    out
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// Raw-slice compute kernels a backend must provide.
///
/// Shape validation, contiguity, and tensor construction stay in
/// `st_tensor::ops`; implementations only see flat buffers. Every method
/// must honor the crate's bitwise-equality contract (see module docs).
pub trait Kernels: Sync {
    /// Backend name for reports and bench labels.
    fn name(&self) -> &'static str;

    /// `out[m,n] = a[m,k] @ b[k,n]`, `out` pre-zeroed.
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Batched `out[bs,m,n] = a[bs,m,k] @ b`, `out` pre-zeroed. `b` is
    /// `[bs,k,n]`, or `[k,n]` shared across the batch when `shared_rhs`.
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
    /// `out[bs,m,n] = [P₀ | P₁ | …] @ b[k,n]`, `out` pre-zeroed. Panel `p`
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
    /// the pre-zeroed `[bs,m,widths[p]]` buffer `outs[p]`. Only the store
    /// is split, so every element's bits equal [`Kernels::bmm`]'s.
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
    /// does). `out` is overwritten; with `bs = 0` it is left as it is.
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

    /// CSR sparse×dense: `out[rows,n] = S @ x[cols,n]`, `out` pre-zeroed.
    /// Row `r`'s nonzeros are `col_idx/values[row_ptr[r]..row_ptr[r+1]]`,
    /// and each output element adds them in storage order. A column index
    /// past `x`'s rows, or an `x` shorter than the rows it names, panics.
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
/// backend is pinned against. (The historical `al == 0.0` skip is gone: it
/// suppressed NaN/Inf propagation — `0 × NaN` never landed — and, because
/// a `+0.0`-seeded accumulator can never become `-0.0` under addition,
/// removing it changes no finite output bits.)
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

/// One CSR row of the naive SpMM: `out += Σ vals[p] · x[cols[p], ..]`, the
/// nonzeros in storage order, each column's `acc += v * x` in place.
fn naive_spmm_row(cols: &[usize], vals: &[f32], x: &[f32], out: &mut [f32]) {
    let n = out.len();
    for (&c, &v) in cols.iter().zip(vals) {
        let xrow = &x[c * n..(c + 1) * n];
        for (o, &xv) in out.iter_mut().zip(xrow) {
            *o += v * xv;
        }
    }
}

/// One output row of the naive i-k-j GEMM: `row += a_row @ b`.
#[inline]
fn naive_row_kernel(arow: &[f32], b: &[f32], row: &mut [f32], n: usize) {
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

/// The portable tile, the only one on targets without AVX-512: `4×8`
/// accumulators the compiler keeps in four ymm registers, and the naive
/// CSR row.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod tile {
    pub(super) use super::naive_spmm_row as spmm_row;

    /// Rows per register micro-tile.
    pub const MR: usize = 4;
    /// Columns per packed B panel (and per register micro-tile).
    pub const NR: usize = 8;

    /// The `MR×NR` register micro-kernel: partial sums stay in registers
    /// across the whole `k` loop (ascending, `mul` then `add` — never FMA)
    /// and are returned whole; ragged edges only narrow the caller's store.
    #[inline]
    pub(super) fn micro(apack: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        for (al, bp) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
            let al: &[f32; MR] = al.try_into().expect("packed A lane");
            let bp: &[f32; NR] = bp.try_into().expect("packed B lane");
            for (accr, &av) in acc.iter_mut().zip(al) {
                for (accv, &bv) in accr.iter_mut().zip(bp) {
                    *accv += av * bv;
                }
            }
        }
        acc
    }

    /// `dst += v`, written as `add_assign` writes it, so it compiles to the
    /// same operand order (`v` first; the NaN payload it keeps).
    #[inline]
    pub(super) fn add_into(dst: &mut [f32], v: &[f32]) {
        for (d, &x) in dst.iter_mut().zip(v) {
            *d += x;
        }
    }
}

pub use tile::{MR, NR};

/// Products smaller than this many scalar ops take the naive kernel —
/// packing overhead only pays off once the B panel is re-streamed across
/// several row blocks. Both paths are bitwise identical, so the switch is
/// purely a latency decision.
const TILE_MIN_WORK: usize = 16 * 1024;

/// Cache-blocked, register-tiled kernels with packed B panels.
///
/// GEMM walks `NR`-column panels of a packed copy of `B`; each `MR×NR`
/// micro-tile keeps its partial sums in registers across the whole `k`
/// loop, so `C` is written once instead of being re-loaded per `k` step,
/// and `B`'s traffic drops by `MR×`. The `k` loop is never split or
/// reassociated — see the module docs for the bitwise contract.
///
/// The tile is chosen at build time. With `avx512f` in the target
/// (`-C target-cpu=native` on an AVX-512 host) it is `8×16`, eight zmm
/// accumulators, and `spmm` runs each CSR row's columns in 16-lane zmm
/// strips, up to four accumulators per pass, storing each strip once.
/// Everywhere else it is the portable `4×8` tile and `spmm` is the
/// reference's row loop.
pub struct Tiled;

impl Kernels for Tiled {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 || m * n * k < TILE_MIN_WORK {
            return Reference.matmul(a, b, out, m, k, n);
        }
        let packed = pack_b(b, k, n);
        tiled_rows_parallel(a, &packed, out, k, n, m * n * k);
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
        let work = bs * m * n * k;
        if k == 0 || work < TILE_MIN_WORK {
            return Reference.bmm(a, b, out, bs, m, k, n, shared_rhs);
        }
        if shared_rhs {
            // A one-panel lhs: the rhs is packed once for the whole batch.
            return self.bmm_panels(&[a], &[k], b, out, bs, m, n);
        }
        par::parallel_fill_chunks(out, m * n, work, |i, slab| {
            let packed = pack_b(&b[i * k * n..(i + 1) * k * n], k, n);
            tiled_rows(
                &[(&a[i * m * k..(i + 1) * m * k], k)],
                &packed,
                &mut [(slab, n)],
                m,
                k,
                n,
            );
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
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        let k: usize = widths.iter().sum();
        let work = bs * m * n * k;
        if k == 0 || work < TILE_MIN_WORK {
            return Reference.bmm_panels(panels, widths, b, out, bs, m, n);
        }
        // The shared rhs is packed once; only the A-lane packer sees panels.
        let packed = pack_b(b, k, n);
        par::parallel_fill_chunks(out, m * n, work, |i, slab| {
            let lhs: Vec<(&[f32], usize)> = panels
                .iter()
                .zip(widths)
                .map(|(&p, &w)| (&p[i * m * w..(i + 1) * m * w], w))
                .collect();
            tiled_rows(&lhs, &packed, &mut [(slab, n)], m, k, n);
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
        let work = bs * m * n * k;
        if k == 0 || work < TILE_MIN_WORK {
            return Reference.bmm_split(a, b, outs, widths, bs, m, k);
        }
        // One GEMM over all `n` columns (no per-panel NR padding); batch
        // `i`'s slice of every output panel goes to the chunk that runs it.
        let packed = pack_b(b, k, n);
        let mut batches: Vec<Vec<(&mut [f32], usize)>> = (0..bs).map(|_| Vec::new()).collect();
        for (out, &w) in outs.iter_mut().zip(widths).filter(|(_, &w)| w > 0) {
            for (slabs, slab) in batches.iter_mut().zip(out.chunks_exact_mut(m * w)) {
                slabs.push((slab, w));
            }
        }
        let batches: Vec<Mutex<_>> = batches.into_iter().map(Mutex::new).collect();
        par::parallel_chunks(bs, work, |_, start, end| {
            for (i, outs) in batches.iter().enumerate().take(end).skip(start) {
                let mut outs = outs.lock().expect("a batch is locked once, by its chunk");
                tiled_rows(
                    &[(&a[i * m * k..(i + 1) * m * k], k)],
                    &packed,
                    &mut outs,
                    m,
                    k,
                    n,
                );
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
            return;
        }
        let work = bs * m * n * k;
        if work < TILE_MIN_WORK {
            return Reference.bmm_panels_dw(panels, widths, g, out, bs, m, n);
        }
        for (p, &w) in panels.iter().zip(widths) {
            assert_eq!(p.len(), bs * m * w, "a [bs, m, width] panel");
        }
        // Every batch's `g[b]` packed once, for all row blocks.
        let gp = n.div_ceil(NR) * m * NR;
        let mut packed = Storage::scratch(bs * gp);
        for (dst, gb) in packed
            .make_mut()
            .chunks_exact_mut(gp)
            .zip(g.chunks_exact(m * n))
        {
            pack_b_into(gb, m, n, dst);
        }
        let packed = packed.as_slice();
        // Row blocks of `out` in parallel; each block runs the batches in
        // order, so every element's batch sum keeps its order.
        par::parallel_slabs(out, MR * n, work, |group, slab| {
            let mut apack = vec![0.0f32; m * MR];
            for (blk, oblk) in slab.chunks_mut(MR * n).enumerate() {
                let (i0, rows) = ((group + blk) * MR, oblk.len() / n);
                if rows < MR {
                    // Padded row lanes accumulate zeros and are never stored.
                    apack.fill(0.0);
                }
                let runs = panel_runs(widths, i0, rows);
                for (b, gb) in packed.chunks_exact(gp).enumerate() {
                    // Lane `l` of the block is row `l` of batch `b`'s panels,
                    // columns `i0..i0 + rows`, read where they lie.
                    for &(p, c0, r0, len) in &runs {
                        let w = widths[p];
                        let pb = &panels[p][b * m * w..(b + 1) * m * w];
                        for (lane, prow) in apack.chunks_exact_mut(MR).zip(pb.chunks_exact(w)) {
                            lane[r0..r0 + len].copy_from_slice(&prow[c0..c0 + len]);
                        }
                    }
                    for (pj, bpanel) in gb.chunks_exact(m * NR).enumerate() {
                        let acc = tile::micro(&apack, bpanel);
                        let (j0, cols) = (pj * NR, NR.min(n - pj * NR));
                        for (orow, accr) in oblk.chunks_exact_mut(n).zip(&acc) {
                            let dst = &mut orow[j0..j0 + cols];
                            if b == 0 {
                                dst.copy_from_slice(&accr[..cols]);
                            } else {
                                tile::add_into(dst, &accr[..cols]);
                            }
                        }
                    }
                }
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

/// Pack `b[k,n]` into `NR`-column panels: panel `p` holds columns
/// `p*NR..p*NR+NR` contiguously per `k` step (`packed[(p*k + l)*NR + c] =
/// b[l*n + p*NR + c]`), zero-padded past `n`. Padded lanes are computed but
/// never stored to `out`.
fn pack_b(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; n.div_ceil(NR) * k * NR];
    pack_b_into(b, k, n, &mut packed);
    packed
}

/// [`pack_b`] into `packed`, every element written (pads included).
fn pack_b_into(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    for (p, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (lane, src) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            lane[..w].copy_from_slice(&src[j0..j0 + w]);
            lane[w..].fill(0.0);
        }
    }
}

/// The columns `i0..i0 + rows` of the panels laid side by side, as runs
/// `(panel, first column in it, first row of the block, length)` — where a
/// row block of the stacked transposes lies in the panels.
fn panel_runs(widths: &[usize], i0: usize, rows: usize) -> Vec<(usize, usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut off = 0;
    for (p, &w) in widths.iter().enumerate() {
        let (lo, hi) = (i0.max(off), (i0 + rows).min(off + w));
        if lo < hi {
            runs.push((p, lo - off, lo - i0, hi - lo));
        }
        off += w;
    }
    runs
}

/// Tiled GEMM over `out[m,n]` with `packed` panels, parallel across
/// MR-aligned row blocks.
fn tiled_rows_parallel(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    work: usize,
) {
    par::parallel_slabs(out, MR * n, work, |group, slab| {
        let i0 = group * MR;
        let rows = slab.len() / n;
        tiled_rows(
            &[(&a[i0 * k..(i0 + rows) * k], k)],
            packed,
            &mut [(slab, n)],
            rows,
            k,
            n,
        );
    });
}

/// Sequential tiled GEMM body: `out[m,n] = A[m,k] @ B` where `B` was packed
/// by [`pack_b`]. `A` is `lhs` and `out` is `outs`, each as column panels
/// `(buffer, width)` laid side by side; one panel `(a, k)` or `(out, n)` is a
/// plain matrix. Each `MR`-row block of `A` is repacked `l`-major
/// (`apack[l*MR + r] = A[i+r, l]`, lane `l` read from the panel that holds
/// it, zero-padded lanes past `m`) so the micro-kernel streams both operands
/// contiguously; the pack cost is repaid `n/NR` times over as the block
/// sweeps the panels. Each tile's columns are stored to the output panels
/// that hold them.
fn tiled_rows(
    lhs: &[(&[f32], usize)],
    packed: &[f32],
    outs: &mut [(&mut [f32], usize)],
    m: usize,
    k: usize,
    n: usize,
) {
    let panels = n.div_ceil(NR);
    let mut apack = vec![0.0f32; k * MR];
    let mut i = 0;
    while i < m {
        let rows = MR.min(m - i);
        if rows < MR {
            // Padded row lanes accumulate zeros and are never stored.
            apack.fill(0.0);
        }
        for r in 0..rows {
            let mut lane0 = 0;
            for &(a, w) in lhs {
                let arow = &a[(i + r) * w..(i + r + 1) * w];
                for (l, &av) in arow.iter().enumerate() {
                    apack[(lane0 + l) * MR + r] = av;
                }
                lane0 += w;
            }
        }
        for p in 0..panels {
            let j0 = p * NR;
            let cols = NR.min(n - j0);
            let acc = tile::micro(&apack, &packed[p * k * NR..(p + 1) * k * NR]);
            // Columns j0..j0+cols, split where an output panel ends.
            let mut off = 0;
            for (out, w) in outs.iter_mut() {
                let (lo, hi) = (j0.max(off), (j0 + cols).min(off + *w));
                if lo < hi {
                    for (r, accr) in acc.iter().enumerate().take(rows) {
                        let at = (i + r) * *w + lo - off;
                        out[at..at + hi - lo].copy_from_slice(&accr[lo - j0..hi - j0]);
                    }
                }
                off += *w;
            }
        }
        i += rows;
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
        // Sizes above TILE_MIN_WORK with ragged m/k/n remainders.
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

    #[test]
    fn kernel_time_counters_accumulate_per_class() {
        let before = kernel_secs();
        timed(KernelClass::Gemm, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        record_kernel_secs(KernelClass::Spmm, 0.5);
        let after = kernel_secs();
        assert!(after[0] > before[0], "gemm secs advanced");
        assert!(
            (after[1] - before[1] - 0.5).abs() < 1e-12,
            "spmm secs exact"
        );
        assert_eq!(after[2], before[2], "elementwise untouched");
    }

    #[test]
    fn counters_are_thread_local() {
        record_kernel_secs(KernelClass::Gemm, 1.0);
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
