//! Replays: after a traced run, the benchmark calls a layer's public
//! functions itself on the workload's shapes. Rates divide *computed*
//! operation counts and bytes (from the shapes) by measured wall time;
//! nothing here reads a hardware counter.

use super::sample_us;
use crate::stats;
use st_dist::launch::run_workers;
use st_dist::topology::ClusterTopology;
use st_graph::Csr;
use st_tensor::backend::{kernels_for, Activation, BackendKind};
use st_tensor::par;
use std::hint::black_box;
use std::time::Instant;

/// Keep calling `f` for about 40 ms (at least three calls) and return the
/// median seconds per call.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < 0.04 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i % 97) as f32 - 48.0) / 64.0).collect()
}

/// Kernel rates at a DCRNN step's dominant shapes.
pub struct KernelRates {
    pub matmul_gflops: f64,
    pub bmm_gflops: f64,
    pub spmm_gflops: f64,
    pub bias_act_gbps: f64,
}

/// Time the four kernels a diffusion-convolution gate is made of, at the
/// shapes it gives them: `batch` windows over `nodes` nodes, `in_dim` =
/// features + hidden channels entering the gate, `supports` diffusion
/// operators, `hidden` channels leaving it.
///
/// - `bmm`: the gate projection `[batch, nodes, supports·in_dim] @
///   [supports·in_dim, hidden]` (shared right-hand side);
/// - `matmul`: its weight gradient `[supports·in_dim, batch·nodes] @
///   [batch·nodes, hidden]`;
/// - `spmm`: one diffusion step `support[nodes, nodes] @ x[nodes, in_dim]`
///   per window;
/// - `bias_act`: the fused bias + sigmoid over `batch·nodes·hidden`.
pub fn kernel_rates(
    kind: BackendKind,
    batch: usize,
    nodes: usize,
    in_dim: usize,
    hidden: usize,
    supports: usize,
    support: &Csr,
) -> KernelRates {
    let k = kernels_for(kind);
    let cat = supports * in_dim;

    let (a, b) = (ramp(batch * nodes * cat), ramp(cat * hidden));
    let mut out = vec![0.0f32; batch * nodes * hidden];
    let bmm_secs = secs_per_call(|| {
        out.fill(0.0);
        k.bmm(
            black_box(&a),
            black_box(&b),
            &mut out,
            batch,
            nodes,
            cat,
            hidden,
            true,
        );
        black_box(&out);
    });
    let bmm_flops = 2.0 * (batch * nodes * cat * hidden) as f64;

    let (ga, gb) = (ramp(cat * batch * nodes), ramp(batch * nodes * hidden));
    let mut gout = vec![0.0f32; cat * hidden];
    let matmul_secs = secs_per_call(|| {
        gout.fill(0.0);
        k.matmul(
            black_box(&ga),
            black_box(&gb),
            &mut gout,
            cat,
            batch * nodes,
            hidden,
        );
        black_box(&gout);
    });
    let matmul_flops = 2.0 * (cat * batch * nodes * hidden) as f64;

    // The public CSR exposes rows, not its arrays: rebuild them.
    let mut row_ptr = vec![0usize];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for r in 0..support.shape().0 {
        for (c, v) in support.row(r) {
            col_idx.push(c);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    let x = ramp(nodes * in_dim);
    let mut sout = vec![0.0f32; nodes * in_dim];
    let spmm_secs = secs_per_call(|| {
        for _ in 0..batch {
            sout.fill(0.0);
            k.spmm(
                &row_ptr,
                &col_idx,
                &values,
                black_box(&x),
                &mut sout,
                nodes,
                in_dim,
            );
        }
        black_box(&sout);
    });
    let spmm_flops = 2.0 * (batch * values.len() * in_dim) as f64;

    let (z, bias) = (ramp(batch * nodes * hidden), ramp(hidden));
    let mut zout = vec![0.0f32; z.len()];
    let act_secs = secs_per_call(|| {
        k.bias_act(black_box(&z), &bias, &mut zout, Activation::Sigmoid);
        black_box(&zout);
    });
    // One f32 read and one written per element; the bias stays in cache.
    let act_bytes = 8.0 * z.len() as f64;

    KernelRates {
        matmul_gflops: matmul_flops / matmul_secs / 1e9,
        bmm_gflops: bmm_flops / bmm_secs / 1e9,
        spmm_gflops: spmm_flops / spmm_secs / 1e9,
        bias_act_gbps: act_bytes / act_secs / 1e9,
    }
}

/// Cost of handing one kernel call to the intra-op threads: an empty body
/// over a range whose declared work sits exactly at the inline/parallel
/// threshold, so `par::parallel_chunks` takes its parallel path.
pub fn par_dispatch_us() -> f64 {
    let work = par::par_threshold();
    stats::median(&sample_us(200, || {
        par::parallel_chunks(1024, work, |c, lo, hi| {
            black_box((c, lo, hi));
        })
    }))
}

/// Cost of `run_workers(world, ..)` with an empty body: what every engine
/// run pays once and every serve call pays again.
pub fn worker_spawn_us(world: usize) -> f64 {
    stats::median(&sample_us(50, || {
        black_box(run_workers(world, ClusterTopology::polaris(), |ctx| {
            ctx.rank()
        }));
    }))
}
