//! DDP-style parameter broadcast and gradient synchronization.
//!
//! Mirrors PyTorch DistributedDataParallel at the granularity this repo
//! needs, with one sync mechanism: [`GradBuckets`] — deterministic
//! byte-capped buckets in **gradient-completion order** (the order
//! `Tape::backward` finalizes grads, approximated up front by reversed
//! module order exactly as PyTorch does), each all-reduced as one
//! rank-order mean ([`Comm::all_reduce`]). Quoted
//! ([`GradBuckets::reduce_bucket_quoted`]), a bucket's wire time can hide
//! behind the backward compute still running for earlier parameters;
//! non-blocking ([`GradBuckets::reduce_bucket_async`]), it rides a
//! bounded-staleness window. A cap of `usize::MAX` packs every parameter
//! into a single bucket — the flat synchronous reduce, which is what
//! `DistConfig::grad_bucket_bytes = None` builds.
//!
//! The split is **bit-invisible**: an element-wise rank-order mean does
//! not care how the flat buffer is cut (pinned against plain arithmetic by
//! `tests/proptests_ext.rs::bucketed_all_reduce_equals_flat`). Ranks whose
//! epoch ran out of batches contribute zero gradients but still enter
//! every collective — see [`crate::shuffle::common_rounds`].
//!
//! Scratch buffers and per-parameter output tensors are allocated once at
//! construction and reused every step; in steady state a gradient sync
//! performs no per-step allocation beyond the collective's own payload
//! exchange.

use crate::launch::{Comm, ReduceOp, Timing};
use st_autograd::module::Param;
use st_tensor::Tensor;

/// A flat view over an ordered parameter group: one persistent scratch
/// buffer plus persistent output-gradient tensors, so gather → all-reduce
/// → scatter allocates nothing in steady state.
struct FlatChunk {
    params: Vec<Param>,
    numel: usize,
    scratch: Vec<f32>,
    /// Persistent per-param averaged-gradient tensors, rewritten in place
    /// each step (`zero_grad` drops the param's handle between steps, so
    /// the copy-on-write storage stays uniquely owned).
    out: Vec<Tensor>,
}

impl FlatChunk {
    fn new(params: Vec<Param>) -> Self {
        let numel = params.iter().map(Param::numel).sum();
        let out = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape().clone()))
            .collect();
        FlatChunk {
            scratch: vec![0.0; numel],
            numel,
            params,
            out,
        }
    }

    /// Flatten the parameters' gradients into the scratch buffer; missing
    /// gradients contribute zeros.
    fn gather_grads(&mut self) {
        let mut offset = 0;
        for p in &self.params {
            let n = p.numel();
            let dst = &mut self.scratch[offset..offset + n];
            match p.grad() {
                Some(g) => match g.as_slice() {
                    Ok(s) => dst.copy_from_slice(s),
                    Err(_) => dst.copy_from_slice(&g.to_vec()),
                },
                None => dst.fill(0.0),
            }
            offset += n;
        }
    }

    /// Scatter the reduced scratch buffer back into every parameter's
    /// gradient through the persistent output tensors.
    fn scatter_grads(&mut self) {
        let mut offset = 0;
        for (p, t) in self.params.iter().zip(&mut self.out) {
            let n = p.numel();
            t.make_mut_contiguous()
                .copy_from_slice(&self.scratch[offset..offset + n]);
            offset += n;
            p.set_grad(Some(t.clone()));
        }
    }

    /// Scatter the scratch buffer into the parameters' gradients,
    /// **adding** to any gradient already present — the settle path of the
    /// bounded-staleness window, where two delayed collectives of the same
    /// bucket may land in one optimizer round and must both be applied
    /// (summing ≈ gradient accumulation across the deferred steps).
    fn scatter_grads_accumulate(&mut self) {
        let mut offset = 0;
        for p in &self.params {
            let n = p.numel();
            let span = &self.scratch[offset..offset + n];
            offset += n;
            let acc = match p.grad() {
                Some(g) => {
                    let mut v = g.to_vec();
                    for (a, s) in v.iter_mut().zip(span) {
                        *a += *s;
                    }
                    Tensor::from_vec(v, g.dims().to_vec()).expect("grad shape")
                }
                None => {
                    Tensor::from_vec(span.to_vec(), p.value().dims().to_vec()).expect("param shape")
                }
            };
            p.set_grad(Some(acc));
        }
    }
}

/// Overwrite every rank's parameter values with rank 0's (one flat
/// broadcast), so replicas start identical even if a model factory
/// ignored the shared seed. A one-time operation at engine start.
pub fn broadcast_parameters(params: &[Param], comm: &mut Comm) {
    let mut bucket: Vec<f32> = Vec::with_capacity(params.iter().map(Param::numel).sum());
    for p in params {
        let v = p.value();
        match v.as_slice() {
            Ok(s) => bucket.extend_from_slice(s),
            Err(_) => bucket.extend_from_slice(&v.to_vec()),
        }
    }
    comm.broadcast(&mut bucket);
    let mut offset = 0;
    for p in params {
        let value = p.value();
        let n = value.numel();
        let slice = bucket[offset..offset + n].to_vec();
        offset += n;
        p.set_value(
            Tensor::from_vec(slice, value.dims().to_vec()).expect("bucket slice matches shape"),
        );
    }
}

/// Default byte cap for [`GradBuckets`]: small enough that the repo's
/// measured-scale models split into several buckets (so the backward
/// overlap is exercised), in the spirit of PyTorch DDP's 25 MB default at
/// real scale.
pub const DEFAULT_GRAD_BUCKET_BYTES: usize = 16 << 10;

/// Byte-capped gradient buckets for backward-overlapped synchronization.
///
/// Construction is deterministic and rank-independent: walk `params` in
/// the given order (callers pass reversed module order — the up-front
/// approximation of gradient-completion order) and greedily pack
/// consecutive parameters until the next one would exceed `cap_bytes`
/// (every bucket holds at least one parameter, so an oversized parameter
/// gets a bucket of its own). Every rank derives the identical partition,
/// which is what keeps the per-bucket collectives aligned.
pub struct GradBuckets {
    buckets: Vec<FlatChunk>,
}

impl GradBuckets {
    /// Pack `params` (in intended firing order) into byte-capped buckets.
    pub fn new(params: Vec<Param>, cap_bytes: usize) -> Self {
        let mut buckets = Vec::new();
        let mut cur: Vec<Param> = Vec::new();
        let mut cur_bytes = 0usize;
        for p in params {
            let bytes = p.numel() * 4;
            if !cur.is_empty() && cur_bytes + bytes > cap_bytes {
                buckets.push(FlatChunk::new(std::mem::take(&mut cur)));
                cur_bytes = 0;
            }
            cur_bytes += bytes;
            cur.push(p);
        }
        if !cur.is_empty() {
            buckets.push(FlatChunk::new(cur));
        }
        GradBuckets { buckets }
    }

    /// Number of buckets (= per-step collectives).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total scalars across all buckets.
    pub fn numel(&self) -> usize {
        self.buckets.iter().map(|b| b.numel).sum()
    }

    /// All-reduce-mean bucket `i`'s gradients as a quoted collective: the
    /// averaged gradients are in place on return (parameters with no local
    /// gradient contribute zeros; every rank ends up with the identical
    /// mean) and the bytes are ledgered, but the modeled seconds come back
    /// for the caller's overlap scheduler instead of hitting the clock.
    pub fn reduce_bucket_quoted(&mut self, i: usize, comm: &mut Comm) -> f64 {
        let chunk = &mut self.buckets[i];
        chunk.gather_grads();
        let secs = comm.all_reduce(&mut chunk.scratch, ReduceOp::Mean, Timing::Quote);
        chunk.scatter_grads();
        secs
    }

    /// All-reduce-mean bucket `i` as a **non-blocking** collective for the
    /// bounded-staleness engine: gather this rank's gradients, combine
    /// across ranks (eager, rank-order, bit-identical to every other
    /// variant), and leave the averaged payload in the bucket's scratch —
    /// readable via [`GradBuckets::bucket_payload`] — *without* scattering
    /// into the parameters and without touching this rank's clock. Returns
    /// the absolute modeled instant the result is available
    /// ([`Timing::Async`]); application is deferred to
    /// [`GradBuckets::apply_stale`] whenever the staleness window settles.
    pub fn reduce_bucket_async(&mut self, i: usize, comm: &mut Comm) -> f64 {
        let chunk = &mut self.buckets[i];
        chunk.gather_grads();
        comm.all_reduce(&mut chunk.scratch, ReduceOp::Mean, Timing::Async)
    }

    /// Bucket `i`'s most recently reduced payload (the averaged gradient
    /// left by [`GradBuckets::reduce_bucket_async`]). Copy it out before
    /// the next step's reduce reuses the scratch.
    pub fn bucket_payload(&self, i: usize) -> &[f32] {
        &self.buckets[i].scratch
    }

    /// Apply a previously captured averaged-gradient `payload` to bucket
    /// `i`'s parameters, **adding** to any gradient already present (two
    /// deferred steps of the same bucket settling in one round accumulate,
    /// so no averaged gradient is ever dropped).
    pub fn apply_stale(&mut self, i: usize, payload: &[f32]) {
        let chunk = &mut self.buckets[i];
        assert_eq!(payload.len(), chunk.numel, "payload matches bucket");
        chunk.scratch.copy_from_slice(payload);
        chunk.scatter_grads_accumulate();
    }

    /// The modeled backward fraction at which each bucket can fire, given
    /// the tape's actual gradient-completion sequence for one step (see
    /// `Tape::param_completion_order`): a bucket is ready when its
    /// last-completing member's gradient is final, modeled as the
    /// cumulative-numel fraction of the completion sequence up to that
    /// member. Parameters absent from `completion` (no gradient flowed
    /// this step — they contribute zeros) never gate a bucket. Timing
    /// only: nothing here can influence numerics.
    pub fn fire_fractions(&self, completion: &[Param]) -> Vec<f64> {
        let total: f64 = completion.iter().map(|p| p.numel() as f64).sum();
        let mut cum = Vec::with_capacity(completion.len());
        let mut acc = 0.0;
        for p in completion {
            acc += p.numel() as f64;
            cum.push(acc / total.max(1.0));
        }
        self.buckets
            .iter()
            .map(|b| {
                b.params
                    .iter()
                    .filter_map(|p| {
                        completion
                            .iter()
                            .position(|q| q.same_param(p))
                            .map(|i| cum[i])
                    })
                    .fold(0.0, f64::max)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::run_workers;
    use crate::topology::ClusterTopology;

    fn param(name: &str, vals: Vec<f32>) -> Param {
        let n = vals.len();
        Param::new(name, Tensor::from_vec(vals, [n]).unwrap())
    }

    #[test]
    fn broadcast_copies_rank0_values_everywhere() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            let p = param("w", vec![ctx.rank() as f32; 4]);
            broadcast_parameters(std::slice::from_ref(&p), &mut ctx.comm);
            p.value().to_vec()
        });
        for vals in out {
            assert_eq!(vals, vec![0.0; 4]);
        }
    }

    #[test]
    fn averaging_fills_missing_grads_with_zeros() {
        let out = run_workers(2, ClusterTopology::polaris(), |mut ctx| {
            let p = param("w", vec![0.0; 2]);
            if ctx.rank() == 0 {
                p.set_grad(Some(Tensor::from_vec(vec![4.0, 8.0], [2]).unwrap()));
            } // rank 1: no grad — an exhausted rank meeting the collective
            let mut whole = GradBuckets::new(vec![p.clone()], usize::MAX);
            whole.reduce_bucket_quoted(0, &mut ctx.comm);
            p.grad().unwrap().to_vec()
        });
        for vals in out {
            assert_eq!(vals, vec![2.0, 4.0], "mean of (grad, zeros)");
        }
    }

    #[test]
    fn averaging_twice_reuses_the_scratch_and_stays_correct() {
        // The persistent-scratch path must not leak one step's values into
        // the next (missing grads in step 2 must re-zero their span).
        let out = run_workers(2, ClusterTopology::polaris(), |mut ctx| {
            let p = param("w", vec![0.0; 2]);
            let q = param("v", vec![0.0; 3]);
            let mut whole = GradBuckets::new(vec![p.clone(), q.clone()], usize::MAX);
            assert_eq!(whole.num_buckets(), 1, "usize::MAX never splits");
            p.set_grad(Some(Tensor::from_vec(vec![2.0, 2.0], [2]).unwrap()));
            q.set_grad(Some(Tensor::from_vec(vec![6.0, 6.0, 6.0], [3]).unwrap()));
            whole.reduce_bucket_quoted(0, &mut ctx.comm);
            let first = (p.grad().unwrap().to_vec(), q.grad().unwrap().to_vec());
            p.zero_grad();
            q.zero_grad();
            if ctx.rank() == 0 {
                p.set_grad(Some(Tensor::from_vec(vec![4.0, 4.0], [2]).unwrap()));
            }
            whole.reduce_bucket_quoted(0, &mut ctx.comm);
            (
                first,
                p.grad().unwrap().to_vec(),
                q.grad().unwrap().to_vec(),
            )
        });
        for (first, p2, q2) in out {
            assert_eq!(first, (vec![2.0, 2.0], vec![6.0, 6.0, 6.0]));
            assert_eq!(p2, vec![2.0, 2.0], "mean of (4, missing)");
            assert_eq!(q2, vec![0.0; 3], "stale step-1 grads must not leak");
        }
    }

    #[test]
    fn bucket_partition_is_deterministic_and_byte_capped() {
        let ps = vec![
            param("a", vec![0.0; 4]), // 16 B
            param("b", vec![0.0; 2]), // 8 B
            param("c", vec![0.0; 8]), // 32 B — oversized alone
            param("d", vec![0.0; 1]), // 4 B
        ];
        let b = GradBuckets::new(ps.clone(), 24);
        // Greedy packing: [a, b] (24 B), [c] (32 B > cap but alone), [d].
        assert_eq!(b.num_buckets(), 3);
        assert_eq!(b.numel(), 15);
        let again = GradBuckets::new(ps, 24);
        let sizes: Vec<usize> = again.buckets.iter().map(|c| c.numel).collect();
        assert_eq!(sizes, vec![6, 8, 1]);
    }

    #[test]
    fn tiny_buckets_match_one_whole_model_bucket_bitwise() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            let rank = ctx.rank();
            let make = |tag: &str| {
                let ps = vec![
                    param(&format!("{tag}.a"), vec![0.0; 3]),
                    param(&format!("{tag}.b"), vec![0.0; 5]),
                    param(&format!("{tag}.c"), vec![0.0; 2]),
                ];
                for (i, p) in ps.iter().enumerate() {
                    // Rank-dependent grads; rank 1 misses the middle param.
                    if !(rank == 1 && i == 1) {
                        let v: Vec<f32> = (0..p.numel())
                            .map(|j| (rank * 10 + i * 3 + j) as f32 * 0.7)
                            .collect();
                        let n = v.len();
                        p.set_grad(Some(Tensor::from_vec(v, [n]).unwrap()));
                    }
                }
                ps
            };
            let flat_ps = make("flat");
            let mut flat = GradBuckets::new(flat_ps.clone(), usize::MAX);
            flat.reduce_bucket_quoted(0, &mut ctx.comm);

            let bucket_ps = make("bucket");
            let mut rev = bucket_ps.clone();
            rev.reverse();
            let mut buckets = GradBuckets::new(rev, 12); // several tiny buckets
            for i in 0..buckets.num_buckets() {
                buckets.reduce_bucket_quoted(i, &mut ctx.comm);
            }
            let bits = |ps: &[Param]| -> Vec<u32> {
                ps.iter()
                    .flat_map(|p| p.grad().unwrap().to_vec())
                    .map(f32::to_bits)
                    .collect()
            };
            (bits(&flat_ps), bits(&bucket_ps))
        });
        for (flat, bucketed) in out {
            assert_eq!(flat, bucketed, "bucketing must not change a single bit");
        }
    }

    #[test]
    fn async_reduce_plus_apply_matches_the_quoted_path_bitwise() {
        let out = run_workers(2, ClusterTopology::polaris(), |mut ctx| {
            let rank = ctx.rank();
            let make = |tag: &str| {
                let ps = vec![
                    param(&format!("{tag}.a"), vec![0.0; 3]),
                    param(&format!("{tag}.b"), vec![0.0; 4]),
                ];
                for (i, p) in ps.iter().enumerate() {
                    let v: Vec<f32> = (0..p.numel())
                        .map(|j| (rank * 11 + i * 5 + j) as f32 * 0.3)
                        .collect();
                    let n = v.len();
                    p.set_grad(Some(Tensor::from_vec(v, [n]).unwrap()));
                }
                ps
            };
            let sync_ps = make("sync");
            let mut sync = GradBuckets::new(sync_ps.clone(), 12);
            for i in 0..sync.num_buckets() {
                sync.reduce_bucket_quoted(i, &mut ctx.comm);
            }

            let async_ps = make("async");
            let mut buckets = GradBuckets::new(async_ps.clone(), 12);
            let payloads: Vec<Vec<f32>> = (0..buckets.num_buckets())
                .map(|i| {
                    buckets.reduce_bucket_async(i, &mut ctx.comm);
                    buckets.bucket_payload(i).to_vec()
                })
                .collect();
            // Deferred application: drop the local grads (the engine does
            // this before settling) and apply the captured payloads.
            for p in &async_ps {
                p.zero_grad();
            }
            for (i, payload) in payloads.iter().enumerate() {
                buckets.apply_stale(i, payload);
            }
            let bits = |ps: &[Param]| -> Vec<u32> {
                ps.iter()
                    .flat_map(|p| p.grad().unwrap().to_vec())
                    .map(f32::to_bits)
                    .collect()
            };
            (bits(&sync_ps), bits(&async_ps))
        });
        for (sync, stale) in out {
            assert_eq!(sync, stale, "deferred apply must not change a bit");
        }
    }

    #[test]
    fn apply_stale_accumulates_same_bucket_payloads() {
        let p = param("w", vec![0.0; 2]);
        let mut b = GradBuckets::new(vec![p.clone()], 64);
        b.apply_stale(0, &[1.0, 2.0]);
        b.apply_stale(0, &[10.0, 20.0]);
        assert_eq!(
            p.grad().unwrap().to_vec(),
            vec![11.0, 22.0],
            "two deferred steps of one bucket must both land"
        );
    }

    #[test]
    fn fire_fractions_follow_the_completion_sequence() {
        let a = param("a", vec![0.0; 6]);
        let b = param("b", vec![0.0; 2]);
        let c = param("c", vec![0.0; 2]);
        // Buckets in firing order with a 16-byte cap: [c, b] then [a].
        let buckets = GradBuckets::new(vec![c.clone(), b.clone(), a.clone()], 16);
        assert_eq!(buckets.num_buckets(), 2);
        // Completion order c (2), b (2), a (6) of 10 total.
        let fr = buckets.fire_fractions(&[c.clone(), b.clone(), a.clone()]);
        assert_eq!(fr.len(), buckets.num_buckets());
        assert!((fr[0] - 0.4).abs() < 1e-12, "[c, b] fires once b is done");
        assert!((fr[1] - 1.0).abs() < 1e-12, "bucket gated by a fires last");
        // A param absent from the completion sequence never gates: with only
        // [c, b] completing, the a-bucket fires immediately.
        let fr2 = buckets.fire_fractions(&[c, b]);
        assert_eq!(fr2[1], 0.0, "a missing from completion never gates");
    }
}
