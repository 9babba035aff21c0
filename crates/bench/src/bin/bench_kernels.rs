//! Kernel-backend regression gate: tiled vs reference, pinned.
//!
//! Times the `st_tensor` compute backends against each other on the dense
//! kernels the DCRNN step is made of — square matmul, the seq2seq-unroll
//! shared-rhs bmm, and the fused `bias+σ/tanh` gate tail — then runs the
//! same PGT-DCRNN workload `ablation_overlap` drives (PemsBay scaled to
//! `DIST_SCALE`) end-to-end under each backend and compares wall time.
//!
//! Two claims are asserted in-binary so CI fails the build when a
//! regression lands:
//!
//! - the tiled backend is ≥ 1.5× the reference on 256×256×256 matmul;
//! - the tiled backend's end-to-end wall time beats the reference on the
//!   distributed training workload, with **bit-identical** losses.
//!
//! Results are emitted as `target/BENCH_kernels.json` next to the other
//! perf-trajectory artifacts. `--smoke` (or `PGT_SMOKE=1`) shrinks reps
//! for CI.

use pgt_index::dist_index::run_distributed_index;
use pgt_index::{DistConfig, EngineReport};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::synthetic;
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_report::table::Table;
use st_tensor::backend::{kernels_for, Activation, BackendKind, Kernels};
use st_tensor::random::{rng_from_seed, uniform};
use std::time::Instant;

struct Row {
    kernel: &'static str,
    size: String,
    ref_ns: f64,
    tiled_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_ns / self.tiled_ns
    }
}

/// Best-of-`reps` nanoseconds for one closure call.
fn best_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: backends disagree at element {i}: {x} vs {y}"
        );
    }
}

fn time_matmul(rows: &mut Vec<Row>, reps: usize, n: usize) {
    let mut rng = rng_from_seed(7);
    let a = uniform([n, n], -1.0, 1.0, &mut rng);
    let b = uniform([n, n], -1.0, 1.0, &mut rng);
    let (av, bv) = (a.to_vec(), b.to_vec());
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    // Kernels are called on zeroed buffers (the public ops' contract), so
    // each rep re-zeros; the fill is symmetric noise on both sides.
    let mut cr = vec![0.0f32; n * n];
    let mut ct = vec![0.0f32; n * n];
    let ref_ns = best_ns(reps, || {
        cr.fill(0.0);
        reference.matmul(&av, &bv, &mut cr, n, n, n)
    });
    let tiled_ns = best_ns(reps, || {
        ct.fill(0.0);
        tiled.matmul(&av, &bv, &mut ct, n, n, n)
    });
    assert_bits_equal(&cr, &ct, "matmul");
    rows.push(Row {
        kernel: "matmul",
        size: format!("{n}x{n}x{n}"),
        ref_ns,
        tiled_ns,
    });
}

fn time_bmm(rows: &mut Vec<Row>, reps: usize, bs: usize, m: usize, k: usize, n: usize) {
    // The seq2seq-unroll shape: a per-step [B, N, K·io] activation against
    // one shared [K·io, H] weight — packing amortizes across the batch.
    let mut rng = rng_from_seed(8);
    let a = uniform([bs, m, k], -1.0, 1.0, &mut rng);
    let b = uniform([k, n], -1.0, 1.0, &mut rng);
    let (av, bv) = (a.to_vec(), b.to_vec());
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    let mut cr = vec![0.0f32; bs * m * n];
    let mut ct = vec![0.0f32; bs * m * n];
    let ref_ns = best_ns(reps, || {
        cr.fill(0.0);
        reference.bmm(&av, &bv, &mut cr, bs, m, k, n, true)
    });
    let tiled_ns = best_ns(reps, || {
        ct.fill(0.0);
        tiled.bmm(&av, &bv, &mut ct, bs, m, k, n, true)
    });
    assert_bits_equal(&cr, &ct, "bmm");
    rows.push(Row {
        kernel: "bmm_shared_rhs",
        size: format!("{bs}x{m}x{k}x{n}"),
        ref_ns,
        tiled_ns,
    });
}

fn time_fused_gate(rows: &mut Vec<Row>, reps: usize, elems: usize, width: usize) {
    // The DCRNN gate tail: `z + bias` then σ, fused into one pass by the
    // tiled backend vs the reference's two materializing passes.
    let mut rng = rng_from_seed(9);
    let z = uniform([elems / width, width], -2.0, 2.0, &mut rng).to_vec();
    let bias = uniform([width], -0.5, 0.5, &mut rng).to_vec();
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    let mut yr = vec![0.0f32; z.len()];
    let mut yt = vec![0.0f32; z.len()];
    let ref_ns = best_ns(reps, || {
        reference.bias_act(&z, &bias, &mut yr, Activation::Sigmoid)
    });
    let tiled_ns = best_ns(reps, || {
        tiled.bias_act(&z, &bias, &mut yt, Activation::Sigmoid)
    });
    assert_bits_equal(&yr, &yt, "bias_act");
    rows.push(Row {
        kernel: "fused_gate",
        size: format!("{}x{width}", elems / width),
        ref_ns,
        tiled_ns,
    });
}

/// One end-to-end distributed run of the `ablation_overlap` workload under
/// `backend`, returning (wall seconds, per-epoch loss bits).
fn e2e_run(backend: BackendKind, epochs: usize, hidden: usize) -> (EngineReport, Vec<u32>) {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(st_bench::DIST_SCALE);
    let sig = synthetic::generate(&spec, st_bench::SEED);
    let mut cfg = DistConfig::new(2, epochs, spec.horizon);
    cfg.batch_per_worker = 8;
    cfg.backend = backend;
    let r = run_distributed_index(&sig, &cfg, |ds| {
        let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
        let mc = ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden,
            num_nodes: ds.num_nodes(),
            horizon: ds.horizon(),
            diffusion_steps: 2,
            layers: 1,
        };
        Box::new(PgtDcrnn::new(mc, &supports, st_bench::SEED)) as Box<dyn Seq2Seq>
    });
    let bits = r.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    (r, bits)
}

fn main() {
    let smoke = st_bench::smoke() || std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 3 } else { 7 };
    // Wide enough that every gate GEMM clears the tiled backend's
    // small-product fallback; the shapes stay the ablation's otherwise.
    let hidden = 32;
    let e2e_epochs = 1;
    let e2e_tries = if smoke { 2 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();
    for n in [64usize, 128, 256] {
        time_matmul(&mut rows, reps, n);
    }
    time_bmm(&mut rows, reps, 8, 325, 160, hidden);
    time_fused_gate(&mut rows, reps, 8 * 325 * hidden, hidden);

    // End-to-end: same workload, both backends, best-of-N wall time.
    // Losses must agree bit-for-bit — the backends differ only in speed.
    let mut ref_wall = f64::INFINITY;
    let mut tiled_wall = f64::INFINITY;
    let mut ref_bits: Option<Vec<u32>> = None;
    for _ in 0..e2e_tries {
        let (r, bits) = e2e_run(BackendKind::Reference, e2e_epochs, hidden);
        match &ref_bits {
            None => ref_bits = Some(bits),
            Some(prev) => assert_eq!(prev, &bits, "reference e2e must be deterministic"),
        }
        ref_wall = ref_wall.min(r.wall_secs);
        let (t, tbits) = e2e_run(BackendKind::Tiled, e2e_epochs, hidden);
        assert_eq!(
            ref_bits.as_ref().unwrap(),
            &tbits,
            "tiled e2e losses must be bit-identical to reference"
        );
        tiled_wall = tiled_wall.min(t.wall_secs);
    }
    let e2e_speedup = ref_wall / tiled_wall;

    let mut table = Table::new(
        "Kernel backends: tiled (default) vs reference, bitwise-identical outputs",
        &["kernel", "size", "ref µs", "tiled µs", "speedup"],
    );
    for r in &rows {
        table.row(&[
            r.kernel.to_string(),
            r.size.clone(),
            format!("{:.1}", r.ref_ns / 1e3),
            format!("{:.1}", r.tiled_ns / 1e3),
            format!("{:.2}×", r.speedup()),
        ]);
    }
    table.row(&[
        "e2e_dist_step".into(),
        format!("pems-bay@{}, h{hidden}, w2", st_bench::DIST_SCALE),
        format!("{:.1}", ref_wall * 1e9 / 1e3),
        format!("{:.1}", tiled_wall * 1e9 / 1e3),
        format!("{e2e_speedup:.2}×"),
    ]);
    println!("{}", table.to_text());

    // JSON artifact for the perf trajectory.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"size\": \"{}\", \"ref_ns\": {:.1}, \
                 \"tiled_ns\": {:.1}, \"speedup\": {:.4}}}",
                r.kernel,
                r.size,
                r.ref_ns,
                r.tiled_ns,
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"bench_kernels\",\n  \"smoke\": {},\n  \"rows\": [\n{}\n  ],\n  \
         \"e2e\": {{\"workload\": \"dist_index pems-bay@{} h{hidden} w2\", \
         \"ref_wall_s\": {:.6}, \"tiled_wall_s\": {:.6}, \"speedup\": {:.4}}}\n}}\n",
        smoke,
        json_rows.join(",\n"),
        st_bench::DIST_SCALE,
        ref_wall,
        tiled_wall,
        e2e_speedup
    );
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());

    // The pinned regression gates.
    let m256 = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.size == "256x256x256")
        .expect("256 matmul row");
    assert!(
        m256.speedup() >= 1.5,
        "tiled matmul@256 must be >= 1.5x reference, got {:.2}x",
        m256.speedup()
    );
    assert!(
        tiled_wall < ref_wall,
        "tiled backend must win end-to-end: tiled {tiled_wall:.3}s vs reference {ref_wall:.3}s"
    );
    println!(
        "Reading: the tiled backend packs B-panels once per (shared-rhs batched) \
         GEMM and walks 4x8 register tiles with the k-loop in reference order, so \
         every output bit matches the naive kernel while the cache behavior does \
         not. Fused gate tails collapse the reference's materializing passes into \
         one. Gates: matmul@256 >= 1.5x, e2e wall win with bit-identical losses."
    );
}
