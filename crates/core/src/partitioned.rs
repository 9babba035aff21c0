//! Index-batching × graph partitioning (paper §7 future work).
//!
//! The conclusion proposes "the integration of index-batching with graph
//! partitioning, potentially yielding further speedups at a potential cost
//! to accuracy" — the Mallick et al. \[37\] regime, where each spatial
//! partition trains its own DCRNN on its subgraph (plus a halo of neighbor
//! nodes so boundary diffusion convolutions see real context).
//!
//! Combining the two is natural: each partition worker applies
//! index-batching to its **node-subset** signal, so the per-worker memory
//! is `(entries × local_nodes × features)` with no window duplication —
//! both savings compose multiplicatively. The trade-offs the paper warns
//! about surface explicitly here:
//!
//! - **accuracy**: edges cut by the partitioning ([`PartitionedResult::
//!   cut_fraction`]) remove spatial context the whole-graph model had;
//! - **replication**: halo nodes are duplicated across partitions
//!   ([`PartitionedResult::replication_factor`]);
//! - **speedup**: partitions train in parallel, so the critical path is
//!   the *largest* partition's per-epoch compute
//!   ([`PartitionedResult::parallel_flops_fraction`]).
//!
//! Training runs on [`crate::engine`] with one rank per partition, each an
//! **independent** model on the single-worker [`Trainer`](crate::Trainer)'s
//! plane: the engine's epoch loop drives every partition concurrently, and
//! validation runs once, after the last epoch, on owned nodes only.

use crate::dist_index::DistConfig;
use crate::engine::{self, EngineOptions};
use crate::index_batching::IndexDataset;
use crate::trainer::{SourcePlane, Validation};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::storage::StorageSpec;
use st_graph::{diffusion_supports, Adjacency, Partitioning};
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};

/// The partition models' diffusion steps K, and the halo depth in hops
/// that gives every boundary convolution its full receptive field.
const K: usize = 2;

/// Per-partition outcome.
#[derive(Debug)]
pub struct PartResult {
    /// Partition id.
    pub part: usize,
    /// Owned nodes.
    pub owned: usize,
    /// Halo nodes replicated into this partition.
    pub halo: usize,
    /// Validation MAE over **owned** nodes only, original units.
    pub val_mae: f32,
    /// Resident dataset bytes under index-batching (f32).
    pub resident_bytes: u64,
    /// Model forward FLOPs for one sample (drives the critical path).
    pub flops_per_sample: f64,
}

/// Outcome of a partitioned run plus the whole-graph quantities needed for
/// the ablation comparison.
#[derive(Debug)]
pub struct PartitionedResult {
    /// Per-partition results.
    pub parts: Vec<PartResult>,
    /// Validation MAE over all owned nodes (error-weighted combination).
    pub combined_val_mae: f32,
    /// Fraction of weighted edges cut by the partitioning.
    pub cut_fraction: f64,
    /// Modeled halo bytes of the split actually trained, under the run's
    /// [`st_graph::HaloCostModel`] (`cut_neighbors × (2·horizon − 1) ×
    /// row_bytes` over the training feature layout).
    pub modeled_halo_bytes: u64,
    /// Σ local nodes / N (feature duplication from halos).
    pub replication_factor: f64,
    /// `max_p flops_p / flops_whole`: the parallel critical path per epoch
    /// relative to whole-graph training (< 1 ⇒ speedup).
    pub parallel_flops_fraction: f64,
    /// Largest per-partition resident bytes (per-worker memory).
    pub max_resident_bytes: u64,
    /// Whole-graph resident bytes for the same signal (comparison point).
    pub whole_resident_bytes: u64,
}

/// Restrict a signal to a node subset (the per-partition feature copy),
/// written under `spec`.
///
/// This *is* a copy — exactly the replication cost partitioned training
/// pays for halo nodes, which [`PartitionedResult::replication_factor`]
/// quantifies.
pub fn node_subset_signal(
    signal: &StaticGraphTemporalSignal,
    nodes: &[usize],
    adjacency: st_graph::Adjacency,
    spec: StorageSpec,
) -> StaticGraphTemporalSignal {
    let select = |block: &st_tensor::Tensor| {
        block
            .permute(&[1, 0, 2])
            .expect("signal is [E, N, F]")
            .index_select0(nodes)
            .expect("node ids in range")
            .permute(&[1, 0, 2])
            .expect("back to [E, n, F]")
            .contiguous()
    };
    // A chunked source or target streams chunk by chunk, so the
    // per-partition copy never materializes the full signal.
    let storage = signal.storage.rewrite_rows(spec, |_, block| select(block));
    StaticGraphTemporalSignal::with_storage(storage, adjacency)
}

/// Run partitioned index-batching training: one PGT-DCRNN of width
/// `hidden` per part of `partitioning` (e.g. [`Partitioning::multilevel`],
/// the quality choice under the [`st_graph::HaloCostModel`]), all
/// partitions trained **concurrently** as engine ranks, each on its
/// halo-augmented node-subset signal, validated on its owned nodes only.
/// The part count comes from `partitioning`; `cfg.world` is not read.
pub fn run_partitioned(
    signal: &StaticGraphTemporalSignal,
    partitioning: &Partitioning,
    hidden: usize,
    cfg: &DistConfig,
) -> PartitionedResult {
    let spec = cfg.storage_for(signal);
    let subgraphs = partitioning.subgraphs(&signal.adjacency, K);
    let index = |s: &StaticGraphTemporalSignal| {
        let ratios = SplitRatios::default();
        IndexDataset::from_storage(&s.storage, cfg.horizon, ratios, cfg.time_period, spec)
    };

    // Whole-graph comparison quantities.
    let whole_ds = index(signal);
    let whole_model = build_model(&whole_ds, &signal.adjacency, hidden, cfg);
    let whole_flops = whole_model.flops_per_forward(1);
    let whole_resident_bytes = whole_ds.resident_bytes(4);

    // Empty parts (possible when `parts > n` — the partitioners document
    // it) own nothing, train nothing, and must not panic downstream: only
    // the non-empty parts become engine ranks.
    let active: Vec<usize> = (0..subgraphs.len())
        .filter(|&p| subgraphs[p].owned_count > 0)
        .collect();

    // Per-partition graphs and datasets, built once up front and borrowed
    // by the engine's per-rank planes.
    let locals: Vec<(Adjacency, IndexDataset)> = active
        .iter()
        .map(|&p| {
            let sub = &subgraphs[p];
            let adjacency = sub.adjacency.clone();
            let local_sig = node_subset_signal(signal, &sub.global_ids, adjacency, spec);
            let ds = index(&local_sig);
            (local_sig.adjacency, ds)
        })
        .collect();
    let dist_cfg = DistConfig {
        world: active.len(),
        ..cfg.clone()
    };

    // Per-partition forward FLOPs, captured from the models the engine
    // builds (so nothing is constructed twice just to size it).
    let part_flops = std::sync::Mutex::new(vec![0.0f64; active.len()]);
    let report = engine::run(
        &dist_cfg,
        &EngineOptions::default(),
        // Only the final numbers are read: one validation, after the last
        // epoch, on the nodes this partition owns.
        |rank, cm| {
            let owned = Some(subgraphs[active[rank]].owned_count);
            SourcePlane::new(&locals[rank].1, cfg, rank, cm, Validation::Last, owned)
        },
        |plane: &SourcePlane| {
            let (adjacency, ds) = &locals[plane.rank];
            let model = build_model(ds, adjacency, hidden, cfg);
            part_flops.lock().unwrap()[plane.rank] = model.flops_per_forward(1);
            Box::new(model) as Box<dyn Seq2Seq>
        },
    )
    .expect("engine run without resume cannot fail");
    let part_flops = part_flops.into_inner().unwrap();

    let mut parts = Vec::with_capacity(subgraphs.len());
    let mut abs_weighted = 0.0f64;
    let mut weight = 0.0f64;
    let mut max_flops = 0.0f64;
    let mut max_resident = 0u64;
    for (p, sub) in subgraphs.iter().enumerate() {
        let Some(rank) = active.iter().position(|&a| a == p) else {
            // An empty part trains no model and owns no validation nodes.
            parts.push(PartResult {
                part: p,
                owned: 0,
                halo: 0,
                val_mae: f32::NAN,
                resident_bytes: 0,
                flops_per_sample: 0.0,
            });
            continue;
        };
        let ds = &locals[rank].1;
        // Final-epoch local validation MAE under this partition's own
        // scaler (each partition fits one). An empty val split — or a
        // zero-epoch run, which never validates — is NaN, never a perfect
        // 0.0.
        let val_mae = report
            .rank_val_mae(rank, ds.scaler().std)
            .last()
            .copied()
            .unwrap_or(f32::NAN);
        let flops = part_flops[rank];
        let resident = ds.resident_bytes(4);
        max_flops = max_flops.max(flops);
        max_resident = max_resident.max(resident);
        let n_owned = sub.owned_count as f64;
        abs_weighted += val_mae as f64 * n_owned;
        weight += n_owned;
        parts.push(PartResult {
            part: sub.part,
            owned: sub.owned_count,
            halo: sub.halo_count(),
            val_mae,
            resident_bytes: resident,
            flops_per_sample: flops,
        });
    }

    let cost = st_graph::HaloCostModel::new(cfg.horizon, whole_ds.num_features());
    PartitionedResult {
        combined_val_mae: (abs_weighted / weight.max(1.0)) as f32,
        cut_fraction: partitioning.cut_fraction(&signal.adjacency),
        modeled_halo_bytes: cost.halo_bytes(&signal.adjacency, partitioning),
        replication_factor: partitioning.replication_factor(&signal.adjacency, K),
        parallel_flops_fraction: max_flops / whole_flops,
        max_resident_bytes: max_resident,
        whole_resident_bytes,
        parts,
    }
}

fn build_model(
    ds: &IndexDataset,
    adjacency: &Adjacency,
    hidden: usize,
    cfg: &DistConfig,
) -> PgtDcrnn {
    let supports = Support::wrap_all(diffusion_supports(adjacency, K));
    PgtDcrnn::new(
        ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden,
            num_nodes: ds.num_nodes(),
            horizon: cfg.horizon,
            diffusion_steps: K,
            layers: 1,
        },
        &supports,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::synthetic;
    use st_graph::PartitionerKind;
    use st_tensor::Tensor;

    fn signal() -> (DatasetSpec, StaticGraphTemporalSignal) {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.4);
        let sig = synthetic::generate(&spec, 11);
        (spec, sig)
    }

    /// A corridor network, where halos stay local (dense random-geometric
    /// toys make every 2-hop halo swallow the whole graph).
    fn corridor_signal() -> StaticGraphTemporalSignal {
        let net = st_graph::generators::highway_corridor(24, 1, 11);
        synthetic::traffic::generate(&net, 220, 288, 11)
    }

    /// The pre-engine reference: validation MAE restricted to the first
    /// `owned` nodes, original units, computed directly with a Trainer-
    /// trained model.
    fn owned_val_mae(model: &PgtDcrnn, ds: &IndexDataset, owned: usize, batch: usize) -> f32 {
        let ids: Vec<usize> = ds.splits().val.clone().collect();
        if ids.is_empty() {
            return f32::NAN;
        }
        let mut abs_sum = 0.0f64;
        let mut count = 0usize;
        for chunk in ids.chunks(batch.max(1)) {
            let (x, y) = ds.batch(chunk);
            let target: Tensor = y
                .narrow(3, 0, 1)
                .expect("output feature")
                .narrow(2, 0, owned)
                .expect("owned prefix")
                .contiguous();
            let tape = st_autograd::Tape::inference();
            let pred = model.forward(&tape, &x);
            let pred_owned = pred
                .value()
                .narrow(2, 0, owned)
                .expect("owned prefix")
                .contiguous();
            let diff = st_tensor::ops::sub(&pred_owned, &target).expect("same shape");
            abs_sum += st_tensor::ops::sum_abs(&diff);
            count += target.numel();
        }
        (abs_sum / count.max(1) as f64) as f32 * ds.scaler().std
    }

    #[test]
    fn node_subset_preserves_values() {
        let (_, sig) = signal();
        let nodes = vec![3usize, 0, 5];
        let adj = st_graph::partition::induced_subgraph(&sig.adjacency, &nodes);
        let sub = node_subset_signal(&sig, &nodes, adj, StorageSpec::InMemory);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.entries(), sig.entries());
        for (local, &global) in nodes.iter().enumerate() {
            for t in [0usize, 7, sig.entries() - 1] {
                assert_eq!(
                    sub.data().at(&[t, local, 0]),
                    sig.data().at(&[t, global, 0]),
                    "t={t} local={local} global={global}"
                );
            }
        }
    }

    #[test]
    fn partitioned_run_trains_and_reports_tradeoffs() {
        let sig = corridor_signal();
        let mut cfg = DistConfig::new(2, 2, 4);
        cfg.batch_per_worker = 4;
        let r = run_partitioned(&sig, &Partitioning::multilevel(&sig.adjacency, 2), 8, &cfg);
        assert_eq!(r.parts.len(), 2);
        assert!(r.combined_val_mae.is_finite());
        // The documented trade-off triangle:
        assert!(r.cut_fraction > 0.0, "a 2-way split must cut something");
        assert!(r.modeled_halo_bytes > 0, "cut neighbors must be priced");
        assert!(r.replication_factor >= 1.0);
        assert!(
            r.parallel_flops_fraction < 1.0,
            "parallel critical path must beat whole-graph: {}",
            r.parallel_flops_fraction
        );
        assert!(r.max_resident_bytes < r.whole_resident_bytes);
    }

    #[test]
    fn single_part_matches_whole_graph_training() {
        // k = 1 with no halo is exactly the unpartitioned pipeline.
        let (spec, sig) = signal();
        let mut cfg = DistConfig::new(1, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        let part = run_partitioned(&sig, &Partitioning::multilevel(&sig.adjacency, 1), 8, &cfg);
        assert_eq!(part.parts[0].halo, 0);
        assert!((part.replication_factor - 1.0).abs() < 1e-9);
        assert!((part.parallel_flops_fraction - 1.0).abs() < 1e-9);

        // Whole-graph reference with identical settings and seed.
        let ds = IndexDataset::from_signal(&sig, cfg.horizon, SplitRatios::default(), None);
        let model = build_model(&ds, &sig.adjacency, 8, &cfg);
        let trainer = Trainer {
            validate: false,
            ..Trainer::new(cfg.clone())
        };
        trainer.train(&model, &ds);
        let whole = owned_val_mae(&model, &ds, sig.num_nodes(), cfg.batch_per_worker);
        let diff = (part.combined_val_mae - whole).abs();
        assert!(
            diff < 1e-5 * whole.abs().max(1.0),
            "k=1 partitioned {} vs whole {}",
            part.combined_val_mae,
            whole
        );
    }

    #[test]
    fn more_parts_than_nodes_leaves_empty_parts_without_panicking() {
        // Regression: `k > n` yields empty parts (the partitioners
        // document it) — the runner must skip them, not panic in
        // node_subset_signal / IndexDataset / the engine.
        let net = st_graph::generators::highway_corridor(5, 1, 11);
        let sig = synthetic::traffic::generate(&net, 160, 288, 11);
        let mut cfg = DistConfig::new(7, 1, 4);
        cfg.batch_per_worker = 4;
        let r = run_partitioned(&sig, &Partitioning::multilevel(&sig.adjacency, 7), 8, &cfg);
        assert_eq!(r.parts.len(), 7);
        let empty: Vec<&PartResult> = r.parts.iter().filter(|p| p.owned == 0).collect();
        assert_eq!(empty.len(), 2, "7 parts over 5 nodes leaves 2 empty");
        for p in &empty {
            assert!(p.val_mae.is_nan(), "an empty part has no validation");
            assert_eq!(p.resident_bytes, 0);
            assert_eq!(p.halo, 0);
        }
        // Non-empty parts still train and combine.
        assert!(r.combined_val_mae.is_finite());
        assert!(r.parts.iter().filter(|p| p.owned > 0).count() == 5);
    }

    #[test]
    fn strategies_all_run() {
        let (spec, sig) = signal();
        let coords = st_graph::generators::random_geometric(sig.num_nodes(), 10.0, 5).coords;
        for partitioner in [
            PartitionerKind::Contiguous,
            PartitionerKind::CoordinateBisection,
            PartitionerKind::GreedyBfs,
            PartitionerKind::Multilevel,
        ] {
            let mut cfg = DistConfig::new(2, 1, spec.horizon);
            cfg.batch_per_worker = 4;
            let split = partitioner.partition(&sig.adjacency, Some(&coords), 2);
            let r = run_partitioned(&sig, &split, 8, &cfg);
            assert!(r.combined_val_mae.is_finite());
        }
    }

    #[test]
    fn memory_composes_with_index_batching() {
        // Partitioning divides the *entries × nodes* product; index-batching
        // removes the horizon blow-up. Per-worker bytes must be close to
        // (local_nodes / N) × whole-graph index bytes.
        let sig = corridor_signal();
        let cfg = DistConfig::new(2, 1, 4);
        let r = run_partitioned(&sig, &Partitioning::multilevel(&sig.adjacency, 2), 8, &cfg);
        for p in &r.parts {
            let local = p.owned + p.halo;
            let expected = r.whole_resident_bytes as f64 * local as f64 / sig.num_nodes() as f64;
            let ratio = p.resident_bytes as f64 / expected;
            assert!(
                (0.8..=1.3).contains(&ratio),
                "part {} resident {} vs expected {expected:.0}",
                p.part,
                p.resident_bytes
            );
        }
    }
}
