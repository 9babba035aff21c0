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
//! Training runs on [`crate::engine`] with one rank per partition and
//! **independent** models (`sync_gradients = false`): the engine's epoch
//! loop drives every partition concurrently, and validation is restricted
//! to owned nodes through [`crate::engine::DistDataPlane::val_views`].

use crate::engine::{self, DistDataPlane, EngineOptions, Fetch};
use crate::index_batching::IndexDataset;
use st_data::loader::Batcher;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_dist::topology::ClusterTopology;
use st_graph::{diffusion_supports, PartitionerKind};
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_tensor::Tensor;

/// Configuration of a partitioned training run.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Number of partitions (one model per partition).
    pub parts: usize,
    /// Halo depth in hops; should be ≥ the model's diffusion steps K so
    /// boundary convolutions see their full receptive field.
    pub halo_depth: usize,
    /// The partitioner that splits the graph across partition workers
    /// (multilevel by default, the quality choice under the
    /// [`st_graph::HaloCostModel`]).
    pub partitioner: PartitionerKind,
    /// Training epochs per partition model.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Hidden width of each partition model.
    pub hidden: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Optional time-of-day augmentation period.
    pub time_period: Option<usize>,
    /// Shared seed.
    pub seed: u64,
    /// Signal storage backend. Under [`st_data::StorageSpec::Chunked`] every
    /// per-partition node-subset copy is read window by window from its
    /// own spill file instead of living in RAM.
    pub storage: st_data::StorageSpec,
}

impl PartitionedConfig {
    /// Reasonable defaults for a measured run.
    pub fn new(parts: usize, horizon: usize) -> Self {
        PartitionedConfig {
            parts,
            halo_depth: 2,
            partitioner: PartitionerKind::Multilevel,
            epochs: 3,
            batch_size: 8,
            lr: 1e-2,
            hidden: 8,
            horizon,
            time_period: None,
            seed: 42,
            storage: st_data::StorageSpec::InMemory,
        }
    }
}

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

/// Restrict a signal to a node subset (the per-partition feature copy).
///
/// This *is* a copy — exactly the replication cost partitioned training
/// pays for halo nodes, which [`PartitionedResult::replication_factor`]
/// quantifies.
pub fn node_subset_signal(
    signal: &StaticGraphTemporalSignal,
    nodes: &[usize],
    adjacency: st_graph::Adjacency,
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
    // A chunked signal streams chunk by chunk, so the per-partition copy
    // never materializes the full signal.
    let storage = signal
        .storage
        .rewrite_rows(signal.storage.spec(), |_, block| select(block));
    StaticGraphTemporalSignal::with_storage(storage, adjacency)
}

/// The §7 partitioned data plane: one rank per graph partition, each with
/// an index-batched dataset over its halo-augmented node subset and an
/// **independent** model (no gradient synchronization). Validation is
/// narrowed to owned nodes so halo duplicates are never double-counted.
pub struct PartitionedPlane {
    ds: IndexDataset,
    owned: usize,
    batch: usize,
    seed: u64,
    rank: usize,
    cost: st_device::CostModel,
}

impl PartitionedPlane {
    /// Wrap a partition's dataset; `owned` is the count of nodes this
    /// partition owns (its nodes are ordered owned-first), `rank` the
    /// partition/worker index. `cm` prices chunk IO when the dataset is
    /// backed by out-of-core storage.
    pub fn new(
        ds: IndexDataset,
        owned: usize,
        batch: usize,
        seed: u64,
        rank: usize,
        cm: &st_device::CostModel,
    ) -> Self {
        PartitionedPlane {
            ds,
            owned,
            batch,
            seed,
            rank,
            cost: cm.clone(),
        }
    }

    /// The partition's dataset.
    pub fn dataset(&self) -> &IndexDataset {
        &self.ds
    }

    /// The partition (= engine rank) this plane belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl DistDataPlane for PartitionedPlane {
    fn rounds_per_epoch(&self) -> usize {
        self.ds.splits().train.len().div_ceil(self.batch.max(1))
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let ids: Vec<usize> = self.ds.splits().train.clone().collect();
        let batcher = Batcher::shuffled(ids, self.batch, self.seed, epoch);
        batcher.batches().map(|b| b.to_vec()).collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(self.ds.splits().val.clone().collect(), self.batch)
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y, io_bytes) = self.ds.batch_quoted(ids);
        Fetch::from_store(x, y, io_bytes, &self.cost)
    }

    fn remote(&self) -> bool {
        // Chunked partitions pay modeled disk time per batch; report remote
        // so the engine's prefetcher overlaps it with compute.
        self.ds.is_chunked()
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn validate_epoch(&self, epoch: u64, epochs: u64) -> bool {
        // Only the final numbers are consumed (per-partition MAE from the
        // last rank-val entry), matching the pre-engine runner's single
        // post-training validation — intermediate epochs skip it.
        epoch + 1 == epochs
    }

    fn scaler_std(&self) -> f32 {
        self.ds.scaler().std
    }

    fn val_views(&self, pred: Tensor, target: Tensor) -> (Tensor, Tensor) {
        let p = pred
            .narrow(2, 0, self.owned)
            .expect("owned prefix")
            .contiguous();
        let t = target
            .narrow(2, 0, self.owned)
            .expect("owned prefix")
            .contiguous();
        (p, t)
    }
}

/// Run partitioned index-batching training: one PGT-DCRNN per partition,
/// all partitions trained **concurrently** as engine ranks, each on its
/// halo-augmented node-subset signal, validated on its owned nodes only.
/// `coords` (one per node) are what [`PartitionerKind::CoordinateBisection`]
/// splits on; without them it falls back to region growing.
pub fn run_partitioned(
    signal: &StaticGraphTemporalSignal,
    coords: Option<&[(f32, f32)]>,
    cfg: &PartitionedConfig,
) -> PartitionedResult {
    let signal = &*crate::dist_index::stored_as(signal, cfg.storage);
    let mut dist_cfg = crate::dist_index::DistConfig::new(cfg.parts, cfg.epochs, cfg.horizon);
    dist_cfg.batch_per_worker = cfg.batch_size;
    dist_cfg.lr = cfg.lr;
    dist_cfg.seed = cfg.seed;
    dist_cfg.grad_clip = Some(5.0);
    dist_cfg.time_period = cfg.time_period;
    dist_cfg.topology = ClusterTopology::polaris();
    if let Some(c) = coords {
        assert_eq!(c.len(), signal.num_nodes(), "one coordinate per node");
    }
    let partitioning = cfg
        .partitioner
        .partition(&signal.adjacency, coords, cfg.parts);
    let subgraphs = partitioning.subgraphs(&signal.adjacency, cfg.halo_depth);

    // Whole-graph comparison quantities.
    let whole_ds =
        IndexDataset::from_signal(signal, cfg.horizon, SplitRatios::default(), cfg.time_period);
    let whole_model = build_model(&whole_ds, signal, cfg);
    let whole_flops = whole_model.flops_per_forward(1);
    let whole_resident_bytes = whole_ds.resident_bytes(4);

    // Empty parts (possible when `parts > n` — the partitioners document
    // it) own nothing, train nothing, and must not panic downstream: only
    // the non-empty parts become engine ranks.
    let active: Vec<usize> = (0..cfg.parts)
        .filter(|&p| subgraphs[p].owned_count > 0)
        .collect();

    // Per-partition signals and datasets, built once up front (tensor
    // storage is shared, so the engine's per-rank planes clone in O(1)).
    let locals: Vec<(StaticGraphTemporalSignal, IndexDataset)> = active
        .iter()
        .map(|&p| {
            let sub = &subgraphs[p];
            let local_sig = node_subset_signal(signal, &sub.global_ids, sub.adjacency.clone());
            let ds = IndexDataset::from_signal(
                &local_sig,
                cfg.horizon,
                SplitRatios::default(),
                cfg.time_period,
            );
            (local_sig, ds)
        })
        .collect();
    dist_cfg.world = active.len();

    // Per-partition forward FLOPs, captured from the models the engine
    // builds (so nothing is constructed twice just to size it).
    let part_flops = std::sync::Mutex::new(vec![0.0f64; active.len()]);
    let report = engine::run(
        &dist_cfg,
        &EngineOptions::default(),
        |rank, cm| {
            PartitionedPlane::new(
                locals[rank].1.clone(),
                subgraphs[active[rank]].owned_count,
                cfg.batch_size,
                cfg.seed,
                rank,
                cm,
            )
        },
        |plane: &PartitionedPlane| {
            let model = build_model(plane.dataset(), &locals[plane.rank()].0, cfg);
            part_flops.lock().unwrap()[plane.rank()] = model.flops_per_forward(1);
            Box::new(model) as Box<dyn Seq2Seq>
        },
    )
    .expect("engine run without resume cannot fail");
    let part_flops = part_flops.into_inner().unwrap();

    let mut parts = Vec::with_capacity(cfg.parts);
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
        modeled_halo_bytes: cost.halo_bytes(&signal.adjacency, &partitioning),
        replication_factor: partitioning.replication_factor(&signal.adjacency, cfg.halo_depth),
        parallel_flops_fraction: max_flops / whole_flops,
        max_resident_bytes: max_resident,
        whole_resident_bytes,
        parts,
    }
}

fn build_model(
    ds: &IndexDataset,
    sig: &StaticGraphTemporalSignal,
    cfg: &PartitionedConfig,
) -> PgtDcrnn {
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    PgtDcrnn::new(
        ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden: cfg.hidden,
            num_nodes: ds.num_nodes(),
            horizon: cfg.horizon,
            diffusion_steps: 2,
            layers: 1,
        },
        &supports,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{Trainer, TrainerConfig};
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::synthetic;

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
            let tape = st_autograd::Tape::new();
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
        let sub = node_subset_signal(&sig, &nodes, adj);
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
        let mut cfg = PartitionedConfig::new(2, 4);
        cfg.epochs = 2;
        cfg.batch_size = 4;
        let r = run_partitioned(&sig, None, &cfg);
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
        let mut cfg = PartitionedConfig::new(1, spec.horizon);
        cfg.epochs = 2;
        cfg.batch_size = 4;
        let part = run_partitioned(&sig, None, &cfg);
        assert_eq!(part.parts[0].halo, 0);
        assert!((part.replication_factor - 1.0).abs() < 1e-9);
        assert!((part.parallel_flops_fraction - 1.0).abs() < 1e-9);

        // Whole-graph reference with identical settings and seed.
        let ds = IndexDataset::from_signal(&sig, cfg.horizon, SplitRatios::default(), None);
        let model = build_model(&ds, &sig, &cfg);
        let trainer = Trainer::new(TrainerConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            seed: cfg.seed,
            validate: false,
            grad_clip: Some(5.0),
        });
        trainer.train(&model, &ds);
        let whole = owned_val_mae(&model, &ds, sig.num_nodes(), cfg.batch_size);
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
        let mut cfg = PartitionedConfig::new(7, 4);
        cfg.epochs = 1;
        cfg.batch_size = 4;
        cfg.halo_depth = 1;
        let r = run_partitioned(&sig, None, &cfg);
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
            let mut cfg = PartitionedConfig::new(2, spec.horizon);
            cfg.epochs = 1;
            cfg.batch_size = 4;
            cfg.partitioner = partitioner;
            let r = run_partitioned(&sig, Some(&coords), &cfg);
            assert!(r.combined_val_mae.is_finite());
        }
    }

    #[test]
    fn memory_composes_with_index_batching() {
        // Partitioning divides the *entries × nodes* product; index-batching
        // removes the horizon blow-up. Per-worker bytes must be close to
        // (local_nodes / N) × whole-graph index bytes.
        let sig = corridor_signal();
        let mut cfg = PartitionedConfig::new(2, 4);
        cfg.epochs = 1;
        cfg.halo_depth = 1;
        let r = run_partitioned(&sig, None, &cfg);
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
