//! Generalized-distributed-index-batching (§5.4): larger-than-memory mode.
//!
//! When no worker can hold the full dataset, the single standardized copy is
//! partitioned by **entries** across workers. Worker `r` owns a contiguous
//! entry range and additionally reads a *halo* of `2·horizon − 1` entries
//! past its right edge (one contiguous remote read at setup), after which it
//! can reconstruct every snapshot whose window starts in its range without
//! further communication. Shuffling is **batch-level within the partition**
//! (Table 5 shows this costs no accuracy versus global shuffling), so epochs
//! stay communication-free on the data plane — versus baseline DDP whose
//! globally-shuffled fetches touch remote partitions every batch (Fig. 9).
//!
//! The epoch loop lives in [`crate::engine`]; this module contributes
//! [`HaloEntryPlane`], whose only quoted transfer is the setup halo read —
//! under [`DistConfig::prefetch`] the engine overlaps that read with early
//! compute instead of paying it up front.

use crate::dist_index::DistConfig;
use crate::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch};
use crate::index_batching::IndexDataset;
use st_data::scaler::StandardScaler;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_dist::datasvc::DistributedArray;
use st_dist::shuffle;
use st_models::Seq2Seq;
use std::sync::Arc;

/// A worker's slice of the generalized dataset: its entry partition plus
/// halo, re-wrapped as a local [`IndexDataset`] over *local* snapshot ids.
pub struct GenPartition {
    /// Local dataset over the partition + halo entries.
    pub local: IndexDataset,
    /// Global snapshot ids covered by this partition (train split only).
    pub global_train_ids: std::ops::Range<usize>,
    /// Global snapshot ids covered by this partition (validation split).
    pub global_val_ids: std::ops::Range<usize>,
    /// First global entry owned by this worker.
    pub entry_offset: usize,
}

/// Build worker `rank`'s partition from the shared entry array.
///
/// `entries_array` is the standardized `[E, N·F]`-flattened signal wrapped
/// in a [`DistributedArray`]; the halo read past the partition boundary is
/// the only remote traffic. Its bytes are ledgered immediately, but its
/// modeled seconds come back **quoted** so the caller (the engine) decides
/// whether to pay them up front or hide them behind compute.
///
/// The snapshot split is [`shuffle::contiguous_partition`]: the entry
/// timeline is a uniform path graph, whose balanced optimum by any cut
/// measure is the contiguous split.
#[allow(clippy::too_many_arguments)]
pub fn build_partition(
    entries_array: &DistributedArray,
    scaler: StandardScaler,
    nodes: usize,
    features: usize,
    horizon: usize,
    world: usize,
    rank: usize,
    snapshot_split: &st_data::splits::SplitIndices,
    cost: &st_device::CostModel,
) -> (GenPartition, f64) {
    let num_entries = entries_array.rows();
    let total_snaps = st_data::preprocess::num_snapshots(num_entries, horizon);

    // Partition *snapshots* along the timeline; derive the entry range +
    // halo.
    let snap_range = shuffle::contiguous_partition(total_snaps, world, rank);
    let entry_start = snap_range.start;
    let entry_end = (snap_range.end + 2 * horizon - 1).min(num_entries);

    // One contiguous (mostly-local + halo) read, quoted.
    let (rows, setup_secs) = entries_array.fetch_range_quoted(rank, entry_start..entry_end, cost);
    let local_entries = entry_end - entry_start;
    let data = rows
        .reshape([local_entries, nodes, features])
        .expect("row size is nodes*features");

    // Local split bookkeeping: which of my snapshots are train/val.
    let inter = |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| {
        a.start.max(b.start)..a.end.min(b.end).max(a.start.max(b.start))
    };
    let train = inter(&snap_range, &snapshot_split.train);
    let val = inter(&snap_range, &snapshot_split.val);

    // Local ids are global ids minus the entry offset; the local dataset's
    // own split ranges are unused (we drive ids explicitly).
    let local = IndexDataset::from_standardized(
        data,
        horizon,
        scaler,
        SplitRatios::default().split(st_data::preprocess::num_snapshots(local_entries, horizon)),
    );
    (
        GenPartition {
            local,
            global_train_ids: train,
            global_val_ids: val,
            entry_offset: entry_start,
        },
        setup_secs,
    )
}

impl GenPartition {
    /// Fetch a batch by **global** snapshot ids (must lie in this partition).
    pub fn batch_global(&self, global_ids: &[usize]) -> (st_tensor::Tensor, st_tensor::Tensor) {
        let local: Vec<usize> = global_ids
            .iter()
            .map(|&g| {
                assert!(
                    g >= self.entry_offset,
                    "snapshot {g} not in partition starting at {}",
                    self.entry_offset
                );
                g - self.entry_offset
            })
            .collect();
        self.local.batch(&local)
    }
}

/// The §5.4 data plane: a fixed entry partition plus halo, with batch-level
/// shuffling inside the partition and a data-plane ledger that only ever
/// records the setup halo reads.
pub struct HaloEntryPlane {
    part: GenPartition,
    shared: Arc<DistributedArray>,
    scaler_std: f32,
    rounds: usize,
    batch: usize,
    seed: u64,
    rank: usize,
    setup_secs: f64,
}

impl HaloEntryPlane {
    /// Build rank `rank`'s plane over the shared entry array.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shared: Arc<DistributedArray>,
        scaler: StandardScaler,
        nodes: usize,
        features: usize,
        split: &st_data::splits::SplitIndices,
        cfg: &DistConfig,
        rank: usize,
        cost: &st_device::CostModel,
    ) -> Self {
        let scaler_std = scaler.std;
        let (part, setup_secs) = build_partition(
            &shared,
            scaler,
            nodes,
            features,
            cfg.horizon,
            cfg.world,
            rank,
            split,
            cost,
        );
        // Partitions intersected with the train split are ragged (a rank
        // owning only validation-era snapshots may have *zero* train
        // batches); all ranks agree on the max batch count analytically,
        // from the same split as the data.
        let total_snaps = st_data::preprocess::num_snapshots(shared.rows(), cfg.horizon);
        let rounds = shuffle::common_rounds(
            (0..cfg.world).map(|r| {
                let snaps = shuffle::contiguous_partition(total_snaps, cfg.world, r);
                shuffle::range_overlap(&snaps, &split.train)
            }),
            cfg.batch_per_worker,
        );
        HaloEntryPlane {
            part,
            shared,
            scaler_std,
            rounds,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
            rank,
            setup_secs,
        }
    }

    /// The worker's local dataset (model factories derive dims from it).
    pub fn dataset(&self) -> &IndexDataset {
        &self.part.local
    }

    /// The underlying partition.
    pub fn partition(&self) -> &GenPartition {
        &self.part
    }
}

impl DistDataPlane for HaloEntryPlane {
    fn rounds_per_epoch(&self) -> usize {
        self.rounds
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        // Batch-level shuffling: fixed batch contents, shuffled order.
        let train_ids: Vec<usize> = self.part.global_train_ids.clone().collect();
        let num_batches = train_ids.len().div_ceil(self.batch.max(1));
        shuffle::batch_order_shuffle(num_batches, self.seed, self.rank, epoch)
            .into_iter()
            .filter_map(|b| {
                let lo = b * self.batch;
                let hi = ((b + 1) * self.batch).min(train_ids.len());
                (lo < hi).then(|| train_ids[lo..hi].to_vec())
            })
            .collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(self.part.global_val_ids.clone().collect(), self.batch)
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y) = self.part.batch_global(ids);
        Fetch { x, y, secs: 0.0 }
    }

    fn setup_secs(&self) -> f64 {
        self.setup_secs
    }

    fn remote(&self) -> bool {
        true
    }

    fn scaler_std(&self) -> f32 {
        self.scaler_std
    }

    fn ledger_bytes(&self) -> u64 {
        self.shared.remote_bytes()
    }
}

/// Run generalized-distributed-index-batching.
pub fn run_generalized<F>(
    signal: &StaticGraphTemporalSignal,
    cfg: &DistConfig,
    model_factory: F,
) -> EngineReport
where
    F: Fn(&IndexDataset) -> Box<dyn Seq2Seq> + Sync,
{
    // Standardize once (the paper's generalized mode preprocesses
    // distributedly; the single-copy standardization is the index-batching
    // part, and the DistributedArray below is the partitioning part).
    let augmented;
    let sig = match cfg.time_period {
        Some(p) => {
            augmented = signal.with_time_feature(p);
            &augmented
        }
        None => signal,
    };
    let sig = crate::dist_index::stored_as(sig, cfg.storage);
    let full = IndexDataset::from_signal(&sig, cfg.horizon, SplitRatios::default(), None);
    let (nodes, features) = (full.num_nodes(), full.num_features());
    let scaler = full.scaler().clone();
    let split = full.splits().clone();
    // The shared entry array reuses the dataset's standardized storage
    // directly ([E, N, F] rows are already `nodes * features` scalars wide);
    // under [`st_data::StorageSpec::Chunked`] this is the out-of-core store
    // itself, so no rank ever holds the dense entry matrix.
    let shared = DistributedArray::with_storage(
        full.storage().clone(),
        cfg.world,
        cfg.topology,
        4,
        st_dist::datasvc::PartitionPolicy::Contiguous,
    );

    engine::run(
        cfg,
        &EngineOptions::default(),
        |rank, cm| {
            HaloEntryPlane::new(
                shared.clone(),
                scaler.clone(),
                nodes,
                features,
                &split,
                cfg,
                rank,
                cm,
            )
        },
        |plane: &HaloEntryPlane| model_factory(plane.dataset()),
    )
    .expect("engine run without resume cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::synthetic;
    use st_dist::topology::ClusterTopology;
    use st_graph::diffusion_supports;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn setup() -> (DatasetSpec, StaticGraphTemporalSignal) {
        let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.012);
        let sig = synthetic::generate(&spec, 31);
        (spec, sig)
    }

    fn factory(
        sig: &StaticGraphTemporalSignal,
        horizon: usize,
    ) -> impl Fn(&IndexDataset) -> Box<dyn Seq2Seq> + Sync + '_ {
        move |ds: &IndexDataset| {
            let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
            let mc = ModelConfig {
                input_dim: ds.num_features(),
                output_dim: 1,
                hidden: 8,
                num_nodes: ds.num_nodes(),
                horizon,
                diffusion_steps: 2,
                layers: 1,
            };
            Box::new(PgtDcrnn::new(mc, &supports, 42))
        }
    }

    #[test]
    fn partition_reconstruction_matches_single_copy() {
        // The halo-window property test from DESIGN.md: snapshots built
        // from partition+halo equal snapshots from the full single copy.
        let (spec, sig) = setup();
        let sig_aug = sig.with_time_feature(spec.period);
        let full = IndexDataset::from_signal(&sig_aug, spec.horizon, SplitRatios::default(), None);
        let entries = full
            .data()
            .reshape([sig.entries(), full.num_nodes() * full.num_features()])
            .unwrap();
        let shared = DistributedArray::new(entries, 3, ClusterTopology::polaris(), 4);
        let cm = st_device::CostModel::polaris();
        for rank in 0..3 {
            let (part, _) = build_partition(
                &shared,
                full.scaler().clone(),
                full.num_nodes(),
                full.num_features(),
                spec.horizon,
                3,
                rank,
                full.splits(),
                &cm,
            );
            // Every boundary-adjacent snapshot must match the full copy.
            for g in [
                part.global_train_ids.start,
                part.global_train_ids.end.saturating_sub(1),
            ] {
                if !part.global_train_ids.contains(&g) {
                    continue;
                }
                let (bx, by) = part.batch_global(&[g]);
                let (fx, fy) = full.snapshot(g);
                assert_eq!(
                    bx.select(0, 0).unwrap().to_vec(),
                    fx.to_vec(),
                    "rank {rank} snapshot {g} x mismatch"
                );
                assert_eq!(
                    by.select(0, 0).unwrap().to_vec(),
                    fy.to_vec(),
                    "rank {rank} snapshot {g} y mismatch"
                );
            }
        }
    }

    #[test]
    fn generalized_run_trains() {
        let (spec, sig) = setup();
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.time_period = Some(spec.period);
        let r = run_generalized(&sig, &cfg, factory(&sig, spec.horizon));
        assert_eq!(r.epochs.len(), 2);
        let first = r.epochs.first().unwrap().train_loss;
        let last = r.epochs.last().unwrap().train_loss;
        assert!(
            last <= first * 1.1,
            "loss roughly non-increasing: {first} -> {last}"
        );
    }

    #[test]
    fn data_plane_is_halo_only() {
        // Unlike baseline DDP, per-epoch traffic must not grow with epochs:
        // the only data-plane bytes are the setup halo reads.
        let (spec, sig) = setup();
        let mut cfg1 = DistConfig::new(2, 1, spec.horizon);
        cfg1.batch_per_worker = 4;
        cfg1.time_period = Some(spec.period);
        let mut cfg3 = cfg1.clone();
        cfg3.epochs = 3;
        let one = run_generalized(&sig, &cfg1, factory(&sig, spec.horizon));
        let three = run_generalized(&sig, &cfg3, factory(&sig, spec.horizon));
        // Gradient traffic triples, but data-plane (halo) bytes are fixed;
        // total for 3 epochs must be far below 3× the 1-epoch total would
        // be if data were refetched every epoch like baseline DDP.
        assert!(three.bytes_moved < 4 * one.bytes_moved);
        assert_eq!(
            one.data_plane_bytes, three.data_plane_bytes,
            "halo reads are setup-only"
        );
    }

    #[test]
    fn prefetch_overlaps_the_halo_read() {
        // §7 prefetching on the generalized plane: the setup halo read is
        // issued asynchronously and hidden behind early compute, so total
        // simulated time drops while ledger bytes stay identical.
        let (spec, sig) = setup();
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.time_period = Some(spec.period);
        let sync = run_generalized(&sig, &cfg, factory(&sig, spec.horizon));
        cfg.prefetch = true;
        let pf = run_generalized(&sig, &cfg, factory(&sig, spec.horizon));
        assert!(
            pf.sim_total_secs < sync.sim_total_secs,
            "prefetch total {} s must beat sync {} s",
            pf.sim_total_secs,
            sync.sim_total_secs
        );
        assert_eq!(pf.data_plane_bytes, sync.data_plane_bytes);
        for (a, b) in pf.epochs.iter().zip(sync.epochs.iter()) {
            assert_eq!(
                a.train_loss, b.train_loss,
                "prefetching must not change learning"
            );
        }
    }
}
