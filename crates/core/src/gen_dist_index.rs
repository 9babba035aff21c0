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
use st_data::preprocess::num_snapshots;
use st_data::scaler::StandardScaler;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::{SplitIndices, SplitRatios};
use st_dist::datasvc::DistributedArray;
use st_dist::shuffle;
use st_models::Seq2Seq;
use std::ops::Range;
use std::sync::Arc;

/// The §5.4 data plane: a fixed entry partition plus halo, with batch-level
/// shuffling inside the partition and a data-plane ledger that only ever
/// records the setup halo reads.
pub struct HaloEntryPlane {
    /// Local dataset over the partition + halo entries, by *local* snapshot
    /// id (its own split ranges are unused: the plane drives ids itself).
    local: IndexDataset,
    /// This rank's global snapshot ids in the train split.
    train: Range<usize>,
    /// This rank's global snapshot ids in the validation split.
    val: Range<usize>,
    /// First global entry this rank holds: local id = global id − offset.
    entry_offset: usize,
    shared: Arc<DistributedArray>,
    rounds: usize,
    batch: usize,
    seed: u64,
    rank: usize,
    setup_secs: f64,
}

impl HaloEntryPlane {
    /// Build rank `rank`'s plane over the shared entry array: the
    /// standardized `[E, N·F]`-flattened signal, of which this rank reads
    /// its contiguous snapshot partition plus a halo of `2·horizon − 1`
    /// entries past its right edge. That read is the only remote traffic:
    /// its bytes are ledgered at once, and its modeled seconds are the
    /// plane's quoted setup transfer.
    ///
    /// The snapshot split is [`shuffle::contiguous_partition`]: the entry
    /// timeline is a uniform path graph, whose balanced optimum by any cut
    /// measure is the contiguous split.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shared: Arc<DistributedArray>,
        scaler: StandardScaler,
        nodes: usize,
        features: usize,
        split: &SplitIndices,
        cfg: &DistConfig,
        rank: usize,
        cost: &st_device::CostModel,
    ) -> Self {
        let horizon = cfg.horizon;
        let num_entries = shared.rows();
        let total_snaps = num_snapshots(num_entries, horizon);
        // Partition *snapshots* along the timeline; derive the entry range
        // + halo, and read it in one contiguous (mostly-local) quoted read.
        let snaps = shuffle::contiguous_partition(total_snaps, cfg.world, rank);
        let entry_end = (snaps.end + 2 * horizon - 1).min(num_entries);
        let (rows, setup_secs) = shared.fetch_range_quoted(rank, snaps.start..entry_end, cost);
        let local_entries = entry_end - snaps.start;
        let data = rows
            .reshape([local_entries, nodes, features])
            .expect("row size is nodes*features");
        let local = IndexDataset::from_standardized(
            data,
            horizon,
            scaler,
            SplitRatios::default().split(num_snapshots(local_entries, horizon)),
        );
        let inter = |a: &Range<usize>, b: &Range<usize>| {
            a.start.max(b.start)..a.end.min(b.end).max(a.start.max(b.start))
        };
        // Partitions intersected with the train split are ragged (a rank
        // owning only validation-era snapshots may have *zero* train
        // batches); all ranks agree on the max batch count analytically,
        // from the same split as the data.
        let rounds = shuffle::common_rounds(
            (0..cfg.world).map(|r| {
                let snaps = shuffle::contiguous_partition(total_snaps, cfg.world, r);
                shuffle::range_overlap(&snaps, &split.train)
            }),
            cfg.batch_per_worker,
        );
        HaloEntryPlane {
            local,
            train: inter(&snaps, &split.train),
            val: inter(&snaps, &split.val),
            entry_offset: snaps.start,
            shared,
            rounds,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
            rank,
            setup_secs,
        }
    }

    /// The worker's local dataset (model factories derive dims from it).
    pub fn dataset(&self) -> &IndexDataset {
        &self.local
    }
}

impl DistDataPlane for HaloEntryPlane {
    fn rounds_per_epoch(&self) -> usize {
        self.rounds
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        engine::batch_order_plan(
            self.train.clone().collect(),
            self.rank,
            self.seed,
            epoch,
            self.batch,
        )
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(self.val.clone().collect(), self.batch)
    }

    /// A batch by **global** snapshot ids, which must lie in this partition.
    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let local: Vec<usize> = ids
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
        let (x, y) = self.local.batch(&local);
        Fetch { x, y, secs: 0.0 }
    }

    fn setup_secs(&self) -> f64 {
        self.setup_secs
    }

    fn remote(&self) -> bool {
        true
    }

    fn scaler_std(&self) -> f32 {
        self.local.scaler().std
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
    let full = IndexDataset::from_storage(
        &signal.storage,
        cfg.horizon,
        SplitRatios::default(),
        cfg.time_period,
        cfg.storage_for(signal),
    );
    let (nodes, features) = (full.num_nodes(), full.num_features());
    let scaler = full.scaler().clone();
    let split = full.splits().clone();
    // The shared entry array reuses the dataset's standardized storage
    // directly ([E, N, F] rows are already `nodes * features` scalars wide);
    // under [`st_data::StorageSpec::Chunked`] this is the out-of-core store
    // itself, so no rank ever holds the dense entry matrix.
    let shared = DistributedArray::with_storage(full.storage().clone(), cfg.world, cfg.topology, 4);

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
        let cfg = DistConfig::new(3, 1, spec.horizon);
        for rank in 0..3 {
            let plane = HaloEntryPlane::new(
                shared.clone(),
                full.scaler().clone(),
                full.num_nodes(),
                full.num_features(),
                full.splits(),
                &cfg,
                rank,
                &cm,
            );
            // Every boundary-adjacent snapshot must match the full copy.
            for g in [plane.train.start, plane.train.end.saturating_sub(1)] {
                if !plane.train.contains(&g) {
                    continue;
                }
                let Fetch { x: bx, y: by, .. } = plane.fetch_batch(&[g]);
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
