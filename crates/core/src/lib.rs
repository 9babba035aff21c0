//! # pgt-index — the PGT-I core library
//!
//! This crate implements the paper's contribution:
//!
//! - [`memory_model`] — the analytic size formulas: eq. (1) for standard
//!   sliding-window preprocessing and eq. (2) for index-batching, plus the
//!   stage-by-stage data-growth breakdown of Fig. 3.
//! - [`index_batching`] — [`index_batching::IndexDataset`]: one copy of the
//!   standardized data + an array of window-start indices; snapshots are
//!   reconstructed at runtime as zero-copy views (Fig. 4).
//! - [`gpu_index`] — GPU-index-batching: a single consolidated host→device
//!   transfer up front, then a fully device-resident workflow (§4.1).
//! - [`engine`] — the **single** distributed epoch loop behind every
//!   training mode: a [`engine::DistDataPlane`] supplies the epoch plan,
//!   quoted batch fetches, and traffic ledger, while the engine owns
//!   forward/backward, bucketed gradient sync, prefetch overlap,
//!   rank-order metric reductions, and checkpoint capture/resume, and
//!   reports every run as one [`engine::EngineReport`].
//! - [`trainer`] — the single-worker front end: [`trainer::BatchSource`]
//!   and a [`trainer::Trainer`] that runs the engine as a world of one
//!   over any source and reports per-epoch metrics.
//! - [`dist_index`] — distributed-index-batching: full per-worker copies,
//!   communication-free global shuffling, DDP gradient averaging (§4.2)
//!   — the engine's [`dist_index::LocalCopyPlane`].
//! - [`baseline_ddp`] — the Dask-style baseline DDP the paper compares
//!   against: partitioned data with on-demand batch communication (§5)
//!   — [`baseline_ddp::DataSvcPlane`].
//! - [`gen_dist_index`] — generalized-distributed-index-batching for
//!   larger-than-memory datasets: fixed partitions + halo windows +
//!   batch-level shuffling (§5.4) — [`gen_dist_index::HaloEntryPlane`].
//! - [`dynamic_index`] — §7 future work: index-batching over dynamic
//!   graphs with temporal signal (per-entry diffusion supports shared
//!   across overlapping windows) — [`dynamic_index::DynamicPlane`].
//! - [`partitioned`] — the §7 future-work integration of index-batching
//!   with graph partitioning (per-partition models + halos) —
//!   [`partitioned::PartitionedPlane`].
//! - [`workflow`] — end-to-end convenience entry points used by the
//!   examples and the reproduction harness.

pub mod baseline_ddp;
pub mod dist_index;
pub mod dynamic_index;
pub mod engine;
pub mod gen_dist_index;
pub mod gpu_index;
pub mod index_batching;
pub mod memory_model;
pub mod partitioned;
pub mod projection;
pub mod trainer;
pub mod workflow;

pub use dist_index::DistConfig;
pub use engine::{DistDataPlane, EngineError, EngineOptions, EngineReport, StepLoop};
pub use index_batching::IndexDataset;
pub use memory_model::{index_batching_bytes, standard_preprocess_bytes};
pub use projection::{ProjectionParams, ScalingPoint};
pub use trainer::{Trainer, TrainerConfig, TrainingHistory};
