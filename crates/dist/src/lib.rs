//! # st-dist
//!
//! The simulated distributed runtime behind PGT-I's headline contribution
//! (§4.2, §5.4): every "GPU worker" is an OS thread with its own model
//! replica and [`st_device::SimClock`]; collectives are barrier-synchronized
//! exchanges through a shared in-process hub that charge *modeled* Polaris
//! time (via [`st_device::CostModel`]) while keeping numerics bit-identical
//! regardless of thread scheduling.
//!
//! Modules:
//! - [`topology`] — cluster shape (ranks per node) deciding whether traffic
//!   rides NVLink or the inter-node network.
//! - [`launch`] — [`launch::run_workers`]: spawn one thread per rank, hand
//!   each a [`launch::WorkerCtx`] (a communicator that owns the rank's
//!   clock), join in rank
//!   order; [`launch::Comm::all_reduce`] is the one all-reduce (sum or
//!   mean; charged, quoted or non-blocking).
//! - [`ddp`] — [`ddp::broadcast_parameters`] and [`ddp::GradBuckets`], the
//!   one gradient-sync mechanism: byte-capped buckets in
//!   gradient-completion order, all-reduced as quoted collectives so the
//!   pipelined engine can hide them behind backward compute (a
//!   `usize::MAX` cap is the flat single-bucket reduce).
//! - [`shuffle`] — the paper's communication-free epoch shuffling: shared-
//!   seed global stripes, local and batch-order variants, and the partition
//!   arithmetic (`contiguous_partition`, `common_rounds`, `range_overlap`)
//!   that keeps ragged ranks aligned on collectives.
//! - [`datasvc`] — [`datasvc::DistributedArray`]: the Dask-style baseline
//!   data service (partitioned rows, on-demand batched fetches, remote-byte
//!   ledger).
//! - [`staleness`] — [`staleness::StalenessWindow`]: the bounded-staleness
//!   window over in-flight gradient collectives (each lands exactly `s`
//!   steps after it is issued; `s = 0` is the synchronous path).

pub mod datasvc;
pub mod ddp;
pub mod launch;
pub mod shuffle;
pub mod staleness;
pub mod topology;

pub use datasvc::DistributedArray;
pub use ddp::{GradBuckets, DEFAULT_GRAD_BUCKET_BYTES};
pub use launch::{run_workers, Comm, CommHub, ReduceOp, Timing, WorkerCtx};
pub use shuffle::ShuffleStrategy;
pub use staleness::StalenessWindow;
pub use topology::ClusterTopology;
