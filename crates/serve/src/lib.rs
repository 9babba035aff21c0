//! # st-serve
//!
//! Forward-only batched inference on top of trained PGT-I artifacts — the
//! deployment half the training crates never had. The design transplants
//! the paper's two load-bearing ideas to serving:
//!
//! - **Index-batching at inference time** ([`window::RollingWindow`]): a
//!   deployed forecaster holds *one* rolling `[E, N, F]` signal buffer and
//!   answers every window query as a zero-copy, index-addressed view —
//!   exactly the `IndexDataset` trick (§4.1), applied to a live stream
//!   instead of a training set.
//! - **Window-parallel execution** ([`shard::BatchedServer`]): the
//!   paper's split over the temporal index, applied to requests. A
//!   deployment builds the graph's diffusion supports once, at deploy,
//!   and every shard restores its replica over them. A call's
//!   distinct windows are dealt round-robin to shards, each window is
//!   forwarded once by one shard and scattered to all of its queries, and
//!   the shards run concurrently under `st_dist::run_workers` over the
//!   one shared ring.
//!
//! Between the two sits a micro-batching request queue ([`queue`], driven
//! by [`slo::admit_and_coalesce`]): concurrent forecast requests are
//! coalesced into batched **tape-free** forward passes
//! ([`st_models::Seq2Seq::forward_inference`], which allocates no autograd
//! graph) under a `max_batch` / `max_delay` policy, so per-batch fixed
//! costs amortize across requests.
//!
//! [`snapshot::ModelSnapshot`] is the handoff format: trained parameters
//! (the engine's checkpoint state-dict), the `ModelConfig`, the fitted
//! `StandardScaler`, and split metadata in one versioned, checksummed file.
//! The round-trip contract — snapshot, load, serve — is bit-identical to
//! the trainer's own evaluation forward pass, and the integration tests
//! pin exactly that.
//!
//! The production serving plane wraps the core in three layers
//! (DESIGN.md §11):
//!
//! - **Live ingest** ([`ingest::StreamIngest`]): per-node tick streams
//!   staged behind per-node watermarks — ticks are the only way a row
//!   enters; a row enters the ring only once every node has delivered
//!   it, so servability is monotone and a query whose window outruns
//!   ingest gets a typed [`error::ServeError::NotYetServable`].
//! - **SLO admission control** ([`slo::admit_and_coalesce`]): the
//!   micro-batch queue gains a bounded depth and a deadline gate priced
//!   through the same [`st_device::CostModel`] quote the shard executor
//!   charges — overload sheds typed [`slo::Shed`] rejections
//!   instead of letting tail latency grow without bound. The SLO is the
//!   deployment's ([`shard::ServeConfig::slo`]); `serve` is the one query
//!   entry.
//! - **Multi-tenant hot-swap** ([`registry::SnapshotRegistry`]): many
//!   deployments per process behind atomic `Arc` swaps; a retrained
//!   snapshot hot-reloads with its forwards pinned bit-identical to a
//!   cold deploy.
//!
//! ## Deploying a snapshot in one example
//!
//! ```
//! use st_autograd::Module;
//! use st_data::scaler::StandardScaler;
//! use st_graph::{diffusion_supports, generators};
//! use st_models::{ModelConfig, PgtDcrnn, Support};
//! use st_serve::{BatchedServer, ModelSnapshot, Query, ServeConfig};
//! use st_tensor::Tensor;
//!
//! // A (toy) trained model over an 8-sensor corridor…
//! let net = generators::highway_corridor(8, 1, 5);
//! let cfg = ModelConfig {
//!     input_dim: 1, output_dim: 1, hidden: 4, num_nodes: 8,
//!     horizon: 3, diffusion_steps: 2, layers: 1,
//! };
//! let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
//! let model = PgtDcrnn::new(cfg.clone(), &supports, 7);
//! let snap = ModelSnapshot::capture(
//!     cfg, StandardScaler::identity(), None, &model.params(), 1);
//!
//! // …served across 2 shards, each window forwarded by one of them.
//! let history = Tensor::arange(20 * 8).reshape([20, 8, 1]).unwrap();
//! let server = BatchedServer::with_history(
//!     snap, net.adjacency.clone(), &history, ServeConfig::new(2, 20));
//! let report = server.serve(&[Query {
//!     id: 1, node: 3, window_end: 10, arrival_secs: 0.0,
//! }]);
//! assert_eq!(report.results.len(), 1);
//! assert_eq!(report.results[0].forecast.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod ingest;
pub mod queue;
pub mod registry;
pub mod shard;
pub mod slo;
pub mod snapshot;
pub mod window;

pub use error::ServeError;
pub use ingest::{IngestError, StreamIngest, Tick};
pub use queue::{MicroBatch, PendingRequest, QueueConfig};
pub use registry::SnapshotRegistry;
pub use shard::{
    BatchedServer, Query, QueryResult, Rejection, ServeConfig, ServeReport, ShardStats,
};
pub use slo::{admit_and_coalesce, BatchCost, Shed, ShedReason, SloConfig, SloSchedule};
pub use snapshot::{ModelSnapshot, SnapshotError};
pub use window::RollingWindow;
