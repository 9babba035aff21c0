//! # st-graph
//!
//! Graph substrate for the PGT-I reproduction: sensor-network adjacency
//! construction (Gaussian kernel over road/geodesic distances, as in DCRNN),
//! CSR sparse matrices with sparse×dense products, the diffusion /
//! Laplacian transition operators the ST-GNN model zoo consumes, and the
//! graph-partitioning layer (paper §7) every distributed consumer routes
//! through.
//!
//! A graph is stored once and sparsely, in one of two forms. [`Adjacency`]
//! is the directed weighted matrix models consume — immutable, shared
//! behind an `Arc`, fingerprinted, a [`Csr`] of its non-zeros.
//! [`SparseGraph`] is the undirected topology partitioning runs on —
//! adjacency lists, mutable in place. Each converts to the other in
//! `O(E)`; only [`Adjacency::to_dense`] is `O(N²)`.
//!
//! ## Partitioning in one example
//!
//! ```
//! use st_graph::partition::{HaloCostModel, PartitionerKind};
//! use st_graph::generators;
//!
//! // A 32-sensor freeway corridor, split 4 ways by the multilevel
//! // partitioner (the default choice everywhere a config asks).
//! let net = generators::highway_corridor(32, 1, 7);
//! let parts = PartitionerKind::Multilevel.partition(&net.adjacency, None, 4);
//!
//! // Quality is judged in modeled halo bytes, not raw edge cut.
//! let cost = HaloCostModel::new(12, 1);
//! let bytes = cost.halo_bytes(&net.adjacency, &parts);
//! assert!(bytes > 0, "a 4-way split of a connected graph cuts something");
//! ```

#![warn(missing_docs)]

pub mod adjacency;
pub mod csr;
pub mod generators;
pub mod partition;
pub mod transition;

pub use adjacency::Adjacency;
pub use csr::Csr;
pub use generators::SensorNetwork;
pub use partition::{
    GraphDelta, HaloCostModel, IncrementalConfig, IncrementalPartitioner, PartitionerKind,
    Partitioning, SparseGraph, Subgraph,
};
pub use transition::{diffusion_supports, sym_norm_adjacency};
