//! # st-data
//!
//! Spatiotemporal data layer: the dataset registry with the paper's exact
//! Table-1 shapes, synthetic signal generators standing in for the PeMS /
//! METR-LA / Windmill / Chickenpox feeds, the **baseline** Algorithm-1
//! preprocessing pipeline (sliding-window materialization with its
//! `2×horizon×` memory blow-up), standardization, splits, and the batch
//! loader.
//!
//! The paper's contribution — index-batching — lives in the `pgt-index`
//! crate and *replaces* [`preprocess`]; this crate deliberately implements
//! the wasteful standard pipeline so the comparison is honest.

pub mod datasets;
pub mod dynamic;
pub mod io;
pub mod loader;
pub mod preprocess;
pub mod scaler;
pub mod signal;
pub mod splits;
pub mod storage;
pub mod synthetic;

pub use datasets::{DatasetKind, DatasetSpec, Domain};
pub use loader::Batcher;
pub use preprocess::{materialized_bytes, materialized_xy, num_snapshots, PreprocessOutput};
pub use scaler::StandardScaler;
pub use signal::StaticGraphTemporalSignal;
pub use splits::{SplitIndices, SplitRatios};
pub use storage::{ChunkedSpec, ChunkedStore, RowStore, SignalStorage, StorageSpec};
