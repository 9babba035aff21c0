//! # st-data
//!
//! Spatiotemporal data layer: the dataset registry with the paper's exact
//! Table-1 shapes, synthetic signal generators standing in for the PeMS /
//! METR-LA / Windmill / Chickenpox feeds, the **baseline** Algorithm-1
//! preprocessing pipeline (sliding-window materialization with its
//! `2×horizon×` memory blow-up), standardization, splits, and the batch
//! loader.
//!
//! A signal has one on-disk form: the out-of-core spill file behind
//! [`storage`] (raw `f32` rows, private to the process that wrote it).
//! Signals enter as tensors built in memory; no other signal file format
//! is read or written.
//!
//! The paper's contribution — index-batching — lives in the `pgt-index`
//! crate and *replaces* [`preprocess`]; this crate deliberately implements
//! the wasteful standard pipeline so the comparison is honest.

pub mod datasets;
pub mod dynamic;
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
