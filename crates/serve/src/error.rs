//! Typed serving errors.
//!
//! A production serving plane never panics on a bad request: a query whose
//! window fell out of the ring, arrived before its data, or names an
//! unknown tenant gets a **typed** error the caller can act on (retry,
//! backfill, re-route), while programmer errors (malformed configs) stay
//! loud assertions. Every fallible public entry point in this crate
//! returns [`ServeError`].

use crate::ingest::IngestError;
use crate::snapshot::SnapshotError;

/// Why a serving-plane operation could not be carried out.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The requested window reaches past the rows the ring still retains —
    /// live ingest evicted them. The caller can only re-issue against a
    /// newer `window_end`; the data is gone.
    WindowEvicted {
        /// The requested exclusive window end (stream time).
        window_end: usize,
        /// The requested window length.
        horizon: usize,
        /// Oldest stream row the ring still holds.
        oldest_retained: usize,
    },
    /// The requested window ends after the newest fully-admitted row: some
    /// node it reads has not passed its watermark yet. Retry once ingest
    /// catches up.
    NotYetServable {
        /// The requested exclusive window end (stream time).
        window_end: usize,
        /// Rows admitted so far (the per-node watermark frontier).
        admitted: usize,
    },
    /// The window length is zero or exceeds the ring capacity — no ingest
    /// state could ever satisfy it.
    BadHorizon {
        /// The requested window length.
        horizon: usize,
        /// The ring capacity.
        capacity: usize,
    },
    /// The named tenant is not registered.
    UnknownTenant(String),
    /// A tenant with this name is already registered (use
    /// [`crate::registry::SnapshotRegistry::swap`] to replace it).
    TenantExists(String),
    /// A hot-swap snapshot's scaler differs from the one the live ring was
    /// standardized with — serving it against the current buffer would
    /// silently mix normalizations. Re-seed the window instead.
    ScalerMismatch,
    /// A hot-swap snapshot was trained on a different node count than the
    /// deployment's graph.
    GraphMismatch {
        /// Node count of the offered snapshot.
        snapshot_nodes: usize,
        /// Node count of the deployed graph.
        graph_nodes: usize,
    },
    /// A hot-swap snapshot expects a different per-node feature count
    /// than the live ring stores.
    FeatureMismatch {
        /// Input features the offered snapshot was trained on.
        snapshot_features: usize,
        /// Features per node the live ring stores.
        window_features: usize,
    },
    /// The deployment's ring cannot hold one input window of the offered
    /// snapshot's horizon.
    CapacityTooSmall {
        /// Ring capacity of the deployment.
        capacity: usize,
        /// Input-window length the snapshot needs.
        horizon: usize,
    },
    /// A deploy or hot-swap snapshot's state dict does not fit its own
    /// config, or the config describes no model; found before anything
    /// is built from it.
    Snapshot(SnapshotError),
    /// A live-ingest tick was rejected.
    Ingest(IngestError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::WindowEvicted {
                window_end,
                horizon,
                oldest_retained,
            } => write!(
                f,
                "window [{}, {window_end}) evicted: ring retains rows >= {oldest_retained}",
                window_end.saturating_sub(*horizon)
            ),
            ServeError::NotYetServable {
                window_end,
                admitted,
            } => write!(
                f,
                "window ending at {window_end} not yet servable: {admitted} rows admitted"
            ),
            ServeError::BadHorizon { horizon, capacity } => write!(
                f,
                "window length {horizon} unservable on a capacity-{capacity} ring"
            ),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t:?} already registered"),
            ServeError::ScalerMismatch => {
                write!(f, "hot-swap snapshot scaler differs from the live ring's")
            }
            ServeError::GraphMismatch {
                snapshot_nodes,
                graph_nodes,
            } => write!(
                f,
                "snapshot trained on {snapshot_nodes} nodes, graph has {graph_nodes}"
            ),
            ServeError::FeatureMismatch {
                snapshot_features,
                window_features,
            } => write!(
                f,
                "snapshot expects {snapshot_features} features, ring stores {window_features}"
            ),
            ServeError::CapacityTooSmall { capacity, horizon } => write!(
                f,
                "ring capacity {capacity} cannot hold a horizon-{horizon} window"
            ),
            ServeError::Snapshot(e) => write!(f, "snapshot does not fit its config: {e}"),
            ServeError::Ingest(e) => write!(f, "ingest: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        ServeError::Ingest(e)
    }
}
