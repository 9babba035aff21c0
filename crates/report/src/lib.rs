//! # st-report
//!
//! Small reporting toolkit for the reproduction harness: aligned text /
//! markdown tables (the `repro` experiments print the same rows the paper's
//! tables report), line-series rendering for figures, and experiment records
//! collecting paper-vs-ours values, each with its [`Basis`], for `REPRO.json`.

pub mod record;
pub mod series;
pub mod table;

pub use record::{Basis, ExperimentRecord, RecordSet};
pub use series::Series;
pub use table::Table;
