//! # st-device
//!
//! Simulated device substrate replacing the paper's physical Polaris node
//! (AMD EPYC host + 4×NVIDIA A100) with an analytically modeled one:
//!
//! - [`memory`] — capacity-limited, peak-tracked memory pools that register
//!   byte counts without touching RAM, which is how this repo reproduces
//!   the paper's 512 GB-host OOM crashes (Figs 2 and 6) for the 419.46 GB
//!   preprocessed PeMS dataset on a 21 GB container.
//! - [`clock`] — one rank's simulated clock: modeled compute and
//!   communication seconds, plus the FIFO accounting of quoted comm
//!   streams (setup reads, prefetched fetches, in-flight gradient
//!   buckets) hidden behind modeled compute.
//! - [`costmodel`] — analytic compute / transfer / network / IO costs
//!   calibrated to A100-, PCIe-, NVLink- and Slingshot-class constants.
//! - [`profiler`] — [`profiler::KernelSplit`] snapshots over `st_tensor`'s
//!   per-thread kernel-time counters (gemm / spmm / elementwise seconds).

pub mod clock;
pub mod costmodel;
pub mod device;
pub mod memory;
pub mod profiler;

pub use clock::{SimClock, StreamId};
pub use costmodel::CostModel;
pub use device::GIB;
pub use memory::{AllocError, MemPool};
pub use profiler::KernelSplit;
