//! Capacity-limited, peak-tracked memory pools.
//!
//! A [`MemPool`] accounts every allocation against a device's capacity and
//! records the high-water mark. The pool *only* accounts — no RAM is
//! touched — which lets the harness replay the paper's full-scale
//! preprocessing (419.46 GB for PeMS) on a small container and reproduce
//! the OOM crashes of Figs 2 and 6 exactly.
//!
//! Allocations are RAII guards: dropping an [`Allocation`] returns its bytes
//! to the pool, so peak tracking follows real object lifetimes.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Error returned when an allocation would exceed the pool capacity —
/// the simulated equivalent of the paper's OOM crashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    /// Bytes requested by the failed allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// Pool capacity in bytes.
    pub capacity: u64,
    /// Pool label (e.g. "host", "gpu0").
    pub pool: String,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OOM on {}: requested {:.2} GiB with {:.2}/{:.2} GiB in use",
            self.pool,
            self.requested as f64 / GIB,
            self.in_use as f64 / GIB,
            self.capacity as f64 / GIB
        )
    }
}

impl std::error::Error for AllocError {}

const GIB: f64 = (1u64 << 30) as f64;

#[derive(Debug)]
struct PoolInner {
    label: String,
    capacity: u64,
    in_use: u64,
    peak: u64,
}

/// A shared, thread-safe memory pool.
#[derive(Debug, Clone)]
pub struct MemPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl MemPool {
    /// Create a pool with the given capacity.
    pub fn new(label: impl Into<String>, capacity: u64) -> Self {
        MemPool {
            inner: Arc::new(Mutex::new(PoolInner {
                label: label.into(),
                capacity,
                in_use: 0,
                peak: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        // Every update leaves the ledger valid, so a guard poisoned by a
        // panicking holder is recovered (DESIGN.md §7).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocate `bytes`; fails with [`AllocError`] when capacity would be
    /// exceeded (a request too large to add to the bytes in use exceeds it
    /// too). The returned guard frees the bytes on drop.
    pub fn alloc(&self, bytes: u64) -> Result<Allocation, AllocError> {
        let mut inner = self.lock();
        let fits = inner.in_use.checked_add(bytes);
        let Some(in_use) = fits.filter(|&total| total <= inner.capacity) else {
            return Err(AllocError {
                requested: bytes,
                in_use: inner.in_use,
                capacity: inner.capacity,
                pool: inner.label.clone(),
            });
        };
        inner.in_use = in_use;
        inner.peak = inner.peak.max(inner.in_use);
        Ok(Allocation {
            pool: self.clone(),
            bytes,
        })
    }

    /// Allocate without a guard (caller promises a matching [`MemPool::free`]).
    /// Prefer [`MemPool::alloc`]; this exists for FFI-like call patterns in
    /// the preprocessing replays.
    pub fn alloc_untracked(&self, bytes: u64) -> Result<(), AllocError> {
        self.alloc(bytes).map(std::mem::forget)
    }

    /// Return `bytes` to the pool (pairs with [`MemPool::alloc_untracked`]).
    pub fn free(&self, bytes: u64) {
        let mut inner = self.lock();
        inner.in_use = inner.in_use.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.lock().in_use
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> u64 {
        self.lock().peak
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.lock().capacity
    }

    /// Peak usage in GiB (for reports).
    pub fn peak_gib(&self) -> f64 {
        self.peak() as f64 / GIB
    }
}

/// RAII guard for pool bytes.
#[derive(Debug)]
pub struct Allocation {
    pool: MemPool,
    bytes: u64,
}

impl Allocation {
    /// Size of this allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.pool.free(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_usage_and_peak() {
        let pool = MemPool::new("host", 1000);
        let a = pool.alloc(400).unwrap();
        let b = pool.alloc(500).unwrap();
        assert_eq!(pool.in_use(), 900);
        drop(a);
        assert_eq!(pool.in_use(), 500);
        assert_eq!(pool.peak(), 900, "peak survives frees");
        drop(b);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let pool = MemPool::new("host", 100);
        let _a = pool.alloc(80).unwrap();
        let err = pool.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert!(err.to_string().contains("OOM"));
        // Failed allocation does not change usage.
        assert_eq!(pool.in_use(), 80);
    }

    #[test]
    fn oversized_request_is_refused_not_wrapped() {
        let pool = MemPool::new("host", 100);
        let _a = pool.alloc(80).unwrap();
        let err = pool.alloc(u64::MAX).unwrap_err();
        assert_eq!(err.requested, u64::MAX);
        assert_eq!(err.in_use, 80);
        assert_eq!(pool.in_use(), 80);
        assert_eq!(pool.peak(), 80);
    }

    #[test]
    fn paper_scale_pems_oom_on_512gb_host() {
        // PeMS grows to 419.46 GB *after* preprocessing while the original
        // ~8.71 GB copy is still resident (Table 1) — together they exceed
        // the 512 GB Polaris node, which is exactly the crash in Fig. 2.
        let gib = 1u64 << 30;
        let host = MemPool::new("polaris-host", 512 * gib);
        let original = host.alloc((8.71 * gib as f64) as u64).unwrap();
        let preprocessed = host.alloc((419.46 * gib as f64) as u64);
        assert!(preprocessed.is_ok(), "the materialized arrays alone fit");
        // The duplicate working copies made while stacking snapshots tip it:
        let stacking_copy = host.alloc((419.46 * gib as f64 * 0.5) as u64);
        assert!(stacking_copy.is_err(), "stack() duplication must OOM");
        drop(original);
    }

    #[test]
    fn untracked_alloc_requires_manual_free() {
        let pool = MemPool::new("host", 100);
        pool.alloc_untracked(60).unwrap();
        assert_eq!(pool.in_use(), 60);
        pool.free(60);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn pools_are_shared_across_clones() {
        let pool = MemPool::new("host", 100);
        let clone = pool.clone();
        let _a = pool.alloc(50).unwrap();
        assert_eq!(clone.in_use(), 50);
    }
}
