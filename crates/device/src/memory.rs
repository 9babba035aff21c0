//! Capacity-limited, peak-tracked memory pools.
//!
//! A [`MemPool`] accounts every allocation against a device's capacity and
//! records the high-water mark. The pool *only* accounts — no RAM is
//! touched — which lets the harness replay the paper's full-scale
//! preprocessing (419.46 GB for PeMS) on a small machine and reproduce
//! the OOM crashes of Figs 2 and 6 exactly.

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

/// A byte counter with a capacity and a high-water mark.
#[derive(Debug)]
pub struct MemPool {
    label: String,
    capacity: u64,
    in_use: u64,
    peak: u64,
}

impl MemPool {
    /// An empty pool of `capacity` bytes.
    pub fn new(label: impl Into<String>, capacity: u64) -> Self {
        MemPool {
            label: label.into(),
            capacity,
            in_use: 0,
            peak: 0,
        }
    }

    /// Account `bytes`; fails with [`AllocError`] when capacity would be
    /// exceeded (a request too large to add to the bytes in use exceeds it
    /// too). A failed request changes nothing.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), AllocError> {
        let fits = self.in_use.checked_add(bytes);
        let Some(in_use) = fits.filter(|&total| total <= self.capacity) else {
            return Err(AllocError {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
                pool: self.label.clone(),
            });
        };
        self.in_use = in_use;
        self.peak = self.peak.max(in_use);
        Ok(())
    }

    /// Return `bytes` to the pool.
    pub fn free(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_usage_and_peak() {
        let mut pool = MemPool::new("host", 1000);
        pool.alloc(400).unwrap();
        pool.alloc(500).unwrap();
        assert_eq!(pool.in_use(), 900);
        pool.free(400);
        assert_eq!(pool.in_use(), 500);
        assert_eq!(pool.peak(), 900, "peak survives frees");
        pool.free(500);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let mut pool = MemPool::new("host", 100);
        pool.alloc(80).unwrap();
        let err = pool.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert!(err.to_string().contains("OOM"));
        // Failed allocation does not change usage.
        assert_eq!(pool.in_use(), 80);
    }

    #[test]
    fn oversized_request_is_refused_not_wrapped() {
        let mut pool = MemPool::new("host", 100);
        pool.alloc(80).unwrap();
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
        let mut host = MemPool::new("polaris-host", 512 * gib);
        host.alloc((8.71 * gib as f64) as u64).unwrap();
        let preprocessed = host.alloc((419.46 * gib as f64) as u64);
        assert!(preprocessed.is_ok(), "the materialized arrays alone fit");
        // The duplicate working copies made while stacking snapshots tip it:
        let stacking_copy = host.alloc((419.46 * gib as f64 * 0.5) as u64);
        assert!(stacking_copy.is_err(), "stack() duplication must OOM");
    }
}
