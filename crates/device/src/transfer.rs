//! Host ↔ device transfer tracking.
//!
//! GPU-index-batching's headline effect (§4.1, Table 4) is consolidating
//! the many per-batch host→device copies of the standard workflow into a
//! single up-front transfer. [`TransferLedger`] records every modeled
//! transfer so experiments can report both the count and total bytes moved,
//! and charge simulated time through the cost model.

use crate::clock::SimClock;
use crate::costmodel::CostModel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Records host↔device traffic for one worker.
#[derive(Debug, Clone, Default)]
pub struct TransferLedger {
    inner: Arc<Mutex<LedgerInner>>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    h2d_count: u64,
    h2d_bytes: u64,
}

impl TransferLedger {
    /// Fresh ledger.
    pub fn new() -> Self {
        TransferLedger::default()
    }

    fn lock(&self) -> MutexGuard<'_, LedgerInner> {
        // Every update leaves the counts valid, so a guard poisoned by a
        // panicking holder is recovered (DESIGN.md §7).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Model a host→device copy: record it and charge time to the clock.
    pub fn h2d(&self, bytes: u64, cm: &CostModel, clock: &SimClock) {
        let mut i = self.lock();
        i.h2d_count += 1;
        i.h2d_bytes += bytes;
        drop(i);
        clock.advance_comm(cm.h2d(bytes));
    }

    /// Number of host→device transfers.
    pub fn h2d_count(&self) -> u64 {
        self.lock().h2d_count
    }

    /// Total host→device bytes.
    pub fn h2d_bytes(&self) -> u64 {
        self.lock().h2d_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_and_charges_time() {
        let ledger = TransferLedger::new();
        let cm = CostModel::polaris();
        let clock = SimClock::new();
        ledger.h2d(1 << 30, &cm, &clock);
        ledger.h2d(1 << 30, &cm, &clock);
        assert_eq!(ledger.h2d_count(), 2);
        assert_eq!(ledger.h2d_bytes(), 2 << 30);
        assert!(clock.comm_secs() > 0.08, "2 GiB over ~24 GB/s PCIe");
    }

    #[test]
    fn consolidated_transfer_beats_per_batch() {
        // The GPU-index-batching argument in miniature: one 8 GB transfer
        // is cheaper than 10k transfers of 0.8 MB because of latency.
        let cm = CostModel::polaris();
        let single = SimClock::new();
        TransferLedger::new().h2d(8 << 30, &cm, &single);
        let chatty = SimClock::new();
        let ledger = TransferLedger::new();
        for _ in 0..10_000 {
            ledger.h2d((8 << 30) / 10_000, &cm, &chatty);
        }
        assert!(single.comm_secs() < chatty.comm_secs());
    }
}
